"""Tests for aggregation, year comparison, scenarios and rendering."""

import dataclasses
import json
import math
import random
from collections import Counter
from functools import reduce
from operator import add, itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_db, make_factor, neumaier_sum
from ecodiag import engine
from ecodiag.engine import EXTERNAL_GROUP, EmissionLine, compute_fleet
from ecodiag.errors import FleetParseError, ScenarioError
from ecodiag.factors import GROUPS
from ecodiag.inventory import (
    Asset, CableBulk, ComputeCampaign, ExternalServiceEntry, Fleet, ServerRoom, parse_fleet_csv,
    render_fleet_csv,
)
from ecodiag.report import (
    GENERATED_NOTE,
    Report,
    ScenarioAction,
    ScenarioResult,
    aggregate,
    apply_scenario,
    compare_years,
    evaluate_scenario,
    factor_db_identity,
    parse_actions_csv,
    parse_report_json,
    render,
)
from fleet_strategies import fleets
from randgen import (
    SHARED_IDS, colliding_asset, colliding_fleet, edge_case_fleet, random_asset, random_db,
    random_fleet,
)
from seed_engine import seed_compute_fleet
from seed_renderers import seed_render
from seed_scenario import seed_apply_scenario

KEY = itemgetter(0, 1, 2)  # compute_fleet's sort key: subject, scope, phase

REL = 1e-9


def simple_report(year=2019, total=1000.0, perimeter="Lab X") -> Report:
    return Report(
        reporting_year=year,
        perimeter_description=perimeter,
        totals_by_scope={"S1": 0.0, "S2": total, "S3": 0.0},
        totals_by_group={g: (total if g == "office" else 0.0) for g in GROUPS},
        external_total_kgco2e=0.0,
        grand_total_kgco2e=total,
        abs_uncertainty_kgco2e=0.0,
        line_count=1,
    )


def left_to_right(lines):
    """The scope, group and source sums of the lines, added left to right."""
    sums = Counter()
    for l in lines:
        sums["scope", l.scope] += l.kgco2e
        sums["group", l.group] += l.kgco2e
        sums["source", l.factor_source] += l.abs_uncertainty_kgco2e
    return sums


class TestAggregate:
    def test_empty_lines(self):
        report = aggregate([], Fleet("p", 2019))
        assert report.grand_total_kgco2e == 0.0
        assert report.totals_by_scope == {"S1": 0.0, "S2": 0.0, "S3": 0.0}
        assert all(v == 0.0 for v in report.totals_by_group.values())
        assert report.line_count == 0

    def test_two_line_sum(self):
        fleet = Fleet(
            "p", 2019,
            assets=(Asset("srv", "server", 1, 2019, measured_power_w=200.0),),
        )
        lines = compute_fleet(fleet, make_db(make_factor("server", fab=1000.0)))
        report = aggregate(lines, fleet)
        assert report.grand_total_kgco2e == pytest.approx(1208.488, rel=REL)
        assert report.totals_by_scope["S2"] == pytest.approx(208.488, rel=REL)
        assert report.totals_by_scope["S3"] == 1000.0
        assert report.totals_by_group["server_room"] == pytest.approx(1208.488, rel=REL)

    def test_permutation_invariant(self):
        rng = random.Random(3)
        db = random_db(rng)
        fleet = random_fleet(rng)
        lines = compute_fleet(fleet, db)
        shuffled = list(lines)
        rng.shuffle(shuffled)
        assert aggregate(shuffled, fleet) == aggregate(lines, fleet)

    def test_the_line_order_is_moot(self):
        """Every sum is exactly rounded: compute_fleet's lines and the same lines
        shuffled give one report, and one JSON, on random fleets and on fleets
        with lines of an equal key, where left-to-right sums often differ."""
        rng = random.Random(5)
        seen = Counter()
        for _ in range(300):
            db = random_db(rng)
            for make in (random_fleet, colliding_fleet):
                fleet = make(rng)
                lines = compute_fleet(fleet, db)
                shuffled = rng.sample(lines, len(lines))
                report, again = aggregate(lines, fleet), aggregate(shuffled, fleet)
                assert again == report and render(again, "json") == render(report, "json")
                seen[make.__name__] += 1
                seen["left-to-right sums differ"] += left_to_right(lines) != left_to_right(shuffled)
                seen["lines of an equal key"] += len({l[:3] for l in lines}) < len(lines)
        assert len(seen) == 4 and min(seen.values()) >= 100, seen

    def test_external_kept_out_of_groups(self):
        fleet = Fleet("p", 2019, external_services=(ExternalServiceEntry("x", 42.0, "S3"),))
        line = EmissionLine("x", "S3", "declared", 42.0, 0.0, "declared", "external")
        report = aggregate([line], fleet)
        assert report.external_total_kgco2e == 42.0
        assert sum(report.totals_by_group.values()) == 0.0
        assert report.grand_total_kgco2e == 42.0

    def test_uncertainty_overflow_rejected(self):
        # Both values are finite; the squared uncertainty is not.
        line = EmissionLine("x", "S3", "declared", 1e200, 1e200, "declared", "external")
        with pytest.raises(ValueError, match="sum of the emission lines overflows"):
            aggregate([line], Fleet("p", 2019))

    def test_an_iterator_gives_the_report_of_the_list(self):
        rng = random.Random(31)
        seen = Counter()
        for _ in range(100):
            db, fleet = random_db(rng), random_fleet(rng)
            lines = compute_fleet(fleet, db)
            expected = aggregate(lines, fleet, "h")
            assert aggregate(iter(lines), fleet, "h") == expected
            assert aggregate(engine.fleet_lines(fleet, db), fleet, "h") == expected
            seen[len({l.factor_source for l in lines}) > 1] += 1
        assert seen[True] >= 30, seen

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_an_iterator_names_its_first_non_finite_line(self, bad):
        lines = [EmissionLine("a", "S2", "usage", 1.0, 0.1, "base", "office"),
                 EmissionLine("b", "S3", "end_of_life", bad, 0.0, "base", "office"),
                 EmissionLine("c", "S2", "usage", math.inf, 0.0, "measured", "shared")]
        with pytest.raises(ValueError, match="the emission line of b overflows"):
            aggregate(iter(lines), Fleet("p", 2019))

    def test_an_iterator_of_finite_lines_names_their_sum(self):
        lines = (EmissionLine(f"a{i}", "S2", "usage", 1e308, 0.0, "measured", "office")
                 for i in range(2))
        with pytest.raises(ValueError, match="the sum of the emission lines overflows"):
            aggregate(lines, Fleet("p", 2019))

    def test_asset_sharing_an_external_id_stays_in_its_group(self):
        fleet = Fleet(
            "p", 2019,
            assets=(Asset("x", "laptop", 1, 2019, measured_power_w=100.0),),
            external_services=(ExternalServiceEntry("x", 42.0, "S3"),),
        )
        report = aggregate(compute_fleet(fleet, make_db(make_factor())), fleet)
        assert report.external_total_kgco2e == 42.0
        assert report.totals_by_group["office"] == pytest.approx(
            300.0 + 100.0 * 1607 / 1000 * 0.119, rel=REL
        )

    def test_asset_named_like_a_cable_category_leaves_cables_in_bulk(self):
        fleet = Fleet(
            "p", 2019,
            assets=(Asset("cable_cat5", "laptop", 1, 2010, measured_power_w=100.0),),
            cable_bulks=(CableBulk("cable_cat5", 10),),
        )
        db = make_db(make_factor(), make_factor("cable_cat5", fab=2.0))
        report = aggregate(compute_fleet(fleet, db), fleet)
        assert report.totals_by_group["bulk"] == 20.0
        assert report.totals_by_group["office"] == pytest.approx(
            100.0 * 1607 / 1000 * 0.119, rel=REL
        )

    @given(fleet=fleets())
    @settings(max_examples=40, deadline=None)
    def test_scope_and_group_sums_agree(self, fleet):
        # grand total == sum of scopes == sum of groups + external
        rng = random.Random(5)
        db = random_db(rng)
        from ecodiag.factors import FactorDatabase, GwpEntry

        known = {g.fluid for g in db.gwp_table}
        extra = tuple(
            GwpEntry(f, 1000.0)
            for f in sorted(
                {r.refrigerant_fluid for r in fleet.rooms if r.refrigerant_fluid} - known
            )
        )
        db = FactorDatabase(db.factors, db.gwp_table + extra, db.default_grid_factor_kgco2e_per_kwh)
        report = aggregate(compute_fleet(fleet, db), fleet)
        assert report.grand_total_kgco2e == pytest.approx(
            sum(report.totals_by_scope.values()), rel=REL
        )
        assert report.grand_total_kgco2e == pytest.approx(
            sum(report.totals_by_group.values()) + report.external_total_kgco2e, rel=REL
        )


class TestCompareYears:
    def test_decrease(self):
        cmp = compare_years([simple_report(2018, 1000.0), simple_report(2019, 900.0)])
        assert cmp.years == (2018, 2019)
        assert cmp.deltas_kgco2e == (-100.0,)
        assert cmp.deltas_pct == (-10.0,)

    def test_identical_totals(self):
        cmp = compare_years([simple_report(2018), simple_report(2019)])
        assert cmp.deltas_kgco2e == (0.0,)
        assert cmp.deltas_pct == (0.0,)

    def test_zero_previous_total_has_no_pct(self):
        cmp = compare_years([simple_report(2018, 0.0), simple_report(2019, 50.0)])
        assert cmp.deltas_pct == (None,)
        assert "n/a" in render(cmp, "markdown")

    def test_tiny_previous_total_has_no_pct(self):
        # 19 / 1.9e-311 overflows: no finite percentage, as from a zero base.
        cmp = compare_years([simple_report(2018, 1.9e-311), simple_report(2019, 19.0)])
        assert cmp.deltas_pct == (None,)
        for fmt in ("markdown", "csv"):
            text = render(cmp, fmt)
            assert "n/a" in text and "inf" not in text
        (delta,) = json.loads(render(cmp, "json"))["deltas"]
        assert delta["delta_pct"] is None

    def test_unsorted_input_sorted_by_year(self):
        cmp = compare_years([simple_report(2020, 800.0), simple_report(2018, 1000.0)])
        assert cmp.years == (2018, 2020)

    def test_fewer_than_two_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            compare_years([simple_report()])

    def test_duplicate_years_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            compare_years([simple_report(2019), simple_report(2019)])

    def test_perimeter_mismatch_warns(self):
        cmp = compare_years(
            [simple_report(2018, perimeter="Lab X"), simple_report(2019, perimeter="Lab Y")]
        )
        assert any("perimeter mismatch" in w for w in cmp.warnings)

    def test_three_year_series(self):
        cmp = compare_years(
            [simple_report(2018, 1000.0), simple_report(2019, 900.0), simple_report(2020, 990.0)]
        )
        assert cmp.grand_totals == (1000.0, 900.0, 990.0)
        assert cmp.deltas_kgco2e == (-100.0, 90.0)
        assert cmp.deltas_pct == (-10.0, 10.0)

    def test_factor_set_change_warns(self):
        a = dataclasses.replace(simple_report(2018), factor_db_hash="f:sha256:aaa")
        b = dataclasses.replace(simple_report(2019), factor_db_hash="f:sha256:bbb")
        cmp = compare_years([a, b])
        assert any("factor set changed" in w for w in cmp.warnings)


def base_fleet() -> Fleet:
    return Fleet(
        "p", 2019,
        assets=(
            Asset("srv-old", "server", 1, 2005, measured_power_w=350.0),
            Asset("pc", "laptop", 10, 2016),
        ),
    )


SERVER_DB = make_db(make_factor("server", fab=1000.0), make_factor("laptop"))


class TestApplyScenario:
    def test_remove(self):
        fleet = apply_scenario(base_fleet(), [ScenarioAction("remove", "pc")])
        assert [a.id for a in fleet.assets] == ["srv-old"]

    def test_baseline_untouched(self):
        baseline = base_fleet()
        apply_scenario(baseline, [ScenarioAction("remove", "pc")])
        assert len(baseline.assets) == 2

    def test_replace_forces_acquisition_year(self):
        new = Asset("srv-new", "server", 1, 2016, measured_power_w=200.0)
        fleet = apply_scenario(base_fleet(), [ScenarioAction("replace", "srv-old", new)])
        ids = {a.id for a in fleet.assets}
        assert "srv-old" not in ids and "srv-new" in ids
        added = next(a for a in fleet.assets if a.id == "srv-new")
        assert added.acquisition_year == 2019

    def test_remove_unknown_id(self):
        with pytest.raises(ScenarioError, match="unknown target asset id: ghost"):
            apply_scenario(base_fleet(), [ScenarioAction("remove", "ghost")])

    def test_add_existing_id_rejected(self):
        new = Asset("pc", "laptop", 1, 2019)
        with pytest.raises(ScenarioError, match="already exists: pc"):
            apply_scenario(base_fleet(), [ScenarioAction("add", new_asset=new)])

    def test_variant_order_for_mixed_actions(self):
        # Kept assets stay in fleet order; new ones follow in action order.
        fleet = Fleet("p", 2019, assets=tuple(Asset(f"a{i}", "laptop", 1, 2016) for i in range(5)))
        actions = [
            ScenarioAction("add", new_asset=Asset("n1", "laptop", 1, 2019)),
            ScenarioAction("remove", "a1"),
            ScenarioAction("replace", "a3", Asset("r3", "desktop", 1, 2019)),
            ScenarioAction("add", new_asset=Asset("n2", "screen", 2, 2019)),
            ScenarioAction("replace", "a0", Asset("r0", "laptop", 1, 2019)),
        ]
        variant = apply_scenario(fleet, actions)
        assert [a.id for a in variant.assets] == ["a2", "a4", "n1", "r3", "n2", "r0"]

    def test_replace_with_the_target_id(self):
        new = Asset("srv-old", "server", 1, 2016, measured_power_w=200.0)
        fleet = apply_scenario(base_fleet(), [ScenarioAction("replace", "srv-old", new)])
        assert [a.id for a in fleet.assets] == ["pc", "srv-old"]
        assert fleet.assets[1] == new._replace(acquisition_year=2019)

    def test_add_of_an_id_removed_earlier(self):
        again = Asset("srv-old", "server", 1, 2019, measured_power_w=100.0)
        fleet = apply_scenario(
            base_fleet(),
            [ScenarioAction("remove", "srv-old"), ScenarioAction("add", new_asset=again)],
        )
        assert fleet.assets == (base_fleet().assets[1], again)

    def test_second_remove_of_the_same_id(self):
        with pytest.raises(ScenarioError, match="unknown target asset id: pc"):
            apply_scenario(base_fleet(), [ScenarioAction("remove", "pc")] * 2)

    def test_action_shape_validated(self):
        with pytest.raises(ValueError, match="requires target"):
            ScenarioAction("remove")
        with pytest.raises(ValueError, match="requires new_asset"):
            ScenarioAction("add")

    def test_add_action_takes_no_target(self):
        with pytest.raises(ValueError, match="add takes no target id"):
            ScenarioAction("add", "x", Asset("pc2", "laptop", 5, 2019))


def outcome(call):
    """What a call gives: its result, or the type and message of its error."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def random_actions(rng, fleet):
    """0-8 actions whose targets are baseline ids, ids added earlier in the
    sequence or an unknown id, and whose new assets take a fresh id, the
    target's own id, a baseline id or an added one; some replacements are
    disposed of before the reporting year."""
    year, baseline, added, actions = fleet.reporting_year, [a.id for a in fleet.assets], [], []
    for k in range(rng.randint(0, 8)):
        op, target, new = rng.choice(("remove", "replace", "add")), None, None
        if op != "add":
            ids = rng.choice((baseline, added)) or baseline + added
            target = "ghost" if not ids or rng.random() < 0.05 else rng.choice(ids)
        if op != "remove":
            new = random_asset(rng, 3000 + k, year)
            new = (new._replace(disposal_year=None) if rng.random() < 0.8
                   else new._replace(acquisition_year=year - 2, disposal_year=year - 1))
            taken = rng.choice(baseline + added + [new.id])
            new_id = rng.choice((new.id, new.id, target or new.id, taken))
            new = new._replace(id=new_id)
            added.append(new_id)
        actions.append(ScenarioAction(op, target, new))
    return actions


def readd_dropped(rng, new, actions, target=None):
    """new, or one time in three new under the id of a baseline asset that the
    actions, or a replacement of target, drop and that no action adds back."""
    dropped = {a.target_asset_id for a in actions if a.op != "add"}
    if target is not None:
        dropped.add(target)
    free = sorted(dropped - {a.new_asset.id for a in actions if a.new_asset})
    return new._replace(id=rng.choice(free)) if free and rng.random() < 1 / 3 else new


def insert_add(rng, actions, new):
    """Insert an add of new at a random place after the action dropping its id, if any."""
    start = next((i + 1 for i, a in enumerate(actions) if a.target_asset_id == new.id), 0)
    actions.insert(rng.randint(start, len(actions)), ScenarioAction("add", new_asset=new))


def readded_ops(fleet, actions):
    """The ops of the actions whose new asset takes the id of a baseline asset."""
    ids = {a.id for a in fleet.assets}
    return {a.op for a in actions if a.new_asset is not None and a.new_asset.id in ids}


class TestActionsWalk:
    def test_agrees_with_the_seed_on_random_action_orders(self):
        rng = random.Random(18)
        seen = Counter()
        for _ in range(2000):
            db = random_db(rng)
            fleet = random_fleet(rng, max_entries=10)
            actions = random_actions(rng, fleet)
            try:
                variant = seed_apply_scenario(fleet, actions)
            except ScenarioError as exc:
                expected = ScenarioError, str(exc)
                assert outcome(lambda: apply_scenario(fleet, actions)) == expected
                assert outcome(lambda: evaluate_scenario(fleet, actions, db)) == expected
                kind = str(exc).split()[0]  # unknown, added or replacement
                if kind == "unknown":
                    kind = "ghost" if str(exc).endswith(": ghost") else "id no longer there"
                seen[kind] += 1
                continue
            assert apply_scenario(fleet, actions).assets == variant.assets
            result = evaluate_scenario(fleet, actions, db)
            assert result.variant == aggregate(compute_fleet(variant, db), variant)
            ids = {a.id for a in fleet.assets}
            seen["applied"] += 1
            seen["baseline id added back"] += any(
                a.new_asset is not None and a.new_asset.id in ids for a in actions
            )
            seen["added asset removed"] += any(
                a.op != "add" and a.target_asset_id not in ids for a in actions
            )
        assert len(seen) == 7 and min(seen.values()) >= 50, seen


def cross_kind_fleet() -> Fleet:
    """base_fleet with a room, a campaign and an external service of their own ids."""
    return dataclasses.replace(
        base_fleet(),
        rooms=(ServerRoom("sr1", ups_overhead_fraction=0.1),),
        campaigns=(ComputeCampaign("hpc", kwh=1000.0),),
        external_services=(ExternalServiceEntry("cloud", 50.0, "S3"),),
    )


SCENARIO_CALLS = [
    pytest.param(apply_scenario, id="apply_scenario"),
    pytest.param(lambda fleet, actions: evaluate_scenario(fleet, actions, SERVER_DB),
                 id="evaluate_scenario"),
]


class TestIdsOfOtherKinds:
    """Ids may coincide across kinds; a scenario looks its targets and new ids
    up among the asset ids only."""

    @pytest.mark.parametrize("call", SCENARIO_CALLS)
    @pytest.mark.parametrize("op", ["remove", "replace"])
    @pytest.mark.parametrize("target", ["sr1", "hpc", "cloud"])
    def test_a_target_of_another_kind_is_unknown(self, call, op, target):
        new = Asset("srv-new", "server", 1, 2019) if op == "replace" else None
        with pytest.raises(ScenarioError, match=f"^unknown target asset id: {target}$"):
            call(cross_kind_fleet(), [ScenarioAction(op, target, new)])

    @pytest.mark.parametrize("new_id", ["sr1", "hpc", "cloud"])
    def test_an_add_may_take_the_id_of_another_kind(self, new_id):
        fleet = cross_kind_fleet()
        new = Asset(new_id, "server", 2, 2019, measured_power_w=100.0)
        actions = [ScenarioAction("add", new_asset=new)]
        variant = apply_scenario(fleet, actions)
        assert variant.assets == (*fleet.assets, new)
        result = evaluate_scenario(fleet, actions, SERVER_DB)
        assert result.variant == aggregate(compute_fleet(variant, SERVER_DB), variant)
        assert result.delta_kgco2e > 0


class TestEvaluateScenario:
    def test_server_replacement_payback(self):
        new = Asset("srv-new", "server", 1, 2019, measured_power_w=200.0)
        result = evaluate_scenario(
            base_fleet(), [ScenarioAction("replace", "srv-old", new)], SERVER_DB
        )
        savings = (350 - 200) * 8760 / 1000 * 0.119
        assert result.payback_years == pytest.approx(1000.0 / savings, rel=REL)
        assert result.payback_years == pytest.approx(6.40, abs=0.01)
        assert "pays back" in result.verdict

    def test_empty_actions_zero_delta(self):
        result = evaluate_scenario(base_fleet(), [], SERVER_DB)
        assert result.delta_kgco2e == 0.0
        assert result.payback_years is None

    def test_power_increase_has_no_payback(self):
        new = Asset("srv-new", "server", 1, 2019, measured_power_w=500.0)
        result = evaluate_scenario(
            base_fleet(), [ScenarioAction("replace", "srv-old", new)], SERVER_DB
        )
        assert result.payback_years is None
        assert "no annual usage savings" in result.verdict

    def test_savings_too_small_for_a_finite_payback(self):
        fleet = Fleet("p", 2019, assets=(Asset("pc", "laptop", 1, 2015, measured_power_w=1e-300),))
        new = Asset(
            "pc-new", "laptop", 1, 2019, measured_power_w=0.0, vendor_fab_transport_kgco2e=1e300
        )
        result = evaluate_scenario(
            fleet, [ScenarioAction("replace", "pc", new)], make_db(make_factor())
        )
        assert result.payback_years is None
        assert result.verdict == "no annual usage savings; added fabrication is not recovered"

    def test_pure_removal_pays_back_instantly(self):
        result = evaluate_scenario(
            base_fleet(), [ScenarioAction("remove", "srv-old")], SERVER_DB
        )
        assert result.payback_years == 0.0

    def test_cable_bulk_sharing_the_added_id_is_not_added_fabrication(self):
        fleet = Fleet(
            "p", 2019,
            assets=(Asset("pc", "laptop", 1, 2015, measured_power_w=200.0),),
            cable_bulks=(CableBulk("cable_cat5", 100),),
        )
        db = make_db(make_factor(), make_factor("cable_cat5", fab=2.0))
        paybacks = [
            evaluate_scenario(
                fleet,
                [ScenarioAction("replace", "pc", Asset(new_id, "laptop", 1, 2019, measured_power_w=20.0))],
                db,
            ).payback_years
            for new_id in ("pc2", "cable_cat5")
        ]
        assert paybacks[0] == pytest.approx(300.0 / (180.0 * 1607 / 1000 * 0.119), rel=REL)
        assert paybacks[1] == paybacks[0]

    def test_variant_equals_a_full_recompute_on_random_fleets(self):
        rng = random.Random(23)
        seen = Counter()
        for _ in range(40):
            db = random_db(rng)
            fleet = random_fleet(rng, max_entries=30)
            targets = [a.id for a in fleet.assets]
            rng.shuffle(targets)
            actions = []
            for k, target in enumerate(targets[: rng.randint(0, len(targets))]):
                if rng.random() < 0.5:
                    actions.append(ScenarioAction("remove", target))
                else:
                    new = random_asset(rng, 1000 + k, fleet.reporting_year)
                    # A replacement is acquired this year, so it cannot be disposed before.
                    new = readd_dropped(rng, new._replace(disposal_year=None), actions, target)
                    actions.append(ScenarioAction("replace", target, new))
            for k in range(rng.randint(0, 3)):
                new = random_asset(rng, 2000 + k, fleet.reporting_year)
                insert_add(rng, actions, readd_dropped(rng, new, actions))
            result = evaluate_scenario(fleet, actions, db)
            variant = seed_apply_scenario(fleet, actions)
            assert result.variant == aggregate(compute_fleet(variant, db), variant)
            assert result.baseline == aggregate(compute_fleet(fleet, db), fleet)
            seen.update(f"id re-added by {op}" for op in readded_ops(fleet, actions))
        assert len(seen) == 2 and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("chunk", [1, 2, 3, engine._CHUNK_ASSETS])
def test_variant_lines_equal_the_seed_on_fleets_with_shared_ids(chunk, monkeypatch):
    """The variant's lines, the baseline's chunks filtered of the dropped
    subjects and then the new assets' lines, are once sorted the seed compute
    of the variant fleet, float for float, on fleets whose ids coincide across
    kinds, at every chunk size."""
    monkeypatch.setattr(engine, "_CHUNK_ASSETS", chunk)
    rng = random.Random(31)
    computed = []

    def recording(*args):
        computed.append(sorted(engine.fleet_lines(*args), key=KEY))
        return computed[-1]

    monkeypatch.setattr("ecodiag.report.fleet_lines", recording)
    seen = Counter()
    for _ in range(300):
        db, fleet = random_db(rng), colliding_fleet(rng)
        year, live = fleet.reporting_year, [a.id for a in fleet.assets]
        rng.shuffle(live)
        actions = []
        for k, target in enumerate(live[: rng.randint(0, len(live))]):
            if rng.random() < 0.5:
                actions.append(ScenarioAction("remove", target))
            else:
                taken = set(live) | {a.new_asset.id for a in actions if a.new_asset}
                new = colliding_asset(rng, 1000 + k, year, taken)._replace(disposal_year=None)
                new = readd_dropped(rng, new, actions, target)
                actions.append(ScenarioAction("replace", target, new))
        for k in range(rng.randint(0, 3)):
            taken = set(live) | {a.new_asset.id for a in actions if a.new_asset}
            new = colliding_asset(rng, 2000 + k, year, taken)
            insert_add(rng, actions, readd_dropped(rng, new, actions))
        computed.clear()
        evaluate_scenario(fleet, actions, db)
        variant = seed_apply_scenario(fleet, actions)
        expected = seed_compute_fleet(variant, db)
        assert computed[1] == expected and repr(computed[1]) == repr(expected)
        assert repr(computed[0]) == repr(seed_compute_fleet(fleet, db))
        seen["removed"] += any(a.op == "remove" for a in actions)
        new_ids = {a.new_asset.id for a in actions if a.new_asset} & {a.id for a in variant.assets}
        seen["new asset sharing an id"] += bool(new_ids & {*SHARED_IDS, "cable_cat5", "cable_hdmi"})
        seen["UPS overhead"] += any(l.factor_source.startswith("room_overhead:") for l in expected)
        seen.update(f"id re-added by {op}" for op in readded_ops(fleet, actions))
    assert len(seen) == 5 and min(seen.values()) >= 30, seen


def shuffled_rows(rng, fleet):
    """The fleet written as a fleet CSV and read back, with its rows as written
    and with its body rows shuffled."""
    header, *body = render_fleet_csv(fleet).splitlines(keepends=True)
    shuffled = rng.sample(body, len(body))
    return [parse_fleet_csv("".join([header, *rows]), fleet.reporting_year,
                            fleet.perimeter_description) for rows in (body, shuffled)]


def left_to_right_pool(fleet, db):
    """The pool's (kgco2e, uncertainty) added left to right in fleet order."""
    pool = [l for l in engine.asset_lines(fleet, fleet.assets, db)
            if l.group == "server_room" and l.scope == "S2"]
    return (reduce(add, (l.kgco2e for l in pool), 0.0),
            reduce(add, (l.abs_uncertainty_kgco2e for l in pool), 0.0))


def test_reports_do_not_depend_on_the_row_order():
    """A fleet with a room charging a UPS overhead, its body rows shuffled, gives
    the same yearly report and scenario result, byte for byte in JSON, though
    its server-room pool added left to right in fleet order often differs."""
    rng = random.Random(33)
    seen = Counter()
    for _ in range(300):
        db, make = random_db(rng), rng.choice((random_fleet, colliding_fleet, edge_case_fleet))
        fleet = make(rng) if make is edge_case_fleet else make(rng, 60)
        if not any(r.ups_overhead_fraction for r in fleet.rooms):
            charged = ServerRoom("ups-room", ups_overhead_fraction=rng.uniform(0.01, 0.3))
            fleet = dataclasses.replace(fleet, rooms=(*fleet.rooms, charged))
        as_written, shuffled = shuffled_rows(rng, fleet)
        report = render(aggregate(engine.fleet_lines(as_written, db), as_written), "json")
        assert render(aggregate(engine.fleet_lines(shuffled, db), shuffled), "json") == report
        year, actions = fleet.reporting_year, []
        for k, target in enumerate(rng.sample(sorted(a.id for a in fleet.assets),
                                              min(len(fleet.assets), rng.randint(0, 4)))):
            taken = {a.id for a in fleet.assets} | {a.new_asset.id for a in actions if a.new_asset}
            new = colliding_asset(rng, 1000 + k, year, taken)._replace(disposal_year=None)
            actions.append(rng.choice((ScenarioAction("remove", target),
                                       ScenarioAction("replace", target, new))))
        for k in range(rng.randint(0, 3)):
            taken = {a.id for a in fleet.assets} | {a.new_asset.id for a in actions if a.new_asset}
            actions.append(ScenarioAction("add", new_asset=colliding_asset(rng, 2000 + k, year, taken)))
        result = evaluate_scenario(as_written, actions, db)
        shuffled_result = evaluate_scenario(shuffled, actions, db)
        assert shuffled_result == result and render(shuffled_result, "json") == render(result, "json")
        seen[make.__name__] += 1
        seen["fleet-order pool sums differ"] += (left_to_right_pool(as_written, db)
                                                 != left_to_right_pool(shuffled, db))
        seen["pool asset added"] += any(a.new_asset and a.new_asset.category in engine._POOL_CATEGORIES
                                        for a in actions)
    assert len(seen) == 5 and min(seen.values()) >= 30, seen


class TestFloatSumsUnderACompensatedSum:
    """Every float sum of the engine and the report is exactly rounded, whatever
    the interpreter's sum() does: 2**54 + 1.5 + 1.5 gives 2**54 + 4, as a
    compensated sum (Python 3.12's) does, where a left-to-right sum rounds
    back to 2**54 at each step."""

    BIG = 2.0**54

    def lines(self):
        return [
            EmissionLine("a", "S1", "fugitive", self.BIG, 2.0**27, "big", "server_room"),
            EmissionLine("b", "S2", "usage", 1.5, 0.0, "measured", "office"),
            EmissionLine("c", "S3", "declared", 1.5, 0.0, "declared", EXTERNAL_GROUP),
            # 2**54 + 1000 under the root adds 3.7e-6 to the uncertainty.
            *(EmissionLine(f"d{i}", "S2", "usage", 0.0, 1.0, f"src{i}", "office")
              for i in range(1000)),
        ]

    def test_the_compensated_sum_differs(self):
        assert neumaier_sum([self.BIG, 1.5, 1.5]) == self.BIG + 4 != sum([self.BIG, 1.5, 1.5])

    def test_aggregate(self, compensated_sum):
        result = aggregate(self.lines(), Fleet("p", 2019))
        assert (result.grand_total_kgco2e, result.abs_uncertainty_kgco2e) == (
            self.BIG + 4, math.sqrt(self.BIG + 1000))

    def test_added_fabrication(self, compensated_sum):
        fleet = Fleet("p", 2019, assets=(Asset("old", "laptop", 1, 2015, measured_power_w=500.0),))
        actions = [ScenarioAction("remove", "old")] + [
            ScenarioAction("add", new_asset=Asset(id_, "laptop", 1, 2019, measured_power_w=0.0,
                                                  vendor_fab_transport_kgco2e=fab))
            for id_, fab in (("n1", self.BIG), ("n2", 1.5), ("n3", 1.5))
        ]
        result = evaluate_scenario(fleet, actions, make_db(make_factor()))
        savings = result.baseline.totals_by_scope["S2"] - result.variant.totals_by_scope["S2"]
        assert result.payback_years == (self.BIG + 4) / savings


def variant_lines_checked(fleet, actions, db, monkeypatch):
    """The variant's lines from evaluate_scenario, sorted, checked equal (lines
    and report) to a full compute of the variant fleet."""
    computed = []

    def recording(*args):
        computed.append(sorted(engine.fleet_lines(*args), key=KEY))
        return computed[-1]

    monkeypatch.setattr("ecodiag.report.fleet_lines", recording)
    result = evaluate_scenario(fleet, actions, db)
    monkeypatch.undo()
    variant = seed_apply_scenario(fleet, actions)
    full = compute_fleet(variant, db)
    assert computed[1] == full
    assert result.variant == aggregate(full, variant)
    assert result.baseline == aggregate(compute_fleet(fleet, db), fleet)
    return full


ROOM_DB = make_db(
    make_factor("server", fab=1000.0, power=300.0),
    make_factor("laptop"),
    make_factor("desktop", fab=400.0, power=80.0),
)


def server_fleet(*rooms: ServerRoom) -> Fleet:
    return Fleet(
        "p", 2019,
        assets=(
            Asset("sr1", "server", 1, 2015),
            Asset("srv-a", "server", 2, 2019),
            Asset("pc", "laptop", 10, 2016),
            Asset("srv-b", "server", 1, 2017, measured_power_w=250.0),
        ),
        rooms=rooms,
    )


class TestScenarioVariantLines:
    """evaluate_scenario builds the variant from the baseline's asset lines;
    each case must give exactly the lines of a full compute."""

    def test_removed_asset_sharing_a_room_id_keeps_the_room_line(self, monkeypatch):
        fleet = server_fleet(ServerRoom("sr1", "R410A", 1.5, ups_overhead_fraction=0.1))
        lines = variant_lines_checked(
            fleet, [ScenarioAction("remove", "sr1")], ROOM_DB, monkeypatch
        )
        assert [(l.scope, l.phase) for l in lines if l.subject_id == "sr1"] == [
            ("S1", "fugitive"), ("S2", "usage"),
        ]

    def test_metered_room_suppresses_the_pool(self, monkeypatch):
        fleet = server_fleet(ServerRoom("room", measured_room_kwh_per_year=9000.0))
        new = Asset("srv-c", "server", 1, 2019)
        lines = variant_lines_checked(
            fleet, [ScenarioAction("replace", "srv-a", new)], ROOM_DB, monkeypatch
        )
        assert [l.subject_id for l in lines if l.phase == "usage"] == ["pc", "room"]

    def test_replace_keeping_its_id(self, monkeypatch):
        fleet = server_fleet(ServerRoom("room", ups_overhead_fraction=0.2))
        new = Asset("srv-a", "server", 1, 2016, measured_power_w=120.0)
        lines = variant_lines_checked(
            fleet, [ScenarioAction("replace", "srv-a", new)], ROOM_DB, monkeypatch
        )
        usage = next(l for l in lines if l.subject_id == "srv-a" and l.phase == "usage")
        assert usage.kgco2e == pytest.approx(120.0 * 8760 / 1000 * 0.119, rel=REL)

    def test_remove_then_add_the_same_id(self, monkeypatch):
        fleet = server_fleet(ServerRoom("room", ups_overhead_fraction=0.2))
        again = Asset("srv-b", "desktop", 3, 2019)
        actions = [ScenarioAction("remove", "srv-b"), ScenarioAction("add", new_asset=again)]
        lines = variant_lines_checked(fleet, actions, ROOM_DB, monkeypatch)
        assert {l.group for l in lines if l.subject_id == "srv-b"} == {"office"}

    def test_add_then_remove_the_same_id(self, monkeypatch):
        fleet = server_fleet(ServerRoom("room", ups_overhead_fraction=0.2))
        new = Asset("srv-c", "server", 4, 2019)
        actions = [ScenarioAction("add", new_asset=new), ScenarioAction("remove", "srv-c")]
        lines = variant_lines_checked(fleet, actions, ROOM_DB, monkeypatch)
        assert lines == compute_fleet(fleet, ROOM_DB)

    def test_category_used_only_by_a_new_asset(self, monkeypatch):
        fleet = server_fleet(ServerRoom("room", ups_overhead_fraction=0.2))
        new = Asset("ws", "desktop", 2, 2019)
        actions = [ScenarioAction("replace", "pc", new), ScenarioAction("remove", "srv-b")]
        lines = variant_lines_checked(fleet, actions, ROOM_DB, monkeypatch)
        phases = [l.phase for l in lines if l.subject_id == "ws"]
        assert phases == ["usage", "fabrication_transport"]

    def test_new_pool_assets_are_summed_in_append_order(self, sample_db):
        # The new assets come in append order (z, a, m), the variant fleet's in
        # id order (a, m, z); left to right, the pool's float sums would differ.
        fleet = Fleet("p", 2019, assets=(Asset("s0", "server", 1, 2015, measured_power_w=115.2),),
                      rooms=(ServerRoom("r", ups_overhead_fraction=0.1),))
        actions = [ScenarioAction("add", new_asset=Asset(id_, "server", 1, 2019, measured_power_w=w))
                   for id_, w in (("z", 472.7), ("a", 450.8), ("m", 16.3))]
        variant = apply_scenario(fleet, actions)
        result = evaluate_scenario(fleet, actions, sample_db)
        assert result.variant == aggregate(compute_fleet(variant, sample_db), variant)

    def test_baseline_pool_sum_does_not_depend_on_the_asset_order(self, sample_db, monkeypatch):
        fleet = Fleet("p", 2019, rooms=(ServerRoom("r", ups_overhead_fraction=0.1),), assets=(
            *(Asset(id_, "server", 1, 2015, measured_power_w=w)
              for id_, w in (("z", 257.6), ("a", 298.6), ("m", 26.9))),
            Asset("pc", "laptop", 1, 2015),
        ))
        by_id = dataclasses.replace(fleet, assets=tuple(sorted(fleet.assets, key=itemgetter(0))))
        # Left to right, the pool's float sum, and so the UPS overhead, differs
        # between fleet order (z, a, m) and id order (a, m, z).
        kg = {l.subject_id: l.kgco2e for l in engine.asset_lines(fleet, fleet.assets, sample_db)}
        assert kg["z"] + kg["a"] + kg["m"] != kg["a"] + kg["m"] + kg["z"]
        calls = []
        real = engine.asset_lines

        def recording(f, assets, *args):
            calls.append([a.id for a in assets])
            return real(f, assets, *args)

        monkeypatch.setattr(engine, "asset_lines", recording)
        result = evaluate_scenario(fleet, [], sample_db)
        assert [ids for ids in calls if ids] == [["z", "a", "m", "pc"]]
        monkeypatch.undo()
        assert result == evaluate_scenario(by_id, [], sample_db)
        assert result.baseline == aggregate(compute_fleet(fleet, sample_db), fleet)

    def test_usage_evaluated_once_per_baseline_asset_and_once_per_new_one(
        self, monkeypatch
    ):
        fleet = server_fleet(ServerRoom("room", ups_overhead_fraction=0.2))
        actions = [
            ScenarioAction("replace", "srv-a", Asset("srv-c", "server", 1, 2019)),
            ScenarioAction("remove", "pc"),
            ScenarioAction("add", new_asset=Asset("ws", "desktop", 1, 2019)),
        ]
        calls = []
        real = engine.asset_lines

        def recording(f, assets, *args):
            calls.extend(assets)
            return real(f, assets, *args)

        # asset_part and evaluate_scenario both call it by this name, so a
        # second pass over the fleet would be counted too.
        monkeypatch.setattr(engine, "asset_lines", recording)
        monkeypatch.setattr("ecodiag.report.asset_lines", recording)
        evaluate_scenario(fleet, actions, ROOM_DB)
        assert [a.id for a in calls] == ["sr1", "srv-a", "pc", "srv-b", "srv-c", "ws"]

    def test_no_variant_fleet_is_built(self, monkeypatch):
        fleet = server_fleet(ServerRoom("room", ups_overhead_fraction=0.2))
        actions = [
            ScenarioAction("remove", "pc"),
            ScenarioAction("replace", "srv-a", Asset("srv-c", "server", 1, 2019)),
            ScenarioAction("add", new_asset=Asset("ws", "desktop", 1, 2019)),
        ]
        built = []
        real = Fleet.__post_init__

        def counting(self):
            built.append(self)
            real(self)

        monkeypatch.setattr(Fleet, "__post_init__", counting)
        evaluate_scenario(fleet, actions, ROOM_DB)
        assert built == []
        apply_scenario(fleet, actions)  # the count sees a Fleet being built
        assert len(built) == 1


class TestParseActionsCsv:
    def test_remove_row(self):
        (action,) = parse_actions_csv("remove,srv-old\n")
        assert action == ScenarioAction("remove", "srv-old")

    def test_replace_row(self):
        (action,) = parse_actions_csv("replace,srv-old,srv-new,server,1,2019,,in_use,200,,\n")
        assert action.op == "replace"
        assert action.target_asset_id == "srv-old"
        assert action.new_asset.measured_power_w == 200.0

    def test_add_row(self):
        (action,) = parse_actions_csv("add,,pc2,laptop,5,2019,,in_use,,,\n")
        assert action.op == "add"
        assert action.new_asset.quantity == 5

    def test_header_and_comments_skipped(self):
        actions = parse_actions_csv("# plan\nop,target_id\nremove,x\n")
        assert len(actions) == 1

    def test_op_row_after_the_first_is_an_unknown_op(self):
        with pytest.raises(FleetParseError) as info:
            parse_actions_csv("remove,a\nop,x\nremove,b\n")
        assert str(info.value) == "row 2: unknown op 'op' (expected remove|add|replace)"

    def test_unknown_op_is_parse_error(self):
        with pytest.raises(FleetParseError, match="unknown op 'upgrade'"):
            parse_actions_csv("upgrade,x\n")

    def test_add_with_target_rejected(self):
        with pytest.raises(FleetParseError, match="no target id"):
            parse_actions_csv("add,x,pc2,laptop,5,2019,,in_use,,,\n")


class TestRender:
    def test_byte_stable(self, sample_db, sample_fleet):
        lines = compute_fleet(sample_fleet, sample_db)
        report = aggregate(lines, sample_fleet, "factors:sha256:abc")
        for fmt in ("json", "csv", "markdown"):
            assert render(report, fmt) == render(report, fmt)

    def test_empty_report_json_keys(self):
        report = aggregate([], Fleet("p", 2019))
        data = json.loads(render(report, "json"))
        assert list(data) == [
            "reporting_year", "perimeter", "totals_by_scope", "totals_by_group",
            "external_total", "grand_total_kgco2e", "abs_uncertainty_kgco2e",
            "line_count", "factor_db_hash",
        ]
        assert data["grand_total_kgco2e"] == 0.0
        assert data["totals_by_scope"] == {"S1": 0.0, "S2": 0.0, "S3": 0.0}

    def test_markdown_uncertainty_format(self):
        report = dataclasses.replace(simple_report(), abs_uncertainty_kgco2e=50.0)
        assert "± 50.0 kgCO₂e" in render(report, "markdown")

    def test_markdown_includes_perimeter_and_note(self):
        text = render(simple_report(), "markdown")
        assert "Lab X" in text
        assert GENERATED_NOTE in text

    def test_json_round_trip_exact(self, sample_db, sample_fleet):
        lines = compute_fleet(sample_fleet, sample_db)
        report = aggregate(lines, sample_fleet, "factors:sha256:abc")
        parsed = parse_report_json(render(report, "json"))
        assert parsed.grand_total_kgco2e == report.grand_total_kgco2e
        assert parsed.abs_uncertainty_kgco2e == report.abs_uncertainty_kgco2e
        assert parsed.totals_by_scope == report.totals_by_scope
        assert parsed.totals_by_group == report.totals_by_group
        assert parsed == report

    def test_json_render_parse_render_identity(self, sample_db, sample_fleet):
        lines = compute_fleet(sample_fleet, sample_db)
        report = aggregate(lines, sample_fleet, "factors:sha256:abc")
        text = render(report, "json")
        assert render(parse_report_json(text), "json") == text

    def test_report_csv_shape(self):
        text = render(simple_report(), "csv")
        rows = text.strip().split("\n")
        assert rows[0] == "year,scope,group,kgco2e,uncertainty"
        # 3 scopes + 6 groups + external + total
        assert len(rows) == 1 + 3 + len(GROUPS) + 1 + 1
        assert rows[-1] == "2019,,,1000.0,0.0"

    def test_comparison_renders(self):
        cmp = compare_years([simple_report(2018, 1000.0), simple_report(2019, 900.0)])
        md = render(cmp, "markdown")
        assert "-10.0%" in md
        csv_text = render(cmp, "csv")
        assert csv_text.startswith("year,S1,S2,S3,grand_total,delta_kgco2e,delta_pct")
        data = json.loads(render(cmp, "json"))
        assert data["deltas"][0]["delta_kgco2e"] == -100.0

    def test_scenario_renders(self):
        new = Asset("srv-new", "server", 1, 2019, measured_power_w=200.0)
        result = evaluate_scenario(
            base_fleet(), [ScenarioAction("replace", "srv-old", new)], SERVER_DB
        )
        md = render(result, "markdown")
        assert "Payback: 6.40 years" in md
        data = json.loads(render(result, "json"))
        assert data["payback_years"] == pytest.approx(6.395, abs=0.01)
        assert "verdict" in data

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render(simple_report(), "pdf")

    def test_parse_report_json_missing_key(self):
        with pytest.raises(ValueError, match="lacks key"):
            parse_report_json("{}")

    def report_json(self, **changes) -> str:
        data = json.loads(render(simple_report(), "json"))
        data.update(changes)
        return json.dumps(data)

    def test_parse_report_json_missing_nested_key(self):
        text = self.report_json(totals_by_scope={"S1": 0.0, "S3": 1.0})
        with pytest.raises(ValueError, match=r"lacks key\(s\): totals_by_scope\.S2"):
            parse_report_json(text)

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"totals_by_group": [1.0]}, "key totals_by_group must be an object"),
            ({"reporting_year": "2019"}, "key reporting_year must be an integer"),
            ({"line_count": True}, "key line_count must be an integer"),
            ({"perimeter": 7}, "key perimeter must be a string"),
            ({"grand_total_kgco2e": None}, "key grand_total_kgco2e must be a finite number"),
            ({"external_total": float("inf")}, "key external_total must be a finite number"),
            ({"external_total": 10**400}, "key external_total must be a finite number"),
            ({"totals_by_scope": {"S1": 0, "S2": "1", "S3": 0}}, "key totals_by_scope.S2 must be"),
            ({"grand_total_kgco2e": -1.7e308}, "key grand_total_kgco2e must be a finite number >= 0"),
            ({"totals_by_group": {**dict.fromkeys(GROUPS, 0.0), "office": -0.5}},
             "key totals_by_group.office must be a finite number >= 0"),
        ],
    )
    def test_parse_report_json_checks_value_types(self, changes, message):
        with pytest.raises(ValueError, match=message):
            parse_report_json(self.report_json(**changes))

    @pytest.mark.parametrize("text", ["null", "[]", '"report"', "3"])
    def test_parse_report_json_needs_an_object(self, text):
        with pytest.raises(ValueError, match="report JSON must be an object"):
            parse_report_json(text)

    def test_parse_report_json_too_deep(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_report_json("[" * 100_000)

    def test_parse_report_json_accepts_integer_totals(self):
        report = parse_report_json(self.report_json(grand_total_kgco2e=1000))
        assert report.grand_total_kgco2e == 1000.0
        assert isinstance(report.grand_total_kgco2e, float)


class TestAgainstSeedRenderers:
    """render writes every CSV and markdown byte that the first, hand-written
    renderers (tests/seed_renderers.py) wrote."""

    PERIMETERS = ("randomized test perimeter", "Lab | B, 2nd floor", "labo été\n")
    # Edge values the rounding and sign formats must agree on.
    VALUES = (0.0, -0.0, 0.05, 0.15, 0.25, -2.45, 123456.789, 1e-300, 1e300)

    def random_report(self, rng: random.Random) -> Report:
        if rng.random() < 0.2:  # totals of any value, zero included
            scopes = {s: rng.choice(self.VALUES) for s in ("S1", "S2", "S3")}
            return Report(
                reporting_year=2019,
                perimeter_description=rng.choice(self.PERIMETERS),
                totals_by_scope=scopes,
                totals_by_group={g: rng.choice(self.VALUES) for g in GROUPS},
                external_total_kgco2e=rng.choice(self.VALUES),
                grand_total_kgco2e=rng.choice((0.0, sum(scopes.values()))),
                abs_uncertainty_kgco2e=rng.choice(self.VALUES),
                line_count=rng.randint(0, 9),
                factor_db_hash=rng.choice(("", "f.txt:sha256:0123456789ab")),
            )
        db = random_db(rng)
        fleet = random_fleet(rng, max_entries=rng.choice((0, 5, 30)))
        fleet = dataclasses.replace(fleet, perimeter_description=rng.choice(self.PERIMETERS))
        hash_ = rng.choice(("", "a.txt:sha256:0123456789ab", "b.txt:sha256:ba9876543210"))
        return aggregate(compute_fleet(fleet, db), fleet, hash_)

    def assert_same(self, obj):
        for fmt in ("csv", "markdown"):
            assert render(obj, fmt) == seed_render(obj, fmt)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_same_bytes(self, seed):
        rng = random.Random(seed)
        reports = [self.random_report(rng) for _ in range(rng.randint(3, 5))]
        years = rng.sample(range(2000, 2040), len(reports))
        reports = [dataclasses.replace(r, reporting_year=y) for r, y in zip(reports, years)]
        for report in reports:
            self.assert_same(report)
        self.assert_same(compare_years(reports))
        baseline, variant = reports[:2]
        payback = rng.choice((None, 0.0, 0.005, rng.uniform(0.0, 50.0), 1e300))
        delta = variant.grand_total_kgco2e - baseline.grand_total_kgco2e
        self.assert_same(ScenarioResult(baseline, variant, delta, payback, "verdict"))

    def test_scenarios_on_random_fleets(self):
        rng = random.Random(29)
        for _ in range(40):
            db = random_db(rng)
            fleet = random_fleet(rng, max_entries=20)
            actions = [ScenarioAction("remove", a.id) for a in fleet.assets if rng.random() < 0.3]
            new = random_asset(rng, 1000, fleet.reporting_year)._replace(disposal_year=None)
            actions.append(ScenarioAction("add", new_asset=new))
            self.assert_same(evaluate_scenario(fleet, actions, db, "f:sha256:0"))

    def test_no_percentage_and_no_payback(self):
        zero = simple_report(2018, 0.0)
        cmp = compare_years([zero, simple_report(2019, 5.0), simple_report(2020, 4.0, "Lab Y")])
        assert cmp.deltas_pct[0] is None and cmp.warnings
        self.assert_same(cmp)
        self.assert_same(ScenarioResult(zero, zero, 0.0, None, "no actions"))


class TestFactorDbIdentity:
    def test_stable_and_content_sensitive(self):
        a = factor_db_identity("factors.txt", "[factors]\n")
        b = factor_db_identity("factors.txt", "[factors]\n")
        c = factor_db_identity("factors.txt", "[factors]\nlaptop,...")
        assert a == b != c
        assert a.startswith("factors.txt:sha256:")


@pytest.mark.parametrize("build, error, message", [
    (lambda: parse_actions_csv("op,target\nadd,,n1,laptop\n"), FleetParseError,
     "row 2: add requires 11 fields (op, target_id, 9 asset fields)"),
    (lambda: parse_actions_csv("remove,pc,pc,laptop,1,2019,,in_use,,,\n"), FleetParseError,
     "row 1: remove takes no asset fields"),
    (lambda: ScenarioAction("remove", "pc", Asset("pc", "laptop", 1, 2019)), ValueError,
     "remove takes no new_asset"),
    (lambda: render(42, "json"), TypeError, "cannot render int"),
], ids=["add fields", "remove fields", "remove asset", "render type"])
def test_boundary_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
