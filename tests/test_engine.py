"""Tests for the emission engine: hour profiles, per-scope rules, composition."""

import dataclasses
import math
import random
import tracemalloc
from collections import Counter
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import given, settings

from conftest import charged_hours, make_db, make_factor, oracle_config, with_grid
from ecodiag import engine
from ecodiag.engine import (
    EmissionLine,
    compute_fleet,
    declared_external,
    scope1_refrigerant,
    scope2_campaign,
    scope2_usage,
    scope3_cables,
)
from ecodiag.errors import UnknownFluidError
from ecodiag.factors import FactorDatabase, GwpEntry, lookup_factor
from ecodiag.inventory import (
    Asset,
    CableBulk,
    ComputeCampaign,
    ExternalServiceEntry,
    Fleet,
    ServerRoom,
)
from ecodiag.report import aggregate
from fleet_strategies import fleets
from oracle import oracle_totals
from randgen import colliding_fleet, edge_case_fleet, random_db, random_fleet
from seed_engine import (
    seed_asset_lines,
    seed_compute_fleet,
    seed_key_order,
    seed_scope2_usage,
    seed_usage_hours,
)

REL = 1e-9
#: The grid of make_db's databases, at which the one-subject functions run here.
GRID = 0.119


def asset(category="laptop", **kw):
    kw.setdefault("id", "a1")
    kw.setdefault("quantity", 1)
    kw.setdefault("acquisition_year", 2015)
    return Asset(category=category, **kw)


class TestUsageHours:
    def test_office_equipment_work_year(self):
        assert charged_hours(asset("laptop")) == 1607

    def test_server_room_continuous(self):
        assert charged_hours(asset("server")) == 8760

    def test_stored_asset_zero(self):
        assert charged_hours(asset("tablet", status="stored")) == 0

    def test_override_wins(self):
        assert charged_hours(asset("laptop", hour_profile_override="continuous")) == 8760
        assert charged_hours(asset("server", hour_profile_override="work_year")) == 1607


class TestScope2Usage:
    def test_measured_100w_work_year(self):
        line = scope2_usage(asset(measured_power_w=100.0), make_factor(), GRID)
        assert line.kgco2e == pytest.approx(19.1233, rel=REL)
        assert line.abs_uncertainty_kgco2e == 0.0
        assert line.scope == "S2" and line.phase == "usage"

    def test_measured_200w_server(self):
        line = scope2_usage(
            asset("server", measured_power_w=200.0), make_factor("server"), GRID
        )
        assert line.kgco2e == pytest.approx(208.488, rel=REL)

    def test_stored_asset_no_line(self):
        assert scope2_usage(asset(status="stored"), make_factor(), GRID) is None

    def test_typical_power_carries_uncertainty(self):
        factor = make_factor(power=30.0, unc=0.30)
        line = scope2_usage(asset(), factor, GRID)
        assert line.kgco2e == pytest.approx(30 * 1607 / 1000 * 0.119, rel=REL)
        assert line.abs_uncertainty_kgco2e == pytest.approx(line.kgco2e * 0.30, rel=REL)
        assert line.factor_source == "sample-base"

    def test_zero_power_no_line(self):
        assert scope2_usage(asset(), make_factor(power=0.0), GRID) is None

    def test_quantity_scales(self):
        line = scope2_usage(asset(quantity=10, measured_power_w=100.0), make_factor(), GRID)
        assert line.kgco2e == pytest.approx(191.233, rel=REL)


def s3_lines(a, factor, year):
    """The S3 lines of the asset, computed alone in a fleet of the given year."""
    fleet = Fleet("p", year, assets=(a,))
    lines = engine.asset_lines(fleet, fleet.assets, make_db(factor))
    return [line for line in lines if line.scope == "S3"]


class TestScope3Fabrication:
    def test_acquired_this_year(self):
        [line] = s3_lines(asset(quantity=2, acquisition_year=2019), make_factor(fab=300.0), 2019)
        assert line.kgco2e == 600.0
        assert line.phase == "fabrication_transport"

    def test_acquired_earlier_no_line(self):
        assert s3_lines(asset(acquisition_year=2015), make_factor(), 2019) == []

    def test_vendor_value_wins_and_is_exact(self):
        [line] = s3_lines(
            asset(acquisition_year=2019, vendor_fab_transport_kgco2e=250.0),
            make_factor(fab=300.0),
            2019,
        )
        assert line.kgco2e == 250.0
        assert line.abs_uncertainty_kgco2e == 0.0

    def test_factor_value_carries_uncertainty(self):
        [line] = s3_lines(asset(acquisition_year=2019), make_factor(fab=300.0, unc=0.3), 2019)
        assert line.abs_uncertainty_kgco2e == pytest.approx(90.0, rel=REL)


class TestScope3Eol:
    def test_disposed_this_year(self):
        [line] = s3_lines(asset(quantity=4, disposal_year=2019), make_factor(eol=2.5), 2019)
        assert line.kgco2e == 10.0
        assert line.phase == "end_of_life"

    def test_no_disposal_no_line(self):
        assert s3_lines(asset(), make_factor(), 2019) == []

    def test_other_year_no_line(self):
        assert s3_lines(asset(disposal_year=2018), make_factor(), 2019) == []


class TestScope1Refrigerant:
    GWP = (GwpEntry("R410A", 2088.0),)

    def test_leak_times_gwp(self):
        room = ServerRoom("sr", refrigerant_fluid="R410A", refrigerant_leak_kg_per_year=0.5)
        line = scope1_refrigerant(room, self.GWP)
        assert line.kgco2e == 1044.0
        assert (line.scope, line.phase) == ("S1", "fugitive")

    def test_no_leak_no_line(self):
        assert scope1_refrigerant(ServerRoom("sr"), self.GWP) is None

    def test_unknown_fluid(self):
        room = ServerRoom("sr", refrigerant_fluid="R22", refrigerant_leak_kg_per_year=1.0)
        with pytest.raises(UnknownFluidError, match="R22"):
            scope1_refrigerant(room, self.GWP)


def room_lines(fleet, db):
    """The lines compute_fleet gives room "sr"."""
    return [l for l in compute_fleet(fleet, db) if l.subject_id == "sr"]


def room_lines_from_its_own_pool(room, fleet, db):
    """The room's electricity lines, with the server-room pool summed here,
    asset by asset and exactly rounded, apart from compute_fleet's own pass."""
    pool, grid = None, db.default_grid_factor_kgco2e_per_kwh
    if room.ups_overhead_fraction != 0 and all(
        r.measured_room_kwh_per_year is None for r in fleet.rooms
    ):
        lines = [scope2_usage(a, lookup_factor(db, a.category), grid)
                 for a in fleet.assets if a.category in engine._POOL_CATEGORIES]
        lines = [line for line in lines if line is not None]
        pool = (math.fsum(l.kgco2e for l in lines),
                math.fsum(l.abs_uncertainty_kgco2e for l in lines))
    return engine._room_lines(room, pool, grid)


class TestRoomOverheads:
    def test_ups_overhead_on_room_load(self):
        # One server measured at 200 W around the clock: 1752 kWh.
        fleet = Fleet(
            "p", 2019,
            assets=(asset("server", measured_power_w=200.0),),
            rooms=(ServerRoom("sr", ups_overhead_fraction=0.10),),
        )
        db = make_db(make_factor("server"))
        (line,) = room_lines(fleet, db)
        assert line.kgco2e == pytest.approx(20.8488, rel=REL)
        assert line.subject_id == "sr"

    def test_metered_room_single_line(self):
        fleet = Fleet(
            "p", 2019,
            assets=(asset("server", measured_power_w=200.0),),
            rooms=(ServerRoom("sr", measured_room_kwh_per_year=5000.0),),
        )
        db = make_db(make_factor("server"))
        (line,) = room_lines(fleet, db)
        assert line.kgco2e == pytest.approx(595.0, rel=REL)
        # and compute_fleet suppresses the per-asset server line
        lines = compute_fleet(fleet, db)
        s2 = [l for l in lines if l.scope == "S2"]
        assert [l.subject_id for l in s2] == ["sr"]
        assert sum(l.kgco2e for l in s2) == pytest.approx(595.0, rel=REL)

    def test_no_overhead_no_metering_no_line(self):
        fleet = Fleet("p", 2019, rooms=(ServerRoom("sr"),))
        assert room_lines(fleet, make_db()) == []

    def test_office_assets_not_in_room_pool(self):
        fleet = Fleet(
            "p", 2019,
            assets=(asset("laptop", measured_power_w=100.0),),
            rooms=(ServerRoom("sr", ups_overhead_fraction=0.5),),
        )
        assert room_lines(fleet, make_db(make_factor())) == []

    def test_unmetered_rooms_each_charge_a_fraction_of_one_pool(self):
        fleet = Fleet(
            "p", 2019,
            assets=(
                asset("server", id="s1", quantity=3),
                asset("laptop", id="pc", measured_power_w=90.0),
                asset("network_switch", id="sw", quantity=2, measured_power_w=40.0),
                asset("server", id="s2", measured_power_w=250.0),
            ),
            rooms=(
                ServerRoom("r1", ups_overhead_fraction=0.05),
                ServerRoom("r2", ups_overhead_fraction=0.1),
                ServerRoom("r3", ups_overhead_fraction=0.25),
            ),
        )
        db = make_db(make_factor("server", power=300.0, unc=0.2), make_factor("network_switch"),
                     make_factor())
        pool = [scope2_usage(a, lookup_factor(db, a.category), GRID)
                for a in fleet.assets if a.category != "laptop"]
        pool_kgco2e = sum(l.kgco2e for l in pool)
        pool_uncertainty = sum(l.abs_uncertainty_kgco2e for l in pool)
        lines = compute_fleet(fleet, db)
        for room in fleet.rooms:
            (line,) = [l for l in lines if l.subject_id == room.id]
            assert line.kgco2e == room.ups_overhead_fraction * pool_kgco2e
            assert line.abs_uncertainty_kgco2e == room.ups_overhead_fraction * pool_uncertainty
            assert line == EmissionLine(
                room.id, "S2", "usage", room.ups_overhead_fraction * pool_kgco2e,
                room.ups_overhead_fraction * pool_uncertainty, f"room_overhead:{room.id}",
                "server_room",
            )
        expected = oracle_totals(fleet, db, oracle_config(db))
        totals = aggregate(lines, fleet)
        assert totals.grand_total_kgco2e == pytest.approx(expected["total"], rel=REL)
        assert totals.abs_uncertainty_kgco2e == pytest.approx(expected["uncertainty"], rel=REL)
        for s in ("S1", "S2", "S3"):
            assert sum(l.kgco2e for l in lines if l.scope == s) == pytest.approx(
                expected[s], rel=REL
            )


    def test_overhead_line_equals_the_room_overheads_on_random_fleets(self):
        # compute_fleet sums the pool from the usage lines of its own asset
        # pass; room_lines_from_its_own_pool sums it on its own. Both must
        # agree to the last bit.
        rng = random.Random(5)
        overheads = 0
        for _ in range(300):
            db, fleet = random_db(rng), random_fleet(rng)
            lines = compute_fleet(fleet, db)
            for room in fleet.rooms:
                expected = room_lines_from_its_own_pool(room, fleet, db)
                assert [l for l in lines if l.subject_id == room.id and l.scope == "S2"] == expected
                overheads += any(l.factor_source.startswith("room_overhead:") for l in expected)
        assert overheads > 20


class TestScope2Campaign:
    def test_direct_kwh(self):
        line = scope2_campaign(ComputeCampaign("c", kwh=1500.0), GRID)
        assert line.kgco2e == pytest.approx(178.5, rel=REL)

    def test_core_hours_formula(self):
        campaign = ComputeCampaign("c", core_hours=100000.0, watts_per_core=10.0, pue=1.5)
        line = scope2_campaign(campaign, GRID)
        assert line.kgco2e == pytest.approx(178.5, rel=REL)

    def test_zero_core_hours_zero_line(self):
        line = scope2_campaign(ComputeCampaign("c", core_hours=0.0, watts_per_core=10.0), GRID)
        assert line.kgco2e == 0.0

    def test_kwh_beats_core_hours(self):
        campaign = ComputeCampaign("c", kwh=100.0, core_hours=1e6, watts_per_core=10.0)
        assert scope2_campaign(campaign, GRID).kgco2e == pytest.approx(11.9, rel=REL)

    def test_no_energy_spec_raises(self):
        with pytest.raises(ValueError, match="no energy declaration"):
            scope2_campaign(ComputeCampaign("c", core_hours=5.0), GRID)


class TestScope3Cables:
    def test_count_times_factor(self):
        line = scope3_cables(CableBulk("cable_cat5", 20), make_factor("cable_cat5", fab=1.2))
        assert line.kgco2e == pytest.approx(24.0, rel=REL)
        assert line.subject_id == "cable_cat5"

    def test_zero_count_no_line(self):
        assert scope3_cables(CableBulk("cable_cat5", 0), make_factor("cable_cat5")) is None

    def test_hdmi_uses_own_factor(self):
        db = make_db(
            make_factor("cable_cat5", fab=1.2),
            make_factor("cable_hdmi", fab=2.4),
        )
        fleet = Fleet("p", 2019, cable_bulks=(CableBulk("cable_hdmi", 10),))
        (line,) = compute_fleet(fleet, db)
        assert line.kgco2e == pytest.approx(24.0, rel=REL)
        assert line.subject_id == "cable_hdmi"


class TestDeclaredExternal:
    @pytest.mark.parametrize("value,scope", [(42.0, "S3"), (0.0, "S3"), (10.5, "S2")])
    def test_pass_through(self, value, scope):
        line = declared_external(ExternalServiceEntry("x", value, scope))
        assert (line.kgco2e, line.scope, line.phase) == (value, scope, "declared")
        assert line.abs_uncertainty_kgco2e == 0.0


def pool_of(lines):
    """The server-room pool among asset lines, as compute_fleet sums it."""
    return [l for l in lines if l.group == "server_room" and l.scope == "S2"]


class TestComputeFleet:
    def test_empty_fleet(self):
        assert compute_fleet(Fleet("p", 2019), make_db()) == []

    def test_stored_laptop_from_past_year_is_invisible(self):
        fleet = Fleet("p", 2019, assets=(asset(status="stored", acquisition_year=2015),))
        assert compute_fleet(fleet, make_db(make_factor())) == []

    def test_new_measured_server_two_lines(self):
        fleet = Fleet(
            "p", 2019,
            assets=(asset("server", measured_power_w=200.0, acquisition_year=2019),),
        )
        lines = compute_fleet(fleet, make_db(make_factor("server", fab=1000.0)))
        assert len(lines) == 2
        by_scope = {l.scope: l.kgco2e for l in lines}
        assert by_scope["S2"] == pytest.approx(208.488, rel=REL)
        assert by_scope["S3"] == 1000.0

    def test_given_asset_part_is_used_and_left_unchanged(self):
        rng = random.Random(11)
        for _ in range(20):
            db = random_db(rng)
            fleet = random_fleet(rng)
            part = tuple(engine.asset_part(fleet, db, fleet.assets))
            kept = tuple(map(list, part))
            full = compute_fleet(fleet, db)
            assert compute_fleet(fleet, db, part) == full
            assert part == kept
            lines = engine.asset_lines(fleet, fleet.assets, db)
            seed_lines, seed_pool_lines = seed_asset_lines(fleet, fleet.assets, db)
            assert lines == seed_key_order(fleet.assets, seed_lines)
            assert pool_of(lines) == seed_pool_lines
            # A part is the assets' lines in their order, one list per chunk.
            assert all(type(chunk) is list for chunk in part)
            assert list(chain.from_iterable(part)) == lines

    def test_deterministic_and_sorted(self):
        rng = random.Random(7)
        db = random_db(rng)
        fleet = random_fleet(rng)
        first = compute_fleet(fleet, db)
        second = compute_fleet(fleet, db)
        assert first == second
        keys = [(l.subject_id, l.scope, l.phase) for l in first]
        assert keys == sorted(keys)

    @given(fleet=fleets())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, fleet):
        rng = random.Random(42)
        db = random_db(rng)
        # The engine contract assumes a validated fleet, so the GWP table
        # must cover whatever fluids the generated rooms use.
        known = {g.fluid for g in db.gwp_table}
        extra = tuple(
            GwpEntry(f, 1500.0)
            for f in sorted(
                {r.refrigerant_fluid for r in fleet.rooms if r.refrigerant_fluid} - known
            )
        )
        db = FactorDatabase(
            db.factors, db.gwp_table + extra, db.default_grid_factor_kgco2e_per_kwh
        )
        lines = compute_fleet(fleet, db)
        expected = oracle_totals(fleet, db, oracle_config(db))
        totals = aggregate(lines, fleet)
        assert totals.grand_total_kgco2e == pytest.approx(expected["total"], rel=REL)
        assert totals.abs_uncertainty_kgco2e == pytest.approx(expected["uncertainty"], rel=REL)

    def test_linearity_in_quantity(self):
        factor = make_factor("server", fab=1000.0, power=250.0, unc=0.4)
        db = make_db(factor)
        one = Fleet(
            "p", 2019,
            assets=(Asset("s", "server", 5, 2019, disposal_year=2019),),
        )
        many = Fleet(
            "p", 2019,
            assets=tuple(Asset(f"s{i}", "server", 1, 2019, disposal_year=2019) for i in range(5)),
        )
        totals_one = aggregate(compute_fleet(one, db), one)
        totals_many = aggregate(compute_fleet(many, db), many)
        assert totals_one.grand_total_kgco2e == pytest.approx(
            totals_many.grand_total_kgco2e, rel=REL
        )
        assert totals_one.abs_uncertainty_kgco2e == pytest.approx(
            totals_many.abs_uncertainty_kgco2e, rel=REL
        )

    def test_grid_scaling_is_exact_for_power_of_two(self):
        rng = random.Random(11)
        db = random_db(rng)
        fleet = random_fleet(rng, with_external=False)
        base = with_grid(db, 0.25)
        doubled = with_grid(db, 0.5)
        s2_base = sum(l.kgco2e for l in compute_fleet(fleet, base) if l.scope == "S2")
        s2_doubled = sum(l.kgco2e for l in compute_fleet(fleet, doubled) if l.scope == "S2")
        assert s2_doubled == 2 * s2_base


    def test_sorted_by_subject_scope_phase_on_random_fleets(self):
        rng = random.Random(23)
        for _ in range(100):
            db, fleet = random_db(rng), random_fleet(rng)
            keys = [(l.subject_id, l.scope, l.phase) for l in compute_fleet(fleet, db)]
            assert keys == sorted(keys)

    def test_usage_evaluated_at_most_once_per_asset(self, monkeypatch):
        calls = Counter()
        real_lines, real_usage = engine.asset_lines, engine.scope2_usage

        def counting_lines(fleet, assets, *args):
            calls.update(a.id for a in assets)
            return real_lines(fleet, assets, *args)

        def counting_usage(asset, *args):
            calls[asset.id] += 1
            return real_usage(asset, *args)

        # Every evaluation path counts: the asset pass and the one-asset function.
        monkeypatch.setattr(engine, "asset_lines", counting_lines)
        monkeypatch.setattr(engine, "scope2_usage", counting_usage)
        # Two unmetered rooms with a UPS overhead: the pool is charged twice.
        fleet = Fleet(
            "p", 2019,
            assets=(asset("server", id="s1"), asset(id="pc"), asset("router", id="r")),
            rooms=(ServerRoom("sr1", ups_overhead_fraction=0.1),
                   ServerRoom("sr2", ups_overhead_fraction=0.2)),
        )
        db = make_db(make_factor("server"), make_factor(), make_factor("router"))
        compute_fleet(fleet, db)
        assert calls == {"s1": 1, "pc": 1, "r": 1}
        rng = random.Random(3)
        for _ in range(100):
            db, fleet = random_db(rng), random_fleet(rng)
            calls.clear()
            compute_fleet(fleet, db)
            assert max(calls.values(), default=1) == 1


class TestSeedEngine:
    """The per-category plans give the lines of the per-asset functions they
    replace, with the same floats, in the same order."""

    def test_asset_lines_equal_the_seed_loop(self):
        rng = random.Random(16)
        seen = Counter()
        for _ in range(400):
            db, fleet = random_db(rng), edge_case_fleet(rng)
            db = with_grid(db, rng.uniform(0.01, 1.0))
            lines = engine.asset_lines(fleet, fleet.assets, db)
            expected, expected_pool = seed_asset_lines(fleet, fleet.assets, db)
            expected = seed_key_order(fleet.assets, expected)
            assert lines == expected and repr(lines) == repr(expected)
            assert repr(pool_of(lines)) == repr(expected_pool)
            half = fleet.assets[::2]
            half_lines = engine.asset_lines(fleet, half, db)
            expected, expected_pool = seed_asset_lines(fleet, half, db)
            assert repr(half_lines) == repr(seed_key_order(half, expected))
            assert repr(pool_of(half_lines)) == repr(expected_pool)
            year = fleet.reporting_year
            seen["metered"] += any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)
            seen["pool"] += bool(pool_of(lines))
            for a in fleet.assets:
                factor = lookup_factor(db, a.category)
                grid = db.default_grid_factor_kgco2e_per_kwh
                assert charged_hours(a) == seed_usage_hours(a)
                assert repr(scope2_usage(a, factor, grid)) == repr(
                    seed_scope2_usage(a, factor, grid)
                )
                seen["acquired"] += a.acquisition_year == year
                seen["disposed"] += a.disposal_year == year
                seen["stored"] += a.status == "stored"
                seen[a.hour_profile_override] += 1
                seen["zero power"] += a.measured_power_w == 0.0
                seen["vendor"] += a.vendor_fab_transport_kgco2e is not None
        assert len(seen) == 10 and min(seen.values()) >= 100, seen


class TestSeedComputeFleet:
    """compute_fleet sorts the asset lines by subject alone and merges the
    other lines in; it gives the list of the seed's stable sort of every line
    by (subject, scope, phase), float for float."""

    def test_equals_the_seed_on_fleets_with_shared_ids(self):
        rng = random.Random(20)
        seen = Counter()
        for _ in range(400):
            db, fleet = random_db(rng), colliding_fleet(rng)
            lines = compute_fleet(fleet, db)
            expected = seed_compute_fleet(fleet, db)
            assert lines == expected and repr(lines) == repr(expected)
            ids = {a.id for a in fleet.assets}
            seen["asset id = room id"] += bool(ids & {r.id for r in fleet.rooms})
            seen["asset id = campaign id"] += bool(ids & {c.id for c in fleet.campaigns})
            seen["asset id = external id"] += bool(ids & {x.id for x in fleet.external_services})
            seen["asset id = cable id"] += bool(ids & {b.category for b in fleet.cable_bulks})
            seen["room id = campaign id"] += bool(
                {r.id for r in fleet.rooms} & {c.id for c in fleet.campaigns}
            )
            year = fleet.reporting_year
            seen["acquired"] += any(a.acquisition_year == year for a in fleet.assets)
            seen["disposed"] += any(a.disposal_year == year for a in fleet.assets)
            metered = any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)
            seen["metered room"] += metered
            seen["UPS overhead"] += not metered and any(
                l.factor_source.startswith("room_overhead:") for l in lines
            )
            seen["lines of an equal key"] += len({l[:3] for l in lines}) < len(lines)
        assert len(seen) == 10 and min(seen.values()) >= 30, seen


def test_exact_parts_fold_to_the_exact_sum_in_any_order():
    """Folded through exact_parts a chunk at a time, in any order and any
    chunks, values give a few parts whose fsum is that of all the values;
    inf and nan stand alone, and a finite sum that overflows is inf."""
    rng = random.Random(34)
    for _ in range(300):
        values = [rng.choice((1.0, 1e-9, 1e16, 2.0**54)) * rng.random()
                  for _ in range(rng.randint(0, 60))]
        expected = math.fsum(values)
        rng.shuffle(values)
        parts, done = [], 0
        while done < len(values):
            step = rng.randint(1, 9)
            parts = engine.exact_parts(parts + values[done:done + step])
            done += step
        assert math.fsum(parts) == expected and len(parts) <= 3
    assert engine.exact_parts([]) == engine.exact_parts([1.0, -1.0]) == []
    assert engine.exact_parts([1.0, math.inf, 2.0]) == [math.inf]
    assert math.isnan(*engine.exact_parts([1.0, math.nan]))
    assert engine.exact_parts([1e308, 1e308]) == [math.inf]


class TestFleetLines:
    """fleet_lines evaluates the assets a chunk at a time in fleet order, then
    builds the room, campaign, cable and external lines: at every chunk size,
    its lines sorted are the seed's stable sort of every line, compute_fleet's
    list and that of a given asset part, float for float."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, engine._CHUNK_ASSETS])
    def test_equals_the_seed_and_the_part_path_on_random_fleets(self, chunk, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK_ASSETS", chunk)
        rng = random.Random(24)
        seen = Counter()
        for _ in range(300):
            db = random_db(rng)
            fleet = rng.choice((colliding_fleet, edge_case_fleet))(rng)
            assets = list(fleet.assets)
            rng.shuffle(assets)  # neither the pool's sum nor the sorted lines follow it
            fleet = dataclasses.replace(fleet, assets=tuple(assets))
            streamed = engine.fleet_lines(fleet, db)
            assert not isinstance(streamed, list)
            lines = sorted(streamed, key=itemgetter(0, 1, 2))
            expected = seed_compute_fleet(fleet, db)
            assert lines == expected and repr(lines) == repr(expected)
            assert repr(compute_fleet(fleet, db)) == repr(lines)
            part = engine.asset_part(fleet, db, fleet.assets)
            assert repr(compute_fleet(fleet, db, part)) == repr(lines)
            metered = any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)
            pool = pool_of(engine.asset_lines(fleet, fleet.assets, db))
            seen["no assets"] += not fleet.assets
            seen["metered room"] += metered
            seen["UPS overhead on a pool"] += bool(pool) and any(
                l.factor_source.startswith("room_overhead:") for l in lines)
            seen["pool and other assets"] += 0 < len(pool) < len(fleet.assets)
            seen["lines of an equal key"] += len({l[:3] for l in lines}) < len(lines)
        assert len(seen) == 5 and min(seen.values()) >= 10, seen

    def test_holds_one_chunk_of_lines_at_a_time(self):
        rng = random.Random(26)
        db = make_db(*(make_factor(c) for c in ("laptop", "desktop", "server")))
        # One asset in ten in the pool, whose lines are held whole to sum it.
        categories = ("laptop",) * 5 + ("desktop",) * 4 + ("server",)
        assets = tuple(Asset(f"a{i:05d}", rng.choice(categories), 1, 2019,
                             measured_power_w=rng.choice((None, 50.0)))
                       for i in range(20_000))
        fleet = Fleet("p", 2019, assets=assets, rooms=(ServerRoom("sr", ups_overhead_fraction=0.1),))
        tracemalloc.start()
        try:
            report = aggregate(engine.fleet_lines(fleet, db), fleet)
            streamed_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            lines = compute_fleet(fleet, db)
            listed = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report == aggregate(lines, fleet) and report.line_count == len(lines) > 20_000
        assert streamed_peak < listed / 2, (streamed_peak, listed)


class TestEmissionLine:
    def test_immutable(self):
        line = EmissionLine("a", "S2", "usage", 1.0, 0.1, "base", "office")
        with pytest.raises(AttributeError):
            line.kgco2e = 2.0
        assert line.kgco2e == 1.0

    def test_equal_to_the_tuple_of_its_fields(self):
        line = EmissionLine("a", "S2", "usage", 1.0, 0.1, "base", "office")
        assert line == ("a", "S2", "usage", 1.0, 0.1, "base", "office")
        assert line == EmissionLine(
            subject_id="a", scope="S2", phase="usage", kgco2e=1.0,
            abs_uncertainty_kgco2e=0.1, factor_source="base", group="office",
        )


class TestAggregateUncertainty:
    def line(self, kg, unc, source, subject="a"):
        return EmissionLine(subject, "S2", "usage", kg, unc, source, "office")

    def totals(self, lines):
        totals = aggregate(lines, Fleet("p", 2019))
        return totals.grand_total_kgco2e, totals.abs_uncertainty_kgco2e

    def test_same_source_adds_linearly(self):
        total, unc = self.totals([self.line(100, 10, "base"), self.line(50, 5, "base")])
        assert total == 150
        assert unc == 15

    def test_groups_combine_in_quadrature(self):
        _, unc = self.totals([self.line(1, 30, "base-a"), self.line(1, 40, "base-b")])
        assert unc == pytest.approx(50.0, rel=REL)

    def test_all_measured_zero(self):
        _, unc = self.totals([self.line(100, 0, "measured"), self.line(10, 0, "declared")])
        assert unc == 0.0

    def test_empty(self):
        assert self.totals([]) == (0.0, 0.0)
