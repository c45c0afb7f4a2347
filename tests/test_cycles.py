"""The data path leaves no cyclic garbage.

`ecodiag.cli.main` runs each command with the cyclic garbage collector off.
That is sound only while reference counting alone frees every object a stage
builds: parsed fleets, emission lines, reports, rendered text and the
row-numbered errors raised on bad input. Each test runs one stage once to
warm caches and lazy imports, then again under `gc.DEBUG_SAVEALL`, and
asserts that a collection afterwards finds nothing. A back-reference added
later, say from an asset to its fleet, fails here.
"""
import dataclasses
import gc
import random

import pytest

from ecodiag import samples
from ecodiag.engine import compute_fleet
from ecodiag.errors import FleetParseError
from ecodiag.factors import load_factor_db, merge_factors, render_factor_file
from ecodiag.inventory import (
    Asset,
    parse_fleet_csv,
    parse_glpi_export,
    parse_mapping_rules,
    render_fleet_csv,
    validate_fleet,
)
from ecodiag.report import (
    ScenarioAction,
    aggregate,
    compare_years,
    evaluate_scenario,
    parse_report_json,
    render,
)
from randgen import random_db, random_fleet

SEEDS = (3, 17)


def cyclic_garbage(stage) -> tuple[int, list[str]]:
    """What a collection finds after a warmed-up run of stage: the count
    gc.collect() returns and the type names of the objects it saved."""
    stage()
    was_enabled, debug = gc.isenabled(), gc.get_debug()
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        stage()
        found = gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return found, garbage


def assert_no_cyclic_garbage(stage) -> None:
    found, garbage = cyclic_garbage(stage)
    assert found == 0, garbage[:20]
    assert garbage == []


def cases():
    """(db, fleet) pairs from randgen, each with at least two assets."""
    for seed in SEEDS:
        rng = random.Random(seed)
        while True:
            db, fleet = random_db(rng), random_fleet(rng, max_entries=60)
            if len(fleet.assets) >= 2:
                yield db, fleet
                break


def actions_for(fleet):
    first, second = fleet.assets[0], fleet.assets[1]
    new = Asset("new-1", second.category, 2, fleet.reporting_year, measured_power_w=10.0)
    return [
        ScenarioAction("remove", first.id),
        ScenarioAction("replace", second.id, Asset("new-2", second.category, 1, 2000)),
        ScenarioAction("add", new_asset=new),
    ]


CASES = list(cases())


@pytest.mark.parametrize("db,fleet", CASES)
def test_factor_file_load_and_merge(db, fleet):
    text = render_factor_file(db)
    assert_no_cyclic_garbage(lambda: merge_factors(load_factor_db(text)))


@pytest.mark.parametrize("db,fleet", CASES)
def test_fleet_csv_parse(db, fleet):
    text = render_fleet_csv(fleet)
    assert_no_cyclic_garbage(
        lambda: parse_fleet_csv(text, fleet.reporting_year, fleet.perimeter_description)
    )


@pytest.mark.parametrize("db,fleet", CASES)
def test_validate_compute_aggregate(db, fleet):

    def stage():
        validate_fleet(fleet, db)
        aggregate(compute_fleet(fleet, db), fleet, "factors")

    assert_no_cyclic_garbage(stage)


def results(db, fleet, actions):
    """A report, a year comparison and a scenario result for one fleet."""
    report = aggregate(compute_fleet(fleet, db), fleet, "factors")
    later = dataclasses.replace(fleet, reporting_year=fleet.reporting_year + 1)
    comparison = compare_years([report, aggregate(compute_fleet(later, db), later)])
    return report, comparison, evaluate_scenario(fleet, actions, db)


@pytest.mark.parametrize("db,fleet", CASES)
def test_render_csv_and_markdown(db, fleet):
    shown = results(db, fleet, actions_for(fleet))
    assert_no_cyclic_garbage(lambda: [render(r, f) for r in shown for f in ("csv", "markdown")])


@pytest.mark.parametrize("db,fleet", CASES)
def test_render_json_leaves_only_the_encoders_own_cycle(db, fleet):
    # json.dumps with indent uses the pure-Python encoder, whose nested
    # closures refer to each other: each call leaves one small cycle of the
    # json module's own objects. It must not grow with the data or hold any
    # of ours, so it matches the garbage of rendering an empty fleet.
    empty = dataclasses.replace(fleet, assets=(), rooms=(), campaigns=(),
                                external_services=(), cable_bulks=())
    shown = results(db, fleet, actions_for(fleet))
    minimal = results(db, empty, [])
    found, garbage = cyclic_garbage(lambda: [render(r, "json") for r in shown])
    assert (found, garbage) == cyclic_garbage(lambda: [render(r, "json") for r in minimal])
    assert garbage.count("JSONEncoder") == len(shown)


@pytest.mark.parametrize("db,fleet", CASES)
def test_evaluate_scenario(db, fleet):
    actions = actions_for(fleet)
    assert_no_cyclic_garbage(lambda: evaluate_scenario(fleet, actions, db, "factors"))


def test_glpi_export_with_unmapped_record_and_unknown_status():
    rules = parse_mapping_rules(samples.SAMPLE_MAPPING_RULES)
    text = (
        "name,type,model,purchase_date,status\n"
        "pc-1,Laptop Dell,L5400,2019-03-01,en service\n"
        "mf-1,Mainframe,Z,2019-03-01,en service\n"
        "pc-2,Laptop,L,2018-01-01,cassé\n"
        "pc-1,Laptop,L,2017-01-01,stock\n"
    )

    def stage():
        fleet, unmapped = parse_glpi_export(text, rules, 2019, "p")
        assert len(fleet.assets) == 3 and len(unmapped) == 1

    assert_no_cyclic_garbage(stage)


@pytest.mark.parametrize("db,fleet", CASES)
def test_report_json_parse_and_compare(db, fleet):
    later = dataclasses.replace(fleet, reporting_year=fleet.reporting_year + 1)
    first = render(aggregate(compute_fleet(fleet, db), fleet, "factors"), "json")
    second = render(aggregate(compute_fleet(later, db), later, "factors"), "json")

    def stage():
        compare_years([parse_report_json(first), parse_report_json(second)])

    assert_no_cyclic_garbage(stage)


def test_row_numbered_parse_error():
    text = samples.sample_fleet_csv().replace("laptop", "laptop,", 1)

    def stage():
        try:
            parse_fleet_csv(text, 2019, "p")
        except FleetParseError as exc:
            assert exc.row is not None
        else:
            pytest.fail("no FleetParseError")

    assert_no_cyclic_garbage(stage)
