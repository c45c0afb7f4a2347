import dataclasses
from types import SimpleNamespace

import pytest

from ecodiag import engine, report, samples
from ecodiag.factors import (
    EmissionFactor,
    FactorDatabase,
    GwpEntry,
    SourceMeta,
    load_factor_db,
    merge_factors,
)
from ecodiag.inventory import Fleet


def make_source(name="sample-base", year=2019, kind="public_base", neutral=True, peer=False):
    return SourceMeta(name, year, kind, neutral, peer)


def make_factor(category="laptop", fab=300.0, eol=2.5, power=30.0, unc=0.30, source=None):
    return EmissionFactor(category, fab, eol, power, unc, source or make_source())


def make_db(*factors, gwps=(GwpEntry("R410A", 2088.0),), grid=0.119):
    return FactorDatabase(tuple(factors), tuple(gwps), grid)


def with_grid(db, grid):
    """The database with its grid factor replaced."""
    return dataclasses.replace(db, default_grid_factor_kgco2e_per_kwh=grid)


def oracle_config(db):
    """The constants oracle.oracle_totals reads: the database's grid and the
    two yearly hour profiles, restated here apart from the engine's."""
    return SimpleNamespace(
        grid=SimpleNamespace(kgco2e_per_kwh=db.default_grid_factor_kgco2e_per_kwh),
        work_year_hours=1607.0,
        continuous_hours=8760.0,
    )


def charged_hours(asset):
    """The yearly hours the engine charges one unit of the asset: its usage
    line alone in a fleet, at a measured 1000 W and a grid of 1.0, where the
    kgCO2e equal the hours; no usage line means 0."""
    fleet = Fleet("p", 2019, assets=(asset._replace(quantity=1, measured_power_w=1000.0),))
    db = make_db(make_factor(asset.category), grid=1.0)
    lines = engine.asset_lines(fleet, fleet.assets, db)
    return next((line.kgco2e for line in lines if line.phase == "usage"), 0.0)


@pytest.fixture
def sample_db():
    return merge_factors(load_factor_db(samples.SAMPLE_FACTOR_FILE))


@pytest.fixture
def sample_fleet():
    return samples.sample_fleet()


def neumaier_sum(values, start=0):
    """sum() as Python 3.12 adds floats: with Neumaier's compensation."""
    total, compensation = float(start), 0.0
    for value in values:
        t = total + value
        if abs(total) >= abs(value):
            compensation += (total - t) + value
        else:
            compensation += (value - t) + total
        total = t
    return total + compensation


@pytest.fixture
def compensated_sum(monkeypatch):
    """The engine and the report run with neumaier_sum, Python 3.12's way of
    adding floats, as their sum(); their exactly rounded sums must not move."""
    for module in (engine, report):
        monkeypatch.setattr(module, "sum", neumaier_sum, raising=False)
