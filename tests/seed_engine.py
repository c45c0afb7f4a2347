"""The engine's per-asset loop and one-asset functions as they were before
asset_lines ran through per-category plans, and compute_fleet as it was
before each asset's lines came in key order and only the other lines were
merged into them, kept as the reference that the engine is compared against;
like the engine, they take the grid from the factor database. seed_compute_fleet
runs over the seed's asset lines."""
from __future__ import annotations

from operator import itemgetter

from ecodiag.engine import (
    MEASURED_SOURCE,
    VENDOR_SOURCE,
    EmissionLine,
    _room_lines,
    declared_external,
    scope1_refrigerant,
    scope2_campaign,
    scope3_cables,
)
from ecodiag.factors import CATEGORIES, EmissionFactor, FactorDatabase, lookup_factor
from ecodiag.inventory import Asset, Fleet

_POOL_CATEGORIES = frozenset(c.id for c in CATEGORIES.values() if c.group == "server_room")


def seed_usage_hours(asset: Asset) -> float:
    """Yearly powered-on hours for one asset; stored equipment runs zero."""
    if asset.status == "stored":
        return 0.0
    profile = asset.hour_profile_override or CATEGORIES[asset.category].hour_profile_default
    return 1607.0 if profile == "work_year" else 8760.0


def seed_scope2_usage(asset: Asset, factor: EmissionFactor, grid: float) -> EmissionLine | None:
    """Electricity consumption line for one asset, None when it draws nothing.

    Measured power is trusted as-is (zero uncertainty); the factor's typical
    power carries the factor's relative uncertainty.
    """
    measured = asset.measured_power_w is not None
    power = asset.measured_power_w if measured else factor.typical_power_w
    kwh = asset.quantity * power * seed_usage_hours(asset) / 1000.0
    if kwh == 0:
        return None
    kgco2e = kwh * grid
    return EmissionLine(
        asset.id,
        "S2",
        "usage",
        kgco2e,
        0.0 if measured else kgco2e * factor.rel_uncertainty,
        MEASURED_SOURCE if measured else factor.source.name,
        CATEGORIES[asset.category].group,
    )


def seed_scope3_fabrication(
    asset: Asset, factor: EmissionFactor, reporting_year: int
) -> EmissionLine | None:
    """Fabrication and transport line, only in the acquisition year.

    A vendor-declared per-device value overrides the generic factor and is
    treated as exact.
    """
    if asset.acquisition_year != reporting_year:
        return None
    group = CATEGORIES[asset.category].group
    vendor = asset.vendor_fab_transport_kgco2e
    if vendor is not None:
        kgco2e = asset.quantity * vendor
        return EmissionLine(
            asset.id, "S3", "fabrication_transport", kgco2e, 0.0, VENDOR_SOURCE, group
        )
    kgco2e = asset.quantity * factor.fab_transport_kgco2e
    return EmissionLine(
        asset.id,
        "S3",
        "fabrication_transport",
        kgco2e,
        kgco2e * factor.rel_uncertainty,
        factor.source.name,
        group,
    )


def seed_scope3_eol(
    asset: Asset, factor: EmissionFactor, reporting_year: int
) -> EmissionLine | None:
    """End-of-life treatment line, only in the disposal year."""
    if asset.disposal_year != reporting_year:
        return None
    kgco2e = asset.quantity * factor.eol_kgco2e
    return EmissionLine(
        asset.id,
        "S3",
        "end_of_life",
        kgco2e,
        kgco2e * factor.rel_uncertainty,
        factor.source.name,
        CATEGORIES[asset.category].group,
    )


def seed_asset_lines(
    fleet: Fleet, assets: tuple[Asset, ...], db: FactorDatabase
) -> tuple[list[EmissionLine], list[EmissionLine]]:
    """The emission lines of some of the fleet's assets, in the given order,
    and the subset of them that makes up the server-room pool.

    The fleet gives the reporting year and the rooms; a room meter
    suppresses the pool's own usage lines.
    """
    lines: list[EmissionLine] = []
    metered = any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)
    year = fleet.reporting_year
    plans = {}  # category id -> (factor, own usage line?, S3 lines?, in the pool?)
    for cat_id in dict.fromkeys(a.category for a in assets):
        scope_mask, in_pool = CATEGORIES[cat_id].scope_mask, cat_id in _POOL_CATEGORIES
        usage = "S2" in scope_mask and not (metered and in_pool)
        plans[cat_id] = lookup_factor(db, cat_id), usage, "S3" in scope_mask, in_pool
    pool_lines: list[EmissionLine] = []
    for asset in assets:
        factor, usage, lifecycle, in_pool = plans[asset.category]
        if usage:
            line = seed_scope2_usage(asset, factor, db.default_grid_factor_kgco2e_per_kwh)
            if line is not None:
                lines.append(line)
                if in_pool:
                    pool_lines.append(line)
        if lifecycle:
            line = seed_scope3_fabrication(asset, factor, year)
            if line is not None:
                lines.append(line)
            line = seed_scope3_eol(asset, factor, year)
            if line is not None:
                lines.append(line)
    return lines, pool_lines


def seed_key_order(assets: tuple[Asset, ...], lines: list[EmissionLine]) -> list[EmissionLine]:
    """The seed's lines of the assets with each asset's lines in key order, the
    assets still in the order given."""
    position = {a.id: n for n, a in enumerate(assets)}
    return sorted(lines, key=lambda l: (position[l.subject_id], l.scope, l.phase))


def seed_compute_fleet(
    fleet: Fleet,
    db: FactorDatabase,
    lines: list[EmissionLine] | None = None,
) -> list[EmissionLine]:
    """Compute every emission line for a fleet under a merged factor database.

    lines, when given, are the asset lines to use in place of asset_lines(fleet,
    fleet.assets, db) and are not modified; the fleet supplies the rest:
    year, rooms, campaigns, cables, external services. Output is sorted by
    (subject_id, scope, phase) so identical inputs always give identical output.
    """
    lines = seed_asset_lines(fleet, fleet.assets, db)[0] if lines is None else list(lines)
    grid = db.default_grid_factor_kgco2e_per_kwh
    metered = any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)

    # The pool's usage lines are the asset lines of the server_room group in S2.
    pool = None
    if not metered and any(r.ups_overhead_fraction != 0 for r in fleet.rooms):
        pool_kgco2e = pool_uncertainty = 0.0
        for line in lines:
            if line.group == "server_room" and line.scope == "S2":
                pool_kgco2e += line.kgco2e
                pool_uncertainty += line.abs_uncertainty_kgco2e
        pool = pool_kgco2e, pool_uncertainty
    for room in fleet.rooms:
        line = scope1_refrigerant(room, db.gwp_table)
        if line is not None:
            lines.append(line)
        lines.extend(_room_lines(room, pool, grid))

    for campaign in fleet.campaigns:
        lines.append(scope2_campaign(campaign, grid))

    for bulk in fleet.cable_bulks:
        line = scope3_cables(bulk, lookup_factor(db, bulk.category))
        if line is not None:
            lines.append(line)

    for entry in fleet.external_services:
        lines.append(declared_external(entry))

    lines.sort(key=itemgetter(0, 1, 2))
    return lines
