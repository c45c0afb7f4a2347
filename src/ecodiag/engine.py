"""Emission computation: turns a fleet plus a factor database into emission lines.

Rules in force:
  * usage electricity (scope 2) = quantity x power x yearly hours / 1000 x grid,
    with measured power preferred over the factor's typical power;
  * fabrication and transport (scope 3) count only in the acquisition year,
    end-of-life only in the disposal year, both at annual granularity;
  * refrigerant leaks (scope 1) = leaked kg x fluid GWP;
  * whole-room metering replaces per-asset usage for server-room equipment,
    otherwise a UPS overhead fraction applies to the room load;
  * uncertainties add linearly within one factor source (fully correlated)
    and in quadrature across sources; measured or declared values carry none.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from .factors import (
    CATEGORIES,
    DEFAULT_GRID_FACTOR,
    EmissionFactor,
    FactorDatabase,
    GridFactor,
    GwpEntry,
    gwp_value,
    lookup_factor,
)
from .inventory import (
    HOUR_PROFILES, STATUSES, Asset, CableBulk, ComputeCampaign, ExternalServiceEntry, Fleet,
    ServerRoom,
)

#: Pseudo-group of declared external entries, kept apart from equipment groups.
EXTERNAL_GROUP = "external"

#: Categories whose assets make up the server-room pool. Assets are not tied
#: to a specific room; every server_room-group asset belongs to the pool.
_POOL_CATEGORIES = frozenset(c.id for c in CATEGORIES.values() if c.group == "server_room")

WORK_YEAR_HOURS = 1607.0
CONTINUOUS_HOURS = 8760.0

#: factor_source labels for lines that carry no factor uncertainty.
MEASURED_SOURCE = "measured"
DECLARED_SOURCE = "declared"
VENDOR_SOURCE = "vendor_fiche"


class EmissionLine(NamedTuple):
    """One atomic result: a subject emitted kgco2e under one scope and phase.

    An immutable plain record built from checked inputs; report.aggregate
    checks the totals. Being a tuple, it compares equal to a plain tuple of
    its fields in this order. group is the subject's equipment group, or
    EXTERNAL_GROUP for a declared external entry; subject ids alone may
    coincide across kinds.
    """

    subject_id: str
    scope: str
    phase: str
    kgco2e: float
    abs_uncertainty_kgco2e: float
    factor_source: str
    group: str


@dataclass(frozen=True)
class EngineConfig:
    """Computation constants: grid intensity and the two yearly hour profiles."""

    grid: GridFactor = GridFactor(DEFAULT_GRID_FACTOR)
    work_year_hours: float = WORK_YEAR_HOURS
    continuous_hours: float = CONTINUOUS_HOURS

    def __post_init__(self):
        if not 0 < self.work_year_hours <= self.continuous_hours <= 8784:
            raise ValueError(
                "hour profiles must satisfy 0 < work_year_hours <= continuous_hours <= 8784"
            )


def config_for(db: FactorDatabase, grid_override: float | None = None) -> EngineConfig:
    """Build a config from a database's grid factor, optionally overridden."""
    if grid_override is not None:
        return EngineConfig(grid=GridFactor(grid_override))
    return EngineConfig(grid=GridFactor(db.default_grid_factor_kgco2e_per_kwh))


def _hours_table(cat_id: str, config: EngineConfig) -> dict[tuple[str, str | None], float]:
    """Yearly powered-on hours of a category's assets by (status, override); stored ones run 0."""
    default = CATEGORIES[cat_id].hour_profile_default
    return {
        (status, override): 0.0 if status == "stored"
        else config.work_year_hours if (override or default) == "work_year"
        else config.continuous_hours
        for status in STATUSES for override in (None, *HOUR_PROFILES)
    }


def _plan(cat_id: str, factor: EmissionFactor, config: EngineConfig | None,
          usage: bool, lifecycle: bool) -> tuple:
    """A category's plan under a factor, laid out as _lines unpacks it (see
    asset_lines); the hours table is built only when it has a usage line."""
    return (usage, lifecycle, _hours_table(cat_id, config) if usage else {},
            factor.typical_power_w, factor.rel_uncertainty, factor.source.name,
            CATEGORIES[cat_id].group, factor.fab_transport_kgco2e, factor.eol_kgco2e)


def _lines(
    assets: tuple[Asset, ...], plans: dict[str, tuple], year: int | None, grid: float
) -> list[EmissionLine]:
    """The lines of the assets in the order given.

    Usage: quantity x power x hours / 1000 x grid, no line when zero; measured
    power wins over the typical power and is exact. Fabrication and transport
    count in the acquisition year, a vendor value winning over the factor as
    exact; end of life counts in the disposal year."""
    lines = []
    append, new = lines.append, tuple.__new__
    for id_, cat_id, qty, acquired, disposed, status, measured, vendor, override in assets:
        usage, lifecycle, hours, power, rel, source, group, fab, eol = plans[cat_id]
        if usage:
            kwh = qty * (power if measured is None else measured) * hours[status, override] / 1000.0
            if kwh:
                kg = kwh * grid
                append(new(EmissionLine, (id_, "S2", "usage", kg, kg * rel, source, group)
                           if measured is None
                           else (id_, "S2", "usage", kg, 0.0, MEASURED_SOURCE, group)))
        if lifecycle:
            if acquired == year:
                kg, unc, src = ((qty * fab, qty * fab * rel, source) if vendor is None
                                else (qty * vendor, 0.0, VENDOR_SOURCE))
                append(new(EmissionLine, (id_, "S3", "fabrication_transport", kg, unc, src, group)))
            if disposed == year:
                kg = qty * eol
                append(new(EmissionLine, (id_, "S3", "end_of_life", kg, kg * rel, source, group)))
    return lines


def _one_line(asset: Asset, factor: EmissionFactor, phase: str, config=None, year=None):
    """The asset's line of one phase under the factor, or None; usage needs the config."""
    usage = phase == "usage"
    plan = _plan(asset.category, factor, config, usage, not usage)
    lines = _lines((asset,), {asset.category: plan}, year, config and config.grid.kgco2e_per_kwh)
    return next((line for line in lines if line.phase == phase), None)


def usage_hours(asset: Asset, config: EngineConfig) -> float:
    """Yearly powered-on hours for one asset; stored equipment runs zero."""
    return _hours_table(asset.category, config)[asset.status, asset.hour_profile_override]


def scope2_usage(asset: Asset, factor: EmissionFactor, config: EngineConfig) -> EmissionLine | None:
    """Electricity consumption line for one asset, None when it draws nothing."""
    return _one_line(asset, factor, "usage", config)


def scope3_fabrication(asset: Asset, factor: EmissionFactor,
                       reporting_year: int) -> EmissionLine | None:
    """Fabrication and transport line, only in the acquisition year."""
    return _one_line(asset, factor, "fabrication_transport", year=reporting_year)


def scope3_eol(asset: Asset, factor: EmissionFactor, reporting_year: int) -> EmissionLine | None:
    """End-of-life treatment line, only in the disposal year."""
    return _one_line(asset, factor, "end_of_life", year=reporting_year)


def scope1_refrigerant(room: ServerRoom, gwp_table: tuple[GwpEntry, ...]) -> EmissionLine | None:
    """Fugitive refrigerant line for a room; None when nothing leaked."""
    if room.refrigerant_leak_kg_per_year == 0:
        return None
    gwp = gwp_value(gwp_table, room.refrigerant_fluid or "")
    return EmissionLine(
        subject_id=room.id,
        scope="S1",
        phase="fugitive",
        kgco2e=room.refrigerant_leak_kg_per_year * gwp,
        abs_uncertainty_kgco2e=0.0,
        factor_source=f"gwp:{room.refrigerant_fluid}",
        group="server_room",
    )


def _room_lines(
    room: ServerRoom, pool: tuple[float, float] | None, config: EngineConfig
) -> list[EmissionLine]:
    """Room-level electricity lines.

    A whole-room meter wins over everything: its single line replaces the
    per-asset usage lines of the server-room pool (compute_fleet applies the
    suppression). Otherwise the UPS overhead fraction is charged on top of
    pool, the pool's (kgco2e, uncertainty), inheriting its uncertainty; a
    pool of None charges no overhead, as when some room is metered.
    """
    if room.measured_room_kwh_per_year is not None:
        return [
            EmissionLine(
                subject_id=room.id,
                scope="S2",
                phase="usage",
                kgco2e=room.measured_room_kwh_per_year * config.grid.kgco2e_per_kwh,
                abs_uncertainty_kgco2e=0.0,
                factor_source=MEASURED_SOURCE,
                group="server_room",
            )
        ]
    if pool is None:
        return []
    pool_kgco2e, pool_uncertainty = pool
    overhead = room.ups_overhead_fraction * pool_kgco2e
    if overhead == 0:
        return []
    return [
        EmissionLine(
            subject_id=room.id,
            scope="S2",
            phase="usage",
            kgco2e=overhead,
            abs_uncertainty_kgco2e=room.ups_overhead_fraction * pool_uncertainty,
            factor_source=f"room_overhead:{room.id}",
            group="server_room",
        )
    ]


def scope2_campaign(campaign: ComputeCampaign, config: EngineConfig) -> EmissionLine:
    """Electricity line for a compute campaign; direct kWh beats the core-hour model."""
    if campaign.kwh is not None:
        kwh = campaign.kwh
    elif campaign.core_hours is not None and campaign.watts_per_core is not None:
        kwh = campaign.core_hours * campaign.watts_per_core / 1000.0 * campaign.pue
    else:
        raise ValueError(f"campaign {campaign.id}: no energy declaration")
    return EmissionLine(
        subject_id=campaign.id,
        scope="S2",
        phase="usage",
        kgco2e=kwh * config.grid.kgco2e_per_kwh,
        abs_uncertainty_kgco2e=0.0,
        factor_source=DECLARED_SOURCE,
        group="compute",
    )


def scope3_cables(bulk: CableBulk, factor: EmissionFactor) -> EmissionLine | None:
    """Fabrication line for cables bought this year; None when none were."""
    if bulk.count_acquired_this_year == 0:
        return None
    kgco2e = bulk.count_acquired_this_year * factor.fab_transport_kgco2e
    return EmissionLine(
        subject_id=bulk.category,
        scope="S3",
        phase="fabrication_transport",
        kgco2e=kgco2e,
        abs_uncertainty_kgco2e=kgco2e * factor.rel_uncertainty,
        factor_source=factor.source.name,
        group="bulk",
    )


def declared_external(entry: ExternalServiceEntry) -> EmissionLine:
    """Pass-through line for a provider-declared figure."""
    return EmissionLine(
        subject_id=entry.id,
        scope=entry.scope_label,
        phase="declared",
        kgco2e=entry.declared_kgco2e,
        abs_uncertainty_kgco2e=0.0,
        factor_source=DECLARED_SOURCE,
        group=EXTERNAL_GROUP,
    )


def asset_lines(
    fleet: Fleet, assets: tuple[Asset, ...], db: FactorDatabase, config: EngineConfig
) -> list[EmissionLine]:
    """The emission lines of some of the fleet's assets, in the given order.

    The fleet gives the reporting year and the rooms; a room meter
    suppresses the server-room pool's own usage lines. A plan is built once
    per category: whether it gets its own usage line and S3 lines, its hours
    table, the factor's typical power, relative uncertainty and source name,
    its group, and the fabrication and end-of-life factors. The assets are
    then evaluated in one pass, in the given order, with no function call and
    no category lookup per asset.
    """
    metered = any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)
    plans = {}
    for cat_id in dict.fromkeys(map(itemgetter(1), assets)):
        scope_mask = CATEGORIES[cat_id].scope_mask
        usage = "S2" in scope_mask and not (metered and cat_id in _POOL_CATEGORIES)
        plans[cat_id] = _plan(cat_id, lookup_factor(db, cat_id), config, usage, "S3" in scope_mask)
    return _lines(assets, plans, fleet.reporting_year, config.grid.kgco2e_per_kwh)


def compute_fleet(
    fleet: Fleet,
    db: FactorDatabase,
    config: EngineConfig,
    lines: list[EmissionLine] | None = None,
) -> list[EmissionLine]:
    """Compute every emission line for a fleet under a merged factor database.

    lines, when given, are the asset lines to use in place of asset_lines(fleet,
    fleet.assets, db, config) and are not modified; the fleet supplies the rest:
    year, rooms, campaigns, cables, external services. Output is sorted by
    (subject_id, scope, phase) so identical inputs always give identical output.
    """
    lines = asset_lines(fleet, fleet.assets, db, config) if lines is None else list(lines)
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
        lines.extend(_room_lines(room, pool, config))

    for campaign in fleet.campaigns:
        lines.append(scope2_campaign(campaign, config))

    for bulk in fleet.cable_bulks:
        line = scope3_cables(bulk, lookup_factor(db, bulk.category))
        if line is not None:
            lines.append(line)

    for entry in fleet.external_services:
        lines.append(declared_external(entry))

    lines.sort(key=itemgetter(0, 1, 2))
    return lines


def combined_uncertainty(lines: list[EmissionLine]) -> float:
    """Absolute uncertainty of the lines' total. Lines sharing a factor_source
    are fully correlated (their uncertainties add); distinct sources are
    independent (group sums combine in quadrature)."""
    groups: dict[str, float] = {}
    for l in lines:
        groups[l.factor_source] = groups.get(l.factor_source, 0.0) + l.abs_uncertainty_kgco2e
    return math.sqrt(sum(g * g for g in groups.values()))


def aggregate_uncertainty(lines: list[EmissionLine]) -> tuple[float, float]:
    """Total kgco2e and its absolute uncertainty (see combined_uncertainty)."""
    return sum(l.kgco2e for l in lines), combined_uncertainty(lines)
