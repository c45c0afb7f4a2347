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
from operator import attrgetter
from typing import NamedTuple

from .factors import (
    CATEGORIES,
    DEFAULT_GRID_FACTOR,
    EmissionFactor,
    FactorDatabase,
    GwpEntry,
    gwp_value,
    lookup_factor,
)
from .inventory import Asset, CableBulk, ComputeCampaign, ExternalServiceEntry, Fleet, ServerRoom

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


@dataclass(frozen=True)
class GridFactor:
    """Carbon intensity of purchased electricity, kgCO2e per kWh."""

    kgco2e_per_kwh: float

    def __post_init__(self):
        if not math.isfinite(self.kgco2e_per_kwh) or self.kgco2e_per_kwh <= 0:
            raise ValueError(f"grid factor must be finite and > 0, got {self.kgco2e_per_kwh}")


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


def usage_hours(asset: Asset, config: EngineConfig) -> float:
    """Yearly powered-on hours for one asset; stored equipment runs zero."""
    if asset.status == "stored":
        return 0.0
    profile = asset.hour_profile_override or CATEGORIES[asset.category].hour_profile_default
    return config.work_year_hours if profile == "work_year" else config.continuous_hours


def scope2_usage(asset: Asset, factor: EmissionFactor, config: EngineConfig) -> EmissionLine | None:
    """Electricity consumption line for one asset, None when it draws nothing.

    Measured power is trusted as-is (zero uncertainty); the factor's typical
    power carries the factor's relative uncertainty.
    """
    measured = asset.measured_power_w is not None
    power = asset.measured_power_w if measured else factor.typical_power_w
    kwh = asset.quantity * power * usage_hours(asset, config) / 1000.0
    if kwh == 0:
        return None
    kgco2e = kwh * config.grid.kgco2e_per_kwh
    return EmissionLine(
        asset.id,
        "S2",
        "usage",
        kgco2e,
        0.0 if measured else kgco2e * factor.rel_uncertainty,
        MEASURED_SOURCE if measured else factor.source.name,
        CATEGORIES[asset.category].group,
    )


def scope3_fabrication(
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


def scope3_eol(asset: Asset, factor: EmissionFactor, reporting_year: int) -> EmissionLine | None:
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


def _any_room_metered(fleet: Fleet) -> bool:
    return any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)


def _pool_total(usage_lines) -> tuple[float, float]:
    """Usage kgco2e and its uncertainty summed over the server-room pool's
    usage lines, in asset order."""
    pool_kgco2e = 0.0
    pool_uncertainty = 0.0
    for line in usage_lines:
        pool_kgco2e += line.kgco2e
        pool_uncertainty += line.abs_uncertainty_kgco2e
    return pool_kgco2e, pool_uncertainty


def scope2_room_overheads(
    room: ServerRoom, fleet: Fleet, db: FactorDatabase, config: EngineConfig
) -> list[EmissionLine]:
    """Room-level electricity lines.

    A whole-room meter wins over everything: its single line replaces the
    per-asset usage lines of the server-room pool (compute_fleet applies the
    suppression). Without metering anywhere, the UPS overhead fraction is
    charged on top of the pool's consumption, inheriting its uncertainty.
    """
    pool = None
    if not _any_room_metered(fleet) and room.ups_overhead_fraction != 0:
        usage = (scope2_usage(a, lookup_factor(db, a.category), config)
                 for a in fleet.assets if a.category in _POOL_CATEGORIES)
        pool = _pool_total(line for line in usage if line is not None)
    return _room_lines(room, pool, config)


def _room_lines(
    room: ServerRoom, pool: tuple[float, float] | None, config: EngineConfig
) -> list[EmissionLine]:
    # pool is the server-room pool's (kgco2e, uncertainty); None charges no
    # overhead, as when some room is metered.
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


def compute_fleet(fleet: Fleet, db: FactorDatabase, config: EngineConfig) -> list[EmissionLine]:
    """Compute every emission line for a fleet under a merged factor database.

    Output is sorted by (subject_id, scope, phase) so identical inputs always
    produce identical output.
    """
    lines: list[EmissionLine] = []
    metered = _any_room_metered(fleet)
    year = fleet.reporting_year
    plans = {}  # category id -> (factor, own usage line?, S3 lines?, in the pool?)
    for cat_id in dict.fromkeys(a.category for a in fleet.assets):
        scope_mask, in_pool = CATEGORIES[cat_id].scope_mask, cat_id in _POOL_CATEGORIES
        usage = "S2" in scope_mask and not (metered and in_pool)
        plans[cat_id] = lookup_factor(db, cat_id), usage, "S3" in scope_mask, in_pool
    pool_lines: list[EmissionLine] = []
    for asset in fleet.assets:
        factor, usage, lifecycle, in_pool = plans[asset.category]
        if usage:
            line = scope2_usage(asset, factor, config)
            if line is not None:
                lines.append(line)
                if in_pool:
                    pool_lines.append(line)
        if lifecycle:
            line = scope3_fabrication(asset, factor, year)
            if line is not None:
                lines.append(line)
            line = scope3_eol(asset, factor, year)
            if line is not None:
                lines.append(line)

    # Every pool category has S2 in its scope, so without a room meter
    # pool_lines holds each pool asset's non-None usage line, in fleet order.
    pool = None
    if not metered and any(r.ups_overhead_fraction != 0 for r in fleet.rooms):
        pool = _pool_total(pool_lines)
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

    lines.sort(key=attrgetter("subject_id", "scope", "phase"))
    return lines


def aggregate_uncertainty(lines: list[EmissionLine]) -> tuple[float, float]:
    """Total kgco2e and its absolute uncertainty.

    Lines sharing a factor_source are fully correlated (their uncertainties
    add); distinct sources are independent (group sums combine in quadrature).
    """
    total = sum(l.kgco2e for l in lines)
    groups: dict[str, float] = {}
    for l in lines:
        groups[l.factor_source] = groups.get(l.factor_source, 0.0) + l.abs_uncertainty_kgco2e
    return total, math.sqrt(sum(g * g for g in groups.values()))
