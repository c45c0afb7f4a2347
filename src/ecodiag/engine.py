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

from collections.abc import Iterable, Iterator
from itertools import chain
from math import fsum, inf
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .factors import (
    CATEGORIES, HOUR_PROFILES, STATUSES, EmissionFactor, FactorDatabase, GwpEntry, gwp_value,
    lookup_factor,
)

if TYPE_CHECKING:
    from .inventory import Asset, CableBulk, ComputeCampaign, ExternalServiceEntry, Fleet, ServerRoom

#: Pseudo-group of declared external entries, kept apart from equipment groups.
EXTERNAL_GROUP = "external"

#: compute_fleet sorts the emission lines by this key: subject, scope, phase.
_KEY = itemgetter(0, 1, 2)

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


def _hours_table(cat_id: str) -> dict[tuple[str, str | None], float]:
    """Yearly powered-on hours of a category's assets by (status, override); stored ones run 0."""
    default = CATEGORIES[cat_id].hour_profile_default
    return {
        (status, override): 0.0 if status == "stored"
        else WORK_YEAR_HOURS if (override or default) == "work_year"
        else CONTINUOUS_HOURS
        for status in STATUSES for override in (None, *HOUR_PROFILES)
    }


def _plan(cat_id: str, factor: EmissionFactor, usage: bool, lifecycle: bool) -> tuple:
    """A category's plan under a factor, laid out as _lines unpacks it (see
    asset_lines); the hours table is built only when it has a usage line."""
    return (usage, lifecycle, _hours_table(cat_id) if usage else {},
            factor.typical_power_w, factor.rel_uncertainty, factor.source.name,
            CATEGORIES[cat_id].group, factor.fab_transport_kgco2e, factor.eol_kgco2e)


def _lines(
    assets: tuple[Asset, ...], plans: dict[str, tuple], year: int | None, grid: float
) -> list[EmissionLine]:
    """The lines of the assets in the order given, each asset's in key order:
    usage, end of life, then fabrication and transport.

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
            if disposed == year:
                kg = qty * eol
                append(new(EmissionLine, (id_, "S3", "end_of_life", kg, kg * rel, source, group)))
            if acquired == year:
                kg, unc, src = ((qty * fab, qty * fab * rel, source) if vendor is None
                                else (qty * vendor, 0.0, VENDOR_SOURCE))
                append(new(EmissionLine, (id_, "S3", "fabrication_transport", kg, unc, src, group)))
    return lines


def scope2_usage(asset: Asset, factor: EmissionFactor, grid: float) -> EmissionLine | None:
    """Electricity consumption line for one asset at grid kgCO2e/kWh, None when it draws nothing."""
    plans = {asset.category: _plan(asset.category, factor, True, False)}
    return next(iter(_lines((asset,), plans, None, grid)), None)


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
    room: ServerRoom, pool: tuple[float, float] | None, grid: float
) -> list[EmissionLine]:
    """Room-level electricity lines.

    A whole-room meter wins over everything: its single line replaces the
    per-asset usage lines of the server-room pool (asset_lines applies the
    suppression). Otherwise the UPS overhead fraction is charged on top of
    pool, the pool's (kgco2e, uncertainty), inheriting its uncertainty; a
    pool of None or of zero charges no overhead.
    """
    if room.measured_room_kwh_per_year is not None:
        kgco2e = room.measured_room_kwh_per_year * grid
        return [EmissionLine(room.id, "S2", "usage", kgco2e, 0.0, MEASURED_SOURCE, "server_room")]
    if pool is None or room.ups_overhead_fraction == 0:  # 0 x an infinite pool is nan
        return []
    pool_kgco2e, pool_uncertainty = pool
    overhead = room.ups_overhead_fraction * pool_kgco2e
    if overhead == 0:
        return []
    return [EmissionLine(room.id, "S2", "usage", overhead,
                         room.ups_overhead_fraction * pool_uncertainty,
                         f"room_overhead:{room.id}", "server_room")]


def scope2_campaign(campaign: ComputeCampaign, grid: float) -> EmissionLine:
    """Electricity line for a compute campaign at grid kgCO2e/kWh; direct kWh beats
    the core-hour model."""
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
        kgco2e=kwh * grid,
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


def asset_lines(fleet: Fleet, assets: tuple[Asset, ...], db: FactorDatabase) -> list[EmissionLine]:
    """The emission lines of some of the fleet's assets, in the given order.

    The fleet gives the reporting year and the rooms, the database the factors
    and the grid; a room meter suppresses the server-room pool's own usage
    lines. A plan is built once per category: whether it gets its own usage
    line and S3 lines, its hours table, the factor's typical power, relative
    uncertainty and source name, its group, and the fabrication and
    end-of-life factors. The assets are then evaluated in one pass, in the
    given order, with no function call and no category lookup per asset.
    """
    metered = any(r.measured_room_kwh_per_year is not None for r in fleet.rooms)
    plans = {}
    for cat_id in dict.fromkeys(map(itemgetter(1), assets)):
        scope_mask = CATEGORIES[cat_id].scope_mask
        usage = "S2" in scope_mask and not (metered and cat_id in _POOL_CATEGORIES)
        plans[cat_id] = _plan(cat_id, lookup_factor(db, cat_id), usage, "S3" in scope_mask)
    return _lines(assets, plans, fleet.reporting_year, db.default_grid_factor_kgco2e_per_kwh)


def exact_parts(parts: Iterable[float]) -> list[float]:
    """A few floats whose exact sum is that of the parts: their fsum, exactly
    rounded (Shewchuk 1997), then that of what it leaves, until none is left;
    so a sum folded through it chunk by chunk does not depend on value order.
    An inf or nan sum is the one part, as is inf for a finite sum that overflows."""
    parts, exact = list(parts), []
    try:
        while total := fsum(parts):
            exact.append(total)
            if total - total:  # inf or nan
                break
            parts.append(-total)
    except OverflowError:
        return [inf]
    return exact


#: Assets evaluated at a time by asset_part: one chunk of lines, about 0.6 MB.
_CHUNK_ASSETS = 4096


def asset_part(fleet: Fleet, db: FactorDatabase) -> Iterator[list[EmissionLine]]:
    """The lines of the fleet's assets: one list per _CHUNK_ASSETS assets, in fleet order."""
    return (asset_lines(fleet, fleet.assets[i:i + _CHUNK_ASSETS], db)
            for i in range(0, len(fleet.assets), _CHUNK_ASSETS))


def fleet_lines(fleet: Fleet, db: FactorDatabase,
                part: Iterable[list[EmissionLine]] | None = None) -> Iterator[EmissionLine]:
    """Every emission line of a fleet, as it is computed: the asset lines of
    part, by default asset_part(fleet, db), one list at a time, then the room,
    campaign, cable and external lines. part is any iterable of lists of
    asset lines, not modified, of assets that need not be the fleet's; the
    fleet supplies the rest. The server-room pool, the S2 lines of the
    server_room group that a UPS overhead is charged on, is summed exactly
    (exact_parts) as the lists go by, so only one list is held at a time."""
    kg, unc = [], []
    for lines in asset_part(fleet, db) if part is None else part:
        pool = [l for l in lines if l.group == "server_room" and l.scope == "S2"]
        kg = exact_parts(chain(kg, (l.kgco2e for l in pool)))
        unc = exact_parts(chain(unc, (l.abs_uncertainty_kgco2e for l in pool)))
        yield from lines
        del lines, pool  # before the next list is computed
    pool_sums, grid = (fsum(kg), fsum(unc)), db.default_grid_factor_kgco2e_per_kwh
    for room in fleet.rooms:
        yield from filter(None, (scope1_refrigerant(room, db.gwp_table),
                                 *_room_lines(room, pool_sums, grid)))
    yield from (scope2_campaign(c, grid) for c in fleet.campaigns)
    yield from filter(None, (scope3_cables(b, lookup_factor(db, b.category))
                             for b in fleet.cable_bulks))
    yield from map(declared_external, fleet.external_services)


def compute_fleet(fleet: Fleet, db: FactorDatabase) -> list[EmissionLine]:
    """The lines of fleet_lines(fleet, db) sorted by (subject_id, scope, phase).
    The sort is stable, so lines of an equal key keep the order assets, rooms,
    campaigns, cables, external services: the same rows in any order give the
    same list."""
    return sorted(fleet_lines(fleet, db), key=_KEY)
