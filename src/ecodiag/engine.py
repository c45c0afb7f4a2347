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

from bisect import bisect_right
from collections.abc import Callable, Iterable, Iterator
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

#: Emission lines are kept in the order of this key: subject, scope, phase.
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
    if pool is None:
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


def merged_chunks(chunks: Iterable[list], side: list, key: Callable) -> Iterator[list]:
    """Each non-empty chunk, its lines in key order and no key in two chunks,
    with the side lines, in key order too, up to its last key merged in, then
    the rest of side: the lines of a stable sort of all of them, chunk lines
    first at an equal key. No input is modified; a chunk that takes no side
    line is yielded as is."""
    done = 0
    for chunk in chunks:
        if chunk:
            # sorted is stable and merges the two sorted runs.
            end = bisect_right(side, key(chunk[-1]), done, key=key)
            yield sorted(chunk + side[done:end], key=key) if end > done else chunk
            done = end
        del chunk  # before the next chunk is computed
    yield side[done:]


#: Assets evaluated at a time by asset_part: one chunk of lines, about 0.6 MB.
_CHUNK_ASSETS = 4096


def asset_part(fleet: Fleet, db: FactorDatabase,
               assets: tuple[Asset, ...] | None = None) -> Iterator[list[EmissionLine]]:
    """The server-room pool, then the lines of the fleet's assets, or of the
    given ones, in key order, one list at a time.

    The assets are taken in one order, the fleet's assets_by_id or the given
    ones sorted by id: key order, as asset ids are unique. The pool is the S2
    lines of the server_room group, empty when no room has a UPS overhead to
    charge on it; else its assets go first, their lines merged by subject into
    the chunks of the others, _CHUNK_ASSETS at a time (merged_chunks)."""
    subject, pooled = itemgetter(0), []
    by_id = fleet.assets_by_id if assets is None else sorted(assets, key=subject)
    if any(r.ups_overhead_fraction != 0 for r in fleet.rooms):
        pooled = asset_lines(fleet, [a for a in by_id if a[1] in _POOL_CATEGORIES], db)
        by_id = [a for a in by_id if a[1] not in _POOL_CATEGORIES]
    yield [line for line in pooled if line.scope == "S2"]  # none under a room meter
    yield from merged_chunks((asset_lines(fleet, by_id[i:i + _CHUNK_ASSETS], db)
                              for i in range(0, len(by_id), _CHUNK_ASSETS)), pooled, subject)


def fleet_lines(fleet: Fleet, db: FactorDatabase,
                part: Iterable[list[EmissionLine]] | None = None) -> Iterator[EmissionLine]:
    """The lines of compute_fleet(fleet, db, part), as they are computed: the
    pool is summed and the room, campaign, cable and external lines built at
    the call, then merged by key into each list of asset lines (merged_chunks),
    so only they, the pool's lines and one chunk of asset lines are held. The
    pool's sums are exactly rounded (fsum), so the order of its lines is moot."""
    part = iter(asset_part(fleet, db) if part is None else part)
    pool = next(part)
    try:
        pool_sums = fsum(l.kgco2e for l in pool), fsum(l.abs_uncertainty_kgco2e for l in pool)
    except OverflowError:  # a finite pool whose sum is past the largest float
        pool_sums = inf, inf
    grid = db.default_grid_factor_kgco2e_per_kwh
    others = []  # lines of an equal key go: assets, rooms, campaigns, cables, external services
    for room in fleet.rooms:
        others += [scope1_refrigerant(room, db.gwp_table), *_room_lines(room, pool_sums, grid)]
    others += [scope2_campaign(c, grid) for c in fleet.campaigns]
    others += [scope3_cables(b, lookup_factor(db, b.category)) for b in fleet.cable_bulks]
    others += map(declared_external, fleet.external_services)
    return chain.from_iterable(merged_chunks(part, sorted(filter(None, others), key=_KEY), _KEY))


def compute_fleet(fleet: Fleet, db: FactorDatabase,
                  part: Iterable[list[EmissionLine]] | None = None) -> list[EmissionLine]:
    """Every emission line of a fleet under a merged factor database, at its
    grid factor, sorted by (subject_id, scope, phase), lines of an equal key in
    the order assets, rooms, campaigns, cables, external services: the same
    rows in any order give the same output. part, by default asset_part(fleet, db),
    is any iterable of lists shaped as asset_part gives them: the pool, then
    asset lines in key order, of assets that need not be the fleet's; its
    lists are not modified. The fleet supplies the rest."""
    return list(fleet_lines(fleet, db, part))
