"""Seeded random fleets and factor databases for the randomized suites.

Plain random.Random keeps these suites fast and byte-reproducible. Factor
fabrication values are strictly positive so "has a fabrication line" is
equivalent to "was acquired this year" for scope-3-capable equipment.
"""
from __future__ import annotations

import dataclasses
import random

from ecodiag.factors import (
    ASSET_CATEGORIES,
    CATEGORIES,
    EmissionFactor,
    FactorDatabase,
    GwpEntry,
    SourceMeta,
)
from ecodiag.inventory import (
    Asset,
    CableBulk,
    ComputeCampaign,
    ExternalServiceEntry,
    Fleet,
    ServerRoom,
)

ASSET_CATS = sorted(ASSET_CATEGORIES)
ALL_CATS = sorted(CATEGORIES)
FLUIDS = ("R410A", "R134a", "R32")


def random_db(rng: random.Random) -> FactorDatabase:
    """Complete database: one factor for every category, strictly positive fab."""
    factors = []
    for i, cat in enumerate(ALL_CATS):
        source = SourceMeta(
            name=rng.choice(("base-a", "base-b", "survey", f"src{i}")),
            year=rng.randint(1995, 2024),
            kind=rng.choice(("public_base", "vendor_fiche", "peer_reviewed", "internal_measure")),
            commissioner_neutral=rng.random() < 0.5,
            peer_reviewed=rng.random() < 0.5,
        )
        factors.append(
            EmissionFactor(
                category=cat,
                fab_transport_kgco2e=rng.uniform(1.0, 2000.0),
                eol_kgco2e=rng.uniform(0.0, 50.0),
                typical_power_w=rng.choice((0.0, rng.uniform(0.5, 400.0))),
                rel_uncertainty=rng.uniform(0.0, 0.6),
                source=source,
            )
        )
    gwps = tuple(GwpEntry(f, rng.uniform(100.0, 4000.0)) for f in FLUIDS)
    return FactorDatabase(tuple(factors), gwps, rng.uniform(0.05, 0.6))


def random_asset(rng: random.Random, index: int, reporting_year: int) -> Asset:
    acquisition = rng.randint(reporting_year - 12, reporting_year + 1)
    disposal = None
    if rng.random() < 0.3:
        disposal = rng.randint(acquisition, reporting_year + 2)
    return Asset(
        id=f"a{index}",
        category=rng.choice(ASSET_CATS),
        quantity=rng.randint(1, 40),
        acquisition_year=acquisition,
        disposal_year=disposal,
        status="stored" if rng.random() < 0.2 else "in_use",
        measured_power_w=rng.uniform(0.0, 500.0) if rng.random() < 0.4 else None,
        vendor_fab_transport_kgco2e=rng.uniform(0.5, 800.0) if rng.random() < 0.2 else None,
        hour_profile_override=rng.choice((None, None, None, "work_year", "continuous")),
    )


def random_room(rng: random.Random, index: int) -> ServerRoom:
    leak = rng.choice((0.0, round(rng.uniform(0.1, 3.0), 3)))
    return ServerRoom(
        id=f"room{index}",
        refrigerant_fluid=rng.choice(FLUIDS) if leak > 0 else None,
        refrigerant_leak_kg_per_year=leak,
        ups_overhead_fraction=rng.choice((0.0, round(rng.uniform(0.01, 0.3), 3))),
        measured_room_kwh_per_year=rng.uniform(0.0, 50000.0) if rng.random() < 0.3 else None,
    )


def random_campaign(rng: random.Random, index: int) -> ComputeCampaign:
    if rng.random() < 0.5:
        return ComputeCampaign(id=f"c{index}", kwh=rng.uniform(0.0, 20000.0))
    return ComputeCampaign(
        id=f"c{index}",
        core_hours=rng.uniform(0.0, 500000.0),
        watts_per_core=rng.uniform(1.0, 20.0),
        pue=rng.uniform(1.0, 2.0),
    )


def random_fleet(
    rng: random.Random,
    max_entries: int = 20,
    with_external: bool = True,
) -> Fleet:
    """Random fleet of at most max_entries entries across all kinds."""
    reporting_year = rng.randint(2015, 2030)
    budget = rng.randint(0, max_entries)
    n_rooms = min(budget, rng.choice((0, 0, 1, 1, 2)))
    n_campaigns = min(budget - n_rooms, rng.choice((0, 0, 1)))
    n_cables = min(budget - n_rooms - n_campaigns, rng.choice((0, 0, 1, 2)))
    n_external = (
        min(budget - n_rooms - n_campaigns - n_cables, rng.choice((0, 0, 1)))
        if with_external
        else 0
    )
    n_assets = budget - n_rooms - n_campaigns - n_cables - n_external

    cable_cats = rng.sample(("cable_cat5", "cable_hdmi"), k=n_cables)
    return Fleet(
        perimeter_description="randomized test perimeter",
        reporting_year=reporting_year,
        assets=tuple(random_asset(rng, i, reporting_year) for i in range(n_assets)),
        rooms=tuple(random_room(rng, i) for i in range(n_rooms)),
        campaigns=tuple(random_campaign(rng, i) for i in range(n_campaigns)),
        external_services=tuple(
            ExternalServiceEntry(
                id=f"x{i}",
                declared_kgco2e=rng.uniform(0.0, 500.0),
                scope_label=rng.choice(("S2", "S3")),
            )
            for i in range(n_external)
        ),
        cable_bulks=tuple(
            CableBulk(cat, rng.randint(0, 200)) for cat in cable_cats
        ),
    )


#: Ids shared by every kind of entry in colliding_fleet.
SHARED_IDS = ("n0", "n1", "n2", "n3")


def colliding_asset(rng: random.Random, index: int, reporting_year: int, taken) -> Asset:
    """A random asset often acquired or disposed of in the reporting year, whose
    id is often a shared id or a cable category, never one of taken."""
    asset = random_asset(rng, index, reporting_year)
    ids = [i for i in (*SHARED_IDS, "cable_cat5", "cable_hdmi") if i not in taken]
    if ids and rng.random() < 0.5:
        asset = asset._replace(id=rng.choice(ids))
    if rng.random() < 0.3:
        asset = asset._replace(acquisition_year=reporting_year, disposal_year=None)
    if rng.random() < 0.3:
        year = min(asset.acquisition_year, reporting_year)
        asset = asset._replace(acquisition_year=year, disposal_year=reporting_year)
    return asset


def colliding_fleet(rng: random.Random, max_assets: int = 20) -> Fleet:
    """A random fleet whose rooms, campaigns and external entries take their ids
    from SHARED_IDS, and whose assets often take one of those ids or a cable
    category (see colliding_asset). Its rooms are often metered or charge a
    UPS overhead."""
    reporting_year = rng.randint(2015, 2030)
    assets: list[Asset] = []
    for i in range(rng.randint(0, max_assets)):
        assets.append(colliding_asset(rng, i, reporting_year, {a.id for a in assets}))

    def shared(n):
        return rng.sample(SHARED_IDS, rng.randint(0, n))

    return Fleet(
        perimeter_description="randomized test perimeter",
        reporting_year=reporting_year,
        assets=tuple(assets),
        rooms=tuple(
            dataclasses.replace(random_room(rng, i), id=id_) for i, id_ in enumerate(shared(2))
        ),
        campaigns=tuple(
            dataclasses.replace(random_campaign(rng, i), id=id_) for i, id_ in enumerate(shared(2))
        ),
        external_services=tuple(
            ExternalServiceEntry(id_, rng.uniform(0.0, 500.0), rng.choice(("S2", "S3")))
            for id_ in shared(2)
        ),
        cable_bulks=tuple(
            CableBulk(cat, rng.randint(0, 200))
            for cat in rng.sample(("cable_cat5", "cable_hdmi"), rng.randint(0, 2))
        ),
    )


def edge_case_fleet(rng: random.Random) -> Fleet:
    """A random fleet whose assets often sit on an edge of the engine's rules:
    acquired or disposed of in the reporting year, stored, with either hour
    override, a measured power of 0 or a vendor fabrication value. Its rooms
    are kept, or replaced by one metered room or by unmetered ones."""
    fleet = random_fleet(rng, max_entries=30)
    year = fleet.reporting_year
    bought = {"acquisition_year": year, "disposal_year": None}
    edits = (
        {}, bought, {"acquisition_year": year, "disposal_year": year},
        {"acquisition_year": year - 3, "disposal_year": year}, {"status": "stored"},
        {"hour_profile_override": "work_year"}, {"hour_profile_override": "continuous"},
        {"measured_power_w": 0.0}, {"status": "stored", "measured_power_w": 0.0},
        {**bought, "vendor_fab_transport_kgco2e": rng.uniform(0.0, 800.0)},
    )
    assets = tuple(a._replace(**rng.choice(edits)) for a in fleet.assets)
    rooms = rng.choice((
        fleet.rooms,
        (ServerRoom("metered", measured_room_kwh_per_year=rng.uniform(0.0, 5e4)),),
        tuple(dataclasses.replace(random_room(rng, i), measured_room_kwh_per_year=None)
              for i in range(rng.randint(1, 3))),
    ))
    return dataclasses.replace(fleet, assets=assets, rooms=rooms)
