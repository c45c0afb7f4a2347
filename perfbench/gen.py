"""Seeded input generators for the benchmark workloads.

Nothing here imports ecodiag or the test suite: a test edit or a change to the
program's data model can never silently change a workload. Each generator
returns the file text the CLI reads together with plain records that carry
the attribute names `tests/oracle.py` reads, so the oracle can re-derive the
expected totals without going through the program's parsers.
"""
from __future__ import annotations

import csv
import io
import random
from types import SimpleNamespace
from typing import NamedTuple

PERIMETER = "Benchmark perimeter: seeded synthetic fleet, one site, server rooms included"

FLEET_HEADER = (
    "kind,id,category,quantity,acquisition_year,disposal_year,status,"
    "measured_power_w,vendor_fab_kgco2e,extra"
).split(",")


class Asset(NamedTuple):
    id: str
    category: str
    quantity: int
    acquisition_year: int
    disposal_year: int | None = None
    status: str = "in_use"
    measured_power_w: float | None = None
    vendor_fab_transport_kgco2e: float | None = None
    hour_profile_override: str | None = None


class Room(NamedTuple):
    id: str
    refrigerant_fluid: str | None
    refrigerant_leak_kg_per_year: float
    ups_overhead_fraction: float
    measured_room_kwh_per_year: float | None = None


class Campaign(NamedTuple):
    id: str
    kwh: float | None
    core_hours: float | None
    watts_per_core: float | None
    pue: float


class External(NamedTuple):
    id: str
    declared_kgco2e: float
    scope_label: str
    note: str


class Cable(NamedTuple):
    category: str
    count_acquired_this_year: int


class Factor(NamedTuple):
    category: str
    fab_transport_kgco2e: float
    eol_kgco2e: float
    typical_power_w: float
    rel_uncertainty: float
    source: SimpleNamespace


def fleet(year, assets, rooms=(), campaigns=(), externals=(), cables=()):
    """A fleet record with the attributes the oracle reads."""
    return SimpleNamespace(
        reporting_year=year,
        perimeter_description=PERIMETER,
        assets=tuple(assets),
        rooms=tuple(rooms),
        campaigns=tuple(campaigns),
        external_services=tuple(externals),
        cable_bulks=tuple(cables),
    )


# ---------------------------------------------------------------------------
# Factor file
# ---------------------------------------------------------------------------

#: category -> (fab+transport kg, end-of-life kg, typical power W, rel unc).
#: Orders of magnitude follow the bundled sample factor set; each seed scales
#: every value by its own random factor.
BASE_FACTORS = {
    "desktop": (330.0, 4.0, 120.0, 0.35),
    "laptop": (156.0, 2.5, 30.0, 0.30),
    "tablet": (90.0, 1.5, 10.0, 0.35),
    "screen": (250.0, 3.0, 25.0, 0.30),
    "keyboard": (15.0, 0.4, 0.5, 0.40),
    "mouse": (10.0, 0.3, 0.3, 0.40),
    "office_printer": (120.0, 2.0, 15.0, 0.40),
    "usb_key": (6.0, 0.1, 0.2, 0.50),
    "external_hdd": (25.0, 0.5, 5.0, 0.40),
    "ip_phone": (40.0, 0.8, 3.0, 0.40),
    "mobile_phone": (55.0, 0.8, 2.0, 0.35),
    "server": (1100.0, 12.0, 250.0, 0.40),
    "workstation_24x7": (600.0, 6.0, 180.0, 0.40),
    "network_switch": (180.0, 3.0, 60.0, 0.40),
    "router": (150.0, 2.5, 40.0, 0.40),
    "storage_array": (900.0, 10.0, 300.0, 0.45),
    "ups": (350.0, 8.0, 0.0, 0.45),
    "air_conditioner": (700.0, 9.0, 2000.0, 0.45),
    "videoprojector": (94.0, 1.2, 220.0, 0.35),
    "visio_system": (300.0, 4.0, 80.0, 0.40),
    "wifi_ap": (50.0, 1.0, 8.0, 0.40),
    "multifunction_copier": (600.0, 8.0, 90.0, 0.35),
    "cable_cat5": (1.2, 0.05, 0.0, 0.50),
    "cable_hdmi": (2.4, 0.08, 0.0, 0.50),
}

GWP = (("R410A", 2088.0), ("R134a", 1430.0), ("R32", 675.0), ("R407C", 1774.0))

#: Competing sources. The winner is peer reviewed and commissioner-neutral
#: (rank 6); every loser ranks 2 or less, so the merge outcome is known by
#: construction and the oracle never re-implements the ranking.
WINNER = ("bench-survey", 2021, "peer_reviewed", "true", "true")
LOSERS = (
    ("bench-vendor", 2022, "vendor_fiche", "false", "false"),
    ("bench-base", 2019, "public_base", "true", "false"),
    ("bench-old", 2012, "public_base", "true", "false"),
)


def factor_set(rng: random.Random) -> tuple[str, SimpleNamespace, dict]:
    """Factor file text with 2-4 candidate rows per category, the merged
    database the oracle uses, and the base power per category."""
    rows = []
    winners = []
    power = {}
    for cat, (fab, eol, watts, unc) in BASE_FACTORS.items():
        scale = rng.uniform(0.8, 1.2)
        values = (round(fab * scale, 2), round(eol * scale, 3), round(watts * scale, 2), unc)
        source = SimpleNamespace(name=WINNER[0])
        winners.append(Factor(cat, *values, source))
        power[cat] = values[2]
        candidates = [(values, WINNER)]
        for loser in rng.sample(LOSERS, rng.randint(1, 3)):
            other = tuple(round(v * rng.uniform(0.5, 1.5), 3) for v in values[:3])
            candidates.append(((*other, round(rng.uniform(0.1, 0.6), 2)), loser))
        rng.shuffle(candidates)
        rows += [(cat, *vals, *src) for vals, src in candidates]
    grid = round(rng.uniform(0.05, 0.4), 4)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write("# Seeded benchmark factor file.\n[factors]\n")
    writer.writerows(rows)
    buf.write("[gwp]\n")
    writer.writerows(GWP)
    buf.write("[grid]\n")
    writer.writerow(("grid_factor_kgco2e_per_kwh", grid))
    db = SimpleNamespace(
        factors=tuple(winners),
        gwp_table=tuple(SimpleNamespace(fluid=f, gwp_kgco2e_per_kg=g) for f, g in GWP),
        grid=grid,
    )
    return buf.getvalue(), db, power


def engine_config(db: SimpleNamespace) -> SimpleNamespace:
    """The computation constants the CLI derives from a factor file."""
    return SimpleNamespace(
        grid=SimpleNamespace(kgco2e_per_kwh=db.grid),
        work_year_hours=1607.0,
        continuous_hours=8760.0,
    )


# ---------------------------------------------------------------------------
# Native fleet CSV
# ---------------------------------------------------------------------------

#: Category shares in percent. The server-room group (server down to
#: air_conditioner) holds 12% of the rows: that is the room pool every
#: unmetered UPS room rescans. Only that group share is specified; the split
#: among the categories is an assumption.
FLEET_MIX = {
    "desktop": 14, "laptop": 16, "tablet": 3, "screen": 18, "keyboard": 8,
    "mouse": 8, "office_printer": 3, "usb_key": 2, "external_hdd": 2,
    "ip_phone": 6, "mobile_phone": 4,
    "videoprojector": 1.5, "visio_system": 0.5, "wifi_ap": 1.5, "multifunction_copier": 0.5,
    "server": 6, "workstation_24x7": 1.5, "network_switch": 2.5, "router": 0.5,
    "storage_array": 0.5, "ups": 0.5, "air_conditioner": 0.5,
}


def random_asset(rng: random.Random, asset_id: str, cat: str, year: int, power: dict) -> Asset:
    """One asset row: ~8% bought this year, ~5% disposed this year, ~20%
    stored, ~40% with measured power, ~20% with a vendor fabrication figure,
    ages up to 12 years so that age warnings occur. The quantity split (75%
    single units, else 2-40) and the 5% of hour-profile overrides are
    assumptions."""
    acquired = year if rng.random() < 0.08 else year - rng.randint(1, 12)
    base_power = power[cat] or 50.0
    return Asset(
        id=asset_id,
        category=cat,
        quantity=1 if rng.random() < 0.75 else rng.randint(2, 40),
        acquisition_year=acquired,
        disposal_year=year if rng.random() < 0.05 else None,
        status="stored" if rng.random() < 0.2 else "in_use",
        measured_power_w=round(base_power * rng.uniform(0.5, 1.5), 1) if rng.random() < 0.4 else None,
        vendor_fab_transport_kgco2e=(
            round(BASE_FACTORS[cat][0] * rng.uniform(0.6, 1.2), 2) if rng.random() < 0.2 else None
        ),
        hour_profile_override=rng.choice(("work_year", "continuous")) if rng.random() < 0.05 else None,
    )


def native_fleet(rng: random.Random, year: int, n_assets: int, n_rooms: int, power: dict):
    """A fleet of n_assets asset rows plus n_rooms unmetered UPS-backed rooms,
    one compute campaign, one declared external service and two cable bulks."""
    cats = rng.choices(list(FLEET_MIX), weights=list(FLEET_MIX.values()), k=n_assets)
    assets = [random_asset(rng, f"a{i:06d}", cat, year, power) for i, cat in enumerate(cats)]
    rooms = []
    for i in range(n_rooms):
        leak = round(rng.uniform(0.1, 2.0), 2) if rng.random() < 0.5 else 0.0
        rooms.append(
            Room(
                id=f"room{i + 1:02d}",
                refrigerant_fluid=rng.choice(GWP)[0] if leak else None,
                refrigerant_leak_kg_per_year=leak,
                ups_overhead_fraction=round(rng.uniform(0.02, 0.15), 3),
            )
        )
    campaigns = [Campaign("hpc-campaign", None, round(rng.uniform(5e4, 5e5), 1),
                          round(rng.uniform(5.0, 15.0), 2), round(rng.uniform(1.1, 1.8), 2))]
    externals = [External("mail-hosting", round(rng.uniform(50.0, 500.0), 2), "S3",
                          "provider environmental statement")]
    cables = [Cable("cable_cat5", rng.randint(50, 500)), Cable("cable_hdmi", rng.randint(10, 100))]
    return fleet(year, assets, rooms, campaigns, externals, cables)


def _opt(value) -> str:
    return "" if value is None else repr(value)


def _extra(pairs) -> str:
    return ";".join(f"{k}={v!r}" if isinstance(v, float) else f"{k}={v}"
                    for k, v in pairs if v not in (None, "", 0.0))


def asset_fields(a: Asset) -> list[str]:
    """The nine fleet-CSV columns after 'kind' for one asset."""
    return [
        a.id, a.category, str(a.quantity), str(a.acquisition_year), _opt(a.disposal_year),
        a.status, _opt(a.measured_power_w), _opt(a.vendor_fab_transport_kgco2e),
        _extra([("hours", a.hour_profile_override)]),
    ]


def fleet_csv(f) -> str:
    """Native fleet CSV text for a generated fleet."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FLEET_HEADER)
    writer.writerows(["asset", *asset_fields(a)] for a in f.assets)
    empty = [""] * 7
    for r in f.rooms:
        extra = _extra([("fluid", r.refrigerant_fluid), ("leak_kg", r.refrigerant_leak_kg_per_year),
                        ("ups_overhead", r.ups_overhead_fraction)])
        writer.writerow(["room", r.id, *empty, extra])
    for c in f.campaigns:
        extra = _extra([("core_hours", c.core_hours), ("watts_per_core", c.watts_per_core),
                        ("pue", c.pue)])
        writer.writerow(["campaign", c.id, *empty, extra])
    for e in f.external_services:
        extra = _extra([("kgco2e", e.declared_kgco2e), ("scope", e.scope_label), ("note", e.note)])
        writer.writerow(["external", e.id, *empty, extra])
    for b in f.cable_bulks:
        writer.writerow(["cable", "", b.category, b.count_acquired_this_year, *[""] * 6])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Scenario actions
# ---------------------------------------------------------------------------

def scenario(rng: random.Random, base, n_actions: int, power: dict) -> tuple[str, object]:
    """An actions file of removals (50%), replacements (30%) and additions
    (20%) on distinct existing assets, and the variant fleet it should yield,
    built here directly rather than through the program's apply_scenario.
    The 50/30/20 mix is an assumption; only the three kinds are specified."""
    year = base.reporting_year
    n_remove, n_replace = n_actions // 2, n_actions * 3 // 10
    n_add = n_actions - n_remove - n_replace
    targets = rng.sample(range(len(base.assets)), n_remove + n_replace)
    actions = [("remove", base.assets[i], None) for i in targets[:n_remove]]
    for k, i in enumerate(targets[n_remove:]):
        old = base.assets[i]
        new = random_asset(rng, f"new{k:04d}", old.category, year, power)
        actions.append(("replace", old, new._replace(acquisition_year=year, disposal_year=None)))
    cats = rng.choices(list(FLEET_MIX), weights=list(FLEET_MIX.values()), k=n_add)
    for k, cat in enumerate(cats):
        new = random_asset(rng, f"add{k:04d}", cat, year, power)
        actions.append(("add", None, new._replace(acquisition_year=year, disposal_year=None)))
    rng.shuffle(actions)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["op", "target_id", *FLEET_HEADER[1:]])
    for op, old, new in actions:
        target = old.id if old else ""
        writer.writerow([op, target] if new is None else [op, target, *asset_fields(new)])
    gone = {old.id for _, old, _ in actions if old is not None}
    added = [new for _, _, new in actions if new is not None]
    variant = fleet(year, [a for a in base.assets if a.id not in gone] + added, base.rooms,
                    base.campaigns, base.external_services, base.cable_bulks)
    return buf.getvalue(), variant


# ---------------------------------------------------------------------------
# GLPI exports
# ---------------------------------------------------------------------------

#: The mapping rules every GLPI run uses: the bundled sample rule set, kept
#: here so that editing the samples cannot change the workload.
MAPPING_RULES = """\
# GLPI mapping rules: match_field,pattern,target_category
type,laptop,laptop
type,notebook,laptop
type,desktop,desktop
type,workstation,desktop
type,server,server
type,switch,network_switch
type,router,router
type,screen,screen
type,monitor,screen
type,printer,office_printer
type,copier,multifunction_copier
type,phone,ip_phone
type,smartphone,mobile_phone
type,tablet,tablet
type,projector,videoprojector
model,latitude,laptop
model,thinkpad,laptop
model,optiplex,desktop
name,wifi*,wifi_ap
"""

#: category -> (name prefix, (type, model) spellings). Every spelling is one
#: that the first matching rule above maps to the category; "Computer"
#: records are claimed by a model rule, access points by the name glob. None
#: maps to mobile_phone: the 'phone' type rule wins first.
GLPI_SPELLINGS = {
    "laptop": ("pc", (("Laptop", "EliteBook 840"), ("Notebook", "XPS 13"),
                      ("Computer", "Latitude 5490"), ("Computer", "ThinkPad T480"))),
    "desktop": ("pc", (("Desktop", "ProDesk 400"), ("Workstation", "Precision 3630"),
                       ("Computer", "OptiPlex 7050"))),
    "screen": ("scr", (("Screen", "P2419H"), ("Monitor", "E2216H"))),
    "ip_phone": ("tel", (("Phone", "Yealink T46"), ("IP phone", "Cisco 7841"))),
    "tablet": ("tab", (("Tablet", "iPad 9"),)),
    "office_printer": ("prn", (("Printer", "LaserJet M404"),)),
    "multifunction_copier": ("mfp", (("Copier", "imageRUNNER C3520"),)),
    "videoprojector": ("vp", (("Projector", "EB-X41"), ("Videoprojector", "MW560"))),
    "wifi_ap": ("wifi", (("Access point", "UniFi AP AC"),)),
    "server": ("srv", (("Server", "PowerEdge R740"), ("Rack server", "ProLiant DL380"))),
    "network_switch": ("sw", (("Switch", "Catalyst 2960"), ("Network switch", "Aruba 2930F"))),
    "router": ("rtr", (("Router", "ISR 4331"),)),
}
#: GLPI category shares: the native fleet's, restricted to what the rules map to.
GLPI_CATEGORIES = list(GLPI_SPELLINGS)
GLPI_WEIGHTS = [FLEET_MIX[c] for c in GLPI_CATEGORIES]
GLPI_HEADER = ("name", "type", "model", "serial", "purchase_date", "status", "location")
IN_USE_LABELS = ("En service", "Used", "In use")
STORED_LABELS = ("Stock", "Storage", "Réserve")
#: Labels outside the alias table: imported as in use, with a warning.
UNKNOWN_LABELS = ("Repair", "Loaned")


class GlpiRecord(NamedTuple):
    fields: tuple[str, ...]
    asset: Asset | None  # None: no rule matches or the date is unparsable


def glpi_record(rng: random.Random, index: int, year: int, bought: int) -> GlpiRecord:
    """One export row; the category is picked first, then a spelling of it.

    About 2% of rows match no rule, 1% have an unparsable date and 2% carry
    a status outside the alias table. These rates are assumptions, not
    measured on a real export.
    """
    serial = f"SN{rng.randrange(16 ** 8):08X}"
    location = rng.choice(("Building A", "Building B", "Annex"))
    if rng.random() < 0.02:
        name = f"dev-{index:06d}"
        row = (name, "Other", "Badge reader", serial, f"{bought}-01-15", "En service", location)
        return GlpiRecord(row, None)
    cat = rng.choices(GLPI_CATEGORIES, weights=GLPI_WEIGHTS)[0]
    prefix, spellings = GLPI_SPELLINGS[cat]
    kind, model = rng.choice(spellings)
    name = f"{prefix}-{index:06d}"
    roll = rng.random()
    if roll < 0.80:
        label, status = rng.choice(IN_USE_LABELS), "in_use"
    elif roll < 0.98:
        label, status = rng.choice(STORED_LABELS), "stored"
    else:
        label, status = rng.choice(UNKNOWN_LABELS), "in_use"
    month, day = rng.randint(1, 12), rng.randint(1, 28)
    roll = rng.random()
    if roll < 0.01:
        return GlpiRecord((name, kind, model, serial, "unknown", label, location), None)
    if roll < 0.5:
        date = f"{bought}-{month:02d}-{day:02d}"
    elif roll < 0.8:
        date = f"{day:02d}/{month:02d}/{bought}"
    else:
        date = str(bought)
    asset = Asset(name, cat, 1, bought, status=status)
    return GlpiRecord((name, kind, model, serial, date, label, location), asset)


def glpi_years(rng: random.Random, year: int, n_records: int):
    """Exports for `year` and `year + 1` with the fleets they should map to.

    The second export drops 8% of the first one's records (disposed) and adds
    as many bought in `year + 1`, as a yearly re-export of a live fleet does.
    The 8% churn is an assumption, not measured on a real export.
    """
    def bought_before(y):
        return y if rng.random() < 0.08 else y - rng.randint(1, 12)

    first = [glpi_record(rng, i, year, bought_before(year)) for i in range(n_records)]
    churn = n_records * 8 // 100
    dropped = set(rng.sample(range(n_records), churn))
    second = [r for i, r in enumerate(first) if i not in dropped]
    second += [glpi_record(rng, n_records + k, year + 1, year + 1) for k in range(churn)]
    out = []
    for y, records in ((year, first), (year + 1, second)):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(GLPI_HEADER)
        writer.writerows(r.fields for r in records)
        out.append((buf.getvalue(), fleet(y, [r.asset for r in records if r.asset is not None])))
    return out
