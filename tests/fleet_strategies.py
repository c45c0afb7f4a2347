"""Hypothesis strategies for domain objects used across the property tests."""
from __future__ import annotations

import json

from hypothesis import strategies as st

from ecodiag.factors import (
    ASSET_CATEGORIES,
    CATEGORIES,
    SOURCE_KINDS,
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

# Free-text fields reject control characters and line separators (they could
# not survive the line-oriented file formats), so mirror that here.
_name_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")),
    min_size=1,
    max_size=20,
)
_id_text = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_. ", min_size=1, max_size=12
).filter(lambda s: s.strip())
_fluid_text = st.text(alphabet="ABCDEFR0123456789", min_size=1, max_size=8)

_nonneg = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def source_metas() -> st.SearchStrategy[SourceMeta]:
    return st.builds(
        SourceMeta,
        name=_name_text,
        year=st.integers(min_value=1990, max_value=2100),
        kind=st.sampled_from(SOURCE_KINDS),
        commissioner_neutral=st.booleans(),
        peer_reviewed=st.booleans(),
    )


def emission_factors(categories=None) -> st.SearchStrategy[EmissionFactor]:
    cats = st.sampled_from(sorted(categories) if categories else ALL_CATS)
    return st.builds(
        EmissionFactor,
        category=cats,
        fab_transport_kgco2e=_nonneg,
        eol_kgco2e=_nonneg,
        typical_power_w=st.floats(min_value=0.0, max_value=5000.0, allow_nan=False),
        rel_uncertainty=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        source=source_metas(),
    )


@st.composite
def factor_databases(draw) -> FactorDatabase:
    factors = draw(st.lists(emission_factors(), min_size=0, max_size=12))
    fluids = draw(st.lists(_fluid_text, min_size=0, max_size=4, unique=True))
    gwps = tuple(
        GwpEntry(f, draw(st.floats(min_value=1.0, max_value=10000.0, allow_nan=False)))
        for f in fluids
    )
    grid = draw(st.floats(min_value=1e-3, max_value=2.0, allow_nan=False))
    return FactorDatabase(tuple(factors), gwps, grid)


@st.composite
def assets(draw, index: int = 0) -> Asset:
    acquisition = draw(st.integers(min_value=1990, max_value=2050))
    disposal = draw(
        st.none() | st.integers(min_value=acquisition, max_value=2060)
    )
    return Asset(
        id=f"a{index}-" + draw(_id_text),
        category=draw(st.sampled_from(ASSET_CATS)),
        quantity=draw(st.integers(min_value=1, max_value=10000)),
        acquisition_year=acquisition,
        disposal_year=disposal,
        status=draw(st.sampled_from(("in_use", "stored"))),
        measured_power_w=draw(st.none() | _nonneg),
        vendor_fab_transport_kgco2e=draw(st.none() | _nonneg),
        hour_profile_override=draw(st.sampled_from((None, "work_year", "continuous"))),
    )


@st.composite
def server_rooms(draw, index: int = 0) -> ServerRoom:
    leak = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    fluid = draw(_fluid_text) if leak > 0 else draw(st.none() | _fluid_text)
    return ServerRoom(
        id=f"r{index}-" + draw(_id_text),
        refrigerant_fluid=fluid,
        refrigerant_leak_kg_per_year=leak,
        ups_overhead_fraction=draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
        measured_room_kwh_per_year=draw(st.none() | _nonneg),
    )


@st.composite
def campaigns(draw, index: int = 0) -> ComputeCampaign:
    if draw(st.booleans()):
        return ComputeCampaign(id=f"c{index}-" + draw(_id_text), kwh=draw(_nonneg))
    return ComputeCampaign(
        id=f"c{index}-" + draw(_id_text),
        core_hours=draw(_nonneg),
        watts_per_core=draw(_nonneg),
        pue=draw(st.floats(min_value=1.0, max_value=3.0, allow_nan=False)),
    )


@st.composite
def fleets(draw) -> Fleet:
    n_assets = draw(st.integers(min_value=0, max_value=6))
    n_rooms = draw(st.integers(min_value=0, max_value=2))
    n_campaigns = draw(st.integers(min_value=0, max_value=2))
    n_external = draw(st.integers(min_value=0, max_value=2))
    cable_cats = draw(
        st.lists(st.sampled_from(("cable_cat5", "cable_hdmi")), max_size=2, unique=True)
    )
    externals = tuple(
        ExternalServiceEntry(
            id=f"x{i}-" + draw(_id_text),
            declared_kgco2e=draw(_nonneg),
            scope_label=draw(st.sampled_from(("S2", "S3"))),
            note=draw(
                st.text(alphabet="abcdefghij 0123456789", max_size=15).filter(
                    lambda s: not s or s.strip()
                )
            ),
        )
        for i in range(n_external)
    )
    return Fleet(
        perimeter_description=draw(_id_text),
        reporting_year=draw(st.integers(min_value=2000, max_value=2050)),
        assets=tuple(draw(assets(index=i)) for i in range(n_assets)),
        rooms=tuple(draw(server_rooms(index=i)) for i in range(n_rooms)),
        campaigns=tuple(draw(campaigns(index=i)) for i in range(n_campaigns)),
        external_services=externals,
        cable_bulks=tuple(
            CableBulk(cat, draw(st.integers(min_value=0, max_value=10000)))
            for cat in cable_cats
        ),
    )


# ---------------------------------------------------------------------------
# Boundary fuzzing: text for the input files, from plain noise to rows that
# come close to valid ones.
# ---------------------------------------------------------------------------

_WORDS = (
    "", " ", "#", '"', ";", "=", "\r", "\x00", "\x01", "\x85", "\u2028", "é",
    "asset", "room", "campaign", "external", "cable", "kind", "op",
    "remove", "add", "replace", "pc", "pc#2", "srv-old",
    "laptop", "server", "cable_cat5", "Laptop Dell", "Mainframe",
    "in_use", "stored", "en service", "stock",
    "0", "1", "-1", "2019", "1.5", "nan", "inf", "1e400", "9" * 30, "2018-01-01", "14/05/2017",
    "hours=continuous", "fluid=R410A", "leak_kg=0.5", "ups_overhead=2", "room_kwh=x",
    "kwh=5", "pue=0.5", "kgco2e=1", "scope=S2", "note=a=b", "speed=9",
)

_rows = st.lists(
    st.lists(st.sampled_from(_WORDS), max_size=11).map(",".join), max_size=5
).map("\n".join)


def boundary_texts(*headers: str) -> st.SearchStrategy[str]:
    """Any text, or rows of format words under one of the headers or none."""
    heads = st.sampled_from(("", *(h + "\n" for h in headers)))
    return st.text(max_size=60) | st.builds(lambda head, body: head + body, heads, _rows)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def report_json_texts(draw, report: dict) -> str:
    """Any text, or a valid report JSON with one key dropped or given any value."""
    if draw(st.booleans()):
        return draw(st.text(max_size=60))
    data = json.loads(json.dumps(report))
    holder = data
    key = draw(st.sampled_from(sorted(data)))
    if isinstance(data[key], dict) and draw(st.booleans()):
        holder, key = data[key], draw(st.sampled_from(sorted(data[key])))
    if draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(_json_values)
    return json.dumps(data)
