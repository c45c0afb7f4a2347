"""Emission-factor reference database: category taxonomy, source ranking, parsing.

Factor values are input data, never built-in truth: the bundled sample file is
illustrative and meant to be replaced by the user's own reference set.
"""
from __future__ import annotations

import csv
import io
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

from .errors import FactorParseError, FleetParseError, MissingFactorError, UnknownFluidError

GROUPS = ("office", "telephony", "server_room", "shared", "compute", "bulk")
SCOPES = ("S1", "S2", "S3")
SOURCE_KINDS = ("public_base", "vendor_fiche", "peer_reviewed", "internal_measure")
#: An asset's statuses, and the hour profiles that may override its category's.
STATUSES = ("in_use", "stored")
HOUR_PROFILES = ("work_year", "continuous")

#: Grid carbon intensity used when a factor file carries no [grid] section
#: (French mix, kgCO2e per kWh).
DEFAULT_GRID_FACTOR = 0.119


@dataclass(frozen=True)
class EquipmentCategory:
    """One entry of the closed equipment taxonomy.

    scope_mask is fixed per category: it lists the only scopes under which
    this equipment may ever emit. hour_profile_default drives yearly usage
    hours unless an asset overrides it.
    """

    id: str
    group: str
    scope_mask: frozenset[str]
    hour_profile_default: str


def _cat(cat_id: str, group: str, scopes: str, profile: str) -> EquipmentCategory:
    return EquipmentCategory(cat_id, group, frozenset(scopes.split()), profile)


#: Closed taxonomy. Office and shared devices run office hours, server-room
#: gear and always-on network endpoints run around the clock; air conditioners
#: carry scope 1 (refrigerant leaks) and 2 only, UPS scope 2 only.
CATEGORIES: dict[str, EquipmentCategory] = {
    c.id: c
    for c in (
        _cat("desktop", "office", "S2 S3", "work_year"),
        _cat("laptop", "office", "S2 S3", "work_year"),
        _cat("tablet", "office", "S2 S3", "work_year"),
        _cat("screen", "office", "S2 S3", "work_year"),
        _cat("keyboard", "office", "S2 S3", "work_year"),
        _cat("mouse", "office", "S2 S3", "work_year"),
        _cat("office_printer", "office", "S2 S3", "work_year"),
        _cat("usb_key", "office", "S2 S3", "work_year"),
        _cat("external_hdd", "office", "S2 S3", "work_year"),
        _cat("ip_phone", "telephony", "S2 S3", "continuous"),
        _cat("mobile_phone", "telephony", "S2 S3", "work_year"),
        _cat("server", "server_room", "S2 S3", "continuous"),
        _cat("workstation_24x7", "server_room", "S2 S3", "continuous"),
        _cat("network_switch", "server_room", "S2 S3", "continuous"),
        _cat("router", "server_room", "S2 S3", "continuous"),
        _cat("storage_array", "server_room", "S2 S3", "continuous"),
        _cat("ups", "server_room", "S2", "continuous"),
        _cat("air_conditioner", "server_room", "S1 S2", "continuous"),
        _cat("videoprojector", "shared", "S2 S3", "work_year"),
        _cat("visio_system", "shared", "S2 S3", "work_year"),
        _cat("wifi_ap", "shared", "S2 S3", "continuous"),
        _cat("multifunction_copier", "shared", "S2 S3", "work_year"),
        _cat("compute_campaign", "compute", "S2", "none"),
        _cat("cable_cat5", "bulk", "S3", "none"),
        _cat("cable_hdmi", "bulk", "S3", "none"),
    )
}

#: Categories an inventory Asset may carry (everything except bulk cables and
#: compute campaigns, which are modelled as dedicated fleet entries).
ASSET_CATEGORIES = frozenset(
    c.id for c in CATEGORIES.values() if c.group not in ("bulk", "compute")
)

CABLE_CATEGORIES = frozenset(c.id for c in CATEGORIES.values() if c.group == "bulk")


def category(cat_id: str) -> EquipmentCategory:
    """Resolve a category token against the closed taxonomy."""
    try:
        return CATEGORIES[cat_id]
    except KeyError:
        raise ValueError(f"unknown category: {cat_id}") from None


#: Unicode categories Cc, Cs, Zl and Zp: control characters, surrogates and
#: the line and paragraph separators.
_UNSAFE_TEXT = re.compile("[\x00-\x1f\x7f-\x9f\ud800-\udfff\u2028\u2029]")


def check_text_field(value: str, field_name: str) -> None:
    """Reject text that cannot survive the line-oriented file formats.

    Control characters and unicode line/paragraph separators would either
    break a CSV row apart or be unwritable by the csv module.
    """
    if _UNSAFE_TEXT.search(value):
        raise ValueError(f"{field_name} must not contain control characters: {value!r}")


@dataclass(frozen=True)
class SourceMeta:
    """Provenance of one factor row, used to rank competing sources."""

    name: str
    year: int
    kind: str
    commissioner_neutral: bool
    peer_reviewed: bool

    def __post_init__(self):
        if not self.name:
            raise ValueError("source name must be non-empty")
        check_text_field(self.name, "source name")
        if self.year < 1990:
            raise ValueError(f"source year {self.year} before 1990")
        if self.kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind: {self.kind}")


@dataclass(frozen=True)
class EmissionFactor:
    """Per-unit CO2e data for one equipment category."""

    category: str
    fab_transport_kgco2e: float
    eol_kgco2e: float
    typical_power_w: float
    rel_uncertainty: float
    source: SourceMeta

    def __post_init__(self):
        category(self.category)
        for name in ("fab_transport_kgco2e", "eol_kgco2e", "typical_power_w", "rel_uncertainty"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.rel_uncertainty > 1:
            raise ValueError(f"rel_uncertainty must be in [0, 1], got {self.rel_uncertainty}")


@dataclass(frozen=True)
class GwpEntry:
    """Global warming potential of a refrigerant fluid, kgCO2e per kg leaked."""

    fluid: str
    gwp_kgco2e_per_kg: float

    def __post_init__(self):
        if not self.fluid:
            raise ValueError("fluid token must be non-empty")
        check_text_field(self.fluid, "fluid token")
        # The factor file would read its row as a comment and drop the fluid.
        if self.fluid.lstrip().startswith("#"):
            raise ValueError(f"fluid token must not start with '#': {self.fluid!r}")
        if not math.isfinite(self.gwp_kgco2e_per_kg) or self.gwp_kgco2e_per_kg <= 0:
            raise ValueError(f"gwp must be finite and > 0, got {self.gwp_kgco2e_per_kg}")


@dataclass(frozen=True)
class GridFactor:
    """Carbon intensity of purchased electricity, kgCO2e per kWh."""

    kgco2e_per_kwh: float

    def __post_init__(self):
        if not math.isfinite(self.kgco2e_per_kwh) or self.kgco2e_per_kwh <= 0:
            raise ValueError(f"grid factor must be finite and > 0, got {self.kgco2e_per_kwh}")


@dataclass(frozen=True)
class FactorDatabase:
    """Parsed factor file: factor rows, GWP table, grid carbon intensity."""

    factors: tuple[EmissionFactor, ...]
    gwp_table: tuple[GwpEntry, ...]
    default_grid_factor_kgco2e_per_kwh: float = DEFAULT_GRID_FACTOR
    #: Category -> its first factor row, the one lookup_factor returns.
    _by_category: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        by_category: dict[str, EmissionFactor] = {}
        for f in self.factors:
            by_category.setdefault(f.category, f)
        object.__setattr__(self, "_by_category", by_category)
        object.__setattr__(self, "gwp_table", tuple(self.gwp_table))
        GridFactor(self.default_grid_factor_kgco2e_per_kwh)
        seen = set()
        for entry in self.gwp_table:
            if entry.fluid in seen:
                raise ValueError(f"duplicate GWP fluid: {entry.fluid}")
            seen.add(entry.fluid)


def reliability_rank(source: SourceMeta) -> int:
    """Score a source 0..7: peer review weighs 4, neutrality 2, own measures 1."""
    return (
        4 * int(source.peer_reviewed)
        + 2 * int(source.commissioner_neutral)
        + int(source.kind == "internal_measure")
    )


def _merge_key(factor: EmissionFactor):
    # Highest rank wins, then most recent year, then lexicographically first
    # name; remaining fields only break ties between otherwise identical
    # sources so the winner never depends on input order.
    s = factor.source
    return (
        -reliability_rank(s),
        -s.year,
        s.name,
        s.kind,
        factor.fab_transport_kgco2e,
        factor.eol_kgco2e,
        factor.typical_power_w,
        factor.rel_uncertainty,
    )


def merge_factors(db: FactorDatabase) -> FactorDatabase:
    """Keep exactly one factor per category: the most reliable source."""
    by_category: dict[str, list[EmissionFactor]] = {}
    for f in db.factors:
        by_category.setdefault(f.category, []).append(f)
    winners = [
        sorted(candidates, key=_merge_key)[0]
        for _, candidates in sorted(by_category.items())
    ]
    return FactorDatabase(
        tuple(winners), db.gwp_table, db.default_grid_factor_kgco2e_per_kwh
    )


def lookup_factor(db: FactorDatabase, cat_id: str) -> EmissionFactor:
    """Return the factor for a category; the database must be merged first."""
    try:
        return db._by_category[cat_id]
    except KeyError:
        raise MissingFactorError(cat_id) from None


def gwp_value(gwp_table: tuple[GwpEntry, ...], fluid: str) -> float:
    for entry in gwp_table:
        if entry.fluid == fluid:
            return entry.gwp_kgco2e_per_kg
    raise UnknownFluidError(fluid)


def splits_plainly(line: str) -> bool:
    """Whether splitting a line on its commas gives what csv.reader reads of it:
    the line holds no '"' and no NUL and fits the csv field size limit."""
    return '"' not in line and "\0" not in line and len(line) <= csv.field_size_limit()


#: Characters text_lines splits at a time: a few blocks of fleet-CSV lines
#: (the fleet parse takes as long with 4 KiB as with 128 KiB).
_SLICE_CHARS = 1 << 15


def text_lines(text: str) -> Iterator[str]:
    """The lines of text.splitlines(), split a slice of about _SLICE_CHARS
    characters at a time, each cut just after a '\n' (which never splits a
    '\r\n' pair), so that the lines of a long text are never all held at once."""
    def slices(start=0):
        while start < len(text):
            end = text.find("\n", start + _SLICE_CHARS) + 1 or len(text)
            yield text[start:end]
            start = end
    return chain.from_iterable(map(str.splitlines, slices()))


def csv_rows(text: str, error: type[FactorParseError | FleetParseError] = FleetParseError):
    """Yield (line number, fields as csv.reader reads them) for every line that is
    not blank or a '#' comment; a malformed line raises error(message, line number)."""
    for rownum, raw in enumerate(text_lines(text), start=1):
        head = raw.lstrip()
        if not head or head[0] == "#":
            continue
        try:
            yield rownum, next(csv.reader([raw]))
        except csv.Error as exc:
            raise error(f"malformed CSV: {exc}", rownum) from None


def csv_text(rows) -> str:
    """The rows as csv.writer writes them, one line each: a cell that needs it is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


_GRID_KEY = "grid_factor_kgco2e_per_kwh"
#: Converters of the cells that hold one of a few words; like int and float,
#: they raise on any other text.
_bool = {"true": True, "false": False}.__getitem__
_grid_key = {_GRID_KEY: _GRID_KEY}.__getitem__
#: What each converter that can fail accepts, for error messages.
EXPECTED = {float: "a number", int: "an integer", _bool: "true or false", _grid_key: _GRID_KEY}


#: The single definition of the factor file, read by load_factor_db and
#: render_factor_file: per section, in render order, (its columns as (name,
#: converter), the object one converted row builds, the cells that object
#: renders back to, and what the first cell names if it may appear only once).
_SECTIONS = {
    "factors": (
        (("category", str), ("fab_transport_kgco2e", float), ("eol_kgco2e", float),
         ("typical_power_w", float), ("rel_uncertainty", float), ("source_name", str),
         ("source_year", int), ("source_kind", str), ("commissioner_neutral", _bool),
         ("peer_reviewed", _bool)),
        lambda *cells: EmissionFactor(*cells[:5], SourceMeta(*cells[5:])),
        lambda f: (
            f.category, f.fab_transport_kgco2e, f.eol_kgco2e, f.typical_power_w, f.rel_uncertainty,
            f.source.name, f.source.year, f.source.kind,
            str(f.source.commissioner_neutral).lower(), str(f.source.peer_reviewed).lower(),
        ),
        None,
    ),
    "gwp": (
        (("fluid", str), ("gwp", float)),
        GwpEntry,
        attrgetter("fluid", "gwp_kgco2e_per_kg"),
        "GWP fluid",
    ),
    "grid": (
        (("key", _grid_key), (_GRID_KEY, float)),
        lambda _key, value: GridFactor(value).kgco2e_per_kwh,
        lambda grid: (_GRID_KEY, grid),
        "grid factor row",
    ),
}


def load_factor_db(text: str) -> FactorDatabase:
    """Parse a factor file.

    The format is line-oriented UTF-8: '#' comments, blank lines ignored, and
    three sections introduced by the one-cell rows '[factors]', '[gwp]' and
    '[grid]'; _SECTIONS defines the rows of each. A missing [grid] section
    falls back to DEFAULT_GRID_FACTOR.
    """
    items: dict[str, list] = {name: [] for name in _SECTIONS}
    seen: set[tuple[str, str]] = set()
    name = None
    for lineno, fields in csv_rows(text, FactorParseError):
        head = fields[0].strip()
        try:
            if len(fields) == 1 and head.startswith("[") and head.endswith("]"):
                name = head[1:-1]
                if name not in _SECTIONS:
                    raise ValueError(f"unknown section [{name}]")
                continue
            if name is None:
                raise ValueError("data before any section header")
            columns, build, _, unique = _SECTIONS[name]
            if unique and (name, fields[0]) in seen:
                raise ValueError(f"duplicate {unique}: {fields[0]}")
            seen.add((name, fields[0]))
            if len(fields) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(fields)}")
            values = []
            for (column, convert), cell in zip(columns, fields):
                try:
                    values.append(convert(cell))
                except (KeyError, ValueError):
                    raise ValueError(f"field {column}: not {EXPECTED[convert]}: {cell!r}") from None
            items[name].append(build(*values))
        except ValueError as exc:
            raise FactorParseError(str(exc), line=lineno) from None
    return FactorDatabase(tuple(items["factors"]), tuple(items["gwp"]), *items["grid"])


def factor_db_identity(name: str, text: str) -> str:
    """Stable identity of a factor file, embedded in reports so a changed
    factor set cannot masquerade as a fleet improvement."""
    import hashlib  # loaded only by the commands that read a factor file

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return f"{name}:sha256:{digest}"


def render_factor_file(db: FactorDatabase) -> str:
    """Serialize a database back to factor-file text; load_factor_db reads it back equal."""
    grid = (db.default_grid_factor_kgco2e_per_kwh,)
    items = {"factors": db.factors, "gwp": db.gwp_table, "grid": grid}
    return csv_text(chain.from_iterable(  # each section: its one-cell '[name]' row, then its rows
        [(f"[{name}]",), *map(cells, items[name])] for name, (_, _, cells, _) in _SECTIONS.items()))
