"""Emission-factor reference database: category taxonomy, source ranking, parsing.

Factor values are input data, never built-in truth: the bundled sample file is
illustrative and meant to be replaced by the user's own reference set.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass, field

from .errors import FactorParseError, MissingFactorError, UnknownFluidError

GROUPS = ("office", "telephony", "server_room", "shared", "compute", "bulk")
SCOPES = ("S1", "S2", "S3")
SOURCE_KINDS = ("public_base", "vendor_fiche", "peer_reviewed", "internal_measure")

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
        if not math.isfinite(self.gwp_kgco2e_per_kg) or self.gwp_kgco2e_per_kg <= 0:
            raise ValueError(f"gwp must be finite and > 0, got {self.gwp_kgco2e_per_kg}")


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
        grid = self.default_grid_factor_kgco2e_per_kwh
        if not math.isfinite(grid) or grid <= 0:
            raise ValueError(f"grid factor must be finite and > 0, got {grid}")
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


_FACTOR_COLUMNS = (
    "category,fab_transport_kgco2e,eol_kgco2e,typical_power_w,rel_uncertainty,"
    "source_name,source_year,source_kind,commissioner_neutral,peer_reviewed"
).split(",")
_GRID_KEY = "grid_factor_kgco2e_per_kwh"


def _parse_bool(text: str, lineno: int) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise FactorParseError(f"expected true|false, got {text!r}", line=lineno)


def _parse_num(text: str, field: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise FactorParseError(f"field {field}: not a number: {text!r}", line=lineno) from None


def load_factor_db(text: str) -> FactorDatabase:
    """Parse a factor file.

    The format is line-oriented UTF-8: '#' comments, blank lines ignored, and
    three sections introduced by '[factors]', '[gwp]' and '[grid]' headers.
    A missing [grid] section falls back to DEFAULT_GRID_FACTOR.
    """
    factors: list[EmissionFactor] = []
    gwps: list[GwpEntry] = []
    seen_fluids: set[str] = set()
    grid: float | None = None
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1]
            if name not in ("factors", "gwp", "grid"):
                raise FactorParseError(f"unknown section [{name}]", line=lineno)
            section = name
            continue
        if section is None:
            raise FactorParseError("data before any section header", line=lineno)

        try:
            fields = next(csv.reader([raw]))
        except csv.Error as exc:
            raise FactorParseError(f"malformed CSV: {exc}", line=lineno) from None
        if section == "factors":
            if len(fields) != len(_FACTOR_COLUMNS):
                raise FactorParseError(
                    f"expected {len(_FACTOR_COLUMNS)} fields, got {len(fields)}",
                    line=lineno,
                )
            cat_id = fields[0]
            if cat_id not in CATEGORIES:
                raise FactorParseError(f"unknown category: {cat_id}", line=lineno)
            try:
                year = int(fields[6])
            except ValueError:
                raise FactorParseError(
                    f"field source_year: not an integer: {fields[6]!r}", line=lineno
                ) from None
            try:
                source = SourceMeta(
                    name=fields[5],
                    year=year,
                    kind=fields[7],
                    commissioner_neutral=_parse_bool(fields[8], lineno),
                    peer_reviewed=_parse_bool(fields[9], lineno),
                )
                factors.append(
                    EmissionFactor(
                        category=cat_id,
                        fab_transport_kgco2e=_parse_num(fields[1], _FACTOR_COLUMNS[1], lineno),
                        eol_kgco2e=_parse_num(fields[2], _FACTOR_COLUMNS[2], lineno),
                        typical_power_w=_parse_num(fields[3], _FACTOR_COLUMNS[3], lineno),
                        rel_uncertainty=_parse_num(fields[4], _FACTOR_COLUMNS[4], lineno),
                        source=source,
                    )
                )
            except ValueError as exc:
                raise FactorParseError(str(exc), line=lineno) from None
        elif section == "gwp":
            if len(fields) != 2:
                raise FactorParseError(f"expected 2 fields, got {len(fields)}", line=lineno)
            if fields[0] in seen_fluids:
                raise FactorParseError(f"duplicate GWP fluid: {fields[0]}", line=lineno)
            seen_fluids.add(fields[0])
            try:
                gwps.append(GwpEntry(fields[0], _parse_num(fields[1], "gwp", lineno)))
            except ValueError as exc:
                raise FactorParseError(str(exc), line=lineno) from None
        else:
            if len(fields) != 2 or fields[0] != _GRID_KEY:
                raise FactorParseError(f"expected '{_GRID_KEY},<value>'", line=lineno)
            if grid is not None:
                raise FactorParseError("duplicate grid factor row", line=lineno)
            grid = _parse_num(fields[1], _GRID_KEY, lineno)
            if not math.isfinite(grid) or grid <= 0:
                raise FactorParseError(f"grid factor must be > 0, got {fields[1]}", line=lineno)

    return FactorDatabase(
        tuple(factors), tuple(gwps), grid if grid is not None else DEFAULT_GRID_FACTOR
    )


def render_factor_file(db: FactorDatabase) -> str:
    """Serialize a database back to factor-file text (inverse of load on merged data)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write("[factors]\n")
    for f in db.factors:
        writer.writerow(
            [
                f.category,
                f.fab_transport_kgco2e,
                f.eol_kgco2e,
                f.typical_power_w,
                f.rel_uncertainty,
                f.source.name,
                f.source.year,
                f.source.kind,
                "true" if f.source.commissioner_neutral else "false",
                "true" if f.source.peer_reviewed else "false",
            ]
        )
    buf.write("[gwp]\n")
    for entry in db.gwp_table:
        writer.writerow([entry.fluid, entry.gwp_kgco2e_per_kg])
    buf.write("[grid]\n")
    writer.writerow([_GRID_KEY, db.default_grid_factor_kgco2e_per_kwh])
    return buf.getvalue()
