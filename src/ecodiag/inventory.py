"""Fleet model (the declared perimeter) and inventory parsers.

Two input paths: the native fleet CSV, and GLPI-style exports mapped through
user rules. Parsing is pure; a Fleet never mutates after construction.
"""
from __future__ import annotations

import csv
import dataclasses
import fnmatch
import functools
import io
import math
import re
from collections.abc import Callable, Iterator
from dataclasses import MISSING, dataclass, field
from itertools import compress, islice, pairwise, repeat, starmap
from operator import attrgetter, eq, ge, is_not, itemgetter
from typing import NamedTuple

from .errors import FleetParseError, MissingFactorError
from .factors import (
    ASSET_CATEGORIES,
    CABLE_CATEGORIES,
    EXPECTED,
    FactorDatabase,
    HOUR_PROFILES,
    STATUSES,
    _UNSAFE_TEXT,
    category,
    check_text_field,
    csv_rows,
    csv_text,
    lookup_factor,
    splits_plainly,
    text_lines,
)


def _logger():
    """The module's logger. Only the GLPI import logs, so `logging` is loaded
    there, on first use, and a native-CSV command never loads it."""
    import logging

    return logging.getLogger(__name__)


def __getattr__(name: str):
    if name == "logger":  # read from outside as a module attribute
        return _logger()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Largest count a float holds with every integer up to it exact; the engine
#: multiplies counts as floats.
MAX_COUNT = 2**53
#: An asset older than this many years gets a replacement-candidate warning.
AGE_WARNING_YEARS = 10

#: GLPI status text normalized to the two inventory statuses. Unknown labels
#: fall back to in_use so electricity is over- rather than under-counted.
GLPI_STATUS_ALIASES = {
    "en service": "in_use",
    "used": "in_use",
    "in use": "in_use",
    "stock": "stored",
    "storage": "stored",
    "réserve": "stored",
}


def _finite_nonneg(values) -> bool:
    """Whether every value is None or a finite number >= 0 (NaN is not)."""
    values = list(filter(None, values))  # drops None and zeros, which keep the rule
    return all(map(math.isfinite, values)) and min(values, default=0) >= 0


def _disposed_after_acquired(acquired, disposed) -> bool:
    """Whether every disposal year that is not None is >= its acquisition year."""
    known = list(map(is_not, disposed, repeat(None)))
    return all(map(ge, compress(disposed, known), compress(acquired, known)))


def _check_optional_nonneg(value: float | None, name: str) -> None:
    if not _finite_nonneg((value,)):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


class _AssetFields(NamedTuple):
    id: str
    category: str
    quantity: int
    acquisition_year: int
    disposal_year: int | None = None
    status: str = "in_use"
    measured_power_w: float | None = None
    vendor_fab_transport_kgco2e: float | None = None
    hour_profile_override: str | None = None


# Asset(...) argument errors are raised by the base's __new__; name Asset in them.
_AssetFields.__new__.__qualname__ = "Asset.__new__"

#: Every rule an asset keeps, in the order their messages take precedence:
#: (test that all assets of some field columns keep it, message of one that
#: breaks it, formatted with the asset).
_ASSET_RULES = (
    (lambda c: "" not in c[0], "asset id must be non-empty"),
    (lambda c: not _UNSAFE_TEXT.search(",".join(c[0])),
     "asset id must not contain control characters: {0.id!r}"),
    (lambda c: ASSET_CATEGORIES.issuperset(c[1]), "unknown or non-asset category: {0.category}"),
    (lambda c: min(c[2], default=1) >= 1, "quantity must be >= 1, got {0.quantity}"),
    (lambda c: max(c[2], default=1) <= MAX_COUNT, "quantity must be at most 2**53"),
    (lambda c: _disposed_after_acquired(c[3], c[4]),
     "disposal_year {0.disposal_year} earlier than acquisition_year {0.acquisition_year}"),
    (lambda c: set(STATUSES).issuperset(c[5]),
     f"status must be one of {STATUSES}, got {{0.status!r}}"),
    (lambda c: _finite_nonneg(c[6]),
     "measured_power_w must be finite and >= 0, got {0.measured_power_w}"),
    (lambda c: _finite_nonneg(c[7]),
     "vendor_fab_transport_kgco2e must be finite and >= 0, got {0.vendor_fab_transport_kgco2e}"),
    (lambda c: {None, *HOUR_PROFILES}.issuperset(c[8]),
     f"hour_profile_override must be one of {HOUR_PROFILES}"),
)


def _broken_asset_rule(columns) -> str | None:
    """The message of the first rule some asset of the field columns breaks."""
    return next((message for test, message in _ASSET_RULES if not test(columns)), None)


def _assets_from_columns(columns) -> tuple[Asset, ...]:
    """The assets of field columns, checked once; the first that Asset(...) rejects
    raises its ValueError."""
    if not _broken_asset_rule(columns):
        return tuple(map(tuple.__new__, repeat(Asset), zip(*columns)))
    return tuple(starmap(Asset, zip(*columns)))  # raises at the first bad asset


class Asset(_AssetFields):
    """One inventory line: a quantity of identical devices of one category.

    An immutable tuple of its nine fields, equal to the plain tuple of them.
    Asset(...) and _replace check every rule of _ASSET_RULES; the fleet CSV checks
    whole columns of assets through _assets_from_columns, which raises the error
    Asset(...) gives the first bad one, and the GLPI import checks each id as it
    reads it. Both parsers share each repeated category, status, hour profile
    and year as one object. _make checks none."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        asset = super().__new__(cls, *args, **kwargs)
        if message := _broken_asset_rule(tuple(zip(asset))):
            raise ValueError(message.format(asset))
        return asset

    def _replace(self, /, **changes):
        return Asset(*super()._replace(**changes))


@dataclass(frozen=True)
class ServerRoom:
    """A machine room: refrigerant leakage, UPS overhead, optional whole-room meter."""

    id: str
    refrigerant_fluid: str | None = None
    refrigerant_leak_kg_per_year: float = 0.0
    ups_overhead_fraction: float = 0.0
    measured_room_kwh_per_year: float | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("room id must be non-empty")
        check_text_field(self.id, "room id")
        leak = self.refrigerant_leak_kg_per_year
        if not math.isfinite(leak) or leak < 0:
            raise ValueError(f"refrigerant_leak_kg_per_year must be >= 0, got {leak}")
        if leak > 0 and not self.refrigerant_fluid:
            raise ValueError("refrigerant_fluid required when leak > 0")
        if self.refrigerant_fluid == "":
            raise ValueError("refrigerant_fluid must be None or non-empty")
        check_text_field(self.refrigerant_fluid or "", "refrigerant_fluid")
        if ";" in (self.refrigerant_fluid or ""):  # it is a value of the fleet CSV's 'extra' cell
            raise ValueError(f"refrigerant_fluid must not contain ';': {self.refrigerant_fluid!r}")
        frac = self.ups_overhead_fraction
        if not math.isfinite(frac) or not 0 <= frac <= 1:
            raise ValueError(f"ups_overhead_fraction must be in [0, 1], got {frac}")
        _check_optional_nonneg(self.measured_room_kwh_per_year, "measured_room_kwh_per_year")


@dataclass(frozen=True)
class ComputeCampaign:
    """A compute campaign, declared either as kWh or as core-hours at a wattage.

    Completeness of the energy declaration is checked by validate_fleet, not
    at construction, so malformed campaigns surface as issues rather than
    parse crashes.
    """

    id: str
    kwh: float | None = None
    core_hours: float | None = None
    watts_per_core: float | None = None
    pue: float = 1.0

    def __post_init__(self):
        if not self.id:
            raise ValueError("campaign id must be non-empty")
        check_text_field(self.id, "campaign id")
        _check_optional_nonneg(self.kwh, "kwh")
        _check_optional_nonneg(self.core_hours, "core_hours")
        _check_optional_nonneg(self.watts_per_core, "watts_per_core")
        if not math.isfinite(self.pue) or self.pue < 1:
            raise ValueError(f"pue must be >= 1, got {self.pue}")

    @property
    def has_energy_declaration(self) -> bool:
        return self.kwh is not None or (
            self.core_hours is not None and self.watts_per_core is not None
        )


@dataclass(frozen=True)
class ExternalServiceEntry:
    """A hosted service whose provider declared a CO2e figure for our usage."""

    id: str
    declared_kgco2e: float
    scope_label: str
    note: str = ""

    def __post_init__(self):
        if not self.id:
            raise ValueError("external service id must be non-empty")
        check_text_field(self.id, "external service id")
        if not math.isfinite(self.declared_kgco2e) or self.declared_kgco2e < 0:
            raise ValueError(f"declared_kgco2e must be >= 0, got {self.declared_kgco2e}")
        if self.scope_label not in ("S2", "S3"):
            raise ValueError(f"scope_label must be S2 or S3, got {self.scope_label!r}")
        check_text_field(self.note, "note")
        if any(ch in self.note for ch in ";,="):
            raise ValueError(f"note must not contain ';', ',' or '=': {self.note!r}")


@dataclass(frozen=True)
class CableBulk:
    """Cables bought this year, counted in bulk (fabrication only)."""

    category: str
    count_acquired_this_year: int

    def __post_init__(self):
        if self.category not in CABLE_CATEGORIES:
            raise ValueError(f"not a cable category: {self.category}")
        if not 0 <= self.count_acquired_this_year <= MAX_COUNT:
            raise ValueError("cable count must be >= 0 and at most 2**53")


@dataclass(frozen=True)
class Fleet:
    """The declared perimeter for one reporting year.

    The perimeter description is mandatory: a CO2e figure without its
    perimeter is meaningless for year-over-year comparison.
    """

    perimeter_description: str
    reporting_year: int
    assets: tuple[Asset, ...] = ()
    rooms: tuple[ServerRoom, ...] = ()
    campaigns: tuple[ComputeCampaign, ...] = ()
    external_services: tuple[ExternalServiceEntry, ...] = ()
    cable_bulks: tuple[CableBulk, ...] = ()

    def __post_init__(self):
        if not self.perimeter_description.strip():
            raise ValueError("perimeter_description must be non-empty")
        for name in ("assets", "rooms", "campaigns", "external_services", "cable_bulks"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        id_of = attrgetter("id")
        for label, key, items in (  # a cable row's identity is its category
            ("asset id", itemgetter(0), self.assets), ("room id", id_of, self.rooms),
            ("campaign id", id_of, self.campaigns),
            ("external service id", id_of, self.external_services),
            ("cable category", attrgetter("category"), self.cable_bulks),
        ):
            # Sorted, a repeated key has an equal neighbour. Not a set of the keys: on a
            # 100k-asset fleet that raised compute's peak RSS from 47.8 to 53.6 MB.
            if not any(starmap(eq, pairwise(sorted(map(key, items))))):
                continue
            seen: set[str] = set()
            for item in items:  # name the first duplicate
                if key(item) in seen:
                    raise ValueError(f"duplicate {label}: {key(item)}")
                seen.add(key(item))


@dataclass(frozen=True)
class MappingRule:
    """First-match-wins rule turning a GLPI record into an asset category."""

    match_field: str
    pattern: str
    target_category: str
    #: Test of a lowered field value: a glob over the whole value when the
    #: lowered pattern holds '*', '?' or '[', else a substring check.
    _test: Callable[[str], object] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.match_field not in ("type", "model", "name"):
            raise ValueError(f"match_field must be type|model|name, got {self.match_field!r}")
        if not self.pattern:
            raise ValueError("pattern must be non-empty")
        if self.target_category not in ASSET_CATEGORIES:
            raise ValueError(f"unknown or non-asset category: {self.target_category}")
        # The taxonomy's own text, so rules naming one category give one object.
        object.__setattr__(self, "target_category", category(self.target_category).id)
        pattern = self.pattern.lower()
        if any(ch in pattern for ch in "*?["):
            test = re.compile(fnmatch.translate(pattern)).match
        else:
            def test(value: str) -> bool:
                return pattern in value
        object.__setattr__(self, "_test", test)


@dataclass(frozen=True)
class UnmappedRecord:
    """A GLPI record no rule claimed; returned rather than silently dropped."""

    row_number: int
    record: dict = field(compare=False)
    reason: str = ""


@dataclass(frozen=True)
class Issue:
    """One validation finding; severity is 'error' or 'warning'."""

    severity: str
    subject_id: str
    message: str


FLEET_CSV_COLUMNS = (
    "kind,id,category,quantity,acquisition_year,disposal_year,status,"
    "measured_power_w,vendor_fab_kgco2e,extra"
).split(",")


class FleetField(NamedTuple):
    """A dataclass attribute and its FLEET_CSV_COLUMNS column, or else its
    key in the 'extra' column. Empty text means ``default``, which rendering
    leaves out; without a default the text is converted as it stands."""

    key: str
    attr: str
    type: type  # str, int or float
    default: object = MISSING


#: The single definition of the fleet CSV, read by parse_fleet_csv and
#: render_fleet_csv: per kind, in render order, (dataclass, the Fleet tuple
#: holding it, its fields in dataclass order). Unlisted columns stay empty.
FLEET_SCHEMA = {
    "asset": (Asset, "assets", (
        FleetField("id", "id", str),
        FleetField("category", "category", str),
        FleetField("quantity", "quantity", int),
        FleetField("acquisition_year", "acquisition_year", int),
        FleetField("disposal_year", "disposal_year", int, None),
        FleetField("status", "status", str),
        FleetField("measured_power_w", "measured_power_w", float, None),
        FleetField("vendor_fab_kgco2e", "vendor_fab_transport_kgco2e", float, None),
        FleetField("hours", "hour_profile_override", str, None),
    )),
    "room": (ServerRoom, "rooms", (
        FleetField("id", "id", str),
        FleetField("fluid", "refrigerant_fluid", str, None),
        FleetField("leak_kg", "refrigerant_leak_kg_per_year", float, 0.0),
        FleetField("ups_overhead", "ups_overhead_fraction", float, 0.0),
        FleetField("room_kwh", "measured_room_kwh_per_year", float, None),
    )),
    "campaign": (ComputeCampaign, "campaigns", (
        FleetField("id", "id", str),
        FleetField("kwh", "kwh", float, None),
        FleetField("core_hours", "core_hours", float, None),
        FleetField("watts_per_core", "watts_per_core", float, None),
        FleetField("pue", "pue", float, 1.0),
    )),
    "external": (ExternalServiceEntry, "external_services", (
        FleetField("id", "id", str),
        FleetField("kgco2e", "declared_kgco2e", float),
        FleetField("scope", "scope_label", str),
        FleetField("note", "note", str, ""),
    )),
    "cable": (CableBulk, "cable_bulks", (
        FleetField("category", "category", str),
        FleetField("quantity", "count_acquired_this_year", int),
    )),
}


def _compile(cls: type, fields: tuple[FleetField, ...]):
    """Column form of one kind: its class, its extra keys, its empty columns,
    and per field (index of its texts in the columns then the extra values,
    type, default, field)."""
    names = cls._fields if cls is Asset else [x.name for x in dataclasses.fields(cls)]
    assert [f.attr for f in fields] == list(names)
    columns = FLEET_CSV_COLUMNS[1:]
    extra_keys = tuple(f.key for f in fields if f.key not in columns)
    texts = columns + list(extra_keys)
    used = {f.key for f in fields} | ({"extra"} if extra_keys else set())
    empty = tuple((i, name) for i, name in enumerate(columns) if name not in used)
    return cls, extra_keys, empty, tuple((texts.index(f.key), f.type, f.default, f) for f in fields)


_COMPILED = {kind: _compile(cls, fields) for kind, (cls, _, fields) in FLEET_SCHEMA.items()}


def _extra_values(text: str, kind: str, keys: tuple[str, ...]) -> list[str]:
    """The value of each key in a non-empty 'extra' cell, "" where the key is absent."""
    out: dict[str, str] = {}
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"extra field {part!r} is not key=value")
        if key not in keys:
            raise ValueError(f"unknown extra key {key!r} for kind {kind}")
        if key in out:
            raise ValueError(f"duplicate extra key {key!r}")
        out[key] = value
    return [out.get(key, "") for key in keys]


def parse_fleet_row(kind: str, fields: list[str], rownum: int = 0):
    """Build one fleet-CSV row's object from the nine columns after 'kind', as a one-row block."""
    try:
        return _convert_block(kind, [[text] for text in fields], {})[0]
    except ValueError as exc:
        raise FleetParseError(str(exc), row=rownum) from None


#: Consecutive lines parsed together; an error converts at most this many rows
#: one at a time. Measured on a 100k-row fleet (CPython 3.11, 2-core Xeon VM,
#: medians of 9 in a slow and a fast spell): the parse takes 0.27-0.39 s in
#: blocks of 48, 0.19-0.29 s in blocks of 256 or 512 and 0.30-0.47 s in blocks
#: of 4096, and `compute` peaks at 54.1 MB RSS up to 512 and 55.6 MB with 4096.
_BLOCK_ROWS = 256


def _column(texts, convert, default, f: FleetField, kind: str, memos: dict | None) -> list:
    """The values of a field's column of texts, an empty text being the default
    if there is one; ValueError names the field and its first bad text. A field
    that is neither an id (ids never repeat) nor a float (equal floats may differ
    in sign) converts through its memo in memos, so equal values are one object."""
    if memos is not None and f.key != "id" and convert is not float:
        memo = memos.setdefault(f, {})  # each text and value seen -> the value's one object
        each = itemgetter(*texts) if len(texts) > 1 else lambda memo: (memo[texts[0]],)
        try:
            return each(memo)
        except KeyError:  # a text new to the memo
            for text, value in zip(texts, _column(texts, convert, default, f, kind, None)):
                memo[text] = memo.setdefault(value, value)
            return each(memo)
    try:
        if default is not MISSING and "" in texts:
            return [convert(t) if t else default for t in texts]
        return texts if convert is str else list(map(convert, texts))  # str(s) is s
    except ValueError:
        for text in texts if default is MISSING else filter(None, texts):
            try:
                convert(text)  # int("") and float("") fail: the field is required
            except ValueError:
                if text:
                    raise ValueError(f"field {f.key}: not {EXPECTED[convert]}: {text!r}") from None
                raise ValueError(f"field {f.key} is required for kind {kind}") from None
        raise


def _convert_block(kind: str, texts: list, memos: dict) -> list | tuple:
    """The objects of the rows of one kind of a block, in their order, from the
    texts of their nine columns after 'kind', through the memos of one parse:
    per field (see _column) and per kind for its 'extra' texts. A bad row
    raises ValueError, with the row's own message when it is the only row."""
    if kind not in _COMPILED:
        raise ValueError(f"unknown kind: {kind!r}")
    cls, extra_keys, empty, converters = _COMPILED[kind]
    for i, name in empty:
        if got := next(filter(None, texts[i]), ""):
            raise ValueError(f"field {name} must be empty for kind {kind}, got {got!r}")
    if extra_keys:  # each 'extra' text is split once per parse, through the kind's memo
        values = memos.setdefault(kind, {"": [""] * len(extra_keys)})
        for text in set(texts[8]).difference(values):
            values[text] = _extra_values(text, kind, extra_keys)
        texts += zip(*map(values.__getitem__, texts[8]))
    columns = [_column(texts[i], *converter, kind, memos) for i, *converter in converters]
    return _assets_from_columns(columns) if cls is Asset else list(map(cls, *columns))


def _block_objects(block: list[str], memos: dict) -> list[tuple[str, list | tuple]]:
    """(kind, objects) per kind of the rows of a block of lines, through the memos
    of one parse. A plain block (one that splits_plainly, ten fields a line, one
    known kind on all) is split on its commas in one go; any other goes through
    csv_rows. A bad row raises ValueError."""
    width = len(FLEET_CSV_COLUMNS)
    joined, cells = ",".join(block), None
    if splits_plainly(joined) and set(map(str.count, block, repeat(","))) == {width - 1}:
        cells = joined.split(",")
    if cells and cells[0] in FLEET_SCHEMA and set(cells[::width]) == {cells[0]}:  # one kind
        parts = {cells[0]: [cells[i::width] for i in range(1, width)]}
    else:
        rows = [f for _, f in csv_rows("\n".join(block), lambda message, _: ValueError(message))]
        if got := next((n for n in map(len, rows) if n != width), None):
            raise ValueError(f"expected {width} fields, got {got}")
        parts = {kind: list(zip(*[row for row in rows if row[0] == kind]))[1:]
                 for kind in {row[0] for row in rows}}
    return [(kind, _convert_block(kind, texts, memos)) for kind, texts in parts.items()]


def _first_bad_row(text: str, rows: range) -> FleetParseError | None:
    """The error of the first bad row of a fleet CSV, in one walk of its rows:
    a kind and id (a cable's category) an earlier row has, or, among the rows
    numbered in rows (a failing block's), a malformed line, a wrong field
    count or a row that parse_fleet_row rejects. None if no row is bad."""
    seen = {kind: set() for kind in FLEET_SCHEMA}
    width = len(FLEET_CSV_COLUMNS)
    for rownum, fields in islice(csv_rows(text), 1, None):  # after the header
        if rownum in rows and len(fields) != width:
            return FleetParseError(f"expected {width} fields, got {len(fields)}", row=rownum)
        ids, cable = seen.get(fields[0], set()), fields[0] == "cable"
        key = fields[2] if cable else fields[1]  # a cable row is keyed by its category
        if key in ids:
            label = "cable category" if cable else f"{fields[0]} id"
            return FleetParseError(f"duplicate {label}: {key}", row=rownum)
        ids.add(key)
        if rownum in rows:
            try:
                parse_fleet_row(fields[0], fields[1:], rownum)
            except FleetParseError as exc:
                return exc
    return None


def parse_fleet_csv(text: str, reporting_year: int, perimeter_description: str) -> Fleet:
    """Parse the native fleet CSV into a Fleet.

    Rows are dispatched on the 'kind' column through FLEET_SCHEMA. Blank
    lines and '#' comments are skipped; empty input yields an empty (still
    valid) fleet. The text is split into lines a slice at a time, and the
    lines after the header are read in blocks of _BLOCK_ROWS (_block_objects).
    Repeated ids are left to the Fleet's check. When a block or that check
    fails, the text is read once more (_first_bad_row) to name the first bad
    row in file order."""
    row, header = next(csv_rows(text), (0, FLEET_CSV_COLUMNS))  # the header is the first row
    if header != FLEET_CSV_COLUMNS:
        raise FleetParseError(f"expected header {','.join(FLEET_CSV_COLUMNS)!r}", row)
    lines = islice(text_lines(text), row, None)
    items, memos = {k: [] for k in FLEET_SCHEMA}, {}  # memos: see _convert_block
    try:
        while block := list(islice(lines, _BLOCK_ROWS)):
            for kind, objects in _block_objects(block, memos):
                items[kind] += objects
            row += len(block)
        collections = {attr: tuple(items[kind]) for kind, (_, attr, _) in FLEET_SCHEMA.items()}
        return Fleet(perimeter_description, reporting_year, **collections)
    except ValueError as exc:  # block: the failing one, or [] when the Fleet's check failed
        failed = str(exc)
    # Each check fails on a block only if it fails on one of its lines.
    raise _first_bad_row(text, range(row + 1, row + 1 + len(block))) or FleetParseError(failed)


def render_fleet_csv(fleet: Fleet) -> str:
    """Serialize a fleet to canonical CSV; inverse of parse_fleet_csv."""
    def rows():  # made one at a time, as csv_text writes them
        yield FLEET_CSV_COLUMNS
        for kind, (_, attr, fields) in FLEET_SCHEMA.items():
            for item in getattr(fleet, attr):
                row = dict.fromkeys(FLEET_CSV_COLUMNS, "")
                row["kind"] = kind
                extra = []
                for f in fields:
                    value = getattr(item, f.attr)
                    text = "" if value == f.default else str(value)
                    if f.key in row:
                        row[f.key] = text
                    elif text:
                        extra.append(f"{f.key}={text}")
                row["extra"] = ";".join(extra)
                yield row.values()
    return csv_text(rows())


def parse_mapping_rules(text: str) -> tuple[MappingRule, ...]:
    """Parse mapping-rule rows 'match_field,pattern,target_category'; order matters."""
    rules: list[MappingRule] = []
    for rownum, fields in csv_rows(text):
        if len(fields) != 3:
            raise FleetParseError(f"expected 3 fields, got {len(fields)}", row=rownum)
        try:
            rules.append(MappingRule(fields[0], fields[1], fields[2]))
        except ValueError as exc:
            raise FleetParseError(str(exc), row=rownum) from None
    return tuple(rules)


_GLPI_REQUIRED = ("name", "type", "model", "purchase_date", "status")
#: ISO 'YYYY-MM-DD' or a bare year, or French 'DD/MM/YYYY' (or with '-').
_DATE = re.compile(r"^(\d{4})(?:-\d{2}-\d{2})?$|^\d{2}[/-]\d{2}[/-](\d{4})$")


def _year_from_date(text: str) -> int | None:
    m = _DATE.match(text.strip())
    return int(m.group(1) or m.group(2)) if m else None


def _pair_walker(rules: tuple[MappingRule, ...]):
    """The function from a raw (type, model) pair to (the name rules before the first
    type/model rule the pair matches, that rule or None), in first-match order.
    Each test is looked up here once, so exports whose pairs never repeat stay fast."""
    steps, names = [], ()
    for rule in rules:
        if rule.match_field == "name":
            names += (rule,)
        else:
            steps.append((rule._test, rule.match_field == "model", (names, rule)))
    unmatched = (names, None)

    def walk(type_: str, model: str):
        type_, model = type_.lower(), model.lower()
        for test, on_model, found in steps:
            if test(model if on_model else type_):
                return found
        return unmatched
    return walk


def _glpi_rows(text: str):
    """Yield the header row (the first, even if blank), then each record's
    cells, skipping blank lines; a csv.Error names the row being read."""
    rownum = 1
    try:
        for row in csv.reader(io.StringIO(text)):
            if row or rownum == 1:
                yield row
                rownum += 1
    except csv.Error as exc:
        raise FleetParseError(f"malformed CSV: {exc}", row=rownum) from None


def parse_glpi_export(
    text: str,
    rules: tuple[MappingRule, ...],
    reporting_year: int,
    perimeter_description: str,
) -> tuple[Fleet, tuple[UnmappedRecord, ...]]:
    """Map a GLPI CSV export to a fleet of single-unit assets.

    Every input record lands either in the fleet or in the unmapped list,
    never nowhere. Records are matched against the rules in order; the first
    match decides the category. An asset takes the record's name as its id;
    a name already taken gets the first free suffix '#2', '#3', ...
    """
    unmapped: list[UnmappedRecord] = []
    used_ids: set[str] = set()
    next_suffix: dict[str, int] = {}
    records: list[tuple] = []  # the nine fields of each asset
    # What depends on one or two cells alone is worked out once per distinct text,
    # and each year is one object however its dates are written.
    pair_rules = functools.cache(_pair_walker(rules))
    one_year: dict = {}
    year_of = functools.cache(lambda text: one_year.setdefault(y := _year_from_date(text), y))
    status_of = functools.cache(lambda label: GLPI_STATUS_ALIASES.get(label.strip().lower()))
    warn = _logger().warning  # one record per unknown status, as its row is read
    rows = _glpi_rows(text)
    # An empty export has no header row, so no column is missing.
    header = next(rows, _GLPI_REQUIRED)
    column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    missing = [c for c in _GLPI_REQUIRED if c not in column]
    if missing:
        raise FleetParseError(f"missing required column(s): {', '.join(missing)}")
    i_name, i_type, i_model, i_date, i_status = (column[c] for c in _GLPI_REQUIRED)
    for rownum, row in enumerate(rows, start=2):  # a malformed line stops the read
        if len(row) < len(header):  # a short row reads "" past its end
            row += [""] * (len(header) - len(row))
        name = row[i_name]
        name_rules, rule = pair_rules(row[i_type], row[i_model])
        if name_rules:
            lowered_name = name.lower()
            rule = next((r for r in name_rules if r._test(lowered_name)), rule)
        if rule is None:
            unmapped.append(UnmappedRecord(rownum, dict(zip(header, row)), "no matching rule"))
            continue
        year = year_of(row[i_date])
        if year is None:
            reason = f"unparsable purchase_date: {row[i_date]!r}"
            unmapped.append(UnmappedRecord(rownum, dict(zip(header, row)), reason))
            continue
        status = status_of(row[i_status])
        if status is None:
            warn("GLPI row %d: unknown status %r, assuming in_use", rownum, row[i_status])
            status = "in_use"
        asset_id = base_id = name.strip() or f"glpi-row-{rownum}"
        if asset_id in used_ids:
            suffix = next_suffix.get(base_id, 2)
            while asset_id in used_ids:
                asset_id, suffix = f"{base_id}#{suffix}", suffix + 1
            next_suffix[base_id] = suffix
        # Only the id can break an asset rule, and only with a character that
        # is not printable (every one _UNSAFE_TEXT matches).
        if not asset_id.isprintable():
            try:
                Asset(asset_id, rule.target_category, 1, year, None, status)
            except ValueError as exc:
                raise FleetParseError(str(exc), row=rownum) from None
        used_ids.add(asset_id)
        records.append((asset_id, rule.target_category, 1, year, None, status, None, None, None))
    # Every field is the id checked above or comes from a checked table (the rule's
    # category, the date pattern's year, a status alias): no asset rule to run again.
    assets = tuple(map(tuple.__new__, repeat(Asset), records))
    return Fleet(perimeter_description, reporting_year, assets=assets), tuple(unmapped)


def validate_fleet(fleet: Fleet, db: FactorDatabase) -> list[Issue]:
    """Check a fleet against a merged factor database: the blocking issues,
    then every per-asset warning (see blocking_issues and asset_warning_walk)."""
    year = fleet.reporting_year
    return blocking_issues(fleet, db) + [asset_warning(kind, asset, year)
                                         for kind, asset in asset_warning_walk(fleet, db)]


def blocking_issues(fleet: Fleet, db: FactorDatabase) -> list[Issue]:
    """The errors that block computation: a missing factor, an unknown
    refrigerant, a campaign without an energy declaration."""
    issues = missing_factors({a.category for a in fleet.assets}
                             | {b.category for b in fleet.cable_bulks}, db)

    gwp_fluids = {g.fluid for g in db.gwp_table}
    for room in fleet.rooms:
        if room.refrigerant_leak_kg_per_year > 0 and room.refrigerant_fluid not in gwp_fluids:
            issues.append(Issue("error", room.id,
                                f"unknown refrigerant fluid: {room.refrigerant_fluid}"))
    for campaign in fleet.campaigns:
        if not campaign.has_energy_declaration:
            issues.append(Issue("error", campaign.id,
                                "campaign declares neither kwh nor (core_hours, watts_per_core)"))
    return issues


def missing_factors(categories: set[str], db: FactorDatabase) -> list[Issue]:
    """An error per category that db has no factor for, in category order."""
    issues = []
    for cat_id in sorted(categories):
        try:
            lookup_factor(db, cat_id)
        except MissingFactorError:
            issues.append(Issue("error", cat_id, f"missing factor: {cat_id}"))
    return issues


#: The engine has no partial years: an asset outside the reporting year still
#: counts a full year of usage.
_FULL_YEAR = "reporting year {year}: a full year of usage is still charged"
#: The per-asset warnings, kind by kind in the order an asset's warnings are
#: listed: each kind's label, and the message of an asset it flags, formatted
#: with the asset, its age and the reporting year.
ASSET_WARNINGS = {
    "asset age": "asset age {age} years (replacement candidate)",
    "acquired after the reporting year":
        "acquired in {asset.acquisition_year}, after " + _FULL_YEAR,
    "disposed of before the reporting year":
        "disposed of in {asset.disposal_year}, before " + _FULL_YEAR,
    "zero-power": "zero-power factor and no measured power: no usage emissions",
}


def asset_warning_walk(fleet: Fleet, db: FactorDatabase) -> Iterator[tuple[str, Asset]]:
    """(kind, asset) of each per-asset warning, asset by asset in fleet order and
    an asset's kinds in ASSET_WARNINGS order: the one place the rules are tested."""
    age, acquired_after, disposed_before, zero_power = ASSET_WARNINGS
    # Categories whose usage rests on a zero typical power.
    zero_power_categories = {
        cat_id for cat_id in {f.category for f in db.factors}
        if lookup_factor(db, cat_id).typical_power_w == 0 and "S2" in category(cat_id).scope_mask
    }
    year = fleet.reporting_year
    oldest = year - AGE_WARNING_YEARS  # acquired before it: older than AGE_WARNING_YEARS
    for asset in fleet.assets:
        if asset.acquisition_year < oldest:
            yield age, asset
        if asset.acquisition_year > year:
            yield acquired_after, asset
        elif asset.disposal_year is not None and asset.disposal_year < year:
            yield disposed_before, asset
        if (asset.status == "in_use" and asset.measured_power_w is None
                and asset.category in zero_power_categories):
            yield zero_power, asset


def asset_warning(kind: str, asset: Asset, year: int) -> Issue:
    """The warning of a (kind, asset) pair of asset_warning_walk: its one message format."""
    return Issue("warning", asset.id, ASSET_WARNINGS[kind].format(
        asset=asset, age=year - asset.acquisition_year, year=year))
