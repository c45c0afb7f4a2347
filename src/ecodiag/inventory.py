"""Fleet model (the declared perimeter) and inventory parsers.

Two input paths: the native fleet CSV, and GLPI-style exports mapped through
user rules. Parsing is pure; a Fleet never mutates after construction.
"""
from __future__ import annotations

import csv
import dataclasses
import fnmatch
import io
import logging
import math
import re
from collections.abc import Callable
from dataclasses import MISSING, dataclass, field
from typing import NamedTuple

from .errors import FleetParseError, MissingFactorError
from .factors import (
    ASSET_CATEGORIES,
    CABLE_CATEGORIES,
    FactorDatabase,
    category,
    check_text_field,
    lookup_factor,
)

logger = logging.getLogger(__name__)

STATUSES = ("in_use", "stored")
HOUR_PROFILES = ("work_year", "continuous")
#: Largest count a float holds with every integer up to it exact; the engine
#: multiplies counts as floats.
MAX_COUNT = 2**53

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


def _check_optional_nonneg(value: float | None, name: str) -> None:
    if value is not None and (not math.isfinite(value) or value < 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True, slots=True)
class Asset:
    """One inventory line: a quantity of identical devices of one category."""

    id: str
    category: str
    quantity: int
    acquisition_year: int
    disposal_year: int | None = None
    status: str = "in_use"
    measured_power_w: float | None = None
    vendor_fab_transport_kgco2e: float | None = None
    hour_profile_override: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("asset id must be non-empty")
        check_text_field(self.id, "asset id")
        if self.category not in ASSET_CATEGORIES:
            raise ValueError(f"unknown or non-asset category: {self.category}")
        if self.quantity < 1:
            raise ValueError(f"quantity must be >= 1, got {self.quantity}")
        if self.quantity > MAX_COUNT:
            raise ValueError("quantity must be at most 2**53")
        if self.disposal_year is not None and self.disposal_year < self.acquisition_year:
            raise ValueError(
                f"disposal_year {self.disposal_year} earlier than "
                f"acquisition_year {self.acquisition_year}"
            )
        if self.status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}, got {self.status!r}")
        _check_optional_nonneg(self.measured_power_w, "measured_power_w")
        _check_optional_nonneg(self.vendor_fab_transport_kgco2e, "vendor_fab_transport_kgco2e")
        if self.hour_profile_override is not None and self.hour_profile_override not in HOUR_PROFILES:
            raise ValueError(f"hour_profile_override must be one of {HOUR_PROFILES}")


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
        for label, items in (
            ("asset", self.assets),
            ("room", self.rooms),
            ("campaign", self.campaigns),
            ("external service", self.external_services),
        ):
            seen: set[str] = set()
            for item in items:
                if item.id in seen:
                    raise ValueError(f"duplicate {label} id: {item.id}")
                seen.add(item.id)


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
        pattern = self.pattern.lower()
        if any(ch in pattern for ch in "*?["):
            test = re.compile(fnmatch.translate(pattern)).match
        else:
            def test(value: str) -> bool:
                return pattern in value
        object.__setattr__(self, "_test", test)

    def matches(self, record: dict[str, str]) -> bool:
        return bool(self._test((record.get(self.match_field) or "").lower()))


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


def csv_rows(text: str):
    """Yield (line number, fields) for every line that is not blank or a '#' comment.
    A line without '"' or NUL, within the csv field size limit, is split on
    commas: csv.reader makes the same of it."""
    limit = csv.field_size_limit()
    for rownum, raw in enumerate(text.splitlines(), start=1):
        head = raw.lstrip()
        if not head or head[0] == "#":
            continue
        if '"' not in raw and "\0" not in raw and len(raw) <= limit:
            yield rownum, raw.split(",")
            continue
        try:
            yield rownum, next(csv.reader([raw]))
        except csv.Error as exc:
            raise FleetParseError(f"malformed CSV: {exc}", row=rownum) from None


def _compile(cls: type, fields: tuple[FleetField, ...]):
    """Per-row form of one kind: its class, its extra keys, its empty columns,
    and per field (index of its text in the columns then the extra values,
    type, default, field)."""
    assert [f.attr for f in fields] == [x.name for x in dataclasses.fields(cls)]
    columns = FLEET_CSV_COLUMNS[1:]
    extra_keys = tuple(f.key for f in fields if f.key not in columns)
    texts = columns + list(extra_keys)
    used = {f.key for f in fields} | ({"extra"} if extra_keys else set())
    empty = tuple((i, name) for i, name in enumerate(columns) if name not in used)
    return cls, extra_keys, empty, tuple((texts.index(f.key), f.type, f.default, f) for f in fields)


_COMPILED = {kind: _compile(cls, fields) for kind, (cls, _, fields) in FLEET_SCHEMA.items()}


def _extra_values(text: str, kind: str, keys: tuple[str, ...], rownum: int) -> list[str]:
    """The value of each key in an 'extra' cell, "" where the key is absent."""
    if not text:
        return [""] * len(keys)
    out: dict[str, str] = {}
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        if not sep:
            raise FleetParseError(f"extra field {part!r} is not key=value", row=rownum)
        if key not in keys:
            raise FleetParseError(f"unknown extra key {key!r} for kind {kind}", row=rownum)
        if key in out:
            raise FleetParseError(f"duplicate extra key {key!r}", row=rownum)
        out[key] = value
    return [out.get(key, "") for key in keys]


def parse_fleet_row(kind: str, fields: list[str], rownum: int = 0):
    """Build the object of one fleet-CSV row from the nine columns after 'kind'."""
    try:
        cls, extra_keys, empty, converters = _COMPILED[kind]
    except KeyError:
        raise FleetParseError(f"unknown kind: {kind!r}", row=rownum) from None
    for i, name in empty:
        if fields[i]:
            message = f"field {name} must be empty for kind {kind}, got {fields[i]!r}"
            raise FleetParseError(message, row=rownum)
    if extra_keys:
        fields = fields + _extra_values(fields[8], kind, extra_keys, rownum)
    values = []
    for i, convert, default, f in converters:
        text = fields[i]
        if not text and default is not MISSING:
            values.append(default)
            continue
        try:
            values.append(convert(text))  # str() keeps an empty text; int() and float() reject it
        except ValueError:
            if text:
                what = "an integer" if convert is int else "a number"
                raise FleetParseError(f"field {f.key}: not {what}: {text!r}", row=rownum) from None
            raise FleetParseError(f"field {f.key} is required for kind {kind}", row=rownum) from None
    try:
        return cls(*values)
    except ValueError as exc:
        raise FleetParseError(str(exc), row=rownum) from None


def parse_fleet_csv(text: str, reporting_year: int, perimeter_description: str) -> Fleet:
    """Parse the native fleet CSV into a Fleet.

    Rows are dispatched on the 'kind' column through FLEET_SCHEMA. Blank
    lines and '#' comments are skipped; empty input yields an empty (still
    valid) fleet.
    """
    rows: dict[str, list] = {kind: [] for kind in FLEET_SCHEMA}
    seen_ids = {kind: set() for kind in ("asset", "room", "campaign", "external")}
    lines = csv_rows(text)
    header = next(lines, None)
    if header is not None and header[1] != FLEET_CSV_COLUMNS:
        raise FleetParseError(f"expected header {','.join(FLEET_CSV_COLUMNS)!r}", row=header[0])
    for rownum, fields in lines:
        if len(fields) != len(FLEET_CSV_COLUMNS):
            raise FleetParseError(
                f"expected {len(FLEET_CSV_COLUMNS)} fields, got {len(fields)}", row=rownum
            )
        kind, rest = fields[0], fields[1:]
        ids = seen_ids.get(kind)
        if ids is not None:
            if rest[0] in ids:
                raise FleetParseError(f"duplicate {kind} id: {rest[0]}", row=rownum)
            ids.add(rest[0])
        item = parse_fleet_row(kind, rest, rownum)
        rows[kind].append(item)

    collections = {attr: tuple(rows[kind]) for kind, (_, attr, _) in FLEET_SCHEMA.items()}
    try:
        return Fleet(perimeter_description, reporting_year, **collections)
    except ValueError as exc:
        raise FleetParseError(str(exc)) from None


def render_fleet_csv(fleet: Fleet) -> str:
    """Serialize a fleet to canonical CSV; inverse of parse_fleet_csv."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FLEET_CSV_COLUMNS)
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
            writer.writerow(row.values())
    return buf.getvalue()


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
    assets: list[Asset] = []
    unmapped: list[UnmappedRecord] = []
    used_ids: set[str] = set()
    next_suffix: dict[str, int] = {}
    rows = _glpi_rows(text)
    # An empty export has no header row, so no column is missing.
    header = next(rows, _GLPI_REQUIRED)
    column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    missing = [c for c in _GLPI_REQUIRED if c not in column]
    if missing:
        raise FleetParseError(f"missing required column(s): {', '.join(missing)}")
    i_name, i_type, i_model, i_date, i_status = (column[c] for c in _GLPI_REQUIRED)
    for rownum, row in enumerate(rows, start=2):
        if len(row) < len(header):  # a short row reads "" past its end
            row += [""] * (len(header) - len(row))
        name = row[i_name]
        lowered = {"type": row[i_type].lower(), "model": row[i_model].lower(), "name": name.lower()}
        for rule in rules:
            if rule._test(lowered[rule.match_field]):
                break
        else:
            unmapped.append(UnmappedRecord(rownum, dict(zip(header, row)), "no matching rule"))
            continue
        year = _year_from_date(row[i_date])
        if year is None:
            reason = f"unparsable purchase_date: {row[i_date]!r}"
            unmapped.append(UnmappedRecord(rownum, dict(zip(header, row)), reason))
            continue
        status = GLPI_STATUS_ALIASES.get(row[i_status].strip().lower())
        if status is None:
            logger.warning("GLPI row %d: unknown status %r, assuming in_use", rownum, row[i_status])
            status = "in_use"
        asset_id = base_id = name.strip() or f"glpi-row-{rownum}"
        suffix = next_suffix.get(base_id, 2)
        while asset_id in used_ids:
            asset_id, suffix = f"{base_id}#{suffix}", suffix + 1
        next_suffix[base_id] = suffix
        used_ids.add(asset_id)
        try:
            assets.append(Asset(asset_id, rule.target_category, 1, year, status=status))
        except ValueError as exc:
            raise FleetParseError(str(exc), row=rownum) from None
    fleet = Fleet(perimeter_description, reporting_year, assets=tuple(assets))
    return fleet, tuple(unmapped)


def validate_fleet(
    fleet: Fleet, db: FactorDatabase, age_warning_years: int = 10
) -> list[Issue]:
    """Check a fleet against a merged factor database.

    Errors block computation (missing factor, unknown refrigerant, campaign
    without an energy declaration); warnings flag data worth a second look.
    """
    issues: list[Issue] = []
    gwp_fluids = {g.fluid for g in db.gwp_table}

    used = sorted({a.category for a in fleet.assets} | {b.category for b in fleet.cable_bulks})
    zero_power = set()  # categories whose usage rests on a zero typical power
    for cat_id in used:
        try:
            factor = lookup_factor(db, cat_id)
        except MissingFactorError:
            issues.append(Issue("error", cat_id, f"missing factor: {cat_id}"))
            continue
        if factor.typical_power_w == 0 and "S2" in category(cat_id).scope_mask:
            zero_power.add(cat_id)

    for room in fleet.rooms:
        if room.refrigerant_leak_kg_per_year > 0 and room.refrigerant_fluid not in gwp_fluids:
            issues.append(
                Issue("error", room.id, f"unknown refrigerant fluid: {room.refrigerant_fluid}")
            )
    for campaign in fleet.campaigns:
        if not campaign.has_energy_declaration:
            issues.append(
                Issue(
                    "error",
                    campaign.id,
                    "campaign declares neither kwh nor (core_hours, watts_per_core)",
                )
            )

    year = fleet.reporting_year
    for asset in fleet.assets:
        age = year - asset.acquisition_year
        if age > age_warning_years:
            issues.append(
                Issue("warning", asset.id, f"asset age {age} years (replacement candidate)")
            )
        # The engine has no partial years: such an asset still counts a full
        # year of usage.
        if asset.acquisition_year > year:
            issues.append(
                Issue("warning", asset.id, f"acquired in {asset.acquisition_year}, after "
                      f"reporting year {year}: a full year of usage is still charged")
            )
        elif asset.disposal_year is not None and asset.disposal_year < year:
            issues.append(
                Issue("warning", asset.id, f"disposed of in {asset.disposal_year}, before "
                      f"reporting year {year}: a full year of usage is still charged")
            )
        if (asset.status == "in_use" and asset.measured_power_w is None
                and asset.category in zero_power):
            issues.append(Issue("warning", asset.id,
                                "zero-power factor and no measured power: no usage emissions"))
    return issues
