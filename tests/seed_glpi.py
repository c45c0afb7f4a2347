"""The GLPI import as it was before its per-value work was memoized, kept
verbatim as the reference that parse_glpi_export is compared against, with
the first-bad-row helper it calls, which the import no longer has."""
from __future__ import annotations

import csv
import io
import re

from ecodiag.errors import FleetParseError
from ecodiag.inventory import (
    GLPI_STATUS_ALIASES,
    Asset,
    Fleet,
    MappingRule,
    UnmappedRecord,
    _broken_asset_rule,
    logger,
)


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


def _first_bad_asset(rownums: tuple[int, ...], columns) -> FleetParseError | None:
    """The error of the first row of the columns that Asset rejects."""
    for rownum, values in zip(rownums, zip(*columns)):
        try:
            Asset(*values)
        except ValueError as exc:
            return FleetParseError(str(exc), row=rownum)


def seed_parse_glpi_export(
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
    records: list[tuple] = []  # (row number, id, category, year, status) of each asset
    unknown_statuses: list[tuple[int, str]] = []
    rows = _glpi_rows(text)
    # An empty export has no header row, so no column is missing.
    header = next(rows, _GLPI_REQUIRED)
    column = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
    missing = [c for c in _GLPI_REQUIRED if c not in column]
    if missing:
        raise FleetParseError(f"missing required column(s): {', '.join(missing)}")
    i_name, i_type, i_model, i_date, i_status = (column[c] for c in _GLPI_REQUIRED)
    malformed = None
    try:
        for rownum, row in enumerate(rows, start=2):
            if len(row) < len(header):  # a short row reads "" past its end
                row += [""] * (len(header) - len(row))
            name = row[i_name]
            lowered = {"type": row[i_type].lower(), "model": row[i_model].lower(),
                       "name": name.lower()}
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
                unknown_statuses.append((rownum, row[i_status]))
                status = "in_use"
            asset_id = base_id = name.strip() or f"glpi-row-{rownum}"
            suffix = next_suffix.get(base_id, 2)
            while asset_id in used_ids:
                asset_id, suffix = f"{base_id}#{suffix}", suffix + 1
            next_suffix[base_id] = suffix
            used_ids.add(asset_id)
            records.append((rownum, asset_id, rule.target_category, year, status))
    except FleetParseError as exc:  # a malformed line stops the read
        malformed = exc
    # A bad record before a malformed line is the error, and no warning about
    # a record past the error is logged.
    rownums, ids, categories, years, statuses = zip(*records) if records else [()] * 5
    nones = (None,) * len(ids)
    columns = (ids, categories, (1,) * len(ids), years, nones, statuses, nones, nones, nones)
    bad = _first_bad_asset(rownums, columns) if ids and _broken_asset_rule(columns) else None
    for rownum, status in unknown_statuses:
        if bad is None or rownum <= bad.row:
            logger.warning("GLPI row %d: unknown status %r, assuming in_use", rownum, status)
    if bad or malformed:
        raise bad or malformed
    assets = tuple(map(Asset._make, zip(*columns)))
    return Fleet(perimeter_description, reporting_year, assets=assets), tuple(unmapped)
