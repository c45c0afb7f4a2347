"""The factor-file loader as first implemented, kept verbatim as the reference
that the table-driven load_factor_db is compared against."""
from __future__ import annotations

import csv
import math

from ecodiag.errors import FactorParseError
from ecodiag.factors import (
    CATEGORIES,
    DEFAULT_GRID_FACTOR,
    EmissionFactor,
    FactorDatabase,
    GwpEntry,
    SourceMeta,
)

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


def seed_load_factor_db(text: str) -> FactorDatabase:
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
