"""The one-row fleet-CSV converter as it was before it became a one-row call of
the column converter, kept verbatim as the reference that parse_fleet_row and
parse_fleet_csv are compared against."""
from __future__ import annotations

import dataclasses
from dataclasses import MISSING

from ecodiag.errors import FleetParseError
from ecodiag.factors import EXPECTED
from ecodiag.inventory import FLEET_CSV_COLUMNS, FLEET_SCHEMA, Asset, FleetField


def _compile(cls: type, fields: tuple[FleetField, ...]):
    """Per-row form of one kind: its class, its extra keys, its empty columns,
    and per field (index of its text in the columns then the extra values,
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


def seed_parse_fleet_row(kind: str, fields: list[str], rownum: int = 0):
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
                what = EXPECTED[convert]
                raise FleetParseError(f"field {f.key}: not {what}: {text!r}", row=rownum) from None
            raise FleetParseError(f"field {f.key} is required for kind {kind}", row=rownum) from None
    try:
        return cls(*values)
    except ValueError as exc:
        raise FleetParseError(str(exc), row=rownum) from None
