"""Correctness gate: checks the CLI's JSON output against tests/oracle.py.

The oracle is loaded from its file, read-only, and re-derives every total
from the generator's own records; the program's parsers and scenario code are
never used to build the expected values.
"""
from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

REL = 1e-9  # the test suite's relative tolerance
ABS = 1e-12
SCOPES = ("S1", "S2", "S3")


def load_oracle(root: Path):
    """Return tests/oracle.py's oracle_totals (it imports ecodiag.factors)."""
    spec = importlib.util.spec_from_file_location("perfbench_oracle", root / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_totals


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isclose(a, b, rel_tol=REL, abs_tol=ABS)


def check_report(label: str, data: dict, expected: dict, year: int) -> list[str]:
    """Problems with one report dict: year, per-scope totals, grand total, ±."""
    problems = []
    if data.get("reporting_year") != year:
        problems.append(f"{label}: reporting_year {data.get('reporting_year')} != {year}")
    pairs = [(f"totals_by_scope.{s}", data.get("totals_by_scope", {}).get(s), expected[s])
             for s in SCOPES]
    pairs += [("grand_total_kgco2e", data.get("grand_total_kgco2e"), expected["total"]),
              ("abs_uncertainty_kgco2e", data.get("abs_uncertainty_kgco2e"), expected["uncertainty"])]
    for key, got, want in pairs:
        if not _close(got, want):
            problems.append(f"{label}: {key} = {got!r}, oracle says {want!r}")
    return problems


def parse_json(label: str, raw: bytes) -> tuple[dict | None, list[str]]:
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, [f"{label}: stdout is not JSON ({exc})"]
    if not isinstance(data, dict):
        return None, [f"{label}: stdout is not a JSON object"]
    return data, []


def check_factors(raw: bytes, categories, winner: str) -> list[str]:
    """Every category's row in the `factors` listing must name the source the
    generator made the most reliable one."""
    lines = raw.decode("utf-8", "replace").splitlines()
    return [f"factors: {cat} does not list {winner} as its winning source"
            for cat in categories
            if not any(line.split()[:1] == [cat] and winner in line for line in lines)]


def check_compute(raw: bytes, expected: dict, year: int, label="compute") -> list[str]:
    data, problems = parse_json(label, raw)
    return problems or check_report(label, data, expected, year)


def check_scenario(raw: bytes, base: dict, variant: dict, year: int) -> list[str]:
    data, problems = parse_json("scenario", raw)
    if problems:
        return problems
    problems = check_report("scenario.baseline", data.get("baseline", {}), base, year)
    problems += check_report("scenario.variant", data.get("variant", {}), variant, year)
    if not _close(data.get("delta_kgco2e"), variant["total"] - base["total"]):
        problems.append(f"scenario: delta_kgco2e = {data.get('delta_kgco2e')!r}, "
                        f"oracle says {variant['total'] - base['total']!r}")
    return problems


def check_compare(raw: bytes, first: bytes, second: bytes) -> list[str]:
    """The comparison must line up both reports and its delta must equal the
    difference of their grand totals. Both reports must already have passed
    check_compute."""
    data, problems = parse_json("compare", raw)
    a, pa = parse_json("compare input 1", first)
    b, pb = parse_json("compare input 2", second)
    problems += pa + pb
    if problems:
        return problems
    if data.get("years") != [a["reporting_year"], b["reporting_year"]]:
        problems.append(f"compare: years {data.get('years')!r}")
    grand = data.get("grand_totals") or [None, None]
    for got, report in zip(grand, (a, b)):
        if not _close(got, report["grand_total_kgco2e"]):
            problems.append(f"compare: grand total {got!r} != report {report['grand_total_kgco2e']!r}")
    for s in SCOPES:
        got = data.get("totals_by_scope", {}).get(s) or [None, None]
        for value, report in zip(got, (a, b)):
            if not _close(value, report["totals_by_scope"][s]):
                problems.append(f"compare: {s} total {value!r} != report {report['totals_by_scope'][s]!r}")
    deltas = data.get("deltas") or [{}]
    want = b["grand_total_kgco2e"] - a["grand_total_kgco2e"]
    if not _close(deltas[0].get("delta_kgco2e"), want):
        problems.append(f"compare: delta {deltas[0].get('delta_kgco2e')!r} != {want!r}")
    return problems
