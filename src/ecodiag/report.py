"""Annual reports, year-over-year comparison, replacement scenarios, rendering.

Arithmetic stays at full precision everywhere; only the human-facing formats
(markdown, CSV) round to 0.1 kgCO2e. JSON keeps exact values so reports can
be re-read and compared without drift.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, itemgetter

from .engine import (
    EXTERNAL_GROUP,
    EmissionLine,
    asset_part,
    compute_fleet,
    merge_lines,
)
from .errors import FleetParseError, ScenarioError
from .factors import GROUPS, SCOPES, FactorDatabase, csv_rows
from .inventory import Asset, Fleet, parse_fleet_row

#: Fixed wording embedded in rendered reports; deliberately timestamp-free so
#: identical inputs produce identical bytes.
GENERATED_NOTE = (
    "Figures are order-of-magnitude estimates built from per-category factors; "
    "use them to compare years and options, not as exact measurements."
)


@dataclass(frozen=True)
class Report:
    """Aggregated totals for one reporting year over one declared perimeter."""

    reporting_year: int
    perimeter_description: str
    totals_by_scope: dict
    totals_by_group: dict
    external_total_kgco2e: float
    grand_total_kgco2e: float
    abs_uncertainty_kgco2e: float
    line_count: int
    factor_db_hash: str = ""


@dataclass(frozen=True)
class YearComparison:
    """Reports of successive years side by side, with consecutive deltas."""

    years: tuple[int, ...]
    perimeter_description: str
    totals_by_scope: dict
    grand_totals: tuple[float, ...]
    deltas_kgco2e: tuple[float, ...]
    deltas_pct: tuple[float | None, ...]
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioAction:
    """One fleet edit: remove an asset, add one, or replace one with another."""

    op: str
    target_asset_id: str | None = None
    new_asset: Asset | None = None

    def __post_init__(self):
        if self.op not in ("remove", "add", "replace"):
            raise ValueError(f"unknown op {self.op!r} (expected remove|add|replace)")
        if self.op in ("remove", "replace") and not self.target_asset_id:
            raise ValueError(f"{self.op} requires target_asset_id")
        if self.op == "add" and self.target_asset_id:
            raise ValueError("add takes no target id")
        if self.op in ("add", "replace") and self.new_asset is None:
            raise ValueError(f"{self.op} requires new_asset")
        if self.op == "remove" and self.new_asset is not None:
            raise ValueError("remove takes no new_asset")


@dataclass(frozen=True)
class ScenarioResult:
    """Baseline vs variant reports plus the replacement-decision figures."""

    baseline: Report
    variant: Report
    delta_kgco2e: float
    payback_years: float | None
    verdict: str


def factor_db_identity(name: str, text: str) -> str:
    """Stable identity of a factor file, embedded in reports so a changed
    factor set cannot masquerade as a fleet improvement."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    return f"{name}:sha256:{digest}"


def aggregate(lines: Iterable[EmissionLine], fleet: Fleet, factor_db_hash: str = "") -> Report:
    """Fold emission lines, any iterable of them, into per-scope and per-group
    totals and the uncertainty, walking them once.

    Declared external entries land in the pseudo-group 'external', kept apart
    from equipment groups so grand_total = sum(scopes) = sum(groups) + external.
    Uncertainties add within a factor_source; the sources combine in quadrature.
    The one check on computed values: a grand total or uncertainty that is
    not finite raises ValueError, naming the first non-finite line if any.
    """
    by_scope = dict.fromkeys(SCOPES, 0.0)
    by_group = dict.fromkeys((*GROUPS, EXTERNAL_GROUP), 0.0)
    by_source: defaultdict[str, float] = defaultdict(float)
    count, bad = 0, None
    for count, line in enumerate(lines, 1):
        kgco2e = line.kgco2e
        by_scope[line.scope] += kgco2e
        by_group[line.group] += kgco2e
        by_source[line.factor_source] += line.abs_uncertainty_kgco2e
        if kgco2e - kgco2e and bad is None:  # nan for an infinite or nan kgco2e, else 0
            bad = line.subject_id
    external = by_group.pop(EXTERNAL_GROUP)
    uncertainty = math.sqrt(reduce(add, (u * u for u in by_source.values()), 0.0))
    grand_total = reduce(add, by_scope.values(), 0.0)
    if not (math.isfinite(grand_total) and math.isfinite(uncertainty)):
        # A line's uncertainty never exceeds its kgco2e (rel_uncertainty <= 1).
        cause = "the sum of the emission lines" if bad is None else f"the emission line of {bad}"
        raise ValueError(f"report totals are not finite: {cause} overflows")
    return Report(
        reporting_year=fleet.reporting_year,
        perimeter_description=fleet.perimeter_description,
        totals_by_scope=by_scope,
        totals_by_group=by_group,
        external_total_kgco2e=external,
        grand_total_kgco2e=grand_total,
        abs_uncertainty_kgco2e=uncertainty,
        line_count=count,
        factor_db_hash=factor_db_hash,
    )


def compare_years(reports: list[Report]) -> YearComparison:
    """Line up reports by year and compute consecutive deltas.

    Requires at least two reports with distinct years; mismatched perimeters
    or factor sets do not block the comparison but are flagged as warnings.
    """
    if len(reports) < 2:
        raise ValueError("need at least two reports to compare")
    ordered = sorted(reports, key=lambda r: r.reporting_year)
    years = tuple(r.reporting_year for r in ordered)
    if len(set(years)) != len(years):
        raise ValueError(f"reporting years must be distinct, got {years}")

    warnings: list[str] = []
    perimeters = {r.perimeter_description for r in ordered}
    if len(perimeters) > 1:
        warnings.append(
            "perimeter mismatch: " + " / ".join(sorted(perimeters))
        )
    hashes = {r.factor_db_hash for r in ordered if r.factor_db_hash}
    if len(hashes) > 1:
        warnings.append("factor set changed between years: " + " / ".join(sorted(hashes)))

    grand = tuple(r.grand_total_kgco2e for r in ordered)
    deltas = tuple(b - a for a, b in zip(grand, grand[1:]))
    # No percentage from a zero base, nor from one so small that it overflows.
    pcts = tuple(
        p if a and math.isfinite(p := (b - a) / a * 100.0) else None
        for a, b in zip(grand, grand[1:])
    )
    return YearComparison(
        years=years,
        perimeter_description=ordered[0].perimeter_description,
        totals_by_scope={s: tuple(r.totals_by_scope[s] for r in ordered) for s in SCOPES},
        grand_totals=grand,
        deltas_kgco2e=deltas,
        deltas_pct=pcts,
        warnings=tuple(warnings),
    )


def _edits(fleet: Fleet, actions: list[ScenarioAction]) -> tuple[set[str], dict[str, Asset]]:
    """Walk the actions once: the ids of the baseline assets they drop, and the
    assets they add by id in append order (a re-added id moves to the end).

    A replacement's new asset is acquired now: its acquisition year is forced
    to the reporting year so its fabrication is charged to the variant.
    """
    named = {i for a in actions for i in (a.target_asset_id, a.new_asset and a.new_asset.id)}
    live, dropped, added = named.intersection(map(itemgetter(0), fleet.assets)), set(), {}
    for action in actions:
        target = action.target_asset_id
        if action.op != "add" and added.pop(target, None) is None:
            if target not in live:
                raise ScenarioError(f"unknown target asset id: {target}")
            live.remove(target)
            dropped.add(target)
        if action.op == "remove":
            continue
        new = action.new_asset
        if action.op == "replace":
            try:
                new = new._replace(acquisition_year=fleet.reporting_year)
            except ValueError as exc:
                raise ScenarioError(f"replacement asset {new.id}: {exc}") from None
        if new.id in live or new.id in added:
            raise ScenarioError(f"added asset id already exists: {new.id}")
        added[new.id] = new
    return dropped, added


def apply_scenario(fleet: Fleet, actions: list[ScenarioAction]) -> Fleet:
    """Apply actions to a copy of the fleet; the baseline is never touched.
    The kept assets stay in fleet order and the new ones follow (see _edits)."""
    dropped, added = _edits(fleet, actions)
    kept = tuple(a for a in fleet.assets if a.id not in dropped)
    return dataclasses.replace(fleet, assets=kept + tuple(added.values()))


def evaluate_scenario(
    fleet: Fleet,
    actions: list[ScenarioAction],
    db: FactorDatabase,
    factor_db_hash: str = "",
) -> ScenarioResult:
    """Compare the fleet before and after the actions under one factor database.

    Payback answers the replacement dilemma: how many years of electricity
    savings repay the fabrication of the newly added equipment. It is absent
    when the variant saves no usage emissions, or too little for the quotient
    to be finite. Both reports carry factor_db_hash, the identity of the
    factor set.

    The actions are walked once, before any line is computed, and no variant
    fleet is built: the variant differs only in its assets. Its asset lines
    are the baseline's, in key order from asset_part, filtered to the
    subjects the actions do not drop, with the new assets' lines merged in;
    its pool is the baseline's, filtered the same way, followed by the new
    assets'. Only the new assets are evaluated, and both reports are exactly
    those of a full compute of each fleet.
    """
    dropped, added = _edits(fleet, actions)
    base, new = asset_part(fleet, db), asset_part(fleet, db, tuple(added.values()))
    pool, lines = next(base), list(chain.from_iterable(base))
    new_pool, new_lines = next(new), list(chain.from_iterable(new))
    baseline_lines = compute_fleet(fleet, db, (pool, lines))
    variant_lines = compute_fleet(fleet, db, (
        [l for l in pool if l.subject_id not in dropped] + new_pool,
        merge_lines([l for l in lines if l.subject_id not in dropped], new_lines),
    ))
    baseline = aggregate(baseline_lines, fleet, factor_db_hash)
    variant = aggregate(variant_lines, fleet, factor_db_hash)

    # In subject_id order, as they come in the sorted variant lines.
    added_fabrication = reduce(
        add, (l.kgco2e for l in new_lines if l.phase == "fabrication_transport"), 0.0
    )
    savings = baseline.totals_by_scope["S2"] - variant.totals_by_scope["S2"]
    # No payback without savings, nor from savings so small that it overflows.
    payback = p if savings > 0 and math.isfinite(p := added_fabrication / savings) else None

    if not actions:
        verdict = "no actions: variant is identical to the baseline"
    elif payback is not None:
        verdict = (
            f"usage savings {savings:.1f} kgCO2e/year; fabrication of added "
            f"equipment pays back in {payback:.2f} years"
        )
    else:
        verdict = "no annual usage savings; added fabrication is not recovered"
    return ScenarioResult(
        baseline=baseline,
        variant=variant,
        delta_kgco2e=variant.grand_total_kgco2e - baseline.grand_total_kgco2e,
        payback_years=payback,
        verdict=verdict,
    )


def parse_actions_csv(text: str) -> tuple[ScenarioAction, ...]:
    """Parse scenario actions: rows 'op,target_id,<asset fields...>', the first may be a header.

    The asset fields reuse the fleet-CSV asset column order (id, category,
    quantity, acquisition_year, disposal_year, status, measured_power_w,
    vendor_fab_kgco2e, extra). remove rows may stop after the target id.
    Structural problems, and the shape rules ScenarioAction enforces, raise
    FleetParseError with the row number; whether a target exists is only
    known against a fleet, so that check lives in _edits, which both
    evaluate_scenario and apply_scenario run.
    """
    actions: list[ScenarioAction] = []
    for n, (rownum, fields) in enumerate(csv_rows(text)):
        if n == 0 and fields[0] == "op":
            continue
        op, asset = fields[0], None
        target = fields[1] if len(fields) > 1 else None
        if op in ("add", "replace"):
            if len(fields) != 11:
                raise FleetParseError(
                    f"{op} requires 11 fields (op, target_id, 9 asset fields)", row=rownum
                )
            asset = parse_fleet_row("asset", fields[2:], rownum)
        elif op == "remove" and any(f != "" for f in fields[2:]):
            raise FleetParseError("remove takes no asset fields", row=rownum)
        try:
            actions.append(ScenarioAction(op, target or None, asset))
        except ValueError as exc:
            raise FleetParseError(str(exc), row=rownum) from None
    return tuple(actions)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_SCOPE_LABELS = {
    "S1": "S1 (direct fugitive)",
    "S2": "S2 (purchased electricity)",
    "S3": "S3 (fabrication, end of life, declared)",
}


#: The report JSON in key order: (key, Report attribute, value type). A tuple
#: type is an object holding one number per listed name.
REPORT_JSON_KEYS = (
    ("reporting_year", "reporting_year", int),
    ("perimeter", "perimeter_description", str),
    ("totals_by_scope", "totals_by_scope", SCOPES),
    ("totals_by_group", "totals_by_group", GROUPS),
    ("external_total", "external_total_kgco2e", float),
    ("grand_total_kgco2e", "grand_total_kgco2e", float),
    ("abs_uncertainty_kgco2e", "abs_uncertainty_kgco2e", float),
    ("line_count", "line_count", int),
    ("factor_db_hash", "factor_db_hash", str),
)


def _report_dict(report: Report) -> dict:
    out = {}
    for key, attr, kind in REPORT_JSON_KEYS:
        value = getattr(report, attr)
        out[key] = {name: value[name] for name in kind} if isinstance(kind, tuple) else value
    return out


def _json_object(data, key: str, names) -> dict:
    """Check that data, at key ('' for the document), is an object with every name."""
    if type(data) is not dict:
        where = f" key {key}" if key else ""
        raise ValueError(f"report JSON{where} must be an object, got {json.dumps(data)[:40]}")
    missing = [f"{key}.{n}" if key else n for n in names if n not in data]
    if missing:
        raise ValueError(f"report JSON lacks key(s): {', '.join(missing)}")
    return data


def _json_value(value, key: str, kind: type):
    # type(), not isinstance(): JSON true and false are not numbers here.
    if kind is float and type(value) in (int, float) and 0 <= value <= sys.float_info.max:
        return float(value)
    if kind is float or type(value) is not kind:
        what = {str: "a string", int: "an integer", float: "a finite number >= 0"}[kind]
        raise ValueError(f"report JSON key {key} must be {what}, got {json.dumps(value)[:40]}")
    return value


def parse_report_json(text: str) -> Report:
    """Rebuild a Report from its JSON rendering, checking every key and type."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("report JSON is nested too deeply") from None
    _json_object(data, "", [key for key, _, _ in REPORT_JSON_KEYS])
    values = {}
    for key, attr, kind in REPORT_JSON_KEYS:
        if isinstance(kind, tuple):
            group = _json_object(data[key], key, kind)
            values[attr] = {name: _json_value(group[name], f"{key}.{name}", float) for name in kind}
        else:
            values[attr] = _json_value(data[key], key, kind)
    return Report(**values)


def _csv_table(header, rows) -> str:
    # Every cell is a number or a fixed name, so none needs CSV quoting.
    return "".join(",".join(map(str, cells)) + "\n" for cells in (header, *rows))


def _md_table(header, align: str, rows) -> list[str]:
    """Markdown table lines; align holds one 'l' or 'r' per column."""
    head, *body = ["| " + " | ".join(cells) + " |" for cells in (header, *rows)]
    return [head, "|" + "".join("---:|" if a == "r" else "---|" for a in align), *body]


def _report_rows(report: Report) -> list[tuple]:
    """(scope, group, markdown label, kgco2e) per subtotal: scopes, groups, external."""
    return [
        *((s, "", _SCOPE_LABELS[s], report.totals_by_scope[s]) for s in SCOPES),
        *(("", g, g, report.totals_by_group[g]) for g in GROUPS),
        ("", EXTERNAL_GROUP, "external (declared)", report.external_total_kgco2e),
    ]


def _render_report_markdown(report: Report) -> str:
    rows = _report_rows(report)
    scopes = [(label, f"{kg:.1f}") for scope, _, label, kg in rows if scope]
    groups = [(label, f"{kg:.1f}") for scope, _, label, kg in rows if not scope]
    return "\n".join([
        f"# Annual IT fleet CO₂e assessment ({report.reporting_year})",
        "",
        f"**Perimeter:** {report.perimeter_description}",
        "",
        *_md_table(("Scope", "kgCO₂e"), "lr", scopes),
        "",
        *_md_table(("Equipment group", "kgCO₂e"), "lr", groups),
        "",
        f"**Grand total: {report.grand_total_kgco2e:.1f} "
        f"± {report.abs_uncertainty_kgco2e:.1f} kgCO₂e** "
        f"({report.line_count} emission lines)",
        "",
        GENERATED_NOTE,
        "",
        f"Factor set: {report.factor_db_hash or 'unspecified'}",
        "",
    ])


def _render_report_csv(report: Report) -> str:
    year = report.reporting_year
    rows = [(year, scope, group, f"{kg:.1f}", "") for scope, group, _, kg in _report_rows(report)]
    rows.append(
        (year, "", "", f"{report.grand_total_kgco2e:.1f}", f"{report.abs_uncertainty_kgco2e:.1f}")
    )
    return _csv_table(("year", "scope", "group", "kgco2e", "uncertainty"), rows)


def _comparison_rows(cmp: YearComparison, delta_spec: str) -> list[list[str]]:
    """Per year: the year, its scope and grand totals, then its delta (formatted
    with delta_spec) and delta % from the year before, both empty the first year."""
    deltas = [("", "")] + [
        (format(d, delta_spec), "n/a" if p is None else f"{p:+.1f}%")
        for d, p in zip(cmp.deltas_kgco2e, cmp.deltas_pct)
    ]
    return [
        [str(year), *(f"{cmp.totals_by_scope[s][i]:.1f}" for s in SCOPES),
         f"{cmp.grand_totals[i]:.1f}", *deltas[i]]
        for i, year in enumerate(cmp.years)
    ]


def _render_comparison_markdown(cmp: YearComparison) -> str:
    out = [
        "# Year-over-year comparison",
        "",
        f"**Perimeter:** {cmp.perimeter_description}",
        "",
        *_md_table(
            ("Year", *SCOPES, "Total", "Delta", "Delta %"), "r" * 7, _comparison_rows(cmp, "+.1f")
        ),
        "",
    ]
    if cmp.warnings:
        out += [*(f"Warning: {w}" for w in cmp.warnings), ""]
    return "\n".join(out)


def _render_comparison_csv(cmp: YearComparison) -> str:
    header = ("year", *SCOPES, "grand_total", "delta_kgco2e", "delta_pct")
    return _csv_table(header, _comparison_rows(cmp, ".1f"))


def _comparison_dict(cmp: YearComparison) -> dict:
    return {
        "years": list(cmp.years),
        "perimeter": cmp.perimeter_description,
        "totals_by_scope": {s: list(cmp.totals_by_scope[s]) for s in SCOPES},
        "grand_totals": list(cmp.grand_totals),
        "deltas": [
            {
                "from_year": cmp.years[i],
                "to_year": cmp.years[i + 1],
                "delta_kgco2e": cmp.deltas_kgco2e[i],
                "delta_pct": cmp.deltas_pct[i],
            }
            for i in range(len(cmp.years) - 1)
        ],
        "warnings": list(cmp.warnings),
    }


def _scenario_rows(res: ScenarioResult) -> list[tuple]:
    """(metric name, markdown label, baseline, variant) per total: scopes, then grand total."""
    sides = (res.baseline, res.variant)
    return [
        *((s, _SCOPE_LABELS[s], *(r.totals_by_scope[s] for r in sides)) for s in SCOPES),
        ("grand_total", "Grand total (kgCO₂e)", *(r.grand_total_kgco2e for r in sides)),
    ]


def _render_scenario_markdown(res: ScenarioResult) -> str:
    payback = "n/a" if res.payback_years is None else f"{res.payback_years:.2f} years"
    rows = [(label, f"{b:.1f}", f"{v:.1f}") for _, label, b, v in _scenario_rows(res)]
    return "\n".join([
        f"# Replacement scenario ({res.baseline.reporting_year})",
        "",
        f"**Perimeter:** {res.baseline.perimeter_description}",
        "",
        *_md_table(("Metric", "Baseline", "Variant"), "lrr", rows),
        "",
        f"Delta: {res.delta_kgco2e:+.1f} kgCO₂e for the reporting year",
        f"Payback: {payback}",
        f"Verdict: {res.verdict}",
        "",
        f"Factor set: {res.baseline.factor_db_hash or 'unspecified'}",
        "",
    ])


def _render_scenario_csv(res: ScenarioResult) -> str:
    *scopes, grand = _scenario_rows(res)
    rows = [
        (f"{side}_{name}_kgco2e", f"{value:.1f}")
        for name, _, *values in (grand, *scopes)
        for side, value in zip(("baseline", "variant"), values)
    ]
    payback = "n/a" if res.payback_years is None else f"{res.payback_years:.2f}"
    rows += [("delta_kgco2e", f"{res.delta_kgco2e:.1f}"), ("payback_years", payback)]
    return _csv_table(("metric", "value"), rows)


def _scenario_dict(res: ScenarioResult) -> dict:
    return {
        "baseline": _report_dict(res.baseline),
        "variant": _report_dict(res.variant),
        "delta_kgco2e": res.delta_kgco2e,
        "payback_years": res.payback_years,
        "verdict": res.verdict,
    }


#: Per result type: its JSON dict, CSV and markdown renderers.
_RENDERERS = {
    Report: (_report_dict, _render_report_csv, _render_report_markdown),
    YearComparison: (_comparison_dict, _render_comparison_csv, _render_comparison_markdown),
    ScenarioResult: (_scenario_dict, _render_scenario_csv, _render_scenario_markdown),
}


def render(obj: Report | YearComparison | ScenarioResult, fmt: str) -> str:
    """Render a report, comparison or scenario as json, csv or markdown.

    Output is byte-stable: fixed key order, no timestamps, '\\n' line endings.
    """
    if fmt not in ("json", "csv", "markdown"):
        raise ValueError(f"format must be json|csv|markdown, got {fmt!r}")
    try:
        to_dict, to_csv, to_markdown = _RENDERERS[type(obj)]
    except KeyError:
        raise TypeError(f"cannot render {type(obj).__name__}") from None
    if fmt == "json":
        return json.dumps(to_dict(obj), indent=2) + "\n"
    return to_csv(obj) if fmt == "csv" else to_markdown(obj)
