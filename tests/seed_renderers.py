"""The report CSV and markdown renderers as first written, one hand-built
function per result type and format, kept verbatim as the reference that the
row-table renderers in ecodiag.report are compared against."""
from __future__ import annotations

import csv
import io

from ecodiag.engine import EXTERNAL_GROUP
from ecodiag.factors import GROUPS, SCOPES
from ecodiag.report import GENERATED_NOTE, Report, ScenarioResult, YearComparison

_SCOPE_LABELS = {
    "S1": "S1 (direct fugitive)",
    "S2": "S2 (purchased electricity)",
    "S3": "S3 (fabrication, end of life, declared)",
}


def _render_report_markdown(report: Report) -> str:
    out = [
        f"# Annual IT fleet CO₂e assessment ({report.reporting_year})",
        "",
        f"**Perimeter:** {report.perimeter_description}",
        "",
        "| Scope | kgCO₂e |",
        "|---|---:|",
    ]
    for s in SCOPES:
        out.append(f"| {_SCOPE_LABELS[s]} | {report.totals_by_scope[s]:.1f} |")
    out += ["", "| Equipment group | kgCO₂e |", "|---|---:|"]
    for g in GROUPS:
        out.append(f"| {g} | {report.totals_by_group[g]:.1f} |")
    out.append(f"| external (declared) | {report.external_total_kgco2e:.1f} |")
    out += [
        "",
        f"**Grand total: {report.grand_total_kgco2e:.1f} "
        f"± {report.abs_uncertainty_kgco2e:.1f} kgCO₂e** "
        f"({report.line_count} emission lines)",
        "",
        GENERATED_NOTE,
        "",
        f"Factor set: {report.factor_db_hash or 'unspecified'}",
        "",
    ]
    return "\n".join(out)


def _render_report_csv(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["year", "scope", "group", "kgco2e", "uncertainty"])
    for s in SCOPES:
        writer.writerow([report.reporting_year, s, "", f"{report.totals_by_scope[s]:.1f}", ""])
    for g in GROUPS:
        writer.writerow([report.reporting_year, "", g, f"{report.totals_by_group[g]:.1f}", ""])
    writer.writerow(
        [report.reporting_year, "", EXTERNAL_GROUP, f"{report.external_total_kgco2e:.1f}", ""]
    )
    writer.writerow(
        [
            report.reporting_year,
            "",
            "",
            f"{report.grand_total_kgco2e:.1f}",
            f"{report.abs_uncertainty_kgco2e:.1f}",
        ]
    )
    return buf.getvalue()


def _pct_text(pct: float | None) -> str:
    return "n/a" if pct is None else f"{pct:+.1f}%"


def _render_comparison_markdown(cmp: YearComparison) -> str:
    out = [
        "# Year-over-year comparison",
        "",
        f"**Perimeter:** {cmp.perimeter_description}",
        "",
        "| Year | S1 | S2 | S3 | Total | Delta | Delta % |",
        "|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for i, year in enumerate(cmp.years):
        delta = "" if i == 0 else f"{cmp.deltas_kgco2e[i - 1]:+.1f}"
        pct = "" if i == 0 else _pct_text(cmp.deltas_pct[i - 1])
        cells = [
            str(year),
            *(f"{cmp.totals_by_scope[s][i]:.1f}" for s in SCOPES),
            f"{cmp.grand_totals[i]:.1f}",
            delta,
            pct,
        ]
        out.append("| " + " | ".join(cells) + " |")
    out.append("")
    for w in cmp.warnings:
        out.append(f"Warning: {w}")
    if cmp.warnings:
        out.append("")
    return "\n".join(out)


def _render_comparison_csv(cmp: YearComparison) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["year", "S1", "S2", "S3", "grand_total", "delta_kgco2e", "delta_pct"])
    for i, year in enumerate(cmp.years):
        writer.writerow(
            [
                year,
                *(f"{cmp.totals_by_scope[s][i]:.1f}" for s in SCOPES),
                f"{cmp.grand_totals[i]:.1f}",
                "" if i == 0 else f"{cmp.deltas_kgco2e[i - 1]:.1f}",
                "" if i == 0 else _pct_text(cmp.deltas_pct[i - 1]),
            ]
        )
    return buf.getvalue()


def _render_scenario_markdown(res: ScenarioResult) -> str:
    payback = "n/a" if res.payback_years is None else f"{res.payback_years:.2f} years"
    out = [
        f"# Replacement scenario ({res.baseline.reporting_year})",
        "",
        f"**Perimeter:** {res.baseline.perimeter_description}",
        "",
        "| Metric | Baseline | Variant |",
        "|---|---:|---:|",
    ]
    for s in SCOPES:
        out.append(
            f"| {_SCOPE_LABELS[s]} | {res.baseline.totals_by_scope[s]:.1f} "
            f"| {res.variant.totals_by_scope[s]:.1f} |"
        )
    out += [
        f"| Grand total (kgCO₂e) | {res.baseline.grand_total_kgco2e:.1f} "
        f"| {res.variant.grand_total_kgco2e:.1f} |",
        "",
        f"Delta: {res.delta_kgco2e:+.1f} kgCO₂e for the reporting year",
        f"Payback: {payback}",
        f"Verdict: {res.verdict}",
        "",
        f"Factor set: {res.baseline.factor_db_hash or 'unspecified'}",
        "",
    ]
    return "\n".join(out)


def _render_scenario_csv(res: ScenarioResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "value"])
    writer.writerow(["baseline_grand_total_kgco2e", f"{res.baseline.grand_total_kgco2e:.1f}"])
    writer.writerow(["variant_grand_total_kgco2e", f"{res.variant.grand_total_kgco2e:.1f}"])
    for s in SCOPES:
        writer.writerow([f"baseline_{s}_kgco2e", f"{res.baseline.totals_by_scope[s]:.1f}"])
        writer.writerow([f"variant_{s}_kgco2e", f"{res.variant.totals_by_scope[s]:.1f}"])
    writer.writerow(["delta_kgco2e", f"{res.delta_kgco2e:.1f}"])
    writer.writerow(
        ["payback_years", "n/a" if res.payback_years is None else f"{res.payback_years:.2f}"]
    )
    return buf.getvalue()


_SEED_RENDERERS = {
    Report: (_render_report_csv, _render_report_markdown),
    YearComparison: (_render_comparison_csv, _render_comparison_markdown),
    ScenarioResult: (_render_scenario_csv, _render_scenario_markdown),
}


def seed_render(obj, fmt: str) -> str:
    """Render obj as csv or markdown with the reference renderers."""
    to_csv, to_markdown = _SEED_RENDERERS[type(obj)]
    return to_csv(obj) if fmt == "csv" else to_markdown(obj)
