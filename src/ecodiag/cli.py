"""Command-line entry point.

Exit codes are a stable contract: 0 success, 1 for I/O, parse or usage
failures, 2 for validation failures. No command ever mutates an input file.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import sys
from collections.abc import Callable, Iterable
from pathlib import Path

from .errors import EcodiagError, FactorParseError, FleetParseError, ScenarioError
from .factors import (FactorDatabase, GridFactor, factor_db_identity, load_factor_db,
                      merge_factors, reliability_rank)

FACTORS_ENV_VAR = "ECODIAG_FACTORS"
#: compute and scenario write the first this many warnings of each kind to
#: stderr and count the rest; validate lists them all.
SHOWN_PER_KIND = 3

#: The names the fleet commands (compute, validate, scenario, compare) use, by
#: module. A command binds here the names of the modules it runs when it
#: starts, so that `factors`, `init` and `--help` load none of these modules
#: and `compare` no inventory. No command calls compute_fleet: it is bound here,
#: as report imports it, only because perfbench/spans.py wraps both names.
_FLEET_NAMES = {
    "inventory": ("Fleet", "Issue", "asset_warning", "asset_warning_walk", "blocking_issues",
                  "missing_factors", "parse_fleet_csv", "parse_glpi_export",
                  "parse_mapping_rules", "validate_fleet"),
    "engine": ("compute_fleet", "fleet_lines"),
    "report": ("aggregate", "compare_years", "evaluate_scenario", "parse_actions_csv",
               "parse_report_json", "render"),
}


def _bind_fleet_names(*modules: str) -> None:
    """Import these modules of _FLEET_NAMES and bind their names here. A name
    already bound stays bound: a wrapper or a patch set from outside wins."""
    for module in modules:
        qualified = f"{__package__}.{module}"
        # The import machinery's C entry, which `-X importtime` times and lists;
        # importlib.import_module bypasses it, so a check on that list would miss it.
        __import__(qualified)
        for name in _FLEET_NAMES[module]:
            globals().setdefault(name, getattr(sys.modules[qualified], name))


def __getattr__(name: str):
    """A fleet command's name read from outside before a command bound it."""
    for module, names in _FLEET_NAMES.items():
        if name in names:
            _bind_fleet_names(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # Usage failures must exit 1, not argparse's default 2 (2 is reserved for
    # validation failures).
    def error(self, message):
        self.print_usage(sys.stderr)
        _fail(message)
        self.exit(1)


def _grid_factor(text: str) -> float:
    """--grid-factor value, held to GridFactor's finite-and-positive rule."""
    try:
        return GridFactor(float(text)).kgco2e_per_kwh
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="ecodiag", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fleet_flags(p):
        p.add_argument("--inventory", required=True, help="fleet CSV or GLPI export path")
        p.add_argument("--year", type=int, required=True, help="reporting year")
        p.add_argument("--perimeter", required=True, help="declared perimeter description")
        p.add_argument("--glpi", action="store_true", help="treat inventory as a GLPI export")
        p.add_argument("--rules", help="mapping rules path (required with --glpi)")
        p.add_argument("--factors", help=f"factor file path (default: ${FACTORS_ENV_VAR})")
        p.add_argument("--grid-factor", type=_grid_factor, dest="grid_factor",
                       help="override the factor file's grid kgCO2e/kWh")

    def add_output_flags(p, formats=True):
        if formats:
            p.add_argument("--format", choices=("json", "csv", "markdown"), default="markdown")
        p.add_argument("--out", help="write output here instead of stdout")

    p = sub.add_parser("compute", help="compute the annual report for one fleet")
    add_fleet_flags(p)
    add_output_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("validate", help="check a fleet against the factor database")
    add_fleet_flags(p)
    add_output_flags(p, formats=False)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compare", help="compare two or more report JSON files")
    p.add_argument("reports", nargs="+", help="report JSON paths (two or more)")
    add_output_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("scenario", help="evaluate what-if fleet changes")
    add_fleet_flags(p)
    add_output_flags(p)
    p.add_argument("--actions", required=True, help="actions CSV path")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("factors", help="list the merged factor database")
    p.add_argument("--factors", help=f"factor file path (default: ${FACTORS_ENV_VAR})")
    add_output_flags(p, formats=False)
    p.set_defaults(func=cmd_factors)

    p = sub.add_parser("init", help="write sample factor, fleet and rules files")
    p.add_argument("directory", nargs="?", default=".", help="target directory")
    p.set_defaults(func=cmd_init)
    return parser


def _fail(message: str) -> None:
    print(f"ecodiag: error: {message}", file=sys.stderr)


def _read_input(path: str) -> str:
    """Text of an input file; a leading UTF-8 byte-order mark is dropped."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        # Numbered as the parsers number lines: the bad byte is on the last one.
        line = len((exc.object[: exc.start].decode("utf-8") + "?").splitlines())
        raise EcodiagError(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def _factor_path(args) -> str | None:
    return args.factors or os.environ.get(FACTORS_ENV_VAR)


def _refuse_input_as_out(args) -> None:
    """Raise when --out names one of the files the command reads."""
    out = getattr(args, "out", None)
    if not out or not os.path.exists(out):
        return
    paths = [getattr(args, name, None) for name in ("inventory", "rules", "actions")]
    paths += getattr(args, "reports", [])
    if hasattr(args, "factors"):
        paths.append(_factor_path(args))
    for path in paths:
        if path and os.path.exists(path) and os.path.samefile(path, out):
            raise EcodiagError(f"--out {out} is an input of this command; refusing to overwrite it")


def _load_db(args) -> tuple[FactorDatabase, str]:
    """The merged factor database and its identity. A --grid-factor other than the
    file's own grid replaces it here, once, and is named in the identity."""
    path = _factor_path(args)
    if not path:
        raise FactorParseError(f"no factor file given (--factors or ${FACTORS_ENV_VAR})")
    text = _read_input(path)
    db, db_id = merge_factors(load_factor_db(text)), factor_db_identity(Path(path).name, text)
    grid = getattr(args, "grid_factor", None)
    if grid is None or grid == db.default_grid_factor_kgco2e_per_kwh:
        return db, db_id
    return dataclasses.replace(db, default_grid_factor_kgco2e_per_kwh=grid), f"{db_id}+grid={grid}"


def _load_fleet(args, shown: float = math.inf) -> Fleet:
    """The fleet of --inventory. Of a GLPI export's unknown statuses, then of its
    rows not imported, the first `shown` of each kind go to stderr, and a count
    of the rest; the statuses also when the import fails."""
    if args.glpi != bool(args.rules):  # mapping rules apply to a GLPI export only
        raise FleetParseError("--glpi and --rules <mapping rules path> go together")
    text = _read_input(args.inventory)
    if not args.glpi:
        return parse_fleet_csv(text, args.year, args.perimeter)
    import logging  # the GLPI import's unknown-status records, the one use of logging

    records = []  # the import's records, kept until it ends
    keep = logging.Handler()
    keep.emit = records.append
    logger = logging.getLogger(f"{__package__}.inventory")
    logger.addHandler(keep)
    try:
        rules = parse_mapping_rules(_read_input(args.rules))
        fleet, unmapped = parse_glpi_export(text, rules, args.year, args.perimeter)
    finally:
        logger.removeHandler(keep)
        # A record's kind is its message template; the import logs one kind.
        sys.stderr.write(_summary(((r.msg, r) for r in records), shown,
                                  lambda _, r: f"{r.levelname}: {r.getMessage()}\n",
                                  "GLPI rows with an unknown status"))
    # A reason's kind is its text before the value it may quote.
    sys.stderr.write(_summary(
        ((r.reason.partition(":")[0], r) for r in unmapped), shown,
        lambda _, r: f"warning: GLPI row {r.row_number} not imported ({r.reason})\n",
        "GLPI rows not imported ({})"))
    return fleet


def _issue_lines(issues: list[Issue]) -> str:
    return "".join(f"{i.severity}: {i.subject_id}: {i.message}\n" for i in issues)


def _summary(pairs: Iterable[tuple[str, object]], shown: float,
             line: Callable[[str, object], str], what: str) -> str:
    """line(kind, item) of the first `shown` pairs of each kind, in their order, then a
    count of each kind's rest, kinds as first seen, named by `what` formatted with it."""
    lines, counts = [], {}
    for kind, item in pairs:
        counts[kind] = n = counts.get(kind, 0) + 1
        if n <= shown:
            lines.append(line(kind, item))
    return "".join(lines) + "".join(
        f"warning: {n - shown} more {what.format(kind)}; ecodiag validate lists them all\n"
        for kind, n in counts.items() if n > shown)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_compute(args) -> int:
    _bind_fleet_names("inventory", "engine", "report")
    db, db_id = _load_db(args)
    fleet = _load_fleet(args, SHOWN_PER_KIND)
    # validate's errors and warnings, with the warnings capped as the GLPI rows are.
    errors, year = blocking_issues(fleet, db), fleet.reporting_year
    sys.stderr.write(_issue_lines(errors) + _summary(
        asset_warning_walk(fleet, db), SHOWN_PER_KIND,
        lambda kind, asset: _issue_lines([asset_warning(kind, asset, year)]), "'{}' warnings"))
    if errors:
        return 2
    lines = fleet_lines(fleet, db)
    _emit(render(aggregate(lines, fleet, db_id), args.format), args.out)
    return 0


def cmd_validate(args) -> int:
    _bind_fleet_names("inventory")
    db, _ = _load_db(args)
    fleet = _load_fleet(args)
    issues = validate_fleet(fleet, db)
    _emit(_issue_lines(issues) or "no issues\n", args.out)
    return 2 if any(i.severity == "error" for i in issues) else 0


def cmd_compare(args) -> int:
    _bind_fleet_names("report")
    reports = [parse_report_json(_read_input(p)) for p in args.reports]
    comparison = compare_years(reports)
    for warning in comparison.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    _emit(render(comparison, args.format), args.out)
    return 0


def cmd_scenario(args) -> int:
    _bind_fleet_names("inventory", "report")
    db, db_id = _load_db(args)
    fleet = _load_fleet(args, SHOWN_PER_KIND)
    errors = blocking_issues(fleet, db)
    if not errors:  # then the new assets' categories, which may lack a factor too
        actions = parse_actions_csv(_read_input(args.actions))
        errors = missing_factors({a.new_asset.category for a in actions if a.new_asset}, db)
    if errors:
        sys.stderr.write(_issue_lines(errors))
        return 2
    result = evaluate_scenario(fleet, list(actions), db, db_id)
    _emit(render(result, args.format), args.out)
    return 0


def cmd_factors(args) -> int:
    db, db_id = _load_db(args)
    rows = [
        (
            f.category,
            f"{f.fab_transport_kgco2e:g}",
            f"{f.eol_kgco2e:g}",
            f"{f.typical_power_w:g}",
            f"{f.rel_uncertainty:g}",
            f"{f.source.name} ({f.source.year}, {f.source.kind}, rank {reliability_rank(f.source)})",
        )
        for f in db.factors
    ]
    header = ("category", "fab+transport", "end-of-life", "power W", "rel unc", "winning source")
    widths = [max(len(r[i]) for r in [header, *rows]) for i in range(len(header))]
    out_lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
        *("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in rows),
        "",
        f"grid factor: {db.default_grid_factor_kgco2e_per_kwh} kgCO2e/kWh",
        f"gwp fluids: {', '.join(g.fluid for g in db.gwp_table) or 'none'}",
        f"factor set: {db_id}",
    ]
    _emit("\n".join(out_lines) + "\n", args.out)
    return 0


def cmd_init(args) -> int:
    from . import samples

    files = {
        "factors.txt": samples.SAMPLE_FACTOR_FILE,
        "fleet.csv": samples.sample_fleet_csv(),
        "mapping_rules.csv": samples.SAMPLE_MAPPING_RULES,
    }
    target = Path(args.directory)
    target.mkdir(parents=True, exist_ok=True)
    for name in files:
        if (target / name).exists():
            _fail(f"refusing to overwrite existing {target / name}")
            return 1
    for name, content in files.items():
        (target / name).write_text(content, encoding="utf-8")
        print(f"wrote {target / name}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The records hold no reference cycles, so reference counting frees them
    # and the cyclic collector's passes would find nothing; the caller's
    # collector state comes back on every exit.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _refuse_input_as_out(args)
        return args.func(args)
    except ScenarioError as exc:
        _fail(str(exc))
        return 2
    except (EcodiagError, OSError, ValueError) as exc:
        _fail(str(exc))
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
