"""In-process tracing of the ecodiag layers, installed from outside `src/`.

The tracer replaces names in the namespace of the module that calls them
(`cli`, `report`, `engine`) with wrappers, so the program itself is never
edited. Spans are kept in memory with a parent id and turned into per-layer
metrics once the traced run ends. A name the program no longer has is skipped
and listed in `Tracer.missing`; the metrics built on it then read 0.
"""
from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter


def _parsed_rows(args, result) -> dict:
    # parse_glpi_export returns (fleet, unmapped); parse_fleet_csv a fleet.
    if isinstance(result, tuple):
        fleet, unmapped = result
        return {"rows": len(fleet.assets) + len(unmapped), "unmapped": len(unmapped)}
    return {"rows": len(result.assets), "unmapped": 0}


#: (module, attribute, span name, note). A note turns the call's arguments and
#: result into counts stored on the span.
SPANS = (
    ("cli", "load_factor_db", "factors.load", None),
    ("cli", "merge_factors", "factors.merge", None),
    ("cli", "parse_fleet_csv", "inventory.parse", _parsed_rows),
    ("cli", "parse_glpi_export", "inventory.parse", _parsed_rows),
    ("cli", "parse_mapping_rules", "inventory.rules", None),
    ("cli", "validate_fleet", "inventory.validate", lambda a, r: {"issues": len(r)}),
    ("cli", "compute_fleet", "engine.compute",
     lambda a, r: {"assets": len(a[0].assets), "lines": len(r)}),
    ("report", "compute_fleet", "engine.compute",
     lambda a, r: {"assets": len(a[0].assets), "lines": len(r)}),
    ("cli", "aggregate", "report.aggregate", None),
    ("report", "aggregate", "report.aggregate", None),
    ("report", "apply_scenario", "report.apply_scenario", None),
    ("cli", "evaluate_scenario", "report.evaluate_scenario", lambda a, r: {"actions": len(a[1])}),
    ("cli", "parse_actions_csv", "report.parse_actions", None),
    ("cli", "parse_report_json", "report.compare", None),
    ("cli", "compare_years", "report.compare", None),
    ("cli", "render", "report.render", None),
)

#: Counting-only wrappers: called once per asset or more, so no span.
COUNTERS = (
    ("engine", "lookup_factor", "factor_lookups"),
    ("engine", "scope2_usage", "usage_evals"),
)


class Tracer:
    """Span and call-count recorder for one traced run."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [id, parent id, request, name, start, end, notes]
        self.counts: dict[str, int] = defaultdict(int)
        self.request = ""
        self.missing: list[str] = []  # wrapped names the program does not have
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else None, self.request, name, 0.0, 0.0, None]
            spans.append(record)
            stack.append(record[0])
            record[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = perf_counter()
                stack.pop()
            if note is not None:
                try:
                    record[6] = note(args, result)
                except (AttributeError, IndexError, TypeError):
                    # The call's shape changed: keep the span, drop its counts.
                    self._lost(f"counts of {name}")
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        for mod, attr, name, note in SPANS:
            if (fn := self._find(mod, attr)) is not None:
                self._wrap(mod, attr, self.span(name, fn, note))
        for mod, attr, name in COUNTERS:
            if (fn := self._find(mod, attr)) is not None:
                self._wrap(mod, attr, self.counter(name, fn))

    def _find(self, mod: str, attr: str):
        fn = getattr(self.modules.get(mod), attr, None)
        if fn is None:
            self._lost(f"{mod}.{attr}")
        return fn

    def _lost(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)

    def _wrap(self, mod: str, attr: str, wrapper) -> None:
        module = self.modules[mod]
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """Per-layer times (total and self) and counts of one traced pass."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    notes: dict[str, float] = defaultdict(float)
    for _, parent, _, name, start, end, note in spans:
        total[name] += end - start
        own[name] += end - start
        if parent is not None:
            own[spans[parent][3]] -= end - start
        for key, value in (note or {}).items():
            notes[f"{name}.{key}"] += value
    # Assets the engine evaluated on behalf of scenario actions.
    scenario_assets = sum(
        (s[6] or {}).get("assets", 0) for s in spans
        if s[3] == "engine.compute" and s[1] is not None and spans[s[1]][3] == "report.evaluate_scenario"
    )
    # Compute calls of the busiest CLI run: a yearly compute makes one, a
    # scenario two (baseline and variant).
    per_run: dict[str, int] = defaultdict(int)
    for s in spans:
        if s[3] == "engine.compute":
            per_run[s[2]] += 1
    calls = max(per_run.values(), default=0)
    assets = notes["engine.compute.assets"]
    actions = notes["report.evaluate_scenario.actions"]
    parse_s = total["inventory.parse"]
    return {
        "cli.self_s": own["cli.main"],
        "factors.load_s": total["factors.load"],
        "factors.merge_s": total["factors.merge"],
        "inventory.parse_s": parse_s,
        "inventory.parse_rows_per_s": notes["inventory.parse.rows"] / parse_s if parse_s else 0.0,
        "inventory.validate_s": total["inventory.validate"],
        "inventory.issues": notes["inventory.validate.issues"],
        "inventory.unmapped": notes["inventory.parse.unmapped"],
        "engine.compute_s": total["engine.compute"],
        "engine.compute_calls": calls,
        "engine.lines": notes["engine.compute.lines"],
        "engine.assets_evaluated": assets,
        "engine.factor_lookups": counts.get("factor_lookups", 0),
        "engine.usage_evals": counts.get("usage_evals", 0),
        "engine.usage_evals_per_asset": counts.get("usage_evals", 0) / assets if assets else 0.0,
        "report.aggregate_s": total["report.aggregate"],
        "report.render_s": total["report.render"],
        "report.apply_scenario_s": total["report.apply_scenario"],
        "report.evaluate_scenario_self_s": own["report.evaluate_scenario"],
        "report.compare_s": total["report.compare"],
        "report.assets_evaluated_per_action": scenario_assets / actions if actions else 0.0,
    }


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_per_" in name:
        return "ratio"
    return "count"


def medians(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over repeated traced passes."""
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
