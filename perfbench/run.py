"""Seeded benchmark of the ecodiag CLI.

    python3 perfbench/run.py --workload compute_100k --seed 1 --seconds 25 --trace 0

With --trace 0 the real CLI runs as subprocesses on inputs generated from the
seed, and the end-to-end metrics are reported; their times are calibrated to a
reference host speed (see measure_cli). With --trace 1 the same
commands run in process through ecodiag.cli.main with per-layer spans, and
the per-layer metrics are reported. Either way every output is checked
against tests/oracle.py, and the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Run it from the repository
root; generated inputs live under .perfbench_work/ and are removed afterwards.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import logging
import os
import random
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gate
import gen
from spans import Tracer, layer_metrics, medians, unit_of

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
CALIB = Path(__file__).resolve().parent / "calib.py"

MIN_ITERATIONS = 3  # untraced repeats of the whole workload, at least
MIN_TRACED_PASSES = 2  # traced (and untraced in-process) passes, at least
MIN_SETUP_SAMPLES = 9  # `ecodiag factors` runs behind setup_s, at least
CHILD_TIMEOUT_S = 150
#: Rows calib.py handles, and its wall time on the reference host: times are
#: reported as if the host ran at that speed (see measure_cli).
CALIBRATION_ROWS = 20_000
CALIBRATION_REF_S = 0.2

#: Layer times compared by the shape report.
LAYER_TIMES = (
    "cli.self_s", "factors.load_s", "factors.merge_s", "inventory.parse_s",
    "inventory.validate_s", "engine.compute_s", "report.aggregate_s", "report.render_s",
    "report.apply_scenario_s", "report.evaluate_scenario_self_s", "report.compare_s",
)


@dataclass
class Plan:
    """One workload instance: its inputs on disk, CLI steps and output check."""

    rows: int  # asset rows or GLPI records the steps read
    factors: Path
    steps: list[tuple[str, list[str]]]  # (step name, CLI arguments)
    check: Callable[[dict[str, bytes]], list[str]]
    expect: dict  # predicted per-layer shape, reported against the traced run


# ---------------------------------------------------------------------------
# Workloads. Each takes the seed, a scratch directory and the oracle, writes
# its inputs there and returns its plan; the program sees only those files.
# ---------------------------------------------------------------------------

def _setup(seed: int, work: Path):
    rng = random.Random(seed)
    text, db, power = gen.factor_set(rng)
    factors = work / "factors.txt"
    factors.write_text(text, encoding="utf-8")
    year = rng.randint(2018, 2024)
    return rng, db, gen.engine_config(db), factors, year, power


def _compute_args(inventory: Path, factors: Path, year: int, *extra: str) -> list[str]:
    return ["compute", "--inventory", str(inventory), "--factors", str(factors),
            "--year", str(year), "--perimeter", gen.PERIMETER, "--format", "json", *extra]


def _pool_share(fleet) -> float:
    """Share of the assets in the server-room pool, by the program's taxonomy."""
    from ecodiag.factors import CATEGORIES

    pool = sum(CATEGORIES[a.category].group == "server_room" for a in fleet.assets)
    return pool / len(fleet.assets)


def _native(seed: int, work: Path, oracle, n_assets: int, n_rooms: int, largest: str) -> Plan:
    rng, db, config, factors, year, power = _setup(seed, work)
    fleet = gen.native_fleet(rng, year, n_assets, n_rooms, power)
    inventory = work / "fleet.csv"
    inventory.write_text(gen.fleet_csv(fleet), encoding="utf-8")
    expected = oracle(fleet, db, config)
    return Plan(
        rows=n_assets,
        factors=factors,
        steps=[("compute", _compute_args(inventory, factors, year))],
        check=lambda out: gate.check_compute(out["compute"], expected, year),
        expect={"largest": (largest,), "compute_calls": 1, "scenario": False,
                "usage_evals_per_asset": 1 + n_rooms * _pool_share(fleet)},
    )


def compute_100k(seed: int, work: Path, oracle) -> Plan:
    """The large-export yearly run: 100k asset rows, one unmetered UPS room.
    Parse, compute, validation and one stderr line per warning all weigh in;
    the room pool is scanned once, so a room-pool fix should not show here."""
    return _native(seed, work, oracle, 100_000, 1, "inventory.parse_s")


def rooms_20k_50(seed: int, work: Path, oracle) -> Plan:
    """20k rows and 50 unmetered rooms, each with a UPS overhead above zero
    (one metered room would skip the pool path). The pool is rescanned once
    per room and dominates while parsing is small: an engine-only change
    shows here, a parse-only change should not."""
    return _native(seed, work, oracle, 20_000, 50, "engine.compute_s")


def scenario_100k_200(seed: int, work: Path, oracle) -> Plan:
    """The what-if sweep: the compute_100k fleet of the same seed with 200
    removals, replacements and additions. apply_scenario rescans the fleet
    per action and two full computes follow, so incremental scenarios show
    here and nowhere else."""
    rng, db, config, factors, year, power = _setup(seed, work)
    fleet = gen.native_fleet(rng, year, 100_000, 1, power)
    text, variant = gen.scenario(rng, fleet, 200, power)
    inventory, actions = work / "fleet.csv", work / "actions.csv"
    inventory.write_text(gen.fleet_csv(fleet), encoding="utf-8")
    actions.write_text(text, encoding="utf-8")
    base, changed = oracle(fleet, db, config), oracle(variant, db, config)
    args = _compute_args(inventory, factors, year, "--actions", str(actions))
    return Plan(
        rows=100_000,
        factors=factors,
        steps=[("scenario", ["scenario", *args[1:]])],
        check=lambda out: gate.check_scenario(out["scenario"], base, changed, year),
        # apply_scenario and the two computes dominate, about equally.
        expect={"largest": ("engine.compute_s", "report.apply_scenario_s"),
                "compute_calls": 2, "scenario": True,
                "usage_evals_per_asset": 1 + _pool_share(fleet)},
    )


def glpi_yoy_50k(seed: int, work: Path, oracle) -> Plan:
    """Two consecutive yearly GLPI exports of 50k records through the mapping
    rules, then `compare` of the two JSON reports. The only workload on the
    GLPI parser, rule matching, parse_report_json and compare_years; some
    records carry unknown statuses or match no rule, as real exports do."""
    rng, db, config, factors, year, _ = _setup(seed, work)
    rules = work / "rules.csv"
    rules.write_text(gen.MAPPING_RULES, encoding="utf-8")
    steps, expected = [], []
    for i, (text, fleet) in enumerate(gen.glpi_years(rng, year, 50_000), start=1):
        export = work / f"glpi_{fleet.reporting_year}.csv"
        export.write_text(text, encoding="utf-8")
        args = _compute_args(export, factors, fleet.reporting_year, "--glpi", "--rules", str(rules))
        steps.append((f"y{i}", args))
        expected.append((f"y{i}", oracle(fleet, db, config), fleet.reporting_year))
    # Each step's stdout lands in <step>.out, so compare reads both reports.
    steps.append(("compare", ["compare", str(work / "y1.out"), str(work / "y2.out"),
                              "--format", "json"]))

    def check(out: dict[str, bytes]) -> list[str]:
        problems = [p for step, totals, y in expected
                    for p in gate.check_compute(out[step], totals, y, label=step)]
        return problems or gate.check_compare(out["compare"], out["y1"], out["y2"])

    # No room-pool rescan: GLPI imports carry no rooms.
    return Plan(rows=100_000, factors=factors, steps=steps, check=check,
                expect={"largest": ("inventory.parse_s",), "compute_calls": 1, "scenario": False,
                        "usage_evals_per_asset": 1.0})


WORKLOADS = {f.__name__: f for f in (compute_100k, rooms_20k_50, scenario_100k_200, glpi_yoy_50k)}


# ---------------------------------------------------------------------------
# Run bookkeeping shared by both modes
# ---------------------------------------------------------------------------

class Runs:
    """Every run of a step, judged against the first run of the same step."""

    def __init__(self):
        self.first: dict[str, bytes] = {}
        self.log: list[tuple[str, bool]] = []
        self.problems: list[str] = []
        self.wrong: set[str] = set()  # steps whose first output is wrong

    def record(self, step: str, code: int, stdout: bytes) -> None:
        same = self.first.setdefault(step, stdout) == stdout
        if code != 0 or not same:
            self.problems.append(
                f"{step}: exit code {code}" + ("" if same else ", stdout differs from its first run")
            )
        self.log.append((step, code == 0 and same))

    def judge(self, problems: list[str], steps) -> None:
        """Record what a check found wrong with the first outputs of steps."""
        if problems:
            self.problems += problems
            self.wrong.update(steps)

    def tally(self) -> tuple[int, int]:
        """(attempted, failed); every run of a step whose first output a
        check rejected has failed too."""
        failed = sum(1 for step, ok in self.log if not ok or step in self.wrong)
        return len(self.log), failed


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# --trace 0: untraced subprocess runs, the end-to-end metrics
# ---------------------------------------------------------------------------

@dataclass
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def spawn(args: list[str], out: Path, err: Path, env: dict, script: Path | None = None) -> ChildRun:
    """Run `python -m ecodiag <args>`, or `python <script> <args>`, with
    stdout and stderr in two files.

    CPU time and peak RSS come from this child's own rusage (os.wait4), not
    RUSAGE_CHILDREN, which keeps a running maximum over all children so far.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    redirects = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
                 (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    argv = [sys.executable, *(["-m", "ecodiag"] if script is None else [str(script)]), *args]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=redirects)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    watchdog.start()
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    return ChildRun(os.waitstatus_to_exitcode(status), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def measure_cli(plan: Plan, seconds: int, work: Path) -> tuple[dict, Runs]:
    """Untraced runs of the whole workload, with `ecodiag factors` and the
    calibration child in between, for `seconds`; returns the end-to-end metrics.

    A shared host can run for seconds at a time about twice as slow as at
    other times, with the share of slow time drifting over minutes, so that a
    median of raw times moves by a third between runs of the same code.
    calib.py, a fixed CLI-like child that runs no ecodiag code, runs after
    every other child and sees the same slow share. So each time metric is the
    run's mean time divided by the run's mean calibration time, times
    CALIBRATION_REF_S: the time on a host where calib.py takes that long.
    Means, not medians: with two speeds a median jumps between them.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = Runs()
    cals = []

    def run(step: str, args: list[str]) -> ChildRun:
        out = work / f"{step}.out"
        child = spawn(args, out, work / f"{step}.err", env)
        runs.record(step, child.code, out.read_bytes())
        cals.append(calibrate())
        return child

    def calibrate() -> float:
        child = spawn([str(CALIBRATION_ROWS)], work / "calib.out", work / "calib.err", env, CALIB)
        if child.code != 0:
            raise RuntimeError(f"calibration child failed with exit code {child.code}")
        return child.wall_s

    setup_args = ["factors", "--factors", str(plan.factors)]
    # Warm-up: fills the bytecode cache and pages in the interpreter.
    run("factors", setup_args)
    cals.clear()
    cals.append(calibrate())
    setup, walls, cpus, rss = [], [], [], []
    start, last = time.perf_counter(), 0.0
    # Setup runs are interleaved with the workload so that both see the same
    # background load.
    while len(walls) < MIN_ITERATIONS or time.perf_counter() - start + last <= seconds:
        setup.append(run("factors", setup_args).wall_s)
        t0 = time.perf_counter()
        children = [run(step, args) for step, args in plan.steps]
        last = time.perf_counter() - t0
        walls.append(sum(c.wall_s for c in children))
        cpus.append(sum(c.cpu_s for c in children))
        rss.append(max(c.rss_mb for c in children))
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run("factors", setup_args).wall_s)

    runs.judge(gate.check_factors(runs.first["factors"], gen.BASE_FACTORS, gen.WINNER[0]),
               ["factors"])
    runs.judge(plan.check(runs.first), [step for step, _ in plan.steps])

    scale = CALIBRATION_REF_S / statistics.fmean(cals)
    wall_s = statistics.fmean(walls) * scale
    values = {
        "wall_s": (wall_s, walls, "s"),
        "cpu_s": (statistics.fmean(cpus) * scale, cpus, "s"),
        "rows_per_s": (plan.rows / wall_s, [plan.rows / w for w in walls], "1/s"),
        "peak_rss_mb": (statistics.median(rss), rss, "MB"),
        "setup_s": (statistics.fmean(setup) * scale, setup, "s"),
    }
    metrics = {}
    for name, (value, raw, unit) in values.items():
        metrics[name] = {"value": value, "unit": unit}
        q1, q3 = _quartiles(raw)
        print(f"{name}: {value:.6g} {unit} of n={len(raw)}; raw median "
              f"{statistics.median(raw):.6g}, q1 {q1:.6g}, q3 {q3:.6g}")
    q1, q3 = _quartiles(cals)
    print(f"calibration: mean {statistics.fmean(cals):.6g} s of n={len(cals)} "
          f"(q1 {q1:.6g}, q3 {q3:.6g}); reference {CALIBRATION_REF_S} s, scale {scale:.4g}")
    return metrics, runs


# ---------------------------------------------------------------------------
# --trace 1: in-process runs with spans, the per-layer metrics
# ---------------------------------------------------------------------------

def _in_process(plan: Plan, work: Path, runs: Runs, cli, tracer: Tracer | None):
    """Run every step through cli.main; returns (CPU seconds in main, stderr lines).

    CPU time of this process, not wall time, so that host contention does not
    swamp the difference between a traced and an untraced pass.
    """
    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    elapsed, stderr_lines = 0.0, 0
    for step, args in plan.steps:
        if tracer is not None:
            tracer.request = step
        out, err = work / f"{step}.out", work / f"{step}.err"
        with open(out, "w", encoding="utf-8") as stdout, open(err, "w", encoding="utf-8") as stderr:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                # cli.main calls logging.basicConfig, which binds the stderr
                # of the first call only; drop that handler between calls.
                logging.root.handlers.clear()
                t0 = time.process_time()
                try:
                    code = main(args)
                except Exception:  # a crash is a failed run, not a benchmark crash
                    traceback.print_exc(file=sys.__stderr__)
                    code = -1
                elapsed += time.process_time() - t0
        logging.root.handlers.clear()
        runs.record(step, code, out.read_bytes())
        with open(err, "rb") as f:
            stderr_lines += sum(1 for _ in f)
    return elapsed, stderr_lines


def measure_traced(plan: Plan, seconds: int, work: Path, spans_path: Path):
    import ecodiag.cli

    modules = {"cli": ecodiag.cli}
    for name in ("report", "engine"):
        with contextlib.suppress(ImportError):
            modules[name] = importlib.import_module(f"ecodiag.{name}")
    runs = Runs()
    passes, span_log = [], []
    # Warm-up: the first pass grows the heap, which later passes reuse.
    _in_process(plan, work, runs, ecodiag.cli, None)
    start, last = time.perf_counter(), 0.0
    while len(passes) < MIN_TRACED_PASSES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        timings = {}
        # Alternate which pass goes first so neither always runs on a cold heap.
        for traced in (True, False) if len(passes) % 2 == 0 else (False, True):
            tracer = Tracer(modules) if traced else None
            with tracer or contextlib.nullcontext():
                timings[traced] = (*_in_process(plan, work, runs, ecodiag.cli, tracer), tracer)
        traced_s, stderr_lines, tracer = timings[True]
        layers = layer_metrics(tracer.spans, tracer.counts)
        layers["cli.stderr_lines"] = stderr_lines
        layers["trace.overhead_s"] = traced_s - timings[False][0]
        if not passes and tracer.missing:
            print(f"trace: not found, their metrics read 0: {', '.join(tracer.missing)}")
        passes.append(layers)
        span_log.append(tracer.spans)
        last = time.perf_counter() - t0

    spans_path.write_text(json.dumps(
        [[dict(zip(("id", "parent", "request", "name", "start", "end", "notes"), s)) for s in spans]
         for spans in span_log]), encoding="utf-8")
    runs.judge(plan.check(runs.first), [step for step, _ in plan.steps])
    values = medians(passes)
    print(f"traced passes: {len(passes)}; spans written to {spans_path.relative_to(ROOT)}")
    report_shape(plan.expect, values)
    return {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}, runs


def report_shape(expect: dict, m: dict) -> None:
    """Print the predicted per-layer shape next to what was measured."""
    def line(ok: bool, text: str) -> None:
        print(f"shape {'ok       ' if ok else 'DEVIATION'}: {text}")

    largest = max(LAYER_TIMES, key=m.__getitem__)
    line(largest in expect["largest"],
         f"largest layer is {largest} ({m[largest]:.3f} s); predicted {' or '.join(expect['largest'])}")
    calls = m["engine.compute_calls"]
    line(calls == expect["compute_calls"],
         f"engine.compute_calls = {calls:g} in the busiest CLI run; "
         f"predicted {expect['compute_calls']}")
    applied = m["report.apply_scenario_s"] > 0
    line(applied == expect["scenario"],
         f"report.apply_scenario_s = {m['report.apply_scenario_s']:.4f} s; "
         f"predicted {'non-zero' if expect['scenario'] else 'zero'}")
    ratio, want = m["engine.usage_evals_per_asset"], expect["usage_evals_per_asset"]
    line(abs(ratio - want) <= 0.01 * want,
         f"engine.usage_evals_per_asset = {ratio:.4f}; predicted {want:.4f} (1 + rooms x pool share)")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: in-process traced run reporting per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ecodiag" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"perfbench: {ROOT} holds no ecodiag checkout (src/ecodiag, tests/oracle.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    oracle = gate.load_oracle(ROOT)

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, work, oracle)
        if args.trace:
            spans_path = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
            metrics, runs = measure_traced(plan, args.seconds, work, spans_path)
        else:
            metrics, runs = measure_cli(plan, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = runs.tally()
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    for problem in runs.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
