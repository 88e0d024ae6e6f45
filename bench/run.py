#!/usr/bin/env python3
"""The kuwalls benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; kuwalls is imported from ``src``.
``--workload`` is ``cli-readme``, ``wall-queries``, ``root-enumeration`` or
``all`` (each workload in its own fresh process, one after the other).
Inputs come from ``--seed``; the timed phase lasts ``--seconds`` of request
time, in whole blocks.  With ``--trace 0`` the run reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics from spans around every
call into kuwalls.  Times are scaled to one reference CPU speed (see
``speed.py``).  Every output is checked (see ``oracle.py``).  A table
with units and sample counts goes to stdout, and the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md in this directory explains the workloads and
metrics.
"""

import argparse
import compileall
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from pathlib import Path

import gen
import oracle
import speed
import workloads
from tracer import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("cli-readme", "wall-queries", "root-enumeration")
NULL = NullTracer()

SETUPS = {"cli-readme": 15, "wall-queries": 9, "root-enumeration": 9}
#: Whole blocks run twice, traced, to get the count metrics (and show they repeat).
COUNT_BLOCKS = {"wall-queries": 2, "root-enumeration": 1}
#: In-process replays of the CLI commands and of ``check --all``; even, so
#: that each check call runs traced first in exactly half of them.
REPLAYS = 4
FLOOR_RUNS = 5

IMPORT_MODULES = (
    "kuwalls", "kuwalls.chern", "kuwalls.tilt", "kuwalls.walls", "kuwalls.kulattice", "kuwalls.delpezzo",
    "kuwalls.catalog", "kuwalls.checks", "kuwalls.diagram", "kuwalls.cli",
    "argparse", "json", "concurrent.futures",
)
CHECK_NAMES = (
    "check_euler_matrix", "check_unique_wall", "check_decomposition", "check_discriminant_window",
    "check_rotation", "check_self_pairing", "check_ext_tables", "check_root_line_counts",
    "check_line_pairing_and_differences", "check_nef_interior", "check_surface_chi_triple",
    "check_degree_identity", "check_ku_membership", "check_catalog", "check_chambers",
)
CLI_NAMES = tuple(name for name, _ in gen.CLI_COMMANDS)
IMPORT_PROBE = "import time; t = time.perf_counter(); import kuwalls.cli; print(time.perf_counter() - t)"

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.import.{module}_us": "us" for module in IMPORT_MODULES},
    **{f"cli.cmd.{name}_ms": "ms" for name in CLI_NAMES},
    **{f"cli.main.{name}_ms": "ms" for name in CLI_NAMES},
    **{f"checks.{name.removeprefix('check_')}_ms": "ms" for name in CHECK_NAMES},
    "checks.calls": "count",
    "walls.large_busy_ms": "ms",
    "walls.small_busy_ms": "ms",
    "walls.calls": "count",
    "walls.points_visited": "count",
    "walls.candidates": "count",
    "walls.yield_ratio": "ratio",
    **{f"{layer}.{kind}": unit for layer in ("chern", "tilt", "kulattice", "catalog", "diagram") for kind, unit in (("calls", "count"), ("busy_ms", "ms"))},
    "diagram.svg_bytes": "bytes",
    "delpezzo.enumerate_dp1_ms": "ms",
    "delpezzo.saturation_ms": "ms",
    "delpezzo.enumerate_small_ms": "ms",
    "delpezzo.combinatorics_ms": "ms",
    "delpezzo.calls": "count",
    "delpezzo.vectors_found": "count",
    "bench.glue_ms": "ms",
    "trace.overhead_pct": "%",
}


class Tally:
    """Checked operations and failures; the first few failures go to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAIL {label}: {'; '.join(problems[:3])}", file=sys.stderr)


class Run:
    """State of one benchmark run: its tally, samples and metrics."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tally = Tally()
        self.samples: dict[str, int] = {}
        self.metrics: dict[str, float] = {}
        self.raw: dict[str, float] = {}

    def latency_metrics(self, latencies: list[float], scales: list[float]) -> None:
        """ops/s, p50 and p90 of the scaled request times (see speed.py), and of the raw ones."""
        scaled = [t * f for t, f in zip(latencies, scales)]
        for metrics, times in ((self.metrics, scaled), (self.raw, latencies)):
            metrics["ops_per_s"] = len(times) / sum(times)
            metrics["latency_p50_ms"] = statistics.median(times) * 1e3
            metrics["latency_p90_ms"] = statistics.quantiles(times, n=10)[8] * 1e3
        for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
            self.samples[name] = len(latencies)

    def setup_metric(self, setups: list[float], scales: list[float]) -> None:
        self.metrics["setup_s"] = statistics.median(t * f for t, f in zip(setups, scales))
        self.raw["setup_s"] = statistics.median(setups)
        self.samples["setup_s"] = len(setups)


# ---------------------------------------------------------------- in process


def make_executor(workload: str, workdir: Path):
    if workload == "wall-queries":
        return workloads.WallQueries(workdir / "query.svg"), oracle.check_wall_query
    return workloads.RootEnumeration(), oracle.check_root_query


def timed_request(executor, check, q, tr, tally: Tally, label: str, request_id: int | None = None) -> float:
    """Seconds spent in ``execute``; the output check runs with the clock stopped."""
    executor.prepare(q)
    start = time.perf_counter()
    try:
        result = tr.request(request_id, executor.execute, q, tr)
    except Exception as exc:  # a request that raises is a failed request; the run goes on
        elapsed = time.perf_counter() - start
        tally.record(label, [f"raised {exc!r}"])
        return elapsed
    elapsed = time.perf_counter() - start
    tally.record(label, check(q, executor.outcome(q, result)))
    return elapsed


def set_up(run: Run, workdir: Path):
    """Import kuwalls afresh and run the warm-up pass, which fills the caches.

    Returns the seconds taken and the executor and check for the timed phase.
    """
    for name in [name for name in sys.modules if name == "kuwalls" or name.startswith("kuwalls.")]:
        del sys.modules[name]
    start = time.perf_counter()
    executor, check = make_executor(run.workload, workdir)
    results = []
    for q in gen.WARMUP[run.workload]:
        executor.prepare(q)
        results.append((q, executor.execute(q, NULL)))
    seconds = time.perf_counter() - start
    for q, result in results:
        run.tally.record(f"warm-up {q}", check(q, executor.outcome(q, result)))
    return seconds, executor, check


def in_process(run: Run, workdir: Path) -> None:
    bracket = speed.Bracket()
    setups = []
    for _ in range(SETUPS[run.workload]):
        seconds, executor, check = set_up(run, workdir)
        setups.append((seconds, bracket.mark()))
    latencies: list[float] = []
    ops: list[int] = []
    block = 0
    while sum(latencies) < run.seconds:
        for i, q in enumerate(gen.BLOCKS[run.workload](run.seed, block)):
            latencies.append(timed_request(executor, check, q, NULL, run.tally, f"block {block} request {i} {q}"))
            ops.append(bracket.mark())
        block += 1
    run.latency_metrics(latencies, [bracket.factor(op) for op in ops])
    run.setup_metric([t for t, _ in setups], [bracket.factor(op) for _, op in setups])
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def count_pass(run: Run, executor, check) -> dict[str, float]:
    """Deterministic work counts over the first COUNT_BLOCKS blocks of the seed."""
    tr = Tracer()
    points = candidates = svg_bytes = vectors = 0
    rid = 0
    for block in range(COUNT_BLOCKS[run.workload]):
        for q in gen.BLOCKS[run.workload](run.seed, block):
            executor.prepare(q)
            result = tr.request(rid, executor.execute, q, tr)
            rid += 1
            out = executor.outcome(q, result)
            run.tally.record(f"count pass {q}", check(q, out))
            if run.workload == "wall-queries":
                points += oracle.points_visited(out.chern, q.beta, q.lattice, q.x_bound)
                candidates += sum(len(cands) for _, cands in out.crossings)
                svg_bytes += len(out.svg or b"")
            else:
                vectors += sum(len(v) for v in (out.roots, out.lines, out.roots_sat, out.lines_sat) if v is not None)
    calls, _ = tr.layer_summary()
    counts = {f"{layer}.calls": calls[layer] for layer in ("chern", "tilt", "kulattice", "catalog", "diagram", "walls", "delpezzo")}
    if run.workload == "wall-queries":
        counts.update({
            "walls.points_visited": points,
            "walls.candidates": candidates,
            "walls.yield_ratio": candidates / points,
            "diagram.svg_bytes": svg_bytes,
        })
    else:
        counts["delpezzo.vectors_found"] = vectors
    return counts


def mean_ms(total_s: float, n: int) -> float:
    return total_s / n * 1e3 if n else 0.0


def traced_in_process(run: Run, workdir: Path) -> None:
    _, executor, check = set_up(run, workdir)
    first, second = count_pass(run, executor, check), count_pass(run, executor, check)
    run.tally.record("work counts repeat", [] if first == second else [f"{first} != {second}"])
    run.metrics.update(first)

    # Each block runs twice, untraced and traced, in alternating order; the
    # difference is the tracing overhead.
    tr = Tracer()
    requests = {}
    timed = []
    bracket = speed.Bracket()
    block = 0
    while sum(t for _, t, _ in timed) < run.seconds:
        queries = gen.BLOCKS[run.workload](run.seed, block)
        for traced in ((False, True) if block % 2 == 0 else (True, False)):
            for i, q in enumerate(queries):
                label = f"block {block} request {i} {q}"
                if traced:
                    rid = len(requests)
                    requests[rid] = q
                    t = timed_request(executor, check, q, tr, run.tally, label, rid)
                else:
                    t = timed_request(executor, check, q, NULL, run.tally, label)
                timed.append((traced, t, bracket.mark()))
        block += 1
    spent = Counter()
    for traced, t, op in timed:
        spent[traced] += t * bracket.factor(op)
    run.metrics["trace.overhead_pct"] = 100 * (spent[True] - spent[False]) / spent[False]
    scale = bracket.run_factor()

    by_name: Counter = Counter()
    by_layer: Counter = Counter()
    for span, own in zip(tr.spans, tr.self_times()):
        q = requests[span.request]
        key = span.name
        if run.workload == "root-enumeration" and span.name.startswith("delpezzo.enumerate_"):
            key = "saturation" if span.name.endswith(":extra_box") else ("dp1" if q.dp == 1 else "small")
        by_name[key] += own * scale
        by_layer[span.layer] += own * scale
    n = len(requests)
    for layer in ("chern", "tilt", "kulattice", "catalog", "diagram"):
        run.metrics[f"{layer}.busy_ms"] = mean_ms(by_layer[layer], n)
    run.metrics["bench.glue_ms"] = mean_ms(by_layer["bench"], n)
    if run.workload == "wall-queries":
        sizes = Counter(q.size for q in requests.values())
        for size in ("small", "large"):
            run.metrics[f"walls.{size}_busy_ms"] = mean_ms(by_name[f"walls.chamber_report:{size}"], sizes[size])
    else:
        qs = list(requests.values())
        run.metrics["delpezzo.enumerate_dp1_ms"] = mean_ms(by_name["dp1"], sum(q.dp == 1 for q in qs))
        run.metrics["delpezzo.saturation_ms"] = mean_ms(by_name["saturation"], sum(q.saturate for q in qs))
        run.metrics["delpezzo.enumerate_small_ms"] = mean_ms(by_name["small"], sum(q.dp != 1 for q in qs))
        combinatorics = sum(
            by_name[name]
            for name in ("delpezzo.PicVector:pairing", "delpezzo.root_as_line_difference", "delpezzo.nef_position")
        )
        run.metrics["delpezzo.combinatorics_ms"] = mean_ms(combinatorics, sum(q.dp == 2 for q in qs))
    write_trace(run, tr)


def write_trace(run: Run, tr: Tracer) -> None:
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tr.write(traces / f"{run.workload}-seed{run.seed}.jsonl")


# ---------------------------------------------------------------- cli-readme


def check_cli(run: Run, cli, name: str, proc, reference: dict, label: str) -> None:
    svg = cli.read_svg(name)
    if name not in reference:
        reference[name] = (proc.returncode, proc.stdout, svg)
        problems = oracle.check_cli_output(name, proc.returncode, proc.stdout, svg)
    else:
        problems = [] if (proc.returncode, proc.stdout, svg) == reference[name] else [f"{name}: output differs from its first run"]
    run.tally.record(label, problems)


def cli_loop(run: Run, cli, tr, bracket: speed.Bracket, reference: dict) -> list[tuple[str, float, int]]:
    """Rounds of the CLI commands as fresh processes until ``seconds`` of request time.

    Returns (command, wall seconds, bracket op) per request.
    """
    requests = []
    round_ = 0
    while sum(elapsed for _, elapsed, _ in requests) < run.seconds:
        for name in gen.cli_block(run.seed, round_):
            if cli.svg_path.exists():
                cli.svg_path.unlink()
            elapsed, proc = tr.request(len(requests), tr.call, f"cli.subprocess:{name}", cli.command, name)
            requests.append((name, elapsed, bracket.mark()))
            check_cli(run, cli, name, proc, reference, f"round {round_} {name}")
        round_ += 1
    return requests


def cli_readme(run: Run, workdir: Path) -> None:
    cli = workloads.Cli(SRC, workdir)
    bracket = speed.Bracket()
    setups, setup_ops = [], []
    for _ in range(SETUPS[run.workload]):
        elapsed, proc = cli.run(["-m", "kuwalls.cli", "--version"])
        setups.append(elapsed)
        setup_ops.append(bracket.mark())
        run.tally.record("--version", [] if proc.returncode == 0 and proc.stdout.startswith("kuwalls ") else [proc.stderr[-300:]])
    requests = cli_loop(run, cli, NULL, bracket, {})
    run.setup_metric(setups, [bracket.factor(op) for op in setup_ops])
    run.latency_metrics([elapsed for _, elapsed, _ in requests], [bracket.factor(op) for _, _, op in requests])
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def parse_importtime(stderr: str) -> dict[str, int]:
    """Self microseconds per module from ``python -X importtime`` output."""
    own = {}
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if match:
            own[match.group(2)] = int(match.group(1))
    return own


def module_self_us(own: dict[str, int], module: str) -> int:
    """A kuwalls module's own self time; a stdlib package's summed with its submodules'."""
    if module.startswith("kuwalls"):
        return own.get(module, 0)
    return sum(us for name, us in own.items() if name == module or name.startswith(module + "."))


def cli_floor(run: Run, cli, bracket: speed.Bracket) -> None:
    """Interpreter floor, fresh-import time and per-module import self times."""
    samples = defaultdict(list)  # metric -> [(value, bracket op)]
    for _ in range(FLOOR_RUNS):
        elapsed, proc = cli.run(["-c", "pass"])
        samples["cli.interpreter_ms"].append((elapsed * 1e3, bracket.mark()))
        run.tally.record("python -c pass", [] if proc.returncode == 0 else [proc.stderr[-300:]])
        _, proc = cli.run(["-c", IMPORT_PROBE])
        op = bracket.mark()
        try:
            samples["cli.import_ms"].append((float(proc.stdout) * 1e3, op))
            run.tally.record("import kuwalls.cli", [])
        except ValueError:
            run.tally.record("import kuwalls.cli", [proc.stderr[-300:]])
        _, proc = cli.run(["-c", "import kuwalls.cli"], python_flags=("-X", "importtime"))
        op = bracket.mark()
        own = parse_importtime(proc.stderr)
        run.tally.record("-X importtime", [] if "kuwalls.cli" in own else ["no kuwalls.cli in -X importtime output"])
        for module in IMPORT_MODULES:
            samples[f"cli.import.{module}_us"].append((module_self_us(own, module), op))
    for name, values in samples.items():
        run.metrics[name] = statistics.median(value * bracket.factor(op) for value, op in values)
        run.raw[name] = statistics.median(value for value, _ in values)


def replay_main(run: Run, cli, tr: Tracer, bracket: speed.Bracket, reference: dict) -> None:
    """Each command in process through ``cli.main(argv)``; stdout must match the subprocess's."""
    (cli_mod,) = workloads.load_modules("cli")
    times = defaultdict(list)  # command -> [(seconds, bracket op)]
    for _ in range(REPLAYS):
        for name in CLI_NAMES:
            buffer = io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(buffer):
                try:
                    code = tr.call(f"cli.main:{name}", cli_mod.main, list(cli.commands[name]))
                except SystemExit as exc:  # argparse ends --version this way
                    code = exc.code
            times[name].append((time.perf_counter() - start, bracket.mark()))
            same = reference.get(name, (None, None))[:2] == (code, buffer.getvalue())
            run.tally.record(f"cli.main {name}", [] if same else [f"{name}: in-process output differs from the subprocess's"])
    for name in CLI_NAMES:
        run.metrics[f"cli.main.{name}_ms"] = statistics.median(t * bracket.factor(op) for t, op in times[name]) * 1e3


def replay_checks(run: Run, tr: Tracer, bracket: speed.Bracket) -> None:
    """``check --all`` as the individual check_*(d) calls, each run traced and untraced back to back."""
    (checks,) = workloads.load_modules("checks")
    spent = Counter()  # traced / untraced seconds, each call run both ways back to back
    replays = []  # (traced seconds per check, calls, bracket op)
    for replay in range(REPLAYS):
        per_check = Counter()
        n = 0
        for d in gen.DEGREES:
            for name in CHECK_NAMES:
                fn = getattr(checks, name, None)
                if fn is None:
                    continue
                for traced in ((True, False) if (replay + n) % 2 == 0 else (False, True)):
                    start = time.perf_counter()
                    result = (tr if traced else NULL).call(f"checks.{name}", fn, d)
                    elapsed = time.perf_counter() - start
                    spent[traced] += elapsed
                    if traced:
                        per_check[name] += elapsed
                    run.tally.record(f"{name}({d})", [] if result.passed else [result.detail])
                n += 1
        replays.append((per_check, n, bracket.mark()))
    sums = defaultdict(list)
    for per_check, _, op in replays:
        for name in CHECK_NAMES:
            sums[name].append(per_check[name] * bracket.factor(op))
    calls = [n for _, n, _ in replays]
    run.tally.record("checks.calls repeat", [] if len(set(calls)) == 1 else [f"calls per replay {calls}"])
    run.metrics["checks.calls"] = calls[0]
    for name in CHECK_NAMES:
        run.metrics[f"checks.{name.removeprefix('check_')}_ms"] = statistics.median(sums[name]) * 1e3
    run.metrics["trace.overhead_pct"] = 100 * (spent[True] - spent[False]) / spent[False]


def traced_cli_readme(run: Run, workdir: Path) -> None:
    cli = workloads.Cli(SRC, workdir)
    tr = Tracer()
    bracket = speed.Bracket()
    reference: dict = {}
    requests = cli_loop(run, cli, tr, bracket, reference)
    for name in CLI_NAMES:
        mine = [(elapsed, op) for command, elapsed, op in requests if command == name]
        run.metrics[f"cli.cmd.{name}_ms"] = statistics.median(t * bracket.factor(op) for t, op in mine) * 1e3
        run.raw[f"cli.cmd.{name}_ms"] = statistics.median(t for t, _ in mine) * 1e3
    _, busy = tr.layer_summary()
    run.metrics["bench.glue_ms"] = mean_ms(busy["bench"] * bracket.run_factor(), len(requests))
    cli_floor(run, cli, bracket)
    replay_main(run, cli, tr, bracket, reference)
    replay_checks(run, tr, bracket)
    write_trace(run, tr)


# ---------------------------------------------------------------- entry point


def emit(run: Run, trace: bool) -> None:
    names = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(run.metrics.get(name, 0.0)), "unit": unit} for name, unit in names.items()}
    print(f"workload {run.workload}  seed {run.seed}  seconds {run.seconds}  trace {int(trace)}")
    for name, metric in metrics.items():
        n = run.samples.get(name)
        raw = f"raw {run.raw[name]:.4f}" if name in run.raw else ""
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']:6s} {'' if n is None else f'n={n}':8s} {raw}")
    if not trace:
        ratio = run.tally.failed / run.tally.attempted
        print(f"  {'failed_ratio':40s} {ratio:14.4f} {'ratio':6s} {run.tally.failed}/{run.tally.attempted} attempted")
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own fresh process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=175)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        doc = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and doc["correct"]
        merged["attempted"] += doc["attempted"]
        merged["failed"] += doc["failed"]
        merged["metrics"].update({f"{workload}.{name}": m for name, m in doc["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kuwalls" / "__init__.py").is_file():
        print(f"kuwalls sources not found under {SRC}; run from the root of a kuwalls checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the runner and the processes it starts (they inherit it), so
    # the reference kernel in speed.py runs where the timed work runs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        if args.workload == "all":
            return run_all(args)
        compileall.compile_dir(SRC / "kuwalls", quiet=1)
        import kuwalls

        if not Path(kuwalls.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"kuwalls imported from {kuwalls.__file__}, not from {SRC}", file=sys.stderr)
            return 2
        run = Run(args.workload, args.seed, args.seconds)
        trace = bool(args.trace)
        if args.workload == "cli-readme":
            (traced_cli_readme if trace else cli_readme)(run, workdir)
        else:
            (traced_in_process if trace else in_process)(run, workdir)
        emit(run, trace)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
