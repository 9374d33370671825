"""feketeca benchmark: the four CLI subcommands on seeded automata.

Run from the root of a source checkout:

    python3 bench/run.py --workload enum2d --seed 1 --seconds 40 --trace 0

Queries run in-process through `feketeca.cli.main(argv)` as a closed
loop: one client, no threads, the next query sent when the last returns.
The workload's fixed query list is run in passes for about `--seconds`
and until at least 100 query latencies were measured.  The first
pass's answers are checked against independent routes after the
timed passes; later passes must repeat them exactly.  With `--trace 0` the last
stdout line is a JSON object with the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and it holds the
per-layer table of the traced passes, including the tracing overhead.
A full record (stamps, per-query numbers, spans) is written to
`.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from check import Outcome, References, check
from tracing import (
    COMPUTED,
    PER_LAYER,
    Tracer,
    layer_table,
    median_table,
    query_counters,
    span_records,
    span_summary,
)
from workloads import WORKLOADS, make_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT_DIR = ROOT / ".bench_out"
MIN_QUERIES = 100  # so that at least 10 samples lie beyond the p90
MAX_MEASURE_S = 120.0  # stop adding passes past this, whatever the count
SETUP_RUNS = 7

# End-to-end metrics in the JSON line: never zero on any workload.
END_TO_END = {
    "wall_s": "s",
    "query_p50_s": "s",
    "query_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Reported alongside, in the record and the text report: zero or
# undefined on some workloads, so not regression-bounded.
REPORTED = {"failed_frac": "ratio", "refused_frac": "ratio", "lambda_width": "1"}


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref_line = head.read_text().strip()
    if not ref_line.startswith("ref: "):
        return ref_line
    ref_name = ref_line[5:]
    loose = ROOT / ".git" / ref_name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    return "unknown"


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def write_inputs(workload, in_dir: Path) -> str:
    in_dir.mkdir(parents=True)
    for name, doc in workload.files.items():
        (in_dir / name).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return _digest(sorted(in_dir.iterdir()))


def _setup_seconds(argv: list[str]) -> list[float]:
    """Fresh-process `import feketeca` (numpy included) until the first
    query's arguments are parsed and it is ready to run.

    The child prints the system-wide monotonic clock when it is ready,
    so the figure is exact and leaves out interpreter teardown."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import feketeca, feketeca.cli; "
        "feketeca.cli.build_parser().parse_args(sys.argv[2:]); "
        "import time; print(time.clock_gettime(time.CLOCK_MONOTONIC))"
    )
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run([sys.executable, "-c", code, str(SRC), *argv], check=True,
                              timeout=60, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def call(cli, argv: list[str]):
    """Run one query in-process: (seconds, what it printed and returned)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - any escape is a failed query
        rc, error = None, repr(exc)
    elapsed = perf_counter() - t0
    return elapsed, Outcome(rc, out.getvalue(), err.getvalue(), error)


@dataclass
class Passes:
    """What the closed loop measured."""

    first: list  # first-pass outcome of each query: the answers that are checked
    differs: list[int]  # per query, later passes whose output differed
    latency: list[list[float]]  # per query, its seconds in each untraced timed pass
    walls: dict[bool, list[float]]  # traced? -> sum of query seconds per pass
    tables: list[dict]  # per traced pass, its per-layer table
    spans: list  # first traced pass's spans
    executions: int = 0
    passes: int = 0


def run_passes(cli, argvs: list[list[str]], args, tracer: Tracer | None) -> Passes:
    """Timed passes (alternately untraced and traced with a tracer) for
    about `args.seconds`, and without a tracer until at least MIN_QUERIES
    query latencies were measured."""
    n = len(argvs)
    m = Passes([None] * n, [0] * n, [[] for _ in argvs], {False: [], True: []}, [], [])
    start = perf_counter()
    while True:
        traced = tracer is not None and m.passes % 2 == 1
        if traced:
            tracer.install()
        lat = []
        try:
            for i, argv in enumerate(argvs):
                if traced:
                    tracer.query = i
                elapsed, out = call(cli, argv)
                lat.append(elapsed)
                if m.first[i] is None:
                    m.first[i] = out
                elif (out.rc, out.stdout, out.error) != (m.first[i].rc, m.first[i].stdout, m.first[i].error):
                    m.differs[i] += 1
        finally:
            if traced:
                tracer.uninstall()
        m.executions += n
        m.passes += 1
        m.walls[traced].append(sum(lat))
        if traced:
            spans = tracer.take()
            m.tables.append(layer_table(spans))
            m.spans = m.spans or spans
        else:
            for i, t in enumerate(lat):
                m.latency[i].append(t)
        timed = perf_counter() - start
        # stop at the pass count whose end lies nearest to the deadline
        due = timed + 0.5 * timed / m.passes >= min(args.seconds, MAX_MEASURE_S)
        if tracer is not None:
            if due and m.passes % 2 == 0:
                return m  # as many traced passes as untraced ones
        elif timed >= MAX_MEASURE_S or (due and (args.smoke or len(m.walls[False]) * n >= MIN_QUERIES)):
            return m


def run(args) -> int:
    if not (SRC / "feketeca" / "__init__.py").is_file() or not ORACLES.is_file():
        return _fail(f"no package source under {SRC} or no {ORACLES}: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import numpy
    import feketeca
    import feketeca.cli

    if Path(feketeca.__file__).resolve().parents[1] != SRC.resolve():
        return _fail(f"imported feketeca from {feketeca.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    workload = make_workload(args.workload, args.seed, smoke=args.smoke)
    queries = workload.queries
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    in_dir = OUT_DIR / f"inputs-{tag}-{os.getpid()}"
    try:
        inputs_sha = write_inputs(workload, in_dir)
        argvs = [[a.replace("{dir}", str(in_dir)) for a in q.argv] for q in queries]
        setup = _setup_seconds(argvs[0])
        m = run_passes(feketeca.cli, argvs, args, Tracer() if args.trace else None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(in_dir, ignore_errors=True)

    check_t0 = perf_counter()
    refs = References(workload, _load_oracles())
    verdicts = [check(q, out, refs) for q, out in zip(queries, m.first)]
    check_s = perf_counter() - check_t0
    # a wrong answer fails in every pass; a right one wherever it changed
    failed = sum(m.passes if not v.ok else m.differs[i] for i, v in enumerate(verdicts))
    refused = sum(m.passes for v in verdicts if v.refused)
    widths = [v.lambda_width for v in verdicts if v.lambda_width is not None]

    latencies = [t for lat in m.latency for t in lat]
    e2e = {
        "wall_s": statistics.median(m.walls[False]),
        "query_p50_s": statistics.median(latencies),
        "query_p90_s": statistics.quantiles(latencies, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    reported = {
        "failed_frac": failed / m.executions,
        "refused_frac": refused / m.executions,
        "lambda_width": statistics.median(widths) if widths else None,
    }
    layers = None
    if args.trace:
        layers = median_table(m.tables)
        layers["trace.overhead"] = statistics.median(m.walls[True]) / statistics.median(m.walls[False]) - 1.0

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _digest(sorted((SRC / "feketeca").glob("*.py"))),
        "inputs_sha256": inputs_sha,
        "queries_per_pass": len(queries),
        "passes": m.passes,
        "timed_untraced_passes": len(m.walls[False]),
        "executions": m.executions,
        "latency_samples": len(latencies),
        "check_s": round(check_s, 3),
    }
    counters = query_counters(m.spans)
    record = {
        "stamp": stamp,
        "end_to_end": e2e,
        "reported": reported,
        "per_layer": layers,
        "setup_samples_s": setup,
        "pass_walls_s": m.walls[False],
        "traced_pass_walls_s": m.walls[True],
        "queries": [
            {
                "id": i,
                "argv": q.argv,
                "ok": v.ok,
                "refused": v.refused,
                "why": v.why,
                "passes_differing": m.differs[i],
                "latency_s": statistics.median(m.latency[i]),
                **counters.get(i, {}),
            }
            for i, (q, v) in enumerate(zip(queries, verdicts))
        ],
        "span_summary": span_summary(m.spans),
        "spans": span_records(m.spans),
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in stamp.items()))
    for i, v in enumerate(verdicts):
        if not v.ok:
            print(f"FAIL query {i} ({' '.join(queries[i].argv)}): {v.why}")
    for name, value in e2e.items():
        print(f"{name:<14} {value:.6g} {END_TO_END[name]}")
    for name, value in reported.items():
        print(f"{name:<14} {'n/a' if value is None else f'{value:.6g}'} {REPORTED[name]}")
    if layers is not None:
        for name, value in layers.items():
            note = " (computed)" if name in COMPUTED else ""
            print(f"{name:<44} {value:.6g} {PER_LAYER[name]}{note}")

    metrics = (
        {k: {"value": v, "unit": PER_LAYER[k]} for k, v in layers.items()}
        if layers is not None
        else {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    )
    result = {"correct": failed == 0, "attempted": m.executions, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
