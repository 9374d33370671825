"""Self-test of the benchmark: smoke-sized runs and a live checker.

    python3 bench/selftest.py

1. Runs a smoke-sized version of every workload through `run.py` (and
   one traced run) and requires exit 0, a well-formed result line and no
   failed query.  The `highq` probe is run and its failed share printed:
   it is not required to pass, because it exposes a known defect.
2. Proves the checker is live: answers that pass are checked again with
   a planted wrong expectation, which must raise the failed share.
3. Runs `run.py` in a directory holding only `BENCHMARK.json` and the
   benchmark's files, where it must exit non-zero without a result.
Exits 0 when every requirement holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import feketeca.cli  # noqa: E402

import run  # noqa: E402
from check import References, check  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import make_workload  # noqa: E402

problems: list[str] = []


def require(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        problems.append(what)


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result


def smoke_runs():
    e2e = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for name in ("enum2d", "mixed1d", "highq"):
        rc, res = bench("--workload", name, "--seed", "1", "--seconds", "0", "--trace", "0", "--smoke")
        require(rc == 0 and res is not None, f"{name}: smoke run exits 0 with a result line")
        if res is None:
            continue
        require(set(res) == {"correct", "attempted", "failed", "metrics"} and res["attempted"] >= 1,
                f"{name}: result has exactly the contract keys")
        require(set(res["metrics"]) == {m["name"] for m in e2e}, f"{name}: every end-to-end metric")
        if name == "highq":
            print(f"     highq failed share {res['failed'] / res['attempted']:.3f} "
                  "(q >= 128 counts; nonzero while the int8 digit defect stands)")
        else:
            require(res["correct"] and res["failed"] == 0, f"{name}: no failed query")
    rc, res = bench("--workload", "automaton1d", "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke")
    require(rc == 0 and res is not None and set(res["metrics"]) == set(PER_LAYER),
            "traced smoke run reports every per-layer metric")


def answers(workload_name: str):
    """Run a smoke workload once in-process; its queries, outcomes, checks."""
    w = make_workload(workload_name, 3, smoke=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        run.write_inputs(w, Path(tmp) / "in")
        outs = [
            run.call(feketeca.cli, [a.replace("{dir}", str(Path(tmp) / "in")) for a in q.argv])[1]
            for q in w.queries
        ]
    return w, outs


def failed(w, outs) -> int:
    refs = References(w, run._load_oracles())
    return sum(not check(q, o, refs).ok for q, o in zip(w.queries, outs))


def planted_expectations():
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    w, outs = answers("automaton1d")
    require(failed(w, outs) == 0, "automaton1d smoke answers pass the checker")
    key, counts = next(iter(w.word_counts.items()))
    count, live = counts[-1]
    counts[-1] = (count + 1, live)  # a wrong expected count, past the oracle's sizes
    require(failed(w, outs) == 2, "a wrong expected count fails both queries of its rule")
    counts[-1] = (count, live)
    fek = next(q for q in w.queries if q.facts.get("planted") is False)
    fek.facts["planted"] = True  # expect a violation the table does not have
    require(failed(w, outs) == 1, "a wrongly planted violation fails its query")
    fek.facts["planted"] = False
    dec = next(q for q in w.queries if q.command == "decide" and not q.facts["permutive"])
    dec.facts["permutive"] = True  # claim the nonsurjective rule is onto
    require(failed(w, outs) == 1, "a wrong surjectivity fact fails its query")


def bare_directory():
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = bench("--workload", "enum1d", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    require(rc != 0 and res is None, "without the package sources the run fails and prints no result")


if __name__ == "__main__":
    smoke_runs()
    planted_expectations()
    bare_directory()
    print("selftest:", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)
