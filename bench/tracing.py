"""Spans around the package's public functions, from outside the package.

`Tracer.install` replaces each traced function at the names its callers
use (`feketeca.cli.out_size_bruteforce`, `feketeca.analysis.find_orphan`,
...) with a wrapper that records a span: name, start, end, parent span
and query id, plus the call's arguments and result so that counters can
be computed from public return values after the pass.  `uninstall` puts
the originals back, so untraced passes run the package untouched.
"""

from __future__ import annotations

import importlib
import inspect
import re
import statistics
from dataclasses import dataclass
from time import perf_counter

from reference import Rule

# Caller modules whose public function names are all wrapped, and single
# names wrapped where their callers look them up.
_CALLER_MODULES = ("feketeca.cli", "feketeca.analysis", "feketeca.counting")
_SINGLE_NAMES = (
    ("feketeca.subadditive", "running_infimum"),
    ("feketeca.ca", "minkowski_sum"),
)
_SKIP = {"entrypoint"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    query: int
    args: tuple = ()
    result: object = None
    error: str | None = None  # exception class name


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.query, args)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        targets = []
        for mod_name in _CALLER_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and attr not in _SKIP
                    and value.__module__.startswith("feketeca.")
                ):
                    targets.append((mod, attr, value))
        for mod_name, attr in _SINGLE_NAMES:
            mod = importlib.import_module(mod_name)
            if inspect.isfunction(getattr(mod, attr, None)):
                targets.append((mod, attr, getattr(mod, attr)))
        # a function imported into several callers gets one wrapper each
        for mod, attr, fn in targets:
            short = fn.__module__.rsplit(".", 1)[-1]
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{short}.{fn.__name__}", fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


# ------------------------------------------------------------ layer table


def _inputs(ca, sides) -> int:
    """q^|E+N| for a box at the origin: the inputs a full enumeration visits."""
    sides = (sides,) if isinstance(sides, int) else tuple(sides)
    return Rule(ca.dimension, ca.state_count, ca.neighborhood, ca.rule_table).inputs(sides)


def _detail_int(detail: str, key: str) -> int | None:
    m = re.search(rf"{key}=(\d+)", detail or "")
    return int(m.group(1)) if m else None


def _enumerated(span: Span) -> int:
    """Inputs a brute-force span enumerated; the fast 1D path expands every
    word of full windows, q^(n+m-1), gaps in the neighbourhood included."""
    ca, sides = span.args[0], span.args[1]
    if span.name == "counting.out_size_bruteforce" and span.result.detail == "fast-1d":
        offs = [o[0] for o in ca.neighborhood]
        return ca.state_count ** (span.result.sides[0] + max(offs) - min(offs))
    return _inputs(ca, sides)


def _sampling_defaults() -> tuple[int, int]:
    from feketeca.subadditive import check_subadditivity

    params = inspect.signature(check_subadditivity).parameters
    return params["exhaustive_limit"].default, params["samples"].default


PER_LAYER = {
    # name: unit; "computed" counters come from public return values
    "counting.out_size_bruteforce_s": "s",
    "counting.out_size_bruteforce.calls": "count",
    "counting.inputs_enumerated": "count",
    "counting.inputs_per_s": "1/s",
    "counting.chunks": "count",
    "counting.fast1d_calls": "count",
    "counting.distinct_per_input": "ratio",
    "counting.find_orphan_s": "s",
    "counting.find_orphan.calls": "count",
    "analysis.boxes_scanned": "count",
    "counting.out_size_transfer_1d_s": "s",
    "counting.out_size_transfer_1d.calls": "count",
    "counting.live_subsets_max": "count",
    "counting.subset_steps": "count",
    "counting.decide_surjectivity_1d_s": "s",
    "counting.decide_surjectivity_1d.calls": "count",
    "counting.decide_surjectivity_1d.refused": "count",
    "counting.budget_refusals": "count",
    "analysis.lambda_estimate.self_s": "s",
    "analysis.surjectivity_report.self_s": "s",
    "analysis.loss_s": "s",
    "subadditive.check_subadditivity_s": "s",
    "subadditive.triples": "count",
    "subadditive.check_subadditivity_on_table_s": "s",
    "subadditive.fekete_limit_estimate_s": "s",
    "subadditive.running_infimum_s": "s",
    "subadditive.boxes_evaluated": "count",
    "ca.minkowski_sum_s": "s",
    "ca.minkowski_sum.calls": "count",
    "cli.self_s": "s",
    "trace.spans": "count",
    "trace.overhead": "ratio",
}
COMPUTED = {
    "counting.inputs_enumerated", "counting.inputs_per_s", "counting.chunks",
    "counting.fast1d_calls", "counting.distinct_per_input", "analysis.boxes_scanned",
    "counting.live_subsets_max", "counting.subset_steps", "subadditive.triples",
    "subadditive.boxes_evaluated",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ok(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name and s.error is None]


def query_counters(spans: list[Span]) -> dict[int, dict]:
    """Computed counters per query id."""
    out: dict[int, dict] = {}
    limit, samples = _sampling_defaults()
    for s in spans:
        c = out.setdefault(s.query, {"inputs_enumerated": 0, "live_subsets_max": 0,
                                     "subset_steps": 0, "triples": 0})
        if s.error is not None:
            continue
        if s.name in ("counting.out_size_bruteforce", "counting.find_orphan"):
            c["inputs_enumerated"] += _enumerated(s)
        elif s.name == "counting.out_size_transfer_1d":
            lives = [_detail_int(r.detail, "subsets") or 0 for r in s.result]
            c["live_subsets_max"] = max([c["live_subsets_max"], *lives])
            c["subset_steps"] += s.args[0].state_count * sum(lives)
        elif s.name == "subadditive.subadditivity_triple_count":
            c["triples"] += s.result if s.result <= limit else samples
    return out


def layer_table(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (overhead is filled in by the caller)."""
    summary = span_summary(spans)
    counters = query_counters(spans).values()

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def own(name):
        return summary.get(name, {}).get("self_s", 0.0)

    brute = _ok(spans, "counting.out_size_bruteforce")
    brute_inputs = sum(_enumerated(s) for s in brute)
    inputs = sum(c["inputs_enumerated"] for c in counters)
    enum_s = total("counting.out_size_bruteforce") + total("counting.find_orphan")
    reports = _ok(spans, "analysis.surjectivity_report")
    refused = [s for s in spans if s.name.startswith("counting.") and s.error == "BudgetExceeded"]
    return {
        "counting.out_size_bruteforce_s": total("counting.out_size_bruteforce"),
        "counting.out_size_bruteforce.calls": calls("counting.out_size_bruteforce"),
        "counting.inputs_enumerated": inputs,
        "counting.inputs_per_s": inputs / enum_s if enum_s else 0.0,
        "counting.chunks": sum(_detail_int(s.result.detail, "chunks") or 0 for s in brute),
        "counting.fast1d_calls": sum(s.result.detail == "fast-1d" for s in brute),
        "counting.distinct_per_input": (
            sum(s.result.out_size for s in brute) / brute_inputs if brute_inputs else 0.0
        ),
        "counting.find_orphan_s": total("counting.find_orphan"),
        "counting.find_orphan.calls": calls("counting.find_orphan"),
        # boxes the d >= 2 orphan scan enumerated: the cleared ones plus the orphan's
        "analysis.boxes_scanned": sum(
            len(s.result.cleared) + (s.result.certificate is not None)
            for s in reports
            if s.args[0].dimension >= 2
        ),
        "counting.out_size_transfer_1d_s": total("counting.out_size_transfer_1d"),
        "counting.out_size_transfer_1d.calls": calls("counting.out_size_transfer_1d"),
        "counting.live_subsets_max": max((c["live_subsets_max"] for c in counters), default=0),
        "counting.subset_steps": sum(c["subset_steps"] for c in counters),
        "counting.decide_surjectivity_1d_s": total("counting.decide_surjectivity_1d"),
        "counting.decide_surjectivity_1d.calls": calls("counting.decide_surjectivity_1d"),
        "counting.decide_surjectivity_1d.refused": sum(
            s.name == "counting.decide_surjectivity_1d" for s in refused
        ),
        # raised refusals, plus d >= 2 scans that ran out of budget
        "counting.budget_refusals": len(refused)
        + sum(s.result.status.value == "UNKNOWN" for s in reports),
        "analysis.lambda_estimate.self_s": own("analysis.lambda_estimate"),
        "analysis.surjectivity_report.self_s": own("analysis.surjectivity_report"),
        "analysis.loss_s": total("analysis.loss"),
        "subadditive.check_subadditivity_s": total("subadditive.check_subadditivity"),
        "subadditive.triples": sum(c["triples"] for c in counters),
        "subadditive.check_subadditivity_on_table_s": total("subadditive.check_subadditivity_on_table"),
        "subadditive.fekete_limit_estimate_s": total("subadditive.fekete_limit_estimate"),
        "subadditive.running_infimum_s": total("subadditive.running_infimum"),
        "subadditive.boxes_evaluated": sum(
            len(s.result.evaluated_boxes) for s in _ok(spans, "subadditive.running_infimum")
        ),
        "ca.minkowski_sum_s": total("ca.minkowski_sum"),
        "ca.minkowski_sum.calls": calls("ca.minkowski_sum"),
        "cli.self_s": sum(row["self_s"] for name, row in summary.items() if name.startswith("cli.")),
        "trace.spans": len(spans),
    }


def median_table(tables: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(t[k] for t in tables) for k in tables[0]}


def span_records(spans: list[Span]) -> list[dict]:
    """Spans as plain records, times in seconds from the first span's start."""
    origin = spans[0].start if spans else 0.0
    return [
        {"name": s.name, "start": s.start - origin, "end": s.end - origin,
         "parent": s.parent, "query": s.query, **({"error": s.error} if s.error else {})}
        for s in spans
    ]


def span_summary(spans: list[Span]) -> dict[str, dict]:
    """Calls, total seconds and self seconds per span name."""
    out: dict[str, dict] = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return out
