"""Answer checking, outside the timed region.

Every answer is confronted with a route that shares no code with the
package: the frozen tables, recurrence and dominant root and the
enumeration oracle of `tests/oracles.py`, the benchmark's own enumerator
and subset construction (`reference.py`), and facts known by
construction (permutive rules are onto, planted violations must be
found).  A query fails on a wrong answer, an unexpected exception or a
wrong exit code; it is refused when it gives no definite answer.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

import reference as ref
from workloads import Query, Workload

EXIT_CODES = {"PROVED_SURJECTIVE": 0, "NONSURJECTIVE": 10, "UNKNOWN": 20}
DEFAULT_BUDGET = 1 << 30
_ORACLE_MAX_INPUTS = 1 << 12  # pure-Python oracle enumeration up to this size
_LIVE_CAP = 20000  # above this the 1D reference enumerates instead


@dataclass
class Outcome:
    """What one CLI call returned."""

    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None  # repr of an exception main() let escape


@dataclass
class Verdict:
    ok: bool
    refused: bool = False
    why: str = ""
    lambda_width: float | None = None


class Mismatch(Exception):
    pass


def _expect(cond: bool, why: str):
    if not cond:
        raise Mismatch(why)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class References:
    """Reference counts, computed once per (rule, box) and cached."""

    def __init__(self, workload: Workload, oracles):
        self.w = workload
        self.oracles = oracles
        self._codes: dict = {}
        self._words: dict = dict(workload.word_counts)
        self._counts: dict = {}
        self._and1d: dict[int, int] = {}

    def codes(self, key: str, sides) -> "ref.np.ndarray":
        k = (key, tuple(sides))
        if k not in self._codes:
            self._codes[k] = ref.image_codes(self.w.rules[key], sides)
        return self._codes[k]

    def _word_counts(self, key: str, n: int):
        """Reference word counts up to n and to the longest box any query
        asks of this rule, or False past the live cap."""
        have = self._words.get(key)
        if have is None or (have and len(have) < n):
            rule = self.w.rules[key]
            asked = [
                sides[0]
                for q in self.w.queries
                if q.rule == key and q.command in ("out-table", "lambda")
                for sides in query_boxes(q, rule.dim)
            ]
            have = ref.word_counts(rule, max([n, *asked]), live_cap=_LIVE_CAP) or False
            self._words[key] = have
        return have

    def count(self, key: str, sides) -> int:
        sides = tuple(sides)
        if (key, sides) not in self._counts:
            self._counts[key, sides] = self._count(key, sides)
        return self._counts[key, sides]

    def _count(self, key: str, sides: tuple[int, ...]) -> int:
        rule = self.w.rules[key]
        if key in self.w.image_states:
            value = self.w.image_states[key] ** math.prod(sides)
        elif rule.dim == 1:
            words = self._word_counts(key, sides[0])
            value = words[sides[0] - 1][0] if words else int(self.codes(key, sides).size)
        else:
            value = int(self.codes(key, sides).size)
        if rule.q ** math.prod(sides) <= _ORACLE_MAX_INPUTS and rule.inputs(sides) <= _ORACLE_MAX_INPUTS:
            oracle = self.oracles.enumeration_out_size(
                rule.dim, rule.q, rule.offsets, lambda a: rule.table[ref.encode(a, rule.q)], sides
            )
            if oracle != value:
                raise RuntimeError(f"reference routes disagree on {key} {sides}: {value} vs {oracle}")
        frozen = self._frozen(key, sides)
        if frozen is not None and frozen != value:
            raise RuntimeError(f"reference disagrees with frozen {key} {sides}: {value} vs {frozen}")
        return value

    def _frozen(self, key: str, sides) -> int | None:
        o = self.oracles
        if key == "and2d":
            return o.AND2D_OUT.get(sides)
        if key == "and1d":
            n = sides[0]
            if n <= len(o.AND1D_OUT):
                return o.AND1D_OUT[n - 1]
            if n not in self._and1d:
                self._and1d = o.and1d_recurrence(2 * n)
            return self._and1d[n]
        if key == "xor1d":
            return 2 ** sides[0]
        return None


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _parse_sides(token: str) -> tuple[int, ...]:
    return tuple(int(p) for p in token.replace(" ", "").split("x"))


def schedule_boxes(text: str, dim: int) -> list[tuple[int, ...]]:
    if text.startswith("diag:"):
        lo, hi = (int(v) for v in text[5:].split(".."))
        return [(k,) * dim for k in range(lo, hi + 1)]
    return [_parse_sides(t) for t in text.split(",") if t.strip()]


def query_boxes(q: Query, dim: int) -> list[tuple[int, ...]]:
    """Boxes an out-table or lambda query asks for, in request order."""
    if "--schedule" in q.argv:
        return schedule_boxes(_arg(q.argv, "--schedule"), dim)
    if "--sides-list" in q.argv:
        return schedule_boxes(_arg(q.argv, "--sides-list"), dim)
    n = int(_arg(q.argv, "--max-sides"))
    return [tuple(c) for c in itertools.product(range(1, n + 1), repeat=dim)]


def _csv(lines: list[str]) -> list[list[str]]:
    return [line.split(",") for line in lines if line and not line.startswith("#")]


def _check_rows(q: Query, rows, refs: References, boxes, with_loss: bool) -> bool:
    """Check count rows against the references; True if any row was refused."""
    rule = refs.w.rules[q.rule]
    d = rule.dim
    budget = int(_arg(q.argv, "--budget", DEFAULT_BUDGET))
    refused = False
    _expect([tuple(int(v) for v in r[:d]) for r in rows] == boxes, "rows do not match the requested boxes")
    for r, sides in zip(rows, boxes):
        if with_loss and r[-1] != "ok":
            cost = rule.inputs(sides)
            _expect(r[-1] == f"refused: cost {cost} exceeds budget {budget}" and cost > budget,
                    f"unexpected status {r[-1]!r} at {sides}")
            refused = True
            continue
        out = int(r[d])
        want = refs.count(q.rule, sides)
        _expect(out == want, f"out_size {out} != {want} at {sides}")
        vol = math.prod(sides)
        ratio = ref.log_q(want, rule.q) / vol
        _expect(_close(float(r[d + 1 + with_loss]), ratio, 1e-9), f"ratio wrong at {sides}")
        if with_loss:
            _expect(int(r[d + 1]) == rule.q**vol, f"full_size wrong at {sides}")
            _expect(_close(float(r[d + 3]), vol - ratio * vol, 1e-9), f"loss wrong at {sides}")
    return refused


def _check_out_table(q: Query, out: Outcome, refs: References) -> Verdict:
    rule = refs.w.rules[q.rule]
    _expect(out.rc == 0, f"exit {out.rc}")
    rows = _csv(out.stdout.splitlines())
    header = [f"x{i + 1}" for i in range(rule.dim)]
    header += ["out_size", "full_size", "ratio", "lambda_qits", "status"]
    _expect(rows and rows[0] == header, "bad CSV header")
    refused = _check_rows(q, rows[1:], refs, query_boxes(q, rule.dim), with_loss=True)
    return Verdict(True, refused)


_BRACKET = re.compile(r"^lambda bracket: \[([-0-9.e+]+), ([-0-9.e+]+)\]$", re.M)
_RUNNING = re.compile(r"^certified upper bound \(running infimum\): (\S+)$", re.M)


def _check_lambda(q: Query, out: Outcome, refs: References) -> Verdict:
    rule = refs.w.rules[q.rule]
    _expect(out.rc == 0, f"exit {out.rc}")
    text = out.stdout
    _expect("WARNING" not in text, "log-subadditivity warning on exact counts")
    partial = "\npartial: " in text
    m, run = _BRACKET.search(text), _RUNNING.search(text)
    _expect(m is not None and run is not None, "no bracket in the output")
    lo, hi = float(m.group(1)), float(m.group(2))
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("x1,"))
    rows = _csv(lines[start + 1:])
    boxes = query_boxes(q, rule.dim)
    if partial:
        boxes = [b for b in boxes if b in {tuple(int(v) for v in r[: rule.dim]) for r in rows}]
    _check_rows(q, rows, refs, boxes, with_loss=False)
    ratios = [ref.log_q(int(r[rule.dim]), rule.q) / math.prod(b) for r, b in zip(rows, boxes)]
    inf = min(ratios)
    _expect(_close(float(run.group(1)), inf, 1e-9), "running infimum is not the least ratio")
    _expect(abs(hi - min(max(inf, 0.0), 1.0)) <= 1e-6, "bracket top is not the running infimum")
    _expect(0.0 <= lo <= hi, "bracket out of order")
    if q.rule == "and1d":
        root = refs.oracles.LOG2_DOMINANT_ROOT
        _expect(hi >= root - 1e-6 and abs(lo - root) <= 1e-5, "and1d bracket misses the dominant root")
    if q.rule == "xor1d":
        _expect(lo == hi == 1.0, "xor1d bracket is not [1, 1]")
    return Verdict(True, partial, lambda_width=hi - lo)


def _certificate(text: str) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    block = text.split("```")[1].strip().splitlines()
    sides = _parse_sides(block[0].split(":", 1)[1])
    cells = tuple(int(v) for row in block[1:-1] for v in row.split())
    return sides, cells, int(block[-1].split(":", 1)[1])


def _check_decide(q: Query, out: Outcome, refs: References) -> Verdict:
    rule = refs.w.rules[q.rule]
    status = re.search(r"^verdict: (\S+)$", out.stdout, re.M)
    _expect(status is not None and status.group(1) in EXIT_CODES, "no verdict")
    status = status.group(1)
    _expect(out.rc == EXIT_CODES[status], f"exit {out.rc} for {status}")
    permutive = q.facts.get("permutive", False)
    if status == "PROVED_SURJECTIVE":
        _expect(rule.dim == 1, "surjectivity claimed in dimension >= 2")
        _, orphan = ref.reachable_subsets(rule, 1 << 20)
        _expect(orphan is False, "claimed surjective, but an orphan exists")
        return Verdict(True)
    if status == "NONSURJECTIVE":
        _expect(not permutive, "orphan claimed for a permutive rule")
        sides, cells, code = _certificate(out.stdout)
        _expect(len(cells) == math.prod(sides) and ref.encode(cells, rule.q) == code,
                "certificate grid does not match its code")
        codes = refs.codes(q.rule, sides)
        _expect(code == ref.first_missing(codes), "certificate is not the least orphan code at its size")
        if rule.inputs(sides) <= _ORACLE_MAX_INPUTS:
            images = refs.oracles.enumeration_images(
                rule.dim, rule.q, rule.offsets, lambda a: rule.table[ref.encode(a, rule.q)], sides
            )
            _expect(cells not in images, "oracle finds a preimage of the certificate")
        if rule.dim == 1:
            n = sides[0]
            shorter = [refs.count(q.rule, (k,)) == rule.q**k for k in range(1, n)]
            _expect(all(shorter), "a shorter orphan word exists")
        return Verdict(True)
    # UNKNOWN: only an answer in dimension >= 2, where the scan may run out
    _expect(rule.dim >= 2, "UNKNOWN in dimension 1")
    cleared = re.search(r"^cleared sizes: (.*)$", out.stdout, re.M)
    if cleared and not permutive:
        for sides in schedule_boxes(cleared.group(1).replace(" ", ""), rule.dim):
            full = refs.count(q.rule, sides) == rule.q ** math.prod(sides)
            _expect(full, f"cleared size {sides} has an orphan")
    return Verdict(True, refused=True)


# Subadditive builtins: (dimension, least ratio over diag:1..k).
_FEKETE_BUILTINS = {
    "xy+x+y": (2, lambda k: (k * k + 2 * k) / (k * k)),
    "3n": (1, lambda k: 3.0),
}


def _check_fekete(q: Query, out: Outcome, refs: References) -> Verdict:
    if q.facts.get("planted"):
        _expect(out.rc == 1, f"exit {out.rc}: planted violation not reported")
        found = re.search(r"^violations: (\d+)$", out.stdout, re.M)
        _expect(found is not None and int(found.group(1)) >= 1, "no violation listed")
        return Verdict(True)
    _expect(out.rc == 0, f"exit {out.rc}")
    _expect("\nviolations: 0\n" in out.stdout, "violations reported on a subadditive function")
    if "table" in q.facts:
        values = refs.w.values[q.facts["table"]]
        dim = len(_parse_sides(next(iter(values))))
        boxes = schedule_boxes(_arg(q.argv, "--schedule"), dim)
        want = min(values["x".join(map(str, b))] / math.prod(b) for b in boxes)
    else:
        dim, inf = _FEKETE_BUILTINS[q.facts["function"]]
        want = inf(schedule_boxes(_arg(q.argv, "--schedule"), dim)[-1][0])
    got = re.search(r"^running infimum: (\S+)$", out.stdout, re.M)
    _expect(got is not None and _close(float(got.group(1)), want, 1e-9), "running infimum wrong")
    return Verdict(True)


_CHECKS = {
    "out-table": _check_out_table,
    "lambda": _check_lambda,
    "decide": _check_decide,
    "fekete": _check_fekete,
}


def check(q: Query, out: Outcome, refs: References) -> Verdict:
    if out.error is not None:
        return Verdict(False, why=f"exception: {out.error}")
    try:
        return _CHECKS[q.command](q, out, refs)
    except Mismatch as exc:
        return Verdict(False, why=str(exc))
    except (ValueError, IndexError, StopIteration) as exc:  # unparseable output
        return Verdict(False, why=f"unparseable output: {exc!r}")
