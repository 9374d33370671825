"""Seeded workload generation.

A workload is a fixed list of CLI queries plus the JSON input files they
read.  The seed draws only rule tables, offsets and value tables; the
sizes that set each query's cost (cell counts, window spans, schedule
lengths, live-subset bands) are fixed per slot, so the cost of a pass
barely moves with the seed.  Every query carries the facts its checker
needs: the rule as plain data and what is known by construction.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from reference import Rule, decode, reachable_subsets, word_counts

# Built-in automata as documented in the package README, as plain data.
BUILTINS = {
    "and1d": Rule(1, 2, ((0,), (1,)), (0, 0, 0, 1)),
    "xor1d": Rule(1, 2, ((0,), (1,)), (0, 1, 1, 0)),
    "and2d": Rule(2, 2, ((0, 0), (1, 0), (0, 1)), (0, 0, 0, 0, 0, 0, 0, 1)),
}


@dataclass
class Query:
    """One CLI call.  `rule` names an entry of `Workload.rules` (None for
    fekete); `facts` holds what the checker knows by construction."""

    argv: list[str]
    rule: str | None = None
    facts: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    files: dict[str, dict]  # file name -> JSON document
    rules: dict[str, Rule]
    queries: list[Query]
    values: dict[str, dict] = field(default_factory=dict)  # fekete tables
    # rules whose image on every box is all words over r states: key -> r
    image_states: dict[str, int] = field(default_factory=dict)
    # reference (word count, live subsets) per length, from generation
    word_counts: dict[str, list] = field(default_factory=dict)


def _sides_token(sides) -> str:
    return "x".join(str(s) for s in sides)


def _description(rule: Rule) -> dict:
    return {
        "dimension": rule.dim,
        "states": rule.q,
        "neighborhood": [list(o) for o in rule.offsets],
        "rule": {"table": list(rule.table)},
    }


def _random_table(rng: random.Random, q: int, k: int) -> tuple[int, ...]:
    return tuple(rng.randrange(q) for _ in range(q**k))


def _permutive_table(rng: random.Random, q: int, k: int, j: int) -> tuple[int, ...]:
    """A table that permutes the states of neighbour j in every context."""
    perms = {}
    table = []
    for code in range(q**k):
        digits = decode(code, k, q)
        ctx = digits[:j] + digits[j + 1:]
        if ctx not in perms:
            perms[ctx] = rng.sample(range(q), q)
        table.append(perms[ctx][digits[j]])
    return tuple(table)


def _lex_max_index(offsets) -> int:
    """Neighbour whose offset is lexicographically largest.  A rule that
    permutes this neighbour's state is onto on every box (fill the box's
    inputs in lexicographic order and solve for that neighbour), so all
    its counts are q^volume and it has no orphan."""
    return max(range(len(offsets)), key=lambda i: offsets[i])


def _offsets_1d(rng: random.Random, m: int) -> tuple[tuple[int, ...], ...]:
    """Span exactly m, interior gaps at random, shifted to negative
    positions at random, in random neighbourhood order."""
    pos = [0] + [p for p in range(1, m - 1) if rng.random() < 0.5] + ([m - 1] if m > 1 else [])
    shift = rng.randint(-(m - 1), 0)
    offs = [(p + shift,) for p in pos]
    rng.shuffle(offs)
    return tuple(offs)


def _offsets_2d(rng: random.Random, k: int) -> tuple[tuple[int, ...], ...]:
    """k distinct offsets from a 3x3 window shifted into negative positions."""
    dx, dy = rng.randint(-2, 0), rng.randint(-2, 0)
    window = [(x + dx, y + dy) for x in range(3) for y in range(3)]
    return tuple(rng.sample(window, k))


def _boxes_by_cells(rule: Rule, max_side: int = 8) -> dict[int, list[tuple[int, int]]]:
    out: dict[int, list[tuple[int, int]]] = {}
    for a in range(1, max_side + 1):
        for b in range(1, max_side + 1):
            out.setdefault(len(rule.input_cells((a, b))), []).append((a, b))
    return out


# Rejection sampling gives up after this many draws for one slot.
_MAX_DRAWS = 2000


class _Draft:
    """Collects a workload's rules, input files and queries as they are drawn."""

    def __init__(self, name: str):
        self.w = Workload(name, {}, {}, [])

    def rule(self, key: str, rule: Rule, builtin: str | None = None, image_states=None) -> str:
        self.w.rules[key] = rule
        if image_states:
            self.w.image_states[key] = image_states
        doc = {"rule": {"builtin": builtin}} if builtin else _description(rule)
        self.w.files[f"{key}.json"] = doc
        return key

    def query(self, argv: list[str], rule: str | None = None, **facts):
        if rule is not None:
            argv = [argv[0], f"{{dir}}/{rule}.json"] + argv[1:]
        self.w.queries.append(Query(argv, rule, facts))

    def table(self, key: str, values: dict[str, float]):
        self.w.values[key] = values
        self.w.files[f"{key}.json"] = {"values": values}
        return f"{{dir}}/{key}.json"


# ---------------------------------------------------------------- enum2d

# (q, offsets, nested chain of cell counts |E+N|, extra out-table box):
# each seeded rule gets a lambda over the chain, an out-table over the
# chain plus the extra box, and a `decide --budget` scan.  The cost of
# enumerating a box is q^|E+N|, so fixing the cell counts fixes the cost.
_ENUM2D_SLOTS = [
    (2, 3, (9, 13, 17), 19),
    (2, 4, (9, 13, 17), 19),
    (2, 5, (9, 13, 17), 19),
    (2, 3, (9, 13, 17), 19),
    (2, 4, (9, 13, 17), 19),
    (2, 5, (9, 13, 17), 19),
    (3, 3, (6, 9, 12), None),
    (3, 4, (6, 8, 12), None),
]
_ENUM2D_SMOKE = [(2, 3, (6, 9), None), (3, 3, (5, 7), None)]
# Random rules find an orphan at a seed-dependent size, so their scans
# get a small budget; the permutive rules have none and always spend
# the large one, which keeps the scan cost of a pass steady.
_SCAN_BUDGET_2D = 1 << 14
_DECIDE_BUDGET_2D = 1 << 18
_REFUSAL_BUDGET = 1 << 20
_REFUSED_CELLS = 24  # over the refusal budget for q = 2


def _pick_boxes(rng, by_cells, targets) -> list[tuple[int, int]] | None:
    """One box per target cell count, each containing the one before
    (so the lambda bracket has a tail slope), or None if there is none."""
    boxes = []
    for t in targets:
        fits = [b for b in by_cells.get(t, ()) if not boxes or all(x >= y for x, y in zip(b, boxes[-1]))]
        if not fits:
            return None
        boxes.append(rng.choice(fits))
    return boxes


def _enum2d(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"enum2d:{seed}")
    b = _Draft("enum2d")
    and2d = b.rule("and2d", BUILTINS["and2d"], builtin="and2d")
    if smoke:
        b.query(["out-table", "--sides-list", "1x1,2x2,2x3"], and2d)
    else:
        b.query(["out-table", "--max-sides", "3"], and2d)
        b.query(["out-table", "--sides-list", "3x4,2x5"], and2d)
        b.query(["lambda", "--schedule", "1x1,2x2,3x3"], and2d)
    b.query(["decide"], and2d)

    for i, (q, k, chain, extra) in enumerate(_ENUM2D_SMOKE if smoke else _ENUM2D_SLOTS):
        with_refusal = q == 2 and i % 3 == 0
        wanted = [t for t in (extra, _REFUSED_CELLS if with_refusal else None) if t]
        for _ in range(_MAX_DRAWS):
            offsets = _offsets_2d(rng, k)
            rule = Rule(2, q, offsets, _random_table(rng, q, k))
            by_cells = _boxes_by_cells(rule)
            lam_boxes = _pick_boxes(rng, by_cells, chain)
            if lam_boxes and all(t in by_cells for t in wanted):
                break
        else:
            raise RuntimeError(f"enum2d slot {i}: no rule fits its cell targets")
        key = b.rule(f"r{i}", rule)
        out_boxes = lam_boxes + [rng.choice(by_cells[t]) for t in wanted]
        sides = ["--sides-list", ",".join(_sides_token(s) for s in out_boxes)]
        if with_refusal:
            # the last box is over budget: a refused row, not an error
            sides += ["--budget", str(_REFUSAL_BUDGET)]
        b.query(["out-table", *sides], key)
        b.query(["lambda", "--schedule", ",".join(_sides_token(s) for s in lam_boxes)], key)
        b.query(["decide", "--budget", str(_SCAN_BUDGET_2D)], key)

    for i, (q, k) in enumerate([(2, 3), (3, 3)]):
        offsets = _offsets_2d(rng, k)
        rule = Rule(2, q, offsets, _permutive_table(rng, q, k, _lex_max_index(offsets)))
        key = b.rule(f"perm{i}", rule, image_states=q)
        budget = (1 << 12) if smoke else _DECIDE_BUDGET_2D
        b.query(["decide", "--budget", str(budget)], key, permutive=True)
    return b.w


# ------------------------------------------------------------- high q


def _highq(seed: int, smoke: bool) -> Workload:
    """q in [128, 255]: identity or state-permutation rules on one
    neighbour, on 1x1 and 1x2 boxes, where the exact count is q^volume."""
    rng = random.Random(f"highq:{seed}")
    b = _Draft("highq")
    for i in range(4 if smoke else 12):
        q = rng.randint(128, 255)
        offset = (0, 0) if i % 2 == 0 else (rng.randint(-2, 2), rng.randint(-2, 2))
        table = tuple(range(q)) if i % 4 == 0 else tuple(rng.sample(range(q), q))
        key = b.rule(f"h{i}", Rule(2, q, (offset,), table), image_states=q)
        b.query(["out-table", "--sides-list", "1x1,1x2"], key, permutive=True)
    return b.w


# ---------------------------------------------------------------- enum1d

# (q, window span m, log2 of the largest enumeration); the query counts
# every n up to N, with N chosen so that q^(N+m-1) is about 2^e.
# (q, window span m, image states r, N): the query counts every n up to
# N, enumerating q^(N+m-1) window words at the top, up to about 2^22.
# Deduplicating codes costs far more as the number of distinct codes
# grows, so each slot fixes that number: the rule maps a permutive
# rule's output onto r of the q states, making the image on n cells
# exactly r^n words (r = q: the rule is onto).  The slots form four
# tiers of near-equal cost, so the median and p90 latencies each fall
# inside a tier rather than in a gap between two.
_ENUM1D_SLOTS = [
    # about 0.06 s each on a 2 GHz core
    (4, 2, 2, 9), (4, 4, 2, 7), (4, 5, 2, 6), (4, 3, 2, 8), (4, 5, 3, 6), (4, 4, 3, 7), (4, 3, 3, 8),
    # about 0.13 s
    (3, 2, 2, 12), (3, 5, 3, 9), (3, 3, 2, 11), (3, 4, 2, 10), (3, 3, 3, 10), (2, 5, 2, 15), (2, 4, 2, 16),
    # about 0.28 s
    (4, 2, 2, 10), (4, 4, 2, 8), (3, 4, 3, 10), (2, 5, 2, 16), (2, 3, 2, 17), (4, 5, 2, 7),
    # about 0.53 s
    (2, 4, 2, 17), (4, 2, 3, 10), (4, 2, 4, 9), (2, 2, 2, 18), (3, 3, 3, 11),
]
_ENUM1D_SMOKE = [(2, 3, 2, 10), (3, 2, 2, 8), (4, 3, 3, 5)]


def _projected_table(rng: random.Random, q: int, offsets, r: int) -> tuple[int, ...]:
    """A permutive rule followed by a map of the q states onto r of them.
    The permutive rule is onto on every box, so the image is exactly the
    words over those r states."""
    k = len(offsets)
    onto = _permutive_table(rng, q, k, _lex_max_index(offsets))
    keep = rng.sample(range(q), r)
    proj = [keep[i % r] for i in rng.sample(range(q), q)]
    return tuple(proj[v] for v in onto)


def _enum1d(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"enum1d:{seed}")
    b = _Draft("enum1d")
    for i, (q, m, r, n_max) in enumerate(_ENUM1D_SMOKE if smoke else _ENUM1D_SLOTS):
        offsets = _offsets_1d(rng, m)
        rule = Rule(1, q, offsets, _projected_table(rng, q, offsets, r))
        key = b.rule(f"r{i}", rule, image_states=r)
        b.query(["out-table", "--method", "brute", "--max-sides", str(n_max)], key)
    return b.w


# ----------------------------------------------------------- automaton1d

# Transfer slots: (q, span m, band of the mean live-subset count over
# n = 1..L); each rule gets a lambda over diag:1..L and an out-table by
# transfer up to L.  The subset DP does work in proportion to the live
# subsets, so a narrow band fixes each slot's cost; two tiers of equal
# cost keep the latency quantiles inside clusters of like queries.
_TRANSFER_SLOTS = [
    (2, 4, (30, 40)),
    (3, 3, (30, 40)),
    (2, 4, (30, 40)),
    (3, 3, (30, 40)),
    (2, 6, (300, 400)),
    (3, 4, (300, 400)),
    (2, 6, (300, 400)),
    (3, 4, (300, 400)),
]
_TRANSFER_LENGTH = 300
# Decide slots: (q, span m, permutive, band of subsets the search visits).
# Permutive rules are onto, so the search visits every reachable subset;
# the last of them is the wide window whose search is long.  Random
# rules stop at their first orphan.
_DECIDE_SLOTS = [
    (2, 5, True, (400, 800)),
    (4, 3, True, (100, 200)),
    (3, 3, True, (30, 60)),
    (2, 6, True, (5000, 9000)),
    (2, 4, False, (1, 200)),
    (3, 3, False, (1, 200)),
    (2, 6, False, (1, 2000)),
    (2, 8, False, (1, 20000)),
]
_SMOKE_TRANSFER = [(2, 4, (5, 40))]
_SMOKE_DECIDE = [(2, 4, True, (1, 500)), (2, 4, False, (1, 200))]


def _table_2d(rng: random.Random, side: int) -> dict[str, float]:
    """lam*xy + a*x*log(1+y) + b*y*log(1+x) + c: each term is subadditive
    in each coordinate (linear, or concave and zero at zero, times a
    positive factor), so the table is subadditive by construction."""
    lam, a, bb, c = rng.uniform(0.3, 1), rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2)
    return {
        f"{x}x{y}": lam * x * y + a * x * math.log1p(y) + bb * y * math.log1p(x) + c
        for x in range(1, side + 1)
        for y in range(1, side + 1)
    }


def _table_1d(rng: random.Random, n: int) -> dict[str, float]:
    lam, a, c = rng.uniform(0.3, 1), rng.uniform(0, 2), rng.uniform(0, 2)
    return {str(x): lam * x + a * math.sqrt(x) + c for x in range(1, n + 1)}


def _plant_violation(rng: random.Random, values: dict[str, float], dim: int) -> dict[str, float]:
    """Raise one entry above the sum of a split of it, breaking subadditivity."""
    out = dict(values)
    if dim == 1:
        n = max(int(k) for k in values)
        x = rng.randint(2, n)
        y = rng.randint(1, x - 1)
        out[str(x)] = values[str(y)] + values[str(x - y)] + rng.uniform(0.5, 2)
    else:
        side = max(int(k.split("x")[0]) for k in values)
        x, h = rng.randint(2, side), rng.randint(1, side)
        y = rng.randint(1, x - 1)
        out[f"{x}x{h}"] = values[f"{y}x{h}"] + values[f"{x - y}x{h}"] + rng.uniform(0.5, 2)
    return out


def _automaton1d(seed: int, smoke: bool) -> Workload:
    rng = random.Random(f"automaton1d:{seed}")
    b = _Draft("automaton1d")
    length = 40 if smoke else _TRANSFER_LENGTH
    for name, lam_len in (("and1d", 2000), ("xor1d", 1000)):
        key = b.rule(name, BUILTINS[name], builtin=name)
        b.query(["lambda", "--schedule", f"diag:1..{40 if smoke else lam_len}"], key)
        b.query(["out-table", "--method", "transfer", "--max-sides", str(length)], key)

    for i, (q, m, (lo, hi)) in enumerate(_SMOKE_TRANSFER if smoke else _TRANSFER_SLOTS):
        for _ in range(_MAX_DRAWS):
            offsets = _offsets_1d(rng, m)
            rule = Rule(1, q, offsets, _random_table(rng, q, len(offsets)))
            counts = word_counts(rule, length, live_cap=2 * hi)
            if counts and lo <= sum(live for _, live in counts) / length <= hi:
                break
        else:
            raise RuntimeError(f"transfer slot {i}: no rule in its live-subset band")
        key = b.rule(f"t{i}", rule)
        b.w.word_counts[key] = counts
        b.query(["lambda", "--schedule", f"diag:1..{length}"], key)
        b.query(["out-table", "--method", "transfer", "--max-sides", str(length)], key)

    for i, (q, m, permutive, (lo, hi)) in enumerate(_SMOKE_DECIDE if smoke else _DECIDE_SLOTS):
        for _ in range(_MAX_DRAWS):
            offsets = _offsets_1d(rng, m)
            k = len(offsets)
            if permutive:
                table = _permutive_table(rng, q, k, _lex_max_index(offsets))
            else:
                table = _random_table(rng, q, k)
            rule = Rule(1, q, offsets, table)
            visited, orphan = reachable_subsets(rule, hi)
            if orphan is (not permutive) and lo <= visited <= hi:
                break
        else:
            raise RuntimeError(f"decide slot {i}: no rule in its subset band")
        key = b.rule(f"d{i}", rule)
        b.query(["decide"], key, permutive=permutive)

    big = 200 if smoke else 1000
    b.query(["fekete", "--function", "xy+x+y", "--schedule", f"diag:1..{big}"], function="xy+x+y")
    b.query(["fekete", "--function", "3n", "--schedule", f"diag:1..{2 * big}"], function="3n")
    b.query(["fekete", "--function", "n^2", "--schedule", "diag:1..50"], function="n^2", planted=True)
    side, n1 = (8, 40) if smoke else (24, 300)
    for i in range(1 if smoke else 2):
        ok2 = _table_2d(rng, side)
        ok1 = _table_1d(rng, n1)
        for key, values, dim in (
            (f"v2d{i}", ok2, 2),
            (f"v2d{i}bad", _plant_violation(rng, ok2, 2), 2),
            (f"v1d{i}", ok1, 1),
            (f"v1d{i}bad", _plant_violation(rng, ok1, 1), 1),
        ):
            path = b.table(key, values)
            top = side if dim == 2 else n1
            b.query(
                ["fekete", "--table", path, "--schedule", f"diag:1..{top}"],
                table=key,
                planted=key.endswith("bad"),
            )
    return b.w


def _mixed1d(seed: int, smoke: bool) -> Workload:
    """enum1d's queries followed by automaton1d's, in one pass.

    On a shared 2-core machine the speed of pure-Python code swings by up
    to 1.8x over tens of seconds; alone, automaton1d's figures spread
    past any usable bound.  Sharing a pass with the numpy-bound 1D
    enumeration cuts its share of the pass wall time to under half; the
    per-layer metrics still separate the two halves.
    """
    parts = [_enum1d(seed, smoke), _automaton1d(seed, smoke)]
    w = Workload("mixed1d", {}, {}, [])
    for part in parts:
        assert not set(part.rules) & set(w.rules), "rule keys collide"
        w.files.update(part.files)
        w.rules.update(part.rules)
        w.queries += part.queries
        w.values.update(part.values)
        w.image_states.update(part.image_states)
        w.word_counts.update(part.word_counts)
    return w


WORKLOADS = {
    "enum2d": _enum2d,
    "mixed1d": _mixed1d,
    "enum1d": _enum1d,
    "automaton1d": _automaton1d,
    "highq": _highq,
}


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    return WORKLOADS[name](seed, smoke)
