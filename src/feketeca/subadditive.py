"""Multivariate Fekete-lemma engine.

Works with functions f defined on positive integer d-tuples that are
(meant to be) subadditive in each coordinate separately:

    f(x_1, ..., x_j + y_j, ..., x_d)
        <= f(x_1, ..., x_j, ..., x_d) + f(x_1, ..., y_j, ..., x_d)

For such f the net f(x) / (x_1 * ... * x_d) converges along the product
order on Z_+^d, and the limit equals the infimum of that ratio over all
boxes.  This module checks the hypothesis, tracks running infima over a
schedule of boxes, computes the division-decomposition upper bound used
in the convergence proof, and brackets the limit.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "MultiIndex",
    "as_index",
    "SubadditiveFn",
    "Violation",
    "FeketeEstimate",
    "subadditivity_triple_count",
    "check_subadditivity",
    "check_subadditivity_on_table",
    "running_infimum",
    "decomposition_bound",
    "diagonal_schedule",
    "geometric_schedule",
]

# Relative slack for float comparisons in the subadditivity check: ties at
# rounding-noise level (e.g. log(a*b) vs log a + log b) count as holding.
_REL_TOL = 1e-9

# Most (x, total) pairs one block of the table check holds.
_PAIR_BLOCK = 1 << 12

# Most triples `check_subadditivity` tests exhaustively before it samples.
DEFAULT_EXHAUSTIVE_LIMIT = 10**6


class MultiIndex(tuple):
    """A d-tuple of positive integers: a box size, or a lattice point.

    Under the product order (x <= y iff x_i <= y_i for every i) these
    form a directed set: any two indices of equal dimension have their
    coordinatewise maximum as a common upper bound, even though for
    d >= 2 many pairs are incomparable.
    """

    __slots__ = ()

    def __new__(cls, coords: Iterable[int]) -> "MultiIndex":
        vals = tuple(operator.index(c) for c in coords)
        if not vals:
            raise ValueError("a MultiIndex needs at least one coordinate")
        if any(v < 1 for v in vals):
            raise ValueError(f"coordinates must be >= 1, got {vals}")
        return super().__new__(cls, vals)

    @classmethod
    def _trusted(cls, coords: Iterable[int]) -> "MultiIndex":
        """An index from ints the caller knows are >= 1: not re-validated."""
        return tuple.__new__(cls, coords)

    @property
    def dim(self) -> int:
        return len(self)

    @property
    def volume(self) -> int:
        return math.prod(self)


def as_index(value, dim: int | None = None) -> MultiIndex:
    """Coerce an int (dimension 1) or any iterable of ints to a MultiIndex."""
    idx = value
    if not isinstance(idx, MultiIndex):
        idx = MultiIndex((value,) if isinstance(value, int) else value)
    if dim is not None and len(idx) != dim:
        raise ValueError(f"expected dimension {dim}, got {tuple(idx)}")
    return idx


def _grid(box: MultiIndex) -> list[MultiIndex]:
    """Every box <= `box` in the product order, in row-major order."""
    return list(map(MultiIndex._trusted, itertools.product(*[range(1, s + 1) for s in box])))


class SubadditiveFn:
    """A nonnegative function on positive integer d-tuples.

    Coordinate-wise subadditivity is intended but never assumed: use
    `check_subadditivity` to test it.  The wrapped callable must be total
    on every box the caller evaluates.
    """

    def __init__(self, dim: int, fn: Callable[[MultiIndex], float], name: str = ""):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.fn = fn
        self.name = name

    def __call__(self, x) -> float:
        return float(self.fn(as_index(x, self.dim)))

    def evaluate_rows(self, points: np.ndarray) -> np.ndarray:
        """f at each row of an (n, dim) int64 array of valid points, as
        float64: one call of the wrapped callable per row, with one point
        object alive at a time.  A subclass may compute the same floats
        as array work."""
        return np.fromiter(
            (self.fn(MultiIndex._trusted(c)) for c in zip(*points.T.tolist())),
            dtype=np.float64,
            count=len(points),
        )

    def __repr__(self):
        label = self.name or getattr(self.fn, "__name__", "fn")
        return f"SubadditiveFn(dim={self.dim}, {label})"


def _index_table(values: Mapping, convert: Callable) -> dict:
    """The mapping with keys coerced to MultiIndex of one dimension and
    values passed through `convert`."""
    if not values:
        raise ValueError("table must be nonempty")
    table = {}
    dim = None
    for key, val in values.items():
        idx = key if isinstance(key, MultiIndex) else as_index(key)
        if dim is None:
            dim = idx.dim
        elif idx.dim != dim:
            raise ValueError(f"table keys mix dimensions ({dim} and {idx.dim})")
        table[idx] = convert(val)
    return table


@dataclass(frozen=True)
class Violation:
    """One failed instance of the coordinate subadditivity hypothesis.

    kind "subadditive": splitting coordinate `axis` (0-based) of `x` as
    x[axis] = x[axis] + y gave lhs > rhs.  kind "negative": f returned a
    value below zero at `x` (already outside the hypothesis); then axis
    is -1 and y/rhs are 0.  lhs and rhs are floats, except from the
    multiplicative table check, which keeps them as exact ints.
    """

    kind: str
    axis: int
    x: MultiIndex
    y: int
    lhs: float
    rhs: float


def subadditivity_triple_count(box) -> int:
    """Number of (axis, x, y) triples the exhaustive check would test in box."""
    box = as_index(box)
    total = 0
    for axis, side in enumerate(box):
        if side < 2:
            continue
        total += (side * (side - 1) // 2) * (box.volume // side)
    return total


def _exceeds(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise lhs > rhs beyond rounding noise (see `_REL_TOL`)."""
    return lhs > rhs + _REL_TOL * np.maximum(1.0, np.maximum(abs(lhs), abs(rhs)))


def _unique_rows(a: np.ndarray, radix: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an integer matrix whose column k holds values in
    [0, radix[k]), in lexicographic order, and the position of each row of
    `a` among them.

    Each row is one int64 mixed-radix key when the key space, the product
    of the radices, is at most 2^62: `np.unique` dedupes the keys and the
    distinct rows are decoded from them (asking it for first positions
    instead would force a stable sort).  Past 2^62 rows are sorted by
    `np.lexsort`, one stable sort per column.
    """
    if math.prod(radix) <= 1 << 62:
        key = a[:, 0]
        for k in range(1, len(radix)):
            key = key * radix[k] + a[:, k]
        key, inverse = np.unique(key, return_inverse=True)
        cols = []
        for r in radix[:0:-1]:
            key, digit = np.divmod(key, r)
            cols.append(digit)
        return np.column_stack([key, *cols[::-1]]), inverse
    order = np.lexsort(a.T[::-1])
    ordered = a[order]
    first = np.ones(len(a), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _floor_below(u: np.ndarray, n) -> np.ndarray:
    """Uniform floats u in [0, 1) scaled to integers in [0, n)."""
    return np.minimum((u * n).astype(np.int64), n - 1)


def _sample_triples(box: MultiIndex, axes: list[int], seed: int, samples: int):
    """Distinct (x, axis, y) arrays of `samples` draws inside the box, in
    the order of x, then axis, then y.

    Each draw takes d + 2 uniform 53-bit floats from `random.Random(seed)`:
    the axis among `axes`, x (below the side on that axis, so y >= 1 fits)
    and y up to the side.
    """
    d = len(box)
    raw = np.frombuffer(random.Random(seed).randbytes(8 * samples * (d + 2)), dtype="<u8")
    u = ((raw >> np.uint64(11)) * 2.0**-53).reshape(samples, d + 2)
    sides = np.array(box, dtype=np.int64)
    rows = np.arange(samples)
    axis = np.array(axes)[_floor_below(u[:, 0], len(axes))]
    room = np.tile(sides, (samples, 1))
    room[rows, axis] -= 1
    x = 1 + _floor_below(u[:, 1:d + 1], room)
    y = 1 + _floor_below(u[:, d + 1], sides[axis] - x[rows, axis])
    radix = [*(side + 1 for side in box), d, max(box) + 1]
    triples, _ = _unique_rows(np.column_stack([x, axis, y]), radix)
    return triples[:, :d], triples[:, d], triples[:, d + 1]


def check_subadditivity(
    f: SubadditiveFn,
    box,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    seed: int = 0,
    samples: int = 10_000,
) -> list[Violation]:
    """Test the coordinate subadditivity inequality inside a box.

    Every tested triple (axis, x, y) satisfies x <= box coordinatewise and
    x[axis] + y <= box[axis].  The sweep is exhaustive when the triple
    count is at most `exhaustive_limit`: f is tabulated on every cell of
    the box and `check_subadditivity_on_table` tests the table.  Otherwise
    `samples` triples are drawn at once as uniform floats from
    `random.Random(seed)`: an axis that can be split, x on it below the
    box side, the other coordinates of x anywhere in the box, and y up
    to the box side.  A triple drawn twice is tested once, and f is
    evaluated once per distinct point, by one `f.evaluate_rows` call on
    the array of distinct points (see `_unique_rows` for the dedupe).
    Either way the violations come in the same order: negative values
    of f first (their own violation kind), in row-major order of the
    point, then row-major order of x, then axis, then y; so the sampled
    result is an ordered sublist of the exhaustive one.  Returns the
    empty list iff the inequality held (up to float rounding noise) on
    every tested triple.
    """
    box = as_index(box, f.dim)
    if subadditivity_triple_count(box) <= exhaustive_limit:
        return check_subadditivity_on_table({c: f(c) for c in _grid(box)})

    axes = [j for j, side in enumerate(box) if side >= 2]
    if samples <= 0 or not axes:
        return []
    if max(box) >= 1 << 63:
        raise ValueError(f"sampling needs box sides below 2^63, got {tuple(box)}")
    x, axis, y = _sample_triples(box, axes, seed, samples)
    rows = np.arange(len(y))
    other, total = x.copy(), x.copy()
    other[rows, axis] = y
    total[rows, axis] += y
    coords, inv = _unique_rows(np.concatenate([x, other, total]), [side + 1 for side in box])

    def point(i: int) -> MultiIndex:  # in range by construction
        return MultiIndex._trusted(coords[i].tolist())

    vals = f.evaluate_rows(coords)  # once per distinct point
    xi, oi, ti = inv.reshape(3, -1)
    violations = [
        Violation("negative", -1, point(i), 0, vals[i].item(), 0.0)
        for i in np.flatnonzero(vals < 0)
    ]
    lhs, rhs = vals[ti], vals[xi] + vals[oi]
    bad = _exceeds(lhs, rhs)
    violations += [
        Violation("subadditive", a, point(i), b, lo, hi)
        for i, a, b, lo, hi in zip(*(part[bad].tolist() for part in (xi, axis, y, lhs, rhs)))
    ]
    return violations


def check_subadditivity_on_table(
    values: Mapping, *, multiplicative: bool = False
) -> list[Violation]:
    """Subadditivity check restricted to triples fully covered by a table.

    Tests every (axis, x, y) for which x, the y-variant and the sum-variant
    all appear as keys.  Useful for sparse user-supplied tables where
    evaluating off-table points is impossible.

    With `multiplicative=True` the values must be positive integers (such
    as output counts, whose logarithm is meant to be subadditive) and the
    test is f(x + y) <= f(x) * f(y), exact: the values stay Python ints
    in object arrays, no tolerance applies, and a violation's lhs and
    rhs are the exact ints.

    Keys are grouped into lines (all coordinates but `axis` equal); on a
    line with sorted positions p, the tested triples are the pairs
    x < total from p whose difference y is in p as well, found by
    `np.searchsorted`.  Rows of x are taken in blocks of at most
    `_PAIR_BLOCK` (x, total) pairs, so working memory is bounded by the
    block and never by the spread of the coordinates: a key at 10**9
    costs no more than one at 10.  Violations come in table order of x,
    then axis, then y.  A coordinate of 2^63 or more raises ValueError.
    """
    table = _index_table(values, operator.index if multiplicative else float)
    if multiplicative:
        if min(table.values()) < 1:
            raise ValueError("the multiplicative check needs positive integer values")
        vals = np.array(list(table.values()), dtype=object)
    else:
        vals = np.fromiter(table.values(), dtype=np.float64, count=len(table))
    keys = list(table)
    try:
        coords = np.array(keys, dtype=np.int64)
    except OverflowError:
        big = tuple(next(k for k in keys if max(k) >= 1 << 63))
        raise ValueError(f"the table check needs coordinates below 2^63, got {big}") from None
    violations = [] if multiplicative else [  # positive ints were checked above
        Violation("negative", -1, keys[i], 0, vals[i].item(), 0.0)
        for i in np.flatnonzero(vals < 0)
    ]
    found = []  # (x key index, axis, y, lhs, rhs) arrays, one per block with a hit
    for axis in range(coords.shape[1]):
        rest = coords[:, np.arange(coords.shape[1]) != axis]
        order = np.lexsort((coords[:, axis], *rest.T))  # by line, then position
        rest = rest[order]
        cuts = [0, *np.flatnonzero((rest[1:] != rest[:-1]).any(axis=1)) + 1, len(order)]
        for idx in (order[a:b] for a, b in zip(cuts, cuts[1:]) if b - a > 1):  # lines of 2+ keys
            pos, val = coords[idx, axis], vals[idx]
            block = max(1, _PAIR_BLOCK // len(pos))
            for r0 in range(0, len(pos) - 1, block):
                xs = np.arange(r0, min(r0 + block, len(pos) - 1))
                ys = pos[r0 + 1:] - pos[xs, None]  # column c is total r0 + 1 + c
                other = np.minimum(np.searchsorted(pos, ys), len(pos) - 1)
                row, col = np.nonzero(pos[other] == ys)
                xi, ti, oi, y = xs[row], col + r0 + 1, other[row, col], ys[row, col]
                if multiplicative:
                    lhs, rhs = val[ti], val[xi] * val[oi]
                    bad = lhs > rhs
                else:
                    lhs, rhs = val[ti], val[xi] + val[oi]
                    bad = _exceeds(lhs, rhs)
                if bad.any():
                    found.append((idx[xi[bad]], np.full(bad.sum(), axis), y[bad], lhs[bad], rhs[bad]))
    if found:
        xk, ax, y, lhs, rhs = (np.concatenate(part) for part in zip(*found))
        order = np.lexsort((y, ax, xk))
        violations += [
            Violation("subadditive", a, keys[i], b, lo, hi)
            for i, a, b, lo, hi in zip(*(part[order].tolist() for part in (xk, ax, y, lhs, rhs)))
        ]
    return violations


@dataclass(frozen=True)
class FeketeEstimate:
    """Summary of the ratios f(x)/volume(x) over a set of evaluated boxes.

    The directed-set limit of the ratio equals the infimum over *all*
    boxes, so every entry of `ratios`, the one at a chosen base box as
    much as `running_inf` (the least of them), is a certified upper
    bound for the limit.  For a generic subadditive f no finite
    evaluation set certifies a lower bound -- the data always extends to
    one whose limit is 0 -- so the lower end of `bracket` is `tail_slope`,
    the gain of f per unit of added volume between the two largest nested
    boxes: an empirical estimate, which can miss the limit, that converges
    to it whenever the per-box deviation f(x) - L*volume(x) flattens out.
    Automaton counts are not generic: disjoint blocks certify lower bounds
    (ROADMAP direction 1), which this engine does not compute.
    """

    evaluated_boxes: tuple[MultiIndex, ...]
    ratios: tuple[float, ...]
    running_inf: float
    last_ratio: float
    tail_slope: float

    @property
    def bracket(self) -> tuple[float, float]:
        """(empirical lower end, certified upper end) enclosure of the limit."""
        return (min(self.tail_slope, self.running_inf), self.running_inf)


def running_infimum(f: SubadditiveFn, schedule: Sequence) -> FeketeEstimate:
    """Evaluate f over a schedule of boxes and track the infimum of ratios.

    `last_ratio` is taken at the lexicographically last box, which is the
    schedule's product-order maximum whenever it has one.  f is evaluated
    once per distinct box.  The certified bound
    at a base box is its entry of `ratios`: append the base to the
    schedule.  Subadditivity is the caller's to check; this records
    ratios, it does not verify the hypothesis.
    """
    boxes = list(dict.fromkeys(as_index(b, f.dim) for b in schedule))
    if not boxes:
        raise ValueError("schedule must be nonempty")
    values = [float(f.fn(b)) for b in boxes]
    return _infimum(boxes, values, list(map(math.prod, boxes)))


def _infimum(boxes: list[MultiIndex], values: list[float], volumes: list[int]) -> FeketeEstimate:
    """`running_infimum` of distinct boxes from the columns of f's values
    on them and of their volumes.  The tail slope is taken against the box
    of largest volume (then the lexicographically last) among those below
    the last box; being distinct from it, that box has a smaller volume."""
    ratios = list(map(operator.truediv, values, volumes))
    k = boxes.index(max(boxes))  # the product-order maximum, when there is one
    last = boxes[k]
    if len(last) > 1:
        below = [i for i, b in enumerate(boxes) if i != k and all(map(operator.le, b, last))]
    else:  # every box, and the next longest is the one
        below = [volumes.index(max(v for v in volumes if v < last[0]))] if len(boxes) > 1 else []
    tail_slope = ratios[k]
    if below:
        volume, _, i = max((volumes[i], boxes[i], i) for i in below)
        tail_slope = (values[k] - values[i]) / (volumes[k] - volume)
    return FeketeEstimate(
        evaluated_boxes=tuple(boxes),
        ratios=tuple(ratios),
        running_inf=min(ratios),
        last_ratio=ratios[k],
        tail_slope=tail_slope,
    )


def decomposition_bound(f: SubadditiveFn, t, x) -> float:
    """Upper bound on f(x) obtained by dividing each coordinate by t.

    Writes x_j = q_j * t_j + r_j with 1 <= r_j <= t_j (so r_j = t_j, not 0,
    when t_j divides x_j) and sums, over all 2^d choices S of coordinates
    kept at their remainder, the term (prod_{j not in S} q_j) * f(args)
    with args_j = t_j off S and r_j on S.  For a coordinatewise-subadditive
    f the result is >= f(x); with t = x it degenerates to f(x) exactly.
    Every tail term (S nonempty) is bounded by t_1*...*t_d * f(1,...,1).
    """
    t = as_index(t, f.dim)
    x = as_index(x, f.dim)
    qs = [(xj - 1) // tj for xj, tj in zip(x, t)]
    rs = [xj - qj * tj for xj, qj, tj in zip(x, qs, t)]
    total = 0.0
    for pick in itertools.product((0, 1), repeat=f.dim):
        coeff = math.prod(q for q, p in zip(qs, pick) if p == 0)
        if coeff == 0:
            continue
        args = MultiIndex(r if p else tj for tj, r, p in zip(t, rs, pick))
        total += coeff * f(args)
    return total


def diagonal_schedule(dim: int, k_max: int, k_min: int = 1) -> list[MultiIndex]:
    """Boxes (k, ..., k) for k = k_min .. k_max."""
    if k_min < 1 or k_max < k_min or dim < 1:
        raise ValueError("need 1 <= k_min <= k_max and dim >= 1")
    return [MultiIndex._trusted((k,) * dim) for k in range(k_min, k_max + 1)]


def geometric_schedule(dim: int, steps: int, start: int = 1, factor: int = 2) -> list[MultiIndex]:
    """Boxes whose sides grow geometrically: (start * factor**i, ...)."""
    if start < 1 or factor < 2 or steps < 1:
        raise ValueError("need start >= 1, factor >= 2, steps >= 1")
    return [MultiIndex((start * factor**i,) * dim) for i in range(steps)]
