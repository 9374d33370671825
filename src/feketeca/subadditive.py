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
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

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


def _int_array(rows) -> np.ndarray:
    """rows as an int64 array, or as exact ints (dtype object) once one passes int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


class _Rows(Sequence):
    """Rows of columns, row i built as make(column[i] of each column)
    only when it is read, so `len` costs nothing; equal to any sequence
    of equal items."""

    def __init__(self, make: Callable, *columns):
        self._make, self._columns = make, columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return self._make(*(column[i] for column in self._columns))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"{type(self).__name__}({list(self)!r})"


def _box(row: np.ndarray) -> MultiIndex:
    return MultiIndex._trusted(row.tolist())


class Boxes(_Rows):
    """Boxes as the rows of an (n, d) array `coords`, int64 unless a
    coordinate passes it (then exact ints, dtype object); row i reads as a
    MultiIndex, and `index` finds a box by one comparison of the columns."""

    def __init__(self, coords: np.ndarray):
        super().__init__(_box, coords)
        self.coords = coords

    def __iter__(self):
        return map(MultiIndex._trusted, self.coords.tolist())

    def index(self, box) -> int:
        same = len(box) == self.coords.shape[1] and (self.coords == _int_array([box])).all(1)
        if not np.any(same):
            raise ValueError(f"{tuple(box)} is not among the boxes")
        return int(np.argmax(same))


def _as_boxes(boxes, dim: int) -> Boxes:
    """`Boxes` of dimension `dim` as they are; other boxes (ints or tuples)
    coerced once each by `as_index`."""
    if isinstance(boxes, Boxes) and boxes.coords.shape[1] == dim:
        return boxes
    return Boxes(_int_array([as_index(b, dim) for b in boxes]).reshape(-1, dim))


def _grid(box: MultiIndex) -> Boxes:
    """Every box <= `box` in the product order, in row-major order."""
    cells = itertools.product(*[range(1, s + 1) for s in box])
    return Boxes(np.array(list(cells), dtype=np.int64).reshape(-1, len(box)))


def _first_rows(coords: np.ndarray) -> np.ndarray:
    """Ascending positions at which the distinct rows of coords first occur."""
    order = np.lexsort(coords.T[::-1])  # stable: equal rows keep their order
    ordered = coords[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(order[first])


def _lex_last(coords: np.ndarray) -> int:
    """The row of coords that is the lexicographically last box."""
    return int(np.lexsort(coords.T[::-1])[-1])


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
        """f at each row of an (n, dim) integer array of valid points, as
        float64: one call of the wrapped callable per distinct row, in the
        order the rows first appear.  A subclass may compute the same
        floats as array work, with no dedupe."""
        rows = list(map(tuple, points.tolist()))
        memo = dict.fromkeys(rows)
        for x in memo:
            memo[x] = self.fn(MultiIndex._trusted(x))
        return np.fromiter(map(memo.__getitem__, rows), dtype=np.float64, count=len(rows))

    def __repr__(self):
        label = self.name or getattr(self.fn, "__name__", "fn")
        return f"SubadditiveFn(dim={self.dim}, {label})"


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


def _violation(x: np.ndarray, axis: int, *rest) -> Violation:
    return Violation("negative" if axis < 0 else "subadditive", axis, _box(x), *rest)


def _violations(x, axis, y, lhs, rhs) -> Sequence[Violation]:
    """Violations as columns (axis -1 on a negative value), each row read
    as a `Violation` only when it is read."""
    return _Rows(_violation, x, *(column.tolist() for column in (axis, y, lhs, rhs)))


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
) -> Sequence[Violation]:
    """Test the coordinate subadditivity inequality inside a box.

    Every tested triple (axis, x, y) satisfies x <= box coordinatewise and
    x[axis] + y <= box[axis].  The sweep is exhaustive when the triple
    count is at most `exhaustive_limit`: one `f.evaluate_rows` call
    tabulates f on the box and `check_subadditivity_on_table` tests the
    columns.  Otherwise `samples` triples are drawn at once as uniform
    floats from `random.Random(seed)`: an axis that can be split, x on it
    below the box side, the other coordinates of x anywhere in the box,
    and y up to the box side; a triple drawn twice is tested once, and
    one `f.evaluate_rows` call evaluates the 3 points of every triple.
    Either way negative values of f come first (their own violation
    kind), once per distinct point in row-major order, then row-major
    order of x, then axis, then y; so the sampled result is an ordered
    sublist of the exhaustive one.  No violation is returned iff the
    inequality held (up to float rounding noise) on every tested triple.
    """
    box = as_index(box, f.dim)
    if subadditivity_triple_count(box) <= exhaustive_limit:
        coords = _grid(box).coords
        return check_subadditivity_on_table((coords, f.evaluate_rows(coords)))

    axes = [j for j, side in enumerate(box) if side >= 2]
    if samples <= 0 or not axes:
        return _violations(np.empty((0, f.dim), np.int64), *[np.empty(0)] * 4)
    if max(box) >= 1 << 63:
        raise ValueError(f"sampling needs box sides below 2^63, got {tuple(box)}")
    x, axis, y = _sample_triples(box, axes, seed, samples)
    rows = np.arange(len(y))
    other, total = x.copy(), x.copy()
    other[rows, axis] = y
    total[rows, axis] += y
    points = np.concatenate([x, other, total])
    vals = f.evaluate_rows(points)
    negative, inv = _unique_rows(points[vals < 0], [side + 1 for side in box])
    k = len(negative)
    neg_vals = np.empty(k)
    neg_vals[inv] = vals[vals < 0]  # one value per point
    fx, fo, lhs = vals.reshape(3, -1)
    rhs = fx + fo
    bad = _exceeds(lhs, rhs)
    parts = ((negative, x), (np.full(k, -1), axis), (np.zeros(k, np.int64), y),
             (neg_vals, lhs), (np.zeros(k), rhs))
    return _violations(*(np.concatenate([head, tail[bad]]) for head, tail in parts))


def check_subadditivity_on_table(values, *, multiplicative: bool = False) -> Sequence[Violation]:
    """Subadditivity check restricted to triples fully covered by a table.

    `values` maps boxes to values, or is the pair of columns (coords,
    vals): an (n, d) integer array of distinct boxes and their values.
    Tests every (axis, x, y) for which x, the y-variant and the
    sum-variant all appear as keys: sparse user-supplied tables need no
    off-table point.  With `multiplicative=True` the values must be
    positive integers (such as output counts, whose logarithm is meant
    to be subadditive) and the test is f(x + y) <= f(x) * f(y), exact: the
    values stay Python ints in object arrays, no tolerance applies, and
    a violation's lhs and rhs are the exact ints.

    Keys are grouped into lines (all coordinates but `axis` equal), and
    the lines at one set of sorted positions p are tested together: for
    each block of rows x of at most `_PAIR_BLOCK` (x, total) pairs from p,
    the difference y is looked up in p by `np.searchsorted`, and one
    gather tests the pairs on as many lines of the set as keep the block
    within `_PAIR_BLOCK` values.  Every line of a complete grid along an
    axis is in one set.  Working memory is bounded by the block, never by
    the spread of the coordinates: a key at 10**9 costs no more than one
    at 10.  Violations come in table order of x, then axis, then y.  A
    coordinate of 2^63 or more raises ValueError.
    """
    if isinstance(values, Mapping):
        if not values:
            raise ValueError("table must be nonempty")
        keys = _as_boxes(values, len(as_index(next(iter(values))))).coords
        columns = (keys, list(values.values()))
        return check_subadditivity_on_table(columns, multiplicative=multiplicative)
    coords, vals = values
    if multiplicative:
        vals = np.array([operator.index(v) for v in vals], dtype=object)
        if min(vals) < 1:
            raise ValueError("the multiplicative check needs positive integer values")
    vals = np.asarray(vals, dtype=object if multiplicative else np.float64)
    if coords.dtype == object:
        big = next(row for row in coords.tolist() if max(row) >= 1 << 63)
        raise ValueError(f"the table check needs coordinates below 2^63, got {tuple(big)}")
    found = []  # (x row, axis, y, lhs, rhs) arrays, the negative values first
    neg = np.flatnonzero(vals < 0)
    if len(neg):
        found.append((neg, np.full(len(neg), -1), 0 * neg, vals[neg], np.zeros(len(neg))))
    axes = np.arange(coords.shape[1])
    for axis in axes.tolist():
        rest = coords[:, axes != axis]
        order = np.lexsort((coords[:, axis], *rest.T))  # by line, then position
        rest, at = rest[order], coords[order, axis]
        cuts = (np.flatnonzero((rest[1:] != rest[:-1]).any(axis=1)) + 1).tolist()
        cuts = [0, *cuts, len(order)]
        sets = {}  # positions of a line of 2+ keys -> the table rows of each line there
        for a, b in zip(cuts, cuts[1:]):
            if b - a > 1:
                sets.setdefault(at[a:b].tobytes(), []).append(order[a:b])
        for lines in sets.values():
            found += _set_hits(np.array(lines), coords, vals, axis, multiplicative)
    if not found:
        return _violations(coords[:0], *[np.empty(0)] * 4)
    xk, ax, y, lhs, rhs = (np.concatenate(part) for part in zip(*found))
    order = np.lexsort((y, ax, xk, ax >= 0))  # the negative values first
    return _violations(coords[xk[order]], *(part[order] for part in (ax, y, lhs, rhs)))


def _set_hits(lines: np.ndarray, coords, vals, axis: int, multiplicative: bool) -> list:
    """(x row, axis, y, lhs, rhs) arrays of the failed triples on a set of
    lines, whose table rows are the rows of `lines`, sorted by position."""
    pos, v = coords[lines[0], axis], vals[lines]
    m, hits = len(pos), []
    block = max(1, _PAIR_BLOCK // m)
    for r0 in range(0, m - 1, block):
        xs = np.arange(r0, min(r0 + block, m - 1))
        ys = pos[r0 + 1:] - pos[xs, None]  # column c is total r0 + 1 + c
        other = np.minimum(np.searchsorted(pos, ys), m - 1)
        split = pos[other] == ys  # y is a position too
        chunk = max(1, _PAIR_BLOCK // ys.size)  # lines tested at once
        for l0 in range(0, len(lines) if split.any() else 0, chunk):
            at = v[l0:l0 + chunk]
            lhs, fx, fo = at[:, None, r0 + 1:], at[:, xs, None], at[:, other]
            rhs = fx * np.where(split, fo, 0) if multiplicative else fx + fo  # exact products only of triples
            bad = (lhs > rhs) & split
            if bad.any():
                line, row, col = np.nonzero(bad)
                lhs, rhs = at[line, col + r0 + 1], rhs[line, row, col]
                keep = slice(None) if multiplicative else _exceeds(lhs, rhs)  # not rounding noise
                line, row, col, lhs, rhs = line[keep], row[keep], col[keep], lhs[keep], rhs[keep]
                y = ys[row, col]
                hits.append((lines[l0 + line, xs[row]], np.full(len(y), axis), y, lhs, rhs))
    return hits


@dataclass(frozen=True)
class FeketeEstimate:
    """Summary of the ratios f(x)/volume(x) over a set of evaluated boxes.

    `evaluated_boxes` is a `Boxes` of the distinct boxes, and `ratios`
    holds their ratios in turn.  The directed-set limit of the ratio
    equals the infimum over *all* boxes, so every entry of `ratios`, the
    one at a chosen base box as much as `running_inf` (the least of
    them), is a certified upper bound for the limit.  For a generic
    subadditive f no finite evaluation set certifies a lower bound -- the
    data always extends to one whose limit is 0 -- so the lower end of
    `bracket` is `tail_slope`, the gain of f per unit of added volume
    between the two largest nested boxes: an empirical estimate, which
    can miss the limit, that converges to it whenever the per-box
    deviation f(x) - L*volume(x) flattens out.  Automaton counts are not
    generic: disjoint blocks certify lower bounds (ROADMAP direction 1),
    which this engine does not compute.
    """

    evaluated_boxes: Boxes
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

    The schedule is a `Boxes`, or boxes each coerced once.  Its boxes are
    deduped on the columns, in order of first appearance, and one
    `f.evaluate_rows` call evaluates f once per distinct box.
    `last_ratio` is taken at the lexicographically last box, which is
    the schedule's product-order maximum whenever it has one.  The
    certified bound at a base box is its entry of `ratios`: append the
    base to the schedule.  Subadditivity is the caller's to check; this
    records ratios, it does not verify the hypothesis.
    """
    coords = _as_boxes(schedule, f.dim).coords
    if not len(coords):
        raise ValueError("schedule must be nonempty")
    coords = coords[_first_rows(coords)]
    if coords.dtype == object or coords.max() >= 1 << (62 // f.dim):  # a volume may pass int64
        volumes = coords.astype(object).prod(axis=1)
    else:
        volumes = coords.prod(axis=1)
    return _infimum(coords, f.evaluate_rows(coords), volumes)


def _infimum(coords: np.ndarray, values: np.ndarray, volumes: np.ndarray) -> FeketeEstimate:
    """`running_infimum` of the distinct boxes that are the rows of coords,
    from the columns of f's values on them and of their volumes.  The
    tail slope is taken against the box of largest volume (then the
    lexicographically last) among those below the last box; being
    distinct from it, that box has a smaller volume."""
    ratios = (values / volumes).tolist()
    k = _lex_last(coords)  # the product-order maximum, when there is one
    below = (coords <= coords[k]).all(axis=1)
    below[k] = False
    tail_slope = ratios[k]
    if below.any():  # of the boxes below, the largest volume, then the last box
        order = np.lexsort((*coords.T[::-1], volumes))
        i = order[below[order]][-1]
        tail_slope = (float(values[k]) - float(values[i])) / (int(volumes[k]) - int(volumes[i]))
    return FeketeEstimate(
        evaluated_boxes=Boxes(coords),
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
