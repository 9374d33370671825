"""Per-cell limit, loss thresholds and surjectivity verdicts.

Loss at a box is volume minus log_q(output size), measured in q-its
(one q-it = log2 q bits); each `OutRecord` row view carries it as
`lambda_qits`, beside `ratio` = log_q(output size)/volume.  The per-cell
limit of the ratio is estimated by the running infimum over the count
table's columns; it equals 1 exactly when the automaton is surjective,
so any certified upper bound below 1 is a nonsurjectivity signal.  The threshold is a proof: the
loss is superadditive along each axis, so one deficient count t, checked
in integers at one diagonal box T, shows that the loss dominates the
boundary excess plus an integer constant on every box from T on.
Verdicts respect the decidability split: dimension 1 is decided
exactly; higher dimensions are never declared surjective, only
NONSURJECTIVE (an orphan from a scan that computes each box's E+N once)
or UNKNOWN (the cleared frontier).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .ca import CellularAutomaton, _integers
from .counting import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OrphanCertificate,
    OutRecord,
    OutTable,
    _enumeration_cells,
    _orphan,
    decide_surjectivity_1d,
    out_sizes,
)
from .subadditive import (
    FeketeEstimate,
    MultiIndex,
    Violation,
    _as_boxes,
    _first_rows,
    _grid,
    _infimum,
    as_index,
    check_subadditivity_on_table,
)

__all__ = [
    "LambdaEstimate",
    "ThresholdReport",
    "VerdictStatus",
    "SurjectivityVerdict",
    "lambda_estimate",
    "boundary_excess",
    "theorem2_threshold",
    "surjectivity_report",
]

# Maximum side used when scanning box sizes for orphans in d >= 2.
_SCAN_MAX_SIDE = 12

# Sides up to this, and powers of two, are kept for lambda's exact check.
_EXACT_CHECK_SIDE = 64

# Most bits the powers of one exact threshold check may take; at this
# size the larger power takes about 2 s on a 2-core x86 host.
_CERTIFICATE_BITS = 1 << 24


@dataclass(frozen=True)
class LambdaEstimate:
    """Bracketed estimate of the per-cell limit of log_q(output size).

    The limit is at most 1, with equality exactly for surjective
    automata; the bracket is clamped to [0, 1] accordingly.  Its upper
    end is certified; its lower end is `FeketeEstimate.tail_slope`, an
    empirical estimate that can miss the limit: and2d's default schedule
    (1x1, 2x2, 3x3) puts the whole bracket above log2(1948356)/24, the
    bound that Out(4, 6) proves, and and1d at diag:1..2000 puts it 2.9e-13
    above the limit log2(rho).  `records` is the `OutTable` of the
    counted boxes, in the order of `estimate.evaluated_boxes`, so
    `estimate.ratios` holds their ratios in turn.  `notes` names each
    scheduled box refused for budget.
    """

    estimate: FeketeEstimate
    records: OutTable
    notes: tuple[str, ...] = ()
    subadditivity_violations: Sequence[Violation] = ()

    @property
    def bracket(self) -> tuple[float, float]:
        lo, hi = self.estimate.bracket
        return (min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))

    @property
    def excludes_surjective(self) -> bool:
        """True when the certified upper end already rules out limit 1."""
        return self.bracket[1] < 1.0 - 1e-12


def lambda_estimate(
    ca: CellularAutomaton, schedule, budget: int = DEFAULT_BUDGET
) -> LambdaEstimate:
    """Estimate the per-cell limit over a schedule of box sizes.

    The schedule is a `Boxes` or any sequence of boxes, each coerced
    once, and output sizes come from one `out_sizes` call on its columns.
    The table keeps the first row of each box, in schedule order, found
    on the columns, and drops boxes refused for budget, each named in
    `notes`.  The running infimum reads its columns, f = `log_out`.  The
    exact counts are checked log-subadditive,
    Out(x + y) <= Out(x) * Out(y) in integers, by the multiplicative
    `check_subadditivity_on_table` on the columns of the keys whose every
    side is at most `_EXACT_CHECK_SIDE` or a power of two.  In d >= 2
    that is every key: a box is only counted when its q^volume-byte
    bitmap fits `counting._BITMAP_BYTES` (2^30), so no side exceeds 30.
    In 1D it is every split of a length <= 64 plus the doublings
    2^k + 2^k = 2^(k+1) at every scale.  A violation contradicts the
    pattern-joining argument, so it flags a counting bug rather than a
    property of the automaton."""
    boxes = _as_boxes(schedule, ca.dimension)
    if not len(boxes):
        raise ValueError("schedule must be nonempty")
    table = out_sizes(ca, boxes, budget)
    rows = _first_rows(boxes.coords).tolist()
    skipped = [i for i in rows if i in table.refused]
    notes = tuple(f"skipped {tuple(table.sides[i])}: {table.counts[i]}" for i in skipped)
    if len(notes) == len(rows):
        raise BudgetExceeded("no scheduled box fits the budget")
    if len(rows) - len(notes) < len(table):
        table = table.take([i for i in rows if i not in table.refused])

    keys, counts = table.sides.coords, table.counts
    if keys.max() > _EXACT_CHECK_SIDE:  # keep the keys whose every side is exact
        exact = ((keys <= _EXACT_CHECK_SIDE) | (keys & (keys - 1) == 0)).all(axis=1)
        keys, counts = keys[exact], np.array(counts, dtype=object)[exact]
    violations = ()
    if len(keys):
        violations = check_subadditivity_on_table((keys, counts), multiplicative=True)
    return LambdaEstimate(
        estimate=_infimum(table.sides.coords, table.log_out, table.volumes),
        records=table,
        notes=notes,
        subadditivity_violations=violations,
    )


def boundary_excess(x, r) -> int:
    """prod(x_i + r_i) - prod(x_i): cells a boundary of widths r adds to box x."""
    x = as_index(x)
    r = _integers(r, "boundary width")
    if len(r) != x.dim:
        raise ValueError("boundary widths must match the box dimension")
    if any(v < 0 for v in r):
        raise ValueError("boundary widths must be >= 0")
    return math.prod(xi + ri for xi, ri in zip(x, r)) - x.volume


@dataclass(frozen=True)
class ThresholdReport:
    """A proof that loss(x) >= boundary_excess(x, r) + K at every box x >= T.

    Out(x + y) <= Out(x) * Out(y) along each axis, so the loss is
    superadditive and, being nonnegative, monotone along each axis.  For
    the counted box t that gives

        loss(x) >= prod_j floor(x_j / t_j) * loss(t) >= A(x) * loss(t) / vol(t)

    with A(x) = prod_j (x_j - t_j + 1), so the inequality holds wherever
    C_t(x): A(x) * loss(t) >= vol(t) * (boundary_excess(x, r) + K).
    Divided by vol(x), C_t's left side does not fall and its right side
    does not rise in any x_j >= t_j - 1: C_t at T = (k, ..., k) holds at
    every x >= T, with no upper limit.
    """

    K: int
    r: tuple[int, ...]
    t: OutRecord
    T: MultiIndex


def _certifies(t: OutRecord, k: int, r, K: int) -> bool:
    """C_t at (k, ..., k) for k >= max(t), in integers.

    With loss(t) = vol(t) - log_q Out(t) and e = vol(t) * (A - excess - K),
    C_t holds iff e >= 0 and q^e >= Out(t)^A.  The cost A * bits(Out(t))
    bounds the powers built: it is priced before either, and past
    `_CERTIFICATE_BITS` the check is refused.
    """
    A = math.prod(k - s + 1 for s in t.sides)
    e = t.sides.volume * (A - boundary_excess((k,) * len(r), r) - K)
    cost = A * t.out_size.bit_length()
    if cost > _CERTIFICATE_BITS:
        raise BudgetExceeded(
            f"threshold check at side {k} needs {cost}-bit powers, cap is {_CERTIFICATE_BITS}",
            cost=cost,
        )
    if e * (t.q.bit_length() - 1) >= cost:  # q^e >= 2^cost > Out(t)^A
        return True
    return e >= 0 and t.q**e >= t.out_size**A


def theorem2_threshold(
    ca: CellularAutomaton, K: int, r, search_box, budget: int = DEFAULT_BUDGET
) -> ThresholdReport:
    """Prove loss(x) >= boundary_excess(x, r) + K for every box x >= T.

    Counts on the cells of the search box come from `out_sizes`.  A
    refusal on any cell raises the search box's own `BudgetExceeded`:
    the cost q^|E+N| grows with the box, so refusals are upward closed
    and the search box is refused whenever any cell is.  Each deficient
    count (below q^volume) can be `ThresholdReport`'s t: T is the least
    diagonal box one of them proves, t the first such in row-major order.
    A surjective automaton has none (Garden of Eden), so without one a
    ValueError is raised.  K is an integer, so the check is exact.
    """
    search_box = as_index(search_box, ca.dimension)
    r = _integers(r, "boundary width")
    boundary_excess(search_box, r)  # refuses widths of the wrong count or sign
    (K,) = _integers((K,), "K")
    if K < 0:
        raise ValueError("K must be >= 0")

    records = out_sizes(ca, _grid(search_box), budget)
    if isinstance(records[-1], BudgetExceeded):  # the search box, last in the grid
        raise records[-1]
    deficient = [rec for rec in records if rec.out_size < rec.full_size]
    if not deficient:
        raise ValueError(
            f"no deficient count in the search box: all {len(records)} counted "
            "boxes are full, so nothing shows the automaton is nonsurjective"
        )

    def witness(k: int) -> OutRecord | None:
        """The first deficient count, in row-major order, with C_t at (k, ..., k)."""
        return next((t for t in deficient if max(t.sides) <= k and _certifies(t, k, r, K)), None)

    # C_t holding at k holds at every larger k: double, then bisect
    hi = least = min(max(t.sides) for t in deficient)
    while witness(hi) is None:
        hi *= 2
    k = bisect.bisect_left(range(hi + 1), True, lo=least, key=lambda k: witness(k) is not None)
    return ThresholdReport(K=K, r=r, t=witness(k), T=MultiIndex._trusted((k,) * ca.dimension))


class VerdictStatus(Enum):
    PROVED_SURJECTIVE = "PROVED_SURJECTIVE"
    NONSURJECTIVE = "NONSURJECTIVE"
    UNKNOWN = "UNKNOWN"


@dataclass(frozen=True)
class SurjectivityVerdict:
    """Outcome of the surjectivity analysis.

    PROVED_SURJECTIVE only ever arises in dimension 1 (the exact
    decision); NONSURJECTIVE carries an orphan certificate; UNKNOWN
    carries the frontier of box sizes cleared within the budget so a
    later run can resume beyond them.
    """

    status: VerdictStatus
    certificate: OrphanCertificate | None = None
    cleared: tuple[MultiIndex, ...] = ()
    note: str = ""


def _boxes_by_volume(dim: int, max_side: int):
    """The grid of sides up to max_side in (volume, box) order, one volume
    at a time: a volume's boxes come in lexicographic order."""
    for volume in range(1, max_side**dim + 1):
        for head in itertools.product(range(1, max_side + 1), repeat=dim - 1):
            last, rest = divmod(volume, math.prod(head))
            if not rest and last <= max_side:
                yield MultiIndex._trusted((*head, last))


def surjectivity_report(
    ca: CellularAutomaton, budget: int = DEFAULT_BUDGET
) -> SurjectivityVerdict:
    """Verdict per the decidability split.

    Dimension 1: the exact subset decision and its certificate.
    Dimension >= 2: scan box sizes in volume order looking for an
    orphan, spending at most `budget` enumerated inputs in total;
    surjectivity is never claimed, so exhausting the budget yields
    UNKNOWN with the cleared sizes.  One E+N per box prices and enumerates
    it; a box whose bitmap passes `_BITMAP_BYTES` raises that refusal.
    """
    if ca.dimension == 1:
        try:
            cert = decide_surjectivity_1d(ca)
        except BudgetExceeded as exc:
            return SurjectivityVerdict(
                status=VerdictStatus.UNKNOWN, note=f"decision refused: {exc}"
            )
        if cert is None:
            return SurjectivityVerdict(status=VerdictStatus.PROVED_SURJECTIVE)
        return SurjectivityVerdict(status=VerdictStatus.NONSURJECTIVE, certificate=cert)

    remaining = budget
    cleared: list[MultiIndex] = []
    for sides in _boxes_by_volume(ca.dimension, _SCAN_MAX_SIDE):
        try:
            E, cells, shifted = _enumeration_cells(ca, sides, remaining)
        except BudgetExceeded as exc:
            if exc.cost <= remaining:  # the bitmap's bytes, not the budget
                raise
            note = (f"budget exhausted at size {tuple(sides)} "
                    f"(cost {exc.cost} > remaining {remaining})")
            return SurjectivityVerdict(VerdictStatus.UNKNOWN, cleared=tuple(cleared), note=note)
        if (cert := _orphan(ca, E, cells, shifted)) is not None:
            return SurjectivityVerdict(VerdictStatus.NONSURJECTIVE, cert, tuple(cleared))
        remaining -= ca.state_count ** len(cells)
        cleared.append(sides)
    return SurjectivityVerdict(
        status=VerdictStatus.UNKNOWN,
        cleared=tuple(cleared),
        note=f"no orphan up to side {_SCAN_MAX_SIDE}; larger sizes not attempted",
    )
