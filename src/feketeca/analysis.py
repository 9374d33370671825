"""Per-cell limit, loss thresholds and surjectivity verdicts.

Loss at a box is volume minus log_q(output size), measured in q-its
(one q-it = log2 q bits); each `OutRecord` carries it as `lambda_qits`,
beside `ratio` = log_q(output size)/volume.  The per-cell limit of the
ratio is estimated by `running_infimum` over the records; it equals 1
exactly when the automaton is surjective, so any certified upper bound
below 1 is a nonsurjectivity signal.  The threshold search locates,
inside a finite box, the least size beyond which the loss provably
dominates the boundary excess plus a constant.  Verdicts respect the
decidability split: dimension 1 is decided exactly; higher dimensions
are never declared surjective, only NONSURJECTIVE (an orphan from a scan
that computes each box's E+N once) or UNKNOWN (the cleared frontier).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .ca import CellularAutomaton, _integers
from .counting import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OrphanCertificate,
    OutRecord,
    _enumeration_cells,
    _orphan,
    decide_surjectivity_1d,
    out_sizes,
)
from .subadditive import (
    FeketeEstimate,
    MultiIndex,
    SubadditiveFn,
    Violation,
    _grid,
    as_index,
    check_subadditivity_on_table,
    leq_pi,
    running_infimum,
)

__all__ = [
    "LambdaEstimate",
    "ThresholdReport",
    "VerdictStatus",
    "SurjectivityVerdict",
    "lambda_estimate",
    "boundary_excess",
    "minimal_upward_threshold",
    "excess_ratio_threshold",
    "theorem2_threshold",
    "surjectivity_report",
]

# Maximum side used when scanning box sizes for orphans in d >= 2.
_SCAN_MAX_SIDE = 12

# Sides up to this, and powers of two, are kept for lambda's exact check.
_EXACT_CHECK_SIDE = 64


@dataclass(frozen=True)
class LambdaEstimate:
    """Bracketed estimate of the per-cell limit of log_q(output size).

    The limit is at most 1, with equality exactly for surjective
    automata; the bracket is clamped to [0, 1] accordingly.  `notes`
    names each scheduled box refused for budget.
    """

    estimate: FeketeEstimate
    records: tuple[OutRecord, ...]
    notes: tuple[str, ...] = ()
    subadditivity_violations: tuple[Violation, ...] = ()

    @property
    def partial(self) -> bool:
        """True when some scheduled box was refused for budget."""
        return bool(self.notes)

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

    Output sizes come from `out_sizes`, one record per distinct box in
    schedule order (first occurrence); boxes refused for budget are
    skipped and the estimate marked partial.  `running_infimum` runs on
    the records' boxes with f = log_q(out), so its ratios are the
    records' own `ratio`s.  The exact counts are checked log-subadditive,
    Out(x + y) <= Out(x) * Out(y) in integers, by the multiplicative
    `check_subadditivity_on_table` on the keys whose every side is at
    most `_EXACT_CHECK_SIDE` or a power of two.  In d >= 2 that is every
    key: a box is only counted when q^volume fits the 63-bit code width,
    so no side exceeds 62.  In 1D it is every split of a length <= 64
    plus the doublings 2^k + 2^k = 2^(k+1) at every scale.  A violation
    contradicts the pattern-joining argument, so it flags a counting bug
    rather than a property of the automaton."""
    boxes = list(dict.fromkeys(as_index(b, ca.dimension) for b in schedule))
    if not boxes:
        raise ValueError("schedule must be nonempty")

    by_box: dict[MultiIndex, OutRecord] = {}
    notes = []
    for b, rec in zip(boxes, out_sizes(ca, boxes, budget)):
        if isinstance(rec, BudgetExceeded):
            notes.append(f"skipped {tuple(b)}: {rec}")
        else:
            by_box[b] = rec
    if not by_box:
        raise BudgetExceeded("no scheduled box fits the budget")

    checked = {
        x: rec.out_size for x, rec in by_box.items()
        if all(s <= _EXACT_CHECK_SIDE or s & (s - 1) == 0 for s in x)
    }
    violations = ()
    if checked:
        violations = tuple(check_subadditivity_on_table(checked, multiplicative=True))

    name = f"log{ca.state_count}(out[{ca.name or 'ca'}])"
    fn = SubadditiveFn(ca.dimension, lambda x: by_box[x].log_out, name=name)
    return LambdaEstimate(
        estimate=running_infimum(fn, list(by_box)),
        records=tuple(by_box.values()),
        notes=tuple(notes),
        subadditivity_violations=violations,
    )


def boundary_excess(x, r) -> int:
    """prod(x_i + r_i) - prod(x_i): cells a boundary of widths r adds to box x."""
    x = as_index(x)
    if len(r) != x.dim:
        raise ValueError("boundary widths must match the box dimension")
    if any(v < 0 for v in r):
        raise ValueError("boundary widths must be >= 0")
    return math.prod(xi + ri for xi, ri in zip(x, r)) - x.volume


def minimal_upward_threshold(predicate, search_box) -> MultiIndex | None:
    """Least box t such that the predicate holds at every x >= t in the box.

    A cell qualifies when the predicate holds there and at every cell
    above it in the box.  The qualifying set is upward closed, so its
    minimal elements form an antichain; the lexicographically least
    qualifying cell is returned, and it is minimal, since every cell
    below it in the product order is lexicographically smaller.
    Returns None when no cell qualifies.
    """
    box = as_index(search_box)
    ok: dict[tuple, bool] = {}  # the predicate holds here and everywhere above
    t = None
    for cell in reversed(_grid(box)):
        ok[cell] = predicate(cell) and all(
            ok[cell[:axis] + (cell[axis] + 1,) + cell[axis + 1:]]
            for axis in range(box.dim)
            if cell[axis] < box[axis]
        )
        if ok[cell]:
            t = cell
    return t


def excess_ratio_threshold(r, bound: float, search_box, K: float = 0.0):
    """Least t with (boundary excess + K) / volume < bound above t in the box.

    The ratio tends to 0 along the directed set for any fixed widths, so
    for every positive bound a threshold exists once the box is large
    enough; within a finite box the search may still fail (returns None).
    """

    def pred(x: MultiIndex) -> bool:
        return (boundary_excess(x, r) + K) / x.volume < bound

    return minimal_upward_threshold(pred, search_box)


@dataclass(frozen=True)
class ThresholdReport:
    """Verified region for the loss-dominates-boundary inequality.

    Inside `checked_region` (every computed x above `t` in the search
    box) both gate conditions held: ratio(x) <= delta and
    (excess + K)/volume <= 1 - delta; together they force
    loss(x) >= excess(x) + K, which `verified` re-checks literally.
    """

    K: float
    r: tuple[int, ...]
    delta: float
    search_box: MultiIndex
    found: bool
    t: MultiIndex | None
    checked_region: tuple[MultiIndex, ...]
    verified: bool
    lambda_upper: float


def theorem2_threshold(
    ca: CellularAutomaton,
    K: float,
    r,
    delta: float | None,
    search_box,
    budget: int = DEFAULT_BUDGET,
) -> ThresholdReport:
    """Search a finite box for the loss-dominates-boundary threshold.

    Counts on the cells of the search box come from `out_sizes`.  A
    refusal on any cell raises the search box's own `BudgetExceeded`:
    the cost q^|E+N| grows with the box, so refusals are upward closed
    and the search box is refused whenever any cell is.  Only the region
    actually verified is reported; nothing is extrapolated beyond the
    search box.
    The bound holds on the nonsurjective branch of the dichotomy, and
    its evidence, in every dimension, is a deficient count (below q^volume)
    among the box's own records: a surjective automaton has none
    (Garden of Eden), so without one a ValueError is raised.  delta
    defaults to midway between the observed upper bound on the per-cell
    limit and 1.
    """
    search_box = as_index(search_box, ca.dimension)
    r = _integers(r, "boundary width")
    if len(r) != ca.dimension or any(v < 0 for v in r):
        raise ValueError("boundary widths must be nonnegative, one per axis")
    if K < 0:
        raise ValueError("K must be >= 0")

    records = out_sizes(ca, _grid(search_box), budget)
    if isinstance(records[-1], BudgetExceeded):  # the search box, last in the grid
        raise records[-1]
    if all(rec.out_size == rec.full_size for rec in records):
        raise ValueError(
            f"no deficient count in the search box: all {len(records)} counted "
            "boxes are full, so nothing shows the automaton is nonsurjective"
        )

    by_box = {rec.sides: rec for rec in records}
    lambda_upper = min(rec.ratio for rec in records)
    if delta is None:
        delta = (lambda_upper + 1.0) / 2.0
    if not lambda_upper < delta < 1.0:
        raise ValueError(
            f"delta must lie strictly between the observed upper bound "
            f"{lambda_upper:.6f} and 1, got {delta}"
        )

    def pred(x: MultiIndex) -> bool:
        excess = (boundary_excess(x, r) + K) / x.volume
        return by_box[x].ratio <= delta and excess <= 1.0 - delta

    t = minimal_upward_threshold(pred, search_box)
    if t is None:
        return ThresholdReport(
            K=K, r=r, delta=delta, search_box=search_box, found=False,
            t=None, checked_region=(), verified=False, lambda_upper=lambda_upper,
        )

    region = tuple(sorted(x for x in by_box if leq_pi(t, x)))
    verified = True
    for x in region:
        want = boundary_excess(x, r) + K
        if by_box[x].lambda_qits < want - 1e-9 * max(1.0, abs(want)):
            verified = False
    return ThresholdReport(
        K=K, r=r, delta=delta, search_box=search_box, found=True,
        t=t, checked_region=region, verified=verified, lambda_upper=lambda_upper,
    )


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
    it; a box whose codes pass the 63-bit width raises that refusal.
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
            E, cells = _enumeration_cells(ca, sides, remaining)
        except BudgetExceeded as exc:
            if exc.cost <= remaining:  # the code width, not the budget
                raise
            note = (f"budget exhausted at size {tuple(sides)} "
                    f"(cost {exc.cost} > remaining {remaining})")
            return SurjectivityVerdict(VerdictStatus.UNKNOWN, cleared=tuple(cleared), note=note)
        if (cert := _orphan(ca, E, cells)) is not None:
            return SurjectivityVerdict(VerdictStatus.NONSURJECTIVE, cert, tuple(cleared))
        remaining -= ca.state_count ** len(cells)
        cleared.append(sides)
    return SurjectivityVerdict(
        status=VerdictStatus.UNKNOWN,
        cleared=tuple(cleared),
        note=f"no orphan up to side {_SCAN_MAX_SIDE}; larger sizes not attempted",
    )
