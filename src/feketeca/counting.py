"""Exact reachable-pattern counting.

Two routes to the output size (number of distinct patterns an automaton
can produce on a box):

* brute force, any dimension and any box origin: enumerate every input
  assignment on the exact E+N cell set and mark each image's canonical
  code in a reachability bitmap over all q^volume output codes; the
  count is the number of marked codes, and the first unmarked one is the
  canonical-code-minimal orphan.  Each enumerated cell is a broadcast
  axis, the last cell outermost, so the cells read so far are trailing
  axes that numpy runs as one contiguous inner loop.  From _SPLIT_FLOOR
  inputs on, a box is cut in two halves, each half is enumerated over
  its own E_i+N together with the band of cells both halves read, and
  the box bitmap is their join over the band states (meet in the
  middle); the budget still prices q^|E+N|.  A list of boxes at
  one origin costs one enumeration per maximal box: every box inside a
  larger enumerated one is read off its bitmap by restriction (an `any`
  over the dropped cells), which is exact because E' <= E gives
  E'+N <= E+N.  The bitmap takes q^volume bytes, at most q^|E+N| and so
  at most the budget, and is allocated only after the budget check
  passes; one is alive at a time, plus its smaller restrictions.  The
  E+N that the budget check computes is the one enumerated, so each box
  computes it once (twice more when split into halves);
* a 1D subset DFA: the sliding-window structure gives an edge-labelled
  de Bruijn graph whose label words are exactly the reachable patterns.
  `_SubsetDFA` determinizes it lazily, numbering subsets in the
  breadth-first order they are reached from the full set.  The count is
  a path count: each subset is stepped once, into a row of successor
  ids, and one length is a gather and an `np.add.reduceat` over
  exact-integer object arrays, following a plan built for the live
  subset set (only the last plan is kept; the live set settles within a
  few lengths).  The surjectivity decision walks the same numbering: an
  orphan word exists iff the empty subset is reached, and the word is
  read back through the parent steps.  The vertex table, q^(2m-1) bits
  for span m, is priced first and refused past `_TABLE_BITS`.

`out_sizes` is the one place that picks the route: the DFA in dimension
1, brute force in higher dimensions or when the DFA refuses.  The two
routes must agree wherever both run; they share no machinery.  Counts
are exact Python integers throughout (q^volume overflows fixed width at
modest sizes).  Each `OutRecord` carries its own loss: `log_out`,
`ratio` and `lambda_qits` are properties read off the count, so there is
one place that turns a count into q-its.  Orphan search lives here too.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .ca import CellularAutomaton, Pattern, RightPolytope, decode_states
from .ca import _as_origin, _minkowski
from .subadditive import MultiIndex, as_index

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceeded",
    "OutRecord",
    "OrphanCertificate",
    "log_base",
    "out_sizes_bruteforce",
    "out_size_transfer_1d",
    "out_sizes",
    "find_orphan",
    "decide_surjectivity_1d",
]

DEFAULT_BUDGET = 1 << 30

# Most inputs one chunk of the enumeration holds.
_CHUNK = 1 << 20

# Most bits the 1D subset DFA's target masks take: 2^30 bytes.
_TABLE_BITS = 1 << 33

# Fewest inputs, q^|E+N|, at which a box is enumerated as two halves
# joined over their shared cells; below it, whole is faster.
_SPLIT_FLOOR = 1 << 16

# Longest middle axis `_any_middle` reduces slice by slice.
_SHORT_GROUP = 16


def _decimal(n: int) -> str:
    """Exact decimal digits of an int of any length.  `str` refuses ints
    past the interpreter's digit limit; `Decimal` converts without one."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # imported on first use: rarely needed

        return str(Decimal(n))


class BudgetExceeded(Exception):
    """Raised instead of returning an incomplete answer; carries the exact cost."""

    def __init__(self, message: str, cost: int | None = None):
        super().__init__(message)
        self.cost = cost


def log_base(n: int, q: int) -> float:
    """log_q of a positive integer, exact when n is a power of q."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = round(math.log(n, q)) if n > 1 else 0
    if k >= 0 and q**k == n:
        return float(k)
    return math.log(n) / math.log(q)


@dataclass(frozen=True)
class OutRecord:
    """Exact output size at one support size, and the loss it shows.

    out_size counts distinct reachable patterns on the box of a q-state
    automaton; full_size is q^volume.  method records which route
    produced the count.  The loss at the box is lambda_qits = volume -
    log_q(out_size) >= 0, in q-its (one q-it = log2 q bits), and ratio =
    log_q(out_size)/volume lies in [0, 1]; ratio is 1 iff the loss is 0.
    """

    sides: MultiIndex
    out_size: int
    q: int
    method: str
    detail: str = ""

    @property
    def full_size(self) -> int:
        return self.q**self.sides.volume

    @cached_property
    def log_out(self) -> float:
        return log_base(self.out_size, self.q)

    @property
    def ratio(self) -> float:
        return self.log_out / self.sides.volume

    @property
    def lambda_qits(self) -> float:
        return self.sides.volume - self.log_out


@dataclass(frozen=True)
class OrphanCertificate:
    """A pattern with no preimage: the canonical-code-minimal one at its size."""

    sides: MultiIndex
    pattern: Pattern


def _enumeration_cells(
    ca: CellularAutomaton, sides: MultiIndex, budget: int, origin=None
) -> tuple[RightPolytope, tuple, list]:
    """(box, exact E+N cells, per offset the cells of E + off) of validated
    sides and origin when enumerating fits; else refuse."""
    E = RightPolytope._trusted(sides, origin)
    cells, shifted = _minkowski(E, ca.neighborhood)
    q = ca.state_count
    L = len(cells)
    cost = q**L
    if cost > budget:
        raise BudgetExceeded(
            f"enumeration needs {_decimal(cost)} input patterns ({q}^{L}), budget is {budget}",
            cost=cost,
        )
    if q**E.volume > 1 << 62:
        raise BudgetExceeded(
            f"output codes ({q}^{E.volume}) exceed the 63-bit code width", cost=cost
        )
    return E, cells, shifted


def _image_bitmap(
    ca: CellularAutomaton, E: RightPolytope, cells: tuple, shifted: list
) -> tuple[np.ndarray, str]:
    """Bitmap over the q^volume output codes: True iff the pattern is reachable.

    `_enumeration_cells` returns the box E with its exact E+N cells, and
    per offset the cells of E + off, once the budget allows.  From
    q^|E+N| = _SPLIT_FLOOR inputs on, the box is cut at the middle of its
    first axis of side >= 2 into E1, the row-major prefix, and E2, so a
    code is a * q^V2 + b for the codes a on E1 and b on E2.  With
    c_i = E_i+N and the band B = c1 & c2, each half is enumerated once
    into a bitmap over (band states, outputs), A on E1 and Bm on E2, and

        seen[a * q^V2 + b] = any over s of A[s, a] and Bm[s, b].

    This is exact: the outputs on E_i read only c_i, and two inputs on
    c1 and c2 that agree on B glue into one input on c1 | c2 = E+N.  A
    half's codes span |B| + V_i <= |c_i| digits, because E2 shifted by
    the offset of largest coordinate along the cut lies in c2 minus c1
    (and E1 shifted by the smallest in c1 minus c2).  So each half bitmap
    takes at most q^|c_i| bytes, and the join gathers packed rows of Bm,
    one per true entry of A, about q^|E+N| / 8 bytes, with 16 bytes of
    indices per true entry of A; all of it is allocated after the budget
    check that priced q^|E+N|.  Smaller boxes, boxes of one cell and
    halves whose codes would pass the 63-bit width are enumerated whole.
    """
    q = ca.state_count
    L = len(cells)
    cut = next((k for k, s in enumerate(E.sides) if s > 1), None) if q**L >= _SPLIT_FLOOR else None
    if cut is not None:
        side = E.sides[cut]
        halves = [
            RightPolytope._trusted(
                E.sides[:cut] + (n,) + E.sides[cut + 1:],
                E.origin[:cut] + (E.origin[cut] + at,) + E.origin[cut + 1:],
            )
            for at, n in ((0, side // 2), (side // 2, side - side // 2))
        ]
        (c1, sh1), (c2, sh2) = (_minkowski(half, ca.neighborhood) for half in halves)
        band = tuple(sorted(set(c1).intersection(c2)))
        if all(q ** (len(band) + half.volume) <= 1 << 62 for half in halves):
            (A, n1), (Bm, n2) = (_enumerate(ca, c, band, sh) for c, sh in ((c1, sh1), (c2, sh2)))
            rows = q ** len(band)
            return _join(A.reshape(rows, -1), Bm.reshape(rows, -1)), f"cells={L},chunks={n1 + n2}"
    seen, chunks = _enumerate(ca, cells, (), shifted)
    return seen, f"cells={L},chunks={chunks}"


def _enumerate(
    ca: CellularAutomaton, cells: tuple, band: tuple, shifted: list
) -> tuple[np.ndarray, int]:
    """(bitmap, chunks run) over codes whose digits are the input states of
    the `band` cells, then the outputs on E's cells in row-major order,
    enumerating every assignment of `cells` (which hold the band and E+N).
    `shifted` holds, per offset, the cells of E + off in E's row-major order.

    The leading cells are fixed per chunk; each remaining cell is its own
    broadcast axis, so a digit's table index spans only the axes it
    reads.  Free cell k sits on axis free-1-k, and digits are added to
    the code in order of the last cell they read: the code then spans
    only the cells read so far, the trailing axes, which numpy merges
    into one contiguous inner loop.
    """
    q = ca.state_count
    L = len(cells)
    axes = _axes(q, _CHUNK)
    lead = max(L - len(axes), 0)
    at = (0,) * lead + axes[:L - lead]  # per cell: its axis, or 0 (its state per chunk)
    pos = dict(zip(cells, range(L)))
    # per digit, the cells it reads and its table scaled by its code weight:
    # an input digit reads its one cell through the identity table
    reads_of = [(pos[c],) for c in band]
    reads_of += zip(*(map(pos.__getitem__, off_cells) for off_cells in shifted))
    weight = q ** np.arange(len(reads_of) - 1, -1, -1, dtype=np.int64)
    tables = [*(np.arange(q, dtype=np.int64) * weight[:len(band), None] if band else ())]
    tables.extend(ca._rule_array * weight[len(band):].reshape((-1,) + (1,) * len(ca.neighborhood)))
    # per digit: last cell read, table and index (leading cells filled in per chunk)
    reads = []
    for args, table in zip(reads_of, tables):
        fixed = [(i, p) for i, p in enumerate(args) if p < lead] if lead else ()
        reads.append((max(args), table, [*map(at.__getitem__, args)], fixed))
    reads.sort(key=operator.itemgetter(0))

    seen = np.zeros(q ** len(reads_of), dtype=bool)
    chunks = q**lead
    for chunk in range(chunks):
        lead_states = decode_states(chunk, lead, q)
        code = 0
        for _, table, index, fixed in reads:
            for i, p in fixed:
                index[i] = lead_states[p]
            code = code + table[tuple(index)]
        seen[code] = True
    return seen, chunks


@cache
def _axes(q: int, chunk: int) -> tuple[np.ndarray, ...]:
    """For the k-th of the most cells a chunk holds, the states 0..q-1 along
    broadcast axis -1-k (shared: read only)."""
    free = next(k for k in range(chunk.bit_length()) if q ** (k + 1) > chunk)
    return tuple(np.arange(q, dtype=np.int64).reshape((q,) + (1,) * k) for k in range(free))


def _join(A: np.ndarray, Bm: np.ndarray) -> np.ndarray:
    """Flat bitmap of (a, b) with A[s, a] and Bm[s, b] for some band state s.

    The rows of Bm are packed to bits, gathered once per true entry of A
    grouped by a, and OR-ed per group with one `reduceat`."""
    n2 = Bm.shape[1]
    packed = np.packbits(Bm, axis=1)
    a, s = np.nonzero(A.T)  # grouped by a
    starts = np.flatnonzero(np.diff(a, prepend=-1))
    rows = np.bitwise_or.reduceat(packed[s], starts, axis=0)
    seen = np.zeros((A.shape[1], n2), dtype=bool)
    seen[a[starts]] = np.unpackbits(rows, axis=1, count=n2).view(bool)
    return seen.ravel()


def _restrict(seen: np.ndarray, sides: MultiIndex, sub: MultiIndex, q: int) -> np.ndarray:
    """The bitmap of box `sub` read off the bitmap of box `sides` (same
    origin, sub <= sides): a pattern on sub is reachable iff some reachable
    pattern on sides extends it.  Row-major order keeps sub's cells in
    order, so each step drops one contiguous group of cells, the tail of
    one line along one axis, with an `any` over a three-axis reshape
    (cells before, the group, cells after); numpy's 32-axis cap never binds.
    """
    cur = list(sides)
    for k, keep in enumerate(sub):
        inner = math.prod(cur[k + 1:])
        group = (cur[k] - keep) * inner
        if group:
            for line in reversed(range(math.prod(cur[:k]))):
                before = (line * cur[k] + keep) * inner
                seen = _any_middle(seen.reshape(q**before, q**group, -1))
            cur[k] = keep
    return seen.ravel()


def _any_middle(x: np.ndarray) -> np.ndarray:
    """x.any(axis=1) for a three-axis x.  numpy runs that reduction as one
    inner loop per row of the middle axis, which is slow for short rows;
    OR-ing the slices instead is several times faster up to 16 of them."""
    if x.shape[1] > _SHORT_GROUP:
        return x.any(axis=1)
    out = x[:, 0].copy()
    for g in range(1, x.shape[1]):
        out |= x[:, g]
    return out


def out_sizes_bruteforce(
    ca: CellularAutomaton, sides_list, budget: int = DEFAULT_BUDGET, origin=None
) -> list[OutRecord | BudgetExceeded]:
    """Exact output sizes of boxes at one origin, one enumeration per maximal box.

    Returns one OutRecord, or the BudgetExceeded refusal, per box in order;
    a box is refused exactly when its own q^|E+N| exceeds the budget.  Only
    the fitting boxes that lie in no larger fitting box of the list are
    enumerated.  Every other fitting box is read off such a container's
    bitmap (`_restrict`), which is exact because E' <= E gives
    E'+N <= E+N; its detail names the container, as in `from=3x4`.  One
    container bitmap is alive at a time.
    """
    boxes = [as_index(s, ca.dimension) for s in sides_list]
    origin = _as_origin(origin, ca.dimension)
    results: list[OutRecord | BudgetExceeded | None] = [None] * len(boxes)
    groups: dict[int, list[int]] = {}  # container -> the boxes read off it
    enumerated = {}  # container -> its box, E+N cells and shifts from the budget check
    # a box's strict supersets have larger volume, so they come first
    for i in sorted(range(len(boxes)), key=lambda i: -boxes[i].volume):
        try:
            found = _enumeration_cells(ca, boxes[i], budget, origin)
        except BudgetExceeded as exc:
            # kept without its traceback, whose frame would hold `results`
            # and so the refusal itself, a cycle only the garbage collector
            # frees (at the bench's pass rate, +1 MB of peak memory)
            results[i] = exc.with_traceback(None)
            continue
        home = next((c for c in groups if all(map(operator.le, boxes[i], boxes[c]))), i)
        if home == i:
            enumerated[i] = found
        groups.setdefault(home, []).append(i)
    for c, members in groups.items():
        records = _read_group(ca, *enumerated[c], [boxes[i] for i in members])
        for i, rec in zip(members, records):
            results[i] = rec
    return results


def _read_group(
    ca: CellularAutomaton, E: RightPolytope, cells: tuple, shifted: list, boxes: list[MultiIndex]
) -> list[OutRecord]:
    """Records of boxes inside the container E, whose E+N cells and shifts
    are given, from one enumeration of it; its bitmap is freed on return,
    before the next container is enumerated."""
    q = ca.state_count
    container = E.sides
    seen, detail = _image_bitmap(ca, E, cells, shifted)
    source = "from=" + "x".join(map(str, container))
    last, last_seen = container, seen
    records = []
    for sides in boxes:
        # nested boxes come in turn: read each off the one before
        if not all(map(operator.le, sides, last)):
            last, last_seen = container, seen
        last, last_seen = sides, _restrict(last_seen, last, sides, q)
        records.append(
            OutRecord(
                sides,
                int(np.count_nonzero(last_seen)),
                q,
                "bruteforce",
                detail if sides == container else source,
            )
        )
    return records


def find_orphan(
    ca: CellularAutomaton, sides, budget: int = DEFAULT_BUDGET, origin=None
) -> OrphanCertificate | None:
    """Canonical-code-minimal unreachable pattern at this size, if any.

    None means the induced map is surjective at this size.  Refuses like
    `out_sizes_bruteforce`, when q^|E+N| exceeds the budget.
    """
    sides = as_index(sides, ca.dimension)
    return _orphan(ca, *_enumeration_cells(ca, sides, budget, _as_origin(origin, sides.dim)))


def _orphan(
    ca: CellularAutomaton, E: RightPolytope, cells: tuple, shifted: list
) -> OrphanCertificate | None:
    """The canonical-code-minimal pattern on E that no input on its E+N
    `cells` reaches, read off the image bitmap; None if there is none."""
    seen, _ = _image_bitmap(ca, E, cells, shifted)
    missing = int(seen.argmin())
    if seen[missing]:
        return None
    return OrphanCertificate(sides=E.sides, pattern=Pattern.from_code(E, missing, ca.state_count))


class _SubsetDFA:
    """Subset construction over the de Bruijn graph of a 1D rule, grown lazily.

    Vertices are the q^(m-1) overlap words of a rule of span m; reading
    one more input cell c moves u to (u+c)[1:] and emits the rule output
    of the full window u+c, so the label words are exactly the reachable
    patterns.  Vertex sets are bit masks.  Id 0 is the full set; `succ`
    gives every other nonempty subset the next id when it first reaches
    it and records in `parent` the step that did, as id * q + label in
    one machine word (-1 for the full set), and -1 stands for the empty
    subset.  Both callers step ids in increasing order with labels
    ascending, so ids are breadth-first order.  The table of target masks
    takes q^(2m-1) bits; past `_TABLE_BITS` the constructor refuses
    before anything is allocated.
    """

    def __init__(self, ca: CellularAutomaton):
        offs = [o[0] for o in ca.neighborhood]
        mn = min(offs)
        m = max(offs) - mn + 1
        q = ca.state_count
        if (bits := q ** (2 * m - 1)) > _TABLE_BITS:  # q^(m-1) vertices x q labels x q^(m-1) bits
            msg = f"subset DFA vertex table needs {_decimal(bits)} bits of target masks"
            raise BudgetExceeded(f"{msg}, cap is {_TABLE_BITS}", cost=bits)
        nb = ca.neighborhood_size
        win = np.arange(q**m, dtype=np.int64)
        idx = sum(
            (win // q ** (m - 1 - (off - mn))) % q * q ** (nb - 1 - i)
            for i, off in enumerate(offs)
        )
        wout = np.asarray(ca.rule_table, dtype=np.int64)[idx]
        n_states = q ** (m - 1)
        targets = [[0] * q for _ in range(n_states)]
        for w, label in enumerate(wout.tolist()):  # window w = u+c; drop its oldest cell
            targets[w // q][label] |= 1 << (w % n_states)
        self.q = q
        self._targets = targets
        full = (1 << n_states) - 1
        self.masks = [full]
        self.ids = {full: 0}
        self.parent = array("q", [-1])

    def succ(self, i: int, label: int) -> int:
        """Id of the subset that subset i steps to by one label; -1 if empty."""
        nxt = 0
        targets = self._targets
        rest = self.masks[i]
        while rest:
            low = rest & -rest
            nxt |= targets[low.bit_length() - 1][label]
            rest ^= low
        if not nxt:
            return -1
        j = self.ids.get(nxt)
        if j is None:
            j = self.ids[nxt] = len(self.masks)
            self.masks.append(nxt)
            self.parent.append(i * self.q + label)
        return j


def out_size_transfer_1d(
    ca: CellularAutomaton, n_max: int, max_subsets: int = 1 << 16
) -> list[OutRecord]:
    """Exact output sizes for n = 1..n_max via the subset DFA.

    Counts distinct label words of each length by dynamic programming
    over `_SubsetDFA` states, with exact Python integer counts in numpy
    object arrays.  Each subset's row of q successor ids is stepped once,
    when the subset is first live.  A plan for one live set (the gather
    index sorted by successor, the reduceat starts and the next live set)
    turns a length into one `np.add.reduceat(counts[gather], starts)`;
    only the last plan is kept, rebuilt when the live set changes, and
    the live set settles within a few lengths.  Refuses if the live
    subset count ever exceeds max_subsets, or when the DFA's vertex table
    would pass `_TABLE_BITS`.
    """
    if ca.dimension != 1:
        raise ValueError("transfer counting requires dimension 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dfa = _SubsetDFA(ca)
    q = dfa.q
    rows = np.empty((0, q), dtype=np.int64)  # successor ids per stepped subset
    live = np.zeros(1, dtype=np.int64)
    counts = np.ones(1, dtype=object)
    plan_key = None
    records = []
    for n in range(1, n_max + 1):
        if live.tobytes() != plan_key:
            plan_key = live.tobytes()
            fresh = [[dfa.succ(i, c) for c in range(q)] for i in range(len(rows), len(dfa.masks))]
            rows = np.concatenate([rows, np.array(fresh, dtype=np.int64).reshape(-1, q)])
            succ = rows[live]
            src, label = np.nonzero(succ >= 0)
            dest = succ[src, label]
            order = np.argsort(dest)
            gather, dest = src[order], dest[order]
            starts = np.flatnonzero(np.diff(dest, prepend=-1))
            nxt = dest[starts]
        counts = np.add.reduceat(counts[gather], starts)
        live = nxt
        if len(live) > max_subsets:
            raise BudgetExceeded(
                f"subset construction reached {len(live)} live subsets at n={n}, "
                f"cap is {max_subsets}",
                cost=len(live),
            )
        records.append(
            OutRecord(
                sides=MultiIndex._trusted((n,)),
                out_size=int(counts.sum()),
                q=q,
                method="transfer1d",
                detail=f"subsets={len(live)}",
            )
        )
    return records


def out_sizes(
    ca: CellularAutomaton, sides_list, budget: int = DEFAULT_BUDGET
) -> list[OutRecord | BudgetExceeded]:
    """Exact output sizes of boxes at the origin, each by the route that fits.

    Returns one OutRecord, or the BudgetExceeded refusal, per box in
    order.  In dimension 1 every length is read off one
    `out_size_transfer_1d` call up to the longest box; in dimension >= 2,
    or when the transfer refuses, `out_sizes_bruteforce` counts the boxes
    under the budget.
    """
    boxes = [as_index(s, ca.dimension) for s in sides_list]
    if ca.dimension == 1 and boxes:
        try:
            records = out_size_transfer_1d(ca, max(b[0] for b in boxes))
        except BudgetExceeded:
            pass
        else:
            return [records[b[0] - 1] for b in boxes]
    return out_sizes_bruteforce(ca, boxes, budget)


def decide_surjectivity_1d(
    ca: CellularAutomaton, max_subsets: int = 1 << 20
) -> OrphanCertificate | None:
    """Decide surjectivity of a 1D automaton; always terminates.

    None means surjective; otherwise the certificate holds an orphan word
    at the origin.  Walks the subset DFA from the full set in id order,
    which is breadth-first order: an orphan word exists iff the empty
    subset is reachable.  Labels are tried in ascending order, so the
    word read back through `parent` to the first empty step is the
    lexicographically least orphan word of minimal length.  Refuses once
    more than max_subsets subsets have been reached, or when the DFA's
    vertex table would pass `_TABLE_BITS`.
    """
    if ca.dimension != 1:
        raise ValueError("the exact decision procedure requires dimension 1")
    dfa = _SubsetDFA(ca)
    i = 0
    while i < len(dfa.masks):
        for label in range(dfa.q):
            if dfa.succ(i, label) < 0:
                word = [label]
                while dfa.parent[i] >= 0:
                    i, back = divmod(dfa.parent[i], dfa.q)
                    word.append(back)
                sides = MultiIndex._trusted((len(word),))
                return OrphanCertificate(sides, Pattern(RightPolytope(sides), word[::-1]))
            if len(dfa.masks) > max_subsets:
                raise BudgetExceeded(
                    f"subset search visited {len(dfa.masks)} subsets, cap is {max_subsets}",
                    cost=len(dfa.masks),
                )
        i += 1
    return None
