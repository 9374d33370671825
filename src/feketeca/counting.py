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
  breadth-first order they are reached from the full set.  A subset is a
  packed row of uint64 words, and a batch of newly numbered subsets is
  stepped under every label at once: the set bits of the rows gather
  rows of the target table, and one `np.bitwise_or.reduceat` ORs them
  per subset (a small batch is stepped by a bit loop over Python ints,
  which costs less there than numpy's calls).  The count is a path
  count, and it reads Out(n+1) = q * Out(n) - (the counts of the dead
  pairs, the subset-label steps to the empty set), so a length adds only
  along the live edges and the dead pairs, never over every live subset:
  one gather and one `np.add.reduceat` per length, following a plan
  built for the live set (only the last plan is kept; the live set
  settles within a few lengths).  Counts stay int64 while q^n < 2^62
  and are exact-integer object arrays after.  The surjectivity decision
  walks the same numbering: an orphan word exists iff the empty subset
  is reached, and the word is read back through the parent steps.  The
  target table, q^(2m-1) bits for span m, is priced first and refused
  past `_TABLE_BITS`.  A rule whose offsets all lie in one coset
  a + gZ, g >= 2, is g independent interleaved copies of its reduced
  rule, with offsets (o - a)/g, so `_SubsetDFA` builds, prices, steps
  and caps only the reduced rule's DFA: Out(n) is the product over r < g
  of Out'(ceil((n - r)/g)), the live subsets multiply alike, the loss is
  the sum of the copies', and the least shortest orphan is the reduced
  rule's, spread g cells apart.

`out_sizes` is the one place that picks the route: the DFA in dimension
1, brute force in higher dimensions or when the DFA refuses.  The two
routes must agree wherever both run; they share no machinery.  Counts
are exact Python integers (q^volume overflows fixed width at modest
sizes); only the 1D count keeps int64 while its bound allows.  Both
routes return one `OutTable` of columns, and its `log_out` column is the
one place that turns counts into q-its; indexing the table gives
`OutRecord` row views.  Orphan search lives here too.
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
    "OutTable",
    "OrphanCertificate",
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

# Most bytes a brute-force bitmap takes: a box's q^volume codes, or a
# half's codes over its band states.
_BITMAP_BYTES = 1 << 30

# A packed vertex set of the subset DFA is a row of these words; _BIT[b]
# is the word with bit b set.
_WORD = np.dtype("<u8")
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)

# Most words the subset DFA or a join gathers at once (a block of rows,
# or one row whose own gather is larger).
_GATHER_WORDS = 1 << 20

# Most vertex bits, in a batch of subsets plus the q * q^(m-1) windows of
# its table, for which the subset DFA steps the batch by a bit loop over
# Python ints rather than by numpy.
_WALK_BITS = 256

# Most subsets the surjectivity search steps at once, so it numbers at
# most q times this many past its cap before it refuses.
_BFS_BLOCK = 1 << 12

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


def _log_column(counts: list[int], q: int) -> np.ndarray:
    """log_q of each positive int, as one float64 array: the quotient of
    natural logs, or k exactly where that lies within 1e-9 * max(1, k) of
    an integer k and the int is q^k (q^k is built only for those)."""
    x = np.fromiter(map(math.log, counts), dtype=np.float64, count=len(counts))
    x /= math.log(q)
    k = x.round()
    for i in np.flatnonzero(abs(x - k) <= 1e-9 * np.maximum(k, 1.0)).tolist():
        if q ** int(k[i]) == counts[i]:
            x[i] = k[i]
    return x


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

    @property
    def log_out(self) -> float:
        """log_q(out_size), exact when it is a power of q."""
        return _log_column([self.out_size], self.q)[0].item()

    @property
    def ratio(self) -> float:
        return self.log_out / self.sides.volume

    @property
    def lambda_qits(self) -> float:
        return self.sides.volume - self.log_out


class OutTable:
    """Exact output sizes of a list of boxes, as columns: row i is the box
    `sides[i]`, its exact count `counts[i]` (or, for i in `refused`, the
    `BudgetExceeded` refusal) and its `OutRecord.detail`.  A table of the
    lengths 1..n builds its `sides` on first use.  `log_out` holds log_q
    of every count (0 on a refused row), exact on powers of q.  Indexing
    or iterating gives `OutRecord` row views, or the refusal."""

    def __init__(self, q: int, method: str, counts: list, details: list, sides=None, refused=()):
        self.q, self.method, self.counts, self.details = q, method, counts, details
        self._sides, self.refused = sides, refused

    @property
    def sides(self) -> list[MultiIndex]:
        if self._sides is None:
            self._sides = list(map(MultiIndex._trusted, zip(range(1, len(self) + 1))))
        return self._sides

    @cached_property
    def volumes(self) -> np.ndarray:
        """Each box's volume as int64, 1 on a refused row (whose box may not fit)."""
        if self._sides is None:
            return np.arange(1, len(self) + 1)
        return np.fromiter(map(math.prod, self.filled(self._sides, (1,))), np.int64, len(self))

    @cached_property
    def log_out(self) -> np.ndarray:
        return _log_column(self.filled(self.counts, 1), self.q)

    def filled(self, column: list, fill) -> list:
        """The column with `fill` on the refused rows."""
        if not self.refused:
            return column
        return [fill if i in self.refused else v for i, v in enumerate(column)]

    def take(self, rows: list[int], sides=None) -> "OutTable":
        """The table of these rows in turn; `sides`, when given, are their boxes."""
        refused = [j for j, i in enumerate(rows) if i in self.refused] if self.refused else ()
        counts, details = ([col[i] for i in rows] for col in (self.counts, self.details))
        sides = sides or [self.sides[i] for i in rows]
        return OutTable(self.q, self.method, counts, details, sides, refused)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i: int):
        count = self.counts[i]
        if isinstance(count, BudgetExceeded):
            return count
        return OutRecord(self.sides[i], count, self.q, self.method, self.details[i])


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
    if (size := q**E.volume) > _BITMAP_BYTES:
        raise BudgetExceeded(
            f"output bitmap of {q}^{E.volume} bytes exceeds the {_BITMAP_BYTES}-byte cap", cost=size
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
    one per true entry of A, in blocks of at most `_GATHER_WORDS` words;
    all of it is allocated after the budget check that priced q^|E+N| and
    the box bitmap's q^volume bytes.  Smaller boxes, boxes of one cell and
    halves whose bitmaps would pass `_BITMAP_BYTES` are enumerated whole.
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
        if all(q ** (len(band) + half.volume) <= _BITMAP_BYTES for half in halves):
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
    grouped by a, and OR-ed per group with one `reduceat`, for a block of
    a at a time whose gather takes at most `_GATHER_WORDS` words (or one a)."""
    n2 = Bm.shape[1]
    packed = np.packbits(Bm, axis=1)
    seen = np.zeros((A.shape[1], n2), dtype=bool)
    per = max(1, 8 * _GATHER_WORDS // packed.size)
    for a0 in range(0, A.shape[1], per):
        a, s = np.nonzero(A[:, a0:a0 + per].T)  # grouped by a
        if len(a):
            starts = np.flatnonzero(np.diff(a, prepend=-1))
            rows = np.bitwise_or.reduceat(packed[s], starts, axis=0)
            seen[a0 + a[starts]] = np.unpackbits(rows, axis=1, count=n2).view(bool)
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
    """x.any(axis=1) for a three-axis bool x.  A trailing group (last axis
    of one) of 2, 4 or 8k bytes is read as one uint16, one uint32 or k
    uint64 words per row.  numpy reduces the middle axis one row at a
    time, slow for short rows, so up to 16 slices are OR-ed instead."""
    rows, group, after = x.shape
    if after == 1 and group in (2, 4):
        return x.reshape(rows, group).view(f"u{group}") != 0
    if after == 1 and group % 8 == 0:
        x = x.reshape(rows, group // 8, 8).view(np.uint64)
    if x.shape[1] > _SHORT_GROUP:
        return x.any(axis=1)
    out = x[:, 0].copy()
    for g in range(1, x.shape[1]):
        out |= x[:, g]
    return out if out.dtype == bool else out != 0


def out_sizes_bruteforce(
    ca: CellularAutomaton, sides_list, budget: int = DEFAULT_BUDGET, origin=None
) -> OutTable:
    """Exact output sizes of boxes at one origin, one enumeration per maximal box.

    Returns one `OutTable` row per box in order, its count or the
    BudgetExceeded refusal; a box is refused exactly when its own
    q^|E+N| exceeds the budget, or its bitmap `_BITMAP_BYTES`.  Only
    the fitting boxes that lie in no larger fitting box of the list are
    enumerated.  Every other fitting box is read off such a container's
    bitmap (`_restrict`), which is exact because E' <= E gives
    E'+N <= E+N; its detail names the container, as in `from=3x4`.  One
    container bitmap is alive at a time.
    """
    boxes = [as_index(s, ca.dimension) for s in sides_list]
    origin = _as_origin(origin, ca.dimension)
    counts, details = [None] * len(boxes), [""] * len(boxes)
    groups: dict[int, list[int]] = {}  # container -> the boxes read off it
    enumerated = {}  # container -> its box, E+N cells and shifts from the budget check
    # a box's strict supersets have larger volume, so they come first
    for i in sorted(range(len(boxes)), key=lambda i: -boxes[i].volume):
        try:
            found = _enumeration_cells(ca, boxes[i], budget, origin)
        except BudgetExceeded as exc:
            # kept without its traceback, whose frame would hold `counts`
            # and so the refusal itself, a cycle only the garbage collector
            # frees (at the bench's pass rate, +1 MB of peak memory)
            counts[i] = exc.with_traceback(None)
            continue
        home = next((c for c in groups if all(map(operator.le, boxes[i], boxes[c]))), i)
        if home == i:
            enumerated[i] = found
        groups.setdefault(home, []).append(i)
    for c, rows in groups.items():
        for i, count, detail in _read_group(ca, *enumerated[c], [boxes[i] for i in rows], rows):
            counts[i], details[i] = count, detail
    refused = tuple(i for i, count in enumerate(counts) if isinstance(count, BudgetExceeded))
    return OutTable(ca.state_count, "bruteforce", counts, details, boxes, refused)


def _read_group(
    ca: CellularAutomaton, E: RightPolytope, cells: tuple, shifted: list, boxes: list, rows: list
):
    """(row, count, detail) of each box inside the container E, whose E+N
    cells and shifts are given, from one enumeration of it; its bitmap is
    freed once they are read, before the next container is enumerated."""
    q = ca.state_count
    container = E.sides
    seen, detail = _image_bitmap(ca, E, cells, shifted)
    source = "from=" + "x".join(map(str, container))
    last, last_seen = container, seen
    for row, sides in zip(rows, boxes):
        # nested boxes come in turn: read each off the one before
        if not all(map(operator.le, sides, last)):
            last, last_seen = container, seen
        last, last_seen = sides, _restrict(last_seen, last, sides, q)
        yield row, int(np.count_nonzero(last_seen)), detail if sides == container else source


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
    patterns.  A vertex set is an int mask, bit v for vertex v, and a
    packed row of little-endian uint64 words when numpy steps it.  The
    target table holds, per vertex, the q rows of vertices it steps to
    under each label: q^(2m-1) bits (each row padded to whole words),
    priced first and refused past `_TABLE_BITS` before anything is
    allocated.  With `gap` g the gcd of the offsets' differences (1 for
    one offset), the rule is g interleaved copies of its reduced rule,
    offsets (o - min)/g with the same table and neighbourhood order, and
    the DFA, span m and price are the reduced rule's: counts, orphan
    words and refusals are all read off it.  Id 0 is the full set and -1
    the empty one; `step` gives every other subset the next id when it
    first reaches it and records in `parent` the step that did, as
    id * q + label (-1 for the full set).  Subsets are stepped in id
    order with labels ascending, so ids are breadth-first order.
    """

    def __init__(self, ca: CellularAutomaton):
        offs = [o[0] for o in ca.neighborhood]
        mn = min(offs)
        self.gap = math.gcd(*(o - mn for o in offs)) or 1  # 0 for one offset
        at = [(o - mn) // self.gap for o in offs]
        m = max(at) + 1
        q = ca.state_count
        if (bits := q ** (2 * m - 1)) > _TABLE_BITS:  # q^(m-1) vertices x q labels x q^(m-1) bits
            msg = f"subset DFA vertex table needs {_decimal(bits)} bits of target masks"
            raise BudgetExceeded(f"{msg}, cap is {_TABLE_BITS}", cost=bits)
        # the output of each window u+c, its m cells read big-endian: the
        # rule's axes moved to their cells' places, broadcast over the rest
        rule = ca._rule_array.transpose(sorted(range(len(at)), key=at.__getitem__))
        self._label = np.empty((q,) * m, dtype=np.int64)
        self._label[...] = rule.reshape([q if p in at else 1 for p in range(m)])
        self.q = q
        self._states = q ** (m - 1)
        self._size = 8 * -(-self._states // 64)  # bytes of a row
        full = (1 << self._states) - 1
        self.ids = {0: -1, full: 0}
        self.parent = array("q", [-1])
        self.fresh = [full]  # the masks numbered and not yet stepped, in id order
        self.stepped = 0
        self._targets = self._rows = None  # each built on its first use

    def step(self, count: int, stop: bool = False) -> list[int]:
        """Successor ids, q per subset in (subset, label) order, of the first
        `count` subsets of `fresh`, numbering the new ones in that order.
        With `stop` the ids end at the first empty successor, and the
        engine is not stepped further: a search ends there.

        A small batch is stepped by `_walk`: one whose vertex bits, with
        those of q more subsets for the walk's table, are at most
        `_WALK_BITS`.  A larger one is stepped under every label at once,
        in blocks of rows whose gather takes at most `_GATHER_WORDS` words
        or one row: the set bits of a row pick its vertices' rows of the
        target table, and one `bitwise_or.reduceat` ORs them per subset.
        """
        q, n_states, size = self.q, self._states, self._size
        masks, self.fresh = self.fresh[:count], self.fresh[count:]
        if (count + q) * n_states <= _WALK_BITS:
            succ = self._walk(masks)
        else:
            if self._targets is None:
                # window w = u+c steps u = w // q to w minus its oldest cell
                w = np.arange(q * n_states)
                dest = w % n_states
                at = (w // q, self._label.ravel() * (size // 8) + (dest >> 6))
                self._targets = np.zeros((n_states, q * size // 8), dtype=_WORD)
                np.bitwise_or.at(self._targets, at, _BIT[dest & 63])
            if size == 8:  # numpy converts one-word masks itself
                rows = np.array(masks, dtype=_WORD).view(np.uint8).reshape(count, 8)
            else:
                rows = b"".join(mask.to_bytes(size, "little") for mask in masks)
                rows = np.frombuffer(rows, dtype=np.uint8).reshape(count, size)
            per = max(1, _GATHER_WORDS // self._targets.size)
            blocks = []
            for r0 in range(0, count, per):
                bits = np.unpackbits(rows[r0:r0 + per], axis=1, bitorder="little")
                sub, vertex = bits.nonzero()
                starts = sub.searchsorted(np.arange(len(bits)))  # no subset is empty
                blocks.append(np.bitwise_or.reduceat(self._targets[vertex], starts))
            succ = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
            if size == 8:
                succ = succ.ravel().tolist()
            else:
                succ = succ.view(np.dtype((np.void, size))).ravel().tolist()
                succ = [int.from_bytes(row, "little") for row in succ]
        ids, parent, fresh = self.ids, self.parent, self.fresh
        first, out = self.stepped * q, []
        for p, mask in enumerate(succ):
            j = ids.get(mask)
            if j is None:
                j = ids[mask] = len(parent)
                parent.append(first + p)
                fresh.append(mask)
            out.append(j)
            if j < 0 and stop:
                break
        self.stepped += count
        return out

    def _walk(self, masks: list[int]):
        """`step`'s successor masks, made as they are read, by a bit loop:
        in small batches a loop costs less than numpy's calls.  A vertex's
        q target masks, one row width apart in one int, OR into the
        subset's q successors at once."""
        q, n_states, size = self.q, self._states, self._size
        if self._rows is None:
            self._rows = [0] * n_states
            for w, label in enumerate(self._label.ravel().tolist()):
                self._rows[w // q] |= 1 << (8 * size * label + w % n_states)
            self._labels = [8 * size * c for c in range(q)]
        rows, labels, mask = self._rows, self._labels, (1 << 8 * size) - 1
        for rest in masks:
            acc = 0
            while rest:
                low = rest & -rest
                acc |= rows[low.bit_length() - 1]
                rest ^= low
            for shift in labels:
                yield acc >> shift & mask


def out_size_transfer_1d(
    ca: CellularAutomaton, n_max: int, max_subsets: int = 1 << 16
) -> OutTable:
    """Exact output sizes for n = 1..n_max via the subset DFA, one table row each.

    With c_n[s] the number of words of length n that lead from the full
    set to subset s, Out(n) is the sum of c_n over the live subsets.
    Every live subset steps under each of the q labels to a live subset
    or to the empty set, so

        Out(n+1) = q * Out(n) - sum of c_n[s] over the dead pairs (s, label),

    the pairs that step s to the empty set: each length reads only the
    few dead pairs, never every live subset.  c_{n+1} is one
    `np.add.reduceat(c_n[gather], starts)`, following a plan built for
    the live set (the gather index sorted by successor, the reduceat
    starts, the next live set and the dead pairs); the plan is rebuilt
    when the live set changes, which stops within a few lengths.  Once
    the plan maps its live set onto itself and has no dead pair, c_n is
    never read again and is no longer updated.  Every count and every
    sum at length n is at most q^n, so counts are int64 while
    q^n < 2^62 and exact Python integers (object arrays) after.

    A rule whose offsets all lie in one coset a + gZ (g >= 2, the gcd of
    their differences) is g interleaved copies of its reduced rule, with
    offsets (o - a)/g, that read disjoint inputs; `_SubsetDFA` is the
    reduced rule's (the decision spreads its orphan word g cells apart).
    It is counted up to ceil(n_max / g); with its counts Out' and live'
    (both 1 at length 0), Out(n) = prod over r < g of Out'(ceil((n - r)/g)),
    the live subsets multiply alike, so each detail is the undecomposed
    DFA's, and the loss at n is the sum of the copies' losses.

    Refuses at the first n whose live subset count exceeds max_subsets,
    with that count as the cost, or when the vertex table of the DFA
    would pass `_TABLE_BITS`.  Both refusals are the reduced DFA's: past
    max_subsets at reduced length k, a gapped rule refuses at
    n = g(k - 1) + 1, the first length with a copy of length k.
    """
    if ca.dimension != 1:
        raise ValueError("transfer counting requires dimension 1")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dfa = _SubsetDFA(ca)
    gap = dfa.gap
    counts, lives = _path_counts(dfa, -(-n_max // gap), max_subsets)
    if gap > 1:  # n = gap * k + s + 1 holds s + 1 copies of length k + 1, gap - s - 1 of k
        cols = []
        for col in (counts, lives):
            of = np.array([1, *col], dtype=object)  # from length 0: the empty pattern, the full set
            col = np.empty(n_max, dtype=object)
            for s in range(gap):
                k = len(col[s::gap])
                col[s::gap] = of[1:k + 1] ** (s + 1) * of[:k] ** (gap - s - 1)
            cols.append(col.tolist())
        counts, lives = cols
    text = {live: f"subsets={live}" for live in set(lives)}
    return OutTable(ca.state_count, "transfer1d", counts, list(map(text.__getitem__, lives)))


def _path_counts(dfa: _SubsetDFA, n_max: int, max_subsets: int):
    """The reduced DFA's columns Out'(n) and live subsets for n = 1..n_max,
    as `out_size_transfer_1d` counts them; raises its refusal at the first
    n past max_subsets, naming dfa.gap * (n - 1) + 1 in place of n."""
    q = dfa.q
    succ = np.empty((0, q), dtype=np.int64)  # successor ids per stepped subset
    live = np.zeros(1, dtype=np.int64)
    counts = np.ones(1, dtype=np.int64)
    out, outs, lives = 1, [], []
    exact_from = next(n for n in range(64) if q**n >= 1 << 62)
    stable = False
    for n in range(1, n_max + 1):
        if not stable:
            if dfa.fresh:
                ids = np.array(dfa.step(len(dfa.fresh)), dtype=np.int64)
                succ = np.concatenate([succ, ids.reshape(-1, q)])
            step = succ[live]
            src, label = np.nonzero(step >= 0)
            dest = step[src, label]
            order = np.argsort(dest)
            dest = dest[order]
            starts = np.flatnonzero(np.diff(dest, prepend=-1))
            nxt = dest[starts]
            size = len(nxt)
            if size > max_subsets:
                msg = f"subset construction reached {size} live subsets"
                msg += f" at n={dfa.gap * (n - 1) + 1}, cap is {max_subsets}"
                raise BudgetExceeded(msg, cost=size)
            # the dead pairs' subsets sum into one more entry, after the live ones
            dead = np.nonzero(step < 0)[0]
            gather = np.concatenate([src[order], dead])
            if len(dead):
                starts = np.append(starts, len(dest))
            stable = np.array_equal(nxt, live)
            live = nxt
        if n == exact_from:
            counts = counts.astype(object)
        if len(dead) or not stable:  # else the counts are never read again
            counts = np.add.reduceat(counts[gather], starts)
        out = q * out - (int(counts[-1]) if len(dead) else 0)
        outs.append(out)
        lives.append(size)
    return outs, lives


def out_sizes(
    ca: CellularAutomaton, sides_list, budget: int = DEFAULT_BUDGET
) -> OutTable:
    """Exact output sizes of boxes at the origin, each by the route that fits.

    Returns one `OutTable` row per box in order, its count or the
    BudgetExceeded refusal.  In dimension 1 every length is read off one
    `out_size_transfer_1d` call up to the longest box; in dimension >= 2,
    or when the transfer refuses, `out_sizes_bruteforce` counts the boxes
    under the budget.
    """
    boxes = [as_index(s, ca.dimension) for s in sides_list]
    if ca.dimension == 1 and boxes:
        try:
            table = out_size_transfer_1d(ca, max(boxes)[0])
        except BudgetExceeded:
            pass
        else:
            return table.take([b[0] - 1 for b in boxes], boxes)
    return out_sizes_bruteforce(ca, boxes, budget)


def decide_surjectivity_1d(
    ca: CellularAutomaton, max_subsets: int = 1 << 20
) -> OrphanCertificate | None:
    """Decide surjectivity of a 1D automaton; always terminates.

    None means surjective; otherwise the certificate holds an orphan word
    at the origin.  Walks the subset DFA from the full set in id order,
    which is breadth-first order, stepping at most `_BFS_BLOCK` subsets
    at a time: an orphan word exists iff the empty subset is reachable.
    Labels are tried in ascending order, so the word read back through
    `parent` from the first empty step is the lexicographically least
    orphan word of minimal length.  The DFA is the reduced rule's (gap
    g), and a pattern is an orphan iff one of its g interleaved subwords
    is one of the reduced rule.  So the rule is surjective iff its
    reduced rule is, and if the reduced rule's least shortest orphan is
    w, of length L, the rule's is w at cells 0, g, ..., g(L - 1) with 0
    between: only that subword has L cells at length g(L - 1) + 1.
    Refuses, on the reduced DFA, at the step that numbers subset
    max_subsets >= 1 (cost max_subsets + 1) unless an empty step comes
    first, or when the DFA's vertex table would pass `_TABLE_BITS`.
    """
    if ca.dimension != 1:
        raise ValueError("the exact decision procedure requires dimension 1")
    if max_subsets < 1:
        raise ValueError("max_subsets must be >= 1")
    dfa = _SubsetDFA(ca)
    q = dfa.q
    while dfa.fresh:
        first = dfa.stepped * q
        # the ids end at the first empty step, and number no subset past it
        ids = dfa.step(min(len(dfa.fresh), _BFS_BLOCK), stop=True)
        if len(dfa.parent) > max_subsets:
            msg = f"subset search visited {max_subsets + 1} subsets, cap is {max_subsets}"
            raise BudgetExceeded(msg, cost=max_subsets + 1)
        if ids[-1] < 0:
            i, label = divmod(first + len(ids) - 1, q)
            word = [label]
            while dfa.parent[i] >= 0:
                i, back = divmod(dfa.parent[i], q)
                word.append(back)
            cells = [0] * (dfa.gap * (len(word) - 1) + 1)
            cells[::dfa.gap] = word[::-1]
            sides = MultiIndex._trusted((len(cells),))
            return OrphanCertificate(sides, Pattern(RightPolytope(sides), cells))
    return None
