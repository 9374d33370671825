"""Reference routes the benchmark checks answers against.

Nothing here imports the package: the automaton is a plain `Rule` and
every count is recomputed from the definitions, so a wrong answer from
the package cannot be confirmed by the same code that produced it.

* `image_codes` enumerates every input assignment on the exact E+N cell
  set with int64 numpy arithmetic and returns the sorted distinct output
  codes (big-endian base q over the cells of E in row-major order).
* `word_counts` counts distinct output words of each length 1..n with a
  subset construction over the de Bruijn graph of a 1D rule.
* `reachable_subsets` runs the breadth-first subset search from the full
  vertex set; the empty set is reachable iff the 1D rule has an orphan.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

_CHUNK = 1 << 18


@dataclass(frozen=True)
class Rule:
    """An automaton as plain data: the neighbour states of a cell, in
    `offsets` order, index `table` big-endian in base q."""

    dim: int
    q: int
    offsets: tuple[tuple[int, ...], ...]
    table: tuple[int, ...]

    def input_cells(self, sides, origin=None) -> list[tuple[int, ...]]:
        """Sorted exact cell set E+N of the box with these sides."""
        return sorted(
            {
                tuple(c + v for c, v in zip(cell, off))
                for cell in box_cells(sides, origin)
                for off in self.offsets
            }
        )

    def inputs(self, sides) -> int:
        """Number of input assignments a full enumeration of the box visits."""
        return self.q ** len(self.input_cells(sides))

    def window_span(self) -> int:
        """Span m of a 1D neighbourhood: max offset - min offset + 1."""
        offs = [o[0] for o in self.offsets]
        return max(offs) - min(offs) + 1


def box_cells(sides, origin=None) -> list[tuple[int, ...]]:
    """Cells of the box in row-major order (last coordinate fastest)."""
    origin = origin or (0,) * len(sides)
    return list(itertools.product(*[range(o, o + s) for o, s in zip(origin, sides)]))


def image_codes(rule: Rule, sides) -> np.ndarray:
    """Sorted distinct output codes on the box, by full enumeration."""
    q = rule.q
    cells = box_cells(sides)
    if q ** len(cells) > 1 << 62:
        raise ValueError("output codes do not fit in int64")
    in_cells = rule.input_cells(sides)
    pos = {c: i for i, c in enumerate(in_cells)}
    n_in = len(in_cells)
    reads = [
        [pos[tuple(c + v for c, v in zip(cell, off))] for off in rule.offsets]
        for cell in cells
    ]
    table = np.asarray(rule.table, dtype=np.int64)
    total = q**n_in
    parts = []
    for lo in range(0, total, _CHUNK):
        code = np.arange(lo, min(lo + _CHUNK, total), dtype=np.int64)
        digits = []
        for _ in range(n_in):
            code, d = np.divmod(code, q)
            digits.append(d)
        digits.reverse()  # digits[i] is the state of in_cells[i]
        out = np.zeros_like(digits[0])
        for idxs in reads:
            ridx = np.zeros_like(out)
            for p in idxs:
                ridx = ridx * q + digits[p]
            out = out * q + table[ridx]
        parts.append(np.unique(out))
    return np.unique(np.concatenate(parts))


def first_missing(codes: np.ndarray) -> int | None:
    """Least code absent from a sorted distinct array of codes from 0 up."""
    gaps = np.flatnonzero(codes != np.arange(codes.size, dtype=np.int64))
    return int(gaps[0]) if gaps.size else int(codes.size)


def decode(code: int, length: int, q: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        code, d = divmod(code, q)
        out.append(d)
    return tuple(reversed(out))


def encode(states, q: int) -> int:
    code = 0
    for s in states:
        code = code * q + s
    return code


class _SubsetAutomaton:
    """Vertices are the q^(m-1) overlap words of a 1D rule; reading a cell
    c from u emits the rule output of the window u+c and moves to the
    window's last m-1 cells.  Subsets of vertices are int bit masks."""

    def __init__(self, rule: Rule):
        q = rule.q
        offs = [o[0] for o in rule.offsets]
        lo = min(offs)
        m = rule.window_span()
        n_vert = q ** (m - 1)
        self.q = q
        self.full = (1 << n_vert) - 1
        # succ[label][u]: mask of vertices reachable from u emitting label
        self.succ = [[0] * n_vert for _ in range(q)]
        for w in range(q**m):
            window = decode(w, m, q)
            label = rule.table[encode([window[o - lo] for o in offs], q)]
            u, v = w // q, w % n_vert
            self.succ[label][u] |= 1 << v
        self._memo: dict[tuple[int, int], int] = {}

    def step(self, mask: int, label: int) -> int:
        key = (mask, label)
        nxt = self._memo.get(key)
        if nxt is None:
            row = self.succ[label]
            nxt = 0
            rest = mask
            while rest:
                low = rest & -rest
                nxt |= row[low.bit_length() - 1]
                rest ^= low
            self._memo[key] = nxt
        return nxt


def word_counts(rule: Rule, n_max: int, live_cap: int | None = None):
    """[(distinct output words of length n, live subsets at n)] for n = 1..n_max.

    Returns None as soon as the live subset count exceeds `live_cap`.
    """
    auto = _SubsetAutomaton(rule)
    level = {auto.full: 1}
    out = []
    for _ in range(n_max):
        nxt: dict[int, int] = {}
        for mask, cnt in level.items():
            for label in range(auto.q):
                t = auto.step(mask, label)
                if t:
                    nxt[t] = nxt.get(t, 0) + cnt
        level = nxt
        if live_cap is not None and len(level) > live_cap:
            return None
        out.append((sum(level.values()), len(level)))
    return out


def reachable_subsets(rule: Rule, cap: int) -> tuple[int, bool | None]:
    """(subsets reached from the full set, whether the empty set is reachable).

    Stops early once the empty set is reached; the answer is None when
    more than `cap` subsets were seen before the search could finish.
    """
    auto = _SubsetAutomaton(rule)
    seen = {auto.full}
    queue = deque(seen)
    while queue and len(seen) <= cap:
        mask = queue.popleft()
        for label in range(auto.q):
            t = auto.step(mask, label)
            if t == 0:
                return len(seen), True
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen), (False if not queue else None)


def log_q(n: int, q: int) -> float:
    """log_q of a positive integer, exact on powers of q and safe for big ints."""
    k = round(math.log(n, q)) if n > 1 else 0
    if q**k == n:
        return float(k)
    return math.log(n) / math.log(q)
