"""Cellular automata with finite neighbourhoods on Z^d.

An automaton is the quadruple (dimension, state count, ordered offset
list, rule table); the induced map on a finite rectangular support E
applies the local rule at every cell of E, reading states off the exact
Minkowski sum E+N.  A box may sit at any origin; counting enumerates
the exact cells of E+N wherever they lie.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .subadditive import MultiIndex, as_index

__all__ = [
    "CellularAutomaton",
    "RightPolytope",
    "Pattern",
    "encode_states",
    "decode_states",
    "minkowski_sum",
    "induced_map",
    "make_builtin",
    "BUILTIN_NAMES",
]

Cell = tuple[int, ...]


def encode_states(states: Sequence[int], q: int) -> int:
    """Big-endian base-q integer encoding; the first state is most significant."""
    code = 0
    for s in states:
        code = code * q + s
    return code


def decode_states(code: int, length: int, q: int) -> tuple[int, ...]:
    out = [0] * length
    for i in range(length - 1, -1, -1):
        code, out[i] = divmod(code, q)
    return tuple(out)


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as ints: a float is refused, not truncated."""
    values = tuple(values)
    for i, v in enumerate(values):
        if not hasattr(type(v), "__index__"):
            raise ValueError(f"{what} entry {i} is {v!r}, not an integer")
    return tuple(map(operator.index, values))


def _as_offset(vec, dim: int) -> Cell:
    if not hasattr(vec, "__iter__"):
        vec = (vec,)
    off = _integers(vec, "offset")
    if len(off) != dim:
        raise ValueError(f"offset {off} does not have dimension {dim}")
    return off


def _as_origin(origin, dim: int) -> Cell:
    """A box origin as ints of the box's dimension; None is the origin."""
    origin = (0,) * dim if origin is None else _integers(origin, "origin")
    if len(origin) != dim:
        raise ValueError("origin and sides must have equal dimension")
    return origin


@dataclass(frozen=True)
class CellularAutomaton:
    """dimension d, states 0..q-1, ordered neighbourhood offsets, rule table.

    The table entry at the big-endian base-q encoding of the neighbour
    states (in neighbourhood order) is the output state; the order of the
    offsets is significant and preserved exactly as given.
    """

    dimension: int
    state_count: int
    neighborhood: tuple[Cell, ...]
    rule_table: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        d = self.dimension
        q = self.state_count
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if q < 2:
            raise ValueError("state count must be >= 2")
        offsets = tuple(_as_offset(v, d) for v in self.neighborhood)
        if not offsets:
            raise ValueError("neighborhood must be nonempty")
        if len(set(offsets)) != len(offsets):
            raise ValueError("neighborhood offsets must be pairwise distinct")
        table = _integers(self.rule_table, "rule table")
        if len(table) != q ** len(offsets):
            raise ValueError(
                f"rule table must have q^n = {q ** len(offsets)} entries, got {len(table)}"
            )
        if any(not 0 <= v < q for v in table):
            raise ValueError("rule table entries must be states in 0..q-1")
        object.__setattr__(self, "neighborhood", offsets)
        object.__setattr__(self, "rule_table", table)

    @property
    def neighborhood_size(self) -> int:
        return len(self.neighborhood)

    @cached_property
    def _rule_array(self) -> np.ndarray:
        """The rule table as int64 of shape (q,) * |N|, built on first use."""
        q = self.state_count
        return np.asarray(self.rule_table, dtype=np.int64).reshape((q,) * self.neighborhood_size)

@dataclass(frozen=True)
class RightPolytope:
    """Product of integer intervals {origin_i, ..., origin_i + sides_i - 1}."""

    sides: MultiIndex
    origin: Cell = None

    def __post_init__(self):
        sides = as_index(self.sides)
        object.__setattr__(self, "sides", sides)
        object.__setattr__(self, "origin", _as_origin(self.origin, sides.dim))

    @classmethod
    def _trusted(cls, sides, origin: Cell | None = None) -> "RightPolytope":
        """A box from sides and an origin (None: the origin) already validated."""
        box = object.__new__(cls)
        vars(box).update(sides=MultiIndex._trusted(sides), origin=origin or (0,) * len(sides))
        return box

    @property
    def dim(self) -> int:
        return self.sides.dim

    @property
    def volume(self) -> int:
        return self.sides.volume

    def cells(self) -> list[Cell]:
        """All cells in row-major order (last coordinate varies fastest)."""
        return list(_shifted(self, (0,) * self.dim))


@dataclass(frozen=True)
class Pattern:
    """States assigned to the cells of a box support, row-major.

    The canonical code is the big-endian base-q encoding of the cell
    sequence, a bijection onto 0 .. q^volume - 1.
    """

    support: RightPolytope
    cells: tuple[int, ...]

    def __post_init__(self):
        cells = _integers(self.cells, "pattern cell")
        if len(cells) != self.support.volume:
            raise ValueError(
                f"pattern has {len(cells)} cells, support volume is {self.support.volume}"
            )
        object.__setattr__(self, "cells", cells)

    def code(self, q: int) -> int:
        return encode_states(self.cells, q)

    @classmethod
    def from_code(cls, support: RightPolytope, code: int, q: int) -> "Pattern":
        if not 0 <= code < q**support.volume:
            raise ValueError(f"code {code} out of range for volume {support.volume}")
        return cls(support, decode_states(code, support.volume, q))

    def as_map(self) -> dict[Cell, int]:
        return dict(zip(self.support.cells(), self.cells))

    def grid_rows(self) -> list[tuple[int, ...]]:
        """Rows of length sides[-1]; one row for d = 1."""
        width = self.support.sides[-1]
        return [self.cells[i: i + width] for i in range(0, len(self.cells), width)]


def minkowski_sum(E: RightPolytope, neighborhood: Iterable) -> tuple[Cell, ...]:
    """Exact cell set {x + v : x in E, v in N}, sorted.

    The set is kept exact rather than padded to its bounding box: gaps in
    the neighbourhood leave cells of the box untouched, and enumerating
    over them would multiply input counts by q per unused cell.
    """
    return _minkowski(E, [_as_offset(v, E.dim) for v in neighborhood])[0]


def _shifted(E: RightPolytope, off: Cell):
    """The cells of E + off, in E's row-major order."""
    return itertools.product(*[range(o + v, o + v + s) for o, v, s in zip(E.origin, off, E.sides)])


def _minkowski(E: RightPolytope, offsets) -> tuple[tuple[Cell, ...], list[tuple[Cell, ...]]]:
    """`minkowski_sum` for offsets already validated, as an automaton's are,
    with the cells of E + off it unites, per offset in E's row-major order."""
    reads = [tuple(_shifted(E, off)) for off in offsets]
    return tuple(sorted(set().union(*reads))), reads


def induced_map(ca: CellularAutomaton, E: RightPolytope, inputs) -> Pattern:
    """Apply the local rule over every cell of E.

    `inputs` assigns a state to exactly the cells of E+N; a Pattern is
    accepted when its support's cell set matches the exact Minkowski sum.
    """
    if isinstance(inputs, Pattern):
        inputs = inputs.as_map()
    if set(inputs) != set(minkowski_sum(E, ca.neighborhood)):
        raise ValueError("input support must be exactly the cell set of E+N")
    q = ca.state_count
    if any(not 0 <= s < q for s in inputs.values()):
        raise ValueError(f"input states must lie in 0..{q - 1}")
    reads = zip(*(map(inputs.__getitem__, _shifted(E, off)) for off in ca.neighborhood))
    return Pattern(E, tuple(ca.rule_table[encode_states(args, q)] for args in reads))


_BUILTINS = {
    "shift": lambda: CellularAutomaton(1, 2, ((1,),), (0, 1), name="shift"),
    "and1d": lambda: CellularAutomaton(1, 2, ((0,), (1,)), (0, 0, 0, 1), name="and1d"),
    "xor1d": lambda: CellularAutomaton(1, 2, ((0,), (1,)), (0, 1, 1, 0), name="xor1d"),
    "and2d": lambda: CellularAutomaton(
        2, 2, ((0, 0), (1, 0), (0, 1)), (0, 0, 0, 0, 0, 0, 0, 1), name="and2d"
    ),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def make_builtin(name: str) -> CellularAutomaton:
    """shift (surjective), and1d (not), xor1d (surjective), and2d (2D test case)."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(BUILTIN_NAMES)}") from None
    return factory()
