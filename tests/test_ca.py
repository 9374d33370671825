import numpy as np
import pytest

from feketeca import (
    CellularAutomaton,
    MultiIndex,
    Pattern,
    RightPolytope,
    decode_states,
    induced_map,
    make_builtin,
    minkowski_sum,
)


class TestConstruction:
    def test_builtin_shapes(self, shift, and1d, xor1d, and2d):
        assert shift.neighborhood == ((1,),)
        assert and1d.rule_table == (0, 0, 0, 1)
        assert xor1d.rule_table == (0, 1, 1, 0)
        assert and2d.dimension == 2
        assert and2d.rule_table == (0, 0, 0, 0, 0, 0, 0, 1)

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            make_builtin("life")

    def test_validation(self):
        with pytest.raises(ValueError):
            CellularAutomaton(1, 1, ((0,),), (0,))  # q < 2
        with pytest.raises(ValueError):
            CellularAutomaton(1, 2, ((0,), (0,)), (0, 0, 0, 1))  # dup offsets
        with pytest.raises(ValueError):
            CellularAutomaton(1, 2, ((0,), (1,)), (0, 0, 1))  # bad length
        with pytest.raises(ValueError):
            CellularAutomaton(1, 2, ((0,), (1,)), (0, 0, 0, 2))  # bad entry
        with pytest.raises(ValueError):
            CellularAutomaton(2, 2, ((0,),), (0, 1))  # offset dim mismatch

    def test_non_integers_are_refused_not_truncated(self):
        with pytest.raises(ValueError, match=r"^rule table entry 3 is 1\.5, not an integer$"):
            CellularAutomaton(1, 2, ((0,), (1,)), (0, 0, 0, 1.5))
        with pytest.raises(ValueError, match=r"^offset entry 0 is 0\.7, not an integer$"):
            CellularAutomaton(1, 2, (0, 0.7), (0, 0, 0, 1))
        with pytest.raises(ValueError, match=r"^offset entry 1 is 1\.0, not an integer$"):
            CellularAutomaton(2, 2, ((0, 0), (0, 1.0)), (0, 0, 0, 1))
        # anything with __index__ is an integer, as for MultiIndex
        ca = CellularAutomaton(1, 2, (np.int64(0), (np.int8(1),)), np.array([0, 0, 0, 1]))
        assert ca.neighborhood == ((0,), (1,)) and ca.rule_table == (0, 0, 0, 1)
        assert all(type(v) is int for v in ca.rule_table)

    def test_non_integer_origin_is_refused(self):
        with pytest.raises(ValueError, match=r"^origin entry 0 is 0\.5, not an integer$"):
            RightPolytope((2,), (0.5,))
        assert RightPolytope((2,), (np.int64(-1),)).origin == (-1,)

    def test_non_integer_pattern_cell_is_refused(self):
        with pytest.raises(ValueError, match=r"^pattern cell entry 0 is 1\.7, not an integer$"):
            Pattern(RightPolytope((2,)), (1.7, 0))


class TestSupports:
    def test_minkowski_interval(self):
        cells = minkowski_sum(RightPolytope(MultiIndex((3,))), [(0,), (1,)])
        assert cells == ((0,), (1,), (2,), (3,))

    def test_minkowski_2d_exact_set(self):
        E = RightPolytope(MultiIndex((2, 2)))
        cells = minkowski_sum(E, [(0, 0), (1, 0), (0, 1)])
        expected = {(x, y) for x in range(3) for y in range(2)} | {(0, 2), (1, 2)}
        assert cells == tuple(sorted(expected))  # exact, not the 3x3 bounding box

    def test_minkowski_identity_offset(self):
        E = RightPolytope(MultiIndex((4, 2)), (3, -1))
        assert minkowski_sum(E, [(0, 0)]) == tuple(E.cells())

    def test_minkowski_with_gap(self):
        cells = minkowski_sum(RightPolytope(MultiIndex((1,))), [(0,), (2,)])
        assert cells == ((0,), (2,))  # cell 1 of the bounding box is absent


class TestPatternCodes:
    def test_round_trip_exhaustive_small_volumes(self):
        supports = [
            (2, MultiIndex((16,))),
            (2, MultiIndex((4, 4))),
            (2, MultiIndex((2, 2, 2, 2))),
            (3, MultiIndex((2, 4))),
        ]
        for q, sides in supports:
            box = RightPolytope(sides)
            seen = set()
            for code in range(q**sides.volume):
                pat = Pattern.from_code(box, code, q)
                assert pat.code(q) == code
                seen.add(pat.cells)
            assert len(seen) == q**sides.volume  # bijection

    def test_code_is_big_endian_row_major(self):
        pat = Pattern(RightPolytope(MultiIndex((3,))), (1, 0, 1))
        assert pat.code(2) == 5
        grid = Pattern(RightPolytope(MultiIndex((2, 2))), (1, 0, 1, 1))
        assert grid.code(2) == 0b1011
        assert grid.grid_rows() == [(1, 0), (1, 1)]

    def test_wrong_cell_count_rejected(self):
        with pytest.raises(ValueError):
            Pattern(RightPolytope(MultiIndex((3,))), (1, 0))


class TestInducedMap:
    def test_and_hand_example(self, and1d):
        # input 1011 on cells 0..3; outputs are (1*0, 0*1, 1*1) = 001
        E = RightPolytope(MultiIndex((3,)))
        inputs = {(0,): 1, (1,): 0, (2,): 1, (3,): 1}
        out = induced_map(and1d, E, inputs)
        assert out.cells == (0, 0, 1)

    def test_shift_is_identity_on_the_word(self, shift):
        E = RightPolytope(MultiIndex((5,)))
        word = (1, 0, 1, 1, 0)
        inputs = {(i + 1,): word[i] for i in range(5)}  # E+N = {1..5}
        assert induced_map(shift, E, inputs).cells == word

    def test_all_ones_fixed_by_and(self, and1d):
        for k in range(1, 6):
            E = RightPolytope(MultiIndex((k,)))
            inputs = {(i,): 1 for i in range(k + 1)}
            assert induced_map(and1d, E, inputs).cells == (1,) * k

    def test_support_mismatch_rejected(self, and1d):
        E = RightPolytope(MultiIndex((3,)))
        with pytest.raises(ValueError):
            induced_map(and1d, E, {(0,): 1, (1,): 0, (2,): 1})

    def test_accepts_pattern_when_sum_is_a_box(self, and1d):
        E = RightPolytope(MultiIndex((3,)))
        inp = Pattern(RightPolytope(MultiIndex((4,))), (1, 0, 1, 1))
        assert induced_map(and1d, E, inp).cells == (0, 0, 1)

    def test_2d_example(self, and2d):
        E = RightPolytope(MultiIndex((1, 1)))
        inputs = {(0, 0): 1, (1, 0): 1, (0, 1): 1}
        assert induced_map(and2d, E, inputs).cells == (1,)
        inputs[(0, 1)] = 0
        assert induced_map(and2d, E, inputs).cells == (0,)


def test_public_minkowski_sum_refuses_float_offsets():
    with pytest.raises(ValueError, match=r"^offset entry 0 is 0\.5, not an integer$"):
        minkowski_sum(RightPolytope(MultiIndex((2,))), [(0.5,)])
    with pytest.raises(ValueError, match=r"does not have dimension 2"):
        minkowski_sum(RightPolytope(MultiIndex((2, 2))), [(0,)])
