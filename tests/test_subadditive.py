import itertools
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketeca import (
    MultiIndex,
    SubadditiveFn,
    Violation,
    check_subadditivity,
    check_subadditivity_on_table,
    decomposition_bound,
    diagonal_schedule,
    fekete_limit_estimate,
    geometric_schedule,
    leq_pi,
    running_infimum,
    subadditive,
    subadditivity_triple_count,
)

TRIPLE_N = SubadditiveFn(1, lambda x: 3.0 * x[0], name="3n")
SQUARE = SubadditiveFn(1, lambda x: float(x[0] ** 2), name="n^2")
PROD_PLUS = SubadditiveFn(2, lambda x: float(x[0] * x[1] + x[0] + x[1]), name="xy+x+y")
LOG_CEIL = SubadditiveFn(1, lambda x: x[0] + math.ceil(math.log2(x[0] + 1)))


class TestMultiIndex:
    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            MultiIndex(())
        with pytest.raises(ValueError):
            MultiIndex((1, 0))
        with pytest.raises(TypeError):
            MultiIndex((1.5, 2))

    def test_volume_and_dim(self):
        x = MultiIndex((2, 3, 4))
        assert x.dim == 3
        assert x.volume == 24

    def test_leq_pi_examples(self):
        assert leq_pi((1, 2), (3, 2))
        assert not leq_pi((2, 1), (1, 2))
        assert not leq_pi((1, 2), (2, 1))
        assert leq_pi((5,), (5,))

    def test_leq_pi_dimension_mismatch(self):
        with pytest.raises(ValueError):
            leq_pi((1, 2), (1, 2, 3))

    def test_directedness_join_is_upper_bound(self):
        rng = random.Random(0)
        for _ in range(200):
            d = rng.randint(1, 4)
            x = MultiIndex(rng.randint(1, 50) for _ in range(d))
            y = MultiIndex(rng.randint(1, 50) for _ in range(d))
            z = x.join(y)
            assert leq_pi(x, z) and leq_pi(y, z)


class TestCheckSubadditivity:
    def test_additive_has_no_violations(self):
        assert check_subadditivity(TRIPLE_N, (20,)) == []

    def test_product_plus_margins_clean(self):
        assert check_subadditivity(PROD_PLUS, (10, 10)) == []

    def test_squares_violate(self):
        violations = check_subadditivity(SQUARE, (10,))
        assert violations
        assert Violation("subadditive", 0, MultiIndex((2,)), 2, 16.0, 8.0) in violations

    def test_negative_values_reported_as_their_own_kind(self):
        f = SubadditiveFn(1, lambda x: 5.0 - x[0])
        violations = check_subadditivity(f, (10,))
        kinds = {v.kind for v in violations}
        assert kinds == {"negative"}
        assert {v.x for v in violations} == {MultiIndex((n,)) for n in range(6, 11)}

    def test_triple_count(self):
        assert subadditivity_triple_count((20,)) == 190
        assert subadditivity_triple_count((10, 10)) == 900
        # one axis too short to split
        assert subadditivity_triple_count((1, 5)) == 10

    def test_sampled_mode_is_deterministic(self):
        box = (2000,)
        assert subadditivity_triple_count(box) > 10**6
        a = check_subadditivity(SQUARE, box, samples=200)
        b = check_subadditivity(SQUARE, box, samples=200)
        assert a == b and a  # same seeded sample, and n^2 still gets caught

    def test_table_check_gates_on_available_triples(self):
        violations = check_subadditivity_on_table({1: 2.0, 2: 5.0, 3: 12.0})
        assert any(v.kind == "subadditive" for v in violations)
        assert check_subadditivity_on_table({1: 2.0, 2: 4.0, 3: 6.0}) == []


def _table_check_reference(values):
    """Plain loop over every covered (x, axis, y), in table order of x."""
    table = SubadditiveFn.from_table(values).table
    out = [Violation("negative", -1, x, 0, fx, 0.0) for x, fx in table.items() if fx < 0]
    axis_max = [max(k[axis] for k in table) for axis in range(len(next(iter(table))))]
    for x in table:
        for axis in range(x.dim):
            for y in range(1, axis_max[axis] - x[axis] + 1):
                other = x.replace_coord(axis, y)
                total = x.replace_coord(axis, x[axis] + y)
                if other in table and total in table:
                    lhs, rhs = table[total], table[x] + table[other]
                    if lhs > rhs + 1e-9 * max(1.0, abs(lhs), abs(rhs)):
                        out.append(Violation("subadditive", axis, x, y, lhs, rhs))
    return out


@st.composite
def sparse_table(draw):
    """A sparse 1D or 2D table over an additive base (ties at rounding
    noise), with negative entries and planted excesses."""
    dim = draw(st.integers(1, 2))
    side = draw(st.integers(1, 40 if dim == 1 else 9))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    slope = draw(st.sampled_from([0.1, 0.7, 1.0, 3.3]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [c for c in itertools.product(range(1, side + 1), repeat=dim) if rng.random() < density]
    rng.shuffle(cells)  # table order is not coordinate order
    table = {}
    for k in cells or [(side,) * dim]:
        val = slope * sum(k)
        kind = rng.random()
        if kind < 0.1:
            val += rng.uniform(1e-12, 50.0)
        elif kind < 0.2:
            val -= rng.uniform(0.0, 1.0)
        elif kind < 0.25:
            val = -rng.uniform(0.0, 5.0)
        elif kind < 0.3:
            val += rng.choice([5e-10, 2e-9])  # either side of the tolerance floor
        table[k] = val
    return table


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_table())
def test_table_check_matches_reference_loop(table):
    got = check_subadditivity_on_table(table)
    want = _table_check_reference(table)
    assert got == want
    with mock.patch.object(subadditive, "_PAIR_BLOCK", 5):  # many blocks per line
        assert check_subadditivity_on_table(table) == want
    assert all(
        (type(v.x), type(v.y), type(v.lhs), type(v.rhs)) == (MultiIndex, int, float, float)
        for v in got
    )
    box = tuple(map(max, zip(*table)))
    if len(table) == math.prod(box):
        # a full box: the exhaustive check tabulates f on it, in row-major order
        grid = {c: table[c] for c in itertools.product(*[range(1, s + 1) for s in box])}
        assert check_subadditivity(SubadditiveFn.from_table(table), box) == (
            _table_check_reference(grid)
        )


def test_table_check_far_coordinate_is_cheap():
    start = time.perf_counter()
    violations = check_subadditivity_on_table({1: 1.0, 2: 5.0, 10**9: 1.0, 10**9 + 1: 9.0})
    assert time.perf_counter() - start < 1.0
    assert violations == [
        Violation("subadditive", 0, MultiIndex((1,)), 1, 5.0, 2.0),
        Violation("subadditive", 0, MultiIndex((1,)), 10**9, 9.0, 2.0),
        Violation("subadditive", 0, MultiIndex((10**9,)), 1, 9.0, 2.0),
    ]


class TestRunningInfimum:
    def test_additive_collapses(self):
        est = running_infimum(TRIPLE_N, diagonal_schedule(1, 100))
        assert est.running_inf == 3.0
        assert est.last_ratio == 3.0
        assert est.bracket == (3.0, 3.0)
        assert est.has_pi_maximum

    def test_product_plus_diagonal(self):
        est = running_infimum(PROD_PLUS, diagonal_schedule(2, 1000))
        assert abs(est.running_inf - 1.002) < 1e-12
        ratios = list(est.ratios)
        assert ratios == sorted(ratios, reverse=True)  # 1 + 2/k decreases

    def test_log_ceil_powers_of_two(self):
        est = running_infimum(LOG_CEIL, geometric_schedule(1, 21))
        assert abs(est.running_inf - (1 + 21 / 2**20)) <= 2e-5

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            running_infimum(TRIPLE_N, [])

    def test_no_pi_maximum_is_flagged(self):
        est = running_infimum(PROD_PLUS, [(2, 1), (1, 2)])
        assert not est.has_pi_maximum
        assert est.evaluated_boxes[-1] in ((2, 1), (1, 2))
        assert est.last_ratio == PROD_PLUS((2, 1)) / 2  # lexicographically last

    def test_running_inf_monotone_under_extension(self):
        schedule = diagonal_schedule(2, 40)
        values = [
            running_infimum(PROD_PLUS, schedule[:k]).running_inf
            for k in range(1, len(schedule) + 1)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_scaled_volume_is_degenerate(self):
        f = SubadditiveFn(3, lambda x: 2.5 * x.volume)
        est = running_infimum(f, [(1, 2, 3), (4, 4, 4), (2, 5, 1)])
        assert set(est.ratios) == {2.5}
        assert est.bracket == (2.5, 2.5)


class TestDecompositionBound:
    def test_additive_equality(self):
        assert decomposition_bound(TRIPLE_N, (5,), (13,)) == 39.0

    def test_divisible_uses_full_remainder(self):
        # x = 10, t = 5: the convention forces q=1, r=5, never r=0
        assert decomposition_bound(TRIPLE_N, (5,), (10,)) == 30.0

    def test_hand_computed_2d(self):
        assert decomposition_bound(PROD_PLUS, (2, 2), (5, 5)) == 55.0
        assert PROD_PLUS((5, 5)) == 35.0

    def test_degenerate_base(self):
        for x in [(3,), (7,)]:
            assert decomposition_bound(TRIPLE_N, x, x) == TRIPLE_N(x)
        assert decomposition_bound(PROD_PLUS, (4, 6), (4, 6)) == PROD_PLUS((4, 6))

    def test_dominates_f_on_exhaustive_sweep(self):
        for t1 in range(1, 7):
            for t2 in range(1, 7):
                for x1 in range(1, 7):
                    for x2 in range(1, 7):
                        bound = decomposition_bound(PROD_PLUS, (t1, t2), (x1, x2))
                        assert bound >= PROD_PLUS((x1, x2)) - 1e-9

    def test_dominates_f_1d_log_ceil(self):
        for t in range(1, 31):
            for x in range(1, 31):
                assert decomposition_bound(LOG_CEIL, (t,), (x,)) >= LOG_CEIL((x,)) - 1e-9


class TestFeketeLimitEstimate:
    def test_additive_bracket_collapses(self):
        est = fekete_limit_estimate(TRIPLE_N, (7,), diagonal_schedule(1, 50))
        assert est.bracket == (3.0, 3.0)
        assert est.base_ratio == 3.0

    def test_base_ratio_is_certified_upper_bound(self):
        est = fekete_limit_estimate(PROD_PLUS, (1, 1), diagonal_schedule(2, 100))
        assert est.base_ratio == 3.0
        assert est.running_inf <= est.base_ratio
        # enlarging the base improves the certificate: f(k,k)/k^2 = 1 + 2/k
        bigger = fekete_limit_estimate(PROD_PLUS, (10, 10), diagonal_schedule(2, 100))
        assert abs(bigger.base_ratio - 1.2) < 1e-12

    def test_product_plus_lower_end_approaches_one(self):
        est = fekete_limit_estimate(PROD_PLUS, (1000, 1000), diagonal_schedule(2, 1000))
        lo, hi = est.bracket
        assert 1.0 <= lo <= 1.0 + 2e-3
        assert abs(hi - 1.002) < 1e-12
