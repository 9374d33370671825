import itertools
import math
import random
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketeca import (
    FeketeEstimate,
    MultiIndex,
    SubadditiveFn,
    Violation,
    check_subadditivity,
    check_subadditivity_on_table,
    decomposition_bound,
    diagonal_schedule,
    geometric_schedule,
    running_infimum,
    subadditive,
    subadditivity_triple_count,
)

import oracles

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
    table = {MultiIndex(k): float(v) for k, v in values.items()}
    out = [Violation("negative", -1, x, 0, fx, 0.0) for x, fx in table.items() if fx < 0]
    axis_max = [max(k[axis] for k in table) for axis in range(len(next(iter(table))))]
    for x in table:
        for axis in range(x.dim):
            for y in range(1, axis_max[axis] - x[axis] + 1):
                other = MultiIndex(x[:axis] + (y,) + x[axis + 1:])
                total = MultiIndex(x[:axis] + (x[axis] + y,) + x[axis + 1:])
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
        assert check_subadditivity(SubadditiveFn(len(box), table.__getitem__), box) == (
            _table_check_reference(grid)
        )


def _product_check_reference(values):
    """Plain integer loop over every covered (x, axis, y), in table order of x."""
    table = {MultiIndex(k): v for k, v in values.items()}
    out = []
    axis_max = [max(k[axis] for k in table) for axis in range(len(next(iter(table))))]
    for x in table:
        for axis in range(x.dim):
            for y in range(1, axis_max[axis] - x[axis] + 1):
                other = MultiIndex(x[:axis] + (y,) + x[axis + 1:])
                total = MultiIndex(x[:axis] + (x[axis] + y,) + x[axis + 1:])
                if other in table and total in table:
                    lhs, rhs = table[total], table[x] * table[other]
                    if lhs > rhs:
                        out.append(Violation("subadditive", axis, x, y, lhs, rhs))
    return out


@st.composite
def sparse_int_table(draw):
    """A sparse 1D or 2D table over b^volume, for which every covered
    triple is a tie, with planted excesses and deficits.  Values pass 2^53
    early, where an excess of +1 is lost in float64."""
    dim = draw(st.integers(1, 2))
    side = draw(st.integers(1, 40 if dim == 1 else 9))
    density = draw(st.sampled_from([0.2, 0.6, 1.0]))
    base = draw(st.sampled_from([2, 3, 7]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [c for c in itertools.product(range(1, side + 1), repeat=dim) if rng.random() < density]
    rng.shuffle(cells)  # table order is not coordinate order
    table = {}
    for k in cells or [(side,) * dim]:
        val = base ** math.prod(k)
        kind = rng.random()
        if kind < 0.15:
            val += 1
        elif kind < 0.25:
            val += rng.randint(2, val)
        elif kind < 0.4:
            val -= rng.randint(1, val - 1)
        table[k] = val
    return table


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_int_table())
def test_multiplicative_table_check_matches_integer_loop(table):
    got = check_subadditivity_on_table(table, multiplicative=True)
    want = _product_check_reference(table)
    assert got == want
    with mock.patch.object(subadditive, "_PAIR_BLOCK", 5):
        assert check_subadditivity_on_table(table, multiplicative=True) == want
    assert all((type(v.lhs), type(v.rhs)) == (int, int) for v in got)


@st.composite
def column_table(draw):
    """(table, multiplicative): a 1-3D table on a sparse or complete grid,
    in shuffled order, each axis scaled by 1 or 2^40 (so coordinates and
    volumes pass 2^40 and int64), with floats over an additive base, or
    exact ints over 3^(sum of the grid indices) for the multiplicative
    mode, both with planted excesses and deficits."""
    dim = draw(st.integers(1, 3))
    side = draw(st.integers(1, {1: 40, 2: 9, 3: 5}[dim]))
    scale = draw(st.lists(st.sampled_from([1, 1 << 40]), min_size=dim, max_size=dim))
    density = draw(st.sampled_from([0.3, 1.0]))
    multiplicative = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32)))
    cells = [c for c in itertools.product(range(1, side + 1), repeat=dim) if rng.random() < density]
    rng.shuffle(cells)  # table order is not coordinate order
    table = {}
    for c in cells or [(side,) * dim]:
        kind = rng.random()
        if multiplicative:
            val = 3 ** sum(c)
            val += rng.randint(1, val) if kind < 0.2 else -rng.randint(0, val - 1) if kind < 0.4 else 0
        else:
            val = 0.7 * sum(c)
            val += rng.uniform(1e-12, 5.0) if kind < 0.2 else -rng.uniform(0, 3.0) if kind < 0.3 else 0
        table[tuple(i * s for i, s in zip(c, scale))] = val
    return table, multiplicative


@settings(max_examples=300, deadline=None, derandomize=True)
@given(column_table())
def test_columns_match_the_per_key_sweep(case):
    """The line-batched check on columns and the running infimum on
    columns equal the per-key check and per-box infimum they replaced
    (tests/oracles.py), with a mapping or columns, and in many blocks."""
    table, multiplicative = case
    want = oracles.per_line_table_check(table, multiplicative)
    columns = (np.array(list(table), dtype=np.int64), list(table.values()))
    for block in (5, subadditive._PAIR_BLOCK):
        with mock.patch.object(subadditive, "_PAIR_BLOCK", block):
            for values in (table, columns):
                got = check_subadditivity_on_table(values, multiplicative=multiplicative)
                assert [(v.kind, v.axis, tuple(v.x), v.y, v.lhs, v.rhs) for v in got] == want
    schedule = list(table) + list(table)[::2]  # repeats, in table order
    f = SubadditiveFn(len(schedule[0]), lambda x: table[tuple(x)])
    want = oracles.per_box_running_infimum(table.__getitem__, schedule)
    for boxes in (schedule, subadditive.Boxes(np.array(schedule, dtype=np.int64))):
        est = running_infimum(f, boxes)
        assert (est.evaluated_boxes, est.ratios, est.running_inf, est.last_ratio, est.tail_slope) == want


def test_multiplicative_check_sees_one_above_float_precision():
    table = {1: 3**20, 2: 3**40, 3: 3**60 + 1}
    assert float(3**60 + 1) == float(3**20 * 3**40)
    assert check_subadditivity_on_table(table, multiplicative=True) == [
        Violation("subadditive", 0, MultiIndex((1,)), 2, 3**60 + 1, 3**60),
        Violation("subadditive", 0, MultiIndex((2,)), 1, 3**60 + 1, 3**60),
    ]
    # the float check on the logarithms cannot tell the +1
    assert check_subadditivity_on_table({k: math.log(v) for k, v in table.items()}) == []


def test_multiplicative_check_wants_positive_integers():
    with pytest.raises(ValueError, match="positive integer"):
        check_subadditivity_on_table({1: 1, 2: 0}, multiplicative=True)
    with pytest.raises(TypeError):
        check_subadditivity_on_table({1: 1, 2: 1.5}, multiplicative=True)


def test_table_check_far_coordinate_is_cheap():
    start = time.perf_counter()
    violations = check_subadditivity_on_table({1: 1.0, 2: 5.0, 10**9: 1.0, 10**9 + 1: 9.0})
    assert time.perf_counter() - start < 1.0
    assert violations == [
        Violation("subadditive", 0, MultiIndex((1,)), 1, 5.0, 2.0),
        Violation("subadditive", 0, MultiIndex((1,)), 10**9, 9.0, 2.0),
        Violation("subadditive", 0, MultiIndex((10**9,)), 1, 9.0, 2.0),
    ]


class TestSampledCheck:
    """`check_subadditivity` past its exhaustive limit."""

    BUMPY = SubadditiveFn(2, lambda x: float((x[0] - 4) ** 2 + x[1] ** 2) - 5.0, name="bumpy")

    def test_violations_match_direct_evaluation(self):
        violations = check_subadditivity(self.BUMPY, (9, 7), exhaustive_limit=0, samples=500)
        assert {v.kind for v in violations} == {"negative", "subadditive"}
        for v in violations:
            if v.kind == "negative":
                assert v.lhs == self.BUMPY(v.x) < 0
                continue
            x, a = v.x, v.axis
            assert v.lhs == self.BUMPY(x[:a] + (x[a] + v.y,) + x[a + 1:])
            assert v.rhs == self.BUMPY(x) + self.BUMPY(x[:a] + (v.y,) + x[a + 1:])
            assert v.lhs > v.rhs

    def test_sampled_result_is_an_ordered_sublist_of_the_exhaustive_one(self):
        exhaustive = check_subadditivity(self.BUMPY, (9, 7))
        sampled = check_subadditivity(self.BUMPY, (9, 7), exhaustive_limit=0, samples=500)
        assert 0 < len(sampled) < len(exhaustive)
        rest = iter(exhaustive)
        assert all(v in rest for v in sampled)

    @pytest.mark.parametrize("box", [(2000,), (30, 1, 25)])
    def test_every_triple_lies_in_the_box(self, box):
        # (x + y)^2 > x^2 + y^2 along every axis: each drawn triple is reported
        f = SubadditiveFn(len(box), lambda x: float(x.volume**2))
        violations = check_subadditivity(f, box, exhaustive_limit=0, samples=3000, seed=4)
        triples = [(v.axis, v.x, v.y) for v in violations]
        assert len(set(triples)) == len(triples) > 2000  # distinct, few repeats
        for axis, x, y in triples:
            assert box[axis] >= 2
            assert all(1 <= c <= side for c, side in zip(x, box))
            assert x[axis] + y <= box[axis]
        assert {axis for axis, _, _ in triples} == {j for j, side in enumerate(box) if side >= 2}
        assert max(x[axis] + y for axis, x, y in triples if axis == 0) == box[0]

    def test_negative_values_are_their_own_kind(self):
        f = SubadditiveFn(1, lambda x: 1000.0 - x[0])
        violations = check_subadditivity(f, (2000,))
        assert violations and {v.kind for v in violations} == {"negative"}
        assert all(v.x[0] > 1000 and v.lhs == 1000.0 - v.x[0] for v in violations)
        assert [v.x for v in violations] == sorted(v.x for v in violations)

    def test_sides_past_int64_are_refused(self):
        with pytest.raises(ValueError, match="below 2\\^63"):
            check_subadditivity(TRIPLE_N, (1 << 63,))
        assert check_subadditivity(TRIPLE_N, ((1 << 63) - 1,)) == []

    def test_zero_samples_test_nothing(self):
        assert subadditivity_triple_count((2000,)) > 10**6
        assert check_subadditivity(SQUARE, (2000,), samples=0) == []


@st.composite
def sampled_case(draw):
    """(name, box, seed, samples) for the sampled check: d 1-3, each side
    up to 10^4 or from 2^31 to 2^62 (object columns for the builtins), so
    the key spaces of triples and points fall on both sides of 2^62."""
    d = draw(st.integers(1, 3))
    side = st.integers(2, 10**4) | st.integers(1 << 31, 1 << 62)
    box = tuple(draw(st.lists(side, min_size=d, max_size=d)))
    name = draw(st.sampled_from({1: ["3n", "n^2", "user"], 2: ["xy+x+y", "user"], 3: ["user"]}[d]))
    return name, box, draw(st.integers(0, 2**32)), draw(st.integers(1, 20000))


def _user_fn(x):
    """Neither subadditive nor nonnegative: both violation kinds show."""
    return float(sum((j + 2) * c for j, c in enumerate(x)) % 23) - 3.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sampled_case())
def test_sampled_check_matches_the_lexsort_check(case):
    """The keyed dedupe and the builtins' array evaluation find the
    violations of the lexsort check with per-point calls (tests/oracles.py),
    in the same order, and a user fn is called once per distinct point."""
    name, box, seed, samples = case
    from feketeca import cli

    calls, oracle_calls = {}, {}

    def counted(log):
        def fn(x):
            log[tuple(x)] = log.get(tuple(x), 0) + 1
            return _user_fn(x)

        return fn

    if name == "user":
        f = SubadditiveFn(len(box), counted(calls))
        reference = counted(oracle_calls)
    else:
        f = cli._FEKETE_BUILTINS[name]()
        reference = {"3n": TRIPLE_N, "n^2": SQUARE, "xy+x+y": PROD_PLUS}[name].fn
    got = check_subadditivity(f, box, exhaustive_limit=0, seed=seed, samples=samples)
    want = oracles.lexsort_sampled_check(reference, box, seed=seed, samples=samples)
    assert [(v.kind, v.axis, tuple(v.x), v.y, v.lhs, v.rhs) for v in got] == want
    assert calls == oracle_calls and set(calls.values()) <= {1}
    # the builtins' values themselves, where the check saw no violation
    corners = [box, (1,) * len(box), tuple(max(1, side // 3) for side in box)]
    values = f.evaluate_rows(np.array(corners, dtype=np.int64)).tolist()
    assert values == [float(reference(MultiIndex(c))) for c in corners]


class TestRunningInfimum:
    def test_additive_collapses(self):
        est = running_infimum(TRIPLE_N, diagonal_schedule(1, 100))
        assert est.running_inf == 3.0
        assert est.last_ratio == 3.0
        assert est.bracket == (3.0, 3.0)

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

    def test_no_pi_maximum_falls_back_to_the_last_box(self):
        est = running_infimum(PROD_PLUS, [(2, 1), (1, 2)])
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


def _at(est: FeketeEstimate, box) -> float:
    """The estimate's ratio at one evaluated box."""
    return est.ratios[est.evaluated_boxes.index(MultiIndex(box))]


class TestFeketeLimitEstimate:
    def test_additive_bracket_collapses(self):
        est = running_infimum(TRIPLE_N, diagonal_schedule(1, 50) + [(7,)])
        assert est.bracket == (3.0, 3.0)
        assert _at(est, (7,)) == 3.0

    def test_base_ratio_is_certified_upper_bound(self):
        est = running_infimum(PROD_PLUS, diagonal_schedule(2, 100) + [(1, 1)])
        assert _at(est, (1, 1)) == 3.0
        assert est.running_inf <= _at(est, (1, 1))
        # enlarging the base improves the certificate: f(k,k)/k^2 = 1 + 2/k
        assert abs(_at(est, (10, 10)) - 1.2) < 1e-12

    def test_product_plus_lower_end_approaches_one(self):
        est = running_infimum(PROD_PLUS, diagonal_schedule(2, 1000))
        lo, hi = est.bracket
        assert 1.0 <= lo <= 1.0 + 2e-3
        assert abs(hi - 1.002) < 1e-12


def _running_infimum_reference(f, schedule):
    """`running_infimum` as a coordinatewise-maximum loop and a product-order
    scan, for the property below."""
    boxes = []
    for b in schedule:
        b = MultiIndex(b)
        if b not in boxes:
            boxes.append(b)
    memo = {}

    def ev(pt):
        if pt not in memo:
            memo[pt] = f(pt)
        return memo[pt]

    ratios = tuple(ev(b) / b.volume for b in boxes)
    top = boxes[0]
    for b in boxes[1:]:
        top = MultiIndex(map(max, top, b))
    last = top if top in memo else max(boxes)
    last_ratio = ev(last) / last.volume
    below = [b for b in boxes if b != last and all(x <= y for x, y in zip(b, last))]
    if below:
        prev = max(below, key=lambda b: (b.volume, tuple(b)))
        gap = last.volume - prev.volume
        tail_slope = (ev(last) - ev(prev)) / gap if gap > 0 else last_ratio
    else:
        tail_slope = last_ratio
    return FeketeEstimate(tuple(boxes), ratios, min(ratios), last_ratio, tail_slope)


@st.composite
def schedule_and_values(draw):
    """A 1-3D schedule of small boxes, so duplicates, incomparable pairs,
    volume ties and schedules without a product-order maximum are common,
    and a value per box (a function of its coordinates elsewhere)."""
    dim = draw(st.integers(1, 3))
    box = st.tuples(*[st.integers(1, 4)] * dim)
    schedule = draw(st.lists(box, min_size=1, max_size=12))
    base = draw(st.one_of(st.sampled_from(schedule), box))
    values = draw(st.dictionaries(box, st.floats(0.0, 50.0), max_size=20))
    return schedule, base, values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(schedule_and_values())
def test_fekete_engine_matches_reference(case):
    schedule, base, values = case
    dim = len(base)
    calls = []

    def fn(x):
        calls.append(tuple(x))
        return values.get(tuple(x), 0.5 * sum(x) + math.prod(x) % 3)

    f = SubadditiveFn(dim, fn)
    got = running_infimum(f, schedule)
    got_calls, calls[:] = calls[:], []
    want = _running_infimum_reference(f, schedule)
    assert got == want
    assert got_calls == calls  # f once per distinct box, in schedule order
    # a base box appended to the schedule: its ratio is f(base)/volume
    base = MultiIndex(base)
    est = running_infimum(f, schedule + [base])
    assert est == _running_infimum_reference(f, schedule + [base])
    assert _at(est, base) == f(base) / base.volume
    assert type(est.evaluated_boxes[0]) is MultiIndex
