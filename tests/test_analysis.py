import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketeca import (
    BudgetExceeded,
    CellularAutomaton,
    MultiIndex,
    OutRecord,
    OutTable,
    RightPolytope,
    SurjectivityVerdict,
    VerdictStatus,
    Violation,
    analysis,
    boundary_excess,
    counting,
    diagonal_schedule,
    find_orphan,
    lambda_estimate,
    minkowski_sum,
    out_size_transfer_1d,
    out_sizes_bruteforce,
    surjectivity_report,
    theorem2_threshold,
)
from feketeca.subadditive import _grid

import oracles


def _record_log(n, q):
    """log_q(n) as a count record reads it."""
    return OutRecord(MultiIndex((1,)), n, q, "test").log_out


class TestLoss:
    def test_log_base_exact_on_powers(self):
        assert _record_log(2**300, 2) == 300.0
        assert _record_log(3**41, 3) == 41.0
        assert abs(_record_log(7, 2) - math.log2(7)) < 1e-15

    def test_log_base_is_exact_on_powers_and_only_there(self):
        """q^k gives exactly float(k) for k up to 20000 (every k to 2000,
        then a stride); q^k - 1 and q^k + 1 get the quotient of logarithms,
        which differs from k wherever a float can tell them apart.  Read
        off a table's `log_out` column, and off one record."""
        for q in range(2, 6):
            power, want = 1, []  # (n, its log_q)
            for k in range(20001):
                if k <= 2000 or k % 61 == 0:
                    want.append((power, float(k)))
                    for n in {max(power - 1, 1), power + 1} - {power}:
                        x = math.log(n) / math.log(q)
                        want.append((n, x))
                        assert power > 1 << 40 or x != float(k)
                power *= q
            counts = [n for n, _ in want]
            column = OutTable(q, "test", counts, [""] * len(counts)).log_out
            assert column.tolist() == [x for _, x in want]
            assert all(_record_log(n, q) == x for n, x in want)

    def test_shift_loss_is_zero(self, shift):
        for n in range(1, 11):
            (rec,) = out_sizes_bruteforce(shift, [n])
            assert rec.lambda_qits == 0.0

    def test_and1d_examples(self, and1d):
        (rec3,) = out_sizes_bruteforce(and1d, [3])
        assert abs(rec3.lambda_qits - (3 - math.log2(7))) < 1e-12
        (rec1,) = out_sizes_bruteforce(and1d, [1])
        assert rec1.lambda_qits == 0.0  # zero loss despite nonsurjectivity

    def test_ratio_identity(self, and1d, and2d):
        records = [out_sizes_bruteforce(and1d, [n])[0] for n in range(1, 9)]
        records += [out_sizes_bruteforce(and2d, [s])[0] for s in oracles.AND2D_OUT]
        for rec in records:
            assert abs(rec.ratio - (1 - rec.lambda_qits / rec.sides.volume)) < 1e-12
            assert 0.0 <= rec.ratio <= 1.0
            assert rec.lambda_qits >= 0.0


class TestLambdaEstimate:
    def test_shift_bracket_is_one(self, shift):
        est = lambda_estimate(shift, diagonal_schedule(1, 50))
        assert est.bracket == (1.0, 1.0)
        assert not est.excludes_surjective
        assert est.notes == ()

    def test_xor_bracket_is_one(self, xor1d):
        est = lambda_estimate(xor1d, diagonal_schedule(1, 50))
        assert est.bracket == (1.0, 1.0)

    def test_and1d_bracket_brackets_the_growth_rate(self, and1d):
        est = lambda_estimate(and1d, diagonal_schedule(1, 2000))
        lo, hi = est.bracket
        assert lo <= 0.8114 <= hi
        assert hi - lo <= 0.02
        # every ratio upper-bounds the limit, so the certified end sits above it
        assert hi >= oracles.LOG2_DOMINANT_ROOT
        assert hi - oracles.LOG2_DOMINANT_ROOT < 1e-3
        assert not est.subadditivity_violations

    def test_and1d_excludes_one_once_n3_is_seen(self, and1d):
        est = lambda_estimate(and1d, [(1,), (2,), (3,)])
        assert est.estimate.running_inf <= math.log2(7) / 3 + 1e-12
        assert est.excludes_surjective

    def test_and2d_signal(self, and2d):
        est = lambda_estimate(and2d, diagonal_schedule(2, 3))
        assert est.estimate.running_inf < 1.0
        assert est.excludes_surjective
        assert est.bracket[0] >= 0.0

    def test_partial_annotation_on_budget(self, and2d):
        est = lambda_estimate(and2d, [(2, 2), (5, 5)], budget=1 << 12)
        assert len(est.notes) == 1 and est.notes[0].startswith("skipped (5, 5): ")
        assert est.records  # the feasible box still contributes

    def test_partial_only_when_a_box_is_skipped(self, and1d, refused_transfer):
        # brute force recovers every box the refused transfer would have given
        est = lambda_estimate(and1d, diagonal_schedule(1, 8))
        assert est.notes == ()
        assert [r.out_size for r in est.records] == list(oracles.AND1D_OUT)
        assert {r.method for r in est.records} == {"bruteforce"}

    def test_exact_check_catches_a_small_overcount(self, and1d, overcount):
        # Out(5) = 21 raised above Out(1) * Out(4) = 2 * 12; Out(2) * Out(3) = 28
        overcount[(5,)] = 25
        est = lambda_estimate(and1d, diagonal_schedule(1, 8))
        assert est.subadditivity_violations == (
            Violation("subadditive", 0, MultiIndex((1,)), 4, 25, 24),
            Violation("subadditive", 0, MultiIndex((4,)), 1, 25, 24),
        )

    def test_exact_check_catches_a_dyadic_overcount_past_float_range(self, and1d, overcount):
        big = out_size_transfer_1d(and1d, 1024)[-1].out_size
        assert big**2 > 2**1024  # float(Out(2048)) would overflow
        overcount[(2048,)] = big**2 + 1
        est = lambda_estimate(and1d, [(3,), (1024,), (2048,)])
        assert est.subadditivity_violations == (
            Violation("subadditive", 0, MultiIndex((1024,)), 1024, big**2 + 1, big**2),
        )

    def test_exact_check_covers_every_key_in_2d(self, and2d, overcount):
        est = lambda_estimate(and2d, [(1, 1), (1, 2), (1, 3), (2, 3)])
        out = {r.sides: r.out_size for r in est.records}
        assert est.subadditivity_violations == ()
        bound = out[(1, 1)] * out[(1, 2)]
        overcount[(1, 3)] = bound + 1
        est = lambda_estimate(and2d, [(1, 1), (1, 2), (1, 3), (2, 3)])
        assert est.subadditivity_violations == (
            Violation("subadditive", 1, MultiIndex((1, 1)), 2, bound + 1, bound),
            Violation("subadditive", 1, MultiIndex((1, 2)), 1, bound + 1, bound),
        )

    def test_schedule_without_checked_keys_runs_clean(self, and1d):
        # neither 100 nor 300 is <= 64 or a power of two: nothing to check
        est = lambda_estimate(and1d, [(100,), (300,)])
        assert est.subadditivity_violations == ()
        assert [r.sides for r in est.records] == [(100,), (300,)]

    def test_records_follow_the_schedule_first_occurrence(self, and1d, and2d):
        est = lambda_estimate(and1d, [(3,), (1,), (3,), (2,)])
        assert [r.sides for r in est.records] == [(3,), (1,), (2,)]
        est = lambda_estimate(and2d, [(2, 2), (1, 1), (2, 2)])
        assert [r.sides for r in est.records] == [(2, 2), (1, 1)]

    def test_fekete_engine_directly_on_and_counts(self, and1d):
        # the counting table fed straight into the standalone engine
        from feketeca import SubadditiveFn, running_infimum

        out = {r.sides: r.out_size for r in out_size_transfer_1d(and1d, 2000)}
        f = SubadditiveFn(1, lambda x: oracles.log_base(out[x], 2), name="log2-and-count")
        est = running_infimum(f, [(n,) for n in range(1, 2001)])
        lo, hi = est.bracket
        assert lo <= 0.8114 <= hi and hi - lo <= 0.02
        # the ratio at any one box, here (8,), bounds the limit from above
        assert abs(est.ratios[7] - math.log2(114) / 8) < 1e-12


def _condition(t, k, r, K):
    """C_t at the diagonal box (k, ..., k), straight from its definition:
    A * loss(t) >= vol(t) * (excess + K) with loss(t) = vol(t) - log_q Out(t),
    times log q and exponentiated, so both sides are exact ints."""
    A = math.prod(k - s + 1 for s in t.sides)
    B = math.prod(k + w for w in r) - k ** len(r) + K
    vol = t.sides.volume
    return t.q ** (A * vol) >= t.out_size**A * t.q ** (vol * B)


def _check_selection(rep, records):
    """The report's t and T: C_t holds at T and fails at T - 1 (when that
    box still holds t), every deficient box before t in row-major order
    fails at T and every one after it fails at T - 1."""
    k = rep.T[0]
    assert set(rep.T) == {k} and k >= max(rep.t.sides)
    assert rep.t.out_size < rep.t.full_size
    assert _condition(rep.t, k, rep.r, rep.K)
    assert k == max(rep.t.sides) or not _condition(rep.t, k - 1, rep.r, rep.K)
    deficient = [rec for rec in records if rec.out_size < rec.full_size]
    at = deficient.index(rep.t)
    for i, other in enumerate(deficient):
        side = k if i < at else k - 1
        if i != at and side >= max(other.sides):
            assert not _condition(other, side, rep.r, rep.K)


@st.composite
def threshold_case_1d(draw):
    """(automaton, r, K): a 1D rule of q 2-3 with 1-3 distinct offsets in
    -3..3 (so negative and gapped), a width r of 0-3 and K of 0-4."""
    q = draw(st.integers(2, 3))
    k = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k, unique=True))
    table = draw(st.lists(st.integers(0, q - 1), min_size=q**k, max_size=q**k))
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    return ca, (draw(st.integers(0, 3)),), draw(st.integers(0, 4))


@st.composite
def threshold_case_2d(draw):
    """(automaton, r, K): a binary 2D rule of one offset in -1..1, or two
    offsets one step apart along one axis (so the 5x5 box has at most 30
    input cells), with a table skewed to state 0 so constant rules come
    often, widths in {0, 1} and K of 0-2."""
    first = draw(st.tuples(st.integers(-1, 1), st.integers(-1, 1)))
    offsets = [first]
    if draw(st.booleans()):
        axis = draw(st.integers(0, 1))
        offsets.append(tuple(v + (j == axis) for j, v in enumerate(first)))
    rng = draw(st.randoms(use_true_random=False))
    table = [int(rng.random() < 0.25) for _ in range(2 ** len(offsets))]
    ca = CellularAutomaton(2, 2, tuple(offsets), table)
    return ca, draw(st.tuples(st.integers(0, 1), st.integers(0, 1))), draw(st.integers(0, 2))


class TestThresholds:
    def test_boundary_excess(self):
        assert boundary_excess((5,), (2,)) == 2
        assert boundary_excess((3, 4), (1, 2)) == 4 * 6 - 12
        with pytest.raises(ValueError):
            boundary_excess((3,), (-1,))
        # widths are integers: a float is refused, not summed into a float
        with pytest.raises(ValueError, match="boundary width entry 0 is 2.5"):
            boundary_excess((3,), (2.5,))
        assert type(boundary_excess((3,), (True,))) is int

    def test_and1d_threshold_constants(self, and1d):
        rep = theorem2_threshold(and1d, K=1, r=(2,), search_box=(64,))
        assert (rep.t.sides, rep.t.out_size, rep.T) == ((6,), 37, (28,))
        _check_selection(rep, out_size_transfer_1d(and1d, 64))
        counts = oracles.and1d_recurrence(400)
        # loss(n) >= 3 from T on, well past the search box
        assert all(2 ** (n - 3) >= counts[n] for n in range(28, 401))
        assert 2 ** (27 - 3) >= counts[27]  # the proof is not tight: 27 holds too

    def test_and1d_zero_boundary_reduces_to_variety_condition(self, and1d):
        # with excess + K = 0 any deficient count proves loss >= 0 at once,
        # so T is the first deficient box: Out(3) = 7 < 8
        rep = theorem2_threshold(and1d, K=0, r=(0,), search_box=(64,))
        assert (rep.t.sides, rep.T) == ((3,), (3,))

    def test_transfer_refusal_falls_back_to_bruteforce(self, and1d, refused_transfer):
        rep = theorem2_threshold(and1d, K=1, r=(1,), search_box=(16,))
        assert rep.t.method == "bruteforce"
        assert rep.t.out_size == oracles.and1d_recurrence(16)[rep.t.sides[0]]
        _check_selection(rep, out_sizes_bruteforce(and1d, range(1, 17)))

    def test_constant_k_validation(self, and1d):
        with pytest.raises(ValueError, match=r"K entry 0 is 0\.5, not an integer"):
            theorem2_threshold(and1d, K=0.5, r=(2,), search_box=(64,))
        with pytest.raises(ValueError, match="K must be >= 0"):
            theorem2_threshold(and1d, K=-1, r=(2,), search_box=(64,))

    def test_surjective_rule_rejected(self, shift):
        with pytest.raises(ValueError):
            theorem2_threshold(shift, K=1, r=(2,), search_box=(20,))

    def test_nonsurjectivity_comes_from_the_box_counts(self, and1d, monkeypatch):
        want = theorem2_threshold(and1d, K=1, r=(2,), search_box=(64,))

        def refuse(ca, max_subsets=None):
            raise BudgetExceeded("subset search refused")

        monkeypatch.setattr(analysis, "decide_surjectivity_1d", refuse)
        assert theorem2_threshold(and1d, K=1, r=(2,), search_box=(64,)) == want

    def test_a_refused_cell_refuses_the_search(self, and2d):
        # the 4x4 box needs 2^24 inputs; its refusal is raised, not skipped
        with pytest.raises(BudgetExceeded) as refused:
            theorem2_threshold(and2d, K=0, r=(0, 0), search_box=(4, 4), budget=2**12)
        assert refused.value.cost == 2**24
        rep = theorem2_threshold(and2d, K=0, r=(0, 0), search_box=(4, 4))
        assert (rep.t.sides, rep.T) == ((2, 3), (3, 3))

    def test_full_counts_are_no_evidence(self, and1d):
        # and1d is nonsurjective, but its counts 2 and 4 on sides 1 and 2 are full
        with pytest.raises(ValueError, match="deficient"):
            theorem2_threshold(and1d, K=0, r=(0,), search_box=(2,))

    def test_non_integer_boundary_width_is_refused(self, and1d):
        with pytest.raises(ValueError, match=r"boundary width entry 0 is 2\.9, not an integer"):
            theorem2_threshold(and1d, K=1, r=(2.9,), search_box=(64,))
        with pytest.raises(ValueError, match="must match the box dimension"):
            theorem2_threshold(and1d, K=1, r=(2, 2), search_box=(64,))
        with pytest.raises(ValueError, match="must be >= 0"):
            theorem2_threshold(and1d, K=1, r=(-1,), search_box=(64,))

    def test_and2d_desk_scale_honest_failure(self, and2d):
        # every count up to 2x2 is full: no evidence, so no threshold
        with pytest.raises(ValueError, match="deficient"):
            theorem2_threshold(and2d, K=0, r=(1, 1), search_box=(2, 2))

    def test_and2d_threshold_is_proved_for_every_larger_box(self, and2d):
        rep = theorem2_threshold(and2d, K=0, r=(1, 1), search_box=(3, 3))
        assert (rep.t.sides, rep.t.out_size, rep.T) == ((3, 3), 340, (35, 35))
        _check_selection(rep, out_sizes_bruteforce(and2d, _grid(MultiIndex((3, 3)))))
        records = out_sizes_bruteforce(and2d, _grid(MultiIndex((5, 4))))
        rep = theorem2_threshold(and2d, K=0, r=(1, 1), search_box=(5, 4))
        assert (rep.t.sides, rep.T) == ((5, 4), (24, 24))
        _check_selection(rep, records)

    def test_constant_rule_meets_the_bound_with_equality(self):
        # Out = 1, so loss(t) = vol(t) and C_t at t = (1,) reads k >= r + K
        const = CellularAutomaton(1, 2, ((0,),), (0, 0))
        rep = theorem2_threshold(const, K=1, r=(2,), search_box=(4,))
        assert (rep.t.sides, rep.T) == ((1,), (3,))
        # at side 3, A * loss(t) = vol(t) * (excess + K) = 3: e = 0 and q^0 = Out(t)^A
        assert _condition(rep.t, 3, rep.r, rep.K) and not _condition(rep.t, 2, rep.r, rep.K)
        assert analysis._certifies(rep.t, 3, rep.r, rep.K)
        assert not analysis._certifies(rep.t, 2, rep.r, rep.K)

    def test_an_overpriced_check_is_refused_before_any_power(self, and1d, monkeypatch):
        built = []  # bits of every power of a count or of q

        class Watched(int):
            def __pow__(self, exp, mod=None):
                built.append(exp * self.bit_length())
                return int(self) ** exp

        real = analysis.out_sizes
        monkeypatch.setattr(analysis, "out_sizes", lambda *args: [
            replace(rec, out_size=Watched(rec.out_size), q=Watched(rec.q)) for rec in real(*args)
        ])
        monkeypatch.setattr(analysis, "_CERTIFICATE_BITS", 10)
        with pytest.raises(BudgetExceeded, match="cap is 10") as refused:
            theorem2_threshold(and1d, K=1, r=(2,), search_box=(64,))
        # Out(3) = 7 has 3 bits: A = 4 at side 6 prices 12 bits
        assert refused.value.cost == 12
        built.clear()
        monkeypatch.setattr(analysis, "_CERTIFICATE_BITS", 1 << 24)
        with pytest.raises(BudgetExceeded) as refused:  # loss >= 10^9 needs A near 10^10
            theorem2_threshold(and1d, K=10**9, r=(2,), search_box=(64,))
        assert refused.value.cost > 1 << 24
        assert max(built, default=0) <= 1 << 24

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(threshold_case_1d())
    def test_the_proved_threshold_holds_past_the_box_in_1d(self, case):
        ca, r, K = case
        try:
            records = out_size_transfer_1d(ca, 12, max_subsets=1 << 10)
            rep = theorem2_threshold(ca, K=K, r=r, search_box=(12,))
        except BudgetExceeded:  # a subset blow-up: counting would dominate the test
            return
        except ValueError:  # no deficient count: nothing to prove
            return
        _check_selection(rep, records)
        T = rep.T[0]
        if T > 400:
            return
        q = ca.state_count
        for rec in list(out_size_transfer_1d(ca, T + 100))[T - 1:]:
            n = rec.sides[0]
            assert q ** (n - r[0] - K) >= rec.out_size

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(threshold_case_2d())
    def test_the_proved_threshold_holds_past_the_box_in_2d(self, case):
        ca, r, K = case
        try:
            rep = theorem2_threshold(ca, K=K, r=r, search_box=(3, 3))
        except ValueError:
            return
        _check_selection(rep, out_sizes_bruteforce(ca, _grid(MultiIndex((3, 3)))))
        T = rep.T[0]
        if T > 4:
            return
        boxes = [MultiIndex((a, b)) for a in range(T, 6) for b in range(T, 6)]
        for x, rec in zip(boxes, out_sizes_bruteforce(ca, boxes)):
            assert ca.state_count ** (x.volume - boundary_excess(x, r) - K) >= rec.out_size


class TestVerdicts:
    def test_shift_proved_surjective(self, shift):
        v = surjectivity_report(shift)
        assert v.status is VerdictStatus.PROVED_SURJECTIVE

    def test_and1d_verdict_with_certificate(self, and1d):
        v = surjectivity_report(and1d)
        assert v.status is VerdictStatus.NONSURJECTIVE
        assert v.certificate.pattern.cells == (1, 0, 1)

    def test_and2d_orphan_found(self, and2d):
        v = surjectivity_report(and2d)
        assert v.status is VerdictStatus.NONSURJECTIVE
        assert v.certificate.sides == (2, 3)
        # soundness: that size really is deficient
        assert out_sizes_bruteforce(and2d, [(2, 3)])[0].out_size < 2**6
        assert find_orphan(and2d, (2, 3)).pattern == v.certificate.pattern

    def test_and2d_small_budget_unknown_with_frontier(self, and2d):
        v = surjectivity_report(and2d, budget=100)
        assert v.status is VerdictStatus.UNKNOWN
        assert v.cleared  # some sizes were cleared before the wall
        assert "budget exhausted" in v.note

    def test_d2_never_proved_surjective(self):
        shift2d = CellularAutomaton(2, 2, ((1, 0),), (0, 1), name="shift2d")
        v = surjectivity_report(shift2d, budget=1 << 16)
        assert v.status is VerdictStatus.UNKNOWN
        assert v.cleared

    def test_dichotomy_consistency(self, shift, and1d):
        # surjective: zero loss everywhere checked; nonsurjective: some loss > 0
        for n in range(1, 9):
            assert out_sizes_bruteforce(shift, [n])[0].lambda_qits == 0.0
        losses = [out_sizes_bruteforce(and1d, [n])[0].lambda_qits for n in range(1, 9)]
        assert any(l > 0 for l in losses)


def _scan_reference(ca, budget):
    """The d >= 2 orphan scan as it was before it priced each box from one
    E+N: the grid sorted by (volume, box), the cost from `minkowski_sum`,
    then `find_orphan` under the remaining budget."""
    grid = _grid(MultiIndex((analysis._SCAN_MAX_SIDE,) * ca.dimension))
    remaining = budget
    cleared = []
    for sides in sorted(grid, key=lambda b: (b.volume, b)):
        cells = minkowski_sum(RightPolytope(sides), ca.neighborhood)
        cost = ca.state_count ** len(cells)
        if cost > remaining:
            return SurjectivityVerdict(
                status=VerdictStatus.UNKNOWN,
                cleared=tuple(cleared),
                note=f"budget exhausted at size {tuple(sides)} (cost {cost} > remaining {remaining})",
            )
        cert = find_orphan(ca, sides, budget=remaining)
        remaining -= cost
        if cert is not None:
            return SurjectivityVerdict(
                status=VerdictStatus.NONSURJECTIVE, certificate=cert, cleared=tuple(cleared)
            )
        cleared.append(sides)
    raise AssertionError("budgets here stop the scan long before side 12")


@st.composite
def scan_case(draw):
    """(automaton, budget): a 2D or 3D rule of q 2-3 and 1-4 distinct
    offsets within 2 of the origin (so negative and gapped), with a budget
    of 2^6 to 2^16 inputs, so scans stop part-way and some find orphans."""
    d = draw(st.sampled_from([2, 3]))
    q = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    offsets = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=k, max_size=k, unique=True)
    )
    rng = draw(st.randoms(use_true_random=False))
    skew = draw(st.sampled_from([0.0, 0.5, 0.75]))  # towards state 0: orphans come early
    table = [0 if rng.random() < skew else rng.randrange(q) for _ in range(q**k)]
    return CellularAutomaton(d, q, tuple(offsets), table), 1 << draw(st.integers(6, 16))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scan_case())
def test_scan_matches_the_reference_scan(case):
    ca, budget = case
    assert surjectivity_report(ca, budget=budget) == _scan_reference(ca, budget)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lazy_volume_order_is_the_sorted_grid(dim):
    grid = _grid(MultiIndex((12,) * dim))
    assert list(analysis._boxes_by_volume(dim, 12)) == sorted(grid, key=lambda b: (b.volume, b))


@pytest.mark.parametrize("name, budget", [("and2d", 1 << 30), ("shift2d", 1 << 20)])
def test_scan_computes_each_e_plus_n_once(name, budget, and2d, monkeypatch):
    """One E+N per scanned box, plus one per half of a box enumerated in two."""
    ca = and2d if name == "and2d" else CellularAutomaton(2, 2, ((1, 0),), (0, 1))
    calls = []
    real = counting._minkowski
    monkeypatch.setattr(counting, "_minkowski", lambda E, offs: calls.append(E) or real(E, offs))
    v = surjectivity_report(ca, budget=budget)
    # the cleared boxes, then the one that held the orphan or was refused
    scanned = list(itertools.islice(analysis._boxes_by_volume(2, 12), len(v.cleared) + 1))
    assert scanned[:-1] == list(v.cleared)
    enumerated = scanned if v.certificate else scanned[:-1]
    split = [
        b for b in enumerated
        if max(b) > 1
        and ca.state_count ** len(minkowski_sum(RightPolytope(b), ca.neighborhood))
        >= counting._SPLIT_FLOOR
    ]
    assert len(calls) == len(scanned) + 2 * len(split)
    assert split or name == "and2d"


def test_scan_raises_a_code_width_refusal(and2d, monkeypatch):
    """A refusal that costs no more than the remaining budget is not the
    budget's (once the 63-bit code width, now the bitmap's byte cap): the
    scan raises it instead of a verdict."""

    def too_wide(ca, sides, budget, origin=None):
        raise BudgetExceeded("output codes exceed the 63-bit code width", cost=budget)

    monkeypatch.setattr(analysis, "_enumeration_cells", too_wide)
    with pytest.raises(BudgetExceeded, match="code width"):
        surjectivity_report(and2d, budget=100)
