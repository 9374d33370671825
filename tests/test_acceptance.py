"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single line `ACCEPTANCE <k>: PASS ... (<elapsed>)` on
success; run with `pytest tests/test_acceptance.py -v -s` to see them.
Expected values come from tests/oracles.py (dumb enumeration, a hand
recurrence, bisection on the characteristic cubic), never from the code
under test.
"""

import math
import random
import time

from feketeca import (
    SubadditiveFn,
    VerdictStatus,
    check_subadditivity,
    decide_surjectivity_1d,
    diagonal_schedule,
    decomposition_bound,
    find_orphan,
    lambda_estimate,
    out_size_transfer_1d,
    out_sizes_bruteforce,
    running_infimum,
    surjectivity_report,
    theorem2_threshold,
)

import oracles
from conftest import elementary_rules, random_rule_corpus


class _Timer:
    def __init__(self, criterion, limit_s, message):
        self.criterion = criterion
        self.limit_s = limit_s
        self.message = message

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.criterion}: {status} - {self.message} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.limit_s, (
                f"criterion {self.criterion} exceeded its {self.limit_s}s runtime limit"
            )
        return False


def test_criterion_1_and_counts(and1d):
    with _Timer(1, 1.0, "AND-automaton counts 2,4,7,12,21,37 by both routes"):
        expected = [oracles.and1d_out_size(n) for n in range(1, 7)]
        assert expected == [2, 4, 7, 12, 21, 37]
        brute = [out_sizes_bruteforce(and1d, [n])[0].out_size for n in range(1, 7)]
        transfer = [r.out_size for r in out_size_transfer_1d(and1d, 6)]
        assert brute == expected
        assert transfer == expected


def test_criterion_2_textbook_examples(shift, and1d):
    with _Timer(2, 1.0, "shift surjective with zero loss; AND orphan word 101"):
        verdict = surjectivity_report(shift)
        assert verdict.status is VerdictStatus.PROVED_SURJECTIVE
        for n in range(1, 11):
            assert out_sizes_bruteforce(shift, [n])[0].lambda_qits == 0.0

        verdict = surjectivity_report(and1d)
        assert verdict.status is VerdictStatus.NONSURJECTIVE
        word = verdict.certificate.pattern.cells
        assert word == (1, 0, 1)
        assert tuple(word) not in oracles.and1d_images(3)  # sound by re-enumeration
        assert decide_surjectivity_1d(and1d) == verdict.certificate


def test_criterion_3_log_subadditivity_suite():
    with _Timer(3, 60.0, "Out(x+y) <= Out(x)*Out(y) on 100 random rules, x+y <= 12"):
        violations = 0
        for ca in random_rule_corpus(count=100, seed=0):
            out = {r.sides[0]: r.out_size for r in out_size_transfer_1d(ca, 12)}
            for x in range(1, 12):
                for y in range(1, 12 - x + 1):
                    if out[x + y] > out[x] * out[y]:
                        violations += 1
        assert violations == 0


def test_criterion_4_multidimensional_counting(and2d):
    with _Timer(4, 300.0, "and2d exact table, loss >= 0, subadditive, shift-invariant"):
        table = {}
        for sides, expected in oracles.AND2D_OUT.items():
            (rec,) = out_sizes_bruteforce(and2d, [sides], budget=1 << 30)
            assert rec.out_size == expected
            table[sides] = rec
            assert rec.lambda_qits >= 0.0

        out = {s: r.out_size for s, r in table.items()}
        for (x1, x2) in out:
            for y in range(1, 4):
                if (x1 + y, x2) in out:
                    assert out[(x1 + y, x2)] <= out[(x1, x2)] * out[(y, x2)]
                if (x1, x2 + y) in out:
                    assert out[(x1, x2 + y)] <= out[(x1, x2)] * out[(x1, y)]

        rng = random.Random(0)
        base = out[(2, 3)]
        for _ in range(20):
            origin = (rng.randint(-40, 40), rng.randint(-40, 40))
            (rec,) = out_sizes_bruteforce(and2d, [(2, 3)], origin=origin)
            assert rec.out_size == base


def test_criterion_5_lambda_bracket(and1d):
    with _Timer(5, 30.0, "lambda bracket contains 0.8114 at width <= 0.02"):
        est = lambda_estimate(and1d, diagonal_schedule(1, 2000))
        lo, hi = est.bracket
        assert lo <= 0.8114 <= hi
        assert hi - lo <= 0.02
        # oracle: log2 of the real root of x^3 - 2x^2 + x - 1
        growth = oracles.dominant_growth_log2()
        assert hi >= growth  # certified upper end never undercuts the limit
        assert hi - growth <= 0.01


def test_criterion_6_threshold(and1d):
    with _Timer(6, 30.0, "loss >= boundary+K proved beyond a threshold T <= 64"):
        report = theorem2_threshold(and1d, K=1, r=(2,), search_box=(64,))
        T = report.T[0]
        assert T <= 64
        counts = oracles.and1d_recurrence(64)
        for n in range(T, 65):
            lam = n - math.log2(counts[n])
            assert lam >= (n + 2) - n + 1  # = 3


def test_criterion_7_fekete_engine():
    with _Timer(7, 10.0, "engine: clean check, inf near 1, bound dominates f"):
        f = SubadditiveFn(2, lambda x: float(x[0] * x[1] + x[0] + x[1]), name="xy+x+y")
        assert check_subadditivity(f, (10, 10)) == []

        est = running_infimum(f, diagonal_schedule(2, 1000))
        assert abs(est.running_inf - 1.0) <= 5e-3

        for t1 in range(1, 7):
            for t2 in range(1, 7):
                for x1 in range(1, 7):
                    for x2 in range(1, 7):
                        assert (
                            decomposition_bound(f, (t1, t2), (x1, x2))
                            >= f((x1, x2)) - 1e-9
                        )


def test_criterion_8_cross_method_and_balance(xor1d):
    with _Timer(8, 60.0, "xor full rate + transfer == brute on the whole corpus"):
        xor_records = out_size_transfer_1d(xor1d, 12)
        assert [r.out_size for r in xor_records] == [2**n for n in range(1, 13)]
        assert surjectivity_report(xor1d).status is VerdictStatus.PROVED_SURJECTIVE

        mismatches = 0
        for ca in elementary_rules() + random_rule_corpus(count=100, seed=0):
            transfer = out_size_transfer_1d(ca, 12)
            for n in range(1, 13):
                if transfer[n - 1].out_size != out_sizes_bruteforce(ca, [n])[0].out_size:
                    mismatches += 1
        assert mismatches == 0
