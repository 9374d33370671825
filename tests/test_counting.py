import itertools
import random
import tracemalloc

import numpy as np
import pytest

from feketeca import (
    BudgetExceeded,
    CellularAutomaton,
    MultiIndex,
    RightPolytope,
    counting,
    decide_surjectivity_1d,
    find_orphan,
    out_size_transfer_1d,
    out_sizes,
    out_sizes_bruteforce,
)

import oracles


def test_oracle_constants_match_their_scripts():
    # freeze-check: the constants the suite relies on really come out of
    # the dumb enumerations
    assert tuple(oracles.and1d_out_size(n) for n in range(1, 9)) == oracles.AND1D_OUT
    rec = oracles.and1d_recurrence(12)
    assert all(rec[n] == oracles.and1d_out_size(n) for n in range(1, 13))
    assert abs(oracles.dominant_growth_log2() - oracles.LOG2_DOMINANT_ROOT) < 1e-12


def _identity(dim, q):
    return CellularAutomaton(dim, q, ((0,) * dim,), tuple(range(q)), name=f"id{q}")


class TestBruteForce:
    def test_and1d_counts(self, and1d):
        for n in range(1, 9):
            (rec,) = out_sizes_bruteforce(and1d, [n])
            assert rec.out_size == oracles.AND1D_OUT[n - 1]
            assert rec.full_size == 2**n
            assert rec.method == "bruteforce"

    def test_shift_is_full(self, shift):
        for n in range(1, 11):
            (rec,) = out_sizes_bruteforce(shift, [n])
            assert rec.out_size == rec.full_size == 2**n

    def test_and2d_table_matches_enumeration_oracle(self, and2d):
        for sides, expected in oracles.AND2D_OUT.items():
            assert out_sizes_bruteforce(and2d, [sides])[0].out_size == expected

    def test_general_path_agrees_with_oracle_on_random_rules(self, corpus_1d):
        rng = random.Random(7)
        for ca in rng.sample(corpus_1d, 6):
            rule = lambda args: ca.rule_table[
                sum(s * ca.state_count ** (len(args) - 1 - i) for i, s in enumerate(args))
            ]
            for n in (1, 2, 4):
                got = out_sizes_bruteforce(ca, [n])[0].out_size
                want = oracles.enumeration_out_size(
                    1, ca.state_count, ca.neighborhood, rule, (n,)
                )
                assert got == want, ca.name

    def test_bounds_hold(self, corpus_1d):
        for ca in corpus_1d[:30]:
            (rec,) = out_sizes_bruteforce(ca, [5])
            assert 1 <= rec.out_size <= rec.full_size

    def test_translation_invariance(self, and1d, and2d):
        rng = random.Random(1)
        cases = [
            (and1d, (4,)),
            (and2d, (2, 2)),
            (_identity(1, 200), (1,)),
            (_identity(2, 130), (1, 1)),
        ]
        bases = [out_sizes_bruteforce(ca, [sides])[0].out_size for ca, sides in cases]
        for _ in range(20):
            for (ca, sides), base in zip(cases, bases):
                origin = tuple(rng.randint(-40, 40) for _ in sides)
                (rec,) = out_sizes_bruteforce(ca, [sides], origin=origin)
                assert rec.out_size == base

    def test_high_q_identity_is_full(self):
        # states >= 128 must not wrap anywhere in the enumeration
        for ca, sides, origin in (
            (_identity(1, 200), (1,), (5,)),
            (_identity(1, 200), (1,), (0,)),
            (_identity(2, 130), (1, 1), None),
        ):
            (rec,) = out_sizes_bruteforce(ca, [sides], origin=origin)
            assert rec.out_size == rec.full_size == ca.state_count
            assert find_orphan(ca, sides, origin=origin) is None

    def test_budget_refusal_carries_exact_cost(self, and1d):
        (rec,) = out_sizes_bruteforce(and1d, [40], budget=1 << 20)
        # refusal, not a partial answer: nothing usable comes back
        assert isinstance(rec, BudgetExceeded)
        assert rec.cost == 2**41
        assert str(rec) == f"enumeration needs {2**41} input patterns (2^41), budget is {1 << 20}"


class TestBatch:
    def test_one_enumeration_per_maximal_box(self, and2d, enumerations):
        boxes = [(2, 2), (3, 3), (4, 1), (3, 3), (1, 3), (5, 5)]
        recs = out_sizes_bruteforce(and2d, boxes, budget=1 << 20)
        # 5x5 is refused; 3x3 and 4x1 are the maximal fitting boxes
        assert enumerations == [(3, 3), (4, 1)]
        assert [(r.out_size, r.detail) for r in list(recs)[:5]] == [
            (16, "from=3x3"),
            (340, "cells=15,chunks=1"),
            (16, "cells=9,chunks=1"),
            (340, "cells=15,chunks=1"),
            (8, "from=3x3"),
        ]
        assert isinstance(recs[5], BudgetExceeded) and recs[5].cost == 2**35

    def test_split_container_is_one_enumeration(self, and2d, enumerations):
        # 2^24 inputs: above the split floor, so 4x4 is enumerated as two
        # 2x4 halves; the count and the orphan are the whole enumeration's
        recs = out_sizes_bruteforce(and2d, [(3, 3), (4, 4)])
        assert enumerations == [(4, 4)]
        assert [(r.out_size, r.detail) for r in recs] == [
            (oracles.AND2D_OUT[(3, 3)], "from=4x4"),
            (19440, "cells=24,chunks=2"),
        ]
        cert = find_orphan(and2d, (4, 4))
        assert cert.pattern.code(2) == 82

    def test_refusal_matches_the_single_box_call(self, and1d):
        _, rec = out_sizes_bruteforce(and1d, [3, 40], budget=1 << 20)
        (alone,) = out_sizes_bruteforce(and1d, [40], budget=1 << 20)
        assert (str(rec), rec.cost) == (str(alone), alone.cost)

    def test_restriction_reshapes_have_three_axes(self, monkeypatch):
        # and2d on each x-slice: a 1x3x2 slab loses patterns, as and2d's 3x2
        ca = CellularAutomaton(3, 2, ((0, 0, 0), (0, 1, 0), (0, 0, 1)), (0,) * 7 + (1,))
        ranks = []
        real = counting._any_middle

        def spy(x):
            ranks.append(x.ndim)
            return real(x)

        monkeypatch.setattr(counting, "_any_middle", spy)
        top = MultiIndex((2, 3, 2))
        seen, _ = counting._image_bitmap(ca, *counting._enumeration_cells(ca, top, 1 << 30))
        counts = {}
        for sub in [(1, 3, 2), (2, 2, 2), (2, 3, 1), (1, 2, 2), (2, 1, 1)]:
            got = counting._restrict(seen, top, MultiIndex(sub), 2)
            found = counting._enumeration_cells(ca, MultiIndex(sub), 1 << 30)
            want, _ = counting._image_bitmap(ca, *found)
            assert np.array_equal(got, want)
            counts[sub] = int(np.count_nonzero(got))
        assert counts[(1, 3, 2)] == oracles.AND2D_OUT[(3, 2)]
        # numpy before 2.0 caps arrays at 32 axes; a box of 30 cells fits
        # the bitmap's byte cap, so no step may give each cell its own axis
        assert ranks and set(ranks) == {3}


class TestTransfer1D:
    def test_and1d_counts(self, and1d):
        recs = out_size_transfer_1d(and1d, 6)
        assert [r.out_size for r in recs] == [2, 4, 7, 12, 21, 37]
        assert all(r.method == "transfer1d" for r in recs)

    def test_shift_and_xor_are_full(self, shift, xor1d):
        assert [r.out_size for r in out_size_transfer_1d(shift, 10)] == [
            2**n for n in range(1, 11)
        ]
        assert [r.out_size for r in out_size_transfer_1d(xor1d, 10)] == [
            2**n for n in range(1, 11)
        ]

    def test_matches_bruteforce_incl_gap_neighborhoods(self):
        gap = CellularAutomaton(1, 2, ((0,), (2,)), (0, 1, 1, 1), name="gap-or")
        three = CellularAutomaton(
            1, 3, ((0,), (2,)), tuple((a * b) % 3 for a in range(3) for b in range(3)),
            name="gap-mul3",
        )
        negative = CellularAutomaton(1, 2, ((-1,), (1,)), (0, 1, 1, 0), name="xor-gap")
        for ca in (gap, three, negative):
            recs = out_size_transfer_1d(ca, 8)
            for n in range(1, 9):
                assert recs[n - 1].out_size == out_sizes_bruteforce(ca, [n])[0].out_size

    def test_counts_are_exact_big_integers(self, xor1d):
        recs = out_size_transfer_1d(xor1d, 300)
        assert recs[-1].out_size == 2**300  # far beyond any float/int64
        # every length, not just the last, and as plain ints
        assert [r.out_size for r in recs] == [2**n for n in range(1, 301)]
        assert all(type(r.out_size) is int for r in recs)

    def test_live_subset_counts_in_detail(self, and1d):
        recs = out_size_transfer_1d(and1d, 8)
        assert [r.detail for r in recs] == ["subsets=2"] + ["subsets=3"] * 7

    def test_subset_cap_refusal(self, and1d):
        with pytest.raises(BudgetExceeded) as info:
            out_size_transfer_1d(and1d, 5, max_subsets=1)
        assert info.value.cost == 2
        assert "reached 2 live subsets at n=1, cap is 1" in str(info.value)
        with pytest.raises(BudgetExceeded) as info:
            out_size_transfer_1d(and1d, 5, max_subsets=2)
        assert info.value.cost == 3
        assert "at n=2," in str(info.value)

    def test_log_subadditivity_of_counts(self, and1d, corpus_1d):
        for ca in [and1d] + corpus_1d[:10]:
            out = {r.sides[0]: r.out_size for r in out_size_transfer_1d(ca, 10)}
            for x in range(1, 10):
                for y in range(1, 10 - x + 1):
                    assert out[x + y] <= out[x] * out[y], ca.name


class TestOrphans:
    def test_minimal_orphan_of_and1d(self, and1d):
        cert = find_orphan(and1d, 3)
        assert cert.pattern.cells == (1, 0, 1)
        assert cert.pattern.code(2) == 5

    def test_no_orphan_at_length_two(self, and1d, shift):
        assert find_orphan(and1d, 2) is None
        for n in range(1, 9):
            assert find_orphan(shift, n) is None

    def test_certificate_is_sound_by_reenumeration(self, and1d, and2d):
        cert = find_orphan(and1d, 3)
        assert tuple(cert.pattern.cells) not in oracles.and1d_images(3)
        cert2d = find_orphan(and2d, (2, 3))
        rule = lambda args: args[0] & args[1] & args[2]
        images = oracles.enumeration_images(2, 2, and2d.neighborhood, rule, (2, 3))
        assert cert2d.pattern.cells not in images
        # and it is the minimal missing code, here the checkerboard 101/010
        missing = sorted(
            sum(v << (5 - i) for i, v in enumerate(pat))
            for pat in set(itertools.product((0, 1), repeat=6)) - images
        )
        assert cert2d.pattern.code(2) == missing[0]
        assert cert2d.pattern.cells == (1, 0, 1, 0, 1, 0)

    def test_majority_rule_orphan_verified(self):
        maj = CellularAutomaton(
            1, 2, ((-1,), (0,), (1,)),
            tuple(int(a + b + c >= 2) for a in (0, 1) for b in (0, 1) for c in (0, 1)),
            name="majority3",
        )
        word = decide_surjectivity_1d(maj).pattern.cells
        n = len(word)
        rule = lambda args: int(sum(args) >= 2)
        images = oracles.enumeration_images(1, 2, maj.neighborhood, rule, (n,))
        assert word not in images
        # shortest: every shorter length is fully covered
        for k in range(1, n):
            assert len(oracles.enumeration_images(1, 2, maj.neighborhood, rule, (k,))) == 2**k

    def test_orphan_is_code_minimal(self, and1d):
        cert = find_orphan(and1d, 4)
        images = {tuple(im) for im in oracles.and1d_images(4)}
        missing = [
            code
            for code in range(16)
            if tuple((code >> (3 - i)) & 1 for i in range(4)) not in images
        ]
        assert cert.pattern.code(2) == min(missing)


class TestDecision1D:
    def test_and1d_shortest_orphan_word(self, and1d):
        cert = decide_surjectivity_1d(and1d)
        assert cert.sides == (3,)
        assert cert.pattern.support == RightPolytope((3,))
        assert cert.pattern.cells == (1, 0, 1)
        # the same certificate as the brute-force orphan search at that length
        assert cert == find_orphan(and1d, 3)

    def test_surjective_rules(self, shift, xor1d):
        assert decide_surjectivity_1d(shift) is None
        assert decide_surjectivity_1d(xor1d) is None

    def test_agrees_with_counts_on_corpus(self, corpus_1d):
        for ca in corpus_1d[:40]:
            cert = decide_surjectivity_1d(ca)
            out = {r.sides[0]: r for r in out_size_transfer_1d(ca, 8)}
            if cert is None:
                assert all(out[n].out_size == out[n].full_size for n in out)
            else:
                word = cert.pattern.cells
                if len(word) <= 8:
                    rec = out[len(word)]
                    assert rec.out_size < rec.full_size

    def test_orphan_word_verified_by_enumeration(self, corpus_1d):
        for ca in corpus_1d[:40]:
            cert = decide_surjectivity_1d(ca)
            if cert is None or cert.sides[0] > 7:
                continue
            n = cert.sides[0]
            rule = lambda args: ca.rule_table[
                sum(s * ca.state_count ** (len(args) - 1 - i) for i, s in enumerate(args))
            ]
            images = oracles.enumeration_images(
                1, ca.state_count, ca.neighborhood, rule, (n,)
            )
            assert cert.pattern.cells not in images, ca.name

    def test_requires_dimension_one(self, and2d):
        with pytest.raises(ValueError):
            decide_surjectivity_1d(and2d)
        with pytest.raises(ValueError):
            out_size_transfer_1d(and2d, 3)

    def test_subset_cap_refusal(self, and1d):
        for cap in (1, 2):
            with pytest.raises(BudgetExceeded) as info:
                decide_surjectivity_1d(and1d, max_subsets=cap)
            assert str(info.value) == f"subset search visited {cap + 1} subsets, cap is {cap}"
            assert info.value.cost == cap + 1
        # the empty subset is reached before a fourth subset is
        assert decide_surjectivity_1d(and1d, max_subsets=3).pattern.cells == (1, 0, 1)

    def test_a_cap_below_one_subset_is_an_error(self, and1d, xor1d):
        # the full set is subset 1: no search fits a cap of 0
        for ca in (and1d, xor1d):
            with pytest.raises(ValueError, match=r"^max_subsets must be >= 1$"):
                decide_surjectivity_1d(ca, max_subsets=0)


class TestOutSizes:
    def test_one_transfer_call_in_1d(self, and1d, enumerations):
        recs = out_sizes(and1d, [5, (2,), 5, 1])
        assert [r.sides for r in recs] == [(5,), (2,), (5,), (1,)]
        assert [r.out_size for r in recs] == [21, 4, 21, 2]
        assert all(r.method == "transfer1d" for r in recs)
        assert enumerations == []

    def test_bruteforce_in_2d(self, and2d):
        boxes = [(2, 2), (5, 5), (1, 1)]
        recs = out_sizes(and2d, boxes, budget=1 << 12)
        assert recs[0] == out_sizes_bruteforce(and2d, [(2, 2)])[0]
        assert isinstance(recs[1], BudgetExceeded)
        assert recs[2].out_size == 2

    def test_transfer_refusal_falls_back_to_bruteforce(self, and1d, refused_transfer):
        recs = out_sizes(and1d, [3, 40], budget=1024)
        assert recs[0] == out_sizes_bruteforce(and1d, [3])[0]
        assert isinstance(recs[1], BudgetExceeded)
        assert recs[1].cost == 2**41


class TestSubsetTablePrice:
    """The 1D subset DFA's vertex table, q^(m-1) vertices by q labels of
    q^(m-1)-bit masks, is priced before anything of it is built."""

    def test_span_24_is_refused_before_the_table_is_built(self):
        ca = CellularAutomaton(1, 2, ((0,), (1,), (23,)), (0, 1, 1, 0, 1, 0, 0, 1))
        tracemalloc.start()
        try:
            (rec,) = out_sizes(ca, [1])
            with pytest.raises(BudgetExceeded) as refused:
                decide_surjectivity_1d(ca)
            with pytest.raises(BudgetExceeded):
                out_size_transfer_1d(ca, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the window array alone would take q^m * 8 = 2^27 bytes
        assert peak < 1 << 20
        assert refused.value.cost == 2**47
        assert (rec.out_size, rec.full_size, rec.method) == (2, 2, "bruteforce")

        # offsets (0, 23) lie in one coset of 23Z: transfer counts them
        # and the decision decides them through the span-2 reduced rule
        gapped = CellularAutomaton(1, 2, ((0,), (23,)), (0, 1, 1, 0))
        assert decide_surjectivity_1d(gapped) is None
        recs = out_sizes(gapped, range(1, 9))
        assert all(r.method == "transfer1d" for r in recs)
        brute = out_sizes_bruteforce(gapped, range(1, 9))
        assert [r.out_size for r in recs] == [r.out_size for r in brute] == [2**n for n in range(1, 9)]

    def test_the_cap_admits_a_table_of_exactly_its_size(self, and1d, monkeypatch):
        monkeypatch.setattr(counting, "_TABLE_BITS", 2**3)  # span 2: 2 vertices x 2 labels x 2 bits
        assert decide_surjectivity_1d(and1d).pattern.cells == (1, 0, 1)
        monkeypatch.setattr(counting, "_TABLE_BITS", 2**3 - 1)
        with pytest.raises(BudgetExceeded, match=r"needs 8 bits .* cap is 7$"):
            decide_surjectivity_1d(and1d)


class TestCrossMethod:
    def test_transfer_equals_bruteforce_sampled_corpus(self, corpus_1d):
        rng = random.Random(3)
        for ca in rng.sample(corpus_1d, 12):
            recs = out_size_transfer_1d(ca, 8)
            for n in range(1, 9):
                assert (
                    recs[n - 1].out_size == out_sizes_bruteforce(ca, [n])[0].out_size
                ), ca.name


class TestBitmapBytes:
    def test_a_bitmap_past_the_byte_cap_is_refused_before_it_is_built(self, and2d):
        # 2^48 inputs fit a 2^50 budget, but the 6x6 bitmap would take 2^36 bytes
        small, refused = out_sizes_bruteforce(and2d, [(2, 2), (6, 6)], budget=1 << 50)
        assert isinstance(refused, BudgetExceeded) and refused.cost == 2**36
        assert str(refused) == f"output bitmap of 2^36 bytes exceeds the {1 << 30}-byte cap"
        assert small.out_size == 16

    @pytest.mark.parametrize("gather_words", [counting._GATHER_WORDS, 1])
    def test_a_join_in_blocks_is_the_whole_enumeration(self, and2d, monkeypatch, gather_words):
        # 2^19 inputs: 3x4 is enumerated as two halves and joined, at one
        # E1 output per block under the smallest gather
        E, cells, shifted = counting._enumeration_cells(and2d, MultiIndex((3, 4)), 1 << 30)
        whole, _ = counting._enumerate(and2d, cells, (), shifted)
        monkeypatch.setattr(counting, "_GATHER_WORDS", gather_words)
        joined, detail = counting._image_bitmap(and2d, E, cells, shifted)
        assert detail == "cells=19,chunks=2" and np.array_equal(joined, whole)
