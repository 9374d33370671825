"""Property-based cross-checks of the counting routes on random rules.

Rules are drawn with negative and gapped offsets, any neighbourhood order
and state counts up to 255 (for single-offset 1D rules), keeping q^span
small so every route stays cheap.
"""

import contextlib
import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feketeca import (
    CellularAutomaton,
    cli,
    RightPolytope,
    counting,
    decide_surjectivity_1d,
    find_orphan,
    induced_map,
    minkowski_sum,
    out_size_transfer_1d,
    out_sizes,
    out_sizes_bruteforce,
)

import oracles

_SPAN_CAP = 4096  # q^span: size of the window table the transfer route builds
_ENUM_CAP = 1 << 14  # q^|E+N| brute force may enumerate per example
_PREIMAGE_CAP = 4096  # q^|E+N| up to which a certificate is re-checked
_DECIDE_CAP = 1 << 16  # q^|E+N| up to which the decision is re-checked by brute force
_DECIDE_SUBSETS = 1 << 12  # subset cap for the decision under test

_settings = settings(max_examples=250, deadline=None, derandomize=True)


@st.composite
def rule_and_size(draw):
    """(automaton, box length n, origin) with q^|E+N| at most _ENUM_CAP."""
    k = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k, unique=True))
    span = max(offsets) - min(offsets) + 1
    q_max = 255 if k == 1 else 6
    while q_max**span > _SPAN_CAP:
        q_max -= 1
    q = draw(st.integers(2, q_max))
    # balanced tables (each state equally often) are where surjective rules live
    table = draw(
        st.lists(st.integers(0, q - 1), min_size=q**k, max_size=q**k)
        | st.permutations(range(q**k)).map(lambda p: [v % q for v in p])
    )
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    n_max = 1
    while n_max < 6 and _input_count(ca, n_max + 1) <= _ENUM_CAP:
        n_max += 1
    n = draw(st.integers(1, n_max))
    origin = (draw(st.integers(-50, 50)),)
    return ca, n, origin


def _input_count(ca, sides, origin=None):
    sides = (sides,) if isinstance(sides, int) else sides
    return ca.state_count ** len(minkowski_sum(RightPolytope(sides, origin), ca.neighborhood))


@_settings
@given(rule_and_size())
def test_bruteforce_equals_transfer(case):
    ca, n, _ = case
    recs = out_size_transfer_1d(ca, n)
    for k in range(1, n + 1):
        assert out_sizes_bruteforce(ca, [k])[0].out_size == recs[k - 1].out_size


@_settings
@given(rule_and_size())
def test_bruteforce_is_translation_invariant(case):
    ca, n, origin = case
    (moved,) = out_sizes_bruteforce(ca, [n], origin=origin)
    (rec,) = out_sizes_bruteforce(ca, [n])
    assert moved.out_size == rec.out_size


@_settings
@given(rule_and_size())
def test_chunking_does_not_change_the_bitmap(case):
    ca, n, origin = case
    found = counting._enumeration_cells(ca, (n,), counting.DEFAULT_BUDGET, origin)
    whole, _ = counting._image_bitmap(ca, *found)
    # one enumerated cell per chunk: every other cell is fixed by the chunk
    with mock.patch.object(counting, "_CHUNK", ca.state_count):
        chunked, _ = counting._image_bitmap(ca, *found)
    assert np.array_equal(whole, chunked)


@_settings
@given(rule_and_size())
def test_orphan_certificate_has_no_preimage(case):
    ca, n, origin = case
    cert = find_orphan(ca, n, origin=origin)
    (rec,) = out_sizes_bruteforce(ca, [n], origin=origin)
    assert (cert is None) == (rec.out_size == rec.full_size)
    if cert is None or _input_count(ca, n, origin) > _PREIMAGE_CAP:
        return
    E = cert.pattern.support
    assert E == RightPolytope((n,), origin)
    cells = minkowski_sum(E, ca.neighborhood)
    for states in itertools.product(range(ca.state_count), repeat=len(cells)):
        assert induced_map(ca, E, dict(zip(cells, states))) != cert.pattern


@st.composite
def skewed_rule(draw, d, q):
    """A d-dimensional q-state rule of one to three distinct offsets, within
    3 of the origin in 1D and 1 otherwise (wider neighbourhoods leave few
    boxes within the cap), so negative and gapped neighbourhoods occur."""
    k = draw(st.integers(1, 3))
    reach = 3 if d == 1 else 1
    offsets = draw(
        st.lists(st.tuples(*[st.integers(-reach, reach)] * d), min_size=k, max_size=k, unique=True)
    )
    # tables from a seeded generator (drawn value by value they shrink to
    # constant rules); skewed towards state 0, most rules lose patterns
    # even on the small boxes, where restriction errors would show
    rng = draw(st.randoms(use_true_random=False))
    skew = draw(st.sampled_from([0.5, 0.0, 0.75]))
    table = [0 if rng.random() < skew else rng.randrange(q) for _ in range(q**k)]
    return CellularAutomaton(d, q, tuple(offsets), table)


@st.composite
def rule_and_boxes(draw):
    """(automaton, box list, budget, origin) in 1 to 3 dimensions.

    Distinct boxes are drawn from the grid boxes within _ENUM_CAP inputs,
    half of them inside one drawn box, and one is repeated, so lists mix
    nested boxes, incomparable ones and duplicates; the budget is drawn
    at or just under one box's input count, so some boxes are refused,
    but never under the cheapest one.
    """
    d = draw(st.integers(1, 3))
    q = draw(st.integers(2, 4))
    ca = draw(skewed_rule(d, q))
    origin = tuple(draw(st.integers(-5, 5)) for _ in range(d))
    grid = itertools.product(range(1, {1: 8, 2: 4, 3: 3}[d]), repeat=d)
    fits = [b for b in grid if _input_count(ca, b, origin) <= _ENUM_CAP]
    top = draw(st.sampled_from(fits[::-1]))
    inside = st.tuples(*[st.integers(1, t) for t in top])
    distinct = st.lists(
        inside | st.sampled_from(fits), min_size=min(3, len(fits)), max_size=5, unique=True
    )
    boxes = draw(distinct.flatmap(lambda bs: st.permutations(bs + [bs[0]])))
    costs = {_input_count(ca, b, origin) for b in boxes}
    budgets = {c - s for c in costs for s in (0, 1)} - {min(costs) - 1}
    budget = draw(st.sampled_from(sorted(budgets, reverse=True)))
    return ca, boxes, budget, origin


@_settings
@pytest.mark.parametrize("small_chunks", [False, True])
@given(case=rule_and_boxes())
def test_batch_equals_single_box_enumeration(small_chunks, case):
    ca, boxes, budget, origin = case
    want = []
    for sides in boxes:
        try:
            found = counting._enumeration_cells(ca, sides, budget, origin)
            seen, _ = counting._image_bitmap(ca, *found)
            want.append(int(np.count_nonzero(seen)))
        except counting.BudgetExceeded as exc:
            want.append(exc)
    # a chunk of q^2 inputs leaves all but two cells to the chunk loop
    chunk = ca.state_count**2 if small_chunks else counting._CHUNK
    with mock.patch.object(counting, "_CHUNK", chunk):
        got = out_sizes_bruteforce(ca, boxes, budget=budget, origin=origin)
    assert len(got) == len(boxes)
    for sides, rec, ref in zip(boxes, got, want):
        if isinstance(ref, counting.BudgetExceeded):
            assert isinstance(rec, counting.BudgetExceeded)
            assert (str(rec), rec.cost) == (str(ref), ref.cost)
        else:
            assert rec.sides == sides and rec.method == "bruteforce"
            assert (rec.out_size, rec.full_size) == (ref, ca.state_count ** rec.sides.volume)


@st.composite
def rule_and_box(draw):
    """(automaton, sides, origin) in 1 to 3 dimensions within _ENUM_CAP
    inputs, with a side >= 2 somewhere; the leading axes are often of
    side 1 (1xn, 1x1xn boxes), so the cut falls on a later axis."""
    d = draw(st.integers(1, 3))
    q = draw(st.integers(2, 4))
    ca = draw(skewed_rule(d, q))
    origin = tuple(draw(st.integers(-5, 5)) for _ in range(d))
    flat = draw(st.integers(0, d - 1))  # leading axes of side 1
    grid = itertools.product(range(1, {1: 10, 2: 6, 3: 4}[d - flat]), repeat=d - flat)
    fits = [
        (1,) * flat + b
        for b in grid
        if max(b) > 1 and _input_count(ca, (1,) * flat + b, origin) <= _ENUM_CAP
    ]
    return ca, draw(st.sampled_from(fits)), origin


@_settings
@pytest.mark.parametrize("small_chunks", [False, True])
@given(case=rule_and_box())
def test_split_bitmap_equals_the_whole_enumeration(small_chunks, case):
    ca, sides, origin = case
    E, cells, shifted = counting._enumeration_cells(ca, sides, counting.DEFAULT_BUDGET, origin)
    whole, _ = counting._enumerate(ca, cells, (), shifted)
    # every box is split; a chunk of q^2 inputs sends the halves through the chunk loop
    chunk = ca.state_count**2 if small_chunks else counting._CHUNK
    with mock.patch.object(counting, "_SPLIT_FLOOR", 1), mock.patch.object(
        counting, "_CHUNK", chunk
    ), mock.patch.object(counting, "_join", wraps=counting._join) as join:
        split, _ = counting._image_bitmap(ca, E, cells, shifted)
    assert join.call_count == 1
    assert split.dtype == whole.dtype
    assert np.array_equal(split, whole)


@st.composite
def rule_1d(draw):
    """A 1D rule, one to three distinct offsets in -3..3 (so negative and
    gapped neighbourhoods), q 2-3 with q^span <= 243 (a wider q = 3 rule
    can take seconds to decide), and a balanced or a seeded random table."""
    k = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k, unique=True))
    q = draw(st.integers(2, 3 if 3 ** (max(offsets) - min(offsets) + 1) <= 243 else 2))
    rng = draw(st.randoms(use_true_random=False))
    table = [rng.randrange(q) for _ in range(q**k)]
    if draw(st.booleans()):  # each state equally often: surjective rules live here
        table = [v % q for v in rng.sample(range(q**k), q**k)]
    return CellularAutomaton(1, q, tuple((o,) for o in offsets), table)


@_settings
@given(rule_1d())
def test_decision_agrees_with_orphan_search(ca):
    try:
        cert = decide_surjectivity_1d(ca, max_subsets=_DECIDE_SUBSETS)
    except counting.BudgetExceeded:
        return  # some wide rules have subset DFAs too large to walk here
    reach = 0  # longest length brute force re-checks
    while _input_count(ca, reach + 1) <= _DECIDE_CAP:
        reach += 1
    word = cert.pattern.cells if cert else ()
    shortest = len(word) if word else reach + 1
    # no orphan is shorter than the decision's word, and none exists if surjective
    assert all(find_orphan(ca, k) is None for k in range(1, min(shortest, reach + 1)))
    if word and len(word) <= reach:
        # the lexicographically least shortest word is the code-minimal orphan
        assert find_orphan(ca, len(word)) == cert


def _old_loss(rec, q):
    """(lambda_qits, ratio, full_size) as the loss record computed them
    before the record carried its own loss, with that log_q."""
    n = rec.out_size
    k = round(math.log(n, q)) if n > 1 else 0
    lq = float(k) if k >= 0 and q**k == n else math.log(n) / math.log(q)
    vol = rec.sides.volume
    return vol - lq, lq / vol, q**vol


def _assert_loss_is_the_old_loss(records, q):
    for rec in records:
        if isinstance(rec, counting.BudgetExceeded):
            continue
        lam, ratio, full = _old_loss(rec, q)
        assert (rec.lambda_qits.hex(), rec.ratio.hex(), rec.full_size) == (
            lam.hex(), ratio.hex(), full
        )


@_settings
@given(case=rule_and_boxes())
def test_record_loss_matches_the_old_loss(case):
    ca, boxes, budget, origin = case
    _assert_loss_is_the_old_loss(out_sizes(ca, boxes, budget), ca.state_count)
    _assert_loss_is_the_old_loss(
        out_sizes_bruteforce(ca, boxes, budget=budget, origin=origin), ca.state_count
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ca=rule_1d(), lengths=st.lists(st.integers(1, 300), min_size=1, max_size=4))
def test_record_loss_matches_the_old_loss_on_long_words(ca, lengths):
    # counts far past the float mantissa, where log_q is exact only on powers of q
    _assert_loss_is_the_old_loss(out_sizes(ca, lengths), ca.state_count)


# The count and the decision against the bit-loop subset DFA they replaced
# (tests/oracles.py): same counts, details and refusals, at lengths past
# the switch from int64 to exact counts, and the same orphan words.

_LENGTHS = {2: 70, 3: 45, 4: 40}  # past q^n >= 2^62 at n = 62, 39 and 31


@st.composite
def rule_1d_wide(draw):
    """A 1D rule with q 2-4 and q^span <= 128: one to three offsets in
    -4..4 (span 1, negative and gapped neighbourhoods), and a random table,
    a balanced one, or one that permutes the states of its last cell in
    every context, which has no dead label."""
    q = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    offsets = draw(st.lists(st.integers(-4, 4), min_size=k, max_size=k, unique=True))
    while q ** (max(offsets) - min(offsets) + 1) > 128:
        offsets.pop()
    return q, offsets, _draw_table(draw, q, offsets)


def _draw_table(draw, q, offsets):
    """A random table, a balanced one, or one that permutes the states of
    the last cell in every context."""
    k = len(offsets)
    rng = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "balanced", "permutive"]))
    if kind == "random":
        return [rng.randrange(q) for _ in range(q**k)]
    if kind == "balanced":
        return [v % q for v in rng.sample(range(q**k), q**k)]
    last = offsets.index(max(offsets))
    perms = {}
    table = []
    for code in range(q**k):
        digits = [code // q ** (k - 1 - i) % q for i in range(k)]
        ctx = tuple(digits[:last] + digits[last + 1:])
        table.append(perms.setdefault(ctx, rng.sample(range(q), q))[digits[last]])
    return table


def _transfer_or_refusal(ca, n_max, cap):
    try:
        return [(r.out_size, r.detail) for r in out_size_transfer_1d(ca, n_max, cap)], None
    except counting.BudgetExceeded as exc:
        return None, (str(exc), exc.cost)


def _bit_loop_transfer(q, offsets, table, n_max, cap):
    """(rows, refusal) that `out_size_transfer_1d` must give, by the bit
    loop.  A rule whose offsets' differences have gcd g >= 2 is capped on
    its reduced DFA, offsets (o - min)/g: a refusal there at reduced
    length k is raised at n = g(k - 1) + 1 with the same cost.  Otherwise
    its rows are the undecomposed DFA's, which the bit loop counts up to
    its own cap of max(cap, 4096) live subsets, so they may be a prefix."""
    gap = math.gcd(*(o - min(offsets) for o in offsets))
    if gap < 2:
        return oracles.bit_loop_counts(q, offsets, table, n_max, cap)
    reduced = [(o - min(offsets)) // gap for o in offsets]
    done, refused = oracles.bit_loop_counts(q, reduced, table, -(-n_max // gap), cap)
    if refused is not None:
        n, cost = gap * len(done) + 1, refused[1]
        return [], (f"subset construction reached {cost} live subsets at n={n}, cap is {cap}", cost)
    return oracles.bit_loop_counts(q, offsets, table, n_max, max(cap, 4096))[0], None


def _assert_transfer_is_the_bit_loop(ca, offsets, table, cap):
    q = ca.state_count
    n_max = _LENGTHS[q]
    rows, refused = _bit_loop_transfer(q, offsets, table, n_max, cap)
    got, got_refused = _transfer_or_refusal(ca, n_max, cap)
    assert got_refused == refused
    if refused is None:
        assert len(got) == n_max and all(type(out) is int for out, _ in got)
        assert got[:len(rows)] == [(out, f"subsets={live}") for out, live in rows]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rule=rule_1d_wide(), cap=st.sampled_from([4096, 1, 2, 5, 20, 60]))
def test_transfer_counts_match_the_bit_loop(rule, cap):
    q, offsets, table = rule
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    _assert_transfer_is_the_bit_loop(ca, offsets, table, cap)


@st.composite
def gapped_rule_1d(draw):
    """A 1D rule whose offsets lie in one coset a + gZ, g 2-5, with a < 0
    (some offsets negative): q 2-4, two or three offsets in any order,
    q^span <= _SPAN_CAP so the undecomposed oracle can run, and a random,
    balanced or permutive table."""
    q = draw(st.integers(2, 4))
    gap = draw(st.integers(2, 5))
    span_max = next(m for m in itertools.count() if q ** (m + 1) > _SPAN_CAP)
    top = (span_max - 1) // gap  # largest reduced offset
    rest = draw(st.lists(st.integers(1, top), min_size=1, max_size=min(2, top), unique=True))
    reduced = draw(st.permutations([0, *rest]))
    shift = draw(st.integers(-gap * max(rest) - 2, -1))
    offsets = [shift + gap * r for r in reduced]
    return q, offsets, _draw_table(draw, q, offsets)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rule=gapped_rule_1d(), cap=st.sampled_from([4096, 1, 2, 5, 20, 60]))
def test_gapped_counts_match_the_undecomposed_bit_loop(rule, cap):
    """A gapped rule is counted and capped through its reduced rule; its
    counts and details are those of the undecomposed DFA, its refusals
    those of the reduced one, and its counts those of brute force."""
    q, offsets, table = rule
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    _assert_transfer_is_the_bit_loop(ca, offsets, table, cap)
    transfer = out_size_transfer_1d(ca, 8)
    for rec, brute in zip(transfer, out_sizes_bruteforce(ca, range(1, 9), budget=_ENUM_CAP)):
        if not isinstance(brute, counting.BudgetExceeded):
            assert rec.out_size == brute.out_size


def test_a_gapped_refusal_is_priced_on_the_reduced_rule():
    """q = 3, offsets (0, 2): the reduced rule (offsets (0, 1)) first has
    3 > 2 live subsets at length 2, so the rule refuses at n = 3, the first
    length with a copy of length 2, at cost 3.  The undecomposed DFA
    already has 2 * 2 at n = 2, and the subsets= details stay its counts."""
    q, offsets, table, cap = 3, [0, 2], [0, 0, 0, 0, 0, 0, 0, 0, 1], 2
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    rows, undecomposed = oracles.bit_loop_counts(q, offsets, table, 10, cap)
    assert undecomposed == ("subset construction reached 4 live subsets at n=2, cap is 2", 4)
    refusal = ("subset construction reached 3 live subsets at n=3, cap is 2", 3)
    assert _transfer_or_refusal(ca, 10, cap) == (None, refusal)
    with pytest.raises(counting.BudgetExceeded) as reduced:
        out_size_transfer_1d(CellularAutomaton(1, q, ((0,), (1,)), table), 10, cap)
    assert (str(reduced.value), reduced.value.cost) == (refusal[0].replace("n=3", "n=2"), 3)
    details = [r.detail for r in out_size_transfer_1d(ca, 3, 3)]
    assert details == ["subsets=2", "subsets=4", "subsets=6"]


def test_a_cheap_gapped_rule_counts_past_the_product_cap():
    """Offsets (0, 5, 10, 15) reduce to (0, 1, 2, 3), whose DFA has at most
    42 live subsets, while the product passes the 65,536 cap at n = 19:
    n = 40, five copies of length 8, counts by transfer, also through
    `out_sizes`, and its detail is the product."""
    table = (1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1)
    ca = CellularAutomaton(1, 2, ((0,), (5,), (10,), (15,)), table)
    reduced = CellularAutomaton(1, 2, ((0,), (1,), (2,), (3,)), table)
    (brute,) = out_sizes_bruteforce(reduced, [8])
    counts = out_size_transfer_1d(ca, 40)
    (rec,) = out_sizes(ca, [40])
    assert rec.method == "transfer1d" and rec.out_size == counts[-1].out_size == brute.out_size**5
    live = [int(r.detail.split("=")[1]) for r in out_size_transfer_1d(reduced, 8)]
    assert max(live) <= 42 and counts[18].detail == f"subsets={live[3] ** 4 * live[2]}"
    assert live[3] ** 4 * live[2] > 1 << 16


def _decision(ca, cap):
    """The decision as `oracles.bit_loop_decision` writes it."""
    try:
        cert = decide_surjectivity_1d(ca, max_subsets=cap)
    except counting.BudgetExceeded as exc:
        return ("refused", str(exc), exc.cost)
    return ("surjective",) if cert is None else ("orphan", cert.pattern.cells)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rule=rule_1d_wide(), cap=st.sampled_from([64, 200, 1000, 4096]))
def test_decision_matches_the_bit_loop(rule, cap):
    """The bit loop; a gapped rule's on its reduced rule, the orphan
    word spread, and the reduced search's refusal."""
    q, offsets, table = rule
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    assert _decision(ca, cap) == oracles.reduced_decision(q, offsets, table, cap)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rule=gapped_rule_1d(), cap=st.sampled_from([4096, 1, 5, 64]))
def test_a_gapped_decision_is_the_reduced_one_spread(rule, cap):
    """The reduced rule's decision, spread; the undecomposed search's
    wherever that decides within the cap; and the code-minimal orphan at
    its length, with none shorter, wherever brute force fits 2^16 inputs."""
    q, offsets, table = rule
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    got = _decision(ca, cap)
    assert got == oracles.reduced_decision(q, offsets, table, cap)
    undecomposed = oracles.bit_loop_decision(q, offsets, table, cap)
    assert undecomposed[0] == "refused" or got == undecomposed
    if got[0] == "orphan" and _input_count(ca, len(got[1])) <= _DECIDE_CAP:
        n = len(got[1])
        assert find_orphan(ca, n).pattern.cells == got[1]
        assert all(find_orphan(ca, k) is None for k in range(1, n))


def test_wide_rules_step_by_numpy_and_by_the_walk(monkeypatch):
    """A span-7 rule steps batches above `_WALK_BITS` in numpy, several
    blocks of rows at once when the gather budget is small, and agrees
    with the bit loop either way."""
    q, offsets, table = 2, [-2, -3, 3], [1, 0, 1, 0, 1, 0, 0, 1]
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    rows, refused = oracles.bit_loop_counts(q, offsets, table, 14)
    want = oracles.bit_loop_decision(q, offsets, table, 20000)
    for gather_words in (counting._GATHER_WORDS, 64 * 2 * 3):
        monkeypatch.setattr(counting, "_GATHER_WORDS", gather_words)
        got = [(r.out_size, r.detail) for r in out_size_transfer_1d(ca, 14)]
        assert refused is None and got == [(out, f"subsets={live}") for out, live in rows]
        with pytest.raises(counting.BudgetExceeded) as info:
            decide_surjectivity_1d(ca, max_subsets=20000)
        assert ("refused", str(info.value), info.value.cost) == want


# The CLI's CSVs, built from count columns, against rows formatted one
# record at a time (tests/oracles.py), and the word-view restriction
# against the slice OR it replaced.


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rule=rule_1d_wide() | gapped_rule_1d(), constant=st.integers(0, 4).map(lambda v: v == 0))
def test_count_tables_print_the_rows_of_one_record_at_a_time(rule, constant, tmp_path_factory):
    """Counts past 2^62 (`_LENGTHS`), exact powers of q (permutive rules,
    q^n, and constant ones, 1 = q^0), brute force with a refused row."""
    q, offsets, table = rule
    if constant:
        table = [table[0]] * len(table)
    ca = CellularAutomaton(1, q, tuple((o,) for o in offsets), table)
    path = tmp_path_factory.mktemp("rule") / "rule.json"
    doc = {"name": "r", "dimension": 1, "states": q, "neighborhood": offsets}
    path.write_text(json.dumps({**doc, "rule": {"table": table}}))
    n = _LENGTHS[q]
    counts = [r.out_size for r in out_size_transfer_1d(ca, n)]
    want = oracles.out_table_csv(1, q, [((i,), c, None) for i, c in enumerate(counts, 1)], None)
    assert _run(["out-table", str(path), "--method", "transfer", "--max-sides", str(n)]) == (0, want)
    want = oracles.lambda_1d_stdout("r", q, counts)
    assert _run(["lambda", str(path), "--schedule", f"diag:1..{n}"]) == (0, want)
    lengths = [4, 2, 3, 30]  # 30 is refused, q^(30 + span - 1) inputs, and so may be the rest
    rows = out_sizes_bruteforce(ca, lengths, budget=_ENUM_CAP)
    records = [
        ((m,), None, r.cost) if isinstance(r, counting.BudgetExceeded) else ((m,), r.out_size, None)
        for m, r in zip(lengths, rows)
    ]
    assert all(out in (None, counts[m - 1]) for (m,), out, _ in records) and records[3][1] is None
    argv = ["out-table", str(path), "--method", "brute", "--sides-list", "4,2,3,30"]
    argv += ["--budget", str(_ENUM_CAP)]
    assert _run(argv) == (0, oracles.out_table_csv(1, q, records, _ENUM_CAP))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_word_view_restriction_is_the_slice_or(data):
    """Groups of 2, 4 and 8k bytes read as words (q = 2, 4, 8), of 3^k by
    slices (q = 3), in 1D and 2D, on sparse and dense bitmaps."""
    q = data.draw(st.sampled_from([2, 3, 4, 8]))
    dim = data.draw(st.integers(1, 2))
    cells = next(v for v in itertools.count() if q ** (v + 1) > 1 << 14)  # most cells
    if dim == 1:
        sides = (data.draw(st.integers(1, cells)),)
    else:
        a = data.draw(st.integers(1, cells))
        sides = (a, data.draw(st.integers(1, max(1, cells // a))))
    sub = tuple(data.draw(st.integers(1, s)) for s in sides)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    seen = rng.random(q ** math.prod(sides)) < data.draw(st.sampled_from([0.001, 0.05, 0.5]))
    got = counting._restrict(seen, counting.MultiIndex(sides), counting.MultiIndex(sub), q)
    assert got.dtype == bool and np.array_equal(got, oracles.slice_or_restrict(seen, sides, sub, q))
