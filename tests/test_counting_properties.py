"""Property-based cross-checks of the counting routes on random 1D rules.

Rules are drawn with negative and gapped offsets, any neighbourhood order
and state counts up to 255 (for single-offset rules), keeping q^span small
so every route stays cheap.
"""

import itertools
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from feketeca import (
    CellularAutomaton,
    RightPolytope,
    counting,
    find_orphan,
    induced_map,
    minkowski_sum,
    out_size_bruteforce,
    out_size_transfer_1d,
)

_SPAN_CAP = 4096  # q^span: size of the window table the transfer route builds
_ENUM_CAP = 1 << 14  # q^|E+N| brute force may enumerate per example
_PREIMAGE_CAP = 4096  # q^|E+N| up to which a certificate is re-checked

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


def _input_count(ca, n, origin=None):
    cells = minkowski_sum(RightPolytope((n,), origin), ca.neighborhood).cells
    return ca.state_count ** len(cells)


@_settings
@given(rule_and_size())
def test_bruteforce_equals_transfer(case):
    ca, n, _ = case
    recs = out_size_transfer_1d(ca, n)
    for k in range(1, n + 1):
        assert out_size_bruteforce(ca, k).out_size == recs[k - 1].out_size


@_settings
@given(rule_and_size())
def test_bruteforce_is_translation_invariant(case):
    ca, n, origin = case
    assert (
        out_size_bruteforce(ca, n, origin=origin).out_size
        == out_size_bruteforce(ca, n).out_size
    )


@_settings
@given(rule_and_size())
def test_chunking_does_not_change_the_bitmap(case):
    ca, n, origin = case
    whole, _ = counting._image_bitmap(ca, (n,), counting.DEFAULT_BUDGET, origin)
    # one enumerated cell per chunk: every other cell is fixed by the chunk
    with mock.patch.object(counting, "_CHUNK", ca.state_count):
        chunked, _ = counting._image_bitmap(ca, (n,), counting.DEFAULT_BUDGET, origin)
    assert np.array_equal(whole, chunked)


@_settings
@given(rule_and_size())
def test_orphan_certificate_has_no_preimage(case):
    ca, n, origin = case
    cert = find_orphan(ca, n, origin=origin)
    rec = out_size_bruteforce(ca, n, origin=origin)
    assert (cert is None) == (rec.out_size == rec.full_size)
    if cert is None or _input_count(ca, n, origin) > _PREIMAGE_CAP:
        return
    E = cert.pattern.support
    assert E == RightPolytope((n,), origin)
    cells = minkowski_sum(E, ca.neighborhood).cells
    for states in itertools.product(range(ca.state_count), repeat=len(cells)):
        assert induced_map(ca, E, dict(zip(cells, states))) != cert.pattern
