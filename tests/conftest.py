import random

import pytest

from feketeca import (
    BudgetExceeded,
    CellularAutomaton,
    analysis,
    counting,
    decode_states,
    make_builtin,
)


@pytest.fixture(scope="session")
def shift():
    return make_builtin("shift")


@pytest.fixture(scope="session")
def and1d():
    return make_builtin("and1d")


@pytest.fixture(scope="session")
def xor1d():
    return make_builtin("xor1d")


@pytest.fixture(scope="session")
def and2d():
    return make_builtin("and2d")


def elementary_rules():
    """All 16 binary rules on the ordered neighbourhood (0, +1)."""
    return [
        CellularAutomaton(1, 2, ((0,), (1,)), decode_states(code, 4, 2), name=f"elem{code}")
        for code in range(16)
    ]


def random_rule_corpus(count=100, seed=0):
    """Seeded random 1D rules: q in {2,3}, up to 3 offsets within {0,1,2}."""
    rng = random.Random(seed)
    cas = []
    for i in range(count):
        q = rng.choice([2, 3])
        k = rng.randint(1, 3)
        offsets = tuple((o,) for o in sorted(rng.sample(range(3), k)))
        table = tuple(rng.randrange(q) for _ in range(q**k))
        cas.append(CellularAutomaton(1, q, offsets, table, name=f"rand{i}"))
    return cas


@pytest.fixture(scope="session")
def corpus_1d():
    return elementary_rules() + random_rule_corpus()


@pytest.fixture
def enumerations(monkeypatch):
    """Boxes `counting._image_bitmap` enumerates, in call order."""
    calls = []
    real = counting._image_bitmap

    def counted(ca, E, cells, shifted):
        calls.append(tuple(E.sides))
        return real(ca, E, cells, shifted)

    monkeypatch.setattr(counting, "_image_bitmap", counted)
    return calls


@pytest.fixture
def refused_transfer(monkeypatch):
    """Make every `counting.out_size_transfer_1d` call refuse, as a rule
    whose subset construction outgrows its cap would."""

    def refuse(ca, n_max, max_subsets=1 << 16):
        raise BudgetExceeded("subset construction refused", cost=max_subsets + 1)

    monkeypatch.setattr(counting, "out_size_transfer_1d", refuse)


@pytest.fixture
def overcount(monkeypatch):
    """Sides -> count: `lambda_estimate` receives these counts in place of
    the true ones, as from a counting bug, planted in the count column of
    the table it reads."""
    planted = {}
    real = analysis.out_sizes

    def planting(ca, boxes, *args, **kwargs):
        table = real(ca, boxes, *args, **kwargs)
        for i, sides in enumerate(table.sides):
            if sides in planted and i not in table.refused:
                table.counts[i] = planted[sides]
        return table

    monkeypatch.setattr(analysis, "out_sizes", planting)
    return planted
