"""Lattice arithmetic: pairings, effectivity cone, blowup bookkeeping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierdepth.errors import LatticeMismatch
from hierdepth.picard import (
    NO_DECOMPOSITION,
    DivisorClass,
    Lattice,
    blowup_split,
    decompose_max,
    intersect,
    is_effective,
    parse_class,
    pullback,
)

CURVE = Lattice.curve()
P2 = Lattice.p2()
Y2 = Lattice.blowup_p2(2)
QUADRIC = Lattice.p1xp1()

coeff = st.integers(min_value=-6, max_value=6)


def lattice_strategy():
    return st.sampled_from([CURVE, P2, Y2, Lattice.blowup_p2(1), QUADRIC])


@st.composite
def divisor_pair(draw):
    lat = draw(lattice_strategy())
    a = lat.divisor(*[draw(coeff) for _ in range(lat.rank)])
    b = lat.divisor(*[draw(coeff) for _ in range(lat.rank)])
    return a, b


def test_lattice_ranks():
    assert CURVE.rank == 1
    assert P2.rank == 1
    assert Y2.rank == 3
    assert Lattice.blowup_p2(5).rank == 6
    assert QUADRIC.rank == 2


def test_pairing_examples():
    assert intersect(P2.divisor(1), P2.divisor(1)) == 1
    assert intersect(CURVE.divisor(3), CURVE.divisor(1)) == 3
    y = Lattice.blowup_p2(1)
    # (H + 2E1).(H - E1) = 1 + 2 = 3
    assert intersect(y.divisor(1, 2), y.divisor(1, -1)) == 3
    assert intersect(y.divisor(0, 1), y.divisor(0, 1)) == -1
    assert intersect(Y2.divisor(1, 0, 0), Y2.divisor(0, 1, 0)) == 0
    assert intersect(QUADRIC.divisor(1, 1), QUADRIC.divisor(1, 1)) == 2
    assert intersect(QUADRIC.divisor(1, 0), QUADRIC.divisor(1, 0)) == 0
    assert intersect(QUADRIC.divisor(1, 0), QUADRIC.divisor(0, 1)) == 1


@given(divisor_pair())
def test_pairing_symmetric(pair):
    a, b = pair
    assert intersect(a, b) == intersect(b, a)


@given(divisor_pair(), coeff)
def test_pairing_bilinear(pair, k):
    a, b = pair
    assert intersect(a + b, b) == intersect(a, b) + intersect(b, b)
    assert intersect(k * a, b) == k * intersect(a, b)


def test_pairing_rejects_mixed_lattices():
    with pytest.raises(LatticeMismatch):
        intersect(P2.divisor(1), CURVE.divisor(1))
    with pytest.raises(LatticeMismatch):
        P2.divisor(1) + QUADRIC.divisor(1, 0)


def test_effectivity_cone():
    assert is_effective(Y2.divisor(5, 2, 3))
    assert is_effective(Y2.divisor(0, 0, 0))
    # the strict transform H - E1 sits outside the generator cone on purpose
    assert not is_effective(Lattice.blowup_p2(1).divisor(1, -1))
    assert not is_effective(P2.divisor(-1))
    assert is_effective(QUADRIC.divisor(2, 3))


def test_decompose_max_on_generators():
    assert decompose_max(Y2.divisor(5, 2, 3)) == 10
    assert decompose_max(Y2.divisor(0, 0, 0)) == 0
    assert decompose_max(P2.divisor(4)) == 4
    assert decompose_max(QUADRIC.divisor(2, 3)) == 5
    assert decompose_max(Lattice.blowup_p2(1).divisor(1, -1)) is NO_DECOMPOSITION


@given(divisor_pair())
def test_decompose_additive_on_cone(pair):
    a, b = pair
    if is_effective(a) and is_effective(b):
        assert decompose_max(a + b) == decompose_max(a) + decompose_max(b)


def test_blowup_split_and_pullback_round_trip():
    plane, exceptional = blowup_split(Y2.divisor(5, 2, 3))
    assert plane == P2.divisor(5)
    assert exceptional == (2, 3)
    back = pullback(P2.divisor(5), 2)
    assert back == Y2.divisor(5, 0, 0)
    assert blowup_split(back) == (P2.divisor(5), (0, 0))


def test_pullback_is_an_isometry():
    for a in range(-3, 4):
        for b in range(-3, 4):
            down = intersect(P2.divisor(a), P2.divisor(b))
            up = intersect(pullback(P2.divisor(a), 3), pullback(P2.divisor(b), 3))
            assert up == down


def test_pullback_orthogonal_to_exceptional():
    up = pullback(P2.divisor(7), 2)
    for j in (1, 2):
        assert intersect(up, Y2.generator(j)) == 0


def test_split_requires_blowup_lattice():
    with pytest.raises(LatticeMismatch):
        blowup_split(P2.divisor(1))
    with pytest.raises(LatticeMismatch):
        pullback(CURVE.divisor(1), 2)


def test_disjoint_representative_flags():
    assert CURVE.disjoint_representatives(0)
    assert not P2.disjoint_representatives(0)
    assert not Y2.disjoint_representatives(0)
    assert Y2.disjoint_representatives(1)
    assert Y2.disjoint_representatives(2)
    assert QUADRIC.disjoint_representatives(0)
    assert QUADRIC.disjoint_representatives(1)


def test_parse_class_examples():
    assert parse_class("5H + 2E1 + 3E2", Y2) == Y2.divisor(5, 2, 3)
    assert parse_class("4P", CURVE) == CURVE.divisor(4)
    assert parse_class("4", CURVE) == CURVE.divisor(4)
    assert parse_class("2F1+3F2", QUADRIC) == QUADRIC.divisor(2, 3)
    assert parse_class("-2H+E1", Lattice.blowup_p2(1)) == Lattice.blowup_p2(1).divisor(-2, 1)
    assert parse_class("0", QUADRIC) == QUADRIC.zero()
    assert parse_class("H-E2", Y2) == Y2.divisor(1, 0, -1)


def test_parse_class_ignores_every_kind_of_whitespace():
    assert parse_class("2H\t+H", P2) == P2.divisor(3)
    assert parse_class("2H\n\n", P2) == P2.divisor(2)
    assert parse_class("2\tH", P2) == P2.divisor(2)
    assert parse_class("\t5H +\r\n2E1\u00a0+ 3E2\n", Y2) == Y2.divisor(5, 2, 3)
    assert parse_class(" 0\n", P2) == P2.zero()


def test_parse_class_rejects_garbage():
    with pytest.raises(ValueError):
        parse_class("5X", P2)
    with pytest.raises(ValueError):
        parse_class("3", Y2)  # ambiguous on a higher-rank lattice
    with pytest.raises(ValueError):
        parse_class("", P2)
    with pytest.raises(ValueError):
        parse_class("E3", Y2)  # only two centers
    for text in ("2H+", "2H++H", "--H", "H+-H", "+", "H-"):
        with pytest.raises(ValueError, match="stray sign|empty"):
            parse_class(text, P2)  # a sign no term takes up


@given(divisor_pair())
def test_parse_round_trips_notation(pair):
    a, _ = pair
    assert parse_class(a.notation(), a.lattice) == a


def test_divisor_validation():
    with pytest.raises(ValueError):
        DivisorClass(Y2, (1, 2))  # wrong coefficient count
    with pytest.raises(ValueError):
        Lattice.blowup_p2(0)
