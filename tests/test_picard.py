"""Lattice arithmetic: pairings, effectivity cone, blowup bookkeeping."""

import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_agcode import _compared_constants

from hierdepth import cli, depth, picard
from hierdepth.errors import LatticeMismatch
from hierdepth.picard import (
    LATTICES,
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
    for exceptional in (Y2.divisor(0, 1, 0), Y2.divisor(0, 0, 1)):
        assert intersect(up, exceptional) == 0


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


# The per-kind formulas the table replaced, written out as the oracle.
def explicit_names(name, m):
    if name == "curve":
        return ("P",)
    if name == "p2":
        return ("H",)
    if name == "p1xp1":
        return ("F1", "F2")
    return ("H",) + tuple(f"E{j}" for j in range(1, m + 1))


def explicit_pairing(name, a, b):
    if name in ("curve", "p2"):
        return a[0] * b[0]
    if name == "p1xp1":
        return a[0] * b[1] + a[1] * b[0]
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def explicit_disjoint(name, i):
    if name in ("curve", "p1xp1"):
        return True
    if name == "p2":
        return False
    return i >= 1


def explicit_repr(name, m):
    return f"Lattice(blowup_p2, m={m})" if name == "blowup_p2" else f"Lattice({name})"


@pytest.mark.parametrize(
    "name, m", [("curve", 0), ("p2", 0), ("p1xp1", 0), *(("blowup_p2", m) for m in range(1, 6))]
)
@given(data=st.data())
def test_table_agrees_with_the_explicit_formulas(name, m, data):
    lat = Lattice(name, m)
    names = explicit_names(name, m)
    assert lat.generator_names == names
    assert lat.rank == len(names)
    assert repr(lat) == explicit_repr(name, m)
    assert [lat.disjoint_representatives(i) for i in range(lat.rank)] == [
        explicit_disjoint(name, i) for i in range(len(names))
    ]
    a, b = (data.draw(st.lists(coeff, min_size=len(names), max_size=len(names))) for _ in "ab")
    assert intersect(lat.divisor(*a), lat.divisor(*b)) == explicit_pairing(name, a, b)


def test_lattices_are_read_from_the_table_only():
    # picard.LATTICES, keyed by a lattice's name, holds every per-lattice
    # fact: no function in picard, depth or cli compares with a lattice's
    # name or reads a `.kind`. cli's options have a kind of their own (the
    # value an option takes), so `.kind` is looked for in picard and depth.
    lattice_names = {"curve", "p2", "p1xp1", "blowup_p2"}
    branches = set()
    for module in (picard, depth, cli):
        path = Path(module.__file__)
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                compared = isinstance(node, ast.Compare) and lattice_names & set(
                    _compared_constants(node)
                )
                kind = module is not cli and getattr(node, "attr", None) == "kind"
                if compared or kind:
                    branches.add(f"{path.stem}.{fn.name}")
    assert branches == set()
    assert set(LATTICES) == lattice_names
