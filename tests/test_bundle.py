"""Split bundles: determinants, lattices and the O(...) parser."""

import pytest

from hierdepth.bundle import SplitBundle, parse_bundle
from hierdepth.errors import LatticeMismatch
from hierdepth.picard import Lattice, intersect, pullback

CURVE = Lattice.curve()
P2 = Lattice.p2()

def curve_bundle(degrees):
    return SplitBundle(tuple(CURVE.divisor(d) for d in degrees))


def test_det_sums_summands():
    b = curve_bundle([3, 1, 0])
    assert b.det() == CURVE.divisor(4)
    y = Lattice.blowup_p2(2)
    by = SplitBundle((y.divisor(2, 1, 0), y.divisor(3, 1, 3)))
    assert by.det() == y.divisor(5, 2, 3)


def test_rank_and_lattice():
    b = curve_bundle([1, 1])
    assert b.rank == 2
    assert b.lattice == CURVE


def test_summands_must_share_a_lattice():
    with pytest.raises(LatticeMismatch):
        SplitBundle((CURVE.divisor(1), P2.divisor(1)))
    with pytest.raises(ValueError):
        SplitBundle(())


def test_pullback_preserves_slope():
    b = SplitBundle((P2.divisor(0), P2.divisor(3)))
    up = SplitBundle(tuple(pullback(s, 2) for s in b.summands))
    h_up = pullback(P2.divisor(1), 2)
    assert intersect(up.det(), h_up) == intersect(b.det(), P2.divisor(1))


def test_parse_bundle_round_trip():
    b = parse_bundle("O(3)+O(1)+O(0)", CURVE)
    assert b == curve_bundle([3, 1, 0])
    y = Lattice.blowup_p2(2)
    by = parse_bundle("O(2H+E1) + O(3H+E1+3E2)", y)
    assert by.det() == y.divisor(5, 2, 3)
    with pytest.raises(ValueError):
        parse_bundle("O(1)+", CURVE)
    with pytest.raises(ValueError):
        parse_bundle("3+4", CURVE)



def test_parse_bundle_ignores_every_kind_of_whitespace():
    two = SplitBundle((P2.divisor(1), P2.zero()))
    assert parse_bundle("O(H)\t+O(0)", P2) == two
    assert parse_bundle("O(H)+O(0)\n", P2) == two
    assert parse_bundle("O(H)\r\n+\u00a0O(0)\n\n", P2) == two
    assert parse_bundle("\tO(2H\t+H)\n", P2) == SplitBundle((P2.divisor(3),))
    y = Lattice.blowup_p2(2)
    by = parse_bundle("O(2H+E1)\n+\tO(3H +\r\nE1+3E2)", y)
    assert by.det() == y.divisor(5, 2, 3)
    with pytest.raises(ValueError):
        parse_bundle(" \t\n", P2)
