"""Walk the closed-form depth examples and print a small table."""

import argparse

from hierdepth.bundle import SplitBundle
from hierdepth.curve import build_curve_filtration
from hierdepth.depth import (
    NO_FILTRATION,
    curve_split_depth,
    mmp_exact_depth,
    surface_split_depth,
)
from hierdepth.picard import Lattice, decompose_max


def show(label, value):
    print(f"  {label:<44} {value}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", type=int, default=5,
                        help="prime used for the constructed chain (default 5)")
    args = parser.parse_args()

    print("curve depths, determinant budget = sum(d_i) - deg(lambda0)")
    for degrees, lam in [([3, 1, 0], 0), ([2, 0], 0), ([1], 0), ([1, -1], 0)]:
        h = curve_split_depth(degrees, lam)
        show(f"h(O{tuple(degrees)}), lambda0 = {lam}", h)
    show("h(O(1)+O(-1)), lambda0 = -3", curve_split_depth([1, -1], -3))
    show("h(O(1)+O(-1)), lambda0 = 1 (over budget)",
         curve_split_depth([1, -1], 1))

    print("\nsurface bounds (lower, upper)")
    plane = Lattice.p2()
    for a in (2, 3, 5):
        bundle = SplitBundle((plane.zero(), plane.divisor(a)))
        show(f"P2: O + O({a}H), lambda0 = 0",
             surface_split_depth(bundle, plane.zero()))
    quad = Lattice.p1xp1()
    bundle = SplitBundle((quad.divisor(2, 3), quad.zero()))
    show("P1xP1: O(2F1+3F2) + O, lambda0 = 0",
         surface_split_depth(bundle, quad.zero()))

    print("\ntransfer across a contraction chain")
    show("h_min 5, corrections (2,4) over (0,1)",
         mmp_exact_depth(5, [2, 4], [0, 1]))
    bl = Lattice.blowup_p2(2)
    show("decompose_max(5H + 2E1 + 3E2)", decompose_max(bl.divisor(5, 2, 3)))

    print(f"\nconstructed chain over F_{args.field} for O(3)+O(1)+O(0)")
    filt, chain = build_curve_filtration([3, 1, 0], 0, args.field)
    show("length", filt.length)
    show("section dims along the chain", chain.dims)
    show("determinant degrees", chain.det_degrees)
    if filt.length is NO_FILTRATION:
        raise SystemExit("unexpected: headline example lost its filtration")


if __name__ == "__main__":
    main()
