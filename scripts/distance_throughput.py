"""Time min_distance on a fixed list of codes and print classes per second.

Each code is built once; each call gets a fresh copy of it with no
echelon form and no distance, so every call eliminates the generator and
enumerates all (p**k - 1) / (p - 1) projective classes. One untimed call
comes first, so numpy's lazy set-up is not charged to the code. The best
of --repeat timed calls is printed, with the class count of the whole code
divided by that time. Run from the repository root:

    PYTHONPATH=src python scripts/distance_throughput.py [--case NAME] [--repeat N]

The list holds six large codes, all forms of one degree at every rational
point of P1 or P2 (3e4 to 5.2e6 classes, one component each, far above
the benchmark's 3 to 5 rows a component), and the three summands of
criterion 8's code (forms of degree 3, 2, 1 through one point of P2 over
F_7), each as a code of its own.
"""

import argparse
import time

from hierdepth.agcode import (
    INFEASIBLE,
    LinearCode,
    VanishingCondition,
    all_rational_points,
    build_code,
    min_distance,
    vanishing_basis,
)

CRITERION_8_POINT = (1, 2, 3)


def _full(space, p, degree):
    return build_code([vanishing_basis(degree, [], space, p)], all_rational_points(space, p), p)


def _criterion_8(degree):
    p, pt = 7, CRITERION_8_POINT
    basis = vanishing_basis(degree, [VanishingCondition(pt)], "P2", p)
    return build_code([basis], [q for q in all_rational_points("P2", p) if q != pt], p)


# name -> builder, smallest first
CASES = {
    "criterion8-line": lambda: _criterion_8(1),
    "criterion8-conic": lambda: _criterion_8(2),
    "P2-3-cubic": lambda: _full("P2", 3, 3),
    "P2-3-quartic": lambda: _full("P2", 3, 4),
    "P1-17-degree5": lambda: _full("P1", 17, 5),
    "P1-11-degree6": lambda: _full("P1", 11, 6),
    "P2-5-cubic": lambda: _full("P2", 5, 3),
    "P1-13-degree6": lambda: _full("P1", 13, 6),
    "criterion8-cubic": lambda: _criterion_8(3),
}


def time_distance(code, repeat):
    """(d, best seconds) of min_distance over fresh copies of code."""
    times = []
    for _ in range(repeat + 1):
        fresh = LinearCode(
            p=code.p, r=code.r, points=code.points, generator=code.generator,
            k=code.k, message_dim=code.message_dim,
        )
        start = time.perf_counter()
        d = min_distance(fresh)
        times.append(time.perf_counter() - start)
    return d, min(times[1:])  # the first call is the untimed one


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="time only this code (repeatable); default: all")
    parser.add_argument("--repeat", type=int, default=5,
                        help="timed calls per code; the best is kept")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    print(f"{'code':<18} {'p':>3} {'n':>4} {'k':>3} {'classes':>9} {'d':>4}"
          f" {'ms':>9} {'classes/s':>10}")
    for name in args.case or CASES:
        code = CASES[name]()
        d, seconds = time_distance(code, args.repeat)
        if d is INFEASIBLE:
            raise SystemExit(f"{name}: over the default budget")
        classes = (code.p**code.k - 1) // (code.p - 1)
        print(f"{name:<18} {code.p:>3} {code.n:>4} {code.k:>3} {classes:>9} {d:>4}"
              f" {seconds * 1e3:>9.3f} {classes / seconds:>10.3g}")


if __name__ == "__main__":
    main()
