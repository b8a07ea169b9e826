"""Randomized check that transforms at distinct points commute.

Draws split-bundle section models over a prime field, applies two point
functionals in both orders, and counts agreements of the resulting
canonical bases. Vacuous draws (a functional dying on the current
subspace) are reported separately, not silently retried.
"""

import argparse
import random

from hierdepth.curve import point_at
from hierdepth.errors import VacuousTransform
from hierdepth.hecke import PointFunctional, commute_check, full_sections


def run_trials(p, trials, rng):
    agree = vacuous = 0
    for _ in range(trials):
        rank = rng.randint(1, 4)
        degrees = [rng.randint(0, 4) for _ in range(rank)]
        # indices drawn lazily: near 2**31 the p + 1 points are never listed
        q1, q2 = (point_at(j, p) for j in rng.sample(range(p + 1), 2))
        covs = []
        for _ in range(2):
            c = [rng.randrange(p) for _ in range(rank)]
            if not any(c):
                c[rng.randrange(rank)] = 1
            covs.append(tuple(c))
        model = full_sections(degrees, p)
        try:
            rep = commute_check(
                model,
                PointFunctional(q1, covs[0]),
                PointFunctional(q2, covs[1]),
            )
        except VacuousTransform:
            vacuous += 1
            continue
        if rep.equal:
            agree += 1
        else:
            print(f"  DISAGREEMENT: p={p} degrees={degrees} "
                  f"points=({q1.label()},{q2.label()}) covectors={covs}")
    return agree, vacuous


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=200,
                        help="instances per field (default 200)")
    parser.add_argument("--fields", default="5,7",
                        help="comma-separated primes (default 5,7)")
    args = parser.parse_args()

    fields = [int(t) for t in args.fields.split(",") if t.strip()]
    rng = random.Random(args.seed)
    bad = 0
    for p in fields:
        agree, vacuous = run_trials(p, args.trials, rng)
        effective = args.trials - vacuous
        bad += effective - agree
        print(f"F_{p}: {agree}/{effective} agreements "
              f"({vacuous} vacuous draws skipped)")
    if bad:
        raise SystemExit(f"{bad} disagreements found")
    print("all routes agree")


if __name__ == "__main__":
    main()
