"""Seeded request generators for the four benchmark workloads.

A workload is one cycle of request specs: plain dictionaries that name the
subcommand and its inputs. `render` turns a spec into the argv (and config
file text) the `hierdepth` CLI receives, and `prepare` writes a cycle's
config files; `oracle.expected` turns the same spec into the answer the CLI
must give. The same (workload, seed) always gives the same cycle.

Each workload fixes the shape of every request in its cycle (subcommand,
field size, widths, dimensions, point counts) and lets the seed choose the
contents (points, covectors, degree splits, the prime inside a narrow band,
the order of the cycle). The cost of a cycle therefore barely moves between
seeds while its answers do.

Cycles hold 25, 15 or 45 requests. With an odd count the median, and with
0.9 * 15 = 13.5, 0.9 * 25 = 22.5 and 0.99 * 45 = 44.55 the p90 and p99
tails, fall inside the block of one request's repeats rather than on the
edge between two, so they do not jump with run-to-run noise. Each cycle is
short enough for a 30 s run to hold at least 100 requests, so that the
tail percentile stays p90 or p99 even when the machine runs slow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracle import is_prime, normalize, rational_points

WORKLOADS = ("filtration-chain", "code-distance", "desk-mix")

CONFIG = "{config}"  # placeholder for the config path in a code request's argv
EXPORT = "{export}"  # placeholder for the --export-generator path


def prime_in(rng, lo, hi):
    """A random prime in [lo, hi]."""
    while True:
        n = rng.randint(lo, hi)
        if is_prime(n):
            return n


def split(rng, total, parts):
    """`total` split into `parts` nonnegative integers, each moved by at most
    2 per swap from an even split."""
    base = [total // parts + (i < total % parts) for i in range(parts)]
    for _ in range(parts):
        i, j = rng.sample(range(parts), 2)
        move = min(rng.randint(0, 2), base[i])
        base[i] -= move
        base[j] += move
    return base


# -- filtration-chain -------------------------------------------------------

# (rank, section-space width, prime band). Most primes sit in the low
# hundreds; the far bands make the point enumeration of large fields show.
# Listing costs grow with p and these requests sit near the p90 tail, so the
# far bands are 1% wide.
FILTRATION_SLOTS = (
    (2, 40, (101, 400)), (3, 42, (101, 400)), (4, 44, (101, 400)),
    (2, 50, (101, 400)), (3, 54, (101, 400)), (2, 60, (101, 400)),
    (4, 64, (101, 400)), (3, 70, (101, 400)), (2, 80, (101, 400)),
    (4, 90, (101, 400)), (4, 96, (101, 400)), (4, 110, (113, 400)),
    (2, 40, (101, 400)), (3, 45, (101, 400)), (4, 48, (101, 400)),
    (2, 52, (101, 400)), (3, 57, (101, 400)), (4, 60, (101, 400)),
    (2, 66, (101, 400)), (3, 75, (101, 400)),
    (2, 40, (10000, 10100)), (2, 50, (20000, 20200)), (2, 60, (45000, 45450)),
    (3, 45, (70000, 70700)), (3, 30, (95000, 95950)),
)


def filtration_chain(rng):
    specs = []
    for rank, width, (lo, hi) in FILTRATION_SLOTS:
        degrees = split(rng, width - rank, rank)
        m = width - rng.randint(0, 3)  # M close to the width
        specs.append({
            "cmd": "filtration", "p": prime_in(rng, lo, hi),
            "degrees": degrees, "lambda0": sum(degrees) - m,
        })
    return specs


# -- code-distance ----------------------------------------------------------

def _line_summands(rng, p, dims, shared):
    """Line summands of the given dimensions; each vanishes at `shared`."""
    summands = []
    for dim in dims:
        conds = [(shared, 1)] if shared else []
        q = (1, rng.randrange(p))
        if rng.random() < 0.5 and all(q != normalize(c, p) for c, _ in conds):
            conds.append((q, rng.randint(1, 2)))
        degree = dim - 1 + sum(o for _, o in conds)
        summands.append((degree, conds))
    return summands


# Plane summands by message dimension: (degree, condition orders).
PLANE_TYPES = {2: (1, (1,)), 3: (1, ()), 4: (2, (1, 1))}


def _plane_summands(rng, p, dims, shared):
    summands = []
    for dim in dims:
        degree, orders = PLANE_TYPES[dim]
        conds = [(shared, 1)] if shared and orders else []
        while len(conds) < len(orders):
            q = rng.choice(rational_points("P2", p))
            if all(normalize(q, p) != normalize(c, p) for c, _ in conds):
                conds.append((q, orders[len(conds)]))
        summands.append((degree, conds))
    return summands


# (space, p, summand dimensions, explicit point count or None for
# all-rational, exceptional slots). Every code keeps full rank, and its
# (p^k - 1)/(p - 1) classes stay under the default budget.
DISTANCE_SLOTS = (
    ("P1", 5, (4, 3), None, 2), ("P1", 5, (4, 4), None, 0),
    ("P1", 7, (4, 3), 7, 2), ("P1", 7, (4, 4), None, 1),
    ("P1", 11, (5,), 10, 1), ("P1", 11, (3, 3), None, 2),
    ("P1", 13, (3, 3), 12, 1), ("P1", 13, (5,), None, 0),
    ("P2", 5, (3, 4), None, 2), ("P2", 5, (4, 4), 25, 1),
    ("P2", 7, (3, 3), 30, 1), ("P2", 7, (4, 3), 40, 2),
    ("P2", 11, (3, 2), 40, 1), ("P2", 11, (3, 3), 50, 0),
    ("P2", 13, (3, 2), 50, 0),
)


def code_distance(rng):
    specs = []
    for i, (space, p, dims, npoints, nexc) in enumerate(DISTANCE_SLOTS):
        pts = rational_points(space, p)
        shared = rng.choice(pts) if nexc else None
        make = _line_summands if space == "P1" else _plane_summands
        summands = make(rng, p, dims, shared)
        spec = {
            "cmd": "code-analyze" if i % 2 == 0 else "mmp-compare",
            "p": p, "space": space, "summands": summands,
            "exceptional": [shared] * nexc,
        }
        if npoints is None:
            spec["points"] = "all-rational"
        else:
            spec["points"] = rng.sample(pts, npoints)
        specs.append(spec)
    return specs


# -- desk-mix ---------------------------------------------------------------

# Narrow bands from 2^20 to 2^31 - 1. A Field check is trial division, so
# its cost grows with sqrt(p); fixed bands keep a cycle's cost seed-free.
BIG_BANDS = {
    20: (2**20, 2**20 + 2**14), 24: (2**24, 2**24 + 2**18),
    30: (2**30, 2**30 + 2**24), 31: (2**31 - 2**25, 2**31 - 1),
}


def _desk_depth(rng):
    kind = rng.choice(("curve", "curve", "p2", "p1xp1"))
    if kind == "curve":
        degrees = [rng.randint(-3, 8) for _ in range(rng.randint(1, 4))]
        return {"cmd": "depth-curve", "degrees": degrees,
                "lambda0": rng.randint(-5, 10)}
    rank = 1 if kind == "p2" else 2
    summands = [[rng.randint(0, 5) for _ in range(rank)]
                for _ in range(rng.randint(1, 3))]
    lam = [rng.randint(-1, 4) for _ in range(rank)]
    return {"cmd": "depth-surface", "surface": kind, "summands": summands,
            "lambda0": lam}


def _desk_mmp(rng):
    beta = [rng.randint(0, 3) for _ in range(rng.randint(1, 4))]
    return {"cmd": "mmp-depth", "hmin": rng.randint(0, 10),
            "alpha": [b + rng.randint(0, 3) for b in beta], "beta": beta}


def _desk_filtration(rng):
    p = rng.choice((5, 7, 11, 13))
    degrees = [rng.randint(-2, 4) for _ in range(rng.randint(1, 3))]
    m = rng.randint(-1, min(p + 1, 12))
    return {"cmd": "filtration", "p": p, "degrees": degrees,
            "lambda0": sum(degrees) - m}


def _desk_hecke(rng, big=None, vacuous=False):
    p = prime_in(rng, *BIG_BANDS[big]) if big else rng.choice((5, 7, 11, 13))
    if vacuous:  # constants: after one transform the second vanishes
        a, b = rng.sample(range(p), 2)
        return {"cmd": "hecke-verify", "p": p, "degrees": [0, 0],
                "points": [a, b], "covectors": [[1, 0], [1, 0]]}
    rank = rng.randint(1, 3)
    degrees = [rng.randint(1, 4) for _ in range(rank)]
    if big:
        pts = rng.sample(range(1000), 2) if rng.random() < 0.5 else [
            rng.randrange(p), rng.randrange(p)]
        if pts[0] == pts[1]:
            pts[1] = (pts[1] + 1) % p
    else:
        pts = rng.sample(list(range(p)) + [None], 2)
    covs = None
    if rng.random() < 0.5:
        covs = [[0] * rank for _ in range(2)]
        for c in covs:
            c[rng.randrange(rank)] = rng.randint(1, 4)
    return {"cmd": "hecke-verify", "p": p, "degrees": degrees,
            "points": pts, "covectors": covs}


def _desk_code(rng, cmd, big=None, space=None):
    space = space or rng.choice(("P1", "P2"))
    nvars = 2 if space == "P1" else 3
    if big:
        # each point costs a prime check, so the count is fixed
        p = prime_in(rng, *BIG_BANDS[big])
        seen, pts = set(), []
        while len(pts) < 8:
            q = tuple([1] + [rng.randrange(p) for _ in range(nvars - 1)])
            if q not in seen:
                seen.add(q)
                pts.append(q)
    else:
        p = rng.choice((7, 11) if space == "P1" else (5, 7))
        pts = rng.sample(rational_points(space, p), rng.randint(6, 8))
    blown, other = pts[0], pts[1]
    if big and cmd == "code-build":
        # a plane cubic singular at two points: its generator entries sum
        # three or more products near p^2. Near p = 2^31 those sums pass
        # 2^63 and the int64 arithmetic gives wrong answers, so the cycle
        # builds it at 2^24; the test suite holds the 2^31 case.
        return {"cmd": cmd, "p": p, "space": space,
                "summands": [(3, [(blown, 2), (other, 2)])],
                "points": pts, "exceptional": [], "export": EXPORT}
    summands = []
    # one conic on the plane and at most two small line summands keep the
    # distance enumeration at desk scale; large fields get one summand
    for _ in range(rng.randint(1, 2) if space == "P1" and not big else 1):
        conds = [(blown, rng.randint(1, 2))]
        if rng.random() < 0.5:
            conds.append((other, 1))
        # conics on the plane keep each summand's classes few enough for
        # the oracle's brute force
        degree = 2 if space == "P2" else sum(o for _, o in conds) + rng.randint(0, 1)
        summands.append((degree, conds))
    spec = {"cmd": cmd, "p": p, "space": space, "summands": summands,
            "points": pts, "exceptional": [blown] * rng.randint(0, 2)}
    if cmd == "code-build":
        spec["export"] = EXPORT
    return spec


def desk_mix(rng):
    specs = []
    specs += [_desk_depth(rng) for _ in range(10)]
    specs += [_desk_mmp(rng) for _ in range(6)]
    specs += [_desk_filtration(rng) for _ in range(7)]
    specs += [_desk_hecke(rng) for _ in range(6)]
    specs += [_desk_hecke(rng, big=20), _desk_hecke(rng, big=31)]
    specs += [_desk_hecke(rng, vacuous=True) for _ in range(2)]
    for cmd, band, space in (("code-build", 24, "P2"), ("code-analyze", 30, "P1"),
                             ("mmp-compare", 31, "P2")):
        specs += [_desk_code(rng, cmd) for _ in range(3)]
        specs.append(_desk_code(rng, cmd, big=band, space=space))
    for spec in specs:
        spec["fmt"] = "text" if rng.random() < 0.25 else "json"
    return specs


GENERATORS = {
    "filtration-chain": filtration_chain,
    "code-distance": code_distance,
    "desk-mix": desk_mix,
}


def generate(workload: str, seed: int) -> list[dict]:
    """One cycle of request specs, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    specs = GENERATORS[workload](rng)
    rng.shuffle(specs)
    return specs


# -- rendering --------------------------------------------------------------

def _pt(q):
    return ":".join(str(c) for c in q)


def config_text(spec) -> str:
    lines = [f"p = {spec['p']}", f"space = {spec['space']}"]
    for degree, conds in spec["summands"]:
        tail = ", ".join(f"{_pt(q)}@{o}" for q, o in conds)
        lines.append(f"summand = {degree}; {tail}" if tail else f"summand = {degree}")
    if spec["points"] == "all-rational":
        lines.append("points = all-rational")
    else:
        lines.append("points = " + ", ".join(_pt(q) for q in spec["points"]))
    lines += [f"exceptional = {_pt(q)}" for q in spec["exceptional"]]
    return "\n".join(lines) + "\n"


def render(spec) -> tuple[list[str], str | None]:
    """argv for the CLI, and the config file text for code requests.

    Values go in --name=value form, since negative ones would otherwise
    read as options.
    """
    cmd = spec["cmd"]
    head = ["--format=text"] if spec.get("fmt", "json") != "json" else []

    def ints(values):
        return ",".join(map(str, values))

    if cmd == "depth-curve":
        return head + ["depth", "--curve", f"--degrees={ints(spec['degrees'])}",
                       f"--lambda0={spec['lambda0']}"], None
    if cmd == "depth-surface":
        names = ["H"] if spec["surface"] == "p2" else ["F1", "F2"]

        def cls(coeffs):
            terms = [f"{c}{n}" for c, n in zip(coeffs, names) if c]
            return "+".join(terms).replace("+-", "-") or "0"

        bundle = "+".join(f"O({cls(c)})" for c in spec["summands"])
        return head + ["depth", f"--surface={spec['surface']}",
                       f"--bundle={bundle}",
                       f"--lambda0={cls(spec['lambda0'])}"], None
    if cmd == "mmp-depth":
        return head + ["mmp-depth", f"--hmin={spec['hmin']}",
                       f"--alpha={ints(spec['alpha'])}",
                       f"--beta={ints(spec['beta'])}"], None
    if cmd == "filtration":
        return head + ["filtration", f"--field={spec['p']}",
                       f"--degrees={ints(spec['degrees'])}",
                       f"--lambda0={spec['lambda0']}"], None
    if cmd == "hecke-verify":
        points = ",".join("inf" if q is None else str(q) for q in spec["points"])
        argv = head + ["hecke-verify", f"--field={spec['p']}",
                       f"--degrees={ints(spec['degrees'])}", f"--points={points}"]
        if spec["covectors"] is not None:
            covs = ";".join(ints(c) for c in spec["covectors"])
            argv.append(f"--covectors={covs}")
        return argv, None
    argv = head + [cmd, "--config", CONFIG]
    if spec.get("export"):
        argv += ["--export-generator", EXPORT]
    return argv, config_text(spec)


@dataclass(eq=False)
class Request:
    """One rendered request: its spec, argv and files inside the work dir."""

    spec: dict
    argv: list
    export: str | None


def prepare(workload, seed, workdir) -> list[Request]:
    """Generate the seed's cycle and write its config files into workdir."""
    return write_requests(generate(workload, seed), workdir)


def write_requests(specs, workdir) -> list[Request]:
    """Render specs and write their config files into workdir."""
    requests = []
    for i, spec in enumerate(specs):
        argv, text = render(spec)
        cfg = str(workdir / f"r{i}.cfg")
        export = str(workdir / f"r{i}.gen") if spec.get("export") else None
        if text is not None:
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [cfg if a == CONFIG else export if a == EXPORT else a for a in argv]
        if export:
            spec = dict(spec, export=export)
        requests.append(Request(spec, argv, export))
    return requests
