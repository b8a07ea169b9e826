"""Independent pure-integer oracle for the benchmark's requests.

Every expected answer is derived here from the request spec alone, with
Python integers and without importing the program: prime-field rank and
kernels by plain Gaussian elimination, point evaluation of forms by direct
substitution, brute-force minimum distance where the class count is small,
the Reed-Solomon closed form on the line where it is not, and the
closed-form depth formulas.

`expected(spec)` returns ``(exit_code, answer, generator)``: the answer is
the report dictionary for exit 0, or the name of the exception class the
program is documented to raise for a domain refusal (exit 2); the generator
rows come with code-build requests, whose generator is exported.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import comb

DEFAULT_BUDGET = 10**7

# Per-summand brute force enumerates at most this many projective classes.
BRUTE_FORCE_CLASSES = 5000


# -- arithmetic over F_p ----------------------------------------------------

def rref_mod(rows, p):
    """Reduced row echelon form over F_p, zero rows dropped, and pivots."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def rank_mod(rows, p):
    return len(rref_mod(rows, p)[0])


def kernel_mod(rows, ncols, p):
    """Canonical (echelon) basis of {v : rows . v = 0} over F_p."""
    red, pivots = rref_mod(rows, p) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(red, pivots):
            v[pc] = (-row[f]) % p
        basis.append(v)
    return rref_mod(basis, p)[0]


def is_prime(n):
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):  # deterministic below 3.4e14
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- report formatting --------------------------------------------------------

def notation(coeffs, names):
    """Generator-basis notation of a divisor class, e.g. '2F1-F2' or '0'."""
    parts = []
    for c, name in zip(coeffs, names):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(f"{sign}{'' if abs(c) == 1 else abs(c)}{name}")
    return "".join(parts) or "0"


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def flatten(obj, prefix=""):
    """The text rendering: one 'dotted.key: json' line per leaf."""
    if isinstance(obj, dict):
        lines = []
        for key in sorted(obj):
            lines += flatten(obj[key], f"{prefix}.{key}" if prefix else key)
        return lines
    return [f"{prefix}: {json.dumps(obj)}"]


# -- depth, mmp-depth, filtration ------------------------------------------

def _depth_curve(s):
    total, lam = sum(s["degrees"]), s["lambda0"]
    m = total - lam
    v = m if m >= 0 else None
    return {
        "subcommand": "depth", "lattice": "curve",
        "det": notation([total], ["P"]), "lambda0": notation([lam], ["P"]),
        "bound": m, "lower": v, "upper": v, "value": v,
        "status": "ok" if v is not None else "no-filtration", "seed": 0,
    }


def _depth_surface(s):
    names = ["H"] if s["surface"] == "p2" else ["F1", "F2"]
    rank = len(names)
    det = [sum(c[i] for c in s["summands"]) for i in range(rank)]
    delta = [d - l for d, l in zip(det, s["lambda0"])]
    if any(x < 0 for x in delta):
        lower = upper = None
    else:
        upper = sum(delta)
        if upper == 0 or s["surface"] == "p1xp1":
            lower = upper  # every ruling class moves in disjoint fibers
        else:  # two plane curves always meet
            lower = min(len(set(map(tuple, s["summands"]))), upper)
    bound = det[0] - s["lambda0"][0] if rank == 1 else upper
    return {
        "subcommand": "depth", "lattice": s["surface"],
        "det": notation(det, names), "lambda0": notation(s["lambda0"], names),
        "bound": bound, "lower": lower, "upper": upper,
        "value": lower if lower == upper else None,
        "status": "ok" if upper is not None else "no-filtration", "seed": 0,
    }


def _mmp_depth(s):
    value = s["hmin"] + sum(a - b for a, b in zip(s["alpha"], s["beta"]))
    return {
        "subcommand": "mmp-depth", "hmin": s["hmin"], "alpha": s["alpha"],
        "beta": s["beta"], "value": value, "status": "ok", "seed": 0,
    }


def _filtration(s):
    p, degrees, lam = s["p"], s["degrees"], s["lambda0"]
    m = sum(degrees) - lam
    base = {"subcommand": "filtration", "field": p, "degrees": degrees,
            "lambda0": lam, "seed": 0}
    if m < 0:
        base.update(status="no-filtration", length=None, points=[], dims=[],
                    det_degrees=[], verified=None)
        return 0, base
    if m > p + 1:
        return 2, "NotEnoughPoints"
    twist = 0
    while sum(max(d + twist + 1, 0) for d in degrees) < m:
        twist += 1
    width = sum(max(d + twist + 1, 0) for d in degrees)
    labels = [str(j) for j in range(p)] if m > p else [str(j) for j in range(m)]
    if m > p:
        labels.append("inf")
    base.update(
        status="ok", length=m, points=labels,
        dims=[width - j for j in range(m + 1)],
        det_degrees=[sum(degrees) - j for j in range(m + 1)],
        verified=True,
    )
    return 0, base


# -- hecke-verify -----------------------------------------------------------

def functional_row(degrees, point, covector, p):
    """Evaluation functional on the full sections of O(d_1)+...+O(d_r)."""
    row = []
    for d, c in zip(degrees, covector):
        w = max(d + 1, 0)
        block = [0] * w
        if w and c % p:
            if point is None:
                block[w - 1] = c % p
            else:
                block = [(c * pow(point, k, p)) % p for k in range(w)]
        row += block
    return row


def _hecke_verify(s):
    p, degrees, points = s["p"], s["degrees"], s["points"]
    covs = s["covectors"]
    if covs is None:
        first = next(i for i, d in enumerate(degrees) if d >= 0)
        covs = [[int(i == first) for i in range(len(degrees))]] * 2
    r1, r2 = (functional_row(degrees, q, c, p) for q, c in zip(points, covs))
    # each route is refused when its second functional is a multiple of the
    # first, or its first vanishes on the full section space
    if not any(r1) or not any(r2) or rank_mod([r1, r2], p) < 2:
        return 2, "VacuousTransform"
    dim = sum(max(d + 1, 0) for d in degrees) - 2
    return 0, {
        "subcommand": "hecke-verify", "field": p, "degrees": degrees,
        "points": ["inf" if q is None else str(q) for q in points],
        "covectors": [list(c) for c in covs],
        "routes": {"dim_v12": dim, "dim_v21": dim, "dim_joint": dim},
        "equal": True, "status": "ok", "seed": 0,
    }


# -- evaluation codes ---------------------------------------------------------

def monomials(degree, nvars):
    if nvars == 2:
        return [(a, degree - a) for a in range(degree, -1, -1)]
    return [(a, b, degree - a - b)
            for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)]


def normalize(pt, p):
    pt = [c % p for c in pt]
    lead = next(c for c in pt if c)
    inv = pow(lead, p - 2, p)
    return tuple((c * inv) % p for c in pt)


def rational_points(space, p):
    if space == "P1":
        return [(1, t) for t in range(p)] + [(0, 1)]
    return ([(1, b, c) for b in range(p) for c in range(p)]
            + [(0, 1, c) for c in range(p)] + [(0, 0, 1)])


def condition_rows(degree, nvars, point, order, p):
    """Hasse derivatives of order < `order` in the chart where the point is 1."""
    pt = normalize(point, p)
    chart = next(i for i, c in enumerate(pt) if c)
    affine = [i for i in range(nvars) if i != chart]
    if len(affine) == 1:
        multis = [(i,) for i in range(order)]
    else:
        multis = [(i, j) for i in range(order) for j in range(order - i)]
    rows = []
    for multi in multis:
        row = []
        for expo in monomials(degree, nvars):
            v = 1
            for var, i in zip(affine, multi):
                e = expo[var]
                v = 0 if e < i else v * comb(e, i) * pow(pt[var], e - i, p)
            row.append(v % p)
        rows.append(row)
    return rows


def section_basis(degree, conditions, nvars, p):
    """Canonical basis of the degree-d forms meeting the vanishing conditions."""
    rows = []
    for pt, order in conditions:
        rows += condition_rows(degree, nvars, pt, order, p)
    return kernel_mod(rows, len(monomials(degree, nvars)), p)


def evaluate(basis_row, degree, pt, p):
    nvars = len(pt)
    total = 0
    for coeff, expo in zip(basis_row, monomials(degree, nvars)):
        if coeff:
            term = coeff
            for c, e in zip(pt, expo):
                term = term * pow(c, e, p)
            total += term
    return total % p


def code_points(s):
    """Evaluation slots, normalized: regular points then exceptional ones."""
    p = s["p"]
    if s["points"] == "all-rational":
        regular = rational_points(s["space"], p)
    else:
        regular = [normalize(q, p) for q in s["points"]]
    return regular, [normalize(q, p) for q in s["exceptional"]]


def _classes(p, k):
    return (p**k - 1) // (p - 1)


def brute_force_distance(words, p):
    """Least nonzero weight in the span of `words`, one word per class."""
    k = len(words)
    n = len(words[0])
    best = None
    for lead in range(k):
        tail = words[lead + 1:]
        for digits in product(range(p), repeat=len(tail)):
            w = 0
            for j in range(n):
                v = words[lead][j]
                for c, row in zip(digits, tail):
                    v += c * row[j]
                if v % p:
                    w += 1
            if w and (best is None or w < best):
                best = w
    return best


def line_distance(slots, conditions, degree, p):
    """Closed form for one summand on the line.

    The sections are g*h with g the product of the condition linear forms
    and h any form of degree e = degree - sum(orders). A nonzero codeword
    vanishes on the slots at the zeros of g plus the slots at the roots of
    h; h can take any e distinct roots, so the lightest codeword puts them
    on the e non-zero points of g holding the most slots. Valid while e is
    below the number of those points, so that no nonzero h vanishes on all.
    """
    zeros = {normalize(q, p) for q, _ in conditions}
    counts = {}
    for q in slots:
        if q not in zeros:
            counts[q] = counts.get(q, 0) + 1
    e = degree - sum(order for _, order in conditions)
    if e >= len(counts):
        return None
    top = sorted(counts.values(), reverse=True)[:e]
    return sum(counts.values()) - sum(top)


def summand_distance(s, i, basis, slots):
    """Least nonzero weight of summand i's block code; None if it has none."""
    p = s["p"]
    degree, conditions = s["summands"][i]
    words = [[evaluate(row, degree, q, p) for q in slots] for row in basis]
    red = rref_mod(words, p)[0]
    if not red:
        return None
    if _classes(p, len(red)) <= BRUTE_FORCE_CLASSES:
        return brute_force_distance(red, p)
    d = line_distance(slots, conditions, degree, p) if s["space"] == "P1" else None
    if d is None:
        raise ValueError("oracle cannot certify this distance")
    return d


def code_expectation(s):
    """Pure-integer expectation for code-build, code-analyze, mmp-compare."""
    p, space = s["p"], s["space"]
    nvars = 2 if space == "P1" else 3
    regular, exceptional = code_points(s)
    slots = regular + exceptional
    r = len(s["summands"])
    bases = [section_basis(d, conds, nvars, p) for d, conds in s["summands"]]
    message_dim = sum(len(b) for b in bases)
    generator = []
    for i, ((degree, _), basis) in enumerate(zip(s["summands"], bases)):
        for row in basis:
            out = [0] * (r * len(slots))
            for j, q in enumerate(slots):
                out[j * r + i] = evaluate(row, degree, q, p)
            generator.append(out)
    k = rank_mod(generator, p)
    zero_blocks = [j for j in range(len(slots))
                   if not any(g[j * r + t] for g in generator for t in range(r))]
    n_points = len(slots)
    summary = {
        "p": p, "space": space, "r": r, "N": n_points, "n": r * n_points,
        "k": k, "message_dim": message_dim, "zero_blocks": zero_blocks,
    }
    return summary, generator, bases, slots


def _distance(s, bases, slots, k):
    """The code is the direct sum of its summands' block codes, so its
    distance is the least of theirs; None when over the default budget."""
    if _classes(s["p"], k) > DEFAULT_BUDGET:
        return None
    ds = [summand_distance(s, i, b, slots) for i, b in enumerate(bases) if b]
    return min(d for d in ds if d is not None)


def _code(s):
    cmd = s["cmd"]
    summary, generator, bases, slots = code_expectation(s)
    if cmd == "code-build":
        out = {"subcommand": "code-build", "status": "ok", "seed": 0, **summary}
        if s.get("export"):
            out["generator_file"] = s["export"]
        return 0, out, generator
    r, n_points = summary["r"], summary["N"]
    n_after = n_points - len(summary["zero_blocks"])
    d = _distance(s, bases, slots, summary["k"])
    if cmd == "code-analyze":
        out = {"subcommand": "code-analyze", "status": "ok", "seed": 0, **summary}
        if d is None:
            out.update(d_min="infeasible", delta=None, mmp=None)
        else:
            out.update(
                d_min=d, delta=frac(Fraction(d, r * n_points)),
                mmp={"N_after": n_after,
                     "delta_after": frac(Fraction(d, r * n_after)),
                     "ratio": frac(Fraction(n_points, n_after))},
            )
        return 0, out, None
    out = {"subcommand": "mmp-compare", "p": s["p"], "r": r, "seed": 0}
    if d is None:
        out.update(status="infeasible", N_before=n_points, N_after=None,
                   zero_blocks=None, d_min=None, delta_before=None,
                   delta_after=None, ratio=None, improved=None)
    else:
        out.update(
            status="ok", N_before=n_points, N_after=n_after,
            zero_blocks=summary["zero_blocks"], d_min=d,
            delta_before=frac(Fraction(d, r * n_points)),
            delta_after=frac(Fraction(d, r * n_after)),
            ratio=frac(Fraction(n_points, n_after)),
            improved=bool(summary["zero_blocks"]),
        )
    return 0, out, None


def expected(spec):
    """(exit code, report dict or error class name, generator rows or None)."""
    cmd = spec["cmd"]
    if cmd == "depth-curve":
        return 0, _depth_curve(spec), None
    if cmd == "depth-surface":
        return 0, _depth_surface(spec), None
    if cmd == "mmp-depth":
        return 0, _mmp_depth(spec), None
    if cmd == "filtration":
        return (*_filtration(spec), None)
    if cmd == "hecke-verify":
        return (*_hecke_verify(spec), None)
    return _code(spec)
