"""Command-line front end.

Every subcommand prints a JSON report to stdout (or a flat text rendering
with --format text) and reserves stderr for diagnostics. Exit status 0
covers every successfully computed answer, including NoFiltration and
Infeasible, which are answers rather than failures; malformed input exits
1 with a one-line message naming the offending field, and domain-level
refusals exit 2.

Identical inputs produce byte-identical reports: keys are sorted, the
rendering is fixed, and the seed only matters to randomized callers that
embed it in their own configs. One small writer, _encode, writes both
formats: a JSON report is byte for byte json.dumps(report, sort_keys=True,
indent=2), and each text leaf is json.dumps(leaf). It walks dicts and lists
in Python but joins a list of ints or of strs in one C-level str.join,
where json's indenting encoder would take every element through Python.

argv is read from one option table, _GLOBAL and _COMMANDS: each
subcommand's handler, help line and options, each option with its dest and
whether it is required, a flag, an integer or one of fixed choices. The
reading is argparse's: --opt value or --opt=value, unique prefixes, the
last of a repeated option, --format and --seed before the subcommand, and a
value starting with '-' only when it is a negative number or holds a space.
-h and --help print usage made from the same table, at either level, and
exit 0; any other malformed argv exits 1 naming arguments, or subcommand
when none is given.

Only hecke-verify, code-build, code-analyze and mmp-compare load numpy;
depth, mmp-depth, filtration (a closed-form chain) and malformed arguments
start and finish without it.
"""

from __future__ import annotations

import json
import os
import re
import stat
import sys
from collections import namedtuple
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from types import SimpleNamespace

# curve, hecke and agcode are read as attributes of the package, which
# imports each on first use (hecke and agcode load numpy), so depth and
# mmp-depth load none and a traced or patched function is the one that runs
import hierdepth

from . import depth
from .bundle import SplitBundle, parse_bundle
from .errors import INFEASIBLE, HierdepthError, NegativeM
from .picard import Lattice, parse_class

DEFAULT_SEED = 0


# cli.build_code, which the benchmark's tracer reads as a cli attribute, is
# forwarded to agcode, so it returns agcode's current (possibly wrapped) object
def __getattr__(name):
    if name == "build_code":
        return hierdepth.agcode.build_code
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CliInputError(Exception):
    """Malformed input; the first argument names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _int_list(text: str, field_name: str) -> list[int]:
    """Comma-separated integers; only a wholly empty value is the empty list."""
    if not text.strip():
        return []
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise CliInputError(field_name, f"expected comma-separated integers, got {text!r}")


def _int(value, field_name: str, message: str) -> int:
    """value as an integer; otherwise malformed input naming the field."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise CliInputError(field_name, message)


def _degrees(ns) -> list[int]:
    degrees = _int_list(ns.degrees or "", "degrees")
    if not degrees:
        raise CliInputError("degrees", "need at least one degree")
    return degrees


def _point(text: str, field_name: str, space: str, arity: int, p: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(t) for t in text.strip().split(":"))
    except ValueError:
        raise CliInputError(field_name, f"expected colon-separated integers, got {text!r}")
    if len(coords) != arity:
        raise CliInputError(
            field_name, f"{space} points need {arity} coordinates, got {text!r}"
        )
    # p < 2 leaves nothing to reduce by; building the code refuses it as NotPrime
    if p > 1 and not any(c % p for c in coords):
        raise CliInputError(field_name, f"all coordinates are zero mod {p} in {text!r}")
    return coords


def _depth_value(v):
    return None if v is depth.NO_FILTRATION else v


def _cmd_depth(ns):
    if ns.curve:
        if ns.bundle or ns.surface:
            raise CliInputError("curve", "choose either --curve or --surface")
        degrees = _degrees(ns)
        d0 = _int(ns.lambda0, "lambda0", "expected an integer degree")
        lower = upper = _depth_value(depth.curve_split_depth(degrees, d0))
        name, lattice = "curve", Lattice.curve()
        det, lam = lattice.divisor(sum(degrees)), lattice.divisor(d0)
    else:
        if ns.degrees is not None:
            raise CliInputError("degrees", "--degrees is read only with --curve")
        name = ns.surface
        if name not in ("p2", "p1xp1"):
            raise CliInputError("surface", "expected p2 or p1xp1 (or use --curve)")
        lattice = Lattice.p2() if name == "p2" else Lattice.p1xp1()
        try:
            b = parse_bundle(ns.bundle or "", lattice)
        except ValueError as e:
            raise CliInputError("bundle", str(e))
        try:
            lam = parse_class(ns.lambda0 or "", lattice)
        except ValueError as e:
            raise CliInputError("lambda0", str(e))
        lower, upper = map(_depth_value, depth.surface_split_depth(b, lam))
        det = b.det()
    if lattice.rank == 1:
        bound = depth.rank_one_bound(det.coeffs[0], lam.coeffs[0])
    else:
        bound = upper
    return {
        "lattice": name,
        "det": det.notation(),
        "lambda0": lam.notation(),
        "bound": bound,
        "lower": lower,
        "upper": upper,
        "value": lower if lower == upper else None,
        "status": "ok" if upper is not None else "no-filtration",
    }


def _cmd_mmp_depth(ns):
    hmin = _int(ns.hmin, "hmin", "expected an integer")
    if hmin < 0:
        raise CliInputError("hmin", f"must be nonnegative, got {hmin}")
    alpha = _int_list(ns.alpha or "", "alpha")
    beta = _int_list(ns.beta or "", "beta")
    value = depth.mmp_exact_depth(hmin, alpha, beta)
    return {
        "hmin": hmin,
        "alpha": alpha,
        "beta": beta,
        "value": value,
        "status": "ok",
    }


def _cmd_filtration(ns):
    curve = hierdepth.curve
    p = _int(ns.field, "field", "expected a prime integer")
    degrees = _degrees(ns)
    lam = _int(ns.lambda0, "lambda0", "expected an integer degree")
    base = {
        "field": p,
        "degrees": degrees,
        "lambda0": lam,
    }
    try:
        filt, chain = curve.build_curve_filtration(degrees, lam, p)
    except NegativeM:
        base.update({
            "status": "no-filtration",
            "length": None,
            "points": [],
            "dims": [],
            "det_degrees": [],
            "verified": None,
        })
        return base
    line = Lattice.curve()
    target = SplitBundle(tuple(line.divisor(d) for d in degrees))
    base.update({
        "status": "ok",
        "length": filt.length,
        "points": curve.point_labels(filt.length, p),
        "dims": chain.dims,
        "det_degrees": chain.det_degrees,
        "verified": depth.verify_filtration(filt, target),
    })
    return base


def _hecke_point(text: str, field_name: str):
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return hierdepth.curve.INFINITY
    message = f"expected an integer or 'inf', got {text!r}"
    return hierdepth.curve.RationalPoint.affine(_int(t, field_name, message))


def _cmd_hecke_verify(ns):
    hecke = hierdepth.hecke
    p = _int(ns.field, "field", "expected a prime integer")
    degrees = _degrees(ns)
    raw_points = (ns.points or "").split(",")
    if len(raw_points) != 2:
        raise CliInputError("points", "expected exactly two points, e.g. 0,1")
    pts = [_hecke_point(t, "points") for t in raw_points]
    model = hecke.full_sections(degrees, p)
    if ns.covectors:
        parts = ns.covectors.split(";")
        if len(parts) != 2:
            raise CliInputError("covectors", "expected two covectors, e.g. 1,0;0,1")
        covs = [_int_list(t, "covectors") for t in parts]
        for cov in covs:
            if len(cov) != len(degrees):
                raise CliInputError("covectors", "covector length must match rank")
        # full_sections has checked p, so a covector zero mod p is malformed
        if not all(any(c % p for c in cov) for cov in covs):
            raise CliInputError("covectors", "covector must be nonzero")
        functionals = [
            hecke.PointFunctional(pt, tuple(cov)) for pt, cov in zip(pts, covs)
        ]
    else:
        functionals = [hecke.first_usable_covector(model, pt) for pt in pts]
    report = hecke.commute_check(model, functionals[0], functionals[1])
    return {
        "field": p,
        "degrees": degrees,
        "points": [pt.label() for pt in pts],
        "covectors": [list(f.covector) for f in functionals],
        "routes": {
            "dim_v12": report.dim_v12,
            "dim_v21": report.dim_v21,
            "dim_joint": report.dim_joint,
        },
        "equal": report.equal,
        "status": "ok",
    }


def parse_code_config(path: str):
    """Read a flat key = value file describing a code; return (space, code, budget).

    Recognized keys: p, space, summand (repeatable), points, exclude
    (repeatable), exceptional (repeatable), budget. A summand value is
    'degree' or 'degree; pt@order, pt@order, ...' with pt written as
    colon-separated coordinates. points is either 'all-rational' or an
    explicit comma-separated point list. The section bases and the code
    are built only after every line has been checked.
    """
    agcode = hierdepth.agcode
    values = {"summand": [], "exclude": [], "exceptional": []}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise CliInputError("config", f"cannot read {path!r}: {e}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliInputError("config", f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key in ("summand", "exclude", "exceptional"):
            values[key].append(val)
        elif key in ("p", "space", "points", "budget"):
            if key in values:
                raise CliInputError(key, f"line {lineno}: repeated key")
            values[key] = val
        else:
            raise CliInputError("config", f"line {lineno}: unknown key {key!r}")
    if "p" not in values:
        raise CliInputError("p", "missing from config")
    p = _int(values["p"], "p", f"expected an integer, got {values['p']!r}")
    space = values.get("space", "P2").upper()
    if space not in agcode.SPACES:
        raise CliInputError("space", f"expected P1 or P2, got {values.get('space')!r}")
    arity = agcode.SPACES[space]
    if not values["summand"]:
        raise CliInputError("summand", "need at least one summand line")
    summands = []
    for text in values["summand"]:
        head, _, tail = text.partition(";")
        degree = _int(head, "summand", f"expected integer degree, got {head!r}")
        if degree < 0:
            raise CliInputError("summand", f"degree must be nonnegative, got {degree}")
        conditions = []
        tail = tail.strip()
        if tail:
            for item in tail.split(","):
                pt_text, _, order_text = item.strip().partition("@")
                pt = _point(pt_text, "summand", space, arity, p)
                order = _int(order_text or 1, "summand", f"bad order {order_text!r}")
                if order < 1:
                    raise CliInputError("summand", f"order must be at least 1, got {order}")
                conditions.append(agcode.VanishingCondition(pt, order))
        summands.append((degree, conditions))
    if "points" not in values:
        raise CliInputError("points", "missing from config")
    if values["points"].strip().lower() == "all-rational":
        pts = agcode.all_rational_points(space, p)
        excluded = {
            agcode.normalize_point(_point(t, "exclude", space, arity, p), p)
            for t in values["exclude"]
        }
        points = [pt for pt in pts if pt not in excluded]
    else:
        if values["exclude"]:
            raise CliInputError("exclude", "only valid with points = all-rational")
        points = [_point(t, "points", space, arity, p) for t in values["points"].split(",")]
    exceptional = [_point(t, "exceptional", space, arity, p) for t in values["exceptional"]]
    if not points and not exceptional:
        raise CliInputError("exclude", "removes every point and no exceptional point is given")
    text = values.get("budget", agcode.DEFAULT_BUDGET)
    budget = _int(text, "budget", f"expected an integer, got {text!r}")
    if budget <= 0:
        raise CliInputError("budget", f"must be positive, got {budget}")
    bases = [
        agcode.vanishing_basis(degree, conditions, space, p) for degree, conditions in summands
    ]
    return space, agcode.build_code(bases, points, p, exceptional=exceptional), budget


def _code_summary(space: str, code) -> dict:
    return {
        "p": code.p,
        "space": space,
        "r": code.r,
        "N": code.num_points,
        "n": code.n,
        "k": code.k,
        "message_dim": code.message_dim,
        "zero_blocks": list(hierdepth.agcode.zero_blocks(code)),
    }


def _cmd_code_build(ns):
    space, code, _ = parse_code_config(ns.config)
    out = {"status": "ok", **_code_summary(space, code)}
    if ns.export_generator:
        _write_over(ns.export_generator, "".join(
            " ".join(str(v) for v in row) + "\n" for row in code.generator.tolist()
        ))
        out["generator_file"] = ns.export_generator
    return out


def _write_over(path: str, text: str) -> None:
    """Write text to path, replacing what was there.

    The file is not truncated before the write: on ext4 (auto_da_alloc)
    truncating a non-empty file to zero and rewriting it forces a flush
    when it is closed. A regular file is cut to the written length
    afterwards; devices and pipes are left as they are. Nothing is synced.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        fh.flush()
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            os.ftruncate(fh.fileno(), len(data))


def _cmd_code_analyze(ns):
    space, code, budget = parse_code_config(ns.config)
    out = {"status": "ok", **_code_summary(space, code)}
    comparison = hierdepth.agcode.mmp_compare(code, budget=budget)
    if comparison is INFEASIBLE:
        out.update({"d_min": "infeasible", "delta": None, "mmp": None})
        return out
    out.update({
        "d_min": comparison.d_min,
        "delta": _frac(comparison.delta_before),
        "mmp": {
            "N_after": comparison.n_points_after,
            "delta_after": _frac(comparison.delta_after),
            "ratio": _frac(comparison.ratio),
        },
    })
    return out


def _cmd_mmp_compare(ns):
    _, code, budget = parse_code_config(ns.config)
    out = {"p": code.p, "r": code.r}
    comparison = hierdepth.agcode.mmp_compare(code, budget=budget)
    if comparison is INFEASIBLE:
        out.update({
            "status": "infeasible",
            "N_before": code.num_points,
            "N_after": None,
            "zero_blocks": None,
            "d_min": None,
            "delta_before": None,
            "delta_after": None,
            "ratio": None,
            "improved": None,
        })
        return out
    out.update({
        "status": "ok",
        "N_before": comparison.n_points_before,
        "N_after": comparison.n_points_after,
        "zero_blocks": list(comparison.zero_blocks),
        "d_min": comparison.d_min,
        "delta_before": _frac(comparison.delta_before),
        "delta_after": _frac(comparison.delta_after),
        "ratio": _frac(comparison.ratio),
        "improved": comparison.improved,
    })
    return out


# One option of the table. kind is str for a free value, int for an
# integer, a tuple of the values allowed, or bool for a flag, which takes no
# value and reads True when given. An option not given reads its default.
_Option = namedtuple("_Option", "name dest kind required default", defaults=(str, False, None))

# -h and --help at every level, named in error lines as argparse named it
_HELP = _Option("-h/--help", "help", bool)


class _Command:
    """One level of the table: a subcommand, or the options before one."""

    def __init__(self, name, run, about, *options):
        self.name, self.run, self.about, self.options = name, run, about, options
        self.lookup = {"-h": _HELP, "--help": _HELP, **{o.name: o for o in options}}
        self.defaults = {o.dest: o.default for o in options}
        # every prefix of a long name, from "--", and the names it begins
        self.prefixes = {}
        for name in ("--help", *(o.name for o in options)):
            for end in range(2, len(name) + 1):
                self.prefixes.setdefault(name[:end], []).append(name)

    def help(self) -> str:
        """The --help text: usage, then what the level does."""
        words = [f"usage: hierdepth {self.name}".rstrip(), "[-h]"]
        for o in self.options:
            if o.kind is bool:
                word = o.name
            elif isinstance(o.kind, tuple):
                word = f"{o.name} {{{','.join(o.kind)}}}"
            else:
                word = f"{o.name} {o.dest.upper()}"
            words.append(word if o.required else f"[{word}]")
        lines = [" ".join(words), "", self.about]
        if self is _GLOBAL:
            lines[0] += " SUBCOMMAND ..."
            lines += ["", "subcommands (hierdepth SUBCOMMAND --help lists the options):"]
            lines += [f"  {c.name:<14}{c.about}" for c in _COMMANDS.values()]
        return "\n".join(lines)


_CONFIG = _Option("--config", "config", required=True)

# The one option table. Parsing and --help text are both read from it.
_GLOBAL = _Command(
    "", None, "Exact depths, transform chains and evaluation codes; one report per call.",
    _Option("--format", "format", ("json", "text"), default="json"),
    _Option("--seed", "seed", int, default=DEFAULT_SEED),
)
_COMMANDS = {c.name: c for c in (
    _Command(
        "depth", _cmd_depth, "Depth bounds for a split bundle.",
        _Option("--curve", "curve", bool, default=False),
        _Option("--surface", "surface", ("p2", "p1xp1")),
        _Option("--degrees", "degrees"),
        _Option("--bundle", "bundle"),
        _Option("--lambda0", "lambda0", required=True),
    ),
    _Command(
        "mmp-depth", _cmd_mmp_depth, "Depth through a blowup chain.",
        _Option("--hmin", "hmin", required=True),
        _Option("--alpha", "alpha", required=True),
        _Option("--beta", "beta", required=True),
    ),
    _Command(
        "filtration", _cmd_filtration, "Build a maximal chain on the line.",
        _Option("--field", "field", required=True),
        _Option("--degrees", "degrees", required=True),
        _Option("--lambda0", "lambda0", required=True),
    ),
    _Command(
        "hecke-verify", _cmd_hecke_verify, "Compare transform routes.",
        _Option("--field", "field", required=True),
        _Option("--degrees", "degrees", required=True),
        _Option("--points", "points", required=True),
        _Option("--covectors", "covectors"),
    ),
    _Command(
        "code-build", _cmd_code_build, "Build an evaluation code from a config file.",
        _CONFIG,
        _Option("--export-generator", "export_generator"),
    ),
    _Command(
        "code-analyze", _cmd_code_analyze,
        "Minimum distance of a code, before and after contraction.", _CONFIG,
    ),
    _Command("mmp-compare", _cmd_mmp_compare, "Compare a code with its contraction.", _CONFIG),
)}


class _Help(Exception):
    """--help was read; the argument is the text to print."""


# a token starting with '-' that is still a value, as argparse reads it
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(token: str, command: _Command):
    """How one level reads a token: None for a positional, else (option,
    inline value), with option None when the level has no such option.

    As in argparse: an option is its full name, name=value, or a unique
    prefix of a name (with or without =value); a token that starts with -h
    is -h with the rest inline. A token starting with '-' is a positional
    only when it is '-', a negative number, or holds a space.
    """
    if token[:1] != "-" or token == "-":
        return None
    lookup = command.lookup
    option = lookup.get(token)
    if option is not None:
        return option, None
    name, eq, inline = token.partition("=")
    if eq and name in lookup:
        return lookup[name], inline
    if token[1] == "-":
        matches = command.prefixes.get(name, ())
        inline = inline if eq else None
    else:
        matches = ("-h",) if token.startswith("-h") else ()
        inline = token[2:]
    if len(matches) > 1:
        raise CliInputError(
            "arguments", f"ambiguous option: {token} could match {', '.join(matches)}"
        )
    if matches:
        return lookup[matches[0]], inline
    if " " in token or _NEGATIVE_NUMBER.match(token):
        return None
    return None, None


def _value(option: _Option, text: str):
    if option.kind is int:
        return _int(text, "arguments", f"argument {option.name}: invalid int value: {text!r}")
    if option.kind is not str and text not in option.kind:
        raise _invalid_choice(option.name, text, option.kind)
    return text


def _invalid_choice(name: str, text: str, choices) -> CliInputError:
    listed = ", ".join(map(repr, choices))
    return CliInputError(
        "arguments", f"argument {name}: invalid choice: {text!r} (choose from {listed})"
    )


def _read(tokens, command: _Command, values: dict, extras: list):
    """Read one level's options from tokens into values, as argparse does.

    Every token before the first '--' is classified before any is acted
    on, so an ambiguous prefix is refused even after a --help. The options
    before the subcommand stop at the first positional, the subcommand, and
    return its index (or that of the '--'). A subcommand's positionals,
    unknown options, '--' and all after it go to extras, and every required
    option must have been given.
    """
    end = tokens.index("--") if "--" in tokens else len(tokens)
    found = [_option(t, command) for t in tokens[:end]]
    values.update(command.defaults)
    i = 0
    while i < end:
        hit = found[i]
        i += 1
        if hit is None:
            if command is _GLOBAL:
                return i - 1
            extras.append(tokens[i - 1])
            continue
        option, inline = hit
        if option is None:
            extras.append(tokens[i - 1])
        elif option.kind is bool:
            if inline is not None:
                raise CliInputError(
                    "arguments", f"argument {option.name}: ignored explicit argument {inline!r}"
                )
            if option is _HELP:
                raise _Help(command.help())
            values[option.dest] = True
        else:
            if inline is None:
                if i == end or found[i] is not None:
                    raise CliInputError(
                        "arguments", f"argument {option.name}: expected one argument"
                    )
                inline = tokens[i]
                i += 1
            values[option.dest] = _value(option, inline)
    if command is _GLOBAL:
        return end
    extras.extend(tokens[end:])
    missing = [o.name for o in command.options if o.required and values[o.dest] is None]
    if missing:
        raise CliInputError(
            "arguments", f"the following arguments are required: {', '.join(missing)}"
        )


def _parse(argv) -> SimpleNamespace:
    """The namespace of one argv: each option's dest, subcommand and run."""
    values, extras = {}, []
    at = _read(argv, _GLOBAL, values, extras)
    if at < len(argv):
        command = _COMMANDS.get(argv[at])
        if command is None:
            raise _invalid_choice("subcommand", argv[at], _COMMANDS)
        values.update(subcommand=command.name, run=command.run)
        _read(argv[at + 1:], command, values, extras)
    if extras:
        raise CliInputError("arguments", f"unrecognized arguments: {' '.join(extras)}")
    if "run" not in values:
        raise CliInputError("subcommand", "no subcommand given")
    return SimpleNamespace(**values)


_LITERALS = {True: "true", False: "false", None: "null"}


def _elements(items, pad):
    """The encoded elements of a non-empty list; pad as in _encode."""
    kinds = {*map(type, items)}
    if kinds == {int}:
        return map(int.__repr__, items)
    if kinds == {str}:
        return map(_encode_str, items)
    return [_encode(v, pad) for v in items]


def _encode(value, pad=None) -> str:
    """value as JSON text: on one line when pad is None, else indented by 2.

    pad is the line break and indent of the line value starts on. The text
    equals json.dumps(value) on one line, and json.dumps(value,
    sort_keys=True, indent=2) for pad "\\n", which json writes element by
    element in Python, since its C encoder runs only without an indent.
    Lists of ints or of strs are joined over C-level maps. A dict on one
    line goes to json.dumps unsorted: the text form flattens dicts, so one
    is a leaf only inside a list.
    """
    if isinstance(value, (list, tuple)) and value:
        if pad is None:
            return "[" + ", ".join(_elements(value, None)) + "]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join(_elements(value, inner)) + pad + "]"
    if isinstance(value, dict) and value and pad is not None:
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            f"{_encode_str(key)}: {_encode(v, inner)}" for key, v in sorted(value.items())
        ) + pad + "}"
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return _encode_str(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    return json.dumps(value)


def _render_text(obj, prefix="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            head = f"{prefix}{key}" if not prefix else f"{prefix}.{key}"
            lines.extend(_render_text(obj[key], head))
    else:
        lines.append(f"{prefix}: {_encode(obj)}")
    return lines


def render(report: dict, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(_render_text(report))
    return _encode(report, "\n")


def main(argv=None) -> int:
    try:
        ns = _parse(sys.argv[1:] if argv is None else argv)
        report = {"subcommand": ns.subcommand, "seed": ns.seed, **ns.run(ns)}
    except _Help as e:
        print(e)
        return 0
    except CliInputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except HierdepthError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    print(render(report, ns.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
