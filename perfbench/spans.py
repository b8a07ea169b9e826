"""Spans and counters around the program's layers, from outside the program.

`Tracer.install` wraps every public function of the gf, hecke, agcode,
depth, picard, bundle and cli modules in a timing span, both on the module
that defines it and on every hierdepth module that imported it by name, and
counts `Field` constructions (each one is a trial-division prime check).
Spans stay in memory as (name, start_ns, end_ns, parent, request) tuples
until `write` puts them in a gzipped CSV file.

The counts `gf.cells`, `hecke.points_enumerated`, `agcode.evaluations` and
`agcode.classes` are computed from the shapes of the arguments, not
measured, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

LAYERS = ("gf", "hecke", "agcode", "depth", "picard", "bundle", "cli")
ROOT = "bench.request"


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _cells(tracer, args, kwargs, result):
    m = args[0] if args else next(iter(kwargs.values()))
    tracer.counts["gf.cells"] += m.rows * m.cols


def _points(tracer, args, kwargs, result):
    tracer.counts["hecke.points_enumerated"] += int(_arg(args, kwargs, 0, "p")) + 1


def _evaluations(tracer, args, kwargs, result):
    bases = list(_arg(args, kwargs, 0, "bases"))
    points = _arg(args, kwargs, 1, "points")
    extra = _arg(args, kwargs, 3, "exceptional", ())
    tracer.counts["agcode.evaluations"] += (len(points) + len(extra)) * len(bases)


def _distance(tracer, args, kwargs, result):
    if result is sys.modules["hierdepth.agcode"].INFEASIBLE:
        tracer.counts["agcode.infeasible"] += 1
    else:
        code = _arg(args, kwargs, 0, "code")
        tracer.counts["agcode.classes"] += (code.p**code.k - 1) // (code.p - 1)


# Counts taken after a call returns.
COUNTERS = {
    "agcode.min_distance": _distance,
    "gf.rref": _cells,
    "gf.rank": _cells,
    "gf.kernel_basis": _cells,
    "gf.subspace_kernel": _cells,
    "hecke.enumerate_points": _points,
    "agcode.build_code": _evaluations,
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.request = -1
        self._restore = []

    def span(self, name, fn, args, kwargs=None, after=None):
        """Call fn(*args) inside a span named `name`."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        t0 = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:
            self.counts[f"{name}!{type(e).__name__}"] += 1
            raise
        finally:
            t1 = perf_counter_ns()
            self.stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.request)
        if after:
            after(self, args, kwargs, result)
        return result

    def _wrap(self, name, fn):
        after = COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, after)

        return wrapper

    def install(self):
        """Wrap the layers' public functions wherever hierdepth refers to them."""
        modules = {
            layer: importlib.import_module(f"hierdepth.{layer}") for layer in LAYERS
        }
        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "hierdepth" and not modname.startswith("hierdepth."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, value))
        gf = modules["gf"]
        init = gf.Field.__init__

        def counted_init(field, p):
            self.counts["gf.prime_checks"] += 1
            init(field, p)

        gf.Field.__init__ = counted_init
        self._restore.append((gf.Field, "__init__", init))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    # -- analysis ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive ns, self ns)."""
        child = [0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0, 0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,request,name,start_ns,end_ns\n")
            for i, (name, t0, t1, parent, req) in enumerate(self.spans):
                fh.write(f"{i},{parent},{req},{name},{t0},{t1}\n")


def layer_metrics(totals, counts, cycles, untraced_ns):
    """Per-layer metrics per cycle, from span totals and counts.

    A layer's busy (or self) time is the summed self time of its spans: a
    span's duration minus the part its child spans cover. The busy times of
    the seven layers plus bench.self_ms (the harness inside each request)
    add up to trace.wall_ms. The *_ms of a single function (basis, build,
    distance, enumerate) are inclusive; hecke.transform_ms is the self time
    of apply_transform. cli.parse_ms is the self time of cli.main (argv
    parsing, printing) and cli.parse_code_config. trace.overhead_ratio is
    the traced cycle wall over the untraced one measured next to it.
    """

    def layer_self(layer):
        return sum(v[2] for k, v in totals.items() if k.split(".")[0] == layer)

    def calls(name):
        return totals[name][0] if name in totals else 0

    def incl(name):
        return totals[name][1] if name in totals else 0

    def self_ns(name):
        return totals[name][2] if name in totals else 0

    ms = 1e-6 / cycles
    wall = incl(ROOT)
    gf_ns = layer_self("gf")
    distance_ns = incl("agcode.min_distance")
    transforms = calls("hecke.apply_transform")
    m = {
        "gf.calls": sum(v[0] for k, v in totals.items() if k.startswith("gf.")) / cycles,
        "gf.busy_ms": gf_ns * ms,
        "gf.cells": counts["gf.cells"] / cycles,
        "gf.cells_per_s": counts["gf.cells"] / (gf_ns * 1e-9) if gf_ns else 0.0,
        "gf.prime_checks": counts["gf.prime_checks"] / cycles,
        "hecke.transforms": transforms / cycles,
        "hecke.transform_ms": self_ns("hecke.apply_transform") * ms,
        "hecke.points_enumerated": counts["hecke.points_enumerated"] / cycles,
        "hecke.enumerate_ms": incl("hecke.enumerate_points") * ms,
        "hecke.vacuous_ratio": (
            counts["hecke.apply_transform!VacuousTransform"] / transforms
            if transforms else 0.0),
        "hecke.busy_ms": layer_self("hecke") * ms,
        "agcode.basis_ms": incl("agcode.vanishing_basis") * ms,
        "agcode.build_ms": incl("agcode.build_code") * ms,
        "agcode.evaluations": counts["agcode.evaluations"] / cycles,
        "agcode.distance_ms": distance_ns * ms,
        "agcode.classes": counts["agcode.classes"] / cycles,
        "agcode.classes_per_s": (
            counts["agcode.classes"] / (distance_ns * 1e-9) if distance_ns else 0.0),
        "agcode.infeasible": counts["agcode.infeasible"] / cycles,
        "agcode.contract_calls": calls("agcode.zero_block_contract") / cycles,
        "agcode.busy_ms": layer_self("agcode") * ms,
        "cli.parse_ms": (self_ns("cli.main") + self_ns("cli.parse_code_config")) * ms,
        "cli.render_ms": incl("cli.render") * ms,
        "cli.self_ms": layer_self("cli") * ms,
        "depth.busy_ms": layer_self("depth") * ms,
        "picard.busy_ms": layer_self("picard") * ms,
        "bundle.busy_ms": layer_self("bundle") * ms,
        "bench.self_ms": layer_self("bench") * ms,
        "trace.wall_ms": wall * ms,
        "trace.overhead_ratio": wall / cycles / untraced_ns,
    }
    return m
