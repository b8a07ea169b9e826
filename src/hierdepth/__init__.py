"""Exact computation for hierarchical filtrations of split vector bundles.

The toolkit covers prime moduli (field), prime-field linear algebra (gf),
divisor-class lattices with intersection pairing (picard), split bundles
and their parser (bundle), depth formulas with bounds and transfer laws
(depth), transform chains (curve) and elementary transforms (hecke)
on the line, block evaluation codes with exact minimum distance and
zero-block contraction (agcode), and a JSON command line (cli).

Each name is imported from the module that defines it, as in
`from hierdepth.agcode import build_code`. `import hierdepth` imports no
module; a module read as an attribute (`hierdepth.agcode`) is imported
on first access (PEP 562), so gf, hecke and agcode load numpy only when
first read.
"""

from importlib import import_module as _import_module


def __getattr__(name):
    # importing a submodule binds it on the package, so each is looked up
    # here only once
    try:
        return _import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as e:
        if e.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
