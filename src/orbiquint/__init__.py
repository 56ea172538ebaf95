"""Exact boundary arithmetic for the plane-quintic locus in genus 6.

Modules:
  orbiscroll  -- adjunction, branch relation and coarse singularities of
                 orbifold Hirzebruch scrolls
  resolve     -- Hirzebruch-Jung resolution and diagram blow-downs
  covergraphs -- admissible-cover dual-graph enumeration
  recillas    -- the tetragonal-trigonal permutation correspondence
  parity      -- theta-characteristic parity bookkeeping
  classify    -- table and boundary-divisor assembly
  jsontext    -- the one indented JSON writer
  cli         -- command-line front end
"""

import sys

__version__ = "0.1.0"

__all__ = [
    "classify", "cli", "covergraphs", "jsontext", "orbiscroll", "parity",
    "recillas", "resolve", "__version__",
]


def __getattr__(name: str):
    # Submodules load on first use (PEP 562), so importing one module, or
    # the package itself, does not pay for the other seven.  __import__,
    # unlike importlib.import_module, goes through the import statement's
    # path, so `python -X importtime` logs the module.
    if name in __all__:
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
