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

import importlib

__version__ = "0.1.0"

__all__ = [
    "classify", "cli", "covergraphs", "jsontext", "orbiscroll", "parity",
    "recillas", "resolve", "__version__",
]


def __getattr__(name: str):
    # Submodules load on first use (PEP 562), so importing one module, or
    # the package itself, does not pay for the other seven.
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
