"""Graded homological algebra over complete intersection quotient rings.

The engine works with standard-graded polynomial rings S = k[x1..xn] over an
exact field (a prime field or the rationals), quotients R = S/(f1..fc) by
homogeneous regular sequences, and finitely presented graded modules over R.
On top of Groebner bases it provides minimal free resolutions, Betti tables,
complexity estimates, Tor and Ext profiles, depth/dimension/Serre-condition
predicates, pushforward and quasi-lifting constructions, and an instance-level
harness for a family of Tor-rigidity statements.  A report value (the
regular-sequence certificate, a module profile, a Betti table, a complexity
estimate, a depth-formula check) is the JSON-ready dict the document prints.

Importing the package loads the engine and the catalog.  The constructions,
the statement harness and the searches load when one of their names is
first read from the package (``_DEFERRED``), so a command that runs none of
them does not load them.
"""

__version__ = "0.1.0"

import importlib

from .fields import PrimeField, RationalField, field_by_tag
from .polynomials import PolyRing, Polynomial
from .rings import RingPresentation
from .fmodules import ModulePresentation
from .resolutions import betti_table, complexity_estimate, detect_periodicity, resolve
from .homology import depth_formula_check, ext_profile, tor_profile
from .catalog import run_example

# Public names whose module loads on first access: name -> module.
_DEFERRED = {"pushforward": "constructions", "quasi_lifting": "constructions",
             "check_theorem": "theorems", "SearchConfig": "search",
             "counterexample_search": "search"}


def __getattr__(name):
    """A deferred name, read from its module on every access (PEP 562)."""
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_DEFERRED[name]}"), name)

__all__ = [
    "PrimeField",
    "RationalField",
    "field_by_tag",
    "PolyRing",
    "Polynomial",
    "RingPresentation",
    "ModulePresentation",
    "resolve",
    "betti_table",
    "complexity_estimate",
    "detect_periodicity",
    "tor_profile",
    "ext_profile",
    "depth_formula_check",
    "pushforward",
    "quasi_lifting",
    "check_theorem",
    "SearchConfig",
    "counterexample_search",
    "run_example",
    "__version__",
]
