"""Graded homological algebra over complete intersection quotient rings.

The engine works with standard-graded polynomial rings S = k[x1..xn] over an
exact field (a prime field or the rationals), quotients R = S/(f1..fc) by
homogeneous regular sequences, and finitely presented graded modules over R.
On top of Groebner bases it provides minimal free resolutions, Betti tables,
complexity estimates, Tor and Ext profiles, depth/dimension/Serre-condition
predicates, pushforward and quasi-lifting constructions, and an instance-level
harness for a family of Tor-rigidity statements.
"""

__version__ = "0.1.0"

from .fields import PrimeField, RationalField, field_by_tag
from .polynomials import PolyRing, Polynomial
from .rings import RingPresentation
from .fmodules import ModulePresentation
from .resolutions import betti_table, complexity_estimate, detect_periodicity, resolve
from .homology import depth_formula_check, ext_profile, tor_profile
from .constructions import pushforward, quasi_lifting
from .theorems import check_theorem
from .search import SearchConfig, counterexample_search
from .catalog import run_example

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
