"""Exact-arithmetic quiver Hecke algebras and their cyclotomic quotients.

The package constructs R(beta) from a symmetrizable Cartan datum, forms
cyclotomic quotients R^Lambda(beta), and machine-checks the structural
identities relating them (exact sequences of induction/restriction
bimodules, sl2 commutation, and graded dimension formulas against the
integrable highest weight module V(Lambda)).

Importing the package loads none of its submodules.  Each exported name
is imported from its submodule on first access (PEP 562), so a CLI
process, which imports this package before `cli`, loads only the modules
its command runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_EXPORTS = {
    "BasisMonomial": "klr",
    "CHECKS": "checks",
    "CartanDatum": "cartan",
    "CycAlgebra": "cyclotomic",
    "KLR": "klr",
    "LaurentPoly": "laurent",
    "QSpec": "qpolys",
    "UqModule": "uqmod",
    "Weight": "cartan",
    "build_cartan": "cartan",
    "get_engine": "klr",
    "run_all": "checks",
    "run_check": "checks",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
