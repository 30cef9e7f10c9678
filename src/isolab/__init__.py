"""Numerical toolkit for homogeneous shape families and isoperimetric geometry.

Submodules, each loaded on first use (``isolab.search``, ``from isolab import search``):
    families     -- built-in parametric region families and the registry
    calculus     -- differentiation, quadrature inradius curves, dV/dr = A
    homogeneity  -- classification, elasticity, constant-area check, cylinder lifting
    search       -- k_min over shape classes and level-set continuation
    polytope     -- star-like polyhedra, support functions, parallel bodies
    inequalities -- Tong inradius, isoperimetric deficit, Bonnesen-type inequalities
    cli          -- command-line interface
"""

import importlib

from .errors import CheckFailedError, ConvergenceError, DomainError, GeometryError, IsolabError

__version__ = "0.1.0"

_SUBMODULES = ("calculus", "cli", "families", "homogeneity", "inequalities", "polytope", "search")

__all__ = [
    *_SUBMODULES,
    "CheckFailedError",
    "ConvergenceError",
    "DomainError",
    "GeometryError",
    "IsolabError",
    "__version__",
]


def __getattr__(name: str):  # PEP 562: called only for a name not yet bound here
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES})
