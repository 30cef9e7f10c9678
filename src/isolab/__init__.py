"""Numerical toolkit for homogeneous shape families and isoperimetric geometry.

Submodules:
    families     -- built-in parametric region families and the registry
    calculus     -- differentiation, quadrature inradius curves, dV/dr = A
    homogeneity  -- Tong inradius, classification
    search       -- k_min over shape classes and level-set continuation
    polytope     -- star-like polyhedra, support functions, parallel bodies
    inequalities -- isoperimetric deficit and Bonnesen-type inequalities
    cli          -- command-line interface
"""

from . import calculus, families, homogeneity, inequalities, polytope, search
from .errors import (
    CheckFailedError,
    ConvergenceError,
    DomainError,
    GeometryError,
    IsolabError,
)

__version__ = "0.1.0"

__all__ = [
    "calculus",
    "families",
    "homogeneity",
    "inequalities",
    "polytope",
    "search",
    "CheckFailedError",
    "ConvergenceError",
    "DomainError",
    "GeometryError",
    "IsolabError",
    "__version__",
]
