"""Tong inradius, elasticity, and homogeneity verdicts.

A one-parameter family is homogeneous exactly when its isoperimetric ratio
Q = A^d / V^(d-1) is constant; equivalently the change-of-variable curve
equals d V/A plus a constant, and V, A are powers of a common linear
dimension.  ``classify`` tests all three characterizations numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import InradiusCurve, _inradius, _require_ordered, dr_ds, integrate
from .errors import DomainError
from .families import FamilySpec, Record, _frozen, evaluate, ratio, ratio_at, sample
from .inequalities import kappa


def tong_inradius(d: int, v: float, a: float) -> float:
    """r = d V / A, the distinguished linear dimension of a homogeneous family."""
    if v <= 0 or a <= 0:
        raise DomainError("V and A must be positive")
    return d * v / a


@dataclass(frozen=True, eq=False)  # == is identity: arrays have no single truth value
class HomogeneityReport(Record):
    family_id: str
    grid: np.ndarray
    q_values: np.ndarray  # Q at each grid point
    q_center: float
    q_rel_spread: float
    verdict: str  # "homogeneous" | "not_homogeneous"
    criterion_i_residual: float
    criterion_ii_residual: float
    criterion_iii_residual: float
    k_constant: float  # q_center again; kept because bench/workloads.py gates on it
    rtol: float
    rtol_margin: float  # rtol - q_rel_spread: homogeneous exactly when >= 0

    @property
    def homogeneous(self) -> bool:
        return self.verdict == "homogeneous"


def classify(family: FamilySpec, grid: Sequence[float], rtol: float = 1e-8) -> HomogeneityReport:
    """Three-way homogeneity classification over a sample grid.

    The verdict is driven by the relative spread of Q about its median, and
    ``rtol_margin`` is how far that spread lies within ``rtol``.  The
    other two characterizations are evaluated as cross-check residuals:
    (i) the quadrature curve minus d V/A is constant (offset fitted as the
    median), (ii) A^d is proportional to V^(d-1) with the fitted constant,
    (iii) A / V^((d-1)/d) is constant.  Residual (ii) is ``q_rel_spread``
    itself, kept under its own key.  Q is :func:`ratio` on the sampled arrays;
    :func:`ratio_at` names the first point where it overflows.
    """
    grid = _frozen(grid)  # the report keeps it
    if grid.size < 32:
        raise DomainError("classification grid must have at least 32 points")
    if not rtol > 0:
        raise DomainError("rtol must be positive")
    v, a = sample(family, grid)
    d = family.dimension
    with np.errstate(all="ignore"):
        q = _frozen(ratio(d, v, a))
    overflow = ~np.isfinite(q)
    if overflow.any():
        i = int(np.argmax(overflow))
        ratio_at(family, grid[i].item(), v[i].item(), a[i].item())  # raises, naming the point
    q_center = float(np.median(q))
    q_rel_spread = float(np.max(np.abs(q - q_center)) / q_center)

    # (i) r_quad(s) - d V/A constant
    _require_ordered(grid)
    r, _ = _inradius(family, float(grid[0]), 0.0, grid, v)
    offsets = r - d * v / a
    c_star = float(np.median(offsets))
    res_i = float(np.max(np.abs(offsets - c_star)))

    # (iii) phi = V^(1/d); A / phi^(d-1) constant
    k2 = a / v ** ((d - 1) / d)
    k2c = float(np.median(k2))
    res_iii = float(np.max(np.abs(k2 - k2c)) / k2c)

    floor = d**d * kappa(d)
    if q_center < floor * (1.0 - 1e-9):
        raise DomainError(
            f"isoperimetric ratio {q_center} below the ball floor {floor}; "
            "volume/area evaluators are inconsistent"
        )
    rtol_margin = float(rtol) - q_rel_spread
    return HomogeneityReport(
        family_id=family.id,
        grid=grid,
        q_values=q,
        q_center=q_center,
        q_rel_spread=q_rel_spread,
        verdict="homogeneous" if rtol_margin >= 0 else "not_homogeneous",
        criterion_i_residual=res_i,
        criterion_ii_residual=q_rel_spread,
        criterion_iii_residual=res_iii,
        k_constant=q_center,
        rtol=float(rtol),
        rtol_margin=rtol_margin,
    )


def elasticity(family: FamilySpec, curve: InradiusCurve, s: float) -> float:
    """Proportional volume change per proportional change of the curve variable.

    e = r(s) A(s) / V(s), r(s) = C + the integral of V'/A from the curve's anchor
    s0 to s (anywhere in the domain); it equals the dimension d exactly for
    homogeneous families and is anchor-dependent for non-homogeneous ones.
    """
    v, a = evaluate(family, s)
    r = curve.anchor_value_C + float(integrate(dr_ds(family), curve.anchor_s0, s)[0][0])
    if r <= 0:
        raise DomainError(
            f"r({s}) = {r} <= 0 for anchor C={curve.anchor_value_C}; "
            "elasticity is anchor-dependent, pick an anchor with positive r"
        )
    return r * a / v


def constant_area_check(family: FamilySpec, grid: Sequence[float], rtol: float = 1e-10) -> bool:
    """True iff A is constant on the grid; then r - V/A must also be constant."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 32:
        raise DomainError("grid must have at least 32 points")
    if not rtol > 0:
        raise DomainError("rtol must be positive")
    v, a = sample(family, grid)
    ac = float(np.median(a))
    if np.max(np.abs(a - ac)) / ac > rtol:
        return False
    _require_ordered(grid)
    r, _ = _inradius(family, float(grid[0]), 0.0, grid, v)
    diff = r - v / a
    spread = float(np.max(diff) - np.min(diff))
    scale = float(np.max(np.abs(r))) + 1e-30
    if spread > max(1e-8, 100.0 * rtol) * scale:
        raise DomainError(
            "A is constant but r - V/A failed to be constant; quadrature inconsistency"
        )
    return True
