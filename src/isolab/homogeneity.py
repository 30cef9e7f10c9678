"""Elasticity and homogeneity verdicts, and cylinders lifted over a homogeneous family.

A one-parameter family is homogeneous exactly when its isoperimetric ratio
Q = A^d / V^(d-1) is constant; equivalently the change-of-variable curve
equals d V/A plus a constant, and V, A are powers of a common linear
dimension.  ``classify`` tests all three characterizations numerically;
``lift_cylinder`` builds its family only on a base that ``classify`` calls
homogeneous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calculus import InradiusCurve, _inradius, dr_ds, integrate
from .errors import DomainError
from .families import FamilySpec, evaluate, ratio, ratio_at, sample
from .inequalities import _log_ball_ratio, ball_ratio
from .records import Record, _e_notation, _frozen


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
    q_center = _median(q)
    q_rel_spread = float(np.abs(q - q_center).max() / q_center)

    # (i) r_quad(s) - d V/A constant
    r, _ = _inradius(family, float(grid[0]), 0.0, grid, v)
    offsets = r - d * v / a
    c_star = _median(offsets)
    res_i = float(np.abs(offsets - c_star).max())

    # (iii) phi = V^(1/d); A / phi^(d-1) constant
    k2 = a / v ** ((d - 1) / d)
    k2c = _median(k2)
    res_iii = float(np.abs(k2 - k2c).max() / k2c)

    floor = ball_ratio(d)
    if q_center < floor * (1.0 - 1e-9):
        shown = floor if floor < math.inf else _e_notation(_log_ball_ratio(d) / math.log(10.0))
        raise DomainError(
            f"isoperimetric ratio {q_center} below the ball floor {shown}; "
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


def _median(x: np.ndarray) -> float:
    """``np.median`` of a 1-D float array, bit for bit, from one partition at numpy's kth: the
    NaN that sorts last, or the middle values summed from 0.0, as numpy's mean sums them."""
    n = len(x)
    (part := x.copy()).partition([n // 2 - 1, n // 2, -1] if n % 2 == 0 else [n // 2, -1])
    if math.isnan(last := part.item(-1)):
        return last
    mid = part.item(n // 2)
    return 0.0 + mid if n % 2 else (0.0 + part.item(n // 2 - 1) + mid) / 2.0


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
    ac = _median(a)
    if np.abs(a - ac).max() / ac > rtol:
        return False
    r, _ = _inradius(family, float(grid[0]), 0.0, grid, v)
    diff = r - v / a
    spread = float(diff.max() - diff.min())
    scale = float(np.abs(r).max()) + 1e-30
    if spread > max(1e-8, 100.0 * rtol) * scale:
        raise DomainError(
            "A is constant but r - V/A failed to be constant; quadrature inconsistency"
        )
    return True


def lift_cylinder(
    base_family: FamilySpec,
    rho: Callable[[float], float],
    drho: Callable[[float], float] | None = None,
    rtol: float = 1e-8,
) -> FamilySpec:
    """Right cylinders over a homogeneous base family, height 2 rho(s).

    V_d = 2 V_{d-1} rho and A_d = 2 V_{d-1} + 2 A_{d-1} rho; the Tong
    inradius of the result is the (d)-variable symmetric harmonic mean of
    d-1 copies of the base inradius and rho.
    """
    lo, hi = base_family.interval
    width = min(hi - lo, 10.0) if math.isfinite(hi) else 10.0
    grid = np.linspace(lo + 0.05 * width, lo + 0.95 * width, 48)
    report = classify(base_family, grid, rtol=rtol)
    if not report.homogeneous:
        raise DomainError(
            f"base family {base_family.id!r} is not homogeneous at rtol={rtol} "
            f"(Q spread {report.q_rel_spread:.3e})"
        )

    vb, ab = base_family.volume, base_family.area
    new_dv = None
    if base_family.dvolume is not None and drho is not None:
        dvb = base_family.dvolume
        new_dv = lambda s: 2.0 * (dvb(s) * rho(s) + vb(s) * drho(s))
    return FamilySpec(
        id=f"{base_family.id}@cylinder",
        dimension=base_family.dimension + 1,
        domain=base_family.domain,
        volume=lambda s: 2.0 * vb(s) * rho(s),
        area=lambda s: 2.0 * vb(s) + 2.0 * ab(s) * rho(s),
        params=base_family.params,
        dvolume=new_dv,
    )
