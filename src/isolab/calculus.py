"""Differentiation, quadrature, and the volume/area derivative relation.

The central object is the change-of-variable curve r(s) = C + integral of
V'(t)/A(t) from an anchor s0: along it dV/dr equals the surface area for any
smooth family, and the curve is unique up to the additive constant C.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, IsolabError
from .families import FamilySpec, Record, csv_table, sample

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-10
QUAD_PANEL_LIMIT = 200  # per grid segment; segments are capped elsewhere


def derivative(f: Callable[[float], float], s: float, scale: float = 1.0) -> float:
    """Central difference with one Richardson extrapolation level.

    Step h = cbrt(machine eps) * max(|s|, scale).
    """
    if scale <= 0:
        raise DomainError("scale must be positive")
    h = _CBRT_EPS * max(abs(s), scale)
    try:
        d1 = (f(s + h) - f(s - h)) / (2.0 * h)
        d2 = (f(s + h / 2.0) - f(s - h / 2.0)) / h
    except Exception as exc:  # evaluation failure inside the stencil
        raise IsolabError(f"function evaluation failed near s={s}: {exc}") from exc
    return (4.0 * d2 - d1) / 3.0


@dataclass(frozen=True)
class InradiusCurve(Record):
    """Sampled change-of-variable curve r(s), anchored at r(s0) = C."""

    family_id: str
    anchor_s0: float
    anchor_value_C: float
    samples: tuple[tuple[float, float], ...]  # ordered (s, r(s))
    quadrature_error_estimate: float

    @property
    def s(self) -> np.ndarray:
        return np.array([p[0] for p in self.samples])

    @property
    def r(self) -> np.ndarray:
        return np.array([p[1] for p in self.samples])

    def interpolate(self, s: float) -> float:
        """Cubic-interpolated r at s inside the sampled range."""
        ss, rr = self.s, self.r
        if ss[0] > ss[-1]:
            ss, rr = ss[::-1], rr[::-1]
        if not ss[0] <= s <= ss[-1]:
            raise DomainError(f"s={s} outside sampled range [{ss[0]}, {ss[-1]}]")
        from scipy.interpolate import CubicSpline

        return float(CubicSpline(ss, rr)(s))

    def to_csv(self) -> str:
        return csv_table(("s", "r"), self.samples)


def _integrand(family: FamilySpec) -> Callable[[float], float]:
    if family.dvolume is not None:
        dv = family.dvolume
    else:
        scale = _derivative_scale(family)
        dv = lambda t: derivative(family.volume, t, scale)
    return lambda t: dv(t) / family.area(t)


def _derivative_scale(family: FamilySpec) -> float:
    (lo, hi), = family.domain
    if math.isfinite(hi):
        return (hi - lo) / 2.0
    return max(lo, 1.0)


def inradius_by_quadrature(
    family: FamilySpec,
    s0: float,
    C: float,
    grid: Sequence[float],
) -> InradiusCurve:
    """Sample r(s) = C + integral from s0 to s of V'(t)/A(t) dt on ``grid``.

    The grid must be strictly ordered, either way, and lie inside the family
    domain; the samples keep its order.  s0 may sit at the lower endpoint
    when the integrand extends continuously (quadrature nodes never touch
    endpoints).  A segment whose quadrature misses its tolerance raises
    :class:`ConvergenceError`.
    """
    from scipy import integrate

    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise DomainError("grid must contain at least 2 points")
    d = np.diff(grid)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise DomainError("grid must be strictly ordered")
    sign_v = np.sign(np.diff(sample(family, grid)[0]))
    (lo, hi), = family.domain
    if not (lo <= s0 < hi):
        raise DomainError(f"anchor s0={s0} outside domain [{lo}, {hi})")
    if np.any(sign_v == 0) or len(set(sign_v)) > 1:
        raise ConvergenceError(
            f"V is not strictly monotone over the grid of family {family.id!r}; "
            "split the domain with monotone_partition first"
        )

    f = _integrand(family)
    # cumulative integration over the sorted knots, then shifted to vanish at the anchor
    knots = np.unique(np.concatenate([[s0], grid]))
    segments = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for a, b in zip(knots[:-1], knots[1:]):
            try:
                segments.append(integrate.quad(f, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL,
                                               limit=QUAD_PANEL_LIMIT))
            except integrate.IntegrationWarning as exc:  # scipy's message runs over lines
                reason = str(exc).strip().splitlines()[0]
                raise ConvergenceError(f"quadrature over ({a}, {b}) missed its tolerance: {reason}")
    cumulative = np.concatenate([[0.0], np.cumsum([seg for seg, _ in segments])])
    vals = cumulative - cumulative[np.searchsorted(knots, s0)]
    samples = tuple(
        (float(s), C + float(v)) for s, v in zip(grid, vals[np.searchsorted(knots, grid)])
    )
    err_total = sum(abs(err) for _, err in segments)

    if np.any(np.sign(np.diff([r for _, r in samples])) != sign_v):
        raise ConvergenceError("r(s) failed to track the monotonicity of V(s)")

    return InradiusCurve(
        family_id=family.id,
        anchor_s0=float(s0),
        anchor_value_C=float(C),
        samples=samples,
        quadrature_error_estimate=float(err_total),
    )


@dataclass(frozen=True)
class DerivativeRelationReport:
    family_id: str
    max_relative_deviation: float
    rtol: float
    passes: bool
    n_checked: int


def verify_derivative_relation(
    family: FamilySpec, curve: InradiusCurve, rtol: float
) -> DerivativeRelationReport:
    """Check dV/dr = A along the curve by differencing V against r.

    Uses a sliding 7-point local polynomial fit (degree 6), so smooth
    families pass at tight tolerances on moderate grids.  Each window is
    fitted in t = (r - r_c) / h, r_c its centre and h its width, and all
    windows' Vandermonde systems are solved in one batch.
    """
    if len(curve.samples) < 8:
        raise DomainError("curve must cover at least 8 samples")
    if not rtol > 0:
        raise DomainError("rtol must be positive")
    v, a = sample(family, curve.s)
    half = 3
    width = 2 * half + 1
    rw = np.lib.stride_tricks.sliding_window_view(curve.r, width)
    h = np.maximum(np.abs(rw[:, -1] - rw[:, 0]), 1e-300)
    t = (rw - rw[:, half:half + 1]) / h[:, None]
    vw = np.lib.stride_tricks.sliding_window_view(v, width)
    coeffs = np.linalg.solve(t[:, :, None] ** np.arange(width), vw[:, :, None])
    devs = np.abs(coeffs[:, 1, 0] / h - a[half:-half]) / np.abs(a[half:-half])
    worst = float(devs.max())
    return DerivativeRelationReport(
        family_id=family.id,
        max_relative_deviation=worst,
        rtol=float(rtol),
        passes=worst <= rtol,
        n_checked=len(devs),
    )


def reparameterize(
    family: FamilySpec,
    phi: Callable[[float], float],
    new_domain: tuple[float, float],
    dphi: Callable[[float], float] | None = None,
) -> FamilySpec:
    """Compose the family with a strictly monotone map phi: E' -> E.

    The change-of-variable curve of the result equals r(phi(s)) up to an
    additive constant, so downstream quantities are representation-stable.
    """
    lo, hi = new_domain
    if not lo < hi:
        raise DomainError(f"empty reparameterized domain ({lo}, {hi})")
    span = (hi - lo) if math.isfinite(hi) else 10.0
    probe = np.linspace(lo + 1e-6 * span, min(hi, lo + span) - 1e-6 * span, 64)
    imgs = np.array([phi(t) for t in probe])
    diffs = np.diff(imgs)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise DomainError("phi is not strictly monotone on the sampled domain")
    (flo, fhi), = family.domain
    if np.any(imgs <= flo) or np.any(imgs >= fhi):
        raise DomainError("phi maps outside the family domain")

    new_dv = None
    if family.dvolume is not None and dphi is not None:
        base_dv = family.dvolume
        new_dv = lambda s: base_dv(phi(s)) * dphi(s)
    return FamilySpec(
        id=f"{family.id}@reparam",
        dimension=family.dimension,
        domain=(new_domain,),
        volume=lambda s: family.volume(phi(s)),
        area=lambda s: family.area(phi(s)),
        params=family.params,
        dvolume=new_dv,
    )


def monotone_partition(
    v: Callable[[float], float],
    grid: Sequence[float],
    refine_tol: float,
) -> list[tuple[float, float]]:
    """Maximal open subintervals of the grid span on which v is strictly monotone.

    Breakpoints between adjacent runs of opposite slope sign are refined by
    bisection on the sign of the finite-difference slope to width <=
    refine_tol.  Stretches where v is numerically constant are excluded as
    gaps rather than reported as branches.
    """
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 16:
        raise DomainError("grid must have at least 16 points")
    if not refine_tol > 0:
        raise DomainError("refine_tol must be positive")
    vals = np.array([v(g) for g in grid])
    slopes = np.sign(np.diff(vals))

    def local_slope_sign(m: float, h: float) -> float:
        dv = v(m + h) - v(m - h)
        return math.copysign(1.0, dv) if dv != 0.0 else 0.0

    intervals: list[tuple[float, float]] = []
    start = grid[0]
    cur = slopes[0]
    for i in range(1, len(slopes)):
        if slopes[i] == cur or slopes[i] == 0:
            continue
        if cur == 0:
            # constant stretch excluded as a gap; branch starts where slope resumes
            start = grid[i]
            cur = slopes[i]
            continue
        # refine the breakpoint inside (grid[i-1], grid[i+1])
        a, b = grid[i - 1], grid[i + 1]
        while b - a > refine_tol:
            m = 0.5 * (a + b)
            if local_slope_sign(m, (b - a) / 8.0) == cur:
                a = m
            else:
                b = m
        bp = 0.5 * (a + b)
        if cur != 0:
            intervals.append((float(start), float(bp)))
        start = bp
        cur = slopes[i]
    if cur != 0:
        intervals.append((float(start), float(grid[-1])))
    return intervals
