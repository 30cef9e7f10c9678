"""Differentiation, quadrature, and the volume/area derivative relation.

The central object is the change-of-variable curve r(s) = C + integral of
V'(t)/A(t) from an anchor s0: along it dV/dr equals the surface area for any
smooth family, and the curve is unique up to the additive constant C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, IsolabError
from .families import FamilySpec, _array_call, _finite_positive, sample
from .records import Record, _frozen, csv_table

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-10
QUAD_PANEL_LIMIT = 200  # per grid segment; segments are capped elsewhere

# QUADPACK's qk15 (Piessens et al. 1983): the Kronrod nodes x > 0 on [-1, 1], the
# Kronrod weights of x and of 0, and the 7-point Gauss weights of x[1], x[3], x[5] and 0
_XK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
       0.5860872354676911, 0.4058451513773972, 0.20778495500789848)
_WK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
       0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189, 0.4179591836734694)
_NODES = np.array([*(-x for x in _XK), 0.0, *_XK[::-1]])
_WEIGHTS = np.zeros((15, 2))  # columns: Kronrod, Gauss
_WEIGHTS[:, 0] = [*_WK, *_WK[-2::-1]]
_WEIGHTS[1::2, 1] = [*_WG, *_WG[-2::-1]]


def _at_points(f: Callable, t: np.ndarray) -> np.ndarray:
    """f at each point of the 1-D float array t: one call with t where :func:`_array_call`
    keeps a finite answer, else one call per point with a float, as a loop makes."""
    with np.errstate(all="ignore"):
        y = _array_call(f, t, float)
    if y is not None and np.isfinite(y).all():
        return y
    return np.array([f(x) for x in t.tolist()])


# the most that a one-sided difference quotient may grow as its step halves: it grows
# by 2**(1 - p) for s**p near s = 0, and by about 1 + h |f''/f'| / 4 for a smooth f
_ONE_SIDED_GROWTH = 1.01


def derivative(f: Callable[[float], float], s, scale: float = 1.0,
               domain: tuple[float, float] = (-math.inf, math.inf)):
    """f' at a float s, or at each point of an array s: a difference quotient with one
    Richardson extrapolation level and step h = cbrt(machine eps) * max(|s|, scale).

    The quotient is central, or one-sided towards the inside where s - h or s + h
    leaves the open interval ``domain`` and the other side stays inside.  A
    :class:`DomainError` names the first s, in array order, where f is not real and
    finite on the stencil, or where the one-sided quotient grows by more than
    _ONE_SIDED_GROWTH as the step halves: f' is then unbounded at the domain end, as
    for s**p with p < 0.986 at 0.  A float s hands f floats and gives a float, and an
    :class:`IsolabError` names it where f raises; an array s hands f arrays of its
    shape, on which f must act elementwise, and lets f's exceptions through.
    """
    if not scale > 0:  # NaN fails too
        raise DomainError("scale must be positive")
    lo, hi = domain
    scalar, x = np.ndim(s) == 0, np.asarray(s, dtype=float)[()]  # a numpy float, not a 0-d array
    h = _CBRT_EPS * np.maximum(abs(x), scale)
    below, above = x - h <= lo, x + h >= hi
    one = below != above
    sided = np.count_nonzero(one)  # faster than .any(), also on a numpy bool
    # (f(s + t) - f(s - b)) / (t + b) errs by O(t**p), w the mean of t and b: central b = t,
    # p = 2; one-sided b = 0, p = 1, t inwards.  Bools act as 0 and 1: np.where makes 0-d arrays
    t = h * (1.0 - 2.0 * (above & one)) if sided else h
    b, w, p2 = (t * ~one, t * (1.0 - 0.5 * one), 4.0 - 2.0 * one) if sided else (t, t, 4.0)
    at = (lambda y: f(float(y))) if scalar else f
    try:
        with np.errstate(all="ignore"):  # a point where f is not real and finite is named
            full = (at(x + t) - at(x - b)) / (2.0 * w)
            half = (at(x + t / 2) - at(x - b / 2)) / w
            d = (p2 * half - full) / (p2 - 1.0)
            fails = ~np.isfinite(d)
            if np.iscomplexobj(d):  # a point is real where its imaginary part is 0
                fails, d = fails | (d.imag != 0), d.real
            grows = one & (np.abs(half) > _ONE_SIDED_GROWTH * np.abs(full)) if sided else one
    except Exception as exc:  # evaluation failure inside the stencil
        if not scalar:
            raise
        raise IsolabError(f"function evaluation failed near s={s}: {exc}") from exc
    bad = fails | grows
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        s, h, at_lo, sided, fails = (np.ravel(a)[i].item() for a in (x, h, below, one, fails))
        if fails:
            step = "+" if at_lo and sided else "-" if sided else "+-"
            raise DomainError(f"f is not real and finite on the stencil s {step} {h:.3g} at s={s}")
        raise DomainError(f"the derivative of f is not real and finite at the domain end "
                          f"{lo if at_lo else hi}: its one-sided differences from s={s} "
                          "grow as the step shrinks")
    return float(d) if scalar else d


@dataclass(frozen=True, eq=False)
class InradiusCurve(Record):
    """Sampled change-of-variable curve r(s), anchored at r(s0) = C, with V and A at its
    points outside the JSON and CSV forms; ``==`` is identity: arrays have no single truth value."""

    family_id: str
    anchor_s0: float
    anchor_value_C: float
    samples: np.ndarray  # (m, 2)
    quadrature_error_estimate: float
    v: np.ndarray = field(repr=False)  # (m,)
    a: np.ndarray = field(repr=False)  # (m,)

    def __post_init__(self):
        try:
            samples, v, a = (_frozen(x) for x in (self.samples, self.v, self.a))
        except (TypeError, ValueError) as exc:  # ragged or not numbers
            raise DomainError(f"curve samples, v and a must be float arrays: {exc}") from None
        if samples.shape[1:] != (2,) or not v.shape == a.shape == samples.shape[:1]:
            raise DomainError(f"curve samples, v and a must be of shapes (m, 2), (m,) and (m,), "
                              f"not {samples.shape}, {v.shape} and {a.shape}")
        if not _finite_positive(v, a).all():
            raise DomainError("curve v and a must be finite and positive")
        for name, x in (("samples", samples), ("v", v), ("a", a)):
            object.__setattr__(self, name, x)

    @property
    def s(self) -> np.ndarray:
        return self.samples[:, 0]

    @property
    def r(self) -> np.ndarray:
        return self.samples[:, 1]

    def to_csv(self) -> str:
        return csv_table(("s", "r"), self.samples)


def integrate(f: Callable[[float], float], a, b) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f from a[i] to b[i] (either way round), and their error estimates.

    Each round applies the 15-point Gauss-Kronrod rule to every open piece at
    once and halves the pieces whose |K - G| exceeds their share (half per
    halving) of the segment's max(QUAD_ABS_TOL, QUAD_REL_TOL |K|).  The nodes
    never touch a piece's ends.  Each round calls f once with all its nodes in
    a 1-D float array; f must act elementwise, or raise or return another shape
    to be called once per node with a float.  More than QUAD_PANEL_LIMIT pieces
    in a segment raise :class:`ConvergenceError`; unpaired or non-finite ends
    raise :class:`DomainError`.
    """
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    if a.ndim != 1 or a.shape != b.shape:
        raise DomainError(f"a and b must be 1-D of one length, not {a.shape} and {b.shape}")
    if not np.isfinite(ends := np.concatenate([a, b])).all():
        raise DomainError(f"integration end {ends[~np.isfinite(ends)][0]} is not finite")
    n = len(a)
    total, err, pieces = np.zeros(n), np.zeros(n), np.ones(n, dtype=int)
    seg, lo, hi, share = np.arange(n), a, b, np.ones(n)
    while len(seg):
        half = (hi - lo) / 2.0
        nodes = (lo + half)[:, None] + half[:, None] * _NODES
        fx = _at_points(f, nodes.ravel()).reshape(-1, 15)
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite f fails its test
            k, g = (fx @ _WEIGHTS).T * half
            e = np.abs(k - g)
            tol = np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(total + np.bincount(seg, k, n)))
        done = e <= share * tol[seg]  # NaN fails, so keeps halving up to the cap
        np.add.at(total, seg[done], k[done])
        np.add.at(err, seg[done], e[done])
        keep = ~done
        np.add.at(pieces, seg[keep], 1)
        if (pieces > QUAD_PANEL_LIMIT).any():
            i = int(np.argmax(pieces > QUAD_PANEL_LIMIT))
            raise ConvergenceError(f"quadrature over ({a[i]}, {b[i]}) missed its tolerance "
                                   f"within {QUAD_PANEL_LIMIT} pieces")
        mid = lo[keep] + half[keep]
        seg, share = (np.concatenate([x, x]) for x in (seg[keep], share[keep] / 2.0))
        lo, hi = np.concatenate([lo[keep], mid]), np.concatenate([mid, hi[keep]])
    return total, err


def dr_ds(family: FamilySpec) -> Callable[[float], float]:
    """The integrand V'(s)/A(s) of the change-of-variable curve r(s)."""
    lo, hi = family.interval
    dv = family.dvolume
    if dv is None:
        scale = (hi - lo) / 2.0 if math.isfinite(hi) else max(lo, 1.0)
        dv = lambda t: derivative(family.volume, t, scale, (lo, hi))
    return lambda t: dv(t) / family.area(t)


def _require_ordered(x: np.ndarray, message: str = "grid must be strictly ordered") -> None:
    d = x[1:] - x[:-1]
    if not ((d > 0).all() or (d < 0).all()):
        raise DomainError(message)


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
    :class:`ConvergenceError`.  Without ``dvolume``, V' within one step of a
    domain end comes from the one-sided stencil of :func:`derivative`, off by
    about 1e-7 relative where V'' is unbounded, which the error estimate omits.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 2:
        raise DomainError("grid must contain at least 2 points")
    v, a = sample(family, grid)
    r, err = _inradius(family, s0, C, grid, v)
    return InradiusCurve(family.id, float(s0), float(C), np.column_stack([grid, r]), err, v, a)


def _inradius(family: FamilySpec, s0: float, C: float, grid, v) -> tuple[np.ndarray, float]:
    """r and the error estimate of :func:`inradius_by_quadrature`, given its grid and V."""
    _require_ordered(grid)
    sign_v = np.sign(v[1:] - v[:-1])
    lo, hi = family.interval
    if not (lo <= s0 < hi):
        raise DomainError(f"anchor s0={s0} outside domain [{lo}, {hi})")
    if not ((sign_v > 0).all() or (sign_v < 0).all()):
        raise ConvergenceError(
            f"V is not strictly monotone over the grid of family {family.id!r}; "
            "split the domain with monotone_partition first"
        )

    # the knots, np.unique of s0 and the grid: the grid ascending, with s0 put in unless held
    knots = grid if grid[0] < grid[-1] else grid[::-1]
    if (i := int(knots.searchsorted(s0))) == len(knots) or knots[i] != s0:
        knots = np.concatenate([knots[:i], [s0], knots[i:]])
    # cumulative integration over the knots, then shifted to vanish at the anchor knots[i]
    segments, errors = integrate(dr_ds(family), knots[:-1], knots[1:])
    cumulative = np.concatenate([[0.0], segments.cumsum()])
    vals = cumulative - cumulative[i]
    r = float(C) + vals[knots.searchsorted(grid)]
    if (np.sign(r[1:] - r[:-1]) != sign_v).any():
        raise ConvergenceError("r(s) failed to track the monotonicity of V(s)")
    return r, float(errors.sum())


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
    """Check dV/dr = A along the curve of ``family`` (by id; :class:`DomainError` if not),
    with the V and A it holds, by differencing V against r; no evaluator is called.

    The slope at the centre c of each sliding 7-point window is that of the
    degree-6 polynomial interpolating V there, so smooth families pass at
    tight tolerances on moderate grids.  It is row c of the barycentric
    differentiation matrix applied to V - V_c (Berrut & Trefethen,
    "Barycentric Lagrange Interpolation", SIAM Review 46, 2004): the sum over
    j != c of (w_j / w_c) (V_j - V_c) / (r_c - r_j), with the weights
    w_j = 1 / prod over k != j of (t_j - t_k) taken in t = (r - r_c) / h, h
    the window's width, so that they neither overflow nor underflow; all windows at
    once.  A :class:`DomainError` names the first sample whose s or r is not finite, or
    whose r repeats an earlier one."""
    if family.id != curve.family_id:
        raise DomainError(f"curve of {curve.family_id!r} does not belong to family {family.id!r}")
    if len(curve.samples) < 8:
        raise DomainError("curve must cover at least 8 samples")
    if not rtol > 0:
        raise DomainError("rtol must be positive")
    s, r = curve.s, curve.r
    bad = ~(np.isfinite(s) & np.isfinite(r))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"curve sample {i} (s={s[i]}, r={r[i]}) is not finite")
    order = r.argsort(kind="stable")
    repeats = order[1:][r[order[1:]] == r[order[:-1]]]
    if len(repeats):
        i = int(repeats.min())
        raise DomainError(f"curve sample {i} (s={s[i]}) repeats the value r={r[i]}")
    a = curve.a[3:-3]
    devs = np.abs(_centre_slopes(r, curve.v) - a) / np.abs(a)
    worst = float(devs.max())
    return DerivativeRelationReport(
        family_id=family.id,
        max_relative_deviation=worst,
        rtol=float(rtol),
        passes=worst <= rtol,
        n_checked=len(devs),
    )


def _centre_slopes(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dV/dr at the centre of each window of 7 samples; r must not repeat a value."""
    # row j of these (7, windows) arrays holds sample j of every window
    rw, vw = (np.array([x[j:len(x) - 6 + j] for j in range(7)]) for x in (r, v))
    t = (rw - rw[3]) / np.abs(rw[-1] - rw[0])
    gaps = t - t[:, None]  # gaps[k, j] = t_j - t_k
    gaps[range(7), range(7)] = 1.0
    p = gaps.prod(axis=0)  # 1 / w
    dr = rw[3] - rw
    dr[3] = 1.0  # the centre's term is 0 / 1
    return (p[3] / p * (vw - vw[3]) / dr).sum(axis=0)


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
    flo, fhi = family.interval
    lo, hi = new_domain
    if not lo < hi:
        raise DomainError(f"empty reparameterized domain ({lo}, {hi})")
    span = (hi - lo) if math.isfinite(hi) else 10.0
    probe = np.linspace(lo + 1e-6 * span, min(hi, lo + span) - 1e-6 * span, 64)
    imgs = np.array([phi(t) for t in probe])
    _require_ordered(imgs, "phi is not strictly monotone on the sampled domain")
    if (imgs <= flo).any() or (imgs >= fhi).any():
        raise DomainError("phi maps outside the family domain")

    dv = family.dvolume
    new_dv = None if dv is None or dphi is None else lambda s: dv(phi(s)) * dphi(s)
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
    gaps rather than reported as branches.  The grid is strictly ordered,
    either way, and the intervals follow it; v gets it as one float array,
    as :func:`integrate` gives f its nodes, and must be real and finite on it.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 16:
        raise DomainError("grid must have at least 16 points")
    if not refine_tol > 0:
        raise DomainError("refine_tol must be positive")
    _require_ordered(grid)
    vals = _at_points(v, grid)
    bad = ~np.isfinite(vals) | (vals.imag != 0)
    if bad.any():
        raise DomainError(f"v is not real and finite at grid point {grid[np.argmax(bad)]}")
    slopes = np.sign(vals.real[1:] - vals.real[:-1])
    intervals: list[tuple[float, float]] = []
    start, cur = grid[0], slopes[0]
    for i in range(1, len(slopes)):
        if slopes[i] == cur:
            continue
        if slopes[i] == 0 and i + 1 < len(slopes) and slopes[i + 1] == -cur:
            continue  # one zero slope between opposite ones: the turning point refined next
        if cur == 0 or slopes[i] == 0:
            # a constant stretch is a gap: a branch ends where v stops changing,
            # and the next starts where its slope resumes
            bp = grid[i]
        else:  # refine the turning point inside (grid[i-1], grid[i+1]), in the grid's direction
            a, b = grid[i - 1], grid[i + 1]
            while abs(b - a) > refine_tol:
                m, h = 0.5 * (a + b), (b - a) / 8.0
                if (v(m + h) - v(m - h)) * cur > 0:  # the slope at m still has the sign cur
                    a = m
                else:
                    b = m
            bp = 0.5 * (a + b)
        if cur != 0:
            intervals.append((float(start), float(bp)))
        start, cur = bp, slopes[i]
    if cur != 0:
        intervals.append((float(start), float(grid[-1])))
    return intervals
