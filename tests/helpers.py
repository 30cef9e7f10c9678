"""Helpers that only the tests use: a checked isoperimetric ratio, a support
function, a harmonic mean, two polygon constructors, every built-in and
the one-parameter ones on sample grids, a family over an interval unbounded
below, two references for the windowed slopes of
``calculus.verify_derivative_relation``, one for the root that
``search.solve_coordinate`` picks from its scan, the one-start
Nelder-Mead that the tests compare with SciPy's, ``calculus.integrate`` as it was
written with one call of f per round, and the loop of ``calculus.monotone_partition``
over every slope of its grid."""

import math
from typing import Callable, Sequence

import numpy as np

from isolab import calculus, families, search
from isolab.errors import ConvergenceError, DomainError
from isolab.families import ratio
from isolab.polytope import StarPolyhedron


def isoperimetric_ratio(d: int, v: float, a: float) -> float:
    """Q = A^d / V^(d-1); scale-invariant, minimized by balls at d^d * kappa_d."""
    if d < 2:
        raise DomainError("d must be >= 2")
    if v <= 0 or a <= 0:
        raise DomainError("V and A must be positive")
    return ratio(d, v, a)


def support_function(vertices: np.ndarray, u: np.ndarray) -> float:
    """h(u) = max over the vertex set of x . u, for unit u."""
    vertices = np.asarray(vertices, dtype=float)
    u = np.asarray(u, dtype=float)
    if vertices.size == 0:
        raise DomainError("empty vertex set")
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise DomainError("u must be a unit vector")
    return float(np.max(vertices @ u))


def symmetric_harmonic_mean(values: Sequence[float]) -> float:
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0):
        raise DomainError("harmonic mean needs positive values")
    return len(values) / float(np.sum(1.0 / values))


def regular_polygon(n: int, circumradius: float = 1.0) -> StarPolyhedron:
    ang = 2.0 * math.pi * np.arange(n) / n
    verts = circumradius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    facets = tuple((i, (i + 1) % n) for i in range(n))
    return StarPolyhedron(2, verts, facets, np.zeros(2))


def square_polygon(side: float = 1.0) -> StarPolyhedron:
    verts = side * np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    facets = ((0, 1), (1, 2), (2, 3), (3, 0))
    return StarPolyhedron(2, verts, facets, np.array([side / 2.0, side / 2.0]))


SQRT2 = math.sqrt(2.0)

# every one-parameter built-in, on a 48-point grid inside its domain
ALL_ONE_PARAM = [
    (families.builtin("cube"), np.linspace(0.5, 4.0, 48)),
    (families.builtin("disk"), np.linspace(0.5, 4.0, 48)),
    (families.builtin("ball"), np.linspace(0.5, 4.0, 48)),
    (families.builtin("rect_fixed_length", a=1.0), np.linspace(0.5, 4.0, 48)),
    (families.builtin("rect_similar", k=0.5), np.linspace(0.5, 4.0, 48)),
    (families.builtin("hexagon_120"), np.linspace(0.2, 3.0, 48)),
    (families.builtin("ngon", n=5), np.linspace(0.5, 4.0, 48)),
    (families.rhombus_branches(1.0)[0], np.linspace(0.08, SQRT2 - 0.08, 48)),
    (families.rhombus_branches(1.0)[1], np.linspace(SQRT2 + 0.04, 1.96, 48)),
]


# every built-in, at its default parameters
ALL_BUILTINS = [families.builtin(fid) for fid in families._BUILTINS]

# squares of side -s over (-inf, 0), without dvolume: homogeneous, Q = 16, r = -s / 2
NEG_SQUARES = families.FamilySpec(id="neg_squares", dimension=2, domain=((-math.inf, 0.0),),
                                  volume=lambda s: s * s, area=lambda s: -4.0 * s)


def vandermonde_slopes(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """dV/dr at the centre of each window of 7 consecutive samples: the linear
    coefficient of the degree-6 polynomial through the window, solved from its
    Vandermonde system in t = (r - r_c) / h, h the window's width."""
    half, width = 3, 7
    rw = np.lib.stride_tricks.sliding_window_view(r, width)
    vw = np.lib.stride_tricks.sliding_window_view(v, width)
    h = np.abs(rw[:, -1] - rw[:, 0])
    t = (rw - rw[:, half:half + 1]) / h[:, None]
    coeffs = np.linalg.solve(t[:, :, None] ** np.arange(width), vw[:, :, None])
    return coeffs[:, 1, 0] / h


def window_slopes(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``calculus._centre_slopes`` as it was written on ``sliding_window_view``: the
    barycentric slope at the centre of each window of 7 samples, all windows at once."""
    rw, vw = np.lib.stride_tricks.sliding_window_view(np.stack([r, v]), len(r) - 6, axis=1)
    t = (rw - rw[3]) / np.abs(rw[-1] - rw[0])
    gaps = t - t[:, None]
    gaps[range(7), range(7)] = 1.0
    p = gaps.prod(axis=0)
    dr = rw[3] - rw
    dr[3] = 1.0
    return (p[3] / p * (vw - vw[3]) / dr).sum(axis=0)


def all_brackets_root(ts, vals, g, j, s):
    """The root ``search.solve_coordinate`` returns from the scan values ``vals``
    of g at ``ts``, found as it was with a Python loop over the scan pairs:
    every bracket refined by ``search.brentq``, then the smallest root.  Raises
    the error the solve raises where none is left."""
    roots, nan_error = [], None
    for i in range(len(ts) - 1):
        a, b = vals[i], vals[i + 1]
        if math.isnan(a) or math.isnan(b):
            continue
        if a == 0.0:
            roots.append(float(ts[i]))
        elif a * b < 0:
            try:
                roots.append(search.brentq(g, ts[i], ts[i + 1]))
            except DomainError as exc:
                nan_error = nan_error or exc
    if not roots:
        if nan_error is not None:
            raise nan_error
        raise DomainError(
            f"no root of Q=k for coordinate {j} at s={s}; scanned ({ts[0]}, {ts[-1]}) "
            "(s may be outside the feasible parameter interval)"
        )
    return min(roots)


def nelder_mead(f: Callable[[np.ndarray], float], x0, xatol: float, fatol: float):
    """Minimize f from x0 as ``search._lockstep`` runs one start, with f
    called once per point, on a copy; returns (x, f(x), evaluations), each
    bit-identical to SciPy 1.17's Nelder-Mead with maxiter = maxfev = 20000.
    f is also called at points SciPy does not evaluate, which the count leaves out."""
    x0 = np.array(x0, dtype=float).ravel()
    x, fun, calls = search._lockstep(lambda z: np.array([f(p.copy()) for p in z], dtype=float),
                                     x0[None], xatol, np.array([fatol], dtype=float))
    return x[0], float(fun[0]), int(calls[0])


def reference_integrate(f: Callable[[float], float], a, b) -> tuple[np.ndarray, np.ndarray]:
    """``calculus.integrate`` as it was written round by round: each round calls f once
    with all its nodes (or once per node, if that answer is not a finite float array),
    under its own ``np.errstate``, and scatters every round's pieces into their segments
    by ``np.add.at``; the tests assert that ``integrate`` gives its bits."""
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
        t = ((lo + half)[:, None] + half[:, None] * calculus._NODES).ravel()
        with np.errstate(all="ignore"):
            y = families._array_call(f, t, float)
        if y is None or not np.isfinite(y).all():
            y = np.array([f(x) for x in t.tolist()])
        fx = y.reshape(-1, 15)
        with np.errstate(invalid="ignore", over="ignore"):
            k, g = (fx @ calculus._WEIGHTS).T * half
            e = np.abs(k - g)
            tol = np.maximum(calculus.QUAD_ABS_TOL,
                             calculus.QUAD_REL_TOL * np.abs(total + np.bincount(seg, k, n)))
        done = e <= share * tol[seg]
        np.add.at(total, seg[done], k[done])
        np.add.at(err, seg[done], e[done])
        keep = ~done
        np.add.at(pieces, seg[keep], 1)
        if (pieces > calculus.QUAD_PANEL_LIMIT).any():
            i = int(np.argmax(pieces > calculus.QUAD_PANEL_LIMIT))
            raise ConvergenceError(f"quadrature over ({a[i]}, {b[i]}) missed its tolerance "
                                   f"within {calculus.QUAD_PANEL_LIMIT} pieces")
        mid = lo[keep] + half[keep]
        seg, share = (np.concatenate([x, x]) for x in (seg[keep], share[keep] / 2.0))
        lo, hi = np.concatenate([lo[keep], mid]), np.concatenate([mid, hi[keep]])
    return total, err


def partition_every_slope(v: Callable, grid: np.ndarray, refine_tol: float) -> list:
    """``calculus.monotone_partition``'s intervals of v, an elementwise function real and
    finite on the grid, from its loop as it was written: one pass over every slope."""
    vals = v(grid)
    slopes = np.sign(vals[1:] - vals[:-1])
    intervals = []
    start, cur = grid[0], slopes[0]
    for i in range(1, len(slopes)):
        if slopes[i] == cur:
            continue
        if slopes[i] == 0 and i + 1 < len(slopes) and slopes[i + 1] == -cur:
            continue
        if cur == 0 or slopes[i] == 0:
            bp = grid[i]
        else:
            a, b = grid[i - 1], grid[i + 1]
            while abs(b - a) > refine_tol:
                m, h = 0.5 * (a + b), (b - a) / 8.0
                if (v(m + h) - v(m - h)) * cur > 0:
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
