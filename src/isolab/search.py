"""Minimizing the isoperimetric ratio over shape classes and tracing its level sets.

Each shape class exposes Q(x) = A(x)^d / V(x)^(d-1) over a box of parameters.
``kmin`` estimates inf Q over a class, with x1 pinned to 1 when the class
declares a homogeneous prefix, by golden-section search in one coordinate and
multistart simplex search in more (reporting boundary infima as unattained),
and ``trace_level_set`` follows a curve on the hypersurface Q(x) = k by
predictor-corrector continuation (every such curve is a homogeneous
one-parameter family).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConvergenceError, DomainError
from .families import (FamilySpec, _evaluate_batch, _finite_positive, builtin, evaluate, ratio,
                       ratio_at)
from .records import Record, csv_table

_SQRT_EPS = float(np.finfo(float).eps) ** 0.5

BOUNDARY_REL_TOL = 1e-6
TOL_MIN = 1e-15  # a kmin tol below the rounding level of Q can never be met
_GOLDEN_MAX_STEPS = 2000  # shrinks any finite bracket below TOL_MIN
_GOLDEN = (3.0 - math.sqrt(5.0)) / 2.0  # 0.382..., the golden-section fraction
PREFIX_START_BOX = (0.3, 3.0)  # where kmin starts x_i / x_1 for 2 <= i <= m
_NM_MAX_EVALS = 20000  # Nelder-Mead's cap on evaluations, and on iterations
_BRENT_MAX_STEPS, _BRENT_XTOL, _BRENT_RTOL = 100, 1e-15, 8.9e-16  # rtol: 4 eps, rounded up
STEP_MIN = 1e-6
STEP_MAX = 1e-1


def ratio_function(nfamily: FamilySpec) -> Callable[[np.ndarray], float]:
    """Q at the search vector: ``ratio_at`` on ``evaluate``, the one check of a point;
    +inf where either raises :class:`DomainError` (keeps the simplex feasible)."""

    def q(x: np.ndarray) -> float:
        try:
            return ratio_at(nfamily, x, *evaluate(nfamily, x))
        except DomainError:
            return math.inf

    return q


@dataclass(frozen=True)
class KminResult(Record):
    class_id: str
    kmin: float
    argmin: tuple[float, ...]
    attained: bool
    multistart_count: int


def latin_hypercube(n: int, d: int, seed: int) -> np.ndarray:
    """n points of a random Latin hypercube in (0, 1]^d (McKay et al. 1979).

    Each column puts exactly one point in each of the n strata (i/n, (i+1)/n],
    at a uniform offset inside it.  The draws follow
    SciPy's ``stats.qmc.LatinHypercube(d=d, seed=seed).random(n)`` step for
    step, so the points are bit-identical to SciPy's.
    """
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(size=(n, d))
    strata = np.tile(np.arange(1, n + 1), (d, 1))
    for row in strata:
        rng.shuffle(row)
    return (strata.T - offsets) / n


@np.errstate(all="ignore")  # one block a call: overflowing Q is inf, not a warning
def kmin(nfamily: FamilySpec, starts: int = 16, tol: float = 1e-10, seed: int = 0) -> KminResult:
    """Minimize Q over the class domain from ``starts`` Latin-hypercube points.

    Q does not change when the homogeneous prefix is scaled, so a class that
    declares one is searched over x2, ..., xn with x1 pinned to 1, and its
    argmin is reported with x1 = 1.  With one parameter and a prefix,
    Q is constant and is evaluated once, at x = 1.  With one coordinate left
    to search, the sorted start points are scanned and the best one refined
    by golden-section search; with two or more, the starts run Nelder-Mead
    in lockstep (:func:`_lockstep`), each as SciPy would run it alone, in one
    batch of Q a round, 4 points a start.

    The minimum is ``attained`` when all 2n points x +- BOUNDARY_REL_TOL *
    (|x_i| + 1) e_i around the best point x are inside the class by
    :meth:`FamilySpec.contains` and golden-section search, where it ran, found
    Q rising on its outward steps; otherwise it is a boundary infimum, or one at infinity.
    """
    if starts < 8:
        raise DomainError("starts must be >= 8")
    if not tol >= TOL_MIN:
        raise DomainError(f"tol must be >= {TOL_MIN:g}")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    best_x, best_f, bounded = _minimize(nfamily, starts, tol, seed)
    if not math.isfinite(best_f):
        raise ConvergenceError(f"all {starts} starts failed for class {nfamily.id!r}")

    nudges = np.diag(BOUNDARY_REL_TOL * (np.abs(best_x) + 1.0))
    return KminResult(
        class_id=nfamily.id,
        kmin=float(best_f),
        argmin=tuple(float(v) for v in best_x),
        attained=bounded and all(nfamily.contains(x)
                                 for x in (*(best_x + nudges), *(best_x - nudges))),
        multistart_count=starts,
    )


def _minimize(
    nfamily: FamilySpec, starts: int, tol: float, seed: int
) -> tuple[np.ndarray, float, bool]:
    """The least Q found, where, and whether the search stayed bounded; Q is
    +inf when every start failed.

    With a prefix, x2..xn are searched at x1 = 1 and x2..xm start in
    ``PREFIX_START_BOX``."""
    q = ratio_function(nfamily)
    n, m = nfamily.nparams, nfamily.homogeneous_prefix_m
    if m is not None and n == 1:  # a family of similar regions: Q is constant
        return np.ones(1), q(np.ones(1)), True
    first = 0 if m is None else 1  # the first searched coordinate

    def whole(z) -> np.ndarray:  # z is a float when one coordinate is searched
        x = np.empty(n)  # three times faster than np.append; this runs for every Q
        x[0] = 1.0
        x[first:] = z
        return x

    box = [PREFIX_START_BOX if i < (m or 0) else nfamily.sample_box[i] for i in range(first, n)]
    lows, highs = np.array(box, dtype=float).T
    points = lows + latin_hypercube(starts, n - first, seed) * (highs - lows)
    if n - first == 1:
        z, fz, bounded = _golden_section_search(
            lambda z: q(whole(z)), sorted(points[:, 0].tolist()), nfamily.domain[first], tol)
        return whole(z), fz, bounded

    def fs(z: np.ndarray) -> np.ndarray:  # Q at each row of z, as q gives it at whole(z)
        x = np.empty((n, len(z)))
        x[0] = 1.0
        x[first:] = z.T
        return _ratios(nfamily, x)

    z0 = points[[nfamily.contains(whole(z)) for z in points]]
    if not len(z0):
        return whole(points[0]), math.inf, True
    fatol = tol * np.maximum(np.abs(fs(z0)), 1.0)
    zs, fz, _ = _lockstep(fs, z0, tol, fatol)
    best = int(np.argmin(fz))  # the first start of least Q
    return whole(zs[best]), float(fz[best]), True


def _ratios(nfamily: FamilySpec, x: np.ndarray) -> np.ndarray:
    """Q at each column of the (n, m) array x, bit-equal to :func:`ratio_function` at
    each point: V and A from :func:`~isolab.families._evaluate_batch`, the one path of
    V and A at many points, then :func:`ratio` on the arrays, inf where a point is
    rejected or Q overflows."""
    with np.errstate(all="ignore"):  # one block over the evaluators, the masks and Q
        v, a, ok = _evaluate_batch(nfamily, x)
        q = ratio(nfamily.dimension, v, a)
    return np.where(ok & np.isfinite(q), q, math.inf)


def _golden_section_search(
    q: Callable[[float], float], xs: list[float], domain: tuple[float, float], tol: float
) -> tuple[float, float, bool]:
    """Minimize a function of one variable from the sorted scan points ``xs``.

    The best scan point and its two neighbours bracket the minimum.  At either
    end of the scan the bracket reaches the domain end on that side, or, where
    that end is infinite, steps outward, doubling the step while Q decreases.
    Golden-section search then shrinks the bracket a < x < b to
    ``b - a <= tol * max(1, |a| + |b|)``, one evaluation per step.  Returns
    x, Q(x) and whether the outward steps stayed bounded (see :func:`_expand`).
    """
    fs = [q(x) for x in xs]
    i = min(range(len(xs)), key=fs.__getitem__)
    x, fx = xs[i], fs[i]
    if not math.isfinite(fx):
        return x, fx, True
    a = xs[i - 1] if i > 0 else domain[0]
    b = xs[i + 1] if i < len(xs) - 1 else domain[1]
    bounded = True
    if math.isinf(a):
        b, x, fx, a, bounded = _expand(q, b, x, fx)
    elif math.isinf(b):
        a, x, fx, b, bounded = _expand(q, a, x, fx)
    # with tol >= TOL_MIN the stopping width spans several ulps, so rounding
    # cannot stall the search above it; the cap only guards that argument
    for _ in range(_GOLDEN_MAX_STEPS):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        # the new point goes into the larger part, at the golden fraction of it
        u = x - _GOLDEN * (x - a) if x - a > b - x else x + _GOLDEN * (b - x)
        fu = q(u)
        if fu < fx:
            a, b = (a, x) if u < x else (x, b)
            x, fx = u, fu
        elif u < x:
            a = u
        else:
            b = u
    return x, fx, bounded


def _expand(q: Callable[[float], float], inner: float, x: float, fx: float):
    """Step from x away from ``inner``, doubling the step while Q decreases.

    Returns (inner, x, fx, outer, bounded) with Q(x) below Q(inner) and at most
    Q(outer).  ``bounded`` is false, as for an infimum at infinity, when the
    next step would overflow (outer is then x itself) or Q(outer) == Q(x).
    """
    step = x - inner
    while True:
        u = x + step
        if not math.isfinite(u):
            return inner, x, fx, x, False
        fu = q(u)
        if not fu < fx:
            return inner, x, fx, u, fu != fx
        inner, x, fx = x, u, fu
        step *= 2.0


def _lockstep(fs: Callable[[np.ndarray], np.ndarray], x0: np.ndarray, xatol: float,
              fatol: np.ndarray) -> tuple[np.ndarray, ...]:
    """SciPy 1.17's Nelder-Mead (Nelder & Mead 1965), maxiter = maxfev =
    _NM_MAX_EVALS, from each row of the (S, n) array x0 at once, start s with
    the tolerances ``xatol`` and ``fatol[s]``; returns each start's x, f(x)
    and number of evaluations, each bit-identical to a SciPy run of it alone.

    The simplices of the running starts form one (k, n+1, n) array.  Each round
    drops the starts that have converged or reached a cap, forms each one's
    reflection and three second points (expansion, outside and inside
    contraction) as one (4, k, n) array, and takes each start's branch by masks
    and one gather.  ``fs`` gets all 4k points in one call, then any shrink
    points.  Each start counts only the evaluations SciPy makes, up to the cap;
    as in SciPy, a shrink cut short by the cap moves the vertex whose evaluation
    would pass it and leaves its f stale.  SciPy's cap on iterations, the same
    number, never stops a start first: each iteration costs at least one
    evaluation, and the first simplex n + 1.
    """
    count, n = x0.shape
    x_out, f_out, calls_out = np.empty((count, n)), np.empty(count), np.empty(count, dtype=int)
    # SciPy's a * xbar - (a - 1) * worst: a = 2 reflects, 3 expands, 1.5 and 0.5 contract
    # outside and inside, where a * xbar - (-0.5 * worst) rounds as its sum does
    a, a1 = np.array([[2.0, 3.0, 1.5, 0.5], [1.0, 2.0, 0.5, -0.5]])[:, :, None, None]
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    axes = np.arange(n)
    sim[:, axes + 1, axes] = np.where(x0 != 0, 1.05 * x0, 0.00025)
    fsim = fs(sim.reshape(-1, n)).reshape(count, n + 1)
    ids, calls, lanes = np.arange(count), np.full(count, n + 1), np.arange(count)
    most = n + 1  # no start has made more evaluations: a round makes at most n + 2
    order = fsim.argsort(axis=1)  # SciPy sorts the first simplex twice: argsort may reorder ties
    sim, fsim = sim[lanes[:, None], order], fsim[lanes[:, None], order]
    while True:
        # argsort along axis 1 sorts each row by itself, with numpy's 1-D sort,
        # so tied vertices fall in the order they take in a run of their start alone
        order = fsim.argsort(axis=1)
        sim, fsim = sim[lanes[:, None], order], fsim[lanes[:, None], order]
        # SciPy's test; each f row is sorted, so its largest |f0 - fj| is f[-1] - f0
        with np.errstate(invalid="ignore"):  # inf - inf where f0 is inf
            done = np.isfinite(fsim[:, 0]) & (fsim[:, -1] - fsim[:, 0] <= fatol)
        if np.count_nonzero(done):  # faster than .any() on a few starts; this runs every round
            done &= np.abs(sim[:, 1:] - sim[:, :1]).reshape(len(ids), -1).max(axis=1) <= xatol
        if most >= _NM_MAX_EVALS:
            done |= calls >= _NM_MAX_EVALS
        if np.count_nonzero(done):
            x_out[ids[done]], f_out[ids[done]] = sim[done, 0], fsim[done].min(axis=1)
            calls_out[ids[done]] = calls[done]
            if done.all():
                return x_out, f_out, calls_out
            ids, sim, fsim, calls, fatol = (v[~done] for v in (ids, sim, fsim, calls, fatol))
            lanes = lanes[:len(ids)]
        xbar = sim[:, 0]
        for j in range(1, n):  # vertex by vertex, as SciPy's sum over the vertices adds
            xbar = xbar + sim[:, j]
        xbar = xbar / n
        points = a * xbar - a1 * sim[:, -1]  # row 0 the reflections, then the second points
        # Q at all four points of each start, of which SciPy evaluates one or two
        f = fs(points.reshape(-1, n)).reshape(4, -1)
        fxr = f[0]
        expand, outside = fxr < fsim[:, 0], fxr < fsim[:, -1]
        reflect = ~expand & (fxr < fsim[:, -2])
        second = ~reflect  # unless the cap stops the step halfway
        if most + 1 >= _NM_MAX_EVALS:
            second &= calls + 1 < _NM_MAX_EVALS
        branch = 3 - expand - outside  # each start's second point: 1, 2 or 3
        calls += 1 + second
        f2 = f[branch, lanes]
        # expansion: the better of the two points; contraction: its point or a shrink
        take2 = second & np.where(expand, f2 < fxr, np.where(outside, f2 <= fxr, f2 < fsim[:, -1]))
        shrink = second & ~expand & ~take2
        swap = (reflect | second & expand | take2).nonzero()[0]  # the starts whose worst vertex goes
        pick = (branch * take2)[swap]  # the reflection, row 0, unless the second point is taken
        sim[swap, -1], fsim[swap, -1] = points[pick, swap], f[pick, swap]
        if np.count_nonzero(shrink):
            r = shrink.nonzero()[0]
            past = calls[r][:, None] + np.arange(1, n + 1) - _NM_MAX_EVALS  # > 0: past the cap
            moved, evaluated = past <= 1, past <= 0  # the first past the cap moves, unevaluated
            tail, ftail = sim[r, 1:], fsim[r, 1:]
            tail[moved] = (sim[r, :1] + 0.5 * (tail - sim[r, :1]))[moved]
            if evaluated.any():
                ftail[evaluated] = fs(tail[evaluated])
            sim[r, 1:], fsim[r, 1:] = tail, ftail
            calls[r] += evaluated.sum(axis=1)
        most += n + 2


def brentq(f: Callable[[float], float], a: float, b: float) -> float:
    """A root of f between a and b, where f changes sign, by Brent's method
    (Brent 1973, ch. 4), to within _BRENT_XTOL + _BRENT_RTOL |root|: SciPy's
    ``Zeros/brentq.c`` step for step, so bit-identical to SciPy's ``brentq``
    with those tolerances.  A NaN value of f is a :class:`DomainError`, and no
    convergence in _BRENT_MAX_STEPS steps a :class:`ConvergenceError`."""
    def fc(x: float) -> float:
        fx = float(f(x))  # as C reads it, so that x stays a float too
        if math.isnan(fx):
            raise DomainError(f"the function is NaN at {x}, inside the bracket [{a}, {b}]")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = fc(xpre), fc(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        raise DomainError(f"f({a}) and f({b}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_STEPS):
        if (fpre < 0) != (fcur < 0):  # the root is between xpre and xcur
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # make xcur the best point
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation promises a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # C's x / 0 is never a short step
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fc(xcur)
    raise ConvergenceError(f"Brent's method did not converge in {_BRENT_MAX_STEPS} steps")


def kmin_table(starts: int = 16, tol: float = 1e-10, seed: int = 0) -> list[dict]:
    """Reproduce the isoperimetric-ratio table over all built-in shape classes; each row is
    named by the ``class_id`` that :func:`kmin` reports for its class, such as ``ngon_5``."""
    rows: list[tuple[FamilySpec, float]] = [
        (builtin("triangle_sides"), 12.0 * math.sqrt(3.0)),
        (builtin("right_triangle"), 2.0 * (2.0 + math.sqrt(2.0)) ** 2),
        *((builtin("ngon", n=n), 4.0 * n * math.tan(math.pi / n)) for n in range(3, 13)),
        (builtin("box3"), 216.0),
        (builtin("cylinder"), 54.0 * math.pi),
        (builtin("cone"), 72.0 * math.pi),
        (builtin("square_pyramid"), 288.0),
        (builtin("ring_torus"), 16.0 * math.pi**2),
    ]
    out = []
    for nfam, analytic in rows:
        row = {"class_id": nfam.id, "analytic_kmin": analytic, "computed_kmin": None,
               "attained": None, "argmin": None, "error": None}
        try:
            result = kmin(nfam, starts=starts, tol=tol, seed=seed)
            row.update(computed_kmin=result.kmin, attained=result.attained,
                       argmin=list(result.argmin))
        except ConvergenceError as exc:
            row["error"] = str(exc)
        out.append(row)
    return out


@np.errstate(all="ignore")  # one block a call: overflowing Q is inf, not a warning
def solve_coordinate(
    nfamily: FamilySpec,
    k: float,
    fixed: Mapping[int, Callable[[float], float]],
    j: int,
    s: float,
) -> float:
    """Solve Q(x) = k for coordinate j, each other coordinate i given as the
    function ``fixed[i]`` of s; ``fixed`` holding j, or a value fixed outside
    its coordinate's open interval, is a :class:`DomainError`.

    A sign scan of 512 points over the coordinate interval (a grid built once per
    interval) calls each evaluator once on all of them as an (n, m) array, or, where
    one or ``feasible`` is not elementwise, :func:`evaluate` per point (:func:`_scan`).
    Neighbours whose product of signs is at most 0 are walked in scan order: a
    zero is a root, a sign change a bracket for :func:`brentq`; the first root
    found, the smallest, is returned and no later bracket is refined.  A bracket
    with a NaN inside is passed over; with no root left, the first such error is raised.
    """
    n = nfamily.nparams
    if not 0 <= j < n:
        raise DomainError(f"coordinate index {j} out of range for {n}-parameter class")
    outside = sorted(set(fixed) - set(range(n)))
    if outside:
        raise DomainError(f"fixed coordinates {outside} out of range for {n}-parameter class")
    if j in fixed:
        raise DomainError(f"coordinate {j} is the one solved for; it takes no fixed function")
    missing = set(range(n)) - {j} - set(fixed)
    if missing:
        raise DomainError(f"no functions given for coordinates {sorted(missing)}")
    q = ratio_function(nfamily)
    base = np.empty(n)
    for i, fn in fixed.items():
        base[i] = fn(s)
        lo, hi = nfamily.domain[i]
        if not lo < base[i] < hi:
            raise DomainError(f"fixed coordinate {i} is {base[i]} at s={s}, outside ({lo}, {hi})")

    def g(t: float) -> float:
        x = base.copy()
        x[j] = t
        val = q(x)
        return val - k if math.isfinite(val) else math.nan

    lo, hi = nfamily.domain[j]
    ts = _scan_grid(lo, hi if math.isfinite(hi) else max(100.0, 100.0 * nfamily.sample_box[j][1]))
    vals = _scan(nfamily, k, base, j, ts, g)

    # a zero at ts[i] is the root [ts[i], ts[i]], a strict sign change the bracket [ts[i], ts[i + 1]];
    # each makes the pair's product of signs (values can overflow) at most 0, and a NaN makes it NaN
    signs = np.sign(vals)
    nan_error = None
    for i in np.flatnonzero(signs[:-1] * signs[1:] <= 0).tolist():
        if vals[i] == 0.0:
            return ts.item(i)
        if vals[i + 1] != 0.0:  # a zero at ts[i + 1] is not this pair's root
            try:  # brentq stays inside its bracket, so the first root is the smallest
                return brentq(g, ts.item(i), ts.item(i + 1))
            except DomainError as exc:  # a NaN inside this bracket: a later one may hold a root
                nan_error = nan_error or exc
    raise nan_error or DomainError(
        f"no root of Q=k for coordinate {j} at s={s}; scanned ({ts[0]}, {ts[-1]}) "
        "(s may be outside the feasible parameter interval)")


@functools.lru_cache(maxsize=64)
def _scan_grid(lo: float, hi: float) -> np.ndarray:
    """The 512 read-only scan points of :func:`solve_coordinate` on (lo, hi), built once."""
    ts = np.linspace(lo + 1e-9 * (hi - lo), hi - 1e-9 * (hi - lo), 512)
    ts.setflags(write=False)
    return ts


def _scan(
    nfamily: FamilySpec, k: float, base: np.ndarray, j: int, ts: np.ndarray,
    g: Callable[[float], float],
) -> np.ndarray:
    """g at each scan point t of coordinate j, the others held at ``base``,
    with the signs and NaNs that calling g at each point gives.

    Q is :func:`ratio` of the V and A of one ``_evaluate_batch`` call; one ``np.where``
    on its ``ok`` gives Q - k, or NaN (as g) where a point is rejected or Q is not
    finite.  An evaluator that breaks the array rounding contract of :class:`FamilySpec`
    can move the last bits, so g is called again within 1e-12 |k| of the level, where V
    and A fail the value test and where Q overflows; not where only the interval or
    ``feasible`` masks reject, as they are g's own tests (``feasible``'s checked at build)."""
    rows = base[:, None].repeat(len(ts), axis=1)
    rows[j] = ts
    with np.errstate(all="ignore"):  # one block over the evaluators, Q and the values
        v, a, ok = _evaluate_batch(nfamily, rows)
        q = ratio(nfamily.dimension, v, a)
        vals = np.where(ok & (q < math.inf), q - k, math.nan)  # q is never below 0 where ok
    again = np.flatnonzero(~(np.abs(vals) > 1e-12 * abs(k)))  # NaN fails >
    if len(again):
        again = again[ok[again] | ~_finite_positive(v[again], a[again])]
    for i in again.tolist():
        vals[i] = g(ts[i])
    return vals


@dataclass(frozen=True)
class LevelSetCurve(Record):
    class_id: str
    k: float
    points: tuple[tuple[float, tuple[float, ...]], ...]  # (arclength s, x)
    q_values: tuple[float, ...]
    residuals: tuple[float, ...]
    # steps, gradient_zero, tangent_degenerate, left_domain or corrector_failed
    stop_reason: str
    halvings: int  # times the step was halved, the last failed attempts included
    max_corrector_iterations: int  # the most corrector steps one landing took
    q_calls: int  # every Q call, the start's included
    gradients: int  # forward-difference gradients taken

    def to_csv(self) -> str:
        n = len(self.points[0][1])
        header = ("s", *(f"x{i+1}" for i in range(n)), "Q")
        return csv_table(header, ((s, *x, qv) for (s, x), qv in zip(self.points, self.q_values)))


def _gradient(q: Callable, x: np.ndarray, f0: float, scales: np.ndarray) -> np.ndarray:
    """Forward differences of q at x from f0 = q(x), one q call per coordinate;
    a backward difference in a coordinate whose forward point leaves the domain."""
    g = np.empty(len(x))
    for i in range(len(x)):
        h = _SQRT_EPS * (abs(x[i]) + scales[i])
        xs = x.copy()
        xs[i] += h
        fs = q(xs)
        if not math.isfinite(fs):  # one-sided the other way at the domain edge
            xs[i] = x[i] - h
            fs = q(xs)
            if not math.isfinite(fs):
                raise ConvergenceError("gradient stencil left the domain")
        g[i] = (fs - f0) / (xs[i] - x[i])
    return g


@np.errstate(all="ignore")  # one block a call: overflowing Q is inf, not a warning
def trace_level_set(
    nfamily: FamilySpec,
    k: float,
    x_start: np.ndarray,
    steps: int,
    step_size: float = 1e-2,
) -> LevelSetCurve:
    """Predictor-corrector continuation along the hypersurface Q(x) = k
    (Allgower & Georg, *Numerical Continuation Methods*, ch. 6-7).

    The predictor follows the unit secant through the last two points; the
    first step takes the axis least aligned with the gradient g of Q.  The
    corrector walks the line x_pred - tau g: a chord step first, then secant
    steps on r(tau) = Q - k.  g (forward differences, n Q calls) is taken at
    the start, after a landing of more than 3 iterations and after a failed
    landing with a g from an earlier point; the next try projects its
    direction onto the new tangent space.  So a step costs one Q call per
    point tried, about 4 on ``parallelogram3``.  A point is on the level when
    |Q - k| <= 1e-10 k, within 25 iterations.  The step is halved when the
    predictor leaves the domain or the corrector fails, and doubled after 4
    successes, within [1e-6, 1e-1].  ``stop_reason`` is ``steps``, or the
    boundary met: ``gradient_zero``, ``tangent_degenerate``, ``left_domain``
    or ``corrector_failed``.  ``q_calls`` counts every Q call, the start's
    included, and ``gradients`` the g taken.
    """
    if steps < 1:
        raise DomainError("steps must be >= 1")
    if not STEP_MIN <= step_size <= STEP_MAX:
        raise DomainError(f"step_size must be in [{STEP_MIN:g}, {STEP_MAX:g}]")
    if not k > 0:
        raise DomainError(f"k must be > 0, got {k}: Q > 0 for every region")
    x = np.asarray(x_start, dtype=float).copy()
    fx = ratio_at(nfamily, x.tolist(), *evaluate(nfamily, x))
    if abs(fx - k) / k > 1e-2:
        raise DomainError(f"start point has Q={fx}, far from the level k={k}")
    ratio_q = ratio_function(nfamily)
    scales = np.array([b[1] - b[0] for b in nfamily.sample_box])
    widest = float(np.max(scales))
    calls, gradients = 1, 0  # the start's Q above

    def q(xx: np.ndarray) -> float:
        nonlocal calls
        calls += 1
        return ratio_q(xx)

    def refresh(xx: np.ndarray, fxx: float):
        """g at xx from fxx = Q(xx), or why not: ``left_domain`` or ``gradient_zero``."""
        nonlocal gradients
        gradients += 1
        try:
            g = _gradient(q, xx, fxx, scales)
        except ConvergenceError:
            return "left_domain"
        return "gradient_zero" if math.sqrt(g @ g) * widest < 1e-6 * k else g

    def correct(x0: np.ndarray, val: float, g: np.ndarray):
        """(x, Q(x), iterations) on the level from val = Q(x0), on the line
        x0 - tau g, or why not."""
        xx, tau, slope = x0, 0.0, -float(g @ g)  # dr/dtau at 0, to first order
        for it in range(25):
            if not math.isfinite(val):  # q is inf outside the domain
                return "left_domain"
            r = val - k
            if abs(r) <= 1e-10 * k:
                return xx, val, it
            if it and r != r_prev:  # equal r: the same point, keep the slope
                slope = (r - r_prev) / (tau - tau_prev)
            tau_prev, r_prev = tau, r
            tau -= r / slope
            xx = x0 - tau * g
            val = q(xx)
        return "corrector_failed"

    g = refresh(x, fx)
    if isinstance(g, str):  # the stencil left the domain, or Q is critical there
        raise ConvergenceError(f"no gradient of Q to follow at the start: {g}")
    landed = correct(x, fx, g)
    if isinstance(landed, str):
        raise ConvergenceError("corrector failed to land on the level set at the start")
    x, fx, iterations = landed
    t = np.eye(len(x))[int(np.argmin(np.abs(g)))]  # the first direction, projected below
    fresh = True  # g was taken at x, or at the start

    points = [(0.0, tuple(x.tolist()))]
    q_values = [fx]
    arclen = 0.0
    h = float(step_size)
    easy = halvings = 0
    stop_reason = "steps"
    while len(points) <= steps:
        if g is None:  # the last landing was slow, or failed with a stale g
            g, fresh = refresh(x, fx), True
            if isinstance(g, str):
                stop_reason = g
                break
        tt = t
        if fresh:
            tt = t - (t @ g) / (g @ g) * g
            nrm = math.sqrt(tt @ tt)
            if nrm < 1e-12:
                stop_reason = "tangent_degenerate"
                break
            tt /= nrm
        x_pred = x + h * tt
        if not nfamily.contains(x_pred):
            landed = "left_domain"
        else:
            landed = correct(x_pred, q(x_pred), g)
            if isinstance(landed, str):
                easy, g = 0, (g if fresh else None)
        if isinstance(landed, str):
            h *= 0.5
            halvings += 1
            if h < STEP_MIN:
                stop_reason = landed  # the domain boundary, or no landing at the minimal step
                break
            continue
        x_new, fx, it = landed
        dx = x_new - x
        dist = math.sqrt(dx @ dx)
        arclen += dist
        x, t = x_new, dx / dist
        points.append((arclen, tuple(x.tolist())))
        q_values.append(fx)
        iterations = max(iterations, it)
        g, fresh = (None if it > 3 else g), False
        easy += 1
        if easy >= 4:
            h = min(2.0 * h, STEP_MAX)
            easy = 0

    return LevelSetCurve(
        class_id=nfamily.id,
        k=float(k),
        points=tuple(points),
        q_values=tuple(float(v) for v in q_values),
        residuals=tuple(abs(v - k) / k for v in q_values),
        stop_reason=stop_reason,
        halvings=halvings,
        max_corrector_iterations=iterations,
        q_calls=calls,
        gradients=gradients,
    )
