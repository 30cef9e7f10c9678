"""Catalog of parametric region families with closed-form volume/area functions.

A family is a :class:`FamilySpec`: a dimension ``d``, a product of n open
parameter intervals, and evaluators for volume and surface area (for plane
figures: area and perimeter, which play the roles of volume and area
throughout).  With n = 1 it is a one-parameter family of regions; with
n > 1 it is a shape class whose level sets of Q are one-parameter families.

Built-in families carry analytic derivatives of the volume function where
available, so downstream quadrature is not polluted by differentiation error.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError

Interval = tuple[float, float]

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
RPLUS: Interval = (0.0, math.inf)


@dataclass(frozen=True)
class FamilySpec:
    """A smooth family of compact regions over n open parameter intervals.

    ``domain`` is a tuple of n (lo, hi) intervals.  ``volume``, ``area`` and the
    optional analytic ``dvolume`` take a float when n = 1 and a length-n array
    when n > 1; ``feasible`` (extra open constraints, e.g. ring torus center
    radius > tube radius) takes the length-n search vector.  The feasible set is
    the product of the intervals cut down by ``feasible``, and :meth:`contains`
    is its one test: :func:`isolab.search.kmin` calls a minimum attained only
    when small steps along each axis stay inside it.  For ``dimension == 2`` the
    evaluators are the area and the perimeter.  V and A at many points take one
    path, :func:`_evaluate_batch`: each evaluator first gets all m points at
    once, as a 1-D float array when n = 1, else as an (n, m) float array whose
    row i holds coordinate i (so ``x[0] * x[1]`` serves one point and many);
    unless both answer with float arrays of shape (m,) (:func:`_array_call`),
    each point goes through :func:`evaluate`.  :func:`sample` and
    :func:`isolab.search.kmin` use the array's values as they are, and
    :func:`ratio` takes Q on them with the bits of one point, so an
    array-capable evaluator must round each point as it does alone: write
    integer powers as products, as :func:`ratio` does (array ``**`` rounds
    differently from Python's), and use correctly rounded functions such as
    ``np.sqrt``.  ``feasible`` gets the (n, m) array too (join its tests by
    ``&``, not ``and``) if it answers the points of the build checks (below)
    with a bool array of shape (m,) equal to its answers point by point; else, or
    if a later array gets no such answer, each point goes through :func:`evaluate`.

    One-parameter operations need n = 1 (they read :attr:`interval`, which
    raises :class:`DomainError` for a multi-parameter class), a ``volume``
    strictly monotone on the interval (split others with
    :func:`isolab.calculus.monotone_partition`) and both evaluators finite
    and positive inside it.  ``homogeneous_prefix_m``
    marks V and A as homogeneous of degrees d and d-1 in the first m
    coordinates, each over (0, inf); :func:`isolab.search.kmin` then searches
    with x1 = 1 (with m = n = 1 the regions are similar and Q is constant).  A
    declared prefix is checked when the spec is built (also by
    ``dataclasses.replace``): 1 <= m <= n, each of the first m intervals is
    (0, inf), and V and A scale as declared (to 1e-9 relative) at the build
    checks' points that :func:`evaluate` accepts, each with its first m
    coordinates scaled by a seeded t in (0.5, 2); :class:`DomainError` otherwise.
    ``sample_box`` (n finite intervals, lo < hi) holds the multistart points and the
    32 seeded points of both build checks, which with their t are ``default_rng(0)``'s
    first draws, computed by :func:`_seeded_uniforms`; it defaults to 5-95 % of
    each interval, or of (lo, lo + 10), (hi - 10, hi) or (-5, 5) if unbounded.
    """

    id: str
    dimension: int
    domain: tuple[Interval, ...]
    volume: Callable
    area: Callable
    params: Mapping[str, float] = field(default_factory=dict)
    dvolume: Callable[[float], float] | None = None
    homogeneous_prefix_m: int | None = None
    feasible: Callable[[np.ndarray], bool | np.ndarray] | None = None
    sample_box: tuple[Interval, ...] | None = None

    def __post_init__(self):
        if self.dimension < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dimension}")
        shape = np.array(self.domain, dtype=object).shape  # (n,) if ragged
        if len(shape) != 2 or shape[1] != 2:
            raise DomainError(f"domain of {self.id!r} must be a non-empty tuple of intervals")
        for lo, hi in self.domain:
            if not lo < hi:
                raise DomainError(f"empty domain ({lo}, {hi})")
        # the interval ends as a (2, n, 1) array, for _evaluate_batch
        object.__setattr__(self, "_ends", np.array(self.domain, dtype=float).T[:, :, None])
        if self.sample_box is None:
            object.__setattr__(self, "sample_box", tuple(
                (lo + 0.05 * (hi - lo), lo + 0.95 * (hi - lo)) if math.isfinite(hi - lo)
                else (lo + 0.5, lo + 9.5) if math.isfinite(lo)
                else (hi - 9.5, hi - 0.5) if math.isfinite(hi) else (-4.5, 4.5)
                for lo, hi in self.domain))
        if len(self.sample_box) != self.nparams or not all(
                len(b) == 2 and -math.inf < b[0] < b[1] < math.inf for b in self.sample_box):
            raise DomainError(f"sample_box of {self.id!r} must hold a finite interval (lo, hi) "
                              f"with lo < hi for each of its n = {self.nparams} parameters")
        # the seeded points of both build checks, one per column, and the t of the prefix check
        u = np.array(_seeded_uniforms(32 * self.nparams + 32))
        lo, hi = np.array(self.sample_box).T[:, :, None]
        x, t = lo + (hi - lo) * u[:-32].reshape(-1, 32), 0.5 + 1.5 * u[-32:]
        on_arrays = self.feasible is None  # whether feasible, if any, answers them as each alone
        if self.feasible is not None:
            with np.errstate(all="ignore"), contextlib.suppress(Exception):
                answer = _array_call(self.feasible, x, bool)
                on_arrays = answer is not None and answer.tolist() == [
                    bool(self.feasible(p)) for p in x.T.copy()]
        object.__setattr__(self, "_feasible_on_arrays", on_arrays)
        if self.homogeneous_prefix_m is not None:
            self._check_homogeneous_prefix(self.homogeneous_prefix_m, x, t)

    def _check_homogeneous_prefix(self, m: int, x: np.ndarray, t: np.ndarray) -> None:
        if not 1 <= m <= self.nparams:
            raise DomainError(
                f"declared prefix m={m} of {self.id!r} rejected: m must be in 1..{self.nparams}"
            )
        if any(tuple(self.domain[i]) != RPLUS for i in range(m)):
            raise DomainError(
                f"declared prefix m={m} of {self.id!r} rejected: each of the first {m} "
                "intervals must be (0, inf)"
            )
        tx = np.vstack([x[:m] * t, x[m:]])
        t_area = math.prod([t] * (self.dimension - 1))
        with np.errstate(all="ignore"):  # points that evaluate rejects are not checked
            (v, a, ok), (vt, at, ok_t) = _evaluate_batch(self, x), _evaluate_batch(self, tx)
            bad = ok & ok_t & ((abs(vt - t * t_area * v) > 1e-9 * abs(vt))
                               | (abs(at - t_area * a) > 1e-9 * abs(at)))
        if bad.any():
            i = int(np.argmax(bad))
            raise DomainError(
                f"declared prefix m={m} rejected: V or A is not homogeneous in the "
                f"first {m} coordinates (checked at t={t[i]}, x={x[:, i].tolist()})"
            )

    @property
    def nparams(self) -> int:
        return len(self.domain)

    @property
    def interval(self) -> Interval:
        """The one parameter interval; :class:`DomainError` for a multi-parameter class."""
        if len(self.domain) != 1:
            raise DomainError(f"{self.id!r} is a multi-parameter class, not a one-parameter family")
        return self.domain[0]

    def contains(self, x) -> bool:
        """Whether ``x`` (a length-n vector, or a float when n = 1) is inside."""
        x = np.asarray(x, dtype=float)
        if x.ndim > 1 or x.size != len(self.domain):
            return False
        # Python floats compare faster than numpy scalars; this runs for every Q
        for xi, (lo, hi) in zip(x.tolist() if x.ndim else (float(x),), self.domain):
            if not lo < xi < hi:
                return False
        if self.feasible is not None and not self.feasible(x):
            return False
        return True

    def catalog_entry(self) -> dict:
        # JSON (RFC 8259) has no infinity: an unbounded end is null
        domain = [[e if math.isfinite(e) else None for e in interval] for interval in self.domain]
        return {
            "id": self.id,
            "dimension": self.dimension,
            # a one-parameter family lists its interval itself
            "domain": domain[0] if self.nparams == 1 else domain,
            "params": dict(self.params),
        }


def evaluate(family: FamilySpec, x) -> tuple[float, float]:
    """(V, A) at one point, as Python floats: a float, or the length-n search vector.

    The point is made a float array once, for :meth:`FamilySpec.contains`; when
    n = 1 the evaluators get its float, also from a length-1 vector.
    Raises :class:`DomainError` naming the point when it has the wrong number
    of coordinates or lies outside the domain, an evaluator overflows, divides
    by zero or warns (``-W error``), or V and A are not both finite and positive.
    """
    point = np.asarray(x, dtype=float)
    if not family.contains(point):
        if point.ndim <= 1 and point.size != family.nparams:
            raise DomainError(f"point {point.tolist()} has {point.size} coordinate"
                              f"{'s' * (point.size != 1)}; {family.id!r} takes {family.nparams}")
        raise DomainError(f"point {point.tolist()} outside the domain of {family.id!r}")
    # len, not nparams: this runs for every Q of a search
    p = x if len(family.domain) > 1 else point.item()
    try:
        v, a = family.volume(p), family.area(p)
    except (ArithmeticError, RuntimeWarning) as exc:  # Python floats raise; numpy scalars warn
        what = ("divides by zero" if isinstance(exc, ZeroDivisionError)
                else "overflows" if isinstance(exc, OverflowError) else f"warns ({exc})")
        raise DomainError(
            f"V or A {what} at point {np.asarray(x).tolist()} of {family.id!r}"
        ) from None
    if not (0 < v < math.inf and 0 < a < math.inf):
        raise _not_finite_positive(family, np.asarray(x).tolist(), v, a)
    return float(v), float(a)  # so Q of one point never meets a numpy scalar's warnings


def sample(family: FamilySpec, grid) -> tuple[np.ndarray, np.ndarray]:
    """(V, A) arrays of a one-parameter family over a 1-D grid inside its
    interval, from :func:`_evaluate_batch`, checked as :func:`evaluate` checks one point."""
    lo, hi = family.interval
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1:
        raise DomainError(f"grid must be 1-D, not of shape {grid.shape}")
    outside = ~((grid > lo) & (grid < hi))
    if outside.any():
        point = grid[np.argmax(outside)]
        raise DomainError(f"grid point {point} outside ({lo}, {hi}) of family {family.id!r}")
    with np.errstate(all="ignore"):
        v, a, ok = _evaluate_batch(family, grid[None])
    if not ok.all():
        i = int(np.argmin(ok))
        evaluate(family, grid[i])  # raises, naming the point
        raise _not_finite_positive(family, float(grid[i]), v[i], a[i])  # array rounding differs
    return v, a


@functools.cache
def _seeded_uniforms(count: int) -> tuple[float, ...]:
    """The first ``count`` doubles in [0, 1) of ``np.random.default_rng(0)``, bit for bit: its
    PCG64 steps a 128-bit state, makes 64 bits of each by XSL-RR and keeps their top 53."""
    state, u = 35399562948360463058890781895381311971, []
    for _ in range(count):
        state = (state * 0x2360ED051FC65DA44385DF649FCCF645
                 + 87136372517582989555478159403783844777) % 2 ** 128
        x, rot = ((state >> 64) ^ state) % 2 ** 64, state >> 122
        u.append(((x >> rot | x << (-rot & 63)) % 2 ** 64 >> 11) * 2.0 ** -53)
    return tuple(u)


def _array_call(f: Callable, x: np.ndarray, dtype) -> np.ndarray | None:
    """f(x) from one call with the array x, whose last axis holds the points, if it is
    an array of ``dtype`` with one value per point; else None: ask f point by point.
    Call it under ``np.errstate(all="ignore")``, as x may hold points where f overflows."""
    try:
        y = np.asarray(f(x))
    except Exception:  # raised again per point, if f fails there too
        return None
    return y if y.shape == x.shape[-1:] and y.dtype == dtype else None


def _evaluate_batch(family: FamilySpec, x: np.ndarray):
    """(V, A, ok) at the m points of the (n, m) float array x, whose column i is point
    i; ``ok`` marks the points :func:`evaluate` accepts, by its checks as masks where
    each evaluator (given x, or its one row when n = 1) and ``feasible``, if any and if
    it acts on arrays (:class:`FamilySpec`), answer x through :func:`_array_call`.
    Else each point goes through :func:`evaluate`: V = A = NaN and ``ok`` False where it
    raises :class:`DomainError`; others propagate.  Call it under ``np.errstate(all="ignore")``."""
    p = x if len(x) > 1 else x[0]
    v = _array_call(family.volume, p, float) if family._feasible_on_arrays else None
    a = None if v is None else _array_call(family.area, p, float)
    if a is not None:
        lows, highs = family._ends
        ok = ((lows < x) & (x < highs)).all(axis=0) & _finite_positive(v, a)  # NaN fails
        if family.feasible is None:
            return v, a, ok
        feasible = _array_call(family.feasible, x, bool)
        if feasible is not None:
            return v, a, ok & feasible
    v, a = np.full((2, x.shape[1]), math.nan)
    for i, point in enumerate(x.T.copy()):
        with contextlib.suppress(DomainError):
            v[i], a[i] = evaluate(family, point)
    return v, a, ~np.isnan(v)


def _finite_positive(v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Where V and A are both finite and positive, :func:`evaluate`'s test, on arrays."""
    return (np.minimum(v, a) > 0) & (np.maximum(v, a) < math.inf)


def _not_finite_positive(family: FamilySpec, point, v, a) -> DomainError:
    return DomainError(
        f"V = {v}, A = {a} at point {point} of {family.id!r}; both must be finite and positive"
    )


def ratio(d: int, v, a):
    """The isoperimetric ratio Q = A^d / V^(d-1), scale-invariant; inf or NaN where it
    overflows.  As products in a fixed order from the first factor (no 1 * a, an array
    copy), each correctly rounded (IEEE 754), it gives two floats and two float arrays
    the same bits, where array ``**`` may not."""
    return math.prod([a] * (d - 1), start=a) / math.prod([v] * (d - 2), start=v)


def ratio_at(family: FamilySpec, point, v: float, a: float) -> float:
    """:func:`ratio` of ``family``'s V and A, two floats, at ``point``; raises
    :class:`DomainError` naming the point where Q is not finite (also where
    V^(d-1) underflows to 0)."""
    try:
        q = ratio(family.dimension, v, a)
    except ZeroDivisionError:
        q = math.inf
    if not math.isfinite(q):  # inf, or NaN from inf / inf
        raise DomainError(f"Q overflows at point {point} of {family.id!r}")
    return q


def as_nparam(family: FamilySpec) -> FamilySpec:
    """Return ``family``: every :class:`FamilySpec` is already an n-parameter
    family.  Kept for existing callers."""
    return family


# ------------------------------------------------------------------ #
# Built-in one-parameter families (n = 1)
# ------------------------------------------------------------------ #


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _similar(id: str, d: int, v1: float, a1: float, params: Mapping[str, float]) -> FamilySpec:
    """The regions s·R, s > 0, of a region R in R^d with volume v1 and area a1: V = v1·s^d,
    A = a1·s^(d-1) and V' = (d·v1)·s^(d-1), so Q = a1^d / v1^(d-1) for every s.  Each power
    is a product in :func:`ratio`'s order, which rounds a float and an array alike.
    ``rect_similar`` is such a family too but keeps its A = 2s + 2ks, which rounds each side
    on its own: as (2 + 2k)·s, at 20 000 points (k, s) uniform on (0, 1) x (0, 10), 6532 change
    bits and the largest error against 200-bit arithmetic grows from 0.75 to 1.46 ulp."""
    dv1 = d * v1
    return FamilySpec(
        id=id,
        dimension=d,
        domain=(RPLUS,),
        volume=lambda s: v1 * math.prod([s] * (d - 1), start=s),
        area=lambda s: a1 * math.prod([s] * (d - 2), start=s),
        params=params,
        dvolume=lambda s: dv1 * math.prod([s] * (d - 2), start=s),
        homogeneous_prefix_m=1,
    )


def _rect_fixed_length(a: float = 1.0) -> FamilySpec:
    _require(a > 0, "rect_fixed_length needs a > 0")
    return FamilySpec(
        id="rect_fixed_length",
        dimension=2,
        domain=(RPLUS,),
        volume=lambda s: a * s,
        area=lambda s: 2.0 * s + 2.0 * a,
        params={"a": a},
        dvolume=lambda s: a,
    )


def _rect_similar(k: float = 0.5) -> FamilySpec:
    _require(0.0 < k < 1.0, "rect_similar needs k in (0, 1)")
    return FamilySpec(
        id="rect_similar",
        dimension=2,
        domain=(RPLUS,),
        volume=lambda s: k * (s * s),
        area=lambda s: 2.0 * s + 2.0 * k * s,
        params={"k": k},
        dvolume=lambda s: 2.0 * k * s,
        homogeneous_prefix_m=1,
    )


def _rhombus(branch: str, a: float = 1.0) -> FamilySpec:
    _require(a > 0, "rhombus needs side a > 0")
    dom = (0.0, SQRT2 * a) if branch == "increasing" else (SQRT2 * a, 2.0 * a)
    return FamilySpec(
        id=f"rhombus_{branch}",
        dimension=2,
        domain=(dom,),
        volume=lambda s: s * np.sqrt(a * a - s * s / 4.0),
        area=lambda s: 4.0 * a + 0.0 * s,  # of s's shape on arrays
        params={"a": a},
        dvolume=lambda s: (a * a - s * s / 2.0) / np.sqrt(a * a - s * s / 4.0),
    )


def rhombus_branches(a: float = 1.0) -> tuple[FamilySpec, FamilySpec]:
    """The two monotone branches of the fixed-side rhombus family."""
    return _rhombus("increasing", a), _rhombus("decreasing", a)


def _hexagon_sides(s: float) -> tuple[float, float, float]:
    return 1.0, s * s, (s + 1.0) * (s + 1.0)


def _hexagon_120() -> FamilySpec:
    # hexagon with all inner angles 2*pi/3 and side lengths a, b, c, a, b, c
    def area(s: float) -> float:
        a, b, c = _hexagon_sides(s)
        return SQRT3 / 2.0 * (a * b + b * c + c * a)

    def perim(s: float) -> float:
        a, b, c = _hexagon_sides(s)
        return 2.0 * (a + b + c)

    def darea(s: float) -> float:
        # A(s) = (sqrt(3)/2) (s^2 + s + 1)^2
        return SQRT3 * (s * s + s + 1.0) * (2.0 * s + 1.0)

    return FamilySpec(
        id="hexagon_120",
        dimension=2,
        domain=(RPLUS,),
        volume=area,
        area=perim,
        dvolume=darea,
    )


def _ngon(n: int = 6) -> FamilySpec:
    _require(n >= 3 and float(n).is_integer(), "ngon needs an integer n >= 3")
    n = int(n)
    half = math.pi / n  # s is the circumradius
    return _similar(f"ngon_{n}", 2, 0.5 * n * math.sin(2.0 * half), 2.0 * n * math.sin(half),
                    {"n": float(n)})


# ------------------------------------------------------------------ #
# Built-in n-parameter shape classes
# ------------------------------------------------------------------ #


def _triangle_sides() -> FamilySpec:
    def area(x):
        a, b, c = x
        p = 0.5 * (a + b + c)
        return np.sqrt(np.maximum(p * (p - a) * (p - b) * (p - c), 0.0))

    def feasible(x):
        a, b, c = x
        return (a + b > c) & (b + c > a) & (a + c > b)

    return FamilySpec(
        id="triangle_sides",
        dimension=2,
        domain=(RPLUS, RPLUS, RPLUS),
        volume=area,
        area=lambda x: x[0] + x[1] + x[2],
        homogeneous_prefix_m=3,
        feasible=feasible,
        sample_box=((0.3, 3.0),) * 3,
    )


def _right_triangle() -> FamilySpec:
    return FamilySpec(
        id="right_triangle",
        dimension=2,
        domain=(RPLUS, RPLUS),
        volume=lambda x: 0.5 * x[0] * x[1],
        area=lambda x: x[0] + x[1] + math.hypot(x[0], x[1]),
        homogeneous_prefix_m=2,
        sample_box=((0.3, 3.0),) * 2,
    )


def _box3() -> FamilySpec:
    return FamilySpec(
        id="box3",
        dimension=3,
        domain=(RPLUS, RPLUS, RPLUS),
        volume=lambda x: x[0] * x[1] * x[2],
        area=lambda x: 2.0 * (x[0] * x[1] + x[1] * x[2] + x[2] * x[0]),
        homogeneous_prefix_m=3,
        sample_box=((0.3, 3.0),) * 3,
    )


def _cylinder() -> FamilySpec:
    return FamilySpec(
        id="cylinder",
        dimension=3,
        domain=(RPLUS, RPLUS),  # (radius, height)
        volume=lambda x: math.pi * (x[0] * x[0]) * x[1],
        area=lambda x: 2.0 * math.pi * (x[0] * x[0]) + 2.0 * math.pi * x[0] * x[1],
        homogeneous_prefix_m=2,
        sample_box=((0.3, 3.0),) * 2,
    )


def _cone() -> FamilySpec:
    # total surface area: lateral plus base disk
    return FamilySpec(
        id="cone",
        dimension=3,
        domain=(RPLUS, RPLUS),  # (base radius, height)
        volume=lambda x: math.pi / 3.0 * x[0] ** 2 * x[1],
        area=lambda x: math.pi * x[0] ** 2
        + math.pi * x[0] * math.hypot(x[0], x[1]),
        homogeneous_prefix_m=2,
        sample_box=((0.3, 3.0),) * 2,
    )


def _square_pyramid() -> FamilySpec:
    # total surface area: four slant faces plus square base
    return FamilySpec(
        id="square_pyramid",
        dimension=3,
        domain=(RPLUS, RPLUS),  # (base side, height)
        volume=lambda x: x[0] ** 2 * x[1] / 3.0,
        area=lambda x: x[0] ** 2
        + 2.0 * x[0] * math.sqrt(x[1] ** 2 + x[0] ** 2 / 4.0),
        homogeneous_prefix_m=2,
        sample_box=((0.3, 3.0),) * 2,
    )


def _ring_torus() -> FamilySpec:
    # x = (tube radius rho1, center radius rho2); formulas valid for rho2 > rho1
    return FamilySpec(
        id="ring_torus",
        dimension=3,
        domain=(RPLUS, RPLUS),
        volume=lambda x: 2.0 * math.pi * math.pi * (x[0] * x[0]) * x[1],
        area=lambda x: 4.0 * math.pi * math.pi * x[0] * x[1],
        homogeneous_prefix_m=2,
        feasible=lambda x: x[1] > x[0],
        sample_box=((0.3, 1.0), (1.1, 3.0)),
    )


def _parallelogram3() -> FamilySpec:
    return FamilySpec(
        id="parallelogram3",
        dimension=2,
        domain=(RPLUS, RPLUS, (0.0, math.pi)),  # (side, side, angle)
        volume=lambda x: x[0] * x[1] * np.sin(x[2]),
        area=lambda x: 2.0 * x[0] + 2.0 * x[1],
        homogeneous_prefix_m=2,
        sample_box=((0.3, 3.0), (0.3, 3.0), (0.2, math.pi - 0.2)),
    )


def _rect2() -> FamilySpec:
    return FamilySpec(
        id="rect2",
        dimension=2,
        domain=(RPLUS, RPLUS),  # (length, width)
        volume=lambda x: x[0] * x[1],
        area=lambda x: 2.0 * x[0] + 2.0 * x[1],
        homogeneous_prefix_m=2,
        sample_box=((0.3, 3.0),) * 2,
    )


# in catalog order: the one-parameter families, then the shape classes
_BUILTINS: dict[str, Callable[..., FamilySpec]] = {
    # zero-argument factories, so that builtin rejects every parameter
    "ball": lambda: _similar("ball", 3, 4.0 / 3.0 * math.pi, 4.0 * math.pi, {}),
    "cube": lambda: _similar("cube", 3, 1.0, 6.0, {}),
    "disk": lambda: _similar("disk", 2, math.pi, 2.0 * math.pi, {}),
    "hexagon_120": _hexagon_120,
    "ngon": _ngon,
    "rect_fixed_length": _rect_fixed_length,
    "rect_similar": _rect_similar,
    # the fixed-side rhombus by its two monotone branches (diagonal below and above sqrt(2) a)
    "rhombus_increasing": functools.partial(_rhombus, "increasing"),
    "rhombus_decreasing": functools.partial(_rhombus, "decreasing"),
    "box3": _box3,
    "cone": _cone,
    "cylinder": _cylinder,
    "parallelogram3": _parallelogram3,
    "rect2": _rect2,
    "right_triangle": _right_triangle,
    "ring_torus": _ring_torus,
    "square_pyramid": _square_pyramid,
    "triangle_sides": _triangle_sides,
}


def builtin(id: str, **params) -> FamilySpec:
    """Construct a built-in family or shape class by id.

    Raises :class:`DomainError` for unknown ids, parameters the family does
    not take, or parameters out of range.
    """
    if id not in _BUILTINS:
        raise DomainError(f"unknown built-in family {id!r}")
    factory = _BUILTINS[id]
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise DomainError(f"built-in family {id!r}: {exc}") from exc
    return factory(**params)


def catalog_json() -> str:
    """The built-in catalog as a JSON array of ``{id, dimension, domain, params}``, each
    listed by the id that :func:`builtin` takes, at its default parameters."""
    entries = [dict(builtin(fid).catalog_entry(), id=fid) for fid in _BUILTINS]
    return json.dumps(entries, indent=2)
