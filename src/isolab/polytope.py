"""Star-like polyhedra: pyramid decompositions, weighted-mean identities,
support-function volume, circumscribing checks and outer parallel bodies.
Geometry only: it builds no family, and of isolab imports only ``errors``
and ``records``.

A :class:`StarPolyhedron` is a 2D polygon or 3D polyhedron whose facets all
subtend positive-altitude pyramids from an interior apex.  Decomposing into
those pyramids shows that d V / A is simultaneously the area-weighted
arithmetic mean and the volume-weighted harmonic mean of the pyramid
altitudes, independent of the apex choice.

Each polyhedron's facet geometry (unit normals and facet measures, with 3D
facet areas from the Newell vector, and pyramid altitudes) and its
bounding-box diagonal, the length scale of every tolerance, are fixed once
at construction, in one segmented array pass over the vertex slots of all
facets at a power-of-two scale; every operation below is an array
expression over them, in one frame, the apex's.  Polyhedra and Steiner
shapes must be finite, and polyhedra closed.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import DomainError, GeometryError
from .records import Record, _e_notation, _frozen

PLANARITY_RTOL = 1e-9
CONVEXITY_RTOL = 1e-9


def _bbox_diagonal(vertices: np.ndarray) -> float:
    """The bounding box's diagonal; inf where it overflows (``math.hypot``
    scales the sides before it squares them)."""
    lows, highs = vertices.min(axis=0).tolist(), vertices.max(axis=0).tolist()
    return math.hypot(*(hi - lo for lo, hi in zip(lows, highs)))


def _polygon_area_2d(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@dataclass(frozen=True, eq=False)  # == is identity: arrays have no single truth value
class StarPolyhedron(Record):
    """Polygon (d=2) or polyhedron (d=3) star-like with respect to ``apex``.

    Facets list vertex indices; in 2D each facet is an edge, in 3D a simple
    planar polygon with vertices counterclockwise viewed from outside.

    The geometry is fixed at construction: ``vertices`` and ``apex`` are
    read-only copies of the inputs, and the read-only arrays ``normals``
    (unit outward normals, F x d), ``measures`` (facet lengths or areas) and
    ``altitudes`` (n_i . (v_i - apex) for any vertex v_i of facet i) are
    computed once, as is ``diagonal``, the vertices' bounding-box diagonal
    that scales the tolerances here and in :func:`volume_from_support` and
    :func:`cohen_check`.
    In 3D a facet's normal and area both come from its Newell vector, taken
    relative to its first vertex, which is exact for any simple planar
    polygon, convex or not.  Construction rejects non-finite vertices or
    apex, and checks positive facet measure, planarity, and that the apex
    lies strictly on the inner side of every facet hyperplane; an error
    names the lowest-numbered bad facet.  Facets that do not close
    (|sum A_i n_i| > ``PLANARITY_RTOL`` sum A_i), and a facet measure or a
    volume outside the float range, are errors too.
    """

    dimension: int
    vertices: np.ndarray
    facets: tuple[tuple[int, ...], ...]
    apex: np.ndarray
    normals: np.ndarray = field(init=False, repr=False)
    measures: np.ndarray = field(init=False, repr=False)
    altitudes: np.ndarray = field(init=False, repr=False)
    diagonal: float = field(init=False, repr=False)

    def __post_init__(self):
        d = _integer(self.dimension, "dimension")
        vertices = _frozen(self.vertices)
        apex = _frozen(self.apex)
        facets = tuple(map(tuple, self.facets))
        flat = list(chain.from_iterable(facets))
        if operator.countOf(map(type, flat), int) != len(flat):  # a bool, float or numpy index
            facets = tuple(tuple(_integer(i, "facet vertex index") for i in f) for f in facets)
            flat = list(chain.from_iterable(facets))
        if d not in (2, 3):
            raise GeometryError("only dimensions 2 and 3 are supported")
        if vertices.ndim != 2 or vertices.shape[1] != d:
            raise GeometryError("vertex array shape does not match dimension")
        if apex.shape != (d,):
            raise GeometryError("apex shape does not match dimension")
        for name, values in (("vertices", vertices), ("apex", apex)):
            if not np.isfinite(values).all():
                raise GeometryError(f"{name} must be finite")
        if not facets:
            raise GeometryError("polyhedron has no facets")
        diag = _bbox_diagonal(vertices)
        if diag <= 0:
            raise GeometryError("degenerate vertex set")
        if diag == math.inf:
            raise GeometryError("the vertices' bounding-box diagonal is outside the float range")
        normals, measures, altitudes = _facet_geometry(d, vertices, facets, flat, apex, diag)

        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "normals", _frozen(normals))
        object.__setattr__(self, "measures", _frozen(measures))
        object.__setattr__(self, "altitudes", _frozen(altitudes))
        object.__setattr__(self, "diagonal", diag)

    def with_apex(self, apex: Sequence[float]) -> "StarPolyhedron":
        return StarPolyhedron(self.dimension, self.vertices, self.facets, np.asarray(apex))


def _integer(value, what: str) -> int:
    """An int, or an integral float, as an int; never truncates, and rejects a bool."""
    if isinstance(value, float) and value.is_integer():  # numpy's float64 subclasses float
        value = int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise GeometryError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products as a batched matmul, which rounds like the 1-D ``dot``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _facet_geometry(d: int, vertices: np.ndarray, facets: tuple, flat: list, apex: np.ndarray,
                    diag: float):
    """Unit normals, measures and apex altitudes, in one segmented array pass.

    The vertex slots of the valid facets lie end to end, each tagged with
    its facet, so one array expression serves facets of every size in memory
    linear in the slots.  A facet's vector sums a per-slot term over its
    run of slots sequentially, as a sum over that facet alone would
    (``np.add.reduceat`` sums 9 or more slots pairwise, an ulp away): in 3D
    the cross product of the slot and the next relative to the facet's
    first vertex (the Newell vector), in 2D the slot itself (the edge).

    Every polyhedron is computed with every coordinate scaled by 2**-shift,
    where the diagonal is 2**shift times a number in [0.5, 1), so that no
    square overflows or underflows; the scaling is exact, and measures and
    altitudes n_i . (first_i - apex) are scaled back at the end.  Raises for
    the lowest-numbered bad facet (its vertex count, measure, planarity, then
    the apex's side, where a NaN altitude fails but names its facet only where
    no other facet is bad), then for facets that do not close, then for a
    measure or a volume outside the float range.
    """
    shift = math.frexp(diag)[1]
    vertices = np.ldexp(vertices, -shift)
    diag = math.ldexp(diag, -shift)
    sizes = np.fromiter(map(len, facets), dtype=np.intp, count=len(facets))
    try:
        flat = np.array(flat, dtype=np.intp)
    except OverflowError:  # an int beyond the index type is out of range too
        flat = np.array([-1])
    if not ((flat >= 0) & (flat < len(vertices))).all():
        raise GeometryError("facet vertex index out of range")
    miscounted = sizes != 2 if d == 2 else sizes < 3
    ids = np.flatnonzero(~miscounted)
    k = sizes[ids]
    seg = np.repeat(ids, k)  # each slot's facet
    head = np.cumsum(k) - k  # each valid facet's first slot
    pts = np.take(vertices.T, flat[np.repeat(~miscounted, sizes)], axis=1)  # d x slots
    tol = PLANARITY_RTOL * diag
    with np.errstate(all="ignore"):  # a far apex may scale to inf; its altitude fails the test
        apex = np.ldexp(apex, -shift)
        rel = pts - np.repeat(pts[:, head], k, axis=1)
        terms = rel
        if d == 3:  # after a facet's last slot comes a first slot, rel +0.0 as at its own
            (x, y, z), (u, v, w) = rel, np.roll(rel, -1, axis=1)
            terms = (y * w - z * v, z * u - x * w, x * v - y * u)
        g = np.stack([np.bincount(seg, t, minlength=len(facets)) for t in terms], axis=1)
        length = np.sqrt(_rowdot(g, g))
        normals = (g if d == 3 else np.stack([g[:, 1], -g[:, 0]], axis=1)) / length[:, None]
        measures = length if d == 2 else 0.5 * length
        deviation = np.abs((rel * np.repeat(normals[ids].T, k, axis=1)).sum(axis=0))
        nonplanar = np.bincount(seg[deviation > tol], minlength=len(facets)) > 0  # never in 2D
        dist = np.zeros(len(facets))  # a miscounted facet has no first vertex
        dist[ids] = _rowdot(normals[ids], pts[:, head].T - apex)
    checks = [miscounted, measures <= (0.0 if d == 2 else tol * diag), nonplanar, ~(dist > tol)]
    bad = np.logical_or.reduce(checks)
    if bad.any():  # a NaN altitude names its facet only where no other facet is bad
        named = np.flatnonzero(bad)
        i = int(named[np.argmin(np.isnan(dist[named]) & ~np.logical_or.reduce(checks[:3])[named])])
        worst = deviation[seg == i].max() if nonplanar[i] else math.nan
        say = [
            "2D facets are edges of 2 vertices" if d == 2 else "3D facets need >= 3 vertices",
            "zero-length edge" if d == 2 else "vanishing area",
            f"non-planar (max deviation {_e_scaled(worst, shift)} > {_e_scaled(tol, shift)})",
            f"apex is not strictly interior (signed distance {_e_scaled(dist[i], shift)})",
        ]
        raise GeometryError(f"facet {i}: {next(s for s, mask in zip(say, checks) if mask[i])}")
    gap = math.hypot(*(measures @ normals).tolist()) / float(measures.sum())  # scale-free
    if gap > PLANARITY_RTOL:
        raise GeometryError(f"the facets do not close: |sum A_i n_i| = {gap:.3e} sum A_i")
    # the measures and the volume sum(A_i r_i) / d must be floats at scale 1 too
    name = "length" if d == 2 else "area"
    for i in measures.argmax(), measures.argmin():
        _require_float(f"facet {i}: {name}", measures[i], (d - 1) * shift)
    _require_float("volume", float(np.dot(measures, dist)) / d, d * shift)
    return normals, np.ldexp(measures, (d - 1) * shift), np.ldexp(dist, shift)


def _e_scaled(scaled: float, power: int) -> str:
    """scaled * 2**power in ``.3e`` notation, through its logarithm where that is not a float."""
    if scaled == 0 or -1074 < math.frexp(scaled)[1] + power <= 1024:  # NaN and inf too
        return f"{math.ldexp(scaled, power):.3e}"
    return ("-" if scaled < 0 else "") + _e_notation(math.log10(abs(scaled)) + power * math.log10(2.0))


def _require_float(what: str, scaled: float, power: int) -> None:
    """Raise unless scaled * 2**power, for a scaled > 0, is a float other than 0 and inf."""
    if not -1074 < math.frexp(scaled)[1] + power <= 1024:
        raise GeometryError(f"{what} {_e_scaled(scaled, power)} is outside the float range")


def from_json(text: str) -> StarPolyhedron:
    """Parse and validate the polyhedron JSON format."""
    try:
        doc = json.loads(text)
        return StarPolyhedron(
            dimension=doc["dimension"],
            vertices=np.asarray(doc["vertices"], dtype=float),
            facets=tuple(tuple(f) for f in doc["facets"]),
            apex=np.asarray(doc["apex"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, GeometryError):
            raise
        raise GeometryError(f"malformed polyhedron document: {exc}") from exc


@dataclass(frozen=True, eq=False)  # == is identity, as for StarPolyhedron
class PyramidDecomposition:
    """Per-facet pyramid records (A_i, r_i, V_i = A_i r_i / d) as read-only arrays, and totals."""

    dimension: int
    facet_measures: np.ndarray  # A_i
    altitudes: np.ndarray  # r_i, apex to facet hyperplane
    pyramid_volumes: np.ndarray  # V_i
    total_area: float
    total_volume: float


def decompose(p: StarPolyhedron) -> PyramidDecomposition:
    """Decompose into pyramids over the facets with apex at p.apex."""
    v_i = p.measures * p.altitudes / p.dimension
    return PyramidDecomposition(
        dimension=p.dimension,
        facet_measures=p.measures,
        altitudes=p.altitudes,
        pyramid_volumes=_frozen(v_i),
        total_area=float(p.measures.sum()),
        total_volume=float(v_i.sum()),
    )


def mean_altitudes(dec: PyramidDecomposition) -> tuple[float, float]:
    """Area-weighted arithmetic and volume-weighted harmonic means of r_i.

    Both equal d V / A for any valid decomposition, whatever the apex.
    """
    a, v = dec.total_area, dec.total_volume
    arith = float(np.sum(dec.facet_measures / a * dec.altitudes))
    harm = 1.0 / float(np.sum(dec.pyramid_volumes / v / dec.altitudes))
    return arith, harm


# entries of the vertex-by-facet product held at once (8 MB of floats)
_SUPPORT_BLOCK = 1 << 20


def _convex_support(p: StarPolyhedron) -> np.ndarray:
    """h(n_i) about the apex at every facet normal; raises where it exceeds the altitude r_i."""
    rel = p.vertices - p.apex
    step = max(1, _SUPPORT_BLOCK // len(rel))
    h = np.empty(len(p.normals))
    for i in range(0, len(h), step):
        h[i:i + step] = (rel @ p.normals[i:i + step].T).max(axis=0)
    excess = h - p.altitudes
    tol = CONVEXITY_RTOL * p.diagonal
    if excess.max() > tol:
        idx = int(np.argmax(excess > tol))
        raise GeometryError(
            f"facet {idx}: vertices beyond the facet plane by {excess[idx]:.3e}; not convex"
        )
    return h


def volume_from_support(p: StarPolyhedron) -> float:
    """V = (1/d) sum A_i h(u_i) over facet unit normals, for convex p.

    Translation-covariant: h is taken about the apex, wherever the origin sits.
    """
    return float(p.measures @ _convex_support(p)) / p.dimension


def cohen_check(p: StarPolyhedron, r: float) -> float:
    """Relative residual of V = (r/d) A for a circumscribing polytope.

    Every facet hyperplane must lie at distance r from the apex, the
    incenter; otherwise the precondition is rejected.
    """
    if not 0 < r < math.inf:
        raise DomainError("inradius r must be positive and finite")
    _convex_support(p)
    off = np.abs(p.altitudes - r) > 1e-9 * max(p.diagonal, r)
    if off.any():
        idx = int(np.argmax(off))
        raise GeometryError(
            f"facet {idx}: hyperplane distance {float(p.altitudes[idx])} != claimed inradius {r}"
            "; polytope is not circumscribing"
        )
    dec = decompose(p)
    return abs(dec.total_volume - r / p.dimension * dec.total_area) / dec.total_volume


# ------------------------------------------------------------------ #
# Steiner outer parallel bodies
# ------------------------------------------------------------------ #


def _require_convex_polygon(pts: np.ndarray) -> None:
    if len(pts) < 3:
        raise GeometryError("polygon needs at least 3 vertices")
    if _polygon_area_2d(pts) <= 0:
        raise GeometryError("polygon must be counterclockwise with positive area")
    (ax, ay), (bx, by), (cx, cy) = pts.T, np.roll(pts, -1, axis=0).T, np.roll(pts, -2, axis=0).T
    cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
    diag = _bbox_diagonal(pts)
    reflex = cross < -CONVEXITY_RTOL * diag * diag  # inf, not OverflowError, past 1e154
    if reflex.any():
        i = (int(np.argmax(reflex)) + 1) % len(pts)
        raise GeometryError(f"reflex vertex at index {i}; polygon not convex")


def steiner_coefficients(
    shape: np.ndarray | Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Ascending polynomial coefficients of V(s) and A(s) for the parallel body.

    ``shape`` is a convex CCW polygon (N x 2 vertex array) or a 3-tuple of
    box edge lengths, all finite.  The coefficient lists satisfy dV/ds = A(s)
    exactly.  A coefficient that overflows is a :class:`DomainError`.
    """
    shape_arr = np.asarray(shape, dtype=float)
    if not np.all(np.isfinite(shape_arr)):
        raise DomainError("shape must be finite")
    if shape_arr.ndim == 2 and shape_arr.shape[1] == 2:
        with np.errstate(all="ignore"):  # an overflow shows in the coefficients
            _require_convex_polygon(shape_arr)
            area = _polygon_area_2d(shape_arr)
            perim = float(np.sum(np.linalg.norm(np.roll(shape_arr, -1, axis=0) - shape_arr, axis=1)))
        v, da = (area, perim, math.pi), (perim, 2.0 * math.pi)
    elif shape_arr.shape == (3,):
        a, b, c = shape_arr.tolist()  # Python floats overflow to inf without a warning
        if min(a, b, c) <= 0:
            raise DomainError("box edge lengths must be positive")
        v = (a * b * c, 2.0 * (a * b + b * c + c * a), math.pi * (a + b + c), 4.0 * math.pi / 3.0)
        da = (2.0 * (a * b + b * c + c * a), 2.0 * math.pi * (a + b + c), 4.0 * math.pi)
    else:
        raise DomainError("shape must be an Nx2 polygon vertex array or 3 box edge lengths")
    if not all(map(math.isfinite, v + da)):
        raise DomainError(f"Steiner coefficients {list(v)}, {list(da)} are not all finite")
    return v, da


def steiner_parallel_body(shape, s: float) -> tuple[float, float]:
    """(V(s), A(s)) of the outer parallel body at distance s >= 0; each must be finite."""
    if not 0 <= s < math.inf:
        raise DomainError("parallel-body distance s must be nonnegative and finite")
    vc, ac = steiner_coefficients(shape)
    try:
        v, a = (float(sum(coef * s**i for i, coef in enumerate(c))) for c in (vc, ac))
    except OverflowError:  # s**i in Python floats
        v = a = math.inf
    if not (math.isfinite(v) and math.isfinite(a)):
        raise DomainError(f"V = {v}, A = {a} of the parallel body at s = {s}; both must be finite")
    return v, a


# ------------------------------------------------------------------ #
# Constructors
# ------------------------------------------------------------------ #


def cube_polyhedron(edge: float = 1.0, origin: Sequence[float] = (0.0, 0.0, 0.0)) -> StarPolyhedron:
    o = np.asarray(origin, dtype=float)
    e = float(edge)
    verts = o + e * np.array(
        [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
        dtype=float,
    )
    facets = (
        (0, 3, 2, 1),  # bottom, z = 0
        (4, 5, 6, 7),  # top, z = e
        (0, 1, 5, 4),  # y = 0
        (2, 3, 7, 6),  # y = e
        (0, 4, 7, 3),  # x = 0
        (1, 2, 6, 5),  # x = e
    )
    return StarPolyhedron(3, verts, facets, o + e / 2.0)


def regular_tetrahedron(edge: float = 1.0) -> StarPolyhedron:
    # alternate corners of a cube, scaled to the edge; facet k omits vertex k, CCW from outside
    raw = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)
    verts = raw * (edge / (2.0 * math.sqrt(2.0)))
    return StarPolyhedron(3, verts, ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)), np.zeros(3))
