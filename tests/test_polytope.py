import copy
import dataclasses
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from helpers import regular_polygon, square_polygon, support_function, symmetric_harmonic_mean
from isolab import calculus, families, homogeneity, inequalities, polytope
from isolab.errors import DomainError, GeometryError
from random_shapes import random_convex_polygon, random_convex_polytope, random_interior_point

SQRT2 = math.sqrt(2.0)


def sphere_hull_dual(rng, npoints):
    """Polar dual of the hull of random unit vectors: one polygonal facet in the
    plane u . x = 1 per unit vector u, so it circumscribes the unit ball."""
    u = rng.standard_normal((npoints, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    hull = ConvexHull(u)
    dverts = hull.equations[:, :3] / -hull.equations[:, 3:]
    facets = []
    for i, ui in enumerate(u):
        js = np.flatnonzero((hull.simplices == i).any(axis=1))
        e1 = np.cross(ui, [1.0, 0.0, 0.0] if abs(ui[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(ui, e1)  # (e1, e2, u) right-handed: ascending angle is CCW from outside
        rel = dverts[js] - ui
        facets.append(tuple(js[np.argsort(np.arctan2(rel @ e2, rel @ e1))]))
    return polytope.StarPolyhedron(3, dverts, tuple(facets), np.zeros(3))


def sphere_hull(rng, npoints):
    """Hull of random unit vectors: 2 npoints - 4 triangles, CCW seen from outside."""
    u = rng.standard_normal((npoints, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    hull = ConvexHull(u)
    tri = hull.simplices.copy()
    a, b, c = u[tri[:, 0]], u[tri[:, 1]], u[tri[:, 2]]
    flip = np.sum(np.cross(b - a, c - a) * hull.equations[:, :3], axis=1) < 0
    tri[flip, 1], tri[flip, 2] = tri[flip, 2], tri[flip, 1].copy()
    return polytope.StarPolyhedron(3, u, tuple(map(tuple, tri.tolist())), np.zeros(3))


def l_prism(start):
    """L-shaped prism, cross-section of area 3 and perimeter 8, height 1; its two
    non-convex facets list their vertices from ``start``."""
    base = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    verts = np.vstack([np.c_[base, np.zeros(6)], np.c_[base, np.ones(6)]])
    sides = tuple((i, (i + 1) % 6, 6 + (i + 1) % 6, 6 + i) for i in range(6))
    ring = [(i + start) % 6 for i in range(6)]
    bottom = tuple(reversed(ring))
    top = tuple(6 + i for i in ring)
    return polytope.StarPolyhedron(3, verts, (bottom, top) + sides, np.full(3, 0.5))


def per_facet_geometry(p):
    """Normals, apex altitudes and measures from one facet at a time, as a reference."""
    normals, altitudes, measures = [], [], []
    for facet in p.facets:
        pts = p.vertices[list(facet)]
        if p.dimension == 2:
            e = pts[1] - pts[0]
            measure = float(np.linalg.norm(e))
            n = np.array([e[1], -e[0]]) / measure
        else:
            rel = pts - pts[0]
            newell = np.cross(rel, np.roll(rel, -1, axis=0)).sum(axis=0)
            measure = 0.5 * float(np.linalg.norm(newell))
            n = newell / (2.0 * measure)
        normals.append(n)
        altitudes.append(float(n @ (pts[0] - p.apex)))
        measures.append(measure)
    return np.array(normals), np.array(altitudes), np.array(measures)


# a triangular prism with three quadrilateral facets (0-2) before two triangles
# (3-4), and one spare vertex (6) off the plane x + y = 2 of facet 2
PRISM = np.array(
    [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 1], [2, 0, 1], [0, 2, 1], [2.05, 0, 1]], dtype=float
)
PRISM_FACETS = ((0, 1, 4, 3), (0, 3, 5, 2), (1, 2, 5, 4), (0, 2, 1), (3, 4, 5))
SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)


def prism(**replaced):
    """Arguments of the prism with facet i replaced by ``f<i>=...``."""
    facets = list(PRISM_FACETS)
    for key, facet in replaced.items():
        facets[int(key[1:])] = facet
    return 3, PRISM, tuple(facets), np.array([2 / 3, 2 / 3, 0.5])


class TestStarPolyhedron:
    def test_unit_square_decomposition(self):
        sq = square_polygon(1.0)
        dec = polytope.decompose(sq)
        assert np.allclose(dec.facet_measures, 1.0)
        assert np.allclose(dec.altitudes, 0.5)
        assert np.allclose(dec.pyramid_volumes, 0.25)
        assert dec.total_volume == pytest.approx(1.0)
        assert dec.total_area == pytest.approx(4.0)

    def test_regular_tetrahedron(self):
        tet = polytope.regular_tetrahedron(1.0)
        dec = polytope.decompose(tet)
        inradius = 1 / (2 * math.sqrt(6))
        assert np.allclose(dec.altitudes, inradius, rtol=1e-12)
        assert dec.total_volume == pytest.approx(SQRT2 / 12, abs=1e-12)
        # cross-check against an independent hull volume
        assert dec.total_volume == pytest.approx(ConvexHull(tet.vertices).volume, rel=1e-12)

    def test_apex_outside_rejected(self):
        with pytest.raises(GeometryError, match="interior"):
            square_polygon(1.0).with_apex([2.0, 0.5])

    def test_nonplanar_facet_rejected(self):
        verts = np.array(
            [[0, 0, 0], [1, 0, 0], [1, 1, 0.2], [0, 1, 0],
             [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],
            dtype=float,
        )
        facets = (
            (0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4),
            (2, 3, 7, 6), (0, 4, 7, 3), (1, 2, 6, 5),
        )
        with pytest.raises(GeometryError, match="non-planar"):
            polytope.StarPolyhedron(3, verts, facets, np.array([0.5, 0.5, 0.5]))

    def test_json_roundtrip_and_validation(self):
        cube = polytope.cube_polyhedron(2.0)
        doc = cube.to_json()
        back = polytope.from_json(doc)
        assert polytope.decompose(back).total_volume == pytest.approx(8.0)
        bad = json.loads(doc)
        bad["apex"] = [10.0, 10.0, 10.0]
        with pytest.raises(GeometryError, match="facet"):
            polytope.from_json(json.dumps(bad))
        bad = json.loads(doc)
        bad["facets"][0][0] = -1
        with pytest.raises(GeometryError, match="out of range"):
            polytope.from_json(json.dumps(bad))

    def test_decomposition_consistency_random(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            p = random_convex_polytope(rng, 16)
            dec = polytope.decompose(p)
            hull = ConvexHull(p.vertices)
            assert dec.total_volume == pytest.approx(hull.volume, rel=1e-10)
            assert dec.total_area == pytest.approx(hull.area, rel=1e-10)


    def test_nonconvex_facets_l_prism(self):
        for k in range(6):
            dec = polytope.decompose(l_prism(k))
            assert dec.total_volume == pytest.approx(3.0, rel=1e-12)
            assert dec.total_area == pytest.approx(14.0, rel=1e-12)

    def test_geometry_fixed_at_construction(self):
        cube = polytope.cube_polyhedron(1.0)
        verts = np.array(cube.vertices)
        p = polytope.StarPolyhedron(3, verts, cube.facets, cube.apex)
        before = polytope.decompose(p)
        verts *= 2.0
        after = polytope.decompose(p)
        assert after.total_volume == before.total_volume == pytest.approx(1.0)
        assert after.total_area == before.total_area == pytest.approx(6.0)
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 5.0

    # records holding arrays compare by identity, as InradiusCurve and HomogeneityReport do
    def test_records_compare_by_identity(self):
        p, q = polytope.cube_polyhedron(), polytope.cube_polyhedron()
        dec = polytope.decompose(p)
        assert p == p and p != q and len({p, q}) == 2
        assert dec == dec and dec != polytope.decompose(p) and len({dec}) == 1
        for x in (dec.facet_measures, dec.altitudes, dec.pyramid_volumes):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0


class TestFacetGeometry:
    """The segmented pass, one sequential sum per facet over its run of vertex
    slots, against one facet at a time, and its errors."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: sphere_hull(np.random.default_rng(1), 52), id="hull-100"),
            pytest.param(lambda: sphere_hull(np.random.default_rng(2), 127), id="hull-250"),
            pytest.param(lambda: sphere_hull(np.random.default_rng(3), 202), id="hull-400"),
            # the polar duals of those hulls, with facets of 3 to 11 vertices
            pytest.param(lambda: sphere_hull_dual(np.random.default_rng(1), 52), id="dual-52"),
            pytest.param(lambda: sphere_hull_dual(np.random.default_rng(2), 127), id="dual-127"),
            pytest.param(lambda: sphere_hull_dual(np.random.default_rng(3), 202), id="dual-202"),
            pytest.param(lambda: random_convex_polytope(np.random.default_rng(4), 40), id="random"),
            *(pytest.param(lambda k=k: l_prism(k), id=f"l_prism-{k}") for k in range(6)),
            pytest.param(lambda: polytope.cube_polyhedron(), id="cube"),
            pytest.param(lambda: polytope.cube_polyhedron(2.0, (0.3, -1.2, 5.0)), id="cube-moved"),
            pytest.param(lambda: polytope.regular_tetrahedron(), id="tetrahedron"),
            pytest.param(lambda: regular_polygon(7), id="7-gon"),
            pytest.param(lambda: square_polygon(), id="square"),
        ],
    )
    def test_matches_per_facet_loop(self, build):
        p = build()
        # only the rounding of a length-3 dot product may differ
        for got, want in zip((p.normals, p.altitudes, p.measures), per_facet_geometry(p)):
            np.testing.assert_array_max_ulp(got, want, maxulp=2)

    @pytest.mark.parametrize(
        "args, message",
        [
            (prism(f1=(0, 3, 3, 0), f4=(3, 5, 4)), "facet 1: vanishing area"),
            (prism(f2=(1, 2, 5, 6), f3=(0, 1, 2)),
             "facet 2: non-planar (max deviation 1.756e-02 > 3.034e-09)"),
            (prism(f0=(3, 4, 1, 0), f4=(3, 4)),
             "facet 0: apex is not strictly interior (signed distance -6.667e-01)"),
            # non-planar and reversed: planarity is checked first
            (prism(f2=(6, 5, 2, 1), f4=(3, 5, 4)),
             "facet 2: non-planar (max deviation 1.756e-02 > 3.034e-09)"),
            (prism(f1=(0, 3), f3=(0,)), "facet 1: 3D facets need >= 3 vertices"),
            ((2, SQUARE, ((0, 1), (1, 2, 3), (2, 2), (3, 0)), np.full(2, 0.5)),
             "facet 1: 2D facets are edges of 2 vertices"),
            ((2, SQUARE, ((0, 1), (1, 2), (2, 2), (3, 0, 1)), np.full(2, 0.5)),
             "facet 2: zero-length edge"),
            (prism(f0=(0, 0, 0, 0), f3=(0, 2, 7)), "facet vertex index out of range"),
            (prism(f0=(0, 0, 0, 0), f3=(0, 2, -1)), "facet vertex index out of range"),
            (prism(f0=(0, 0, 0, 0), f3=(0, 2, 2**70)), "facet vertex index out of range"),
            (prism(f0=(3, 4, 1, 0), f4=(3, True, 5)),
             "facet vertex index must be an integer, got True"),
            (prism(f0=(3, 4, 1, 0), f2=(1, 2, 5, 1.5)),
             "facet vertex index must be an integer, got 1.5"),
        ],
    )
    def test_first_bad_facet(self, args, message):
        # messages as the per-facet loop raised them; the lowest-numbered bad
        # facet is reported even when a larger one has fewer vertices
        with pytest.raises(GeometryError) as info:
            polytope.StarPolyhedron(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("facets, index", [
        (l_prism(0).facets + ((), (0, 1)), 8),
        (l_prism(0).facets + ((0, 1), ()), 8),
        (l_prism(0).facets[:3] + ((),) + l_prism(0).facets[3:] + ((0, 1),), 3),
        (l_prism(0).facets[:1] + ((0, 1),) + l_prism(0).facets[1:] + ((),), 1),
    ])
    def test_short_facets_after_mixed_sizes(self, facets, index):
        # hexagons and quadrilaterals before and around an empty and a 2-vertex facet
        with pytest.raises(GeometryError) as info:
            polytope.StarPolyhedron(3, l_prism(0).vertices, facets, l_prism(0).apex)
        assert str(info.value) == f"facet {index}: 3D facets need >= 3 vertices"

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_permuted_facets_permute_the_geometry(self, seed):
        # interleaved sizes: a sum leaking into a neighbouring segment changes bits
        p = sphere_hull_dual(np.random.default_rng(seed), 60)
        perm = np.random.default_rng(seed).permutation(len(p.facets))
        q = polytope.StarPolyhedron(3, p.vertices, tuple(p.facets[i] for i in perm), p.apex)
        assert len({len(f) for f in q.facets}) >= 4
        for got, want in zip((q.normals, q.altitudes, q.measures), (p.normals, p.altitudes, p.measures)):
            assert np.array_equal(got, want[perm])

    def test_pyramid_over_a_1000_gon(self):
        n, radius, height = 1000, 2.0, 3.0
        ang = 2.0 * np.pi * np.arange(n) / n
        verts = np.vstack([np.c_[radius * np.cos(ang), radius * np.sin(ang), np.zeros(n)],
                           [[0.0, 0.0, height]]])
        sides = tuple((i, (i + 1) % n, n) for i in range(n))
        p = polytope.StarPolyhedron(3, verts, (tuple(range(n - 1, -1, -1)),) + sides,
                                    np.array([0.0, 0.0, height / 4]))
        base = 0.5 * n * radius**2 * math.sin(2.0 * math.pi / n)
        assert abs(p.measures[0] - base) <= 1e-12 * base
        assert p.normals[0].tolist() == [0.0, 0.0, -1.0]
        assert polytope.decompose(p).total_volume == pytest.approx(base * height / 3, rel=1e-12)

    def test_integral_float_and_numpy_indices(self):
        plain = polytope.StarPolyhedron(*prism())
        facets = ((0, 1.0, np.int64(4), 3),) + PRISM_FACETS[1:]
        mixed = polytope.StarPolyhedron(3, PRISM, facets, plain.apex)
        assert mixed.facets == PRISM_FACETS
        assert all(type(i) is int for f in mixed.facets for i in f)
        np.testing.assert_array_equal(mixed.normals, plain.normals)

    @pytest.mark.parametrize("facet, message", [
        # one non-int index sends every index through the integer check, then one pass
        ((0, 2.0, 2**70), "facet vertex index out of range"),
        ((0, np.int64(2), -2**70), "facet vertex index out of range"),
        ((0, 2.0, 7), "facet vertex index out of range"),
        ((0, 2, np.True_), f"facet vertex index must be an integer, got {np.True_!r}"),
        ((0, 2, np.float64(1.5)), f"facet vertex index must be an integer, got {np.float64(1.5)!r}"),
    ])
    def test_index_check_then_one_walk(self, facet, message):
        with pytest.raises(GeometryError) as info:
            polytope.StarPolyhedron(*prism(f0=(0, 0, 0, 0), f3=facet))
        assert str(info.value) == message

    def test_index_array_facets(self):
        # an integer array, such as ConvexHull.simplices (int32), is read as Python ints
        hull = sphere_hull(np.random.default_rng(5), 40)
        for dtype in (np.int64, np.int32, np.uint8):
            p = polytope.StarPolyhedron(3, hull.vertices, np.array(hull.facets, dtype=dtype),
                                        hull.apex)
            assert p.facets == hull.facets
            assert all(type(i) is int for f in p.facets for i in f)
            for got, want in zip((p.normals, p.altitudes, p.measures), (hull.normals, hull.altitudes, hull.measures)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, value, message", [
        (float, 2.5, f"facet vertex index must be an integer, got {np.float64(2.5)!r}"),
        (bool, True, f"facet vertex index must be an integer, got {np.True_!r}"),
        (np.int64, 7, "facet vertex index out of range"),
        (np.int64, -1, "facet vertex index out of range"),
        (np.uint64, 2**64 - 1, "facet vertex index out of range"),
    ])
    def test_index_array_rejected(self, dtype, value, message):
        tet = polytope.regular_tetrahedron()
        facets = np.array(tet.facets, dtype=dtype)
        facets[2, 2] = value
        with pytest.raises(GeometryError) as info:
            polytope.StarPolyhedron(3, tet.vertices, facets, tet.apex)
        assert str(info.value) == message

    @pytest.mark.parametrize("args, message", [
        # a cube without its bottom, and a square without its left edge: star-like, not closed
        ((3, polytope.cube_polyhedron().vertices, polytope.cube_polyhedron().facets[1:],
          np.full(3, 0.5)), "the facets do not close: |sum A_i n_i| = 2.000e-01 sum A_i"),
        ((2, SQUARE, ((0, 1), (1, 2), (2, 3)), np.full(2, 0.5)),
         "the facets do not close: |sum A_i n_i| = 3.333e-01 sum A_i"),
        # the apex 3.2e308 below the bottom edge: a distance beyond the float range
        ((2, np.array([[1.5e308, 1.5e308], [1.500000001e308, 1.5e308],
                       [1.500000001e308, 1.500000001e308], [1.5e308, 1.500000001e308]]),
          ((0, 1), (1, 2), (2, 3), (3, 0)), np.array([1.5e308, -1.7e308])),
         "facet 0: apex is not strictly interior (signed distance -3.200e+308)"),
        # an apex 1e308 to the right of a square of side 1e-200 scales to inf: the altitudes
        # of facets 0 and 2 are 0 * inf = NaN, and the facet named is 1, which it is outside
        ((2, np.array([[0, 0], [1e-200, 0], [1e-200, 1e-200], [0, 1e-200]]),
          ((0, 1), (1, 2), (2, 3), (3, 0)), np.array([1e308, 5e-201])),
         "facet 1: apex is not strictly interior (signed distance -inf)"),
    ])
    def test_closed_and_apex_inside(self, args, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError) as info:
                polytope.StarPolyhedron(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        cube = polytope.cube_polyhedron()
        verts = np.array(cube.vertices)
        verts[3, 1] = bad
        with pytest.raises(GeometryError, match="^vertices must be finite$"):
            polytope.StarPolyhedron(3, verts, cube.facets, cube.apex)
        with pytest.raises(GeometryError, match="^apex must be finite$"):
            cube.with_apex([0.5, bad, 0.5])
        square = np.array(SQUARE)
        square[2, 0] = bad
        with pytest.raises(GeometryError, match="^vertices must be finite$"):
            polytope.StarPolyhedron(2, square, ((0, 1), (1, 2), (2, 3), (3, 0)), np.full(2, 0.5))
        doc = json.loads(cube.to_json())
        doc["vertices"][0][0] = bad
        with pytest.raises(GeometryError, match="^vertices must be finite$"):
            polytope.from_json(json.dumps(doc))



class TestScale:
    """Facet geometry at a power-of-two scale, so no square overflows or underflows."""

    @pytest.mark.parametrize("k", [-330, -300, -201, -200, -50, 50, 200, 201, 300, 340])
    def test_cubes_scale_exactly(self, k):
        unit, dec1 = polytope.cube_polyhedron(), polytope.decompose(polytope.cube_polyhedron())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cube = polytope.cube_polyhedron(2.0**k)
            dec = polytope.decompose(cube)
            support_volume = polytope.volume_from_support(cube)
            cohen_residual = polytope.cohen_check(cube, math.ldexp(0.5, k))
        assert cube.normals.tolist() == unit.normals.tolist()
        assert cube.altitudes.tolist() == np.ldexp(unit.altitudes, k).tolist()
        assert cube.measures.tolist() == np.ldexp(unit.measures, 2 * k).tolist()
        assert dec.total_area == math.ldexp(dec1.total_area, 2 * k)
        assert dec.total_volume == math.ldexp(dec1.total_volume, 3 * k)
        assert support_volume == math.ldexp(polytope.volume_from_support(unit), 3 * k)
        assert cohen_residual <= 1e-12

    @pytest.mark.parametrize("k", [-500, 500])
    def test_squares_scale_exactly(self, k):
        square = polytope.StarPolyhedron(2, np.ldexp(SQUARE, k), ((0, 1), (1, 2), (2, 3), (3, 0)),
                                         np.full(2, math.ldexp(0.5, k)))
        assert square.measures.tolist() == [math.ldexp(1.0, k)] * 4

    @pytest.mark.parametrize("edge", [1e77, 1e-80, 1e-90])
    def test_cubes_far_from_unit_size(self, edge):
        dec = polytope.decompose(polytope.cube_polyhedron(edge))
        assert dec.total_area / edge**2 == pytest.approx(6.0, rel=1e-14)
        assert dec.total_volume / edge**3 == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("edge, message", [
        (1e160, "facet 0: area 1.000e+320 is outside the float range"),
        (1e-200, "facet 0: area 1.000e-400 is outside the float range"),
        (1e103, "volume 1.000e+309 is outside the float range"),
        (1e-110, "volume 1.000e-330 is outside the float range"),
    ])
    def test_measure_outside_the_float_range(self, edge, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GeometryError) as info:
                polytope.cube_polyhedron(edge)
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [-1070, -600, -357, -356, -200, -150, 0, 150, 200, 342, 343, 600, 1000])
    def test_regular_tetrahedra_scale(self, k):
        # V = edge**3 / (6 sqrt 2) and each facet area sqrt(3) / 4 edge**2 must be floats
        log2_v, log2_a = 3 * k + math.log2(SQRT2 / 12), 2 * k + math.log2(math.sqrt(3.0) / 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not all(-1074 <= x < 1024 for x in (log2_v, log2_a)):
                with pytest.raises(GeometryError, match="is outside the float range$"):
                    polytope.regular_tetrahedron(2.0**k)
                return
            tet = polytope.regular_tetrahedron(2.0**k)
        assert tet.facets == ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2))
        volume = polytope.decompose(tet).total_volume
        assert volume == pytest.approx(math.ldexp(SQRT2 / 12, 3 * k), rel=1e-12, abs=2.0**-1070)


class TestMeanAltitudes:
    def test_unit_square_center(self):
        dec = polytope.decompose(square_polygon(1.0))
        arith, harm = polytope.mean_altitudes(dec)
        assert arith == pytest.approx(0.5)
        assert harm == pytest.approx(0.5)

    def test_unit_square_off_center_apex(self):
        sq = square_polygon(1.0).with_apex([0.3, 0.6])
        dec = polytope.decompose(sq)
        assert sorted(dec.altitudes) == pytest.approx([0.3, 0.4, 0.6, 0.7])
        arith, harm = polytope.mean_altitudes(dec)
        assert arith == pytest.approx(0.5)  # (0.3+0.7+0.6+0.4)/4, the Tong inradius
        assert harm == pytest.approx(0.5)

    def test_random_polytopes_apex_independent(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            p = random_convex_polytope(rng, 14)
            means = []
            for _ in range(2):
                apex = random_interior_point(p, rng)
                dec = polytope.decompose(p.with_apex(apex))
                arith, harm = polytope.mean_altitudes(dec)
                r_tong = 3 * dec.total_volume / dec.total_area
                assert arith == pytest.approx(r_tong, rel=1e-9)
                assert harm == pytest.approx(r_tong, rel=1e-9)
                means.append(arith)
            assert means[0] == pytest.approx(means[1], rel=1e-9)

    def test_inscribed_ngons_approach_disk_radius(self):
        # means of inscribed regular n-gons tend to the disk radius
        errors = []
        for n in (8, 32, 128, 512):
            dec = polytope.decompose(regular_polygon(n, circumradius=1.0))
            arith, _ = polytope.mean_altitudes(dec)
            errors.append(abs(arith - 1.0))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-4

    def test_constant_perimeter_rhombus_weights(self):
        # rhombus with fixed side: r_quad(s) = (1/2) * area-weighted mean of
        # the altitudes, matching the constant-area special case
        a = 1.0
        inc = families.rhombus_branches(a)[0]
        grid = np.linspace(0.3, SQRT2 - 0.1, 32)
        s0 = float(grid[0])
        curve = calculus.inradius_by_quadrature(inc, s0, inc.volume(s0) / (4 * a), grid)
        for s, r_quad in [(float(g), r) for g, r in zip(curve.s, curve.r)][::6]:
            q = 2 * math.sqrt(a**2 - s**2 / 4)  # other diagonal
            verts = np.array([[s / 2, 0], [0, q / 2], [-s / 2, 0], [0, -q / 2]])
            rh = polytope.StarPolyhedron(
                2, verts, ((0, 1), (1, 2), (2, 3), (3, 0)), np.zeros(2)
            )
            dec = polytope.decompose(rh)
            arith, _ = polytope.mean_altitudes(dec)
            assert r_quad == pytest.approx(arith / 2, abs=1e-8)


class TestSupportFunction:
    def test_square_axis(self):
        verts = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        assert support_function(verts, np.array([1.0, 0.0])) == 1.0

    def test_square_diagonal(self):
        verts = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        u = np.array([1.0, 1.0]) / SQRT2
        assert support_function(verts, u) == pytest.approx(SQRT2, rel=1e-14)

    def test_single_point(self):
        p = np.array([[0.3, -0.4, 1.2]])
        u = np.array([0.0, 0.0, 1.0])
        assert support_function(p, u) == pytest.approx(1.2)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(DomainError):
            support_function(np.eye(2), np.array([1.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            support_function(np.empty((0, 3)), np.array([0.0, 0.0, 1.0]))


class TestVolumeFromSupport:
    def test_cube(self):
        assert polytope.volume_from_support(polytope.cube_polyhedron(2.0)) == pytest.approx(8.0)

    def test_regular_tetrahedron(self):
        v = polytope.volume_from_support(polytope.regular_tetrahedron(1.0))
        assert v == pytest.approx(SQRT2 / 12, abs=1e-12)

    def test_pentagonal_prism(self):
        # mixed facet sizes in one pass: 2 pentagons and 5 quadrilaterals
        ring = np.c_[np.cos(0.4 * np.pi * np.arange(5)), np.sin(0.4 * np.pi * np.arange(5))]
        verts = np.vstack([np.c_[ring, np.zeros(5)], np.c_[ring, np.ones(5)]])
        sides = [(i, (i + 1) % 5, 5 + (i + 1) % 5, 5 + i) for i in range(5)]
        p = polytope.StarPolyhedron(3, verts, [(4, 3, 2, 1, 0), tuple(range(5, 10))] + sides,
                                    [0.0, 0.0, 0.5])
        volume = 2.5 * math.sin(0.4 * math.pi)
        assert abs(polytope.volume_from_support(p) - volume) < 1e-12
        assert polytope.decompose(p).total_volume == pytest.approx(volume, rel=1e-14)

    def test_translated_cube(self):
        cube = polytope.cube_polyhedron(2.0, origin=(10.0, 10.0, 10.0))
        assert polytope.volume_from_support(cube) == pytest.approx(8.0, rel=1e-12)

    def test_matches_decomposition_on_random_polytopes(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            p = random_convex_polytope(rng, 12)
            v_sup = polytope.volume_from_support(p)
            v_dec = polytope.decompose(p).total_volume
            assert v_sup == pytest.approx(v_dec, rel=1e-9)

    def test_blocks_of_facets(self, monkeypatch):
        # blocks of a few facets' products at a time give the bits and errors of one block
        hull = sphere_hull(np.random.default_rng(8), 40)
        cases = [hull, sphere_hull_dual(np.random.default_rng(8), 40), dented(hull, np.random.default_rng(8))]
        whole = [outcome(polytope.volume_from_support, p) for p in cases]
        monkeypatch.setattr(polytope, "_SUPPORT_BLOCK", 7 * len(hull.vertices))
        assert [outcome(polytope.volume_from_support, p) for p in cases] == whole
        assert "not convex" in whole[2]

    def test_nonconvex_rejected(self):
        # a dented square: reflex vertex pulled inside
        verts = np.array([[0, 0], [1, 0], [0.6, 0.3], [0.5, 1]], dtype=float)
        p = polytope.StarPolyhedron(
            2, verts, ((0, 1), (1, 2), (2, 3), (3, 0)), np.array([0.55, 0.1])
        )
        with pytest.raises(GeometryError, match="not convex"):
            polytope.volume_from_support(p)


class TestCohenCheck:
    def test_cube_edge_two(self):
        cube = polytope.cube_polyhedron(2.0)
        assert polytope.cohen_check(cube, 1.0) <= 1e-12

    def test_regular_tetrahedron(self):
        tet = polytope.regular_tetrahedron(1.0)
        assert polytope.cohen_check(tet, 1 / (2 * math.sqrt(6))) <= 1e-12

    def test_non_circumscribing_box_rejected(self):
        box = polytope.cube_polyhedron(1.0)
        stretched = polytope.StarPolyhedron(
            3,
            box.vertices * np.array([1.0, 1.0, 2.0]),
            box.facets,
            box.apex * np.array([1.0, 1.0, 2.0]),
        )
        with pytest.raises(GeometryError, match="circumscribing"):
            polytope.cohen_check(stretched, 0.5)

    def test_polar_dual_of_sphere_hull(self):
        dual = sphere_hull_dual(np.random.default_rng(7), 60)
        assert max(len(f) for f in dual.facets) >= 5
        v_dec = polytope.decompose(dual).total_volume
        assert polytope.volume_from_support(dual) == pytest.approx(v_dec, rel=1e-9)
        assert polytope.cohen_check(dual, 1.0) <= 1e-9

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
    def test_r_not_positive_and_finite_rejected(self, r):
        with pytest.raises(DomainError, match="^inradius r must be positive and finite$"):
            polytope.cohen_check(polytope.cube_polyhedron(2.0), r)


def bbox_diagonal(vertices):
    return math.hypot(*np.ptp(vertices, axis=0).tolist())


def apex_altitudes(p):
    """n_i . (first vertex of facet i - apex), one facet at a time."""
    return np.array([n @ (p.vertices[f[0]] - p.apex) for n, f in zip(p.normals, p.facets)])


def reference_support(p):
    """h(n_i) about the apex and its convexity check, with the diagonal taken from
    the vertices on each call."""
    h = np.max((p.vertices - p.apex) @ p.normals.T, axis=0)
    excess = h - apex_altitudes(p)
    beyond = excess > polytope.CONVEXITY_RTOL * polytope._bbox_diagonal(p.vertices)
    if np.any(beyond):
        idx = int(np.argmax(beyond))
        raise GeometryError(
            f"facet {idx}: vertices beyond the facet plane by {excess[idx]:.3e}; not convex")
    return h


def reference_cohen(p, r):
    reference_support(p)
    dist = apex_altitudes(p)
    off = np.abs(dist - r) > 1e-9 * max(polytope._bbox_diagonal(p.vertices), r)
    if np.any(off):
        idx = int(np.argmax(off))
        raise GeometryError(
            f"facet {idx}: hyperplane distance {float(dist[idx])} != claimed inradius {r}; "
            "polytope is not circumscribing")
    dec = polytope.decompose(p)
    return abs(dec.total_volume - r / p.dimension * dec.total_area) / dec.total_volume


def outcome(f, *args):
    """f's value, or the text of the GeometryError it raises."""
    try:
        return f(*args)
    except GeometryError as exc:
        return str(exc)


def dented(hull, rng):
    """``hull`` with one vertex pulled a tenth of the way in: star-like about 0, not convex."""
    verts = np.array(hull.vertices)
    verts[rng.integers(len(verts))] *= 0.9
    return polytope.StarPolyhedron(3, verts, hull.facets, hull.apex)


class TestDiagonal:
    """The bounding-box diagonal kept with the fixed geometry."""

    @pytest.mark.parametrize("k", [-300, 0, 300])
    def test_equals_hypot_of_the_box_sides(self, k):
        hull = sphere_hull(np.random.default_rng(4), 30)
        for p in (polytope.cube_polyhedron(2.0**k, np.ldexp([0.3, -1.2, 5.0], k)),
                  polytope.StarPolyhedron(3, np.ldexp(hull.vertices, k), hull.facets, np.zeros(3)),
                  polytope.StarPolyhedron(2, np.ldexp(SQUARE, k), ((0, 1), (1, 2), (2, 3), (3, 0)),
                                          np.full(2, math.ldexp(0.5, k)))):
            assert type(p.diagonal) is float
            assert p.diagonal == bbox_diagonal(p.vertices) == polytope._bbox_diagonal(p.vertices)
        assert polytope.cube_polyhedron(2.0**k).diagonal == math.ldexp(math.sqrt(3.0), k)

    def test_not_in_json_repr_or_equality(self):
        cube = polytope.cube_polyhedron(2.0)
        assert set(json.loads(cube.to_json())) == {"dimension", "vertices", "facets", "apex"}
        assert "diagonal" not in repr(cube)
        other = copy.copy(cube)  # the same arrays, another diagonal
        object.__setattr__(other, "diagonal", 2.0 * cube.diagonal)
        assert other != cube and other == other  # == is identity: no field is compared
        with pytest.raises(TypeError):
            polytope.StarPolyhedron(3, cube.vertices, cube.facets, cube.apex, diagonal=1.0)

    def test_recomputed_by_replace_and_with_apex(self):
        cube = polytope.cube_polyhedron(1.0)
        wide = dataclasses.replace(cube, vertices=cube.vertices * [4.0, 1.0, 1.0],
                                   apex=cube.apex * [4.0, 1.0, 1.0])
        assert wide.diagonal == math.sqrt(18.0) == bbox_diagonal(wide.vertices)
        assert cube.diagonal == math.sqrt(3.0)
        moved = wide.with_apex([1.0, 0.25, 0.75])
        assert moved.diagonal == wide.diagonal
        assert polytope.volume_from_support(moved) == 4.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_results_and_errors_as_with_the_diagonal_per_call(self, seed):
        rng = np.random.default_rng(seed)
        npoints = int(rng.integers(52, 203))
        hull, dual = sphere_hull(rng, npoints), sphere_hull_dual(rng, npoints)
        dent = dented(hull, rng)
        for p in (hull, dual, dent):
            assert outcome(polytope.volume_from_support, p) == outcome(
                lambda q: float(q.measures @ reference_support(q)) / q.dimension, p)
        # 1 sits inside the dual's tolerance and 1 + 2e-9 diag outside it
        for p, r in [(dual, 1.0), (dual, 1.0 + 0.5e-9 * dual.diagonal),
                     (dual, 1.0 + 2e-9 * dual.diagonal), (hull, 0.9), (dent, 0.9)]:
            assert outcome(polytope.cohen_check, p, r) == outcome(reference_cohen, p, r)
        assert "not convex" in outcome(polytope.volume_from_support, dent)
        assert "not circumscribing" in outcome(polytope.cohen_check, hull, 0.9)
        assert "not circumscribing" in outcome(polytope.cohen_check, dual, 1.0 + 2e-9 * dual.diagonal)
        assert isinstance(outcome(polytope.cohen_check, dual, 1.0 + 0.5e-9 * dual.diagonal), float)


def far_tetrahedra(rng, count):
    """Rotated unit regular tetrahedra 1e6 to 1e13 from the origin, each with its
    apex a random fraction 1e-12 to 0.1 of the way from a facet's centroid to the
    tetrahedron's, so that many altitudes lie within the coordinates' rounding."""
    unit = polytope.regular_tetrahedron()
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        u = rng.standard_normal(3)
        centre = u / np.linalg.norm(u) * 10.0 ** rng.uniform(6, 13)
        verts = unit.vertices @ q.T + centre
        facet = list(unit.facets[rng.integers(4)])
        t = 10.0 ** rng.uniform(-12, -1)
        yield verts, unit.facets, centre + (1.0 - t) * (verts[facet].mean(axis=0) - centre)


def exact_altitudes(p):
    """Each facet's apex altitude from the exact Fraction values of the floats;
    exact in sign, the square root of |n|^2 rounded once."""
    verts = [list(map(Fraction, v)) for v in p.vertices.tolist()]
    apex = list(map(Fraction, p.apex.tolist()))
    out = []
    for a, b, c in (map(verts.__getitem__, f) for f in p.facets):
        u, v = [bi - ai for ai, bi in zip(a, b)], [ci - ai for ai, ci in zip(a, c)]
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        length = Fraction(math.sqrt(sum(ni * ni for ni in n)))
        out.append(sum(ni * (ai - qi) for ni, ai, qi in zip(n, a, apex)) / length)
    return out


# a tetrahedron of the kind above whose apex altitude to facet 2 is within the rounding
FAR_TETRAHEDRON = """{"dimension": 3, "vertices": [
  [-7835462.376782649, -11733656.258788306, -7505090.497300938],
  [-7835462.625328396, -11733655.395775855, -7505090.937112852],
  [-7835461.895547222, -11733655.416709524, -7505090.25375261],
  [-7835462.846559217, -11733655.547947096, -7505089.973836756]],
 "facets": [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]],
 "apex": [-7835462.616223419, -11733655.73417042, -7505090.469416848]}"""


class TestAltitudes:
    """The apex altitudes kept with the fixed geometry: one array for the apex
    test, decompose and cohen_check."""

    def test_far_tetrahedra_that_construct_decompose(self):
        # taken in the apex frame, no altitude cancels: each accepted apex is
        # interior in exact arithmetic on the same floats, and the support
        # volume of the convex tetrahedron agrees with the decomposition
        built = 0
        for verts, facets, apex in far_tetrahedra(np.random.default_rng(0), 1000):
            try:
                p = polytope.StarPolyhedron(3, verts, facets, apex)
            except GeometryError as exc:
                assert "apex is not strictly interior" in str(exc)
                continue
            built += 1
            dec = polytope.decompose(p)
            assert (dec.altitudes > 0).all() and dec.total_volume > 0
            exact = exact_altitudes(p)
            assert min(exact) > 0
            assert np.abs(p.altitudes - [float(a) for a in exact]).max() <= 1e-14
            v_sup = polytope.volume_from_support(p)
            assert abs(v_sup - dec.total_volume) <= 1e-12 * dec.total_volume
        assert 200 < built < 1000

    def test_far_tetrahedron_document(self):
        # its exact altitude to facet 2 is 1.2432e-9, inside the tolerance 1.6e-9
        assert outcome(polytope.from_json, FAR_TETRAHEDRON) == (
            "facet 2: apex is not strictly interior (signed distance 1.243e-09)")

    @pytest.mark.parametrize("k", [0, 1, -1, 200, -200, 201, -201, 300, -300])
    def test_scale_exactly_across_sizes(self, k):
        hull = sphere_hull_dual(np.random.default_rng(5), 40)
        polygon = regular_polygon(9)
        for p, apex in [(hull, [0.1, -0.2, 0.05]), (polygon, [0.2, 0.1])]:
            unit = p.with_apex(apex)
            big = polytope.StarPolyhedron(p.dimension, np.ldexp(p.vertices, k), p.facets,
                                          np.ldexp(apex, k))
            assert big.normals.tobytes() == unit.normals.tobytes()
            assert big.altitudes.tobytes() == np.ldexp(unit.altitudes, k).tobytes()
            measures = np.ldexp(unit.measures, (p.dimension - 1) * k)
            assert big.measures.tobytes() == measures.tobytes()

    def test_one_fixed_array(self):
        hull = sphere_hull(np.random.default_rng(6), 60).with_apex([0.1, 0.2, -0.3])
        assert hull.altitudes.tobytes() == apex_altitudes(hull).tobytes()
        assert "offsets" not in {f.name for f in dataclasses.fields(hull)}
        assert polytope.decompose(hull).altitudes is hull.altitudes
        with pytest.raises(ValueError):
            hull.altitudes[0] = 1.0
        assert set(json.loads(hull.to_json())) == {"dimension", "vertices", "facets", "apex"}
        assert "altitudes" not in repr(hull)
        other = copy.copy(hull)
        object.__setattr__(other, "altitudes", 2.0 * hull.altitudes)
        assert other != hull and other == other  # == is identity: no field is compared
        with pytest.raises(TypeError):
            polytope.StarPolyhedron(3, hull.vertices, hull.facets, hull.apex, altitudes=None)

    def test_recomputed_by_replace_and_with_apex(self):
        cube = polytope.cube_polyhedron(1.0)
        assert cube.altitudes.tolist() == [0.5] * 6
        moved = cube.with_apex([0.25, 0.5, 0.5])
        assert moved.altitudes.tolist() == [0.5, 0.5, 0.5, 0.5, 0.25, 0.75]
        wide = dataclasses.replace(cube, vertices=cube.vertices * [4.0, 1.0, 1.0],
                                   apex=cube.apex * [4.0, 1.0, 1.0])
        assert wide.altitudes.tolist() == [0.5, 0.5, 0.5, 0.5, 2.0, 2.0]


class TestLiftCylinder:
    def test_disks_to_cylinders(self):
        disk = families.builtin("disk")
        lifted = homogeneity.lift_cylinder(disk, rho=lambda s: s, drho=lambda s: 1.0)
        assert lifted.dimension == 3
        for s in (0.5, 1.0, 2.5):
            v, a = families.evaluate(lifted, s)
            assert v == pytest.approx(2 * math.pi * s**3, rel=1e-14)
            assert a == pytest.approx(6 * math.pi * s**2, rel=1e-14)
            assert inequalities.tong_inradius(3, v, a) == pytest.approx(s, rel=1e-12)

    def test_squares_to_cubes(self):
        squares = families.FamilySpec(
            id="squares_2s",
            dimension=2,
            domain=((0.0, math.inf),),
            volume=lambda s: 4 * s**2,
            area=lambda s: 8 * s,
            dvolume=lambda s: 8 * s,
        )
        lifted = homogeneity.lift_cylinder(squares, rho=lambda s: s)
        v, a = families.evaluate(lifted, 1.5)
        assert v == pytest.approx((2 * 1.5) ** 3)
        assert a == pytest.approx(6 * (2 * 1.5) ** 2)
        assert inequalities.tong_inradius(3, v, a) == pytest.approx(1.5)

    def test_disks_with_doubled_height(self):
        disk = families.builtin("disk")
        lifted = homogeneity.lift_cylinder(disk, rho=lambda s: 2 * s)
        for s in (0.5, 1.0, 3.0):
            v, a = families.evaluate(lifted, s)
            r = inequalities.tong_inradius(3, v, a)
            assert r == pytest.approx(symmetric_harmonic_mean([s, s, 2 * s]), rel=1e-12)
            assert r == pytest.approx(6 * s / 5, rel=1e-12)

    def test_non_homogeneous_base_rejected(self):
        fam = families.builtin("rect_fixed_length", a=1.0)
        with pytest.raises(DomainError, match="not homogeneous"):
            homogeneity.lift_cylinder(fam, rho=lambda s: s)


class TestSteiner:
    def test_unit_square_at_zero(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polytope.steiner_parallel_body(sq, 0.0) == pytest.approx((1.0, 4.0))

    def test_unit_square_at_one(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        v, a = polytope.steiner_parallel_body(sq, 1.0)
        assert v == pytest.approx(1 + 4 + math.pi, rel=1e-14)
        assert a == pytest.approx(4 + 2 * math.pi, rel=1e-14)

    def test_unit_cube_derivative_identity(self):
        vc, ac = polytope.steiner_coefficients((1.0, 1.0, 1.0))
        assert vc == pytest.approx((1.0, 6.0, 3 * math.pi, 4 * math.pi / 3))
        # coefficient identity dV/ds = A
        assert tuple((i + 1) * vc[i + 1] for i in range(len(ac))) == pytest.approx(ac)

    def test_derivative_matches_area_by_fd(self):
        rng = np.random.default_rng(5)
        shapes = [random_convex_polygon(rng, 12) for _ in range(4)]
        shapes += [tuple(rng.uniform(0.5, 3.0, 3)) for _ in range(3)]
        for shape in shapes:
            for s in (0.1, 1.0, 10.0):
                dv = calculus.derivative(lambda t: polytope.steiner_parallel_body(shape, t)[0], s)
                a = polytope.steiner_parallel_body(shape, s)[1]
                assert abs(dv - a) / a <= 1e-8

    def test_negative_distance_rejected(self):
        with pytest.raises(DomainError):
            polytope.steiner_parallel_body((1.0, 1.0, 1.0), -0.1)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -0.1])
    def test_distance_not_nonnegative_and_finite_rejected(self, s):
        with pytest.raises(DomainError) as info:
            polytope.steiner_parallel_body((1.0, 1.0, 1.0), s)
        assert str(info.value) == "parallel-body distance s must be nonnegative and finite"

    def test_nonconvex_polygon_rejected(self):
        verts = np.array([[0, 0], [2, 0], [1, 0.2], [1, 2]], dtype=float)
        with pytest.raises(GeometryError, match="convex"):
            polytope.steiner_parallel_body(verts, 0.5)

    @pytest.mark.parametrize(
        "pts, index",
        [
            ([[0, 0], [2, 0], [1, 0.2], [2, 2], [1, 1.8], [0, 2]], 2),
            ([[1, 0.2], [2, 0], [2, 2], [1, 1.8], [0, 2], [0, 0]], 3),
            ([[1, 0.2], [2, 0], [2, 2], [0, 2], [0, 0]], 0),
        ],
    )
    def test_first_reflex_vertex_named(self, pts, index):
        with pytest.raises(GeometryError) as info:
            polytope.steiner_coefficients(np.array(pts, dtype=float))
        assert str(info.value) == f"reflex vertex at index {index}; polygon not convex"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_shape_rejected(self, bad):
        polygon = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        polygon[2, 1] = bad
        for shape in ((bad, 1.0, 1.0), (1.0, 1.0, -bad), polygon):
            with pytest.raises(DomainError, match="^shape must be finite$"):
                polytope.steiner_coefficients(shape)
            with pytest.raises(DomainError, match="^shape must be finite$"):
                polytope.steiner_parallel_body(shape, 1.0)

    # a square of area 1e320 and a box of volume 1e600
    @pytest.mark.parametrize("shape", [
        np.array([[0, 0], [1e160, 0], [1e160, 1e160], [0, 1e160]], dtype=float),
        (1e200, 1e200, 1e200),
    ])
    def test_overflowing_coefficients_rejected(self, shape):
        with pytest.raises(DomainError, match="^Steiner coefficients .* are not all finite$"):
            polytope.steiner_coefficients(shape)
        with pytest.raises(DomainError, match="^Steiner coefficients .* are not all finite$"):
            polytope.steiner_parallel_body(shape, 1.0)

    # finite coefficients: s**3 overflows in Python floats, or 2e300 s overflows to inf
    @pytest.mark.parametrize("shape, s, v, a", [
        ((1.0, 1.0, 1.0), 1e200, "inf", "inf"),
        ((1e200, 1e100, 1.0), 1e10, "inf", repr(2e300 + 2 * math.pi * (1e200 + 1e100 + 1) * 1e10)),
    ])
    def test_overflowing_parallel_body_rejected(self, shape, s, v, a):
        with pytest.raises(DomainError) as info:
            polytope.steiner_parallel_body(shape, s)
        assert str(info.value) == (
            f"V = {v}, A = {a} of the parallel body at s = {s!r}; both must be finite")
