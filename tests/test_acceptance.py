"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line so
``pytest -s tests/test_acceptance.py`` doubles as a human-readable report.
"""

import math
import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from isolab import calculus, families, homogeneity, inequalities, polytope, search
from random_shapes import random_convex_polygon, random_convex_polytope, random_interior_point

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_01_kmin_table():
    t0 = time.perf_counter()
    rows = search.kmin_table(starts=16, tol=1e-10, seed=0)
    elapsed = time.perf_counter() - t0
    expected = {
        "triangle_sides": 12 * SQRT3,
        "right_triangle": 2 * (2 + SQRT2) ** 2,
        "box3": 216.0,
        "cylinder": 54 * math.pi,
        "cone": 72 * math.pi,
        "square_pyramid": 288.0,
        "ring_torus": 16 * math.pi**2,
    }
    for n in range(3, 13):
        expected[f"ngon_{n}"] = 4 * n * math.tan(math.pi / n)
    assert len(rows) == len(expected)
    for row in rows:
        analytic = expected[row["class_id"]]
        assert row["error"] is None, row
        assert row["analytic_kmin"] == pytest.approx(analytic, rel=1e-12)
        tol = 1e-4 if row["class_id"] == "ring_torus" else 1e-6
        rel = abs(row["computed_kmin"] - analytic) / analytic
        assert rel <= tol, row
        if row["class_id"] == "ring_torus":
            assert row["attained"] is False
    assert elapsed < 30.0
    _report(1, f"all {len(rows)} table rows match analytic minima ({elapsed:.1f}s)")


def test_02_derivative_relation_all_builtins():
    cases = [
        (families.builtin("cube"), np.linspace(0.5, 4.0, 40)),
        (families.builtin("disk"), np.linspace(0.5, 4.0, 40)),
        (families.builtin("ball"), np.linspace(0.5, 4.0, 40)),
        (families.builtin("rect_fixed_length", a=1.0), np.linspace(0.5, 4.0, 40)),
        (families.builtin("rect_similar", k=0.5), np.linspace(0.5, 4.0, 40)),
        (families.builtin("hexagon_120"), np.linspace(0.2, 3.0, 40)),
        (families.builtin("ngon", n=7), np.linspace(0.5, 4.0, 40)),
        (families.rhombus_branches(1.0)[0], np.linspace(0.1, SQRT2 - 0.05, 40)),
        (families.rhombus_branches(1.0)[1], np.linspace(SQRT2 + 0.05, 1.95, 40)),
    ]
    for fam, grid in cases:
        curve = calculus.inradius_by_quadrature(fam, float(grid[0]), 0.0, grid)
        report = calculus.verify_derivative_relation(fam, curve, rtol=1e-6)
        assert report.passes, (fam.id, report.max_relative_deviation)
    _report(2, f"dV/dr = A at rtol 1e-6 on {len(cases)} monotone branches")


def test_03_hexagon_discovery():
    report = homogeneity.classify(families.builtin("hexagon_120"), np.linspace(0.1, 5.0, 64))
    assert report.verdict == "homogeneous"
    assert report.q_center == pytest.approx(32 / SQRT3, rel=1e-9)
    _report(3, "hexagon_120 classified homogeneous with k = 32/sqrt(3) within 1e-9")


def test_04_parallelogram_curve():
    par = families.builtin("parallelogram3")
    fixed = {0: lambda s: math.sqrt(s), 1: lambda s: s - math.sqrt(s)}
    lo, hi = 24 - 16 * SQRT2, 24 + 16 * SQRT2
    delta = 0.05
    for s in np.linspace(lo + delta, hi - delta, 40):
        s = float(s)
        root = search.solve_coordinate(par, 32.0, fixed, 2, s)
        assert root == pytest.approx(math.asin((s / 8) / (math.sqrt(s) - 1)), abs=1e-9)
        x = np.array([math.sqrt(s), s - math.sqrt(s), root])
        assert par.volume(x) == pytest.approx(s**2 / 8, abs=1e-9 * s**2)
        assert par.area(x) == pytest.approx(2 * s, abs=1e-9 * s)
    _report(4, "x3(s) = arcsin((s/8)/(sqrt(s)-1)) with A = s^2/8, P = 2s within 1e-9")


def test_05_cube_identities():
    cube = families.builtin("cube")
    grid = np.linspace(0.5, 4.0, 48)
    curve = calculus.inradius_by_quadrature(cube, 0.0, 0.0, grid)
    assert np.max(np.abs(np.asarray(curve.r) - np.asarray(curve.s) / 2)) <= 1e-8
    for s, r in zip(curve.s, curve.r):
        assert cube.volume(s) == pytest.approx(8 * r**3, rel=1e-6)
        assert cube.area(s) == pytest.approx(24 * r**2, rel=1e-6)
    _report(5, "cube r(s) = s/2 within 1e-8; V = 8r^3 and A = 24r^2 within 1e-6")


def test_06_starlike_means():
    rng = np.random.default_rng(20240817)
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
    _report(6, "weighted altitude means equal 3V/A and are apex-independent, 20 polytopes")


def test_07_support_and_cohen():
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        p = random_convex_polytope(rng, 14)
        v_sup = polytope.volume_from_support(p)
        v_dec = polytope.decompose(p).total_volume
        assert v_sup == pytest.approx(v_dec, rel=1e-9)
    assert polytope.cohen_check(polytope.cube_polyhedron(2.0), 1.0) <= 1e-12
    tet = polytope.regular_tetrahedron(1.0)
    assert polytope.cohen_check(tet, 1 / (2 * math.sqrt(6))) <= 1e-12
    _report(7, "support-function volume within 1e-9; Cohen residual <= 1e-12 for cube and tetrahedron")


def test_08_cylinder_lifting():
    disk = families.builtin("disk")
    same = homogeneity.lift_cylinder(disk, rho=lambda s: s, drho=lambda s: 1.0)
    double = homogeneity.lift_cylinder(disk, rho=lambda s: 2 * s, drho=lambda s: 2.0)
    for s in np.linspace(0.4, 5.0, 12):
        s = float(s)
        v, a = families.evaluate(same, s)
        assert inequalities.tong_inradius(3, v, a) == pytest.approx(s, rel=1e-10)
        v, a = families.evaluate(double, s)
        assert inequalities.tong_inradius(3, v, a) == pytest.approx(6 * s / 5, rel=1e-10)
    _report(8, "lifted disks: Tong inradius s and 6s/5 within 1e-10")


def test_09_bonnesen_suite():
    sample_cases = [
        (families.builtin("cube"), np.linspace(0.5, 4, 16)),
        (families.builtin("ball"), np.linspace(0.5, 4, 16)),
        (families.builtin("disk"), np.linspace(0.5, 4, 16)),
        (families.builtin("hexagon_120"), np.linspace(0.2, 3, 16)),
        (families.builtin("rect_fixed_length", a=1.0), np.linspace(0.5, 4, 16)),
        (families.rhombus_branches(1.0)[0], np.linspace(0.1, 1.3, 16)),
    ]
    for fam, grid in sample_cases:
        for s in grid:
            v, a = families.evaluate(fam, float(s))
            assert inequalities.bonnesen_general(fam.dimension, v, a).all_hold
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = random_convex_polytope(rng, 12)
        dec = polytope.decompose(p)
        assert inequalities.bonnesen_general(3, dec.total_volume, dec.total_area).all_hold
    # ball equalities
    for rho in (0.5, 1.0, 2.0):
        rep = inequalities.bonnesen_general(3, 4 / 3 * math.pi * rho**3, 4 * math.pi * rho**2)
        for row in rep.rows:
            scale = max(abs(row.lhs), abs(row.rhs), 1.0)
            assert abs(row.lhs - row.rhs) <= 1e-12 * scale
    # algebraic identity linking the first row to the deficit
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        v, a = float(rng.uniform(0.1, 10)), float(rng.uniform(1, 50))
        kd = inequalities.kappa(d)
        r = d * v / a
        lhs = (a - d * kd * r ** (d - 1)) ** d * a ** (d * (d - 1))
        rhs = inequalities.deficit(d, v, a) ** d
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9 * abs(rhs) + 1e-30)
    _report(9, "all Bonnesen rows hold; ball equality at 1e-12; deficit identity at 1e-9")


def test_10_steiner():
    rng = np.random.default_rng(31)
    shapes = [random_convex_polygon(rng, 12) for _ in range(10)]
    shapes += [tuple(rng.uniform(0.5, 3.0, 3)) for _ in range(5)]
    for shape in shapes:
        vc, ac = polytope.steiner_coefficients(shape)
        derived = tuple((i + 1) * vc[i + 1] for i in range(len(ac)))
        assert derived == pytest.approx(ac, rel=1e-12)
        for s in (0.1, 1.0, 10.0):
            dv = calculus.derivative(lambda t: polytope.steiner_parallel_body(shape, t)[0], s)
            a = polytope.steiner_parallel_body(shape, s)[1]
            assert abs(dv - a) / a <= 1e-8
    _report(10, "dV/ds = A by coefficients and by finite differences on 15 shapes")


def test_11_elasticity():
    a = 1.0
    inc = families.rhombus_branches(a)[0]
    grid = np.linspace(0.1, SQRT2 - 0.1, 40)
    s0 = float(grid[0])
    curve = calculus.inradius_by_quadrature(inc, s0, inc.volume(s0) / (4 * a), grid)
    for s in (0.3, 0.7, 1.1):
        assert homogeneity.elasticity(inc, curve, s) == pytest.approx(1.0, rel=1e-8)

    homogeneous = [
        (families.builtin("cube"), np.linspace(0.5, 4, 40)),
        (families.builtin("disk"), np.linspace(0.5, 4, 40)),
        (families.builtin("ball"), np.linspace(0.5, 4, 40)),
        (families.builtin("rect_similar", k=0.5), np.linspace(0.5, 4, 40)),
        (families.builtin("ngon", n=6), np.linspace(0.5, 4, 40)),
        (families.builtin("hexagon_120"), np.linspace(0.2, 3, 40)),
    ]
    for fam, grid in homogeneous:
        s0 = float(grid[0])
        c = fam.dimension * fam.volume(s0) / fam.area(s0)
        curve = calculus.inradius_by_quadrature(fam, s0, c, grid)
        for s in np.linspace(grid[4], grid[-5], 5):
            e = homogeneity.elasticity(fam, curve, float(s))
            assert e == pytest.approx(fam.dimension, rel=1e-6), fam.id
    _report(11, "rhombus elasticity 1 within 1e-8; homogeneous families report e = d within 1e-6")
