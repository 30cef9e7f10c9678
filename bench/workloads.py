"""The in-process workloads: inputs generated from the seed, operations and gates.

Each workload is one cycle of operations that the worker repeats.  Every
cycle is identical, so evaluator counts per cycle repeat exactly for a seed.
Gate bounds are those of the test suite (tests/test_acceptance.py,
tests/test_search.py, tests/test_calculus.py); they are not loosened here.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import ConvexHull

from isolab import calculus, families, homogeneity, polytope, search
from stats import Op, Workload

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ------------------------------------------------------------------ #
# shape_search: scalar Q calls through Nelder-Mead and Newton correctors
# ------------------------------------------------------------------ #

KMIN_STARTS = 16
KMIN_TOL = 1e-10
KMIN_ROUNDS = 2  # k_min-table passes per cycle, each with its own kmin seed
TRACE_STEPS = 200
LEVEL_K = 32.0
PAR_FIXED = {0: lambda s: math.sqrt(s), 1: lambda s: s - math.sqrt(s)}
PAR_S_RANGE = (24.0 - 16.0 * SQRT2, 24.0 + 16.0 * SQRT2)  # where Q = 32 has a root


def _kmin_rows() -> list[tuple[str, object, float]]:
    """The k_min table classes, built the way search.kmin_table builds them."""
    rows = [
        ("triangles", families.builtin("triangle_sides"), 12.0 * SQRT3),
        ("right_triangles", families.builtin("right_triangle"), 2.0 * (2.0 + SQRT2) ** 2),
    ]
    rows += [
        (f"ngon_{n}", families.as_nparam(families.builtin("ngon", n=n)), 4.0 * n * math.tan(math.pi / n))
        for n in range(3, 13)
    ]
    rows += [
        ("boxes", families.builtin("box3"), 216.0),
        ("cylinders", families.builtin("cylinder"), 54.0 * math.pi),
        ("cones", families.builtin("cone"), 72.0 * math.pi),
        ("square_pyramids", families.builtin("square_pyramid"), 288.0),
        ("ring_tori", families.builtin("ring_torus"), 16.0 * math.pi**2),
    ]
    return rows


def _kmin_op(tr, class_id: str, nfam, analytic: float, seed: int) -> Op:
    bound = 1e-4 if class_id == "ring_tori" else 1e-6

    def call():
        with tr.span("search.kmin"):
            return search.kmin(nfam, starts=KMIN_STARTS, tol=KMIN_TOL, seed=seed)

    def check(res):
        if _rel(res.kmin, analytic) > bound:
            return f"kmin {res.kmin!r} vs analytic {analytic!r}: rel {_rel(res.kmin, analytic):.2e} > {bound:g}"
        if class_id == "ring_tori" and res.attained:
            return "ring_tori infimum reported as attained"
        return None

    return Op(f"kmin:{class_id}:seed{seed}", "kmin", call, check)


def _trace_op(tr, par, x0: np.ndarray) -> Op:
    def call():
        with tr.span("search.trace_level_set"):
            curve = search.trace_level_set(par, LEVEL_K, x0, steps=TRACE_STEPS)
        tr.count("search.trace_level_set.requested", TRACE_STEPS)
        tr.count("search.trace_level_set.accepted", len(curve.points) - 1)
        return curve

    def check(curve):
        if len(curve.points) < 2:
            return "trace made no step"
        worst = max(curve.residuals)
        return None if worst <= 1e-9 else f"level-set residual {worst:.2e} > 1e-9"

    return Op(f"trace:{x0.tolist()}", "trace", call, check)


def _solve_op(tr, par, s: float) -> Op:
    expected = math.asin((s / 8.0) / (math.sqrt(s) - 1.0))

    def call():
        with tr.span("search.solve_coordinate"):
            return search.solve_coordinate(par, LEVEL_K, PAR_FIXED, 2, s)

    def check(root):
        return None if abs(root - expected) <= 1e-9 else f"root {root!r} vs arcsin branch {expected!r}"

    return Op(f"solve:s={s}", "solve", call, check)


def shape_search(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    kmin_seeds = [int(v) for v in rng.integers(0, 2**31 - 1, KMIN_ROUNDS)]
    # start points on Q = 32: sin(theta) = (a + b)^2 / (8ab) for sides a, b
    starts = []
    for _ in range(2 * KMIN_ROUNDS):
        a, b = rng.uniform(1.0, 3.0, 2)
        starts.append(np.array([a, b, math.asin((a + b) ** 2 / (8.0 * a * b))]))
    lo, hi = PAR_S_RANGE
    solve_s = [float(v) for v in rng.uniform(lo + 0.2, hi - 0.2, 4 * KMIN_ROUNDS)]
    rows = _kmin_rows()
    par = families.builtin("parallelogram3")

    def build(tr) -> list[Op]:
        wrapped = [(cid, tr.wrap(nfam), analytic) for cid, nfam, analytic in rows]
        wpar = tr.wrap(par)
        trace_in, solve_in = iter(starts), iter(solve_s)
        ops = []
        for kseed in kmin_seeds:
            for i, (cid, nfam, analytic) in enumerate(wrapped):
                ops.append(_kmin_op(tr, cid, nfam, analytic, kseed))
                if i % 4 == 1:
                    ops.append(_solve_op(tr, wpar, next(solve_in)))
                if i % 8 == 7:
                    ops.append(_trace_op(tr, wpar, next(trace_in)))
        return ops

    return Workload(build, nominal_cycle_s=2.2)


# ------------------------------------------------------------------ #
# family_scan: evaluators over whole grids in Python loops
# ------------------------------------------------------------------ #

CLASSIFY_POINTS = (2000, 1600, 1300, 1000, 800, 650, 500, 400, 300, 250)
RELATION_POINTS = (1000, 800, 650, 500, 400, 300, 250, 200, 150, 100)
AREA_CHECK_POINTS = 1000
PARTITION_POINTS = 2000
PARTITION_REFINE = 1e-8


def _square(s):
    return s * s


def _scan_cases(rng) -> list[tuple[object, float, float, float | None]]:
    """(family, grid lo, grid hi, analytic Q or None when not homogeneous)."""
    k = float(rng.uniform(0.2, 0.8))
    n = int(rng.integers(3, 13))
    a_rect = float(rng.uniform(0.5, 2.0))
    a_rh = float(rng.uniform(0.5, 2.0))
    inc, dec = families.rhombus_branches(a_rh)
    # dvolume dropped by the reparameterization: quadrature differentiates V numerically
    reparam = calculus.reparameterize(families.builtin("hexagon_120"), _square, (0.0, math.inf))

    def span(lo_lo, lo_hi, hi_lo, hi_hi):
        return float(rng.uniform(lo_lo, lo_hi)), float(rng.uniform(hi_lo, hi_hi))

    return [
        (families.builtin("hexagon_120"), *span(0.1, 0.3, 3.0, 5.0), 32.0 / SQRT3),
        (families.builtin("cube"), *span(0.2, 0.5, 3.0, 5.0), 216.0),
        (inc, *span(0.04 * a_rh, 0.06 * a_rh, (SQRT2 - 0.06) * a_rh, (SQRT2 - 0.04) * a_rh), None),
        (families.builtin("ngon", n=n), *span(0.2, 0.5, 3.0, 5.0), 4.0 * n * math.tan(math.pi / n)),
        (reparam, *span(0.4, 0.6, 1.6, 2.0), 32.0 / SQRT3),
        (families.builtin("rect_fixed_length", a=a_rect), *span(0.2, 0.5, 3.0, 5.0), None),
        (families.builtin("ball"), *span(0.2, 0.5, 3.0, 5.0), 36.0 * math.pi),
        (dec, *span((SQRT2 + 0.04) * a_rh, (SQRT2 + 0.06) * a_rh, 1.94 * a_rh, 1.96 * a_rh), None),
        (families.builtin("rect_similar", k=k), *span(0.2, 0.5, 3.0, 5.0), 4.0 * (1.0 + k) ** 2 / k),
        (families.builtin("disk"), *span(0.2, 0.5, 3.0, 5.0), 4.0 * math.pi),
    ]


def _classify_op(tr, fam, grid, analytic) -> Op:
    want = "not_homogeneous" if analytic is None else "homogeneous"

    def call():
        with tr.span("homogeneity.classify"):
            return homogeneity.classify(fam, grid)

    def check(rep):
        if rep.verdict != want:
            return f"verdict {rep.verdict}, expected {want}"
        if analytic is not None and _rel(rep.k_constant, analytic) > 1e-9:
            return f"k {rep.k_constant!r} vs analytic {analytic!r}"
        return None

    return Op(f"classify:{fam.id}:{len(grid)}", "classify", call, check)


def _relation_op(tr, fam, grid) -> Op:
    def call():
        with tr.span("calculus.inradius_by_quadrature"):
            curve = calculus.inradius_by_quadrature(fam, float(grid[0]), 0.0, grid)
        with tr.span("calculus.verify_derivative_relation"):
            return calculus.verify_derivative_relation(fam, curve, rtol=1e-6)

    def check(rep):
        return None if rep.passes else f"dV/dr deviates by {rep.max_relative_deviation:.2e} > 1e-6"

    return Op(f"relation:{fam.id}:{len(grid)}", "relation", call, check)


def _area_check_op(tr, fam, grid, constant: bool) -> Op:
    def call():
        with tr.span("homogeneity.constant_area_check"):
            return homogeneity.constant_area_check(fam, grid)

    def check(result):
        return None if result is constant else f"constant_area_check gave {result}, expected {constant}"

    return Op(f"area_check:{fam.id}", "area_check", call, check)


def _partition_op(tr, v, grid, breakpoints: list[float]) -> Op:
    def call():
        with tr.span("calculus.monotone_partition"):
            return calculus.monotone_partition(v, grid, PARTITION_REFINE)

    def check(parts):
        found = [hi for _, hi in parts[:-1]]
        if len(parts) != len(breakpoints) + 1 or parts[0][0] != grid[0] or parts[-1][1] != grid[-1]:
            return f"partition {parts} does not match breakpoints {breakpoints}"
        if any(abs(f - b) > 1e-6 for f, b in zip(found, breakpoints)):
            return f"breakpoints {found} vs {breakpoints} (bound 1e-6)"
        return None

    return Op(f"partition:{len(breakpoints)}", "partition", call, check)


def family_scan(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cases = _scan_cases(rng)
    grids = []
    for (_, lo, hi, _), nc, nr in zip(cases, CLASSIFY_POINTS, RELATION_POINTS):
        grids.append((np.linspace(lo, hi, nc), np.linspace(lo, hi, nr), np.linspace(lo, hi, AREA_CHECK_POINTS)))
    rhombus = cases[2][0]
    a_rh = rhombus.params["a"]
    partitions = [  # (case index, grid, breakpoints); the rhombus volume is used over both branches
        (2, np.linspace(0.05 * a_rh, 1.95 * a_rh, PARTITION_POINTS), [SQRT2 * a_rh]),
        (0, np.linspace(cases[0][1], cases[0][2], PARTITION_POINTS), []),
        (5, np.linspace(cases[5][1], cases[5][2], PARTITION_POINTS), []),
    ]

    def build(tr) -> list[Op]:
        wrapped = [tr.wrap(fam) for fam, _, _, _ in cases]
        ops = []
        for wfam, (fam, _, _, analytic), (gc, gr, ga) in zip(wrapped, cases, grids):
            ops.append(_classify_op(tr, wfam, gc, analytic))
            ops.append(_relation_op(tr, wfam, gr))
            ops.append(_area_check_op(tr, wfam, ga, constant=fam.id.startswith("rhombus")))
        ops += [_partition_op(tr, wrapped[i].volume, g, bps) for i, g, bps in partitions]
        return ops

    return Workload(build, nominal_cycle_s=0.9)


# ------------------------------------------------------------------ #
# hull_batch: star-like polytopes, the only workload whose time is in polytope
# ------------------------------------------------------------------ #

# Up to 400 facets, not 10^4: a cycle of about 2 s repeats often enough in one
# run for each operation's median repetition to settle.
HULL_FACETS = tuple(int(round(100 * 4 ** (i / 7))) for i in range(8))  # 100 ... 400
ORIGIN = np.zeros(3)


def _sphere_hull(rng, npoints: int):
    """Hull of uniform points on the unit sphere: vertices, CCW facets, facet planes."""
    g = rng.standard_normal((npoints, 3))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    hull = ConvexHull(g)
    remap = np.full(npoints, -1)
    remap[hull.vertices] = np.arange(len(hull.vertices))
    tri = remap[hull.simplices]
    verts = g[hull.vertices]
    a, b, c = verts[tri[:, 0]], verts[tri[:, 1]], verts[tri[:, 2]]
    flip = np.einsum("ij,ij->i", np.cross(b - a, c - a), hull.equations[:, :3]) < 0
    tri[flip, 1], tri[flip, 2] = tri[flip, 2], tri[flip, 1].copy()
    return verts, tri, hull.equations[:, :3], -hull.equations[:, 3]


def _polar_dual(verts, tri, normals, offsets):
    """Polar dual about the origin: vertex n/c per facet, one facet per hull vertex.

    Each dual facet lies in the plane u.x = 1 of a unit-sphere vertex u, so
    the dual circumscribes the unit ball (inradius 1 about the origin).
    """
    dverts = normals / offsets[:, None]
    incident = [[] for _ in range(len(verts))]
    for j, f in enumerate(tri):
        for i in f:
            incident[i].append(j)
    dfacets = []
    for u, js in zip(verts, incident):
        e1 = np.cross(u, [1.0, 0.0, 0.0] if abs(u[0]) < 0.9 else [0.0, 1.0, 0.0])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(u, e1)  # (e1, e2, u) right-handed: ascending angle is CCW seen from outside
        rel = dverts[js] - u
        order = np.argsort(np.arctan2(rel @ e2, rel @ e1))
        dfacets.append(tuple(int(js[k]) for k in order))
    return dverts, tuple(dfacets)


def _hull_ops(tr, verts, facets, dverts, dfacets) -> list[Op]:
    """One hull and its polar dual, one operation per public polytope call.

    Later operations use the polyhedra the construct operations made in the
    same cycle; a failed construct leaves none, so they fail too.
    """
    made = {}
    size = len(facets)

    def construct(key, v, f, kind):
        def call():
            made.pop(key, None)
            with tr.span("polytope.construct", points=len(f)):
                made[key] = polytope.StarPolyhedron(3, v, f, ORIGIN)
            return made[key]

        return Op(f"{kind}:{size}", kind, call, lambda p: None)

    def decompose():
        with tr.span("polytope.decompose"):
            dec = polytope.decompose(made["hull"])
            means = polytope.mean_altitudes(dec)
        made["volume"] = dec.total_volume
        return dec, means

    def check_decompose(result):
        dec, means = result
        r_tong = 3.0 * dec.total_volume / dec.total_area
        return None if max(_rel(m, r_tong) for m in means) <= 1e-9 else f"altitude means {means} vs 3V/A {r_tong!r}"

    def support():
        with tr.span("polytope.volume_from_support"):
            return polytope.volume_from_support(made["hull"])

    def check_support(v_sup):
        v_dec = made["volume"]
        return None if _rel(v_sup, v_dec) <= 1e-9 else f"support volume {v_sup!r} vs decomposition {v_dec!r}"

    def cohen():
        with tr.span("polytope.cohen_check"):
            return polytope.cohen_check(made["dual"], 1.0)

    def check_cohen(residual):
        return None if residual <= 1e-9 else f"Cohen residual {residual:.2e} > 1e-9"

    return [
        construct("hull", verts, facets, "construct"),
        Op(f"decompose:{size}", "decompose", decompose, check_decompose),
        Op(f"support:{size}", "support", support, check_support),
        construct("dual", dverts, dfacets, "construct_dual"),
        Op(f"cohen:{size}", "cohen", cohen, check_cohen),
    ]


def hull_batch(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    hulls = []
    for nf in HULL_FACETS:
        # points on a sphere are all hull vertices; a triangulated hull of N has 2N - 4 facets
        verts, tri, normals, offsets = _sphere_hull(rng, nf // 2 + 2)
        dverts, dfacets = _polar_dual(verts, tri, normals, offsets)
        hulls.append((verts, tuple(map(tuple, tri.tolist())), dverts, dfacets))

    def build(tr) -> list[Op]:
        return [op for hull in hulls for op in _hull_ops(tr, *hull)]

    return Workload(build, nominal_cycle_s=2.0)


WORKLOADS = {
    "shape_search": shape_search,
    "family_scan": family_scan,
    "hull_batch": hull_batch,
}
