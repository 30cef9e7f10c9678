import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from helpers import ALL_BUILTINS, all_brackets_root, nelder_mead
from isolab import families, homogeneity, search
from isolab.errors import ConvergenceError, DomainError

SQRT2 = math.sqrt(2.0)


@pytest.mark.parametrize("d, n, seed", [(1, 8, 0), (2, 16, 0), (3, 16, 7), (4, 33, 123)])
def test_latin_hypercube_matches_scipy(d, n, seed):
    from scipy.stats import qmc

    expected = qmc.LatinHypercube(d=d, seed=seed).random(n)
    assert np.array_equal(search.latin_hypercube(n, d, seed), expected)


def _recorded(monkeypatch, name, run):
    """The arguments of every call ``run()`` makes to ``search.<name>``."""
    calls, port = [], getattr(search, name)
    with monkeypatch.context() as m:
        m.setattr(search, name, lambda *args: calls.append(args) or port(*args))
        run()
    return calls


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def _scipy_nelder_mead(f, z0, xatol, fatol):
    """(x, f(x), evaluations) from SciPy's Nelder-Mead, with the port's caps."""
    from scipy import optimize

    counted = _counted(f)
    with np.errstate(invalid="ignore"):  # SciPy's f test computes inf - inf on an all-inf simplex
        res = optimize.minimize(counted, z0, method="Nelder-Mead", options={
            "xatol": xatol, "fatol": fatol, "maxiter": 20000, "maxfev": 20000})
    return res.x.tolist(), res.fun, counted.calls


def _nelder_mead_pair(f, z0, xatol, fatol):
    """(x, f(x), evaluations) from the port and from SciPy, from the same start."""
    x, fx, calls = nelder_mead(f, z0, xatol, fatol)
    return (x.tolist(), fx, calls), _scipy_nelder_mead(f, z0, xatol, fatol)


def _holed_rect2(*holes):
    """rect2 without a thin slab around each b in ``holes``, which no scan point hits."""
    return dataclasses.replace(families.builtin("rect2"),
                               feasible=lambda x: all(abs(x[1] - b) > 1e-3 for b in holes))


def _kmin_starts(monkeypatch, spec, seed):
    """kmin's lockstep run on ``spec``: (fs, x0, xatol, fatol) and its result."""
    runs, lockstep = [], search._lockstep

    def recorded(fs, x0, xatol, fatol):
        out = lockstep(fs, x0, xatol, fatol)
        runs.append(((fs, x0.copy(), xatol, fatol.copy()), out))
        return out

    monkeypatch.setattr(search, "_lockstep", recorded)
    search.kmin(spec, seed=seed)
    (run,) = runs
    return run


LOCKSTEP_CLASSES = ["box3", "triangle_sides", "parallelogram3"]


class TestNelderMead:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cls", LOCKSTEP_CLASSES)
    def test_matches_scipy_on_kmin_starts(self, monkeypatch, cls, seed):
        spec = families.builtin(cls)
        (_, x0, xatol, fatol), (xs, fun, calls) = _kmin_starts(monkeypatch, spec, seed)
        # kmin's 16 starts less the infeasible ones: 7 to 11 of them are triangles
        starts = [8, 10, 9, 9, 10, 7, 11, 8][seed] if cls == "triangle_sides" else 16
        assert len(x0) == starts
        q = search.ratio_function(spec)
        f = lambda z: q(np.concatenate(([1.0], z)))  # each class pins x1 = 1
        for s in range(len(x0)):
            assert (xs[s].tolist(), fun[s], calls[s]) == _scipy_nelder_mead(f, x0[s], xatol,
                                                                            fatol[s])

    # float() of an array of several points raises, so this copy is asked point by point,
    # each round at all four points of each start, as the array class is asked at once
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cls", LOCKSTEP_CLASSES)
    def test_one_call_round_as_per_point(self, cls, seed):
        spec = families.builtin(cls)
        per_point = dataclasses.replace(spec, volume=lambda x: float(spec.volume(x)))
        assert search.kmin(spec, seed=seed).to_json() == search.kmin(per_point, seed=seed).to_json()

    @pytest.mark.parametrize("cls", LOCKSTEP_CLASSES)
    def test_one_call_a_round(self, monkeypatch, cls):
        """fs is called once for the first simplex, once a round and once more in each
        round where a start shrinks; SciPy's evaluations at each iteration of each
        start give the rounds and the shrinks (a shrink takes 2 + n, a step 1 or 2)."""
        from scipy import optimize

        (fs, x0, xatol, fatol), _ = _kmin_starts(monkeypatch, families.builtin(cls), 0)
        counted = _counted(fs)
        search._lockstep(counted, x0, xatol, fatol)
        steps = []
        for z0, fa in zip(x0, fatol):
            f = _counted(lambda z: fs(z[None])[0])
            marks = [len(z0) + 1]
            optimize.minimize(f, z0, method="Nelder-Mead", callback=lambda xk: marks.append(f.calls),
                              options={"xatol": xatol, "fatol": fa, "maxiter": 20000,
                                       "maxfev": 20000})
            steps.append(np.diff(marks))
        rounds = max(map(len, steps))
        shrinks = sum(any(len(s) > i and s[i] > 2 for s in steps) for i in range(rounds))
        assert shrinks > 0 and counted.calls == 1 + rounds + shrinks

    # f is 1 on the unit disk and +inf left of x1 = -1, so whole simplices tie, at 1 or at inf
    def test_tied_values_as_scipy_does(self):
        def f(x):
            return math.inf if x[0] < -1.0 else max(float(x @ x), 1.0)

        x0 = np.array([[0.1, 0.2], [2.0, -1.5], [-1.02, 0.3], [0.0, 0.0], [-0.5, 3.0]])
        fatol = np.array([1e-8, 1e-8, 1e-8, 1e-3, 0.5])
        xs, fun, calls = search._lockstep(lambda z: np.array([f(p) for p in z]), x0, 1e-8, fatol)
        for s in range(len(x0)):
            assert (xs[s].tolist(), fun[s], calls[s]) == _scipy_nelder_mead(f, x0[s], 1e-8,
                                                                            fatol[s])
        assert fun[0] == 1.0 and calls[0] > 40  # the flat start shrank to xatol through ties

    # the tied starts above and a start whose simplex is all +inf, which runs to the cap: its
    # last round's second points are evaluated in the batch but not counted
    def test_one_call_round_at_ties_and_the_cap(self):
        def f(x):
            return math.inf if x[0] < -1.0 else max(float(x @ x), 1.0)

        x0 = np.array([[0.1, 0.2], [2.0, -1.5], [-1.02, 0.3], [0.0, 0.0], [-0.5, 3.0], [-3.0, 1.0]])
        fatol = np.array([1e-8, 1e-8, 1e-8, 1e-3, 0.5, 1e-8])
        xs, fun, calls = search._lockstep(lambda z: np.array([f(p) for p in z]), x0, 1e-8, fatol)
        for s in range(len(x0)):
            assert (xs[s].tolist(), fun[s], calls[s]) == _scipy_nelder_mead(f, x0[s], 1e-8,
                                                                            fatol[s])
        assert fun[-1] == math.inf and calls[-1] == 20000

    def test_infeasible_start_runs_to_the_cap_as_scipy_does(self):
        q = search.ratio_function(families.builtin("box3"))
        z0 = np.array([-1.0, 1.0, 2.0])  # x1 < 0 at every vertex: Q is +inf throughout
        ours, theirs = _nelder_mead_pair(q, z0, 1e-9, 1e-9)
        assert ours == theirs and ours[1:] == (math.inf, 20000)

    # a zero coordinate starts its simplex edge at 0.00025, not 5 % of itself
    def test_zero_coordinates_as_scipy_does(self):
        def f(x):
            return (x[0] - 1.0) ** 2 + 3.0 * (x[1] + 0.5) ** 2 + x[0] * x[1] + abs(x[2] - 0.1)

        ours, theirs = _nelder_mead_pair(f, np.array([0.0, 2.0, 0.0]), 1e-10, 1e-10)
        assert ours == theirs and ours[1] < 0.1


class TestBrentq:
    FIXED = {0: lambda s: math.sqrt(s), 1: lambda s: s - math.sqrt(s)}

    @pytest.mark.parametrize("cls, k, fixed, j, svals", [
        ("rect2", 18.0, {0: lambda s: s}, 1, [0.5, 1.0, 3.0]),
        ("cone", 250.0, {0: lambda s: s}, 1, [0.5, 1.0, 2.0]),
        ("parallelogram3", 32.0, FIXED, 2,
         np.linspace(24 - 16 * SQRT2 + 0.05, 24 + 16 * SQRT2 - 0.05, 40).tolist()),
    ])
    def test_matches_scipy_on_solve_coordinate_brackets(self, monkeypatch, cls, k, fixed, j, svals):
        from scipy import optimize

        spec = families.builtin(cls)
        scans = _recorded(monkeypatch, "_scan", lambda: [
            search.solve_coordinate(spec, k, fixed, j, s) for s in svals])
        # every bracket of each solve's scan, as the oracle refines them all
        brackets = _recorded(monkeypatch, "brentq", lambda: [
            all_brackets_root(args[4], search._scan(*args), args[5], j, s)
            for args, s in zip(scans, svals)])
        assert len(brackets) == 2 * len(svals)
        for g, a, b in brackets:
            expected = optimize.brentq(g, a, b, xtol=1e-15, rtol=8.9e-16)
            assert search.brentq(g, a, b) == expected

    def test_nan_inside_a_bracket(self):
        # the bracket of b = 2 is dropped; the other root of 4 (1 + b)^2 / b = 18 at a = 1 stays
        root = search.solve_coordinate(_holed_rect2(2.0), 18.0, {0: lambda s: s}, 1, 1.0)
        assert root == pytest.approx(0.5, abs=1e-12)

    def test_every_root_in_a_hole(self):
        with pytest.raises(DomainError, match="NaN") as info:
            search.solve_coordinate(_holed_rect2(0.5, 2.0), 18.0, {0: lambda s: s}, 1, 1.0)
        # the error of the first bracket, the one around b = 0.5
        a, b = re.search(r"inside the bracket \[(.+), (.+)\]$", str(info.value)).groups()
        assert float(a) < 0.5 < float(b)

    def test_exact_zero_at_a_bracket_end(self):
        from scipy import optimize

        for g, want in [(lambda t: t, 0.0), (lambda t: t - 1.0, 1.0)]:
            assert search.brentq(g, 0.0, 1.0) == want
            assert optimize.brentq(g, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16) == want

    def test_same_signs_and_no_convergence(self):
        with pytest.raises(DomainError, match="same sign"):
            search.brentq(lambda t: t * t + 1.0, -1.0, 1.0)
        with pytest.raises(ConvergenceError, match="did not converge"):
            search.brentq(lambda t: math.copysign(1.0, t), -1.0, 2.0 ** 200)


class TestFeasibleOnArrays:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cls", ["triangle_sides", "ring_torus"])
    def test_kmin_as_with_one_call_per_point(self, cls, seed):
        spec = families.builtin(cls)
        # bool() of an array of several points raises, so each point is asked alone
        per_point = dataclasses.replace(spec, feasible=lambda x: bool(spec.feasible(x)))
        assert search.kmin(spec, seed=seed).to_json() == search.kmin(per_point, seed=seed).to_json()

    def test_one_call_per_batch(self, monkeypatch):
        spec = families.builtin("triangle_sides")
        counted = dataclasses.replace(spec, feasible=_counted(spec.feasible))
        batch, per_batch = search._evaluate_batch, []

        def recorded(family, x):
            before = counted.feasible.calls
            out = batch(family, x)
            per_batch.append(counted.feasible.calls - before)
            return out

        ratios, batches = search._ratios, []
        monkeypatch.setattr(search, "_evaluate_batch", recorded)
        monkeypatch.setattr(search, "_ratios", lambda *args: batches.append(1) or ratios(*args))
        search.kmin(counted)
        assert len(per_batch) == len(batches) and set(per_batch) == {1}

    def test_feasible_of_one_point_asked_per_point(self):
        holed = _holed_rect2(2.0)  # all(...) of arrays raises
        shapes = []  # of each point V and A get

        def recorded(f):
            return lambda p: shapes.append(np.shape(p)) or f(p)

        counted = dataclasses.replace(holed, feasible=_counted(holed.feasible),
                                      volume=recorded(holed.volume), area=recorded(holed.area))
        counted.feasible.calls = 0  # not the prefix check of the replaced spec
        shapes.clear()
        x = np.array([np.ones(9), np.linspace(1.998, 2.002, 9)])
        v, a, ok = families._evaluate_batch(counted, x)
        assert ok.tolist() == [holed.contains(p) for p in x.T] and 0 < ok.sum() < 9
        assert not counted._feasible_on_arrays
        assert counted.feasible.calls == 9  # each point in the domain
        # V and A go point by point too, through evaluate, so only where feasible holds
        assert shapes == [(2,)] * (2 * ok.sum())
        for i, p in enumerate(x.T):
            try:
                want = families.evaluate(holed, p)
            except DomainError:
                want = (math.nan, math.nan)
            assert np.array_equal((v[i], a[i]), want, equal_nan=True)

    def test_feasible_answering_arrays_wrongly_asked_per_point(self):
        box3 = families.builtin("box3")

        def sorted_sides(x):  # right for one point; on an array it sorts across points
            s = np.sort(x)
            return s[0] + s[1] > s[2]

        def below(x):  # right for one point; on an (n, n) array it sums rows, not points
            return x @ np.ones(3) < 10.0

        x = np.array([[1.0, 3.0, 4.0], [2.0, 4.0, 1.0], [2.5, 6.0, 1.5]])  # m = n
        for feasible in (sorted_sides, below):
            spec = dataclasses.replace(box3, feasible=feasible)
            per_point = dataclasses.replace(box3, feasible=lambda x, f=feasible: bool(f(x)))
            assert not spec._feasible_on_arrays
            right = [bool(feasible(p)) for p in x.T]
            assert feasible(x).tolist() != right  # what the array call would have answered
            ok = families._evaluate_batch(spec, x)[2]
            assert ok.tolist() == families._evaluate_batch(per_point, x)[2].tolist() == right
            assert search.kmin(spec, seed=3).to_json() == search.kmin(per_point, seed=3).to_json()


class TestKmin:
    def test_box3_cubes(self):
        result = search.kmin(families.builtin("box3"), starts=8)
        assert result.kmin == pytest.approx(216.0, rel=1e-9)
        assert result.attained
        a, b, c = result.argmin
        assert b == pytest.approx(a, rel=1e-4)
        assert c == pytest.approx(a, rel=1e-4)

    def test_cone_optimal_shape(self):
        result = search.kmin(families.builtin("cone"), starts=8)
        assert result.kmin == pytest.approx(72 * math.pi, rel=1e-9)
        assert result.attained
        rho, h = result.argmin
        assert h == pytest.approx(2 * SQRT2 * rho, rel=1e-4)

    # the analytic optimum shapes, at the tolerance of the cylinder test
    @pytest.mark.parametrize(
        "cls, k, shape",
        [
            ("square_pyramid", 288.0, lambda a, h: h / a - SQRT2),
            ("right_triangle", 2 * (2 + SQRT2) ** 2, lambda a, b: b / a - 1),
            ("triangle_sides", 12 * math.sqrt(3), lambda a, b, c: max(b, c) / min(a, b, c) - 1),
        ],
    )
    def test_optimal_shape(self, cls, k, shape):
        result = search.kmin(families.builtin(cls), starts=8)
        assert result.kmin == pytest.approx(k, rel=1e-9)
        assert result.attained
        assert abs(shape(*result.argmin)) <= 1e-4

    def test_similar_family_one_evaluation(self):
        calls = []
        ngon = families.builtin("ngon")
        counted = dataclasses.replace(ngon, volume=lambda s: calls.append(s) or ngon.volume(s))
        calls.clear()  # the prefix check made when the spec was built
        result = search.kmin(counted)
        assert calls == [1.0]
        assert result.argmin == (1.0,)
        assert result.kmin == pytest.approx(24 * math.tan(math.pi / 6), rel=1e-15)

    def test_kmin_table_evaluation_budget(self, monkeypatch):
        calls = []

        def builtin(id, **params):
            spec = families.builtin(id, **params)
            return dataclasses.replace(spec, volume=lambda x: calls.append(1) or spec.volume(x))

        monkeypatch.setattr(search, "builtin", builtin)
        rows = search.kmin_table(starts=16)
        assert all(row["error"] is None for row in rows)
        assert len(calls) <= 8600

    @pytest.mark.parametrize("cls", ["box3", "cone", "rect_fixed_length", "ngon"])
    def test_tol_floor(self, cls):
        with pytest.raises(DomainError, match="tol"):
            search.kmin(families.builtin(cls), tol=0.9 * search.TOL_MIN)
        result = search.kmin(families.builtin(cls), tol=search.TOL_MIN)
        assert result.attained and math.isfinite(result.kmin)

    def test_ring_torus_boundary_infimum(self):
        result = search.kmin(families.builtin("ring_torus"), starts=8)
        assert result.kmin == pytest.approx(16 * math.pi**2, rel=1e-4)
        assert not result.attained

    def test_starts_precondition(self):
        with pytest.raises(DomainError):
            search.kmin(families.builtin("box3"), starts=4)

    # contains decides attained, so a class that states only `feasible` reports its edge
    def test_user_feasible_edge_not_attained(self):
        # rectangles with a > 2b: Q = (2a + 2b)^2 / (ab) decreases to 18 at the excluded a = 2b
        rect = dataclasses.replace(families.builtin("rect2"), feasible=lambda x: x[0] > 2 * x[1])
        result = search.kmin(rect)
        assert result.kmin == pytest.approx(18.0, rel=1e-8)
        assert not result.attained

    # Q = (2 + 1/s^2)^2 decreases to 4 as s -> inf: the outward doubling stops
    # where Q stops decreasing in floating point, not at a minimum
    def test_infimum_at_infinity_not_attained(self):
        tail = families.FamilySpec(id="tail", dimension=2, domain=((0.0, math.inf),),
                                   volume=lambda s: s * s, area=lambda s: 2.0 * s + 1.0 / s)
        result = search.kmin(tail)
        assert result.kmin == pytest.approx(4.0, rel=1e-12)
        assert not result.attained

    # golden section toward an infinite lower end, with x1 = 1 and x2 searched on (-inf, hi)
    def test_infimum_at_minus_infinity_step_overflows(self):
        # Q = 1 / (-x2) falls at every doubling, until the next step overflows
        falling = families.FamilySpec(id="falling", dimension=2, domain=(families.RPLUS, (-math.inf, -1.0)),
                                      volume=lambda x: x[0] * x[0] * -x[1], area=lambda x: x[0],
                                      homogeneous_prefix_m=1)
        result = search.kmin(falling)
        assert not result.attained
        assert result.argmin[0] == 1.0 and result.argmin[1] < -1e307

    def test_infimum_at_minus_infinity_q_stops_changing(self):
        # Q = 4 pi (1 + e^x2) reaches 4 pi in floats once e^x2 is below half an ulp of 1
        flat = families.FamilySpec(id="flat", dimension=2, domain=(families.RPLUS, (-math.inf, 0.0)),
                                   volume=lambda x: x[0] * x[0],
                                   area=lambda x: x[0] * np.sqrt(4.0 * math.pi * (1.0 + np.exp(x[1]))),
                                   homogeneous_prefix_m=1)
        result = search.kmin(flat)
        assert not result.attained
        assert result.kmin == pytest.approx(4.0 * math.pi, rel=1e-15)

    # x1 = 1 is never feasible: golden section (n = 2) and lockstep Nelder-Mead (n = 3) fail alike
    @pytest.mark.parametrize("n", [2, 3])
    def test_no_feasible_start(self, n):
        spec = families.FamilySpec(id=f"nowhere{n}", dimension=2, domain=(families.RPLUS,) * n,
                                   volume=lambda x: x[0] * x[0] * x[1], area=lambda x: x[0] * (1.0 + x[1]),
                                   homogeneous_prefix_m=1, feasible=lambda x: x[0] < 0)
        with pytest.raises(ConvergenceError, match=f"all 16 starts failed for class 'nowhere{n}'"):
            search.kmin(spec)

    @pytest.mark.parametrize("kwargs", [{"tol": -1.0}, {"tol": 0.0}, {"tol": math.nan},
                                        {"seed": -5}])
    def test_tol_and_seed_preconditions(self, kwargs):
        with pytest.raises(DomainError):
            search.kmin(families.builtin("box3"), **kwargs)

    def test_parameterization_invariance(self):
        # the same class of boxes under a smooth bijection of coordinates
        box = families.builtin("box3")
        warped = families.FamilySpec(
            id="box3_warped",
            dimension=3,
            domain=box.domain,
            volume=lambda x: box.volume(np.array([x[0] ** 2, math.exp(x[1]) - 1, x[2]])),
            area=lambda x: box.area(np.array([x[0] ** 2, math.exp(x[1]) - 1, x[2]])),
            sample_box=((0.5, 1.8), (0.3, 1.5), (0.3, 3.0)),
        )
        r1 = search.kmin(box, starts=8)
        r2 = search.kmin(warped, starts=8)
        assert abs(r1.kmin - r2.kmin) / r1.kmin < 1e-6


class TestKminTable:
    def test_all_rows_match_analytic(self):
        rows = search.kmin_table(starts=8)
        assert len(rows) == 17
        for row in rows:
            assert row["error"] is None
            rel = abs(row["computed_kmin"] - row["analytic_kmin"]) / row["analytic_kmin"]
            tol = 1e-4 if row["class_id"] == "ring_torus" else 1e-6
            assert rel <= tol, row

    def test_selected_analytic_values(self):
        rows = {r["class_id"]: r for r in search.kmin_table(starts=8)}
        assert rows["triangle_sides"]["analytic_kmin"] == pytest.approx(12 * math.sqrt(3))
        assert rows["ngon_4"]["analytic_kmin"] == pytest.approx(16.0)
        assert rows["cylinder"]["analytic_kmin"] == pytest.approx(54 * math.pi)
        assert not rows["ring_torus"]["attained"]

    def test_row_is_kmin_of_its_class(self):
        classes = [families.builtin("triangle_sides"), families.builtin("right_triangle"),
                   *(families.builtin("ngon", n=n) for n in range(3, 13)),
                   *map(families.builtin, ("box3", "cylinder", "cone", "square_pyramid",
                                           "ring_torus"))]
        for nfam, row in zip(classes, search.kmin_table(starts=8), strict=True):
            result = search.kmin(nfam, starts=8)
            assert (row["class_id"], row["computed_kmin"]) == (result.class_id, result.kmin)

    def test_cylinder_optimum_height_equals_diameter(self):
        result = search.kmin(families.builtin("cylinder"), starts=8)
        rho, h = result.argmin
        assert h == pytest.approx(2 * rho, rel=1e-4)


def _parallelogram_x3(s: float) -> float:
    return math.asin((s / 8) / (math.sqrt(s) - 1))


SIMILAR_REGIONS = ("{} is a family of similar regions: Q is the same at every point, "
                   "so Q = k has no isolated root")


class TestSolveCoordinate:
    FIXED = {0: lambda s: math.sqrt(s), 1: lambda s: s - math.sqrt(s)}

    def test_example_value_at_two(self):
        par = families.builtin("parallelogram3")
        root = search.solve_coordinate(par, 32.0, self.FIXED, 2, 2.0)
        assert root == pytest.approx(math.asin(0.25 / (SQRT2 - 1)), abs=1e-12)

    def test_arcsin_branch_across_interval(self):
        par = families.builtin("parallelogram3")
        lo, hi = 24 - 16 * SQRT2, 24 + 16 * SQRT2
        for s in np.linspace(lo + 0.2, hi - 0.2, 25):
            root = search.solve_coordinate(par, 32.0, self.FIXED, 2, float(s))
            assert root == pytest.approx(_parallelogram_x3(float(s)), abs=1e-9)

    def test_outside_feasible_interval(self):
        par = families.builtin("parallelogram3")
        with pytest.raises(DomainError, match="no root"):
            search.solve_coordinate(par, 32.0, self.FIXED, 2, 60.0)

    def test_below_isoperimetric_floor(self):
        par = families.builtin("parallelogram3")
        with pytest.raises(DomainError, match="no root"):
            search.solve_coordinate(par, 10.0, self.FIXED, 2, 2.0)  # 10 < 4 pi

    def test_coordinate_without_a_function_rejected(self):
        with pytest.raises(DomainError) as info:
            search.solve_coordinate(families.builtin("box3"), 220.0, {0: lambda s: s}, 2, 1.0)
        assert str(info.value) == "no functions given for coordinates [1]"

    def test_function_for_solved_coordinate_rejected(self):
        par = families.builtin("parallelogram3")
        with pytest.raises(DomainError, match="coordinate 2 is the one solved for"):
            search.solve_coordinate(par, 32.0, {**self.FIXED, 2: lambda s: 0.5}, 2, 2.0)

    # Q = 216 at every s: a sign change of its rounding noise is no root
    @pytest.mark.parametrize("k", [216.0, 216.00000000000003])
    def test_similar_regions_have_no_isolated_root(self, k):
        with pytest.raises(DomainError) as info:
            search.solve_coordinate(families.builtin("cube"), k, {}, 0, 1.0)
        assert str(info.value) == SIMILAR_REGIONS.format("'cube'")


def _per_point_scan(nfamily, k, base, j, ts, g):
    """The sign scan as ``solve_coordinate`` made it with one call of g per point:
    the oracle of ``search._scan``."""
    return np.array([g(t) for t in ts])


class TestSolveScan:
    FIXED = {0: lambda s: math.sqrt(s), 1: lambda s: s - math.sqrt(s)}
    S_04 = np.linspace(24 - 16 * SQRT2 + 0.05, 24 + 16 * SQRT2 - 0.05, 40).tolist()
    RECT2_SCAN = np.linspace(1e-9 * 300.0, 300.0 - 1e-9 * 300.0, 512)  # rect2's b over (0, inf)

    @staticmethod
    def _outcomes(spec, k, fixed, j, svals):
        out = []
        for s in svals:
            try:
                out.append(search.solve_coordinate(spec, k, fixed, j, s))
            except Exception as exc:
                out.append(f"{type(exc).__name__}: {exc}")
        return out

    def _assert_as_oracle(self, monkeypatch, spec, k, fixed, j, svals):
        """Roots and error messages bit-equal to those of the per-point scan, and
        every scan value of the same sign, or NaN, as the oracle's."""
        scans, array_scan = [], search._scan

        def both(*args):
            scans.append((array_scan(*args), _per_point_scan(*args)))
            return scans[-1][0]

        with monkeypatch.context() as m:
            m.setattr(search, "_scan", both)
            ours = self._outcomes(spec, k, fixed, j, svals)
        with monkeypatch.context() as m:
            m.setattr(search, "_scan", _per_point_scan)
            theirs = self._outcomes(spec, k, fixed, j, svals)
        assert ours == theirs
        for vals, expected in scans:
            assert np.array_equal(np.sign(vals), np.sign(expected), equal_nan=True)
        return ours

    def test_parallelogram_curve(self, monkeypatch):
        roots = self._assert_as_oracle(monkeypatch, families.builtin("parallelogram3"), 32.0,
                                       self.FIXED, 2, self.S_04)
        assert all(isinstance(r, float) for r in roots)

    @pytest.mark.parametrize("k", [16.0, 16.5, 18.0, 25.0, 40.0, 1e4, 15.0])
    def test_rect2_level_sweep(self, monkeypatch, k):
        self._assert_as_oracle(monkeypatch, families.builtin("rect2"), k, {0: lambda s: s}, 1,
                               [0.5, 1.0, 3.0])

    def test_box3_levels(self, monkeypatch):
        fixed = {0: lambda s: s, 1: lambda s: 1.0}
        for k in (220.0, 250.0, 400.0):
            self._assert_as_oracle(monkeypatch, families.builtin("box3"), k, fixed, 2,
                                   [0.7, 1.0, 1.5])

    def test_cone_per_point_fallback(self, monkeypatch):
        self._assert_as_oracle(monkeypatch, families.builtin("cone"), 250.0, {0: lambda s: s}, 1,
                               [0.5, 1.0, 2.0])

    @pytest.mark.parametrize("k", [100.0, 200.0, 400.0])
    @pytest.mark.parametrize("j", [0, 1])
    def test_ring_torus_feasible(self, monkeypatch, k, j):
        # Q = 16 pi^2 rho2 / rho1, feasible where rho2 > rho1, that is k > 16 pi^2
        self._assert_as_oracle(monkeypatch, families.builtin("ring_torus"), k,
                               {1 - j: lambda s: s}, j, [0.5, 2.0])

    @pytest.mark.parametrize("holes", [(2.0,), (0.5, 2.0)])
    def test_holed_rect2(self, monkeypatch, holes):
        self._assert_as_oracle(monkeypatch, _holed_rect2(*holes), 18.0, {0: lambda s: s}, 1,
                               [1.0])

    @pytest.mark.parametrize("volume", [
        lambda x: float(x[0]) * float(x[1]),  # raises on arrays
        # raises on arrays, and at one scan point past b = 50 too
        lambda x: x[0] * x[1] if x[1] < 50.0 else [][0],
    ])
    def test_evaluator_that_raises_on_arrays(self, monkeypatch, volume):
        spec = dataclasses.replace(families.builtin("rect2"), volume=volume)
        self._assert_as_oracle(monkeypatch, spec, 18.0, {0: lambda s: s}, 1, [1.0, 0.5])

    @pytest.mark.parametrize("area", [lambda x: 2.0 * np.sum(x),
                                      lambda x: 2.0 * np.sum(x, axis=-1)])
    def test_evaluator_of_the_wrong_shape(self, monkeypatch, area):
        spec = dataclasses.replace(families.builtin("rect2"), area=area)
        self._assert_as_oracle(monkeypatch, spec, 18.0, {0: lambda s: s}, 1, [1.0, 0.5])

    def test_level_on_a_scan_point(self, monkeypatch):
        # Q(1, b) = Q(1, 1 / b): at scan point 1 the smaller root, a zero of the scan
        # returned as it is; at scan point 100 the larger, and the smaller from its bracket
        rect2 = families.builtin("rect2")
        for i in (1, 100):
            t = float(self.RECT2_SCAN[i])
            k = search.ratio_function(rect2)(np.array([1.0, t]))
            root, = self._assert_as_oracle(monkeypatch, rect2, k, {0: lambda s: s}, 1, [1.0])
            assert root == t if i == 1 else root < 1.0

    def test_volume_not_positive_inside_the_domain(self, monkeypatch):
        # angles past pi give V < 0, which evaluate rejects: NaN in the scan, as per point
        par = families.builtin("parallelogram3")
        wide = dataclasses.replace(par, domain=(*par.domain[:2], (0.0, 2.0 * math.pi)))
        self._assert_as_oracle(monkeypatch, wide, 32.0, self.FIXED, 2, self.S_04[::5])

    def test_fixed_coordinate_on_the_domain_end(self, monkeypatch):
        # sin(pi) is 1.2e-16 > 0, but the angle pi lies outside the open interval, so
        # both scans raise the same DomainError before they scan
        self._assert_as_oracle(monkeypatch, families.builtin("parallelogram3"), 1e18,
                               {0: lambda s: s, 2: lambda s: math.pi}, 1, [1.0])

    @pytest.mark.parametrize("i, value, interval", [
        (0, math.nan, "(0.0, inf)"), (0, -1.0, "(0.0, inf)"), (1, math.inf, "(0.0, inf)"),
        (2, math.pi, f"(0.0, {math.pi})"), (2, 0.0, f"(0.0, {math.pi})"),
    ])
    def test_fixed_coordinate_outside_its_interval(self, i, value, interval):
        fixed = {0: lambda s: s, 1: lambda s: 2.0, 2: lambda s: 0.5}
        fixed[i] = lambda s: value
        j = 1 if i != 1 else 0
        del fixed[j]
        with pytest.raises(DomainError) as info:
            search.solve_coordinate(families.builtin("parallelogram3"), 32.0, fixed, j, 0.5)
        assert str(info.value) == f"fixed coordinate {i} is {value} at s=0.5, outside {interval}"

    def test_array_rounding_another_last_bit(self, monkeypatch):
        # an evaluator whose array results are one ulp above its values at single points,
        # with the level exactly on a scan point and a root between two others
        rect2 = families.builtin("rect2")
        spec = dataclasses.replace(rect2, volume=lambda x: (
            np.nextafter(x[0] * x[1], math.inf) if np.ndim(x) > 1 else x[0] * x[1]))
        t = float(self.RECT2_SCAN[3])
        k = search.ratio_function(rect2)(np.array([1.0, t]))
        self._assert_as_oracle(monkeypatch, spec, k, {0: lambda s: s}, 1, [1.0])

    def test_no_scalar_q_where_feasible_rejects(self, monkeypatch):
        # the tube radius over (0, 100) with the centre radius 2: feasible rejects the
        # scan points past 2, each as Q at that point alone would, so g is not asked there
        calls, ratio_function = [], search.ratio_function

        def counted(spec):
            q = ratio_function(spec)
            return lambda x: calls.append(x) or q(x)

        monkeypatch.setattr(search, "ratio_function", counted)
        root = search.solve_coordinate(families.builtin("ring_torus"), 200.0, {1: lambda s: s},
                                       0, 2.0)
        assert root == 1.5791367041742972 and len(calls) <= 10

    def test_one_array_call_per_scan(self):
        par = families.builtin("parallelogram3")
        counted = dataclasses.replace(par, volume=_counted(par.volume))
        counted.volume.calls = 0  # not the prefix check of the replaced spec
        search.solve_coordinate(counted, 32.0, self.FIXED, 2, 2.0)
        assert 0 < counted.volume.calls < 100
        cone = families.builtin("cone")
        counted = dataclasses.replace(cone, volume=_counted(cone.volume))
        counted.volume.calls = 0
        search.solve_coordinate(counted, 250.0, {0: lambda s: s}, 1, 1.0)
        assert counted.volume.calls >= 512  # math.hypot: one call per point


def _steep():
    """Q - k of about 1e160 at every scan point, so the product of two neighbours overflows."""
    return families.FamilySpec(id="steep", dimension=2, domain=(families.RPLUS,) * 2,
                               volume=lambda x: x[0] * x[1], area=lambda x: (x[0] + x[1]) * 1e80)


class TestBracketStage:
    """The root ``solve_coordinate`` picks from its brackets, against
    ``helpers.all_brackets_root``, which refines every bracket."""

    FIXED = TestSolveScan.FIXED
    S_04 = TestSolveScan.S_04
    RECT2_SCAN = TestSolveScan.RECT2_SCAN

    @staticmethod
    def _outcome(solve):
        try:
            return solve()
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"

    def _assert_as_oracle(self, monkeypatch, spec, k, fixed, j, svals):
        """Each solve's root or error message bit-equal to the oracle's on the same scan."""
        scans, scan = [], search._scan

        def recorded(*args):
            scans.append((args[4], scan(*args), args[5]))  # ts, the values, g
            return scans[-1][1]

        monkeypatch.setattr(search, "_scan", recorded)
        ours, theirs = [], []
        for s in svals:
            ours.append(self._outcome(lambda: search.solve_coordinate(spec, k, fixed, j, s)))
            ts, vals, g = scans[-1]
            theirs.append(self._outcome(lambda: all_brackets_root(ts, vals, g, j, s)))
        assert ours == theirs
        return ours

    def test_parallelogram_curve(self, monkeypatch):
        self._assert_as_oracle(monkeypatch, families.builtin("parallelogram3"), 32.0, self.FIXED,
                               2, self.S_04)

    @pytest.mark.parametrize("cls, k, svals", [("rect2", 18.0, [0.5, 1.0, 3.0]),
                                               ("cone", 250.0, [0.5, 1.0, 2.0])])
    def test_two_roots(self, monkeypatch, cls, k, svals):
        self._assert_as_oracle(monkeypatch, families.builtin(cls), k, {0: lambda s: s}, 1,
                               svals)

    @pytest.mark.parametrize("holes", [(2.0,), (0.5, 2.0), (0.5,)])
    def test_holed_rect2(self, monkeypatch, holes):
        self._assert_as_oracle(monkeypatch, _holed_rect2(*holes), 18.0, {0: lambda s: s}, 1,
                               [1.0])

    def test_level_on_a_scan_point(self, monkeypatch):
        # g is exactly 0 at a scan point: for rect2 at RECT2_SCAN[1], the smaller root, which
        # is returned as it is; for the spec of TestSolveScan.test_array_rounding_another_last_bit
        # at RECT2_SCAN[3], the larger one, and the smaller lies between two scan points
        rect2 = families.builtin("rect2")
        spec = dataclasses.replace(rect2, volume=lambda x: (
            np.nextafter(x[0] * x[1], math.inf) if np.ndim(x) > 1 else x[0] * x[1]))
        for family, i in ((rect2, 1), (spec, 3)):
            t = float(self.RECT2_SCAN[i])
            k = search.ratio_function(rect2)(np.array([1.0, t]))
            root, = self._assert_as_oracle(monkeypatch, family, k, {0: lambda s: s}, 1, [1.0])
            assert root == t if i == 1 else root < 1.0

    def test_one_brentq_call_per_parallelogram_solve(self, monkeypatch):
        par = families.builtin("parallelogram3")
        for s in self.S_04:
            calls = _recorded(monkeypatch, "brentq", lambda: self._assert_as_oracle(
                monkeypatch, par, 32.0, self.FIXED, 2, [s]))
            # one call, on the bracket of theta; then the oracle's two, at theta and pi - theta
            assert len(calls) == 3 and calls[0] == calls[1]

    def test_product_of_neighbours_beyond_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="no root of Q=k for coordinate 1 at s=1.0"):
                search.solve_coordinate(_steep(), 1e100, {0: lambda s: s}, 1, 1.0)


class TestScanGrid:
    """The scan points of ``solve_coordinate``, built once per coordinate interval."""

    @staticmethod
    def grids(monkeypatch, spec, j):
        """The scan points of two solves for coordinate j, the others at their sample box's middle."""
        middle = np.mean(spec.sample_box, axis=1).tolist()
        fixed = {i: lambda s, v=v: v for i, v in enumerate(middle) if i != j}
        calls = _recorded(monkeypatch, "_scan", lambda: [
            TestBracketStage._outcome(lambda: search.solve_coordinate(spec, k, fixed, j, 1.0))
            for k in (30.0, 300.0)])
        return [args[4] for args in calls]

    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda spec: spec.id)
    def test_linspace_bits_on_every_interval(self, monkeypatch, spec):
        if spec.nparams == 1 and spec.homogeneous_prefix_m is not None:  # similar regions
            with pytest.raises(DomainError, match=re.escape(SIMILAR_REGIONS.format(repr(spec.id)))):
                search.solve_coordinate(spec, 30.0, {}, 0, 1.0)
            assert self.grids(monkeypatch, spec, 0) == []  # no scan
            return
        for j, (lo, hi) in enumerate(spec.domain):
            if not math.isfinite(hi):
                hi = max(100.0, 100.0 * spec.sample_box[j][1])
            width = hi - lo
            want = np.linspace(lo + 1e-9 * width, hi - 1e-9 * width, 512)
            first, second = self.grids(monkeypatch, spec, j)
            assert first.tobytes() == want.tobytes()
            assert second is first  # built once
            assert not first.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 0.0

    def test_rect2_scan(self, monkeypatch):
        grid, _ = self.grids(monkeypatch, families.builtin("rect2"), 1)
        assert grid.tobytes() == TestSolveScan.RECT2_SCAN.tobytes()

    def test_cache_stays_bounded(self):
        size = search._scan_grid.cache_info().maxsize
        assert size is not None
        for lo in range(size + 10):
            search._scan_grid(float(lo), lo + 1.0)
        assert search._scan_grid.cache_info().currsize == size


def _levels_of(f, x2=(-10.0, 10.0), x1=(-10.0, 10.0)):
    """A class in d = 2 with V = 1 and A = sqrt(f(x)), so that Q = f."""
    return families.FamilySpec(id="levels", dimension=2, domain=(x1, x2),
                               volume=lambda x: 1.0 + 0.0 * x[0], area=lambda x: np.sqrt(f(x)))


class TestTraceLevelSet:
    # ring_torus's evaluators overflow in numpy scalars at this start: one DomainError and
    # no RuntimeWarning, also where warnings are not errors
    def test_overflow_is_an_error_without_warnings(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError) as info:
                search.trace_level_set(families.builtin("ring_torus"), 1e-12,
                                       np.array([1e200, 1e300]), steps=3)
        assert caught == []
        assert str(info.value) == ("V = inf, A = inf at point [1e+200, 1e+300] of 'ring_torus'; "
                                   "both must be finite and positive")

    def _start_point(self, s: float) -> np.ndarray:
        return np.array([math.sqrt(s), s - math.sqrt(s), _parallelogram_x3(s)])

    def test_parallelogram_level_32(self):
        par = families.builtin("parallelogram3")
        curve = search.trace_level_set(par, 32.0, self._start_point(4.0), steps=100)
        assert len(curve.points) == 101
        assert max(curve.residuals) <= 1e-9
        # every level point satisfies A = (P/2)^2 / 8 and P = 2s in the
        # parameterization s = P/2
        for _, x in curve.points:
            a = par.volume(np.asarray(x))
            p = par.area(np.asarray(x))
            s = p / 2
            assert a == pytest.approx(s**2 / 8, rel=1e-6)

    def test_traced_curve_is_homogeneous_family(self):
        from scipy.interpolate import CubicSpline

        par = families.builtin("parallelogram3")
        curve = search.trace_level_set(par, 32.0, self._start_point(4.0), steps=120)
        arclen = np.array([s for s, _ in curve.points])
        coords = np.array([x for _, x in curve.points])
        splines = [CubicSpline(arclen, coords[:, i]) for i in range(3)]

        def at(s):
            return np.array([sp(s) for sp in splines])

        fam = families.FamilySpec(
            id="traced_level_32",
            dimension=2,
            domain=((float(arclen[0]), float(arclen[-1])),),
            volume=lambda s: par.volume(at(s)),
            area=lambda s: par.area(at(s)),
        )
        lo, hi = arclen[2], arclen[-3]
        report = homogeneity.classify(fam, np.linspace(lo, hi, 40), rtol=1e-6)
        assert report.verdict == "homogeneous"
        assert report.q_center == pytest.approx(32.0, rel=1e-6)

    def test_gradient_zero_at_minimum(self):
        box = families.builtin("box3")
        with pytest.raises(ConvergenceError, match="gradient"):
            search.trace_level_set(box, 216.0, np.array([1.0, 1.0, 1.0]), steps=10)

    @pytest.mark.parametrize("k", [0.0, -5.0])
    def test_nonpositive_level_rejected(self, k):
        calls = []
        par = families.builtin("parallelogram3")
        counted = dataclasses.replace(par, volume=lambda x: calls.append(1) or par.volume(x))
        calls.clear()  # the prefix check made when the spec was built
        with pytest.raises(DomainError, match="k must be > 0"):
            search.trace_level_set(counted, k, self._start_point(4.0), steps=10)
        assert calls == []  # rejected before any evaluation

    def test_start_far_from_level_rejected(self):
        par = families.builtin("parallelogram3")
        with pytest.raises(DomainError, match="far from"):
            search.trace_level_set(par, 32.0, np.array([1.0, 1.0, math.pi / 2]), steps=10)

    def test_csv_export(self):
        par = families.builtin("parallelogram3")
        curve = search.trace_level_set(par, 32.0, self._start_point(4.0), steps=5)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "s,x1,x2,x3,Q"
        assert len(lines) == len(curve.points) + 1

    def test_evaluation_budget_per_step(self):
        par = families.builtin("parallelogram3")
        counted = dataclasses.replace(par, volume=_counted(par.volume))
        counted.volume.calls = 0  # not the prefix check of the replaced spec
        curve = search.trace_level_set(counted, 32.0, self._start_point(4.0), steps=200)
        assert len(curve.points) == 201
        assert counted.volume.calls <= 10 * 200  # the start and its landing included

    def test_q_calls_per_step(self):
        par = families.builtin("parallelogram3")
        counted = dataclasses.replace(par, volume=_counted(par.volume))
        # 200 steps from s = 4, and the README's trace: 100 steps from (2, 2, 0.5236)
        for start, steps in [(self._start_point(4.0), 200), (np.array([2.0, 2.0, 0.5236]), 100)]:
            counted.volume.calls = 0
            curve = search.trace_level_set(counted, 32.0, start, steps=steps)
            assert (curve.stop_reason, len(curve.points)) == ("steps", steps + 1)
            # each Q call evaluates V once, the start check's included
            assert curve.q_calls == counted.volume.calls <= 5 * steps
            assert json.loads(curve.to_json())["q_calls"] == curve.q_calls

    def test_circle_levels_refresh_the_stale_direction(self):
        # Q = x1^2 + x2^2, so Q = 1 is the unit circle: 400 steps of 0.1 go round it about 6 times
        circle = families.FamilySpec(
            id="circle_levels", dimension=2, domain=((-10.0, 10.0), (-10.0, 10.0)),
            volume=lambda x: 1.0 + 0.0 * x[0], area=lambda x: np.hypot(x[0], x[1]))
        curve = search.trace_level_set(circle, 1.0, np.array([1.0, 0.0]), steps=400,
                                       step_size=0.1)
        assert (curve.stop_reason, curve.halvings, len(curve.points)) == ("steps", 0, 401)
        assert all(abs(math.hypot(*x) - 1.0) <= 1e-10 for _, x in curve.points)
        assert curve.points[-1][0] > 6 * 2 * math.pi
        assert curve.gradients > 1  # the chord direction was taken again as the curve turned

    def test_failed_landings_at_sharp_turns_are_retried(self):
        # Q = x1^40 + x2^40: the level Q = 1 is a square with corners rounded within about 0.02
        # of each vertex, where the chord line of the stale g misses the level or leaves the domain
        squarish = families.FamilySpec(
            id="superellipse_levels", dimension=2, domain=((-10.0, 10.0), (-10.0, 10.0)),
            volume=lambda x: 1.0 + 0.0 * x[0], area=lambda x: np.sqrt(x[0] ** 40 + x[1] ** 40))
        curve = search.trace_level_set(squarish, 1.0, np.array([1.0, 0.0]), steps=400,
                                       step_size=0.1)
        assert (curve.stop_reason, len(curve.points)) == ("steps", 401)
        assert curve.halvings > 0 and curve.max_corrector_iterations > 3
        assert max(curve.residuals) <= 1e-10
        assert curve.points[-1][0] > 4 * 8.0  # round the square, of perimeter about 8, 4 times

    @pytest.mark.parametrize("cid, k, start", [
        ("parallelogram3", 32.0, (2.0, 2.0, math.pi / 6)),
        ("rect2", 18.0, (1.0, 2.0)),
        ("cylinder", 200.0, (1.0, 1.0)),  # Q = 64 pi there: the landing moves it
    ])
    def test_residuals_within_corrector_tolerance(self, cid, k, start):
        curve = search.trace_level_set(families.builtin(cid), k, np.array(start), steps=200)
        assert len(curve.points) == 201
        assert curve.stop_reason == "steps"
        assert max(curve.residuals) <= 1e-10

    def test_gradient_backward_at_the_domain_edge(self):
        par = families.builtin("parallelogram3")
        q = search.ratio_function(par)
        scales = np.array([hi - lo for lo, hi in par.sample_box])
        x = np.array([2.0, 2.0, math.pi - 1e-8])
        f0 = q(x)
        g = search._gradient(q, x, f0, scales)
        h = search._SQRT_EPS * (x[2] + scales[2])
        assert not par.contains(x + [0.0, 0.0, h])  # the forward point is past pi
        back = x - [0.0, 0.0, h]
        assert g[2] == (q(back) - f0) / (back[2] - x[2])
        assert g[2] > 0  # Q = 4 (a + b)^2 / (a b sin x3) grows toward x3 = pi
        # dQ/da = dQ/db = 0 at a = b, by forward differences
        assert np.all(np.abs(g[:2]) <= 1e-6 * f0)

    def test_stop_reasons(self):
        # rect2 cut at length 3: the level Q = 18 is the ray b = 2a, which leaves there
        cut = dataclasses.replace(families.builtin("rect2"), domain=((0.0, 3.0), (0.0, math.inf)),
                                  homogeneous_prefix_m=None)
        curve = search.trace_level_set(cut, 18.0, np.array([1.0, 2.0]), steps=200)
        assert curve.stop_reason == "left_domain"
        assert 1 < len(curve.points) < 201
        assert 3.0 - curve.points[-1][1][0] < 1e-5
        assert curve.halvings >= math.log2(search.STEP_MAX / search.STEP_MIN)
        # a one-parameter family's level set is isolated points, with no tangent
        curve = search.trace_level_set(families.builtin("rect_fixed_length"), 18.0,
                                       np.array([2.0]), steps=5)
        assert curve.stop_reason == "tangent_degenerate"
        assert len(curve.points) == 1
        # Q = x1 + 1 below x2 = 1 and 10 above: the level x1 = 0.5 ends there, where no
        # corrector step along g lands
        curve = search.trace_level_set(_levels_of(lambda x: np.where(x[1] < 1.0, x[0] + 1.0, 10.0)),
                                       1.5, np.array([0.5, 0.0]), steps=200)
        assert (curve.stop_reason, len(curve.points)) == ("corrector_failed", 21)
        assert 0.0 <= 1.0 - curve.points[-1][1][1] < 1e-6
        # Q = 1 + (x1 - sin x2) e^-x2: the level x1 = sin x2, along which |g| falls as e^-x2
        curve = search.trace_level_set(
            _levels_of(lambda x: 1.0 + (x[0] - np.sin(x[1])) * np.exp(-x[1]), (-1.0, 40.0)),
            1.0, np.array([0.0, 0.0]), steps=1000, step_size=0.1)
        assert (curve.stop_reason, len(curve.points)) == ("gradient_zero", 225)
        assert 18.0 < curve.points[-1][1][1] < 19.0

    @pytest.mark.parametrize("f, domain, k, message", [
        # the corrector's first step leaves x1 < 0.505
        (lambda x: x[0] + 1.0, (-10.0, 0.505), 1.51,
         "corrector failed to land on the level set at the start"),
        # Q is finite only where |x2| <= 1e-10: both points of the x2 stencil are outside
        (lambda x: np.where(np.abs(x[1]) <= 1e-10, x[0] + 1.0, 0.0), (-10.0, 10.0), 1.5,
         "no gradient of Q to follow at the start: left_domain"),
    ])
    def test_no_start_on_the_level(self, f, domain, k, message):
        with pytest.raises(ConvergenceError) as info:
            search.trace_level_set(_levels_of(f, x1=domain), k, np.array([0.5, 0.0]), steps=10)
        assert str(info.value) == message

    def test_evidence_in_json(self):
        par = families.builtin("parallelogram3")
        curve = search.trace_level_set(par, 32.0, self._start_point(4.0), steps=20)
        doc = json.loads(curve.to_json())
        assert (doc["stop_reason"], doc["halvings"]) == ("steps", 0)
        assert 1 <= doc["max_corrector_iterations"] <= 25
        again = search.trace_level_set(par, 32.0, self._start_point(4.0), steps=20)
        assert again.to_json() == curve.to_json()

    @pytest.mark.parametrize("kwargs", [{"steps": -5}, {"steps": 0}, {"step_size": 0.0},
                                        {"step_size": math.inf}, {"step_size": math.nan}])
    def test_steps_and_step_size_preconditions(self, kwargs):
        par = families.builtin("parallelogram3")
        with pytest.raises(DomainError, match="step"):
            search.trace_level_set(par, 32.0, self._start_point(4.0), **{"steps": 5, **kwargs})


class TestReduceHomogeneousPrefix:
    def test_parallelogram_q_invariance(self):
        q = search.ratio_function(families.builtin("parallelogram3"))
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform([0.3, 0.3, 0.2], [3.0, 3.0, math.pi - 0.2])
            assert q(np.array([1.0, x[1] / x[0], x[2]])) == pytest.approx(q(x), rel=1e-10)

    def test_rectangles_reduce_to_similar(self):
        # Q(1, z2) = k has finitely many roots z2; each root is an aspect ratio,
        # so homogeneous subfamilies are similar rectangles
        q = search.ratio_function(families.builtin("rect2"))
        k = 18.0  # above the square minimum 16
        zs = np.linspace(0.05, 20.0, 4000)
        vals = np.array([q(np.array([1.0, z])) - k for z in zs])
        crossings = np.sum(vals[:-1] * vals[1:] < 0)
        assert crossings == 2  # one aspect ratio and its reciprocal

    def test_angle_declared_as_scaling_variable_rejected(self):
        par = families.builtin("parallelogram3")
        with pytest.raises(DomainError, match="rejected"):
            families.FamilySpec(
                id="parallelogram3_bad",
                dimension=2,
                domain=par.domain,
                volume=par.volume,
                area=par.area,
                homogeneous_prefix_m=3,
                sample_box=par.sample_box,
            )

    # a prefix over (0, pi): x1 = 1 need not be inside
    def test_prefix_over_bounded_interval_rejected(self):
        with pytest.raises(DomainError, match="rejected"):
            dataclasses.replace(families.builtin("rect2"),
                                domain=((0.0, math.pi), (0.0, math.inf)))

    def test_non_homogeneous_evaluator_rejected(self):
        # cone's math.hypot takes one point at a time, so its check goes point by point
        for cls in ("rect2", "cone"):
            spec = families.builtin(cls)
            with pytest.raises(DomainError, match=r"not homogeneous .* \(checked at t=[0-9.]+, "
                                                  r"x=\[[0-9.]+, [0-9.]+\]\)$"):
                dataclasses.replace(spec, area=lambda x: spec.area(x) + 1.0)

    # V < 0 where x0 < x1, at about half of the check's points; math.copysign goes per point
    @pytest.mark.parametrize("sign", [np.sign, lambda y: math.copysign(1.0, y)])
    def test_prefix_check_skips_rejected_points(self, sign):
        rect = families.builtin("rect2")
        spec = dataclasses.replace(rect, volume=lambda x: rect.volume(x) * sign(x[0] - x[1]))
        assert families.evaluate(spec, [2.0, 1.0]) == (2.0, 6.0)
        with pytest.raises(DomainError, match="both must be finite and positive"):
            families.evaluate(spec, [1.0, 2.0])

    def test_short_sample_box_rejected(self):
        # not homogeneous, but with one interval for two parameters no point was checked
        with pytest.raises(DomainError, match="sample_box of 'lopsided' .* n = 2 parameters"):
            families.FamilySpec(id="lopsided", dimension=2, domain=(families.RPLUS,) * 2,
                                volume=lambda x: x[0] * x[1] + x[0],
                                area=lambda x: 2.0 * (x[0] + x[1]),
                                homogeneous_prefix_m=2, sample_box=((0.3, 3.0),))

    @pytest.mark.parametrize("box", [
        ((3.0, 0.3), (0.3, 3.0)),  # inverted
        ((0.3, 3.0), (0.3, math.inf)),
        ((math.nan, 3.0), (0.3, 3.0)),
        ((0.3, 3.0), (0.3, 3.0, 4.0)),
        ((0.3, 3.0),) * 3,
    ])
    def test_bad_sample_box_rejected(self, box):
        with pytest.raises(DomainError, match="sample_box of 'rect2' .* n = 2 parameters"):
            dataclasses.replace(families.builtin("rect2"), sample_box=box)

    @pytest.mark.parametrize("m", [0, 3])
    def test_prefix_length_out_of_range_rejected(self, m):
        with pytest.raises(DomainError, match=f"prefix m={m} .* rejected"):
            dataclasses.replace(families.builtin("rect2"), homogeneous_prefix_m=m)
