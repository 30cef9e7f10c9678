import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from isolab import calculus, families, homogeneity, search
from isolab.errors import DomainError

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def test_cube_values():
    cube = families.builtin("cube")
    assert families.evaluate(cube, 2.0) == (8.0, 24.0)
    assert families.evaluate(cube, 1.0) == (1.0, 6.0)


def test_hexagon_values_at_one():
    # substitute a=1, b=1, c=4 into the hexagon formulas
    hexf = families.builtin("hexagon_120")
    area, perim = families.evaluate(hexf, 1.0)
    assert perim == pytest.approx(2 * (1 + 1 + 4), rel=1e-15)
    assert area == pytest.approx(SQRT3 / 2 * (1 * 1 + 1 * 4 + 4 * 1), rel=1e-15)


def test_rect_similar_eval():
    fam = families.builtin("rect_similar", k=0.5)
    area, perim = families.evaluate(fam, 2.0)
    assert area == pytest.approx(2.0)
    assert perim == pytest.approx(6.0)


def test_rhombus_branch_eval():
    inc, dec = families.rhombus_branches(a=1.0)
    area, perim = families.evaluate(inc, 1.0)
    assert area == pytest.approx(math.sqrt(3) / 2, rel=1e-15)
    assert perim == 4.0
    assert inc.domain == ((0.0, SQRT2),)
    assert dec.domain == ((SQRT2, 2.0),)


def test_rhombus_without_branch_selector():
    with pytest.raises(DomainError):
        families.builtin("rhombus", a=1.0)


def test_ring_torus_domain_requires_center_larger_than_tube():
    torus = families.builtin("ring_torus")
    assert not torus.contains(np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match=re.escape("point [1.0, 1.0] outside the domain of")):
        families.evaluate(torus, np.array([1.0, 1.0]))


def test_unknown_id():
    with pytest.raises(DomainError):
        families.builtin("klein_bottle")


def test_params_out_of_range():
    with pytest.raises(DomainError):
        families.builtin("rect_similar", k=1.5)
    with pytest.raises(DomainError):
        families.builtin("ngon", n=2)


def test_eval_outside_domain():
    cube = families.builtin("cube")
    with pytest.raises(DomainError):
        families.evaluate(cube, 0.0)
    with pytest.raises(DomainError):
        families.evaluate(cube, -1.0)


@pytest.mark.parametrize("fid,params", [("cube", {}), ("rect_similar", {"k": 0.3}), ("ngon", {"n": 7})])
def test_scaling_of_similar_families(fid, params):
    fam = families.builtin(fid, **params)
    d = fam.dimension
    for s in (0.5, 1.3, 2.7):
        for t in (0.5, 2.0, 3.7):
            v, a = families.evaluate(fam, s)
            vt, at = families.evaluate(fam, t * s)
            assert vt == pytest.approx(t**d * v, rel=1e-12)
            assert at == pytest.approx(t ** (d - 1) * a, rel=1e-12)


@pytest.mark.parametrize(
    "fam,grid",
    [
        (families.builtin("cube"), np.linspace(0.1, 5, 50)),
        (families.builtin("disk"), np.linspace(0.1, 5, 50)),
        (families.builtin("ball"), np.linspace(0.1, 5, 50)),
        (families.builtin("rect_fixed_length", a=2.0), np.linspace(0.1, 5, 50)),
        (families.builtin("rect_similar", k=0.4), np.linspace(0.1, 5, 50)),
        (families.builtin("hexagon_120"), np.linspace(0.1, 5, 50)),
        (families.builtin("ngon", n=5), np.linspace(0.1, 5, 50)),
        (families.rhombus_branches(1.0)[0], np.linspace(0.05, SQRT2 - 0.05, 50)),
        (families.rhombus_branches(1.0)[1], np.linspace(SQRT2 + 0.05, 1.95, 50)),
    ],
    ids=lambda x: getattr(x, "id", "grid"),
)
def test_builtin_volume_strictly_monotone(fam, grid):
    v = np.array([fam.volume(s) for s in grid])
    diffs = np.diff(v)
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_hexagon_closed_identity():
    hexf = families.builtin("hexagon_120")
    for s in np.linspace(0.1, 5, 40):
        u = s**2 + s + 1
        assert hexf.volume(s) == pytest.approx(SQRT3 / 2 * u**2, rel=1e-13)
        assert hexf.area(s) == pytest.approx(4 * u, rel=1e-13)


def test_catalog_json():
    entries = json.loads(families.catalog_json())
    ids = {e["id"] for e in entries}
    assert {"cube", "hexagon_120", "box3", "ring_torus", "parallelogram3"} <= ids
    for e in entries:
        assert set(e) == {"id", "dimension", "domain", "params"}
        assert e["dimension"] >= 2


def test_as_nparam_wraps_evaluators():
    cube = families.builtin("cube")
    wrapped = families.as_nparam(cube)
    assert wrapped.volume(np.array([2.0])) == 8.0
    assert wrapped.area(np.array([2.0])) == 24.0


class TestOneEvaluationPath:
    """Every V, A and Q of a family comes from families.evaluate or families.sample."""

    GRID = np.linspace(1.0, 2.0, 40)
    FIRST_NAN = float(GRID[GRID >= 1.5][0])

    @staticmethod
    def nan_cube():
        """The cube with a volume of NaN from s = 1.5 on."""
        return dataclasses.replace(
            families.builtin("cube"), volume=lambda s: math.nan if s >= 1.5 else s**3
        )

    def test_evaluate_names_the_point(self):
        with pytest.raises(DomainError, match=re.escape("point 1.75 ")):
            families.evaluate(self.nan_cube(), 1.75)
        with pytest.raises(DomainError, match=re.escape("point [1.75] ")):
            families.evaluate(self.nan_cube(), np.array([1.75]))

    def test_classify_names_the_point(self):
        with pytest.raises(DomainError, match=re.escape(f"point {self.FIRST_NAN} ")):
            homogeneity.classify(self.nan_cube(), self.GRID)

    def test_inradius_names_the_point(self):
        with pytest.raises(DomainError, match=re.escape(f"point {self.FIRST_NAN} ")):
            calculus.inradius_by_quadrature(self.nan_cube(), 1.0, 0.0, self.GRID)

    def test_ratio_function_is_inf(self):
        q = search.ratio_function(self.nan_cube())
        assert q(np.array([1.75])) == math.inf
        assert q(np.array([1.25])) == pytest.approx(216.0, rel=1e-14)

    def test_division_by_zero_is_a_domain_error(self):
        pole = dataclasses.replace(families.builtin("rect_fixed_length"),
                                   volume=lambda s: 1.0 / abs(s - 1.0))
        grid = np.linspace(0.5, 1.5, 33)  # holds 1.0
        with pytest.raises(DomainError, match=re.escape("V or A divides by zero at point 1.0 ")):
            families.evaluate(pole, 1.0)
        with pytest.raises(DomainError, match=re.escape("at point 1.0 ")):
            homogeneity.classify(pole, grid)
        q = search.ratio_function(pole)
        assert q(np.array([1.0])) == math.inf
        assert math.isfinite(q(np.array([1.5])))

    def test_underflowing_volume_power_is_inf(self):
        thin = families.FamilySpec(id="thin", dimension=3, domain=((0.0, 1.0),),
                                   volume=lambda s: 1e-200, area=lambda s: 1.0)
        assert search.ratio_function(thin)(np.array([0.5])) == math.inf  # V^2 is 0.0
        with pytest.raises(DomainError, match="Q overflows at point"):
            families.ratio_at(thin, 0.5, *families.evaluate(thin, 0.5))
        # ratio of two floats has the bits of the array ratio, and is finite at the same points
        rng, underflows = np.random.default_rng(0), 0
        for d in range(2, 7):
            v, a = 10.0 ** rng.uniform(-100.0, 100.0, size=(2, 2000))
            with np.errstate(all="ignore"):
                array_q = families.ratio(d, v, a)
            float_q = []
            for vi, ai in zip(v.tolist(), a.tolist()):
                try:
                    float_q.append(families.ratio(d, vi, ai))
                except ZeroDivisionError:  # V^(d-1) underflows to 0
                    float_q.append(math.inf)
                    underflows += 1
            finite = np.isfinite(float_q)
            np.testing.assert_array_equal(np.isfinite(array_q), finite)
            assert [x.hex() for x in array_q[finite].tolist()] == [
                x.hex() for x, ok in zip(float_q, finite) if ok]
            assert finite.sum() > 1000
        assert underflows > 0

    @pytest.mark.parametrize("fid, point", [
        ("parallelogram3", [1e-300, 1e150, 1e-10]),  # V from np.sin is a numpy scalar
        ("box3", [1e160, 1.0, 1.0]),  # A^3 and V^2 both overflow: inf / inf
    ])
    def test_overflowing_q_is_inf(self, fid, point):
        spec = families.builtin(fid)
        x = np.array(point)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert search.ratio_function(spec)(x) == math.inf
            with pytest.raises(DomainError, match=re.escape(f"Q overflows at point {point} ")):
                families.ratio_at(spec, point, *families.evaluate(spec, x))
            q = search._ratios(spec, np.column_stack([np.ones(3), x]))
        assert math.isfinite(q[0]) and q[1] == math.inf  # the same column

    @pytest.mark.parametrize("fid", ["cube", "hexagon_120", "ngon"])
    def test_classify_q_equals_ratio_function(self, fid):
        fam = families.builtin(fid)
        grid = np.linspace(0.5, 4.0, 64)
        q = search.ratio_function(fam)
        report = homogeneity.classify(fam, grid)
        assert report.q_values.tolist() == [q(np.array([s])) for s in grid]


# every built-in, with both rhombus branches
ALL_BUILTINS = [
    *(families.builtin(fid) for fid in families._BUILTINS if fid != "rhombus"),
    *families.rhombus_branches(),
]


class TestBatchEvaluation:
    """One array call of a family's evaluators, as sample, kmin and the coordinate scan make it."""

    @staticmethod
    def points(spec, m=10_000):
        lows, highs = np.array(spec.sample_box).T
        u = np.random.default_rng(0).uniform(size=(spec.nparams, m))
        return lows[:, None] + u * (highs - lows)[:, None]

    @staticmethod
    def per_point(spec, x):
        """(V, A, ok) from evaluate at each column of x, NaN where it raises DomainError."""
        rows = []
        for p in x.T:
            try:
                rows.append((*families.evaluate(spec, p), True))
            except DomainError:
                rows.append((math.nan, math.nan, False))
        return tuple(map(np.array, zip(*rows)))

    # n = 1 as a (1, m) array
    @pytest.mark.parametrize("spec", ALL_BUILTINS, ids=lambda spec: spec.id)
    def test_one_call_equals_evaluate_per_point(self, spec):
        x = self.points(spec)
        v, a, ok = families._evaluate_batch(spec, x)
        pv, pa, pok = self.per_point(spec, x)
        np.testing.assert_array_equal(ok, pok)
        np.testing.assert_array_equal(v[ok], pv[ok])
        np.testing.assert_array_equal(a[ok], pa[ok])
        q = search.ratio_function(spec)
        np.testing.assert_array_equal(search._ratios(spec, x), [q(p) for p in x.T])
        assert 0 < ok.sum() and (ok.all() or spec.id == "triangle_sides")
        if spec.nparams == 1:
            sv, sa = families.sample(spec, x[0])
            np.testing.assert_array_equal(sv, pv)
            np.testing.assert_array_equal(sa, pa)
        else:  # the evaluators at one point, infeasible points included
            np.testing.assert_array_equal(v, [spec.volume(p) for p in x.T])
            np.testing.assert_array_equal(a, [spec.area(p) for p in x.T])

    # math.hypot and math.sqrt take one point at a time; the last cone also has feasible
    @pytest.mark.parametrize("spec", [
        *(families.builtin(cls) for cls in ["cone", "square_pyramid", "right_triangle"]),
        dataclasses.replace(families.builtin("cone"), feasible=lambda x: x[1] > x[0]),
    ], ids=lambda spec: spec.id + "_feasible" * (spec.feasible is not None))
    def test_scalar_evaluators_fall_back(self, spec):
        x = self.points(spec, 64)
        with pytest.raises(TypeError):
            spec.area(x)
        batch = families._evaluate_batch(spec, x)
        for got, want in zip(batch, self.per_point(spec, x)):
            np.testing.assert_array_equal(got, want)
        assert 0 < batch[2].sum() and (batch[2].all() == (spec.feasible is None))
        q = search.ratio_function(spec)
        np.testing.assert_array_equal(search._ratios(spec, x), [q(p) for p in x.T])

    def test_overflow_at_one_point_falls_back(self):
        spec = dataclasses.replace(families.builtin("rect_fixed_length"), volume=math.exp)
        x = np.array([[1.0, 800.0, 2.0]])
        v, a, ok = families._evaluate_batch(spec, x)
        np.testing.assert_array_equal(ok, [True, False, True])
        np.testing.assert_array_equal(v, [math.exp(1.0), math.nan, math.exp(2.0)])
        np.testing.assert_array_equal(a, [4.0, math.nan, 6.0])
        with pytest.raises(DomainError, match=re.escape("V or A overflows at point 800.0 ")):
            families.sample(spec, x[0])

    def test_sample_rejects_an_array_value_that_one_point_does_not_give(self):
        spec = dataclasses.replace(families.builtin("rect_fixed_length"), volume=lambda s: (
            np.where(s > 2.5, math.nan, s) if np.ndim(s) else s))
        with pytest.raises(DomainError, match=re.escape("V = nan, A = 8.0 at point 3.0 of ")):
            families.sample(spec, np.array([1.0, 3.0]))

    @pytest.mark.parametrize("call", [families.sample, homogeneity.classify,
                                      homogeneity.constant_area_check])
    def test_grid_not_1d_rejected(self, call):
        grid = np.linspace(0.5, 4.0, 64).reshape(32, 2)
        with pytest.raises(DomainError, match=re.escape("grid must be 1-D, not of shape (32, 2)")):
            call(families.builtin("cube"), grid)

    def test_other_errors_propagate(self):
        spec = dataclasses.replace(families.builtin("rect_fixed_length"),
                                   volume=lambda s: math.log(s - 2.0))
        with pytest.raises(ValueError, match="math domain error"):
            families._evaluate_batch(spec, np.array([[3.0, 1.0]]))
