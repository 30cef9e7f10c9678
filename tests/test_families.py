import dataclasses
import json
import math
import re

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

    @pytest.mark.parametrize("fid", ["cube", "hexagon_120", "ngon"])
    def test_classify_q_equals_ratio_function(self, fid):
        fam = families.builtin(fid)
        grid = np.linspace(0.5, 4.0, 64)
        q = search.ratio_function(fam)
        report = homogeneity.classify(fam, grid)
        assert report.q_values == tuple(q(np.array([s])) for s in grid)


class TestBatchEvaluation:
    """One (n, m) call of a class's evaluators, as kmin's Nelder-Mead makes it."""

    @staticmethod
    def points(spec, m=10_000):
        lows, highs = np.array(spec.sample_box).T
        u = np.random.default_rng(0).uniform(size=(spec.nparams, m))
        return lows[:, None] + u * (highs - lows)[:, None]

    @pytest.mark.parametrize("cls", ["box3", "triangle_sides", "parallelogram3"])
    def test_one_call_equals_evaluate_per_point(self, cls):
        spec = families.builtin(cls)
        x = self.points(spec)
        v, a, ok = families._evaluate_batch(spec, x)
        per_point = []
        for p in x.T:
            try:
                per_point.append((*families.evaluate(spec, p), True))
            except DomainError:  # the triangle inequality fails
                per_point.append((math.nan, math.nan, False))
        pv, pa, pok = map(np.array, zip(*per_point))
        np.testing.assert_array_equal(ok, pok)
        np.testing.assert_array_equal(v[ok], pv[ok])
        np.testing.assert_array_equal(a[ok], pa[ok])
        np.testing.assert_array_equal(v, [spec.volume(p) for p in x.T])
        np.testing.assert_array_equal(a, [spec.area(p) for p in x.T])
        q = search.ratio_function(spec)
        np.testing.assert_array_equal(search._ratios(spec, x, q), [q(p) for p in x.T])
        assert 0 < ok.sum() and (ok.all() or cls == "triangle_sides")

    # math.hypot and math.sqrt take one point at a time
    @pytest.mark.parametrize("cls", ["cone", "square_pyramid", "right_triangle"])
    def test_scalar_evaluators_fall_back(self, cls):
        spec = families.builtin(cls)
        x = self.points(spec, 64)
        assert families._evaluate_batch(spec, x) is None
        q = search.ratio_function(spec)
        np.testing.assert_array_equal(search._ratios(spec, x, q), [q(p) for p in x.T])
