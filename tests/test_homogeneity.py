import math

import numpy as np
import pytest

from helpers import ALL_ONE_PARAM, isoperimetric_ratio
from isolab import calculus, families, homogeneity, inequalities
from isolab.errors import DomainError
from isolab.inequalities import ball_ratio, kappa

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class TestIsoperimetricRatio:
    def test_circle(self):
        rho = 1.7
        assert isoperimetric_ratio(
            2, math.pi * rho**2, 2 * math.pi * rho
        ) == pytest.approx(4 * math.pi, rel=1e-14)

    def test_sphere(self):
        rho = 0.8
        v = 4 / 3 * math.pi * rho**3
        a = 4 * math.pi * rho**2
        assert isoperimetric_ratio(3, v, a) == pytest.approx(36 * math.pi, rel=1e-14)

    def test_cube(self):
        assert isoperimetric_ratio(3, 1.0, 6.0) == pytest.approx(216.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            isoperimetric_ratio(3, -1.0, 6.0)
        with pytest.raises(DomainError):
            isoperimetric_ratio(3, 1.0, 0.0)


class TestTongInradius:
    def test_cube_half_edge(self):
        assert inequalities.tong_inradius(3, 8.0, 24.0) == pytest.approx(1.0)

    def test_unit_disk(self):
        assert inequalities.tong_inradius(2, math.pi, 2 * math.pi) == pytest.approx(1.0)

    @pytest.mark.parametrize("v, a", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_nonpositive_rejected(self, v, a):
        with pytest.raises(DomainError, match="^V and A must be positive$"):
            inequalities.tong_inradius(3, v, a)

    def test_similar_rectangle_harmonic_mean(self):
        # r = k s / (k + 1), the harmonic mean of half-length and half-width
        k, s = 0.4, 3.0
        r = inequalities.tong_inradius(2, k * s**2, 2 * s + 2 * k * s)
        harm = 2.0 / (1.0 / (s / 2) + 1.0 / (k * s / 2))
        assert r == pytest.approx(k * s / (k + 1), rel=1e-14)
        assert r == pytest.approx(harm, rel=1e-14)


class TestClassify:
    def test_hexagon_homogeneous(self):
        hexf = families.builtin("hexagon_120")
        report = homogeneity.classify(hexf, np.linspace(0.1, 5, 64))
        assert report.verdict == "homogeneous"
        assert report.q_center == pytest.approx(32 / SQRT3, rel=1e-9)

    def test_rect_fixed_length_not_homogeneous(self):
        fam = families.builtin("rect_fixed_length", a=1.0)
        # Q = (2s+2)^2 / s differs at s=1 (16) and s=4 (25): non-constant
        report = homogeneity.classify(fam, np.linspace(0.5, 4, 40))
        assert report.verdict == "not_homogeneous"

    def test_cube_homogeneous_216(self):
        report = homogeneity.classify(families.builtin("cube"), np.linspace(0.5, 4, 40))
        assert report.verdict == "homogeneous"
        assert report.q_center == pytest.approx(216.0, rel=1e-12)

    def test_grid_too_small(self):
        with pytest.raises(DomainError):
            homogeneity.classify(families.builtin("cube"), np.linspace(0.5, 4, 20))

    def test_nan_rtol_rejected(self):
        with pytest.raises(DomainError, match="rtol"):
            homogeneity.classify(families.builtin("cube"), np.linspace(1, 2, 40), rtol=math.nan)

    def test_multi_parameter_class_rejected(self):
        with pytest.raises(DomainError, match="multi-parameter class"):
            homogeneity.classify(families.builtin("box3"), np.linspace(0.5, 4, 40))

    @pytest.mark.parametrize(
        "fid,params",
        [("cube", {}), ("disk", {}), ("ball", {}), ("rect_similar", {"k": 0.7}), ("ngon", {"n": 9})],
    )
    def test_similar_families_homogeneous(self, fid, params):
        fam = families.builtin(fid, **params)
        report = homogeneity.classify(fam, np.linspace(0.5, 4, 40))
        assert report.verdict == "homogeneous"

    @pytest.mark.parametrize(
        "fid,params,grid",
        [
            ("cube", {}, np.linspace(0.5, 4, 40)),
            ("hexagon_120", {}, np.linspace(0.2, 3, 40)),
            ("rect_fixed_length", {"a": 1.0}, np.linspace(0.5, 4, 40)),
            ("rect_similar", {"k": 0.5}, np.linspace(0.5, 4, 40)),
        ],
    )
    def test_three_criteria_agree(self, fid, params, grid):
        # all three characterizations pass or fail together at matched tolerances
        fam = families.builtin(fid, **params)
        report = homogeneity.classify(fam, grid, rtol=1e-7)
        r_scale = float(np.median([fam.dimension * fam.volume(s) / fam.area(s) for s in grid]))
        crit_i = report.criterion_i_residual / r_scale <= 1e-6
        crit_ii = report.q_rel_spread <= 1e-6
        crit_iii = report.criterion_iii_residual <= 1e-6
        assert crit_i == crit_ii == crit_iii == report.homogeneous

    def test_k_floor(self):
        for fid, grid in [("cube", np.linspace(0.5, 4, 40)), ("hexagon_120", np.linspace(0.2, 3, 40))]:
            fam = families.builtin(fid)
            report = homogeneity.classify(fam, grid)
            d = fam.dimension
            assert report.q_center >= d**d * kappa(d) * (1 - 1e-12)

    def test_ball_equality(self):
        for fid in ("disk", "ball"):
            fam = families.builtin(fid)
            report = homogeneity.classify(fam, np.linspace(0.5, 4, 40))
            d = fam.dimension
            assert report.q_center == pytest.approx(d**d * kappa(d), rel=1e-10)

    def test_ball_floor_beyond_the_float_range(self):
        # Q about 1.4e23 is finite, the floor d^d kappa_d about 1e352 is not
        fam = families.FamilySpec(id="d200", dimension=200, domain=((1.0, 2.0),),
                                  volume=lambda s: s, area=lambda s: 1.5 + 0.0 * s)
        with pytest.raises(DomainError, match=r"below the ball floor 8\.933e\+351; "):
            homogeneity.classify(fam, np.linspace(1.1, 1.2, 40))

    def test_ball_floor_beyond_d_to_the_d(self):
        # balls in d = 150, where d^d overflows a float but d^d kappa_d = 2.0e254 does not
        d, k = 150, kappa(150)
        fam = families.FamilySpec(id="ball150", dimension=d, domain=((0.0, math.inf),),
                                  volume=lambda s: k * s**d, area=lambda s: d * k * s ** (d - 1))
        report = homogeneity.classify(fam, np.linspace(3.0, 3.04, 40))
        assert report.homogeneous
        assert report.q_center == pytest.approx(ball_ratio(d), rel=1e-11)

    def test_json_export(self):
        import json

        report = homogeneity.classify(families.builtin("cube"), np.linspace(0.5, 4, 40))
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "homogeneous"
        assert len(doc["q_values"]) == 40

    @pytest.mark.parametrize("fam,grid", ALL_ONE_PARAM, ids=lambda x: getattr(x, "id", "grid"))
    def test_q_values_equal_ratio_at(self, fam, grid):
        report = homogeneity.classify(fam, grid)
        v, a = families.sample(fam, grid)
        want = [families.ratio_at(fam, s, vi, ai) for s, vi, ai in zip(grid.tolist(), v.tolist(), a.tolist())]
        assert [x.hex() for x in report.q_values.tolist()] == [x.hex() for x in want]
        assert report.grid.tolist() == [float(g) for g in grid]

    def test_json_layout(self):
        import json

        grid = np.linspace(0.2, 3, 40)
        report = homogeneity.classify(families.builtin("hexagon_120"), grid)
        doc = json.loads(report.to_json())
        assert list(doc) == ["family_id", "grid", "q_values", "q_center", "q_rel_spread", "verdict",
                             "criterion_i_residual", "criterion_iii_residual", "rtol",
                             "rtol_margin"]
        assert doc["grid"] == grid.tolist() and doc["q_values"] == report.q_values.tolist()
        for x in (report.grid, report.q_values):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
        assert grid.flags.writeable  # the report holds a copy

    @pytest.mark.parametrize("check,message", [
        (homogeneity.classify, "classification grid must have at least 32 points"),
        (homogeneity.constant_area_check, "grid must have at least 32 points"),
    ])
    def test_scalar_grid_rejected(self, check, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            check(families.builtin("cube"), 2.0)

    def test_unordered_grid_rejected(self):
        grid = np.random.default_rng(0).permutation(np.linspace(0.5, 4.0, 40))
        with pytest.raises(DomainError, match="^grid must be strictly ordered$"):
            homogeneity.classify(families.builtin("cube"), grid)


def _median_cases(n, rng):
    """Float arrays of n values: distinct, with ties, of signed zeros alone and among
    ties, and with one NaN, or a NaN and a negative NaN, anywhere."""
    distinct = rng.standard_normal(n)
    yield distinct
    yield rng.integers(-3, 4, n).astype(float)
    yield rng.choice([0.0, -0.0], n)
    yield rng.choice([0.0, -0.0, 1.0, -1.0], n)
    for i in {0, n // 2, n - 1, int(rng.integers(n))}:
        x = distinct.copy()
        x[i] = math.nan
        yield x.copy()
        x[int(rng.integers(n))] = -math.nan
        yield x


def test_median_is_numpys_bit_for_bit():
    rng = np.random.default_rng(42)
    for n in range(1, 401):
        for x in _median_cases(n, rng):
            x.setflags(write=False)  # classify hands it read-only arrays
            got = homogeneity._median(x)
            assert np.float64(got).tobytes() == np.median(x).tobytes(), (n, x.tolist())


class TestRtolMargin:
    @pytest.mark.parametrize("fid,params", [("cube", {}), ("hexagon_120", {}), ("rect_fixed_length", {"a": 1.0})])
    def test_margin_decides_the_verdict(self, fid, params):
        report = homogeneity.classify(families.builtin(fid, **params), np.linspace(0.5, 3, 40))
        assert report.rtol_margin == report.rtol - report.q_rel_spread
        assert report.homogeneous == (report.rtol_margin >= 0)

    def test_zero_margin_is_homogeneous(self):
        fam, grid = families.builtin("rect_fixed_length", a=1.0), np.linspace(0.5, 4, 40)
        spread = homogeneity.classify(fam, grid).q_rel_spread
        at = homogeneity.classify(fam, grid, rtol=spread)
        assert at.rtol_margin == 0.0 and at.homogeneous
        below = homogeneity.classify(fam, grid, rtol=math.nextafter(spread, 0.0))
        assert below.rtol_margin < 0 and not below.homogeneous

    def test_json_key(self):
        import json

        report = homogeneity.classify(families.builtin("hexagon_120"), np.linspace(0.2, 3, 40))
        doc = json.loads(report.to_json())
        assert list(doc)[-2:] == ["rtol", "rtol_margin"]
        assert doc["rtol_margin"] == report.rtol_margin > 0


class TestElasticity:
    def test_cube_is_three(self):
        cube = families.builtin("cube")
        grid = np.linspace(0.5, 4, 32)
        curve = calculus.inradius_by_quadrature(cube, 0.0, 0.0, grid)
        for s in (0.7, 1.5, 3.1):
            assert homogeneity.elasticity(cube, curve, s) == pytest.approx(3.0, rel=1e-6)

    def test_rhombus_unit_area_elasticity(self):
        a = 1.0
        inc = families.rhombus_branches(a)[0]
        grid = np.linspace(0.1, SQRT2 - 0.1, 32)
        s0 = float(grid[0])
        # anchor C = A(s0)/(4a) makes r = A/(4a), the C=0 antiderivative
        curve = calculus.inradius_by_quadrature(inc, s0, inc.volume(s0) / (4 * a), grid)
        for s in (0.3, 0.8, 1.2):
            assert homogeneity.elasticity(inc, curve, s) == pytest.approx(1.0, rel=1e-8)

    def test_hexagon_tong_anchor_gives_dimension(self):
        hexf = families.builtin("hexagon_120")
        grid = np.linspace(0.2, 3, 32)
        s0 = float(grid[0])
        c = 2 * hexf.volume(s0) / hexf.area(s0)
        curve = calculus.inradius_by_quadrature(hexf, s0, c, grid)
        for s in (0.5, 1.0, 2.5):
            assert homogeneity.elasticity(hexf, curve, s) == pytest.approx(2.0, rel=1e-6)

    # r(s) is integrated from the anchor, so s need not lie on the curve's grid
    def test_outside_sampled_range(self):
        cube = families.builtin("cube")
        curve = calculus.inradius_by_quadrature(cube, 1.0, 0.5, np.linspace(1.0, 2.0, 8))
        for s in (0.25, 10.0):
            assert homogeneity.elasticity(cube, curve, s) == pytest.approx(3.0, rel=1e-12)

    def test_negative_r_rejected(self):
        cube = families.builtin("cube")
        grid = np.linspace(0.5, 4, 32)
        curve = calculus.inradius_by_quadrature(cube, 2.0, -10.0, grid)
        with pytest.raises(DomainError):
            homogeneity.elasticity(cube, curve, 1.0)


class TestConstantAreaCheck:
    def test_rhombus_true(self):
        inc = families.rhombus_branches(1.0)[0]
        assert homogeneity.constant_area_check(inc, np.linspace(0.1, SQRT2 - 0.1, 40)) is True

    def test_rhombus_true_on_descending_grid(self):
        inc = families.rhombus_branches(1.0)[0]
        assert homogeneity.constant_area_check(inc, np.linspace(0.1, 1.3, 40)[::-1]) is True

    def test_unordered_grid_rejected(self):
        grid = np.random.default_rng(0).permutation(np.linspace(0.1, SQRT2 - 0.1, 40))
        with pytest.raises(DomainError, match="^grid must be strictly ordered$"):
            homogeneity.constant_area_check(families.rhombus_branches(1.0)[0], grid)

    def test_cube_false(self):
        assert homogeneity.constant_area_check(families.builtin("cube"), np.linspace(0.5, 4, 40)) is False

    def test_nan_rtol_rejected(self):
        with pytest.raises(DomainError, match="rtol"):
            homogeneity.constant_area_check(
                families.builtin("cube"), np.linspace(1, 2, 40), rtol=math.nan
            )

    def test_rect_fixed_false(self):
        fam = families.builtin("rect_fixed_length", a=1.0)
        assert homogeneity.constant_area_check(fam, np.linspace(0.5, 4, 40)) is False
