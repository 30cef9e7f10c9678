import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from isolab import families, inequalities
from isolab.errors import DomainError

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


class TestKappa:
    def test_disk(self):
        assert inequalities.kappa(2) == pytest.approx(math.pi, rel=1e-15)

    def test_ball(self):
        assert inequalities.kappa(3) == pytest.approx(4 * math.pi / 3, rel=1e-15)

    def test_four_dimensions(self):
        assert inequalities.kappa(4) == pytest.approx(math.pi**2 / 2, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            inequalities.kappa(0)

    def test_matches_mpmath(self):
        import mpmath

        for d in range(1, 401):
            with mpmath.workprec(200):
                exact = mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2 + 1)
            if d <= len(inequalities._KAPPA):  # the table is correctly rounded
                assert inequalities.kappa(d) == float(exact), d
            else:
                assert abs(inequalities.kappa(d) - exact) <= 1e-13 * exact, d

    # the table is indexed by d: an integral float works, a fractional d is rejected
    def test_float_dimension(self):
        assert inequalities.kappa(3.0) == inequalities.kappa(3)
        assert inequalities.kappa(20.0) == inequalities.kappa(20)
        for d in (2.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                inequalities.kappa(d)

    def test_huge_dimension_underflows_quickly(self):
        assert inequalities.kappa(10**9) == 0.0


class TestDeficit:
    def test_circle_zero(self):
        rho = 1.3
        assert inequalities.deficit(2, math.pi * rho**2, 2 * math.pi * rho) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_unit_square(self):
        assert inequalities.deficit(2, 1.0, 4.0) == pytest.approx(16 - 4 * math.pi, rel=1e-14)

    def test_unit_cube(self):
        # A^3 - 27 kappa_3 V^2 = 216 - 36 pi
        assert inequalities.deficit(3, 1.0, 6.0) == pytest.approx(216 - 36 * math.pi, rel=1e-13)

    @given(v=positive, a=positive, t=st.floats(min_value=0.1, max_value=10))
    def test_scale_covariance(self, v, a, t):
        d = 3
        base = inequalities.deficit(d, v, a)
        scaled = inequalities.deficit(d, t**d * v, t ** (d - 1) * a)
        assert scaled == pytest.approx(t ** (d * (d - 1)) * base, rel=1e-9, abs=1e-9 * abs(base) + 1e-12)

    def test_nonnegative_on_builtin_samples(self):
        cases = [
            (families.builtin("cube"), np.linspace(0.5, 4, 16)),
            (families.builtin("hexagon_120"), np.linspace(0.2, 3, 16)),
            (families.builtin("rect_fixed_length", a=1.0), np.linspace(0.5, 4, 16)),
            (families.rhombus_branches(1.0)[0], np.linspace(0.1, 1.3, 16)),
        ]
        for fam, grid in cases:
            for s in grid:
                v, a = families.evaluate(fam, float(s))
                assert inequalities.deficit(fam.dimension, v, a) >= -1e-9 * a**fam.dimension

    # d^d alone is beyond the float range from d = 144 on, d^d kappa_d from d = 178 on
    @pytest.mark.parametrize("d, v, a", [(144, 1.0, 4.0), (150, 0.5, 3.0), (200, 1e-3, 1.0),
                                         (400, 1e-3, 1.0), (2000, 1e-5, 1.0)])
    def test_high_dimension_matches_mpmath(self, d, v, a):
        import mpmath

        with mpmath.workprec(400):
            v_, a_, d_ = mpmath.mpf(v), mpmath.mpf(a), mpmath.mpf(d)
            ball = d_**d_ * mpmath.pi ** (d_ / 2) / mpmath.gamma(d_ / 2 + 1)
            exact = a_**d - ball * v_ ** (d - 1)
        assert abs(inequalities.deficit(d, v, a) - exact) <= 1e-11 * abs(exact)

    def test_below_d144_unchanged(self):
        for d in range(2, 144):
            for v, a in ((1.0, 4.0), (0.3, 2.5), (7.0, 1.5)):
                try:
                    want = a**d - float(d) ** d * inequalities.kappa(d) * v ** (d - 1)
                except OverflowError:
                    continue
                if math.isfinite(want):
                    assert inequalities.deficit(d, v, a) == want, (d, v, a)

    # d from 3e305 on: ln Gamma(d/2 + 1), or both logs, or d itself are beyond the float range
    @pytest.mark.parametrize("d, v, a", [
        (2, 1.0, 1e200), (3, 1e200, 1.0), (144, 1e10, 4.0), (400, 1.0, 1.0),
        pytest.param(10**307, 1.0, 1.0, id="10**307-1.0-1.0"),
        pytest.param(3 * 10**305, 1.0, 1e308, id="3*10**305-1.0-1e+308"),
        pytest.param(10**400, 1.0, 1.0, id="10**400-1.0-1.0"),
    ])
    def test_deficit_beyond_the_float_range(self, d, v, a):
        with pytest.raises(DomainError, match=rf"^the isoperimetric deficit in d = {d} is outside"):
            inequalities.deficit(d, v, a)

    def test_ball_ratio(self):
        import mpmath

        for d in range(2, 178):
            with mpmath.workprec(200):
                d_ = mpmath.mpf(d)
                exact = d_**d_ * mpmath.pi ** (d_ / 2) / mpmath.gamma(d_ / 2 + 1)
            if d < 144:
                assert inequalities.ball_ratio(d) == float(d**d) * inequalities.kappa(d), d
            assert abs(inequalities.ball_ratio(d) - exact) <= 1e-12 * exact, d
        assert inequalities.ball_ratio(178) == inequalities.ball_ratio(10**6) == math.inf


class TestBonnesenGeneral:
    def test_unit_ball_equalities(self):
        v, a = 4 * math.pi / 3, 4 * math.pi
        report = inequalities.bonnesen_general(3, v, a)
        assert report.all_hold
        for row in report.rows:
            assert row.lhs == pytest.approx(row.rhs, abs=1e-12 * max(abs(row.lhs), 1.0))

    def test_box_2x1x1_osserman_row(self):
        report = inequalities.bonnesen_general(3, 2.0, 10.0)
        assert report.r_tong == pytest.approx(0.6)
        osserman = report.rows[2]
        assert osserman.name == "osserman"
        assert osserman.lhs == pytest.approx(6.0)
        assert osserman.rhs == pytest.approx(2.0 + 2 * inequalities.kappa(3) * 0.6**3, rel=1e-14)
        assert osserman.holds
        assert osserman.slack == pytest.approx(6.0 - 2.0 - (8 * math.pi / 3) * 0.216, rel=1e-12)

    def test_d2_reduction_matches_2d_tong_rows(self):
        # for d=2 the general rows reduce to the classical ones with r = 2A/P
        p_, a_ = 6.0, 2.0  # 2x1 rectangle
        gen = inequalities.bonnesen_general(2, a_, p_)
        r = 2 * a_ / p_
        assert gen.deficit == pytest.approx(p_**2 - 4 * math.pi * a_, rel=1e-14)
        assert gen.rows[0].rhs == pytest.approx((p_ - 2 * math.pi * r) ** 2, rel=1e-13)
        assert gen.rows[1].rhs == pytest.approx((a_ / r - math.pi * r) ** 2, rel=1e-13)
        assert gen.rows[2].lhs == pytest.approx(r * p_, rel=1e-14)
        assert gen.rows[2].rhs == pytest.approx(a_ + math.pi * r**2, rel=1e-14)

    @given(v=positive, a=positive)
    def test_algebraic_identity_of_first_row(self, v, a):
        # (A - d kappa_d r^(d-1))^d A^(d(d-1)) equals deficit^d
        d = 3
        kd = inequalities.kappa(d)
        r = d * v / a
        lhs = (a - d * kd * r ** (d - 1)) ** d * a ** (d * (d - 1))
        rhs = inequalities.deficit(d, v, a) ** d
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9 * abs(rhs) + 1e-30)

    def test_holds_on_family_samples(self):
        for fam, grid in [
            (families.builtin("cube"), np.linspace(0.5, 4, 12)),
            (families.builtin("ball"), np.linspace(0.5, 4, 12)),
            (families.builtin("hexagon_120"), np.linspace(0.2, 3, 12)),
        ]:
            for s in grid:
                v, a = families.evaluate(fam, float(s))
                assert inequalities.bonnesen_general(fam.dimension, v, a).all_hold

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            inequalities.bonnesen_general(3, 0.0, 1.0)

    # (A - d kappa_d r^(d-1))^d leaves the float range from d = 22 on for V = 1, A = 4
    @pytest.mark.parametrize("d,a", [(22, 4.0), (25, 6.0), (144, 4.0)])
    def test_row_beyond_the_float_range(self, d, a):
        with pytest.raises(DomainError, match=f"^the deficit_vs_area_gap row in d = {d} is outside"):
            inequalities.bonnesen_general(d, 1.0, a)

    @pytest.mark.parametrize("a", [4.0, 6.0])
    def test_rows_finite_or_rejected(self, a):
        for d in range(2, 400):
            try:
                report = inequalities.bonnesen_general(d, 1.0, a)
            except DomainError as exc:
                assert "outside the float range" in str(exc), d
                assert d >= (22 if a == 4.0 else 25), d
            else:
                values = [x for row in report.rows for x in (row.lhs, row.rhs, row.slack)]
                assert all(map(math.isfinite, values)), d
                assert d < (22 if a == 4.0 else 25), d

    def test_tong_inradius_underflow(self):
        with pytest.raises(DomainError, match="^the Tong inradius in d = 2 is outside the float"):
            inequalities.bonnesen_general(2, 4.2e-259, 2.4e130)

    def test_random_inputs_end_in_a_report_or_a_domain_error(self):
        # V and A log-uniform over 1e+-300: r = d V / A underflows in about 1 % of draws
        rng = np.random.default_rng(2024)
        ds = rng.integers(2, 6, 20000).tolist()
        vs, as_ = (10.0 ** rng.uniform(-300, 300, (2, 20000))).tolist()
        reports = 0
        for d, v, a in zip(ds, vs, as_):
            try:
                inequalities.bonnesen_general(d, v, a)
                reports += 1
            except DomainError as exc:
                assert "outside the float range" in str(exc), (d, v, a)
        assert 0 < reports < 20000


class TestBonnesen2d:
    def test_circle_equalities(self):
        rho = 2.0
        report = inequalities.bonnesen_2d(2 * math.pi * rho, math.pi * rho**2, rho)
        assert report.all_hold
        for row in report.rows:
            assert row.slack == pytest.approx(0.0, abs=1e-10)

    def test_rectangle_with_inscribed_radius(self):
        # 2x1 rectangle, inscribed circle radius 1/2
        report = inequalities.bonnesen_2d(6.0, 2.0, 0.5)
        assert report.deficit == pytest.approx(36 - 8 * math.pi, rel=1e-14)
        assert report.rows[0].rhs == pytest.approx((6 - math.pi) ** 2, rel=1e-14)
        assert report.all_hold

    def test_rectangle_with_tong_inradius(self):
        # Tong r = 2A/P = 2/3; Osserman: r P = 4 >= A + pi r^2
        report = inequalities.bonnesen_2d(6.0, 2.0, 2.0 / 3.0)
        osserman = report.rows[2]
        assert osserman.lhs == pytest.approx(4.0)
        assert osserman.rhs == pytest.approx(2.0 + 4 * math.pi / 9, rel=1e-14)
        assert report.all_hold

    def test_monotone_chain_with_tong_inradius(self):
        # (P - 2 pi r)^2 = deficit^2 / P^2 <= deficit
        for p_, a_ in [(6.0, 2.0), (4.0, 1.0), (12.0, 9 * math.sqrt(3) / 2)]:
            r = 2 * a_ / p_
            dfc = p_**2 - 4 * math.pi * a_
            lhs = (p_ - 2 * math.pi * r) ** 2
            assert lhs == pytest.approx(dfc**2 / p_**2, rel=1e-9)
            assert lhs <= dfc + 1e-12

    def test_oversized_radius_rejected(self):
        with pytest.raises(DomainError):
            inequalities.bonnesen_2d(6.0, 2.0, 2.0)

    def test_perimeter_beyond_the_float_range(self):
        with pytest.raises(DomainError, match="^the isoperimetric deficit in d = 2 is outside"):
            inequalities.bonnesen_2d(1e200, 1.0, 1.0)
        # P^2 = 1e300 fits, (A / r - pi r)^2 does not
        with pytest.raises(DomainError, match="^the bonnesen_area row in d = 2 is outside"):
            inequalities.bonnesen_2d(1e150, 1e300, 1e-10)

    def test_deficit_as_before(self):
        for p_, a_ in [(6.0, 2.0), (4.0, 1.0), (7.3, 0.1)]:
            assert inequalities.bonnesen_2d(p_, a_, 0.01).deficit == p_**2 - 4.0 * math.pi * a_


class TestEqualityDetection:
    def test_only_balls_reach_zero(self):
        ball = families.builtin("ball")
        for s in (0.5, 1.0, 2.0):
            v, a = families.evaluate(ball, s)
            assert inequalities.deficit(3, v, a) / a**3 <= 1e-10
        cube = families.builtin("cube")
        for s in (0.5, 1.0, 2.0):
            v, a = families.evaluate(cube, s)
            assert inequalities.deficit(3, v, a) / a**3 > 1e-10
