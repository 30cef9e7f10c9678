import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from helpers import ALL_ONE_PARAM, vandermonde_slopes, window_slopes
from isolab import calculus, families, homogeneity
from isolab.errors import ConvergenceError, DomainError
from isolab.families import FamilySpec

SQRT2 = math.sqrt(2.0)


class TestDerivative:
    def test_cubic(self):
        assert calculus.derivative(lambda s: s**3, 2.0) == pytest.approx(12.0, rel=1e-8)

    def test_constant(self):
        for s in (0.0, 1.0, -3.7):
            assert abs(calculus.derivative(lambda _: 4.2, s)) <= 1e-10

    def test_cube_volume(self):
        cube = families.builtin("cube")
        assert calculus.derivative(cube.volume, 1.0) == pytest.approx(3.0, rel=1e-8)

    def test_evaluation_failure_propagates(self):
        def bad(s):
            raise ZeroDivisionError("nope")

        with pytest.raises(Exception, match="evaluation failed"):
            calculus.derivative(bad, 1.0)

    def test_stencil_past_the_domain_end(self):
        # sqrt of a negative float is complex; the estimate must not be
        with pytest.raises(DomainError, match="not real and finite .* at s=1e-08$"):
            calculus.derivative(lambda s: s**0.5, 1e-8)
        with pytest.raises(DomainError, match="at s=0.0$"):
            calculus.derivative(lambda s: math.log(s) if s > 0 else -math.inf, 0.0)
        assert type(calculus.derivative(lambda s: np.float64(s) ** 2, 1.0)) is float

    def test_elementwise_on_arrays(self):
        s = np.concatenate([np.linspace(-3.0, 3.0, 61), [1e-300, 1e100]])
        got = calculus.derivative(lambda t: t * t * t, s, 0.5)
        want = [calculus.derivative(lambda t: t * t * t, x, 0.5) for x in s.tolist()]
        assert got.tolist() == want


    # V = s**1.5 is complex below 0, so the stencil turns inward at the domain's end
    def test_one_sided_at_the_domain_end(self):
        pow15 = FamilySpec(id="pow15", dimension=2, domain=((0.0, 10.0),),
                           volume=lambda s: s**1.5, area=lambda s: 1.0)
        grid = np.linspace(1.0, 4.0, 8)
        curve = calculus.inradius_by_quadrature(pow15, 0.0, 0.0, grid)
        np.testing.assert_allclose(curve.r, grid**1.5, rtol=1e-7)
        # V' = 0.9 s**-0.1 is unbounded at 0, where no difference quotient can follow it
        pow09 = dataclasses.replace(pow15, volume=lambda s: s**0.9)
        with pytest.raises(DomainError, match="grow as the step shrinks"):
            calculus.inradius_by_quadrature(pow09, 0.0, 0.0, grid)

    def test_one_sided_stencils_on_both_ends(self):
        f, domain = (lambda t: t * t * t), (0.0, 1.0)
        s = np.array([1e-7, 1e-6, 0.25, 0.5, 1.0 - 1e-6, 1.0 - 1e-7])
        got = calculus.derivative(f, s, 0.5, domain)
        want = [calculus.derivative(f, x, 0.5, domain) for x in s.tolist()]
        assert got.tolist() == want
        np.testing.assert_allclose(got, 3.0 * s**2, rtol=1e-6, atol=1e-9)
        # points whose central stencil stays inside are unchanged
        assert got[2:4].tolist() == calculus.derivative(f, s[2:4], 0.5).tolist()
        with pytest.raises(DomainError, match=re.escape("stencil s + ")):
            calculus.derivative(lambda t: math.nan, 1e-7, 0.5, domain)

    @pytest.mark.parametrize("scale", [0.0, math.nan])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(DomainError, match="^scale must be positive$"):
            calculus.derivative(lambda t: t, 1.0, scale=scale)

    def test_float_call_hands_f_floats(self):
        seen = []

        def log(t):
            seen.append(type(t))
            return math.log(t)

        assert calculus.derivative(log, 2.0) == pytest.approx(0.5, rel=1e-9)
        assert calculus.derivative(log, 1.0 - 1e-7, 0.5, (0.0, 1.0)) == pytest.approx(1.0, rel=1e-6)
        assert set(seen) == {float}

    @pytest.mark.parametrize("s", [np.array([1e-7, 2e-7]), np.array([1e-7, 0.5, 1.0 - 1e-7])],
                             ids=["one-sided", "mixed"])
    def test_array_reaches_f_whole(self, s):
        shapes = []

        def cube(t):
            shapes.append(t.shape)
            return t * t * t

        calculus.derivative(cube, s, 0.5, (0.0, 1.0))
        assert shapes == [s.shape] * 4

    def test_complex_values_with_no_imaginary_part_are_real(self):
        got = calculus.derivative(lambda t: complex(t * t), 2.0)
        assert type(got) is float and got == pytest.approx(4.0, rel=1e-9)

    def test_array_lets_the_exception_of_f_through(self):
        def bad(t):
            raise ZeroDivisionError("nope")

        with pytest.raises(ZeroDivisionError, match="^nope$"):
            calculus.derivative(bad, np.array([1.0, 2.0]))

    # t**0.9 on (0, 10): its one-sided quotients at 1e-7 grow, and it is not real at -1.0
    @pytest.mark.parametrize("f,s,domain,bad", [
        (lambda t: t**0.5, [1.0, 1e-8, 1e-9], (-math.inf, math.inf), 1e-8),
        (np.emath.sqrt, [1.0, 1e-8, 1e-9], (-math.inf, math.inf), 1e-8),  # complex where t < 0
        (lambda t: t**0.9, [2.0, 1e-7, 1e-8], (0.0, 10.0), 1e-7),
        (lambda t: t**0.9, [2.0, 1e-7, -1.0], (0.0, 10.0), 1e-7),
        (lambda t: t**0.9, [2.0, -1.0, 1e-7], (0.0, 10.0), -1.0),
    ])
    def test_array_raises_the_float_error_of_its_first_bad_point(self, f, s, domain, bad):
        with pytest.raises(DomainError) as want:
            calculus.derivative(f, bad, 1.0, domain)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as got:
                calculus.derivative(f, np.array(s), 1.0, domain)
        assert str(got.value) == str(want.value)


def _integrand_families():
    """Every built-in one-parameter family."""
    return [f for f in map(families.builtin, families._BUILTINS) if f.nparams == 1]


class TestIntegrate:
    # scipy's adaptive QUADPACK routine is the reference; the library does not use it
    @pytest.mark.parametrize("fam", _integrand_families(), ids=lambda f: f.id)
    def test_matches_quad(self, fam):
        from scipy.integrate import quad

        (lo, hi), = fam.domain
        hi = min(hi, lo + 10.0)
        rng = np.random.default_rng(0)
        a, b = np.sort(rng.uniform(lo + 0.01 * (hi - lo), hi, (2, 50)), axis=0)
        f = calculus.dr_ds(fam)
        got, err = calculus.integrate(f, a, b)
        for ai, bi, gi, ei in zip(a, b, got, err):
            ref = quad(f, ai, bi, epsabs=calculus.QUAD_ABS_TOL, epsrel=calculus.QUAD_REL_TOL,
                       limit=calculus.QUAD_PANEL_LIMIT)[0]
            tol = max(calculus.QUAD_ABS_TOL, calculus.QUAD_REL_TOL * abs(ref))
            assert abs(gi - ref) <= tol and 0 <= ei <= tol, (ai, bi)

    def test_orientation_and_empty_segment(self):
        got, err = calculus.integrate(math.cos, [0.0, 2.0, 1.5], [2.0, 0.0, 1.5])
        assert got[0] == pytest.approx(math.sin(2.0), rel=1e-14)
        assert got[1] == pytest.approx(-math.sin(2.0), rel=1e-14)
        assert (got[2], err[2]) == (0.0, 0.0)

    def test_rough_integrand_stops_at_piece_cap(self):
        calls = []

        def sawtooth(t):  # period 1e-8: no piece the cap allows is smooth
            calls.append(t)
            return (t * 1e8) % 1.0

        with pytest.raises(ConvergenceError, match="missed its tolerance"):
            calculus.integrate(sawtooth, [0.0, 1.0], [1.0, 2.0])
        # pieces double each round, so all rounds together evaluate under 4 caps of pieces
        assert len(calls) <= 15 * 4 * 2 * calculus.QUAD_PANEL_LIMIT

    @pytest.mark.parametrize("a,b,match", [
        ([0.0, 1.0], [1.0], "of one length"),
        ([[0.0, 1.0]], [[1.0, 2.0]], "1-D"),
        ([0.0], [math.inf], "end inf is not finite"),
        ([0.0, math.nan], [1.0, 2.0], "end nan is not finite"),
        ([-math.inf], [0.0], "end -inf is not finite"),
    ])
    def test_bad_ends_rejected_before_any_call(self, a, b, match):
        calls = []
        with pytest.raises(DomainError, match=match):
            calculus.integrate(calls.append, a, b)
        assert calls == []


class TestInradiusByQuadrature:
    def test_cube_half_edge(self):
        cube = families.builtin("cube")
        grid = np.linspace(0.25, 4.0, 40)
        curve = calculus.inradius_by_quadrature(cube, 0.0, 0.0, grid)
        assert np.allclose(curve.r, grid / 2.0, rtol=0, atol=1e-8)

    def test_samples_equal_pairs_built_one_at_a_time(self):
        # (float(s), C + float(r - C)) per grid point, from the same quadrature
        fam = families.builtin("hexagon_120")
        grid, s0, C = np.linspace(3.0, 0.2, 40), 1.3, 0.1
        curve = calculus.inradius_by_quadrature(fam, s0, C, grid)
        knots = np.unique(np.concatenate([[s0], grid]))
        segments, _ = calculus.integrate(calculus.dr_ds(fam), knots[:-1], knots[1:])
        cumulative = np.concatenate([[0.0], np.cumsum(segments)])
        vals = cumulative - cumulative[np.searchsorted(knots, s0)]
        pairs = zip(grid, vals[np.searchsorted(knots, grid)])
        assert curve.samples.tolist() == [[float(s), C + float(v)] for s, v in pairs]
        assert curve.samples.dtype == np.float64 and curve.samples.shape == (40, 2)

    @pytest.mark.parametrize("s0", [0.0, 1.3, float(np.linspace(0.2, 3.0, 40)[17]), 3.5],
                             ids=["domain-end", "between", "grid-point", "past-the-grid"])
    @pytest.mark.parametrize("step", [1, -1], ids=["ascending", "descending"])
    def test_knots_are_the_unique_of_s0_and_grid(self, monkeypatch, s0, step):
        grid, calls = np.linspace(0.2, 3.0, 40)[::step], []
        integrate = calculus.integrate
        monkeypatch.setattr(calculus, "integrate",
                            lambda f, a, b: calls.append((a, b)) or integrate(f, a, b))
        calculus.inradius_by_quadrature(families.builtin("hexagon_120"), s0, 0.1, grid)
        knots = np.unique(np.concatenate([[s0], grid]))
        (a, b), = calls
        np.testing.assert_array_equal(a, knots[:-1])
        np.testing.assert_array_equal(b, knots[1:])
        assert a.dtype == b.dtype == np.float64

    def test_rect_fixed_length_log_curve(self):
        a = 1.5
        fam = families.builtin("rect_fixed_length", a=a)
        grid = np.linspace(0.5, 6.0, 30)
        curve = calculus.inradius_by_quadrature(fam, 0.5, 0.0, grid)
        expected = a / 2 * np.log(2 * grid + 2 * a) - a / 2 * math.log(2 * 0.5 + 2 * a)
        assert np.allclose(curve.r, expected, rtol=0, atol=1e-8)

    def test_rhombus_area_over_constant_perimeter(self):
        a = 1.0
        inc = families.rhombus_branches(a)[0]
        grid = np.linspace(0.1, SQRT2 - 0.1, 25)
        curve = calculus.inradius_by_quadrature(inc, 0.1, 0.0, grid)
        a0 = inc.volume(0.1)
        expected = (np.array([inc.volume(s) for s in grid]) - a0) / (4 * a)
        assert np.allclose(curve.r, expected, rtol=0, atol=1e-8)

    def test_descending_grid_keeps_its_order(self):
        cube = families.builtin("cube")
        grid = np.linspace(4.0, 0.25, 40)
        curve = calculus.inradius_by_quadrature(cube, 0.0, 0.0, grid)
        assert np.array_equal(curve.s, grid)
        assert np.allclose(curve.r, grid / 2.0, rtol=0, atol=1e-8)

    def test_missed_tolerance_is_convergence_error(self):
        fam = families.builtin("rect_fixed_length")
        grid = np.linspace(1e300, 3.14159, 40)
        with pytest.raises(ConvergenceError, match="missed its tolerance"):
            calculus.inradius_by_quadrature(fam, 0.0, 0.0, grid)

    def test_anchor_value_exact(self):
        cube = families.builtin("cube")
        grid = np.linspace(1.0, 3.0, 20)
        curve = calculus.inradius_by_quadrature(cube, 1.0, 7.0, grid)
        assert curve.r[0] == 7.0

    def test_additive_constant_uniqueness(self):
        # two curves with different anchors differ by a uniform constant
        fam = families.builtin("rect_fixed_length", a=1.0)
        grid = np.linspace(0.5, 4.0, 30)
        c1 = calculus.inradius_by_quadrature(fam, 0.5, 0.0, grid)
        c2 = calculus.inradius_by_quadrature(fam, 2.0, 1.0, grid)
        diff = c1.r - c2.r
        assert np.max(diff) - np.min(diff) <= 1e-9

    def test_sign_invariant(self):
        dec = families.rhombus_branches(1.0)[1]
        grid = np.linspace(SQRT2 + 0.05, 1.95, 24)
        curve = calculus.inradius_by_quadrature(dec, grid[0], 0.0, grid)
        v = np.array([dec.volume(s) for s in grid])
        assert np.all(np.sign(np.diff(curve.r)) == np.sign(np.diff(v)))

    def test_rejects_nonmonotone_span(self):
        full = families.FamilySpec(
            id="rhombus_full",
            dimension=2,
            domain=((0.0, 2.0),),
            volume=lambda s: s * math.sqrt(1 - s**2 / 4),
            area=lambda s: 4.0,
        )
        grid = np.linspace(0.2, 1.9, 30)
        with pytest.raises(Exception):
            calculus.inradius_by_quadrature(full, 0.2, 0.0, grid)

    def test_differentiated_volume_past_the_domain_end(self):
        # no dvolume: the stencil of V at the nodes nearest the anchor 0 reaches below 0
        root = families.FamilySpec(id="sqrt", dimension=2, domain=((0.0, 10.0),),
                                   volume=lambda s: s**0.5, area=lambda s: 1.0)
        with pytest.raises(DomainError, match="not real and finite"):
            calculus.inradius_by_quadrature(root, 0.0, 0.0, np.linspace(1.0, 4.0, 8))

    # V takes arrays; its one-sided differences near 0 grow like 1/sqrt(s), which makes the
    # node NaN, and the per-node calls name the node
    @pytest.mark.parametrize("volume", [lambda s: s**0.5, np.emath.sqrt])
    def test_differentiated_volume_error_names_the_first_bad_node(self, volume):
        root = FamilySpec(id="sqrt", dimension=2, domain=((0.0, 10.0),),
                          volume=volume, area=lambda s: 1.0)
        msg = ("the derivative of f is not real and finite at the domain end 0.0: its one-sided "
               "differences from s=1.6688728279662867e-05 grow as the step shrinks")
        with pytest.raises(DomainError) as info:
            calculus.inradius_by_quadrature(root, 0.0, 0.0, np.linspace(1.0, 4.0, 8))
        assert str(info.value) == msg

    def test_one_array_call_for_the_readme_grid(self):
        # isolab inradius --family cube --s0 0 --grid 0.5:4:48: one round of 48 x 15 nodes
        cube = families.builtin("cube")
        calls = []

        def dvolume(s):
            calls.append(np.shape(s))
            return cube.dvolume(s)

        grid = np.linspace(0.5, 4.0, 48)
        curve = calculus.inradius_by_quadrature(dataclasses.replace(cube, dvolume=dvolume),
                                                0.0, 0.0, grid)
        assert calls == [(720,)]
        per_node = dataclasses.replace(cube, dvolume=lambda s: cube.dvolume(float(s)))
        other = calculus.inradius_by_quadrature(per_node, 0.0, 0.0, grid)
        assert curve.to_json() == other.to_json()  # repr of each float: bit-equal
        assert np.array_equal(curve.v, other.v) and np.array_equal(curve.a, other.a)

    # each evaluator fails or misbehaves on arrays, so every node falls back to a float
    # call; the curves are those the per-node loop gave
    @pytest.mark.parametrize("fam,want", [
        (FamilySpec(id="floats_only", dimension=2, domain=((0.0, 10.0),),
                    volume=lambda s: math.exp(s), area=lambda s: 1.0 + math.log1p(s)),
         [0.0, 0.3840088137203659, 0.8503902132086367, 1.4302064165206207, 2.162327276193797,
          3.096966389714268]),
        (FamilySpec(id="branching", dimension=3, domain=((0.0, math.inf),),
                    volume=lambda s: s**3 if s > 0 else 0.0, area=lambda s: 6.0 * s * s),
         [0.0, 0.14999999999711863, 0.29999999999547367, 0.4499999999948822,
          0.5999999999943344, 0.7499999999939663]),
        (FamilySpec(id="constant", dimension=2, domain=((0.0, math.inf),),
                    volume=lambda s: 3.0 * s, area=lambda s: 6.0, dvolume=lambda s: 3.0),
         [0.0, 0.15000000000000002, 0.30000000000000004, 0.44999999999999996, 0.6, 0.75]),
        (FamilySpec(id="wrong_shape", dimension=3, domain=((0.0, math.inf),),
                    volume=lambda s: s**3, area=lambda s: 6.0 * s * s,
                    dvolume=lambda s: np.atleast_2d(3.0 * s * s)),
         [0.0, 0.15000000000000002, 0.30000000000000004, 0.44999999999999996, 0.6, 0.75]),
    ], ids=lambda x: getattr(x, "id", ""))
    def test_per_node_fallback(self, fam, want):
        curve = calculus.inradius_by_quadrature(fam, 0.5, 0.0, np.linspace(0.5, 2.0, 6))
        assert curve.r.tolist() == want

    def test_one_point_grid_rejected(self):
        # a 2-D grid gets sample's message, and a 0-d one no TypeError from len
        for grid, message in [([1.0], "grid must contain at least 2 points"),
                              (1.0, "grid must contain at least 2 points"),
                              (np.full((3, 3), 1.0), "grid must be 1-D, not of shape (3, 3)")]:
            with pytest.raises(DomainError) as info:
                calculus.inradius_by_quadrature(families.builtin("cube"), 0.0, 0.0, grid)
            assert str(info.value) == message

    def test_anchor_outside_domain(self):
        with pytest.raises(DomainError, match=re.escape("anchor s0=-1.0 outside domain [0.0, inf)")):
            calculus.inradius_by_quadrature(families.builtin("cube"), -1.0, 0.0, [1.0, 2.0])

    def test_grid_outside_domain(self):
        inc = families.rhombus_branches(1.0)[0]
        with pytest.raises(DomainError):
            calculus.inradius_by_quadrature(inc, 0.5, 0.0, np.linspace(0.5, 1.9, 20))

    def test_csv_and_json_roundtrip(self):
        import json

        cube = families.builtin("cube")
        grid = np.linspace(0.5, 2.0, 10)
        curve = calculus.inradius_by_quadrature(cube, 0.5, 0.0, grid)
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "s,r"
        assert len(lines) == 11
        doc = json.loads(curve.to_json())
        assert doc["family_id"] == "cube"
        assert len(doc["samples"]) == 10


class TestInradiusCurve:
    def test_arrays_held_and_written_as_lists(self):
        import json

        cube = families.builtin("cube")
        grid = np.linspace(0.5, 2.0, 10)
        curve = calculus.inradius_by_quadrature(cube, 0.5, 0.0, grid)
        assert curve.s.base is curve.samples and curve.r.base is curve.samples
        assert np.array_equal(curve.v, cube.volume(grid))
        assert np.array_equal(curve.a, cube.area(grid))
        doc = json.loads(curve.to_json())
        assert list(doc) == ["family_id", "anchor_s0", "anchor_value_C", "samples",
                             "quadrature_error_estimate"]
        assert doc["samples"] == [[s, r] for s, r in zip(grid.tolist(), curve.r.tolist())]
        assert curve.to_csv().splitlines()[0] == "s,r"
        assert ", v=" not in repr(curve) and ", a=" not in repr(curve)

    def test_sequences_become_arrays(self):
        curve = calculus.InradiusCurve("cube", 1.0, 0.0, ((1.0, 0.5), (2.0, 1.0)), 0.0,
                                       [1.0, 8.0], (6.0, 24.0))
        replaced = dataclasses.replace(curve, samples=((1.0, 0.5), (3.0, 1.5)))
        for x in (curve.samples, curve.v, curve.a, replaced.samples):
            assert type(x) is np.ndarray and x.dtype == np.float64
        assert replaced.r.tolist() == [0.5, 1.5] and replaced.v.tolist() == [1.0, 8.0]

    def test_arrays_are_read_only(self):
        grid = np.linspace(0.5, 2.0, 10)
        curve = calculus.inradius_by_quadrature(families.builtin("cube"), 0.5, 0.0, grid)
        for x in (curve.samples, curve.s, curve.r, curve.v, curve.a):
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 1.0
        given = np.ones((10, 2))
        calculus.InradiusCurve("cube", 1.0, 0.0, given, 0.0, curve.v, curve.a)
        assert given.flags.writeable  # the curve holds a copy

    @pytest.mark.parametrize("samples,v,a,shapes", [
        (((1.0,),) * 10, np.ones(10), np.ones(10), "(10, 1), (10,) and (10,)"),
        (np.ones(20), np.ones(10), np.ones(10), "(20,), (10,) and (10,)"),
        (np.ones((10, 2)), np.ones(9), np.ones(10), "(10, 2), (9,) and (10,)"),
        (np.ones((10, 2)), np.ones(10), np.ones((10, 1)), "(10, 2), (10,) and (10, 1)"),
    ])
    def test_malformed_curve_rejected(self, samples, v, a, shapes):
        message = f"curve samples, v and a must be of shapes (m, 2), (m,) and (m,), not {shapes}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            calculus.InradiusCurve("cube", 1.0, 0.0, samples, 0.0, v, a)

    @pytest.mark.parametrize("samples", [((1.0,), (1.0, 2.0)), (("1.0", "x"), (2.0, 1.0))])
    def test_ragged_or_non_numeric_curve_rejected(self, samples):
        with pytest.raises(DomainError, match="^curve samples, v and a must be float arrays: "):
            calculus.InradiusCurve("cube", 1.0, 0.0, samples, 0.0, (1.0, 8.0), (6.0, 24.0))

    @pytest.mark.parametrize("column,value",
                             [("v", math.nan), ("a", 0.0), ("a", -1.0), ("v", math.inf)])
    def test_v_and_a_not_finite_and_positive_rejected(self, column, value):
        # the relation check divides by A and calls no evaluator that would reject it
        cube = families.builtin("cube")
        sampled = calculus.inradius_by_quadrature(cube, 1.0, 0.0, np.linspace(1, 2, 40))
        v, a = sampled.v.copy(), sampled.a.copy()
        {"v": v, "a": a}[column][10] = value
        with pytest.raises(DomainError, match="^curve v and a must be finite and positive$"):
            calculus.InradiusCurve("cube", 1.0, 0.0, sampled.samples, 0.0, v, a)


def _counting_volume(fam: FamilySpec) -> tuple[FamilySpec, list]:
    """``fam`` with a volume that logs the number of points of each call, the
    log started after the spec's own construction probe."""
    points = []

    def volume(s):
        points.append(np.size(s))
        return fam.volume(s)

    counted = dataclasses.replace(fam, volume=volume)
    points.clear()
    return counted, points


class TestOneSamplePerGrid:
    # V is sampled once per grid point, in one call; the quadrature reads V' from dvolume
    def test_relation(self):
        fam, points = _counting_volume(families.builtin("cube"))
        grid = np.linspace(0.5, 4.0, 100)
        curve = calculus.inradius_by_quadrature(fam, 0.0, 0.0, grid)
        assert calculus.verify_derivative_relation(fam, curve, rtol=1e-6).passes
        assert points == [len(grid)]

    def test_classify(self):
        fam, points = _counting_volume(families.builtin("cube"))
        grid = np.linspace(0.5, 4.0, 40)
        assert homogeneity.classify(fam, grid).homogeneous
        assert points == [len(grid)]

    def test_constant_area_check(self):
        fam, points = _counting_volume(families.rhombus_branches(1.0)[0])
        grid = np.linspace(0.1, SQRT2 - 0.1, 40)
        assert homogeneity.constant_area_check(fam, grid)
        assert points == [len(grid)]


class TestVerifyDerivativeRelation:
    def test_cube_curve(self):
        cube = families.builtin("cube")
        grid = np.linspace(0.5, 4.0, 48)
        curve = calculus.inradius_by_quadrature(cube, 0.0, 0.0, grid)
        report = calculus.verify_derivative_relation(cube, curve, rtol=1e-6)
        assert report.passes
        # along this curve V = 8 r^3 and A = 24 r^2
        assert np.allclose([cube.volume(s) for s in grid], 8 * curve.r**3, rtol=1e-10)
        assert np.allclose([cube.area(s) for s in grid], 24 * curve.r**2, rtol=1e-10)

    @pytest.mark.parametrize("fam,grid", ALL_ONE_PARAM, ids=lambda x: getattr(x, "id", "grid"))
    def test_chain_rule_identity_all_builtins(self, fam, grid):
        curve = calculus.inradius_by_quadrature(fam, float(grid[0]), 0.0, grid)
        report = calculus.verify_derivative_relation(fam, curve, rtol=1e-6)
        assert report.passes, (fam.id, report.max_relative_deviation)

    def test_exact_for_degree_six_polynomial(self):
        # along r = s each window interpolates V = p exactly, so the slope is A = p'
        p = [1.0 / math.factorial(k) for k in range(6, -1, -1)]
        poly = FamilySpec("poly6", 3, ((0.0, math.inf),), lambda s: np.polyval(p, s),
                          lambda s: np.polyval(np.polyder(p), s))
        s = (0.5 + 3.0 * np.linspace(0.0, 1.0, 40) ** 2).tolist()  # non-uniform
        curve = calculus.InradiusCurve("poly6", s[0], 0.0, tuple(zip(s, s)), 0.0,
                                       *families.sample(poly, s))
        report = calculus.verify_derivative_relation(poly, curve, rtol=1e-12)
        assert report.max_relative_deviation <= 1e-12
        assert report.passes and report.n_checked == 34

    @pytest.mark.parametrize("fam,grid", ALL_ONE_PARAM, ids=lambda x: getattr(x, "id", "grid"))
    def test_slopes_match_vandermonde_solve(self, fam, grid):
        curve = calculus.inradius_by_quadrature(fam, float(grid[0]), 0.0, grid)
        v, _ = families.sample(fam, grid)
        got = calculus._centre_slopes(curve.r, v)
        np.testing.assert_allclose(got, vandermonde_slopes(curve.r, v), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("fam,grid", ALL_ONE_PARAM, ids=lambda x: getattr(x, "id", "grid"))
    def test_slopes_equal_the_sliding_window_form(self, fam, grid):
        curve = calculus.inradius_by_quadrature(fam, float(grid[0]), 0.0, grid)
        np.testing.assert_array_equal(calculus._centre_slopes(curve.r, curve.v),
                                      window_slopes(curve.r, curve.v))

    @pytest.mark.parametrize("n", [7, 8, 13, 400])
    def test_slopes_equal_the_sliding_window_form_on_any_order(self, n):
        rng = np.random.default_rng(n)
        r, v = rng.permutation(np.cumsum(rng.uniform(0.1, 1.0, n))), rng.standard_normal(n)
        np.testing.assert_array_equal(calculus._centre_slopes(r, v), window_slopes(r, v))

    def test_nan_rtol_rejected(self):
        cube = families.builtin("cube")
        curve = calculus.inradius_by_quadrature(cube, 1.0, 0.0, np.linspace(1, 2, 40))
        with pytest.raises(DomainError, match="rtol"):
            calculus.verify_derivative_relation(cube, curve, rtol=math.nan)

    def test_curve_of_another_family_rejected(self):
        cube = families.builtin("cube")
        curve = calculus.inradius_by_quadrature(cube, 1.0, 0.0, np.linspace(1, 2, 40))
        with pytest.raises(DomainError, match="^curve of 'cube' does not belong to family 'ball'$"):
            calculus.verify_derivative_relation(families.builtin("ball"), curve, rtol=1e-6)

    @pytest.mark.parametrize("column,value", [(0, math.nan), (1, math.nan), (1, -math.inf), (0, math.inf)])
    def test_non_finite_sample_rejected(self, column, value):
        cube = families.builtin("cube")
        sampled = calculus.inradius_by_quadrature(cube, 1.0, 0.0, np.linspace(1, 2, 40))
        samples = sampled.samples.copy()
        samples[5, column] = value
        curve = calculus.InradiusCurve("cube", 1.0, 0.0, samples, 0.0, sampled.v, sampled.a)
        with pytest.raises(DomainError, match=r"curve sample 5 \(s=.*, r=.*\) is not finite"):
            calculus.verify_derivative_relation(cube, curve, rtol=1e-6)

    def test_repeated_r_rejected_before_any_division(self):
        cube = families.builtin("cube")
        curve = calculus.inradius_by_quadrature(cube, 1.0, 0.0, np.linspace(1, 2, 40))
        samples = list(curve.samples)
        samples[9] = (samples[9][0], samples[4][1])
        curve = dataclasses.replace(curve, samples=tuple(samples))
        message = f"curve sample 9 (s={samples[9][0]}) repeats the value r={samples[4][1]}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning on the way
            with pytest.raises(DomainError, match=re.escape(message)):
                calculus.verify_derivative_relation(cube, curve, rtol=1e-6)

    def test_degenerate_two_sample_curve(self):
        cube = families.builtin("cube")
        curve = calculus.InradiusCurve("cube", 1.0, 0.0, ((1.0, 0.5), (2.0, 1.0)), 0.0,
                                       (1.0, 8.0), (6.0, 24.0))
        with pytest.raises(DomainError):
            calculus.verify_derivative_relation(cube, curve, rtol=1e-6)


class TestReparameterize:
    def test_square_map(self):
        cube = families.builtin("cube")
        fam = calculus.reparameterize(cube, lambda s: s**2, (0.0, math.inf), dphi=lambda s: 2 * s)
        assert fam.volume(2.0) == pytest.approx(64.0)
        assert fam.area(2.0) == pytest.approx(96.0)
        grid = np.linspace(0.5, 2.5, 24)
        curve = calculus.inradius_by_quadrature(fam, 0.5, 0.0, grid)
        expected = (grid**2 - 0.25) / 2.0
        assert np.allclose(curve.r, expected, rtol=0, atol=1e-8)

    def test_identity_map(self):
        cube = families.builtin("cube")
        fam = calculus.reparameterize(cube, lambda s: s, (0.0, math.inf))
        for s in (0.5, 1.0, 3.0):
            assert fam.volume(s) == cube.volume(s)
            assert fam.area(s) == cube.area(s)

    def test_exp_map(self):
        cube = families.builtin("cube")
        fam = calculus.reparameterize(cube, math.exp, (-2.0, 2.0), dphi=math.exp)
        grid = np.linspace(-1.5, 1.5, 24)
        curve = calculus.inradius_by_quadrature(fam, -1.5, 0.0, grid)
        expected = (np.exp(grid) - math.exp(-1.5)) / 2.0
        assert np.allclose(curve.r, expected, rtol=0, atol=1e-8)

    def test_nonmonotone_rejected(self):
        cube = families.builtin("cube")
        with pytest.raises(DomainError):
            calculus.reparameterize(cube, lambda s: 2 + math.sin(s), (0.0, 20.0))

    def test_empty_domain_rejected(self):
        with pytest.raises(DomainError, match=re.escape("empty reparameterized domain (1.0, 1.0)")):
            calculus.reparameterize(families.builtin("cube"), lambda s: s, (1.0, 1.0))

    def test_image_outside_the_family_domain_rejected(self):
        with pytest.raises(DomainError, match="^phi maps outside the family domain$"):
            calculus.reparameterize(families.builtin("cube"), lambda s: s - 5.0, (0.0, 1.0))

    # hexagon_120 by s -> s**2 without dphi: quadrature differentiates V numerically
    def test_numeric_derivative_passes_the_relation(self):
        fam = calculus.reparameterize(families.builtin("hexagon_120"), lambda s: s * s,
                                      (0.0, math.inf))
        assert fam.dvolume is None
        curve = calculus.inradius_by_quadrature(fam, 0.5, 0.0, np.linspace(0.5, 1.8, 100))
        assert calculus.verify_derivative_relation(fam, curve, rtol=1e-6).passes


class TestMonotonePartition:
    def test_rhombus_breakpoint(self):
        a = 1.0
        v = lambda s: s * math.sqrt(a**2 - s**2 / 4)
        grid = np.linspace(0.05, 1.95, 64)
        parts = calculus.monotone_partition(v, grid, refine_tol=1e-6)
        assert len(parts) == 2
        assert parts[0][1] == pytest.approx(SQRT2, abs=1e-6)
        assert parts[1][0] == pytest.approx(SQRT2, abs=1e-6)

    def test_monotone_single_interval(self):
        grid = np.linspace(0.1, 10.0, 64)
        parts = calculus.monotone_partition(lambda s: s**3, grid, refine_tol=1e-8)
        assert parts == [(0.1, 10.0)]

    def test_sine_breakpoints(self):
        grid = np.linspace(0.01, 2 * math.pi - 0.01, 200)
        parts = calculus.monotone_partition(math.sin, grid, refine_tol=1e-6)
        assert len(parts) == 3
        assert parts[0][1] == pytest.approx(math.pi / 2, abs=1e-6)
        assert parts[1][1] == pytest.approx(3 * math.pi / 2, abs=1e-6)

    def test_small_grid_rejected(self):
        with pytest.raises(DomainError):
            calculus.monotone_partition(lambda s: s, np.linspace(0, 1, 10), 1e-8)

    def test_nan_refine_tol_rejected(self):
        with pytest.raises(DomainError, match="refine_tol"):
            calculus.monotone_partition(lambda s: s**3, np.linspace(1, 2, 20), math.nan)

    def test_nan_value_names_the_point(self):
        grid = np.linspace(0.0, 2.0, 64)
        with pytest.raises(DomainError, match=f"not real and finite at grid point {grid[48]}$"):
            calculus.monotone_partition(lambda s: math.nan if s > 1.5 else s, grid, 1e-8)

    def test_complex_value_names_the_point(self):
        with pytest.raises(DomainError, match="not real and finite at grid point -1.0$"):
            calculus.monotone_partition(lambda s: s**0.5, np.linspace(-1.0, 1.0, 64), 1e-8)

    def test_unordered_grid_rejected(self):
        grid = np.random.default_rng(0).permutation(np.linspace(0.0, 2.0, 64))
        with pytest.raises(DomainError, match="grid must be strictly ordered"):
            calculus.monotone_partition(lambda s: s, grid, 1e-8)

    @pytest.mark.parametrize("v,grid,tol", [
        (lambda s: (s - 1.0) ** 2, np.linspace(0.0, 2.0, 64), 1e-8),
        (math.sin, np.linspace(0.01, 2 * math.pi - 0.01, 200), 1e-6),
    ])
    def test_descending_grid_matches_ascending(self, v, grid, tol):
        up = calculus.monotone_partition(v, grid, tol)
        down = calculus.monotone_partition(v, grid[::-1], tol)
        mirrored = [(hi, lo) for lo, hi in reversed(up)]
        assert np.allclose(mirrored, down, rtol=0, atol=tol)
        assert down[0][0] == grid[-1] and down[-1][1] == grid[0]

    def test_one_call_for_the_grid(self):
        calls = []

        def v(s):
            calls.append(np.size(s))
            return s**3

        grid = np.linspace(0.1, 10.0, 64)
        assert calculus.monotone_partition(v, grid, 1e-8) == [(0.1, 10.0)]
        assert calls == [64]

    FLAT = np.linspace(0.0, 2.0, 41)

    # a numerically constant stretch is a gap wherever it lies
    @pytest.mark.parametrize("v,want", [
        (lambda s: np.maximum(s, 1.0), [(1.0, 2.0)]),
        (lambda s: np.minimum(s, 1.0), [(0.0, 1.0)]),
        (lambda s: np.maximum(np.abs(s - 1.0), 0.5), [(0.0, 0.5), (1.5, 2.0)]),
        (lambda s: np.where(s < 0.5, s, np.where(s < 1.5, 0.5, s - 1.0)), [(0.0, 0.5), (1.5, 2.0)]),
    ], ids=["leading", "trailing", "between opposite slopes", "between equal slopes"])
    def test_flat_stretch_is_a_gap(self, v, want):
        assert calculus.monotone_partition(v, self.FLAT, 1e-8) == want

    def test_one_zero_slope_between_opposite_ones_is_a_turning_point(self):
        grid = (np.arange(16) - 7.5) * 0.25  # |s| is equal at the middle two points
        parts = calculus.monotone_partition(np.abs, grid, 1e-8)
        assert len(parts) == 2 and (parts[0][0], parts[1][1]) == (-1.875, 1.875)
        assert abs(parts[0][1]) <= 1e-8 and parts[1][0] == parts[0][1]
