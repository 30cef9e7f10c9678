import dataclasses
import hashlib
import json
import math
import re
import warnings

import numpy as np
import pytest

from helpers import ALL_BUILTINS
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
    # the rhombus is a built-in only by its two monotone branches
    with pytest.raises(DomainError, match="unknown built-in family 'rhombus'"):
        families.builtin("rhombus", a=1.0)
    assert families.builtin("rhombus_decreasing", a=1.0).domain == ((SQRT2, 2.0),)


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
    with pytest.raises(DomainError, match="integer"):  # not ngon_5
        families.builtin("ngon", n=5.5)


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


def _pin_points(lo: float, hi: float) -> np.ndarray:
    """Seeded points of (lo, hi): on (0, inf) 2000 log-uniform in 10^±100, 2000 in (0, 10)
    and four float extremes; on a finite interval 4000 uniform and the floats next to its ends."""
    rng = np.random.default_rng(1)
    if (lo, hi) == families.RPLUS:
        return np.concatenate([10.0 ** rng.uniform(-100.0, 100.0, 2000),
                               rng.uniform(0.0, 10.0, 2000), [1e-300, 1e300, 5e-324, 1.7e308]])
    return np.concatenate([lo + (hi - lo) * rng.uniform(0.0, 1.0, 4000),
                           [np.nextafter(lo, hi), np.nextafter(hi, lo)]])


def _evaluator_digests(spec: families.FamilySpec) -> tuple[str, str]:
    """sha256 over float.hex of V, A and V' at the pin points, from one array call of each
    evaluator and from one call per float."""
    s = _pin_points(*spec.interval)
    on_array, per_float = hashlib.sha256(), hashlib.sha256()
    with np.errstate(all="ignore"):  # the extremes overflow on arrays
        for f in (spec.volume, spec.area, spec.dvolume):
            y = np.broadcast_to(np.asarray(f(s), dtype=float), s.shape)  # a constant V' is a float
            on_array.update(" ".join(map(float.hex, y.tolist())).encode())
            per_float.update(" ".join(float.hex(float(f(x))) for x in s.tolist()).encode())
    return on_array.hexdigest(), per_float.hexdigest()


class TestPinnedBits:
    """The bits of every one-parameter built-in's evaluators and of the catalog: a change
    that moves them updates these digests and says why."""

    EVALUATORS = {
        "ball": "d4e8f2ad28554f99e62e104bbbf188611253b69acb30256acf98c177a9a39693",
        "cube": "15695b5970aa7142054e1ca1d16db48c5998621342ae06bf7d25ff7e55ac511d",
        "disk": "ec32c306114f6ad867174c3835b3aa27b4a91c6c539fad0b081a05b4dfdb0831",
        "hexagon_120": "1af6ec0254b7cfb2ba514c843a3c4089a1784bf81c9ac32c2f0805129e6ed3c7",
        "ngon": "996778a3750fde1a2c40cd457f0080cad073d618b406e755643f078a5f1149ed",
        "rect_fixed_length": "bffd8028f40a4cf82f3123556f35a638aef2bfae2c9e2daa4426a256e2c7554c",
        "rect_similar": "11304facd12fef9629336e6c420ea0dc5c45c69199ac7e718a5562680039ac7e",
        "rhombus_increasing": "98c61727b2e7f8636d324110663775d77392ad5a51d63b57ff1180b477e3068b",
        "rhombus_decreasing": "8a76c78eae01c955376fcf9d9066b6def07ee913c72dac16eb6bf361aea4063a",
        "ngon_3": "3a68479c88773ead31ded8a48ea5eb6746cd870209cdeae29897fd3ed53831bd",
        "ngon_4": "d93e2ea61517cb752082f5d06261a182c3d349a717c860f3f5dc5ac46e2db818",
        "ngon_5": "e55889a1638d4a2eabd5a3ffa00758ce234d805993fda2966ed77a3b8c5cb605",
        "ngon_6": "996778a3750fde1a2c40cd457f0080cad073d618b406e755643f078a5f1149ed",
        "ngon_7": "50e984950c643e9cb336b9fbb757d347c7d1888648381f1968b077bfd0bfed90",
        "ngon_8": "3c7b3653f66e0397519a3d478120ea62759b567df03239cf4858c586c86a79e1",
        "ngon_9": "b216f10e2536d8b7b31869fe51406ea156edcdb0e398b1f5ea92b23181e270b8",
        "ngon_10": "85043f2c4f24d6fbac8c21ecf5e005b10785a3008d8d8196ce3a1eee9721df55",
        "ngon_11": "d4de2efe12683bafb2622e953660e57c5c365b38616f5ef823e2284f09f06231",
        "ngon_12": "73db16a1a76ff6a7557450ff47adf05aea073e17b7bdb8ba4033429aa4f3b613",
    }
    CATALOG = "6961ced4e25ebf827d775177fc4b4632f557eb1cd22fbc6e793efca628b9ab73"

    @pytest.mark.parametrize("name", list(EVALUATORS))
    def test_evaluators(self, name):
        ngon = name.startswith("ngon_")
        spec = families.builtin("ngon", n=int(name[5:])) if ngon else families.builtin(name)
        assert _evaluator_digests(spec) == (self.EVALUATORS[name],) * 2

    def test_catalog_json(self):
        assert hashlib.sha256(families.catalog_json().encode()).hexdigest() == self.CATALOG


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

    @pytest.mark.parametrize("d", range(2, 7))
    def test_ratio_has_the_bits_of_products_from_one(self, d):
        # products that start from the first factor round as those that start from 1
        special = [0.0, 5e-324, 2.5e-310, 1e-160, 1.0, 1e160, math.inf, math.nan]
        rng = np.random.default_rng(d)
        v = np.concatenate([np.repeat(special, len(special)), 10.0 ** rng.uniform(-320, 308, 500)])
        a = np.concatenate([np.tile(special, len(special)), 10.0 ** rng.uniform(-320, 308, 500)])

        def outcome(*args):  # the bits of Q, or the name of what it raises
            try:
                return np.float64(families.ratio(d, *args)).tobytes()
            except ZeroDivisionError:
                return "ZeroDivisionError"

        with np.errstate(all="ignore"):
            got = families.ratio(d, v, a)
            want = math.prod([a] * d) / math.prod([v] * (d - 1))
            assert got.tobytes() == want.tobytes()
            for vi, ai in zip(v.tolist(), a.tolist()):
                try:
                    old = np.float64(math.prod([ai] * d) / math.prod([vi] * (d - 1))).tobytes()
                except ZeroDivisionError:
                    old = "ZeroDivisionError"
                assert outcome(vi, ai) == old, (vi, ai)
        assert np.isnan(got).any() and np.isinf(got).any() and (got == 0).any()

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

    def test_warning_of_an_evaluator_is_a_domain_error(self):
        spec = families.builtin("parallelogram3")
        x = np.array([1e308, 1.0, 1.0])  # A's 2.0 * x[0] overflows on a numpy scalar
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert search.ratio_function(spec)(x) == math.inf
            with pytest.raises(DomainError, match=re.escape(
                    "V or A warns (overflow encountered in scalar multiply) at point "
                    "[1e+308, 1.0, 1.0] of 'parallelogram3'")):
                families.evaluate(spec, x)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="A = inf at point"):
            families.evaluate(spec, x)  # where numpy does not warn, A is inf

    @pytest.mark.parametrize("fid", ["cube", "hexagon_120", "ngon"])
    def test_classify_q_equals_ratio_function(self, fid):
        fam = families.builtin(fid)
        grid = np.linspace(0.5, 4.0, 64)
        q = search.ratio_function(fam)
        report = homogeneity.classify(fam, grid)
        assert report.q_values.tolist() == [q(np.array([s])) for s in grid]


def _rect(**change):
    """rect_fixed_length (V = s, A = 2 s + 2) with some evaluator replaced."""
    return dataclasses.replace(families.builtin("rect_fixed_length"), **change)


# (case, spec, point, error): the scalar Q path at one point, and a fragment of the
# DomainError that evaluate or ratio_at raises there, or None where Q is finite
SCALAR_Q_CASES = [
    *((spec.id, spec, np.mean(spec.sample_box, axis=1), None) for spec in ALL_BUILTINS),
    ("n=1 float", families.builtin("cube"), 2.0, None),
    ("n=1 vector", families.builtin("cube"), np.array([2.0]), None),
    ("wrong length", families.builtin("box3"), np.array([1.0, 2.0]),
     "point [1.0, 2.0] has 2 coordinates; 'box3' takes 3"),
    ("2-D", families.builtin("box3"), np.ones((1, 3)),
     "point [[1.0, 1.0, 1.0]] outside the domain of 'box3'"),
    ("outside", families.builtin("box3"), np.array([-1.0, 1.0, 1.0]),
     "point [-1.0, 1.0, 1.0] outside the domain"),
    ("infeasible", families.builtin("triangle_sides"), np.array([1.0, 1.0, 3.0]),
     "point [1.0, 1.0, 3.0] outside the domain"),
    ("ZeroDivisionError", _rect(volume=lambda s: 1.0 / abs(s - 1.0)), 1.0,
     "V or A divides by zero at point 1.0 "),
    ("OverflowError", _rect(volume=math.exp), 800.0, "V or A overflows at point 800.0 "),
    ("RuntimeWarning", families.builtin("parallelogram3"), np.array([1e308, 1.0, 1.0]),
     "V or A warns (overflow encountered in scalar multiply) at point [1e+308, 1.0, 1.0] "),
    ("V < 0", _rect(volume=lambda s: -s), 2.0, "V = -2.0, A = 6.0 at point 2.0 "),
    ("A = 0", _rect(area=lambda s: 0.0), 2.0, "V = 2.0, A = 0.0 at point 2.0 "),
    ("V NaN", _rect(volume=lambda s: math.nan), 2.0, "V = nan, A = 6.0"),
    ("V inf", _rect(volume=lambda s: math.inf), 2.0, "V = inf, A = 6.0"),
    ("A NaN", _rect(area=lambda s: math.nan), 2.0, "V = 2.0, A = nan"),
    ("A inf", _rect(area=lambda s: math.inf), 2.0, "V = 2.0, A = inf"),
    ("Q overflows", families.builtin("box3"), np.array([1e160, 1.0, 1.0]),
     "Q overflows at point "),
    ("V^(d-1) underflows", families.FamilySpec(id="thin", dimension=3, domain=((0.0, 1.0),),
                                               volume=lambda s: 1e-200, area=lambda s: 1.0),
     0.5, "Q overflows at point 0.5 of 'thin'"),
]


@pytest.mark.parametrize("spec, x, error", [case[1:] for case in SCALAR_Q_CASES],
                         ids=[case[0] for case in SCALAR_Q_CASES])
def test_scalar_q_path(spec, x, error):
    """search.ratio_function(spec)(x) is ratio_at on evaluate at x, and inf exactly where
    that raises DomainError, with warnings as errors (as under -W error)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = search.ratio_function(spec)(x)
        if error is not None:
            with pytest.raises(DomainError, match=re.escape(error)):
                families.ratio_at(spec, x, *families.evaluate(spec, x))
            assert q == math.inf
            return
        want = families.ratio_at(spec, x, *families.evaluate(spec, x))
        p = float(np.asarray(x).item()) if spec.nparams == 1 else x
        v, a = float(spec.volume(p)), float(spec.area(p))
    assert q == want and 0 < q < math.inf
    d = spec.dimension
    assert q == pytest.approx(a ** d / v ** (d - 1), rel=1e-14)


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

    # the build checks ask V and A only to check a declared prefix: at the 32 seeded points x
    # and at t x, one array call each, or per point where the evaluators need that
    def test_evaluators_at_build(self):
        def build(fid):
            spec, seen = families.builtin(fid), {"volume": [], "area": []}
            dataclasses.replace(spec, **{k: lambda x, f=getattr(spec, k), k=k: (
                seen[k].append(np.array(x, dtype=float)) or f(x)) for k in seen})
            return seen

        assert build("hexagon_120") == {"volume": [], "area": []}  # no prefix, no feasible
        box = build("box3")
        assert [x.shape for x in box["volume"]] == [x.shape for x in box["area"]] == [(3, 32)] * 2
        x, tx = box["volume"]
        t = tx / x  # each point scaled by its own t in (0.5, 2), all three coordinates alike
        np.testing.assert_allclose(t, np.broadcast_to(t[0], t.shape), rtol=1e-15)
        assert (0.5 < t).all() and (t < 2.0).all()
        per_point = [(2, 32)] + [(2,)] * 32  # math.hypot in A takes one point at a time
        assert [x.shape for x in build("cone")["area"]] == per_point * 2

        # the points and t are np.random.default_rng(0)'s first draws, as uniform makes them:
        # for every built-in, and for a class of 12 parameters on intervals of each kind
        kinds = (families.RPLUS, (-1.0, 3.0), (-math.inf, 2.0), (-math.inf, math.inf))
        twelve = families.FamilySpec("twelve", 2, kinds * 3, volume=lambda x: x[0] * x[0] * x[4],
                                     area=lambda x: 4.0 * x[0] * x[4], homogeneous_prefix_m=1)
        for spec in [*ALL_BUILTINS, twelve]:
            seen = []

            def feasible(x):  # takes every point, one or many
                seen.append(np.array(x, dtype=float))
                return np.ones(x.shape[1], dtype=bool) if np.ndim(x) == 2 else True

            dataclasses.replace(spec, feasible=feasible)
            rng = np.random.default_rng(0)
            x = rng.uniform(*np.array(spec.sample_box).T[:, :, None], (spec.nparams, 32))
            np.testing.assert_array_equal(seen[0], x, err_msg=spec.id)  # the feasible probe
            m = spec.homogeneous_prefix_m
            if m is not None:  # the prefix check's points, each of them alone or all at once
                tx = np.vstack([x[:m] * rng.uniform(0.5, 2.0, 32), x[m:]])
                got = {tuple(p) for y in seen for p in (y.T if y.ndim == 2 else y[None]).tolist()}
                assert {tuple(p) for p in tx.T.tolist()} <= got, spec.id

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


class TestSpecDomain:
    @pytest.mark.parametrize("domain", [
        ((0.0, 1.0), (2.0,)),  # ragged
        ((2.0,), (0.0, 1.0)),
        ((0.0, 1.0, 2.0),),
        (),
    ])
    def test_not_a_tuple_of_intervals_rejected(self, domain):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                families.FamilySpec(id="odd", dimension=2, domain=domain, volume=math.exp,
                                    area=math.exp)
        assert str(info.value) == "domain of 'odd' must be a non-empty tuple of intervals"

    @pytest.mark.parametrize("dimension, domain, message", [
        (1, ((0.0, 1.0),), "dimension must be >= 2, got 1"),
        (2, ((1.0, 1.0),), "empty domain (1.0, 1.0)"),
    ])
    def test_rejected(self, dimension, domain, message):
        with pytest.raises(DomainError) as info:
            families.FamilySpec(id="exp", dimension=dimension, domain=domain, volume=math.exp,
                                area=math.exp)
        assert str(info.value) == message

    @pytest.mark.parametrize("domain, box", [
        (((0.0, 2.0),), ((0.0 + 0.05 * 2.0, 0.0 + 0.95 * 2.0),)),
        (((1.0, math.inf),), ((1.5, 10.5),)),
        (((-math.inf, 1.0),), ((-8.5, 0.5),)),
        (((-math.inf, math.inf),), ((-4.5, 4.5),)),
    ])
    def test_default_sample_box(self, domain, box):
        spec = families.FamilySpec(id="exp", dimension=2, domain=domain, volume=math.exp,
                                   area=lambda s: math.exp(0.5 * s))
        assert spec.sample_box == box

    # each one-parameter operation reads FamilySpec.interval before any other work
    @pytest.mark.parametrize("call", [
        lambda spec, f: families.sample(spec, np.linspace(1.0, 2.0, 8)),
        lambda spec, f: calculus.inradius_by_quadrature(spec, 1.0, 0.0, np.linspace(1.0, 2.0, 8)),
        lambda spec, f: calculus.dr_ds(spec),
        lambda spec, f: calculus.reparameterize(spec, f, (0.0, 1.0)),
        lambda spec, f: homogeneity.lift_cylinder(spec, rho=f),
    ], ids=["sample", "inradius_by_quadrature", "dr_ds", "reparameterize", "lift_cylinder"])
    @pytest.mark.parametrize("spec", [
        families.builtin("box3"),
        families.FamilySpec(id="pair", dimension=2, domain=(families.RPLUS,) * 2,
                            volume=lambda x: x[0] * x[1], area=lambda x: 2.0 * (x[0] + x[1])),
    ], ids=lambda spec: spec.id)
    def test_multi_parameter_class_rejected_first(self, call, spec):
        calls = []
        counted = dataclasses.replace(spec, volume=lambda x: calls.append(x) or spec.volume(x))
        calls.clear()  # the build checks
        with pytest.raises(DomainError) as info:
            call(counted, lambda s: calls.append(s) or s)
        assert str(info.value) == f"{spec.id!r} is a multi-parameter class, not a one-parameter family"
        assert calls == []

    def test_unbounded_below_builds_and_evaluates(self):
        # V = e^s, A = e^(s/2): Q = A^2 / V = 1 over the whole line
        one = families.FamilySpec(id="exp", dimension=2, domain=((-math.inf, 1.0),),
                                  volume=math.exp, area=lambda s: math.exp(0.5 * s))
        assert families.evaluate(one, -3.0) == (math.exp(-3.0), math.exp(-1.5))
        v, a = families.sample(one, np.array([-8.0, -2.0, 0.5]))
        np.testing.assert_allclose(a * a / v, 1.0, rtol=1e-15)
        two = families.FamilySpec(id="shifted_rect", dimension=2,
                                  domain=((-math.inf, math.inf), families.RPLUS),
                                  volume=lambda x: math.exp(x[0]) * x[1],
                                  area=lambda x: 2.0 * (math.exp(x[0]) + x[1]))
        assert two.sample_box == ((-4.5, 4.5), (0.5, 9.5))
        assert families.evaluate(two, [0.0, 2.0]) == (2.0, 6.0)
        assert search.ratio_function(two)(np.array([0.0, 1.0])) == 16.0
