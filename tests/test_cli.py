import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import isolab
from isolab import cli, families, polytope

SRC = Path(isolab.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*args, timeout=60):
    """Run ``python *args`` against this checkout's isolab, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def test_cli_import_loads_no_scipy():
    proc = run_process(
        "-c", "import sys, isolab.cli; print(sorted(m for m in sys.modules if 'scipy' in m))"
    )
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


# golden-section search in one coordinate after the reduction: no scipy.optimize
def test_kmin_cone_loads_no_scipy():
    proc = run_process(
        "-c", "import sys; from isolab import cli; cli.main(['kmin', '--class', 'cone']); "
              "print(sorted(m for m in sys.modules if 'scipy' in m))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestEval:
    def test_cube(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "cube", "--s", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["V"] == pytest.approx(8.0)
        assert doc["A"] == pytest.approx(24.0)
        assert doc["Q"] == pytest.approx(216.0)
        assert doc["r_tong"] == pytest.approx(1.0)

    def test_family_with_param(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--family", "rect_similar", "--param", "k=0.5", "--s", "2"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["V"] == pytest.approx(2.0)
        assert doc["A"] == pytest.approx(6.0)

    def test_unknown_family_is_domain_error(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "dodecahedron", "--s", "1")
        assert code == 2
        assert out == ""
        assert "error" in err

    # the factory's signature decides which --param keys a built-in family takes, and
    # every value is a number: branch=x is a malformed number
    @pytest.mark.parametrize("family, param",
                             [("cube", "a=2"), ("ngon", "branch=x"), ("ngon", "a=2")])
    def test_parameter_not_taken(self, capsys, family, param):
        code, out, err = run(capsys, "eval", "--family", family, "--param", param, "--s", "1")
        assert (code, out) == (2, "")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("family, param", [("rect_fixed_length", "a=inf"), ("ngon", "n=nan")])
    def test_parameter_not_finite(self, capsys, family, param):
        code, out, err = run(capsys, "eval", "--family", family, "--param", param, "--s", "1")
        assert (code, out) == (2, "")
        assert err == f"error: --param {param[0]}: NaN and infinity are not allowed\n"


class TestDeterminism:
    def test_kmin_byte_identical(self, capsys):
        argv = ("kmin", "--class", "box3", "--starts", "8", "--seed", "3")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert json.loads(out1)["kmin"] == pytest.approx(216.0, rel=1e-8)

    # a class with a homogeneous prefix reports its argmin with x1 = 1
    @pytest.mark.parametrize(
        "cls, expected",
        [
            ("cone", '{"class_id": "cone", "kmin": 226.19467105846505, "argmin": '
                     '[1.0, 2.82842712891757], "attained": true, '
                     '"multistart_count": 16}\n'),
            ("box3", '{"class_id": "box3", "kmin": 215.99999999999986, "argmin": '
                     '[1.0, 1.00000001524751, 0.9999999962891881], '
                     '"attained": true, "multistart_count": 16}\n'),
            # families of similar regions: Q evaluated once, at s = 1
            ("ngon", '{"class_id": "ngon_6", "kmin": 13.856406460551016, "argmin": '
                     '[1.0], "attained": true, "multistart_count": 16}\n'),
            ("cube", '{"class_id": "cube", "kmin": 216.0, "argmin": '
                     '[1.0], "attained": true, "multistart_count": 16}\n'),
            # no prefix: a one-parameter golden-section search over s itself
            ("hexagon_120", '{"class_id": "hexagon_120", "kmin": 18.47520861406802, '
                            '"argmin": [6.277068811383156], "attained": true, '
                            '"multistart_count": 16}\n'),
            # a prefix and an angle: Nelder-Mead over (x2, x3) with x1 = 1
            ("parallelogram3", '{"class_id": "parallelogram3", "kmin": 15.999999999999996, '
                               '"argmin": [1.0, 1.0000000206322623, 1.5707963254045219], '
                               '"attained": true, "multistart_count": 16}\n'),
            # one coordinate left and a `feasible` edge: a boundary infimum
            ("ring_torus", '{"class_id": "ring_torus", "kmin": 157.91367043082062, '
                           '"argmin": [1.0, 1.0000000000847988], "attained": false, '
                           '"multistart_count": 16}\n'),
        ],
    )
    def test_kmin_output_unchanged(self, capsys, cls, expected):
        code, out, _ = run(capsys, "kmin", "--class", cls, "--starts", "16")
        assert (code, out) == (0, expected)

    # the README lines whose numbers come from the quadrature, by the sha256 of their stdout
    @pytest.mark.parametrize("argv, digest", [
        ("classify --family hexagon_120 --grid 0.2:3:40 --expect homogeneous",
         "0e5e5a5e611bf75722c8e1a92d519bddf0b6f4a31e6c980cf70af8fc3cfa269a"),
        ("inradius --family cube --s0 0 --grid 0.5:4:48 --format csv",
         "5673d0265e2b1aa71030a1801eea6ce3a4fa4197efac7fd3365f4a446c4adc97"),
    ], ids=["classify", "inradius"])
    def test_quadrature_output_unchanged(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)

    def test_classify_byte_identical(self, capsys):
        argv = ("classify", "--family", "hexagon_120", "--grid", "0.2:3:40")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


# a solve-coordinate argv that ends in the --fixed item of coordinate 0
SOLVE = "solve-coordinate --class parallelogram3 --k 32 --j 2 --s 2 --fixed 1=s-sqrt(s) --fixed"


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "eval", "--family", "cube") == (  # missing --s
            1, "", "usage error: isolab eval: the following arguments are required: --s\n")

    def test_newline_in_argv_stays_in_the_line(self, capsys):
        assert run(capsys, "families", "a\nb") == (
            1, "", "usage error: isolab: unrecognized arguments: a\\nb\n")

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_format_only_where_csv_exists(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--family", "cube", "--grid", "0.5:4:40", "--format", "csv"
        )
        assert (code, out) == (1, "")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["trace", "--class", "parallelogram3", "--k", "32", "--start", "2,2,abc"], 2),
            (["eval", "--family", "ngon", "--param", "n=abc", "--s", "1"], 2),
            (["solve-coordinate", "--class", "parallelogram3", "--k", "32", "--j", "2",
              "--s", "2", "--fixed", "bad"], 2),
            (["bonnesen", "--d", "3", "--A", "6"], 1),
            # ngon takes an integer n: not ngon_5
            (["eval", "--family", "ngon", "--param", "n=5.5", "--s", "1"], 2),
        ],
    )
    def test_malformed_argv_without_traceback(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert out == ""
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    def test_start_of_wrong_length_named(self, capsys):
        code, out, err = run(capsys, "trace", "--class", "parallelogram3", "--k", "32",
                             "--start", "2,2")
        assert (code, out) == (2, "")
        assert err == "error: point [2.0, 2.0] has 2 coordinates; 'parallelogram3' takes 3\n"

    @pytest.mark.parametrize(
        "argv",
        [
            "classify --family cube --grid 1:2:40 --rtol nan",
            "classify --family cube --grid 1:inf:40",
            "deficit --d 3 --V nan --A 1",
            "kmin --class box3 --tol nan",
            "eval --family rect_fixed_length --param a=inf --s 1",
            "trace --class rect2 --k 18 --start 1,nan",
            "steiner --box nan,1,1 --s 1",
            "steiner --polygon-file nan.json --s 1",
            "steiner --polygon-file inf.json --s 1",
            "starlike --file nan_vertex.json",
            "support-volume --file nan_vertex.json",
            "cohen --file nan_apex.json --r 0.5",
        ],
    )
    def test_non_finite_input(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan.json").write_text("[[0,0],[1,0],[NaN,1]]")
        (tmp_path / "inf.json").write_text("[[0,0],[1,0],[Infinity,1]]")
        cube = json.loads(polytope.cube_polyhedron().to_json())
        cube["vertices"][6][2] = math.nan
        (tmp_path / "nan_vertex.json").write_text(json.dumps(cube))
        cube = json.loads(polytope.cube_polyhedron().to_json())
        cube["apex"][0] = math.nan
        (tmp_path / "nan_apex.json").write_text(json.dumps(cube))
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    # a float overflow, underflow or division by zero inside the computation
    @pytest.mark.parametrize(
        "argv",
        [
            "eval --family cube --s 1e200",
            "classify --family cube --grid 1:1e300:64",
            "inradius --family cube --s0 0 --grid 1e-300:1e300:40",
            "deficit --d 400 --V 1 --A 1",
            "bonnesen --d 1000 --V 1 --A 6",
        ],
    )
    def test_arithmetic_error(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    # Bonnesen rows beyond the float range; the 2D deficit P^2 - 4 pi A is too
    @pytest.mark.parametrize("argv", [
        "bonnesen --d 22 --V 1 --A 4",
        "bonnesen --d 60 --V 1 --A 4",
        "bonnesen --d 25 --V 1 --A 6",
        "bonnesen --2d --P 1e200 --A 1 --r 1",
        "bonnesen --d 2 --V 4.2e-259 --A 2.4e130",  # the Tong inradius d V / A underflows to 0
    ])
    def test_bonnesen_beyond_the_float_range(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: the ") and err.endswith(" is outside the float range\n")

    @pytest.mark.parametrize(
        "argv, point",
        [
            ("eval --family cube --s 1e200", "1e+200"),  # V = s * s * s overflows
            ("eval --family cube --s 1e100", "1e+100"),  # A^3 and V^2 in Q: inf / inf
            ("classify --family cube --grid 1:1e100:64", repr(1e100 / 63 + 1)),
            # V from np.sin is a numpy scalar
            ("trace --class parallelogram3 --k 32 --start 1e-300,1e150,1e-10 --steps 3",
             "[1e-300, 1e+150, 1e-10]"),
        ],
    )
    def test_overflow_names_the_point(self, capsys, argv, point):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert f"point {point} of {argv.split()[2]!r}" in err

    @pytest.mark.parametrize(
        "cls, j, fixed",
        [("box3", "2", ["0=s", "1=s", "7=s"]), ("cube", "0", ["1=s"])],
    )
    def test_fixed_coordinate_out_of_range(self, capsys, cls, j, fixed):
        argv = ["solve-coordinate", "--class", cls, "--k", "220", "--j", j, "--s", "1"]
        for item in fixed:
            argv += ["--fixed", item]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "out of range" in err and len(err.strip().splitlines()) == 1

    def test_fixed_coordinate_outside_its_interval(self, capsys):
        code, out, err = run(capsys, "solve-coordinate", "--class", "parallelogram3", "--k", "32",
                             "--j", "2", "--s", "0.5", "--fixed", "0=log(s)", "--fixed", "1=1")
        assert (code, out) == (2, "")
        assert err == ("error: fixed coordinate 0 is -0.6931471805599453 at s=0.5, "
                       "outside (0.0, inf)\n")

    # in a child process with a timeout: before the --fixed grammar, 10**10**8 hung
    @pytest.mark.parametrize("expr", ["0=foo(s)", "0=().__class__", "0=10**10**8"])
    def test_fixed_outside_grammar(self, expr):
        proc = run_process(
            "-m", "isolab.cli", "solve-coordinate", "--class", "parallelogram3", "--k", "32",
            "--j", "2", "--s", "2", "--fixed", expr, "--fixed", "1=s-sqrt(s)", timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr and len(proc.stderr.strip().splitlines()) == 1

    # each argv reaches one rejection in the CLI or the library
    @pytest.mark.parametrize("argv, code, line", [
        ("eval --family cube --param a --s 1", 2,
         "error: malformed parameter 'a', expected key=value"),
        (f"{SOLVE} 0=x", 2, "error: malformed --fixed '0=x', expected i=expr(s): unknown name 'x'"),
        (f"{SOLVE} 0=s**s", 2, "error: malformed --fixed '0=s**s', expected i=expr(s): "
                               "an exponent must be a number of size at most 64"),
        (f"{SOLVE} 0=s**65", 2, "error: malformed --fixed '0=s**65', expected i=expr(s): "
                                "an exponent must be a number of size at most 64"),
        (f"{SOLVE} 0=s.real", 2,
         "error: malformed --fixed '0=s.real', expected i=expr(s): unsupported expression 's.real'"),
        (f"{SOLVE} 0=log(s-100)", 2,
         "error: --fixed '0=log(s-100)' has no real value at s=2.0: math domain error"),
        ("steiner --s 1", 2, "error: pass either --box a,b,c or --polygon-file path"),
        ("bonnesen --A 6", 1,
         "usage error: isolab bonnesen: the following arguments are required: --V"),
        ("bonnesen --2d --A 6", 1,
         "usage error: isolab bonnesen: the following arguments are required with --2d: --P, --r"),
        ("bonnesen --2d --P 6.3 --A 3.14 --r 0.2", 3,
         "check failed: rows that do not hold: bonnesen_perimeter, bonnesen_area, osserman"),
        pytest.param(f"deficit --d {10**400} --V 1 --A 1", 2,
                     f"error: the isoperimetric deficit in d = {10**400} is outside the float range",
                     id="deficit --d 10**400 --V 1 --A 1"),
        pytest.param(f"bonnesen --d {10**400} --V 1 --A 6", 2,
                     f"error: the isoperimetric deficit in d = {10**400} is outside the float range",
                     id="bonnesen --d 10**400 --V 1 --A 6"),
        ("solve-coordinate --class parallelogram3 --k 32 --j 2 --s 2", 2,
         "error: no functions given for coordinates [0, 1]"),
        ("inradius --family rect_fixed_length --param a=1e-300 --s0 0 --grid 1e300:1e301:10", 2,
         "error: r(s) failed to track the monotonicity of V(s)"),
    ])
    def test_one_line_names_the_cause(self, capsys, argv, code, line):
        got, out, err = run(capsys, *argv.split())
        assert (got, err) == (code, line + "\n")
        if code == 3:  # a failed check still writes its document
            assert not any(row["holds"] for row in json.loads(out)["rows"])
        else:
            assert out == ""

    def test_domain_error(self, capsys):
        code, _, err = run(
            capsys, "inradius", "--family", "cube", "--s0", "1", "--grid", "bad"
        )
        assert code == 2
        assert "grid" in err

    def test_expect_mismatch_is_check_failure(self, capsys):
        code, out, err = run(
            capsys,
            "classify", "--family", "rect_fixed_length", "--param", "a=1",
            "--grid", "0.5:4:40", "--expect", "homogeneous",
        )
        assert code == 3
        # the data document is still emitted and valid
        doc = json.loads(out)
        assert doc["verdict"] == "not_homogeneous"
        assert err == "check failed: expected homogeneous, got not_homogeneous\n"

    def test_expect_match_succeeds(self, capsys):
        code, out, _ = run(
            capsys,
            "classify", "--family", "hexagon_120",
            "--grid", "0.2:3:40", "--expect", "homogeneous",
        )
        assert code == 0
        assert json.loads(out)["q_center"] == pytest.approx(32 / math.sqrt(3), rel=1e-9)


class TestFamiliesCatalog:
    def test_catalog_lists_builtins(self, capsys):
        code, out, _ = run(capsys, "families")
        assert code == 0
        ids = {entry["id"] for entry in json.loads(out)}
        assert {"cube", "hexagon_120", "box3", "ring_torus"} <= ids

    # each listed id is a name that builtin, --family and --class take
    @pytest.mark.parametrize("entry", json.loads(families.catalog_json()), ids=lambda e: e["id"])
    def test_catalog_id_is_a_builtin_name(self, capsys, entry):
        spec = families.builtin(entry["id"])
        assert entry["params"] == dict(spec.params)
        code, out, err = run(capsys, "kmin", "--class", entry["id"], "--starts", "8")
        assert (code, err) == (0, "")
        assert json.loads(out)["class_id"] == spec.id


class TestInradius:
    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "inradius", "--family", "cube", "--s0", "0", "--C", "0",
            "--grid", "0.5:4:16", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,r"
        s, r = map(float, lines[-1].split(","))
        assert r == pytest.approx(s / 2, abs=1e-8)

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "curve.json"
        code, out, _ = run(
            capsys,
            "inradius", "--family", "cube", "--s0", "0",
            "--grid", "0.5:4:16", "--output", str(path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["family_id"] == "cube"


class TestPolyhedronCommands:
    @pytest.fixture
    def cube_file(self, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text(polytope.cube_polyhedron(2.0).to_json())
        return str(path)

    def test_starlike(self, capsys, cube_file):
        code, out, _ = run(capsys, "starlike", "--file", cube_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["V"] == pytest.approx(8.0)
        assert doc["mean_arithmetic"] == pytest.approx(1.0)
        assert doc["mean_harmonic"] == pytest.approx(1.0)
        assert doc["r_tong"] == pytest.approx(1.0)

    def test_support_volume(self, capsys, cube_file):
        code, out, _ = run(capsys, "support-volume", "--file", cube_file)
        assert code == 0
        assert json.loads(out)["relative_residual"] <= 1e-12

    def test_cohen_pass_and_reject(self, capsys, cube_file):
        code, out, _ = run(capsys, "cohen", "--file", cube_file, "--r", "1.0")
        assert code == 0
        assert json.loads(out)["residual"] <= 1e-12
        code, _, err = run(capsys, "cohen", "--file", cube_file, "--r", "0.9")
        assert code == 2
        assert "circumscribing" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "starlike", "--file", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["starlike", "support-volume"])
    @pytest.mark.parametrize("doc, message", [
        ({**json.loads(polytope.cube_polyhedron().to_json()),
          "facets": json.loads(polytope.cube_polyhedron().to_json())["facets"][1:]},
         "the facets do not close: |sum A_i n_i| = 2.000e-01 sum A_i"),
        ({"dimension": 2, "vertices": [[1.5e308, 1.5e308], [1.500000001e308, 1.5e308],
                                       [1.500000001e308, 1.500000001e308], [1.5e308, 1.500000001e308]],
          "facets": [[0, 1], [1, 2], [2, 3], [3, 0]], "apex": [1.5e308, -1.7e308]},
         "facet 0: apex is not strictly interior (signed distance -3.200e+308)"),
    ], ids=["open-cube", "far-apex"])
    def test_rejected_at_construction(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "polyhedron.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, command, "--file", str(path)) == (2, "", f"error: {message}\n")

    def test_support_volume_of_a_far_tetrahedron(self, capsys, tmp_path):
        # 4.4e6 from the origin: the convexity test in the apex frame does not cancel
        path = tmp_path / "far.json"
        path.write_text(json.dumps({
            "dimension": 3,
            "vertices": [[-4395900.959923073, 1668307.0178164383, 3255981.429683389],
                         [-4395900.137122994, 1668307.4279736208, 3255981.036273784],
                         [-4395900.162410726, 1668306.4477067539, 3255981.2323283697],
                         [-4395900.132042306, 1668307.1072075034, 3255981.983418591]],
            "facets": [[1, 3, 2], [0, 2, 3], [0, 3, 1], [0, 1, 2]],
            "apex": [-4395900.419797105, 1668306.964509761, 3255981.2328187777]}))
        code, out, err = run(capsys, "support-volume", "--file", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["relative_residual"] <= 1e-12

    # facet 2 of the tetrahedron is [0, 3, 1]; 1.9 and true were read as vertex 1
    @pytest.mark.parametrize("key, value, message", [
        ("facets", [0, 3, 1.9], "facet vertex index must be an integer, got 1.9"),
        ("facets", [0, 3, True], "facet vertex index must be an integer, got True"),
        ("dimension", 2.7, "dimension must be an integer, got 2.7"),
        ("dimension", True, "dimension must be an integer, got True"),
        ("facets", [0.0, 3.0, 1.0], None),
        ("dimension", 3.0, None),
    ])
    def test_integer_fields(self, capsys, tmp_path, key, value, message):
        doc = json.loads(polytope.regular_tetrahedron().to_json())
        if key == "facets":
            doc["facets"][2] = value
        else:
            doc["dimension"] = value
        path = tmp_path / "tetrahedron.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "starlike", "--file", str(path))
        if message is None:
            assert code == 0 and json.loads(out)["V"] == pytest.approx(math.sqrt(2.0) / 12.0)  # unit edge
        else:
            assert (code, out, err) == (2, "", f"error: {message}\n")


class TestSearchCommands:
    def test_solve_coordinate(self, capsys):
        code, out, _ = run(
            capsys,
            "solve-coordinate", "--class", "parallelogram3", "--k", "32",
            "--j", "2", "--s", "2",
            "--fixed", "0=sqrt(s)", "--fixed", "1=s-sqrt(s)",
        )
        assert code == 0
        root = json.loads(out)["root"]
        assert root == pytest.approx(math.asin(0.25 / (math.sqrt(2) - 1)), abs=1e-10)

    # a one-parameter family has no coordinate to fix: (2s + 2)^2 / s = 20 at s = (3 - sqrt 5) / 2
    def test_solve_coordinate_of_a_one_parameter_family(self, capsys):
        argv = "solve-coordinate --class rect_fixed_length --k 20 --j 0 --s 1".split()
        assert run(capsys, *argv) == (0, """{
  "class": "rect_fixed_length",
  "k": 20.0,
  "s": 1.0,
  "j": 0,
  "root": 0.3819660112501052
}
""", "")

    def test_trace_csv(self, capsys):
        x3 = math.asin(0.5 / (2 - math.sqrt(2)))  # not needed exactly; use s=4 start
        start = f"2,{4 - 2},{math.asin((4 / 8) / (2 - 1))}"
        code, out, _ = run(
            capsys,
            "trace", "--class", "parallelogram3", "--k", "32",
            "--start", start, "--steps", "10", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,x1,x2,x3,Q"
        assert len(lines) == 12
        for line in lines[1:]:
            q = float(line.split(",")[-1])
            assert q == pytest.approx(32.0, rel=1e-9)


class TestInequalityCommands:
    def test_bonnesen_holds(self, capsys):
        code, out, err = run(capsys, "bonnesen", "--d", "3", "--V", "1", "--A", "6")
        assert code == 0
        doc = json.loads(out)
        assert all(row["holds"] for row in doc["rows"])
        assert err == ""

    def test_bonnesen_2d(self, capsys):
        code, out, _ = run(
            capsys, "bonnesen", "--2d", "--P", "6", "--A", "2", "--r", "0.5"
        )
        assert code == 0
        assert json.loads(out)["deficit"] == pytest.approx(36 - 8 * math.pi)

    def test_deficit(self, capsys):
        code, out, _ = run(capsys, "deficit", "--d", "2", "--V", "1", "--A", "4")
        assert code == 0
        assert json.loads(out)["deficit"] == pytest.approx(16 - 4 * math.pi)

    def test_deficit_beyond_d_to_the_d(self, capsys):
        code, out, err = run(capsys, "deficit", "--d", "144", "--V", "1", "--A", "4")
        assert (code, err) == (0, "")
        assert json.loads(out)["deficit"] == pytest.approx(-6.4862519588985e242, rel=1e-11)
        code, out, err = run(capsys, "deficit", "--d", "2", "--V", "1", "--A", "1e200")
        assert (code, out) == (2, "")
        assert err == "error: the isoperimetric deficit in d = 2 is outside the float range\n"


class TestLiftAndSteiner:
    def test_lift_disk(self, capsys):
        code, out, _ = run(
            capsys, "lift", "--family", "disk", "--rho-scale", "1", "--grid", "0.5:4:6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["dimension"] == 3
        for row in doc["samples"]:
            assert row["r_tong"] == pytest.approx(row["s"], rel=1e-10)

    def test_lift_non_homogeneous_base(self, capsys):
        code, _, err = run(
            capsys, "lift", "--family", "rect_fixed_length", "--param", "a=1"
        )
        assert code == 2
        assert "homogeneous" in err

    def test_steiner_box(self, capsys):
        code, out, _ = run(capsys, "steiner", "--box", "1,1,1", "--s", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["V"] == pytest.approx(1 + 6 + 3 * math.pi + 4 * math.pi / 3)
        assert doc["volume_coefficients"] == pytest.approx(
            [1.0, 6.0, 3 * math.pi, 4 * math.pi / 3]
        )

    def test_steiner_polygon_file(self, capsys, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(json.dumps([[0, 0], [1, 0], [1, 1], [0, 1]]))
        code, out, _ = run(
            capsys, "steiner", "--polygon-file", str(path), "--s", "0"
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["V"], doc["A"]) == pytest.approx((1.0, 4.0))

    @pytest.mark.parametrize("text", ["[[0,0],[1", '[[0,0],[1,"x"]]', "[[0,0],[1]]", "[1,1,1]"])
    def test_steiner_malformed_polygon_file(self, capsys, tmp_path, text):
        path = tmp_path / "polygon.json"
        path.write_text(text)
        code, out, err = run(capsys, "steiner", "--polygon-file", str(path), "--s", "1")
        assert (code, out) == (2, "")
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1

    # finite input whose coefficients overflow: exit 0 with "V": Infinity before
    @pytest.mark.parametrize("argv", ["--polygon-file big.json --s 1",
                                      "--box 1e200,1e200,1e200 --s 1"])
    def test_steiner_overflow(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text("[[0,0],[1e160,0],[1e160,1e160],[0,1e160]]")
        code, out, err = run(capsys, "steiner", *argv.split())
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and len(err.splitlines()) == 1


class TestBoundedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            "kmin --class cube --tol -1",
            "kmin-table --tol -1",
            "kmin --class cube --seed -5",
            "kmin-table --seed -1",
            "trace --class rect2 --k 18 --start 2,1 --steps -5",
            "trace --class rect2 --k 18 --start 2,1 --step-size 0",
            "kmin --class cube --starts 257",
            "kmin-table --starts 100000000",
            "classify --family cube --grid 1:2:100001",
            "trace --class rect2 --k 18 --start 2,1 --steps 10001",
            "trace --class parallelogram3 --k 0 --start 2,2,0.5236",
            "trace --class parallelogram3 --k -5 --start 2,2,0.5236",
            "solve-coordinate --class rect2 --k 18 --j 1 --s 1 --fixed 0=s --fixed 1=s",
            "solve-coordinate --class rect2 --k 18 --j 1 --s 1 --fixed 0=s --fixed 0=2*s",
            "eval --family ngon --param n=3 --param n=4 --s 1",
        ],
    )
    def test_rejected_with_one_line(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    # below the rounding level of Q no search can meet tol: Nelder-Mead would
    # run every start to its 20000-iteration limit
    @pytest.mark.parametrize(
        "argv", ["kmin --class rect_fixed_length --tol 1.3e-128", "kmin --class box3 --tol 4.5e-16",
                 "kmin-table --tol 1e-16"],
    )
    def test_tol_below_floor_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == "error: tol must be >= 1e-15\n"

    @pytest.mark.parametrize(
        "command, cap", [("kmin", cli.MAX_STARTS), ("kmin-table", cli.MAX_STARTS),
                         ("classify", cli.MAX_GRID_POINTS), ("inradius", cli.MAX_GRID_POINTS),
                         ("lift", cli.MAX_GRID_POINTS), ("trace", cli.MAX_STEPS)],
    )
    def test_help_names_the_cap(self, capsys, command, cap):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0 and str(cap) in out

    # in a child process, whose stderr shows any numpy or scipy warning
    @pytest.mark.parametrize(
        "argv",
        [
            "trace --class ring_torus --k 1e-12 --start 1e200,1e300 --steps 3",
            "steiner --box 7,1e-12,1e200 --s 1e200",
            "inradius --family rect_fixed_length --s0 0 --grid 1e300:3.14159:40",
        ],
    )
    def test_failure_is_one_stderr_line(self, argv):
        proc = run_process("-m", "isolab.cli", *argv.split())
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")

    # in a child process with a timeout: an integer d**d took 6 s at d = 1e6
    def test_deficit_of_huge_dimension_is_quick(self):
        proc = run_process("-m", "isolab.cli", "deficit", "--d", "10000000", "--V", "1",
                           "--A", "1", timeout=30)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert len(proc.stderr.splitlines()) == 1

    def test_classify_descending_grid(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "cube", "--grid", "4:0.5:40")
        assert code == 0
        assert json.loads(out)["criterion_i_residual"] <= 1e-12


# argv fuzz: every subcommand but kmin-table (seconds a run) and never --output
FUZZ_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e308, -1e308, 1e-308, -1e-308]),
    st.floats(),
).map(repr)
FUZZ_INTS = st.integers().map(str)
FUZZ_IDS = st.sampled_from([*families._BUILTINS, "nope"])
FUZZ_GRIDS = st.tuples(FUZZ_FLOATS, FUZZ_FLOATS, FUZZ_INTS).map(":".join)
FUZZ_LISTS = st.lists(FUZZ_FLOATS, min_size=1, max_size=4).map(",".join)
FUZZ_PARAMS = st.tuples(st.sampled_from(["a", "k", "n", "branch"]),
                        st.one_of(FUZZ_FLOATS, FUZZ_INTS, st.sampled_from(["increasing", "x"]))
                        ).map("=".join)
FUZZ_EXPRS = st.one_of(st.sampled_from(["s", "sqrt(s)", "s-sqrt(s)", "log(s)", "1/s", "s**64",
                                        "exp(s)**-64", "foo(s)", "s+"]), FUZZ_FLOATS)
FUZZ_FIXED = st.tuples(FUZZ_INTS, FUZZ_EXPRS).map("=".join)
# file names, resolved inside the fixture's directory
FUZZ_FILES = st.sampled_from(["cube.json", "square.json", "bad.json", "missing.json"])
FUZZ_OPTIONS = {
    "families": {},
    "eval": {"--family": FUZZ_IDS, "--param": FUZZ_PARAMS, "--s": FUZZ_FLOATS},
    "inradius": {"--family": FUZZ_IDS, "--param": FUZZ_PARAMS, "--s0": FUZZ_FLOATS,
                 "--C": FUZZ_FLOATS, "--grid": FUZZ_GRIDS,
                 "--format": st.sampled_from(["json", "csv"])},
    "classify": {"--family": FUZZ_IDS, "--param": FUZZ_PARAMS, "--grid": FUZZ_GRIDS,
                 "--rtol": FUZZ_FLOATS,
                 "--expect": st.sampled_from(["homogeneous", "not_homogeneous"])},
    "kmin": {"--class": FUZZ_IDS, "--starts": FUZZ_INTS, "--tol": FUZZ_FLOATS,
             "--seed": FUZZ_INTS},
    "trace": {"--class": FUZZ_IDS, "--k": FUZZ_FLOATS, "--start": FUZZ_LISTS,
              "--steps": FUZZ_INTS, "--step-size": FUZZ_FLOATS,
              "--format": st.sampled_from(["json", "csv"])},
    "solve-coordinate": {"--class": FUZZ_IDS, "--k": FUZZ_FLOATS, "--j": FUZZ_INTS,
                         "--s": FUZZ_FLOATS, "--fixed": FUZZ_FIXED},
    "starlike": {"--file": FUZZ_FILES},
    "support-volume": {"--file": FUZZ_FILES},
    "cohen": {"--file": FUZZ_FILES, "--r": FUZZ_FLOATS},
    "lift": {"--family": FUZZ_IDS, "--param": FUZZ_PARAMS, "--rho-scale": FUZZ_FLOATS,
             "--rtol": FUZZ_FLOATS, "--grid": FUZZ_GRIDS},
    "steiner": {"--box": FUZZ_LISTS, "--polygon-file": FUZZ_FILES, "--s": FUZZ_FLOATS},
    "bonnesen": {"--2d": None, "--d": FUZZ_INTS, "--V": FUZZ_FLOATS, "--A": FUZZ_FLOATS,
                 "--P": FUZZ_FLOATS, "--r": FUZZ_FLOATS},
    "deficit": {"--d": FUZZ_INTS, "--V": FUZZ_FLOATS, "--A": FUZZ_FLOATS},
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    tokens = []
    for option, values in FUZZ_OPTIONS[command].items():
        if not draw(st.sampled_from((True,) * 9 + (False,))):  # leave some out
            continue
        if values is None:
            tokens.append([option])
        else:  # --option=value, so that a value like -1e+308 is not read as an option
            tokens.append([f"{option}={draw(values)}"])
    return [command, *(t for group in draw(st.permutations(tokens)) for t in group)]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "cube.json").write_text(polytope.cube_polyhedron().to_json())
    (path / "square.json").write_text("[[0,0],[1,0],[1,1],[0,1]]")
    (path / "bad.json").write_text("[[0,0],[1")
    return path


# the start of the one stderr line of each failing exit code
FAILURE_PREFIX = {1: "usage error: ", 2: "error: ", 3: "check failed: "}


@settings(derandomize=True, deadline=5000, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=fuzz_argv())
def test_argv_fuzz_ends_in_exit_0_to_3(fuzz_dir, argv):
    argv = [a.replace("file=", f"file={fuzz_dir}/") for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2, 3), (argv, text)
    assert "Traceback" not in text and "Warning" not in text, (argv, text)
    if code == 0:
        assert text == "", (argv, text)
    else:  # one line, whose start names the exit code, and a usage error names the prog
        assert text.startswith(FAILURE_PREFIX[code]) and text.count("\n") == 1, (argv, text)
        assert code != 1 or text.startswith("usage error: isolab"), (argv, text)
        assert text.endswith("\n"), (argv, text)


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("isolab ")]


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_example_runs_as_written(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cube.json").write_text(polytope.cube_polyhedron().to_json())
    argv = shlex.split(line, comments=True)[1:]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if "csv" in argv:
        header, *rows = list(csv.reader(io.StringIO(out)))
        assert rows and all(len(row) == len(header) for row in rows)
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    else:
        json.loads(out)


# numpy is the only runtime dependency: no command loads a scipy module
@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_line_loads_no_scipy(tmp_path, line):
    (tmp_path / "cube.json").write_text(polytope.cube_polyhedron().to_json())
    code = ("import sys; from isolab import cli; code = cli.main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); sys.exit(code)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *shlex.split(line, comments=True)[1:]],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", line


def run_commands(cwd, *argvs):
    """``cli.main`` on each argv in turn, in one fresh interpreter: the exit codes, the
    ``isolab`` submodules loaded after the last, and which of numpy, numpy.ma and
    numpy.random are loaded."""
    code = ("import json, sys; from isolab import cli; "
            "codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(json.dumps([codes, sorted(m[7:] for m in sys.modules if m.startswith('isolab.')), "
            "[m for m in ('numpy', 'numpy.ma', 'numpy.random') if m in sys.modules]]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    codes, modules, numpy = json.loads(proc.stdout.splitlines()[-1])
    return codes, set(modules), set(numpy)


# float arithmetic and argparse alone: the README's bonnesen and deficit lines, --help,
# and a usage error
def test_float_commands_and_usage_errors_load_no_numpy(tmp_path):
    codes, modules, numpy = run_commands(
        tmp_path, ["bonnesen", "--d", "3", "--V", "1", "--A", "6"],
        ["bonnesen", "--2d", "--P", "6", "--A", "2", "--r", "0.5"],
        ["deficit", "--d", "2", "--V", "1", "--A", "4"], ["--help"], ["bonnesen", "--d", "3"])
    assert codes == [0, 0, 0, 0, 1]
    assert (modules, numpy) == ({"cli", "errors", "inequalities", "records"}, set())


def test_package_loads_submodules_on_first_use():
    proc = run_process("-c", """if True:
        import sys, isolab
        assert 'numpy' not in sys.modules, 'import isolab loads numpy'
        assert not [m for m in sys.modules if m.startswith('isolab.') and m != 'isolab.errors']
        from isolab import search
        assert search is sys.modules['isolab.search'] and isolab.search is search
        assert isolab.polytope.cube_polyhedron().dimension == 3
        assert set(isolab.__all__) <= set(dir(isolab))
        try:
            isolab.nosuch
        except AttributeError as exc:
            assert str(exc) == "module 'isolab' has no attribute 'nosuch'", exc
        else:
            raise AssertionError('isolab.nosuch resolved')
    """)
    assert proc.returncode == 0, proc.stderr


# the isolab submodules each README command loads besides cli and errors: a top-level import
# added later shows here
_SEARCH = {"families", "records", "search"}
_POLYTOPE = {"polytope", "records"}
_CLASSIFY = {"calculus", "families", "homogeneity", "inequalities", "records"}
COMMAND_MODULES = {
    "families": {"families"},
    "eval": {"families", "inequalities", "records"},
    "inradius": {"calculus", "families", "records"},
    "classify": _CLASSIFY,
    "kmin": _SEARCH, "kmin-table": _SEARCH, "solve-coordinate": _SEARCH, "trace": _SEARCH,
    "starlike": _POLYTOPE, "support-volume": _POLYTOPE, "cohen": _POLYTOPE, "steiner": _POLYTOPE,
    "lift": _CLASSIFY,  # lift_cylinder classifies its base family
    "bonnesen": {"inequalities", "records"},
    "deficit": {"inequalities", "records"},
}


# numpy.ma is never loaded, and numpy.random only for kmin's Latin hypercube starts
@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_line_loads_only_its_modules(tmp_path, line):
    (tmp_path / "cube.json").write_text(polytope.cube_polyhedron().to_json())
    argv = shlex.split(line, comments=True)[1:]
    codes, modules, numpy = run_commands(tmp_path, argv)
    assert codes == [0]
    assert modules == {"cli", "errors"} | COMMAND_MODULES[argv[0]], line
    want = {"numpy", "numpy.random"} if argv[0] in ("kmin", "kmin-table") else {"numpy"}
    assert numpy == (set() if argv[0] in ("bonnesen", "deficit") else want), line


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.mark.parametrize("line", [line for line in readme_cli_lines() if "csv" not in line])
def test_readme_json_is_rfc8259(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cube.json").write_text(polytope.cube_polyhedron().to_json())
    code, out, _ = run(capsys, *shlex.split(line, comments=True)[1:])
    assert code == 0
    json.loads(out, parse_constant=_no_constant)
