"""Command-line front door.

Each subcommand maps 1:1 to a library operation and writes exactly one JSON
document or one CSV table to stdout (or ``--output``).  Diagnostics go to
stderr only.  Exit codes: 0 success, 1 usage error, 2 domain/validation
error, 3 when a requested check fails.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import math
import sys
from typing import Callable

from .errors import CheckFailedError, ConvergenceError, DomainError, GeometryError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CHECK_FAILED = 3

# namespace for --fixed coordinate expressions in terms of s
_EXPR_NS = {
    "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "log": math.log, "pi": math.pi, "e": math.e,
}
_EXPR_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
# largest |exponent| a --fixed ``**`` may have; exponents must be number literals
_EXPR_MAX_EXPONENT = 64.0

# caps on the work one command may ask for, each named in --help
MAX_STARTS = 256
MAX_GRID_POINTS = 100_000
MAX_STEPS = 10_000
_GRID_HELP = f"lo:hi:n with 2 <= n <= {MAX_GRID_POINTS}"


def _parse_params(items: list[str] | None) -> dict:
    """``--param key=value`` items as a dict of floats; the family checks their values."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise DomainError(f"malformed parameter {item!r}, expected key=value")
        key, val = item.split("=", 1)
        if key in out:
            raise DomainError(f"parameter {key!r} given twice")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise DomainError(f"malformed parameter {item!r}: {exc}") from exc
        _finite(out[key], f"--param {key}")
    return out


def _finite(values, what: str):
    """``values`` (a float or an array), unless some entry is NaN or infinite."""
    if not all(map(math.isfinite, getattr(values, "flat", (values,)))):  # a float needs no numpy
        raise DomainError(f"{what}: NaN and infinity are not allowed")
    return values


def _parse_grid(spec: str) -> np.ndarray:
    import numpy as np
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise DomainError(f"malformed grid spec {spec!r}, expected lo:hi:n") from exc
    if not 2 <= n <= MAX_GRID_POINTS:
        raise DomainError(f"grid needs 2 to {MAX_GRID_POINTS} points, got {n}")
    _finite(hi - lo, f"grid {spec!r}")  # NaN or inf if either end is, or on overflow
    return np.linspace(lo, hi, n)


def _parse_numbers(spec: str) -> np.ndarray:
    import numpy as np
    try:
        values = np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise DomainError(f"malformed list {spec!r}, expected comma-separated numbers") from exc
    return _finite(values, f"list {spec!r}")


def _is_number(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _check_expr(node: ast.AST) -> None:
    """Reject any node outside the --fixed grammar, and make number literals floats.

    With float literals every operation is a bounded-time float operation, so
    no expression can build an unbounded integer.
    """
    if _is_number(node):
        node.value = float(node.value)
    elif isinstance(node, ast.Name):
        if node.id != "s" and not isinstance(_EXPR_NS.get(node.id), float):
            raise ValueError(f"unknown name {node.id!r}")
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        _check_expr(node.operand)
    elif isinstance(node, ast.BinOp) and isinstance(node.op, _EXPR_BINOPS):
        if isinstance(node.op, ast.Pow):
            exp = node.right.operand if isinstance(node.right, ast.UnaryOp) else node.right
            if not (_is_number(exp) and abs(exp.value) <= _EXPR_MAX_EXPONENT):
                raise ValueError(
                    f"an exponent must be a number of size at most {_EXPR_MAX_EXPONENT:g}"
                )
        _check_expr(node.left)
        _check_expr(node.right)
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
          and callable(_EXPR_NS.get(node.func.id)) and len(node.args) == 1 and not node.keywords):
        _check_expr(node.args[0])
    else:
        raise ValueError(f"unsupported expression {ast.unparse(node)!r}")


def _parse_fixed(item: str) -> tuple[int, Callable[[float], float]]:
    """Parse ``i=expr`` into the coordinate index and a function of s."""
    try:
        idx_s, expr = item.split("=", 1)
        idx = int(idx_s)
        tree = ast.parse(expr.strip(), mode="eval")
        _check_expr(tree.body)
        code = compile(tree, "<--fixed>", "eval")
    # the parser reports nesting too deep for its stack as MemoryError
    except (ValueError, SyntaxError, RecursionError, MemoryError) as exc:
        raise DomainError(f"malformed --fixed {item!r}, expected i=expr(s): {exc}") from exc

    def fn(s: float) -> float:
        try:
            return float(eval(code, {"__builtins__": {}}, {**_EXPR_NS, "s": s}))
        except (ArithmeticError, ValueError, TypeError) as exc:  # TypeError: complex value
            raise DomainError(f"--fixed {item!r} has no real value at s={s}: {exc}") from exc

    return idx, fn


def _one_param_family(args) -> families.FamilySpec:
    from . import families
    spec = families.builtin(args.family, **_parse_params(args.param))
    spec.interval  # raises for a multi-parameter class
    return spec


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _jdump(obj) -> str:
    return json.dumps(obj, indent=2)


# ------------------------------------------------------------------ #
# subcommand handlers: each writes one document or raises, importing only what it uses
# ------------------------------------------------------------------ #


def cmd_families(args) -> None:
    from . import families
    _emit(args, families.catalog_json())


def cmd_eval(args) -> None:
    from . import families, inequalities
    fam = _one_param_family(args)
    v, a = families.evaluate(fam, args.s)
    _emit(args, _jdump({"family": fam.id, "s": args.s, "V": v, "A": a,
                        "Q": families.ratio_at(fam, args.s, v, a),
                        "r_tong": inequalities.tong_inradius(fam.dimension, v, a)}))


def cmd_inradius(args) -> None:
    from . import calculus
    fam = _one_param_family(args)
    grid = _parse_grid(args.grid)
    curve = calculus.inradius_by_quadrature(fam, args.s0, args.C, grid)
    _emit(args, curve.to_csv() if args.format == "csv" else curve.to_json())


def cmd_classify(args) -> None:
    from . import homogeneity
    fam = _one_param_family(args)
    grid = _parse_grid(args.grid)
    report = homogeneity.classify(fam, grid, rtol=args.rtol)
    _emit(args, report.to_json())
    print(
        f"{fam.id}: {report.verdict} (Q spread {report.q_rel_spread:.3e}, "
        f"residuals i={report.criterion_i_residual:.3e} "
        f"ii={report.criterion_ii_residual:.3e} iii={report.criterion_iii_residual:.3e})",
        file=sys.stderr,
    )
    if args.expect and args.expect != report.verdict:
        raise CheckFailedError(f"expected {args.expect}, got {report.verdict}")


def cmd_kmin(args) -> None:
    from . import families, search
    nfam = families.builtin(args.cls)
    result = search.kmin(nfam, starts=args.starts, tol=args.tol, seed=args.seed)
    _emit(args, result.to_json())


def cmd_kmin_table(args) -> None:
    from . import search
    rows = search.kmin_table(starts=args.starts, tol=args.tol, seed=args.seed)
    _emit(args, _jdump(rows))


def cmd_trace(args) -> None:
    from . import families, search
    nfam = families.builtin(args.cls)
    start = _parse_numbers(args.start)
    curve = search.trace_level_set(nfam, args.k, start, steps=args.steps, step_size=args.step_size)
    _emit(args, curve.to_csv() if args.format == "csv" else curve.to_json())


def cmd_solve_coordinate(args) -> None:
    from . import families, search
    nfam = families.builtin(args.cls)
    fixed = {}
    for idx, fn in map(_parse_fixed, args.fixed):
        if idx in fixed:
            raise DomainError(f"fixed coordinate {idx} given twice")
        fixed[idx] = fn
    root = search.solve_coordinate(nfam, args.k, fixed, args.j, args.s)
    _emit(args, _jdump({"class": nfam.id, "k": args.k, "s": args.s, "j": args.j, "root": root}))


def _load_polyhedron(path: str) -> polytope.StarPolyhedron:
    from . import polytope
    with open(path) as fh:
        return polytope.from_json(fh.read())


def cmd_starlike(args) -> None:
    from . import polytope
    p = _load_polyhedron(args.file)
    dec = polytope.decompose(p)
    arith, harm = polytope.mean_altitudes(dec)
    _emit(args, _jdump({
        "dimension": p.dimension,
        "facet_measures": dec.facet_measures.tolist(),
        "altitudes": dec.altitudes.tolist(),
        "pyramid_volumes": dec.pyramid_volumes.tolist(),
        "A": dec.total_area,
        "V": dec.total_volume,
        "mean_arithmetic": arith,
        "mean_harmonic": harm,
        "r_tong": p.dimension * dec.total_volume / dec.total_area,
    }))


def cmd_support_volume(args) -> None:
    from . import polytope
    p = _load_polyhedron(args.file)
    v_sup = polytope.volume_from_support(p)
    v_dec = polytope.decompose(p).total_volume
    _emit(args, _jdump({"volume_from_support": v_sup, "volume_from_decomposition": v_dec,
                        "relative_residual": abs(v_sup - v_dec) / v_dec}))


def cmd_cohen(args) -> None:
    from . import polytope
    p = _load_polyhedron(args.file)
    residual = polytope.cohen_check(p, args.r)
    _emit(args, _jdump({"r": args.r, "residual": residual}))
    if not residual <= 1e-9:  # NaN fails too
        raise CheckFailedError(f"Cohen residual {residual} exceeds 1e-9")


def cmd_lift(args) -> None:
    from . import families, homogeneity, inequalities
    base = _one_param_family(args)
    c = args.rho_scale
    lifted = homogeneity.lift_cylinder(base, rho=lambda s: c * s, drho=lambda s: c, rtol=args.rtol)
    grid = _parse_grid(args.grid)
    v, a = families.sample(lifted, grid)
    rows = [{"s": s, "V": vi, "A": ai, "r_tong": inequalities.tong_inradius(lifted.dimension, vi, ai)}
            for s, vi, ai in zip(grid.tolist(), v.tolist(), a.tolist())]
    _emit(args, _jdump({"id": lifted.id, "dimension": lifted.dimension, "samples": rows}))


def cmd_steiner(args) -> None:
    import numpy as np
    from . import polytope
    if args.box:
        shape = _parse_numbers(args.box)
    elif args.polygon_file:
        with open(args.polygon_file) as fh:
            try:
                shape = np.asarray(json.load(fh), dtype=float)
                if shape.ndim != 2 or shape.shape[1] != 2:
                    raise ValueError(f"got an array of shape {shape.shape}")
            except (ValueError, TypeError) as exc:
                raise DomainError(
                    f"{args.polygon_file}: expected a JSON array of [x, y] vertices ({exc})"
                ) from exc
        _finite(shape, args.polygon_file)
    else:
        raise DomainError("pass either --box a,b,c or --polygon-file path")
    v, a = polytope.steiner_parallel_body(shape, args.s)
    vc, ac = polytope.steiner_coefficients(shape)
    _emit(args, _jdump({"s": args.s, "V": v, "A": a,
                        "volume_coefficients": list(vc), "area_coefficients": list(ac)}))


def cmd_bonnesen(args) -> None:
    from . import inequalities
    needed = ("P", "r") if args.two_d else ("V",)
    missing = [f"--{name}" for name in needed if getattr(args, name) is None]
    if missing:
        raise argparse.ArgumentError(None, f"bonnesen needs {' and '.join(missing)}")
    if args.two_d:
        report = inequalities.bonnesen_2d(args.P, args.A, args.r)
    else:
        report = inequalities.bonnesen_general(args.d, args.V, args.A)
    _emit(args, report.to_json())
    for row in report.rows:
        print(
            f"{row.name}: lhs={row.lhs:.12g} rhs={row.rhs:.12g} "
            f"{'holds' if row.holds else 'FAILS'} (slack {row.slack:.6g})",
            file=sys.stderr,
        )
    if not report.all_hold:
        raise CheckFailedError("some inequality rows failed")


def cmd_deficit(args) -> None:
    from . import inequalities
    value = inequalities.deficit(args.d, args.V, args.A)
    _emit(args, _jdump({"d": args.d, "V": args.V, "A": args.A, "deficit": value}))


# ------------------------------------------------------------------ #
# argument parsing
# ------------------------------------------------------------------ #


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options that several subcommands share, each declared once in a parent parser
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the data document here instead of stdout")
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", required=True, help="a name that `isolab families` lists")
    family.add_argument("--param", action="append", help="key=number, repeatable")
    shape_class = argparse.ArgumentParser(add_help=False)
    shape_class.add_argument("--class", dest="cls", required=True,
                             help="a name that `isolab families` lists")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--starts", type=int, default=16, help=f"8 to {MAX_STARTS} start points")
    search.add_argument("--tol", type=float, default=1e-10)
    search.add_argument("--seed", type=int, default=0)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "csv"), default="json")
    polyhedron = argparse.ArgumentParser(add_help=False)
    polyhedron.add_argument("--file", required=True, help="polyhedron JSON")
    rtol = argparse.ArgumentParser(add_help=False)
    rtol.add_argument("--rtol", type=float, default=1e-8)

    def command(name: str, handler: Callable, help: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=[*parents, output])
        p.set_defaults(handler=handler)
        return p

    command("families", cmd_families, "family catalog as JSON")

    p = command("eval", cmd_eval, "evaluate V, A, Q, r_tong of a family", family)
    p.add_argument("--s", type=float, required=True)

    p = command("inradius", cmd_inradius, "quadrature change-of-variable curve", family, fmt)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--C", type=float, default=0.0)
    p.add_argument("--grid", required=True, help=_GRID_HELP)

    p = command("classify", cmd_classify, "homogeneity verdict over a grid", family, rtol)
    p.add_argument("--grid", required=True, help=_GRID_HELP)
    p.add_argument("--expect", choices=("homogeneous", "not_homogeneous"))

    command("kmin", cmd_kmin, "infimum of Q over a shape class", shape_class, search)

    command("kmin-table", cmd_kmin_table, "reproduce the isoperimetric-ratio table", search)

    p = command("trace", cmd_trace, "trace the level set Q = k", shape_class, fmt)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--start", required=True, help="comma-separated coordinates")
    p.add_argument("--steps", type=int, default=100, help=f"1 to {MAX_STEPS} steps")
    p.add_argument("--step-size", type=float, default=1e-2)

    p = command("solve-coordinate", cmd_solve_coordinate, "solve Q = k for one coordinate",
                shape_class)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--fixed", action="append", required=True,
                   help="i=expr(s), e.g. 0=sqrt(s): numbers, s, pi, e, + - * / ** "
                        "(number exponent) and sqrt sin cos tan exp log; repeatable")

    command("starlike", cmd_starlike, "pyramid decomposition and altitude means", polyhedron)
    command("support-volume", cmd_support_volume, "support-function volume identity", polyhedron)
    p = command("cohen", cmd_cohen, "circumscribing-polytope volume check", polyhedron)
    p.add_argument("--r", type=float, required=True)

    p = command("lift", cmd_lift, "lift a homogeneous 2D family to right cylinders", family, rtol)
    p.add_argument("--rho-scale", type=float, default=1.0, help="half-height = scale * s")
    p.add_argument("--grid", default="0.5:4:8", help=_GRID_HELP)

    p = command("steiner", cmd_steiner, "outer parallel body volume and area")
    p.add_argument("--box", help="a,b,c edge lengths")
    p.add_argument("--polygon-file", help="JSON array of CCW polygon vertices")
    p.add_argument("--s", type=float, required=True)

    p = command("bonnesen", cmd_bonnesen, "Bonnesen inequality report")
    p.add_argument("--2d", dest="two_d", action="store_true")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--V", type=float)
    p.add_argument("--A", type=float, required=True)
    p.add_argument("--P", type=float)
    p.add_argument("--r", type=float)

    p = command("deficit", cmd_deficit, "isoperimetric deficit")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--V", type=float, required=True)
    p.add_argument("--A", type=float, required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    if args.handler in (cmd_bonnesen, cmd_deficit):  # float arithmetic: no numpy to load
        quiet = contextlib.nullcontext()
    else:  # numpy warns on stderr; a non-finite value is rejected where it arises
        import numpy as np
        quiet = np.errstate(all="ignore")
    with quiet:
        try:
            for name, value in vars(args).items():
                if isinstance(value, float):
                    _finite(value, "--" + name.replace("_", "-"))
            for name, cap in (("starts", MAX_STARTS), ("steps", MAX_STEPS)):
                if getattr(args, name, 0) > cap:
                    raise DomainError(f"--{name} is capped at {cap}, got {getattr(args, name)}")
            args.handler(args)
            return EXIT_OK
        except argparse.ArgumentError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except CheckFailedError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        except (DomainError, GeometryError, ConvergenceError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DOMAIN
        except ArithmeticError as exc:  # e.g. a float overflow in an evaluator
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
