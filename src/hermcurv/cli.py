"""Command-line front end.

Exit-code contract: 0 success, 2 precondition failure (bad input or path,
domain or degree violations), 3 non-convergence (each solver gates its own
residual with `--tol`), 4 golden-value mismatch.  All outputs are
deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .conformal import conformal_oracle_check
from .curvature import ricci_forms, scalar_comparison_defect
from .dsl import ParseError, load_manifest
from .grid import (GridError, GridMetric, TorusGrid, laplacian_duality_defect,
                   gauduchon_degrees)
from .jets import JetError
from .manifolds import DomainError, builtin, builtin_names, manifold_from_manifest
from .report import (SCHEMA_VERSION, curvature_records, records_to_csv,
                     records_to_text, solver_record)
from .solvers import (ConvergenceError, PreconditionError,
                      bismut_yamabe_minimize, solve_chern_negative,
                      solve_chern_zero)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_GOLDEN_MISMATCH = 4

GOLDEN_TOL = 1e-8  # max deviation from a builtin's stored (s1, s2)

# names, looked up at call time: a wrapper rebound to the module attribute runs
SOLVERS = {"chern-zero": "solve_chern_zero", "chern-negative": "solve_chern_negative",
           "bismut": "bismut_yamabe_minimize"}

DEFAULT_FACTORS = [
    "re(z1)/4",
    "im(z2)*re(z2)/5",
    "log(1 + abs2(z1)/3)",
]


def _parse_params(items):
    params = {}
    for item in items or []:
        if "=" not in item:
            raise ParseError(f"--param expects name=value, got {item!r}")
        key, val = item.split("=", 1)
        key, value = key.strip(), float(val)
        if not np.isfinite(value):
            raise ValueError(f"--param {key} must be finite, got {val!r}")
        params[key] = value
    return params


def _resolve_manifold(spec: str, n, params):
    if os.path.isfile(spec):
        if n is not None or params:
            raise ValueError(f"--n and --param apply to builtin manifolds only; "
                             f"{spec} is a manifest")
        return manifold_from_manifest(load_manifest(spec))
    return builtin(spec, n=n, **params)


def _write_report(table: dict, args):
    write = records_to_csv if args.format == "csv" else records_to_text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(table, fh)
    else:
        write(table, sys.stdout)


def tolerance(text: str) -> float:
    # argparse names this function in the usage error of a refused value
    value = float(text)
    if not 0 < value < np.inf:
        raise ValueError(text)
    return value


def _ts_list(arg: str):
    ts = [float(x) for x in arg.split(",") if x != ""]
    if not ts:
        raise ValueError(f"--t needs at least one value, got {arg!r}")
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"--t values must be finite, got {arg!r}")
    return ts


def cmd_catalog(args) -> int:
    for name in builtin_names():
        man = builtin(name)
        flags = []
        if man.declared_gauduchon:
            flags.append("gauduchon")
        if man.declared_balanced:
            flags.append("balanced")
        if man.periods:
            flags.append("periodic")
        print(f"{name:18s} n={man.n}  params={sorted(man.params)}  "
              f"[{', '.join(flags)}]  domain: {man.domain.description}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    man = _resolve_manifold(args.manifold, args.n, _parse_params(args.param))
    z = man.sample_points(args.points, seed=args.seed)
    ts = _ts_list(args.t)
    jet = man.jet(z)
    table = curvature_records(man, z, jet, ts)
    for key in (k for k in table if k in ("s1", "s2") or k.startswith("ric")):
        finite = np.isfinite(table[key]).reshape(len(ts), -1).all(axis=1)
        if not finite.all():
            raise ValueError(f"curvature column {key} is not finite at "
                             f"t={ts[int(np.argmin(finite))]:g}")
    _write_report(table, args)
    if not args.golden:
        return EXIT_OK
    golden = man.golden
    if golden is None:
        print(f"GOLDEN SKIP {man.name}: no stored values")
        return EXIT_OK
    if 0.0 in ts:  # the table's t = 0 rows; rows run over the points per t
        i = ts.index(0.0) * len(z)
        at0 = {key: table[key][i:i + len(z)] for key in ("s1", "s2")}
    else:
        at0 = vars(ricci_forms(jet, [0.0])[0])
    status = EXIT_OK
    for key in ("s1", "s2"):
        want, got = golden[key], at0[key]
        dev = float(np.max(np.abs(got - want)))
        ok = dev < GOLDEN_TOL
        print(f"GOLDEN {'PASS' if ok else 'FAIL'} {man.name} {key}: "
              f"stored {want:.12g}, max deviation {dev:.3e}")
        if not ok:
            status = EXIT_GOLDEN_MISMATCH
    return status


def cmd_check(args) -> int:
    man = _resolve_manifold(args.manifold, args.n, _parse_params(args.param))
    tol = args.tol
    if args.what == "conformal":
        z = man.sample_points(args.points, seed=args.seed)
        factors, ts = args.factor or DEFAULT_FACTORS, _ts_list(args.t)
        defects = conformal_oracle_check(man, factors, ts, z)
        worst = float(np.max([d["max"] for d in defects]))  # NaN propagates
        rows = len(defects)
        table = {"schema": [SCHEMA_VERSION] * rows, "manifold": [man.name] * rows,
                 "factor": [f for f in factors for _ in ts], "t": ts * len(factors)}
        for key in ("s2", "ric3", "ric4"):
            table[f"defect_{key}"] = [d[key] for d in defects]
        _write_report(table, args)
        print(f"conformal oracle max defect {worst:.3e} (tol {tol:g})")
        return EXIT_OK if worst < tol else EXIT_NO_CONVERGENCE
    if args.what == "comparison":
        z = man.sample_points(args.points, seed=args.seed)
        jet = man.jet(z)
        worst = float(np.max([np.max(np.abs(d)) for d in
                              scalar_comparison_defect(jet, _ts_list(args.t))]))
        print(f"comparison identity max defect {worst:.3e} (tol {tol:g})")
        return EXIT_OK if worst < tol else EXIT_NO_CONVERGENCE
    # duality
    grid = TorusGrid(n=man.n, N=args.grid, scheme=args.scheme, periods=man.periods)
    gm = GridMetric.from_manifold(man, grid)
    x = grid.points()
    u = np.zeros(grid.shape)
    for k in range(man.n):
        u += np.sin(2 * np.pi * x[..., k].real) + 0.5 * np.cos(
            2 * np.pi * x[..., k].imag)
    defect = laplacian_duality_defect(gm, u)
    print(f"laplacian duality defect {defect:.3e} at N={args.grid} "
          f"({args.scheme}, tol {tol:g})")
    return EXIT_OK if defect < tol else EXIT_NO_CONVERGENCE


def cmd_solve(args) -> int:
    man = _resolve_manifold(args.manifold, args.n, _parse_params(args.param))
    grid = TorusGrid(n=man.n, N=args.grid, scheme=args.scheme, periods=man.periods)
    gm = GridMetric.from_manifold(man, grid)
    digest = {"manifold": man.name, "n": man.n,
              "params": ";".join(f"{k}={v:g}" for k, v in sorted(man.params.items())),
              "grid": args.grid, "scheme": args.scheme, "tol": args.tol,
              "seed": args.seed, "problem": args.problem}
    t0 = time.perf_counter()
    rep = globals()[SOLVERS[args.problem]](gm, args.tol)
    wall = time.perf_counter() - t0
    if args.dump_solution:  # first, so that an unwritable path prints no report
        _dump_field(rep.solution, args.dump_solution)
    _write_report(solver_record(rep, digest), args)
    g1, g2 = gauduchon_degrees(gm)
    print(f"{args.problem}: lambda={rep.lam:.10g} residual_linf="
          f"{rep.residual_linf:.3e} residual_l2={rep.residual_l2:.3e} "
          f"degrees=({g1:.3e}, {g2:.3e}) wall={wall:.2f}s")
    return EXIT_OK


def _dump_field(field, path):
    # lexicographic node order in (x1, y1, x2, y2, ...)
    vals = field.values.reshape(-1)
    lines = ["index,value"]
    lines += [f"{i},{format(v, '.17g')}" for i, v in enumerate(vals)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class _Parser(argparse.ArgumentParser):
    # subcommand parsers inherit the class: an unknown option is reported
    # with the usage of the command it follows, not the root usage
    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hermcurv",
        description="Hermitian curvature engine and constant-scalar-curvature "
                    "solvers on coordinate charts")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list builtin manifolds")

    def common_options(p, manifold_positional, seed=True, report=True):
        if manifold_positional:
            p.add_argument("manifold", help="builtin name or manifest path")
        else:
            p.add_argument("--manifold", required=True,
                           help="builtin name or manifest path")
        p.add_argument("--n", type=int, default=None, help="complex dimension")
        p.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="real manifold parameter (repeatable)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if report:
            p.add_argument("--format", choices=("text", "csv"), default="text")
            p.add_argument("--out", default=None, help="write the report here")

    def grid_options(p):
        p.add_argument("--grid", type=int, default=16)
        p.add_argument("--scheme", choices=("fd2", "spectral"), default="fd2")

    p_ins = sub.add_parser("inspect", help="pointwise curvature report")
    common_options(p_ins, manifold_positional=True)
    p_ins.add_argument("--points", type=int, default=10)
    p_ins.add_argument("--t", default="0", help="comma-separated t values")
    p_ins.add_argument("--golden", action="store_true",
                       help="compare against stored golden values")

    # each check mode takes only the options it reads
    modes = sub.add_parser("check", help="identity defect tables").add_subparsers(
        dest="what", required=True)
    p_cnf, p_cmp, p_dua = map(modes.add_parser, ("conformal", "comparison", "duality"))
    common_options(p_cnf, manifold_positional=False)
    common_options(p_cmp, manifold_positional=False, report=False)
    common_options(p_dua, manifold_positional=False, seed=False, report=False)
    for p in (p_cnf, p_cmp):
        p.add_argument("--points", type=int, default=20)
        p.add_argument("--t", default="0,0.5,1,-1")
    p_cnf.add_argument("--factor", action="append",
                       help="conformal factor expression (repeatable)")
    grid_options(p_dua)
    for p in (p_cnf, p_cmp, p_dua):
        p.add_argument("--tol", type=tolerance, default=1e-7)

    p_sol = sub.add_parser("solve", help="constant-curvature solvers")
    p_sol.add_argument("problem", choices=SOLVERS)
    common_options(p_sol, manifold_positional=False)
    grid_options(p_sol)
    p_sol.add_argument("--tol", type=tolerance, default=1e-6)
    p_sol.add_argument("--dump-solution", default=None, metavar="PATH",
                       help="write the solution field as node-indexed CSV")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return {"catalog": cmd_catalog, "inspect": cmd_inspect, "check": cmd_check,
                "solve": cmd_solve}[args.command](args)
    except (PreconditionError, ParseError, DomainError, JetError, GridError,
            KeyError, ValueError, OSError) as err:
        print(f"precondition error: {err}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ConvergenceError as err:
        print(f"non-convergence: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
