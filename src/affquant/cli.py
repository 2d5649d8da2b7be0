"""Command-line front end.

Subcommands:

* ``orbit``  -- classify a coadjoint point, optionally after a group action.
* ``star``   -- exact star products and commutators of symbol JSON.
* ``lhat``   -- print the quantized generator, or apply it to a grid file.
* ``rep``    -- act on a half-line CSV by a group element, the closed-form
  flow, or the integrated initial-value problem.
* ``verify`` -- run verification suites; exit code 0 iff every check passes.

A JSON file named by the AFFQUANT_CONFIG environment variable supplies
default verification settings; command-line flags override it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import io as aio
from . import quantize as qz
from . import representation as rep
from .lie_aff import (CoadjointPoint, GroupElement, LieAlgebraElement,
                      classify_orbit, coadjoint_act, exp_group)
from .symbol_algebra import star, star_commutator
from .verify import SUITE_NAMES, RunConfig, run_suites

CONFIG_ENV_VAR = "AFFQUANT_CONFIG"


def _parse_number(text: str):
    """Exact Fraction for integer/ratio/decimal literals, float otherwise."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return float(text)


def _parse_assignments(text: str, keys: tuple[str, ...]) -> dict:
    """Parse 'a=1,b=0'-style option values."""
    out = {}
    for chunk in text.split(","):
        if "=" not in chunk:
            raise argparse.ArgumentTypeError(f"expected key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise argparse.ArgumentTypeError(
                f"unknown key {key!r}; expected one of {keys}")
        out[key] = _parse_number(value.strip())
    missing = set(keys) - set(out)
    if missing:
        raise argparse.ArgumentTypeError(f"missing keys: {sorted(missing)}")
    return out


def _number_out(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}" if value.denominator != 1 \
            else str(value.numerator)
    return repr(float(value))


# -- orbit -----------------------------------------------------------------------

def _cmd_orbit(args) -> int:
    point = CoadjointPoint(_parse_number(args.x), _parse_number(args.y))
    if args.act:
        vals = _parse_assignments(args.act, ("a", "b"))
        point = coadjoint_act(GroupElement(vals["a"], vals["b"]), point)
    if args.act_exp:
        vals = _parse_assignments(args.act_exp, ("alpha", "beta"))
        g = exp_group(LieAlgebraElement(vals["alpha"], vals["beta"]))
        point = coadjoint_act(g, point)
    orbit = classify_orbit(point, tol=args.tol)
    record = {
        "point": {"x": _number_out(point.x), "y": _number_out(point.y)},
        "orbit": orbit.kind,
    }
    if orbit.kind == "point":
        record["lambda"] = _number_out(orbit.lam)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        label = {"point": f"point orbit at lambda = {record.get('lambda')}",
                 "upper": "upper half-plane orbit",
                 "lower": "lower half-plane orbit"}[orbit.kind]
        print(f"point (x={record['point']['x']}, y={record['point']['y']}): {label}")
    return 0


# -- star ------------------------------------------------------------------------

def _cmd_star(args) -> int:
    try:
        u = aio.symbol_from_json(args.u)
        v = aio.symbol_from_json(args.v)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: malformed symbol JSON: {exc}", file=sys.stderr)
        return 2
    result = star_commutator(u, v) if args.commutator else star(u, v)
    print(aio.symbol_to_json(result))
    return 0


# -- lhat ------------------------------------------------------------------------

def _cmd_lhat(args) -> int:
    op = qz.GeneratorOp(args.alpha, args.beta)
    if args.apply is None:
        record = {
            "alpha": op.alpha, "beta": op.beta,
            "xq_form": f"{op.alpha!r}*(0.5*d/dq - d/dx) + i*{op.beta!r}*exp(q - x/2)",
            "s_form": f"{op.alpha!r}*d/ds + i*{op.beta!r}*exp(s)",
        }
        if args.json:
            print(json.dumps(record, sort_keys=True))
        else:
            print("on (x, q) grids:", record["xq_form"])
            print("on s grids:     ", record["s_form"])
        return 0
    if not args.out:
        print("error: --out is required with --apply", file=sys.stderr)
        return 2
    read, write = {
        "csv": (aio.read_grid_csv, aio.write_grid_csv),
        "bin": (aio.read_grid_binary, aio.write_grid_binary),
    }[args.format]
    grid = read(args.apply)
    out = qz.apply_generator(op, grid, method=args.deriv)
    write(out, args.out)
    print(f"wrote {out.domain} grid to {args.out}")
    return 0


# -- rep -------------------------------------------------------------------------

def _cmd_rep(args) -> int:
    f = aio.read_halfline_csv(args.input)
    choice = rep.OMEGA_PLUS if f.sigma == 1 else rep.OMEGA_MINUS
    if args.apply:
        vals = _parse_assignments(args.apply, ("a", "b"))
        out = rep.rep_apply(choice, GroupElement(vals["a"], vals["b"]), f)
        action = "rep_apply"
    elif args.flow:
        vals = _parse_assignments(args.flow, ("alpha", "beta", "t"))
        out = rep.rep_one_param(LieAlgebraElement(vals["alpha"], vals["beta"]),
                                float(vals["t"]), f)
        action = "rep_one_param"
    else:
        vals = _parse_assignments(args.evolve, ("alpha", "beta", "t"))
        out = rep.evolve_cauchy(LieAlgebraElement(vals["alpha"], vals["beta"]),
                                float(vals["t"]), f, args.steps,
                                method=args.backend, deriv=args.deriv)
        action = f"evolve_cauchy[{args.backend}]"
    aio.write_halfline_csv(out, args.out)
    print(f"{action}: wrote {out.n} samples (sigma={out.sigma}) to {args.out}")
    return 0


# -- verify ----------------------------------------------------------------------

def _load_config(args) -> RunConfig:
    base = {}
    path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path) as fh:
            base = json.load(fh)
    overrides = {
        "seed": args.seed,
        "n_p": args.grid_n, "n_q": args.grid_n,
        "lattice_n": args.lattice_n,
        "s_max": args.s_max,
        "r_truncation": args.truncation,
        "rk4_steps": args.steps,
        "sigma": args.sigma,
        "output": args.format,
        "exp_alpha": args.alpha,
        "exp_beta": args.beta,
        "exp_t": args.t,
    }
    base.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(base)


def _cmd_verify(args) -> int:
    cfg = _load_config(args)
    results = run_suites(args.suite, cfg)
    lines = [json.dumps(r.to_obj(), sort_keys=True) for r in results]
    if args.out:
        with open(args.out, "w") as fh:
            if cfg.output == "csv":
                fh.write("test,discrepancy,tolerance,pass\n")
                for r in results:
                    fh.write(f"{r.test},{r.discrepancy!r},{r.tolerance!r},{r.passed}\n")
            else:
                fh.write("\n".join(lines) + "\n")
    n_pass = sum(r.passed for r in results)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.test} {json.dumps(r.params, sort_keys=True)} "
              f"discrepancy={r.discrepancy:.3e} tol={r.tolerance:.1e}")
    print(f"{n_pass}/{len(results)} checks passed")
    if not args.out and args.format == "json":
        for line in lines:
            print(line)
    return 0 if n_pass == len(results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affquant",
        description="Star-product quantization of the affine group of the line")
    sub = parser.add_subparsers(dest="command", required=True)

    p_orbit = sub.add_parser("orbit", help="classify a coadjoint point")
    p_orbit.add_argument("--x", required=True)
    p_orbit.add_argument("--y", required=True)
    p_orbit.add_argument("--act", help="group action first, e.g. a=2,b=1")
    p_orbit.add_argument("--act-exp", dest="act_exp",
                         help="act by exp of an algebra element, e.g. alpha=1,beta=1")
    p_orbit.add_argument("--tol", type=float, default=0.0,
                         help="tolerance for the y=0 test (default exact)")
    p_orbit.add_argument("--json", action="store_true")
    p_orbit.set_defaults(func=_cmd_orbit)

    p_star = sub.add_parser("star", help="star product of two symbols")
    p_star.add_argument("--u", required=True, help="symbol JSON")
    p_star.add_argument("--v", required=True, help="symbol JSON")
    p_star.add_argument("--commutator", action="store_true",
                        help="emit u*v - v*u instead of u*v")
    p_star.set_defaults(func=_cmd_star)

    p_lhat = sub.add_parser("lhat", help="quantized generator")
    p_lhat.add_argument("--alpha", type=float, required=True)
    p_lhat.add_argument("--beta", type=float, required=True)
    p_lhat.add_argument("--apply", help="grid file to act on")
    p_lhat.add_argument("--out", help="output grid file")
    p_lhat.add_argument("--format", choices=("csv", "bin"), default="csv")
    p_lhat.add_argument("--deriv", choices=("spectral", "fd8"), default="spectral")
    p_lhat.add_argument("--json", action="store_true")
    p_lhat.set_defaults(func=_cmd_lhat)

    p_rep = sub.add_parser("rep", help="act on a half-line function")
    p_rep.add_argument("--input", required=True, help="half-line CSV")
    p_rep.add_argument("--out", required=True)
    group = p_rep.add_mutually_exclusive_group(required=True)
    group.add_argument("--apply", help="group element, e.g. a=2,b=1")
    group.add_argument("--flow", help="closed-form flow, e.g. alpha=1,beta=1,t=0.5")
    group.add_argument("--evolve", help="integrate the flow, e.g. alpha=1,beta=1,t=0.5")
    p_rep.add_argument("--backend", choices=("characteristics", "rk4"),
                       default="characteristics")
    p_rep.add_argument("--steps", type=int, default=1000)
    p_rep.add_argument("--deriv", choices=("spectral", "fd8"), default="fd8")
    p_rep.set_defaults(func=_cmd_rep)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("suite", choices=SUITE_NAMES + ("all",))
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--grid-n", dest="grid_n", type=int)
    p_verify.add_argument("--lattice-n", dest="lattice_n", type=int)
    p_verify.add_argument("--s-max", dest="s_max", type=float)
    p_verify.add_argument("--truncation", type=int)
    p_verify.add_argument("--steps", type=int)
    p_verify.add_argument("--sigma", choices=("plus", "minus", "both"))
    p_verify.add_argument("--alpha", type=float,
                          help="restrict the exponentiate suite to one element")
    p_verify.add_argument("--beta", type=float)
    p_verify.add_argument("--t", type=float,
                          help="restrict the exponentiate suite to one time")
    p_verify.add_argument("--format", choices=("json", "csv"), default=None)
    p_verify.add_argument("--out", help="write the machine-readable report here")
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
