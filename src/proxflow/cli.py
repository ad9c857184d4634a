"""Command-line interface: solver runs, order checks, rate checks, suites.

Subcommands
-----------
solve        one (method, damping) run on a built-in instance; trace CSV
order-check  one-step error slope of a method vs the reference flow
rates        decay-rate fits of the reference flows on built-in instances
lasso        the twelve-variant regression suite; per-run + aggregate CSVs
matcomp      the completion suite (single weight or --anneal)

Exit codes: 0 success/converged, 1 bad arguments (also an unreadable
config file or an unwritable output path), 2 not converged (or
slope or rate fit outside its band / partial suite failure), 3 diverged,
fit failure, or NumericalError (a factorization or decomposition
failed, a reference trajectory left float range, or a lasso reference
solution missed its tolerance).  Output CSVs land
in --outdir (default: $PROXFLOW_OUTDIR or the working directory);
reruns with identical flags and seeds overwrite them with identical
content, wall-clock columns aside.

Experiment flags can also be read from a plain-text config file
(``key = value`` per line, ``#`` comments, UTF-8); unknown keys are
rejected.  Explicit command-line flags override config values.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import csvio, experiments, odelab, prox
from .damping import schedule_for
from .errors import NumericalError, ParameterError
from .solvers import (
    METHODS,
    Problem,
    StepConfig,
    method_spec,
    run,
    stop_on_estimate_change,
    stop_on_residual,
)

EXIT_OK = 0
EXIT_BAD_ARGS = 1
EXIT_NOT_CONVERGED = 2
EXIT_DIVERGED = 3

_STATUS_EXIT = {"converged": EXIT_OK, "max-iters": EXIT_NOT_CONVERGED,
                "diverged": EXIT_DIVERGED}


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad usage; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_ARGS, f"{self.prog}: error: {message}\n")


def _quadratic_triple():
    """Small strongly convex smooth triple used by order-check."""
    P_f = np.array([[0.8, 0.2], [0.2, 0.5]])
    P_g = np.array([[0.5, -0.1], [-0.1, 0.4]])
    P_w = np.array([[0.3, 0.1], [0.1, 0.6]])
    q_f = np.array([0.3, -0.2])
    q_g = np.array([-0.1, 0.4])
    q_w = np.array([0.2, 0.1])
    return (prox.Quadratic(P_f, q_f), prox.Quadratic(P_g, q_g),
            prox.Quadratic(P_w, q_w))


def _solve_instance(args):
    """Instance + split for the solve subcommand, at the suites' sizes."""
    kind, scale = args.instance.split("-")
    if kind == "quad":
        return _quad_problem_for(args.method), np.array([1.0, -1.0]), stop_on_residual(args.tol)
    if kind == "lasso":
        cfg = experiments.paper_scale_lasso() if scale == "full" else experiments.LassoConfig()
        problem = experiments.lasso_problem(cfg.instance(args.seed), args.method)
        return problem, np.zeros(cfg.n), stop_on_residual(args.tol)
    cfg = experiments.paper_scale_matcomp() if scale == "full" else experiments.MatCompConfig()
    inst = cfg.instance(args.seed)
    problem = experiments.matcomp_problem(inst, experiments.matched_single_alpha(inst))
    return problem, inst.observed, stop_on_estimate_change(args.tol)


def _quad_problem_for(method: str) -> Problem:
    """The quadratic triple, less the terms ``method`` needs absent."""
    f, g, w = _quadratic_triple()
    _, _, absent = method_spec(method)
    return Problem(f=None if "f" in absent else f, g=g, w=None if "w" in absent else w)


def cmd_solve(args) -> int:
    schedule = schedule_for(args.damping, args.r, args.r1, args.r2)
    cfg = StepConfig(lam=args.lam, schedule=schedule)
    problem, x0, stop = _solve_instance(args)
    state, trace = run(args.method, problem, cfg, x0,
                       stop=stop, max_iters=args.max_iters)
    out = args.outdir / (
        f"solve-{args.instance}-{args.method}-{args.damping}-seed{args.seed}.csv"
    )
    csvio.write_rows(out, "trace", zip(trace.ks.tolist(), trace.objectives.tolist(),
                                       trace.residuals.tolist(), trace.times.tolist()))
    obj = trace.objectives[-1]
    print(f"status={trace.status} iterations={trace.iterations} "
          f"objective={obj:.12g} residual={trace.residuals[-1]:.3e}")
    print(f"trace written to {out}")
    return _STATUS_EXIT[trace.status]


def cmd_order_check(args) -> int:
    problem = _quad_problem_for(args.method)
    schedule = schedule_for(args.damping, args.r, args.r1, args.r2)
    for flag, h in (("--h-min", args.h_min), ("--h-max", args.h_max)):
        if not 0 < h < math.inf:
            raise ParameterError(f"{flag} must be finite and > 0, got {h}")
    hs = np.logspace(math.log10(args.h_min), math.log10(args.h_max), args.points)
    try:
        fit = odelab.local_error_order(args.method, problem, schedule, hs,
                                       x0=np.array([1.2, -0.7]))
    except ParameterError as exc:
        print(f"order fit failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    out = args.outdir / f"order-{args.method}-{args.damping}.csv"
    csvio.write_rows(out, "order", zip(fit.hs.tolist(), fit.errors.tolist()))
    print(f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
          f"r_squared={fit.r_squared:.6f}")
    print(f"fit data written to {out}")
    return EXIT_OK if 1.8 <= fit.slope <= 2.2 else EXIT_NOT_CONVERGED


def cmd_rates(args) -> int:
    rows = []
    out_of_band = False
    for name, case in odelab.rate_cases().items():
        fit = odelab.run_rate_case(name)
        rows.append((name, case.predicted, fit.exponent, fit.r_squared))
        out_of_band |= not case.in_band(fit.exponent)
    out = args.outdir / "rates.csv"
    csvio.write_rows(out, "rates", rows)
    for name, predicted, fitted, r2 in rows:
        print(f"{name}: predicted={predicted:+.3f} fitted={fitted:+.4f} r2={r2:.5f}")
    print(f"rate fits written to {out}")
    return EXIT_NOT_CONVERGED if out_of_band else EXIT_OK


def _suite_config(cfg, paper_scale, args):
    """A suite's configuration with --paper-scale and explicit overrides."""
    if args.paper_scale:
        cfg = paper_scale(cfg)
    if args.seeds is not None:
        cfg = replace(cfg, seeds=args.seeds)
    if args.variants is not None:
        cfg = replace(cfg, variants=tuple(args.variants.split(",")))
    if args.max_iters is not None:
        cfg = replace(cfg, max_iters=args.max_iters)
    return cfg


def _write_report(report, outdir: Path, prefix: str, stages: bool = False) -> int:
    """Write a suite's series, aggregate and (with ``stages``) stage CSVs
    under ``prefix`` and print one line per run."""
    for rec in report.records:
        csvio.write_rows(outdir / f"{prefix}-{rec.variant}-seed{rec.seed}.csv", "series",
                         ((k, float(e)) for k, e in enumerate(rec.errors)))
    aggregate = outdir / f"{prefix}-aggregate.csv"
    csvio.write_rows(aggregate, "aggregate", report.summaries())
    if stages:
        csvio.write_rows(outdir / f"{prefix}-stages.csv", "stages", (
            (rec.variant, rec.seed, st.stage, st.alpha, st.iterations, st.final_error)
            for rec in report.records for st in rec.stages or []))
    for rec in report.records:
        rank = "" if rec.rank is None else f" rank={rec.rank}"
        print(f"{rec.variant} seed={rec.seed}: iters={rec.iterations} "
              f"status={rec.status} final_rel_error={rec.final_error:.3e}{rank}")
    print(f"aggregate written to {aggregate}")
    failed = any(r.status != "converged" for r in report.records)
    return EXIT_NOT_CONVERGED if failed else EXIT_OK


def cmd_lasso(args) -> int:
    cfg = _suite_config(experiments.LassoConfig(), experiments.paper_scale_lasso, args)
    return _write_report(experiments.run_lasso_suite(cfg), args.outdir, "lasso")


def cmd_matcomp(args) -> int:
    cfg = _suite_config(experiments.MatCompConfig(), experiments.paper_scale_matcomp, args)
    mode = "anneal" if args.anneal else "single"
    report = experiments.run_matcomp_suite(cfg, mode=mode)
    return _write_report(report, args.outdir, f"matcomp-{mode}", stages=args.anneal)


# ---------------------------------------------------------------------------
# config files and argument wiring


def _seeds(value: str) -> tuple[int, ...]:
    return tuple(int(s) for s in value.split(",") if s.strip())


def _yes(value: str) -> bool:
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected one of 1/true/yes/0/false/no")
    return value.lower() in ("1", "true", "yes")


# The suite flags, in parser order: name -> (how a config file's value is
# read, or None when a config file cannot set it; argparse keywords).  Both
# suite parsers and the config loader read this table; "anneal" is matcomp's.
_SUITE_FLAGS = {
    "desk": (None, dict(action="store_true", help="desk scale (default)")),
    "paper_scale": (_yes, dict(action="store_true", help="full-size study (slow)")),
    "anneal": (_yes, dict(action="store_true", help="annealed weight schedule")),
    "seeds": (_seeds, dict(type=_seeds, default=None, help="comma-separated seed list")),
    "variants": (str, dict(default=None, help="comma-separated variant subset")),
    "max_iters": (int, dict(type=int, default=None)),
    "config": (None, dict(default=None)),
    "outdir": (str, dict(default=None)),
}


def _suite_flags(command: str) -> dict:
    return {k: v for k, v in _SUITE_FLAGS.items() if k != "anneal" or command == "matcomp"}


def _apply_config(args) -> None:
    """Read a ``key = value`` config file ('#' starts a comment) into ``args``."""
    readers = {k: read for k, (read, _) in _suite_flags(args.command).items() if read}
    data: dict[str, str] = {}
    for lineno, raw in enumerate(Path(args.config).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{args.config}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    unknown = set(data) - set(readers)
    if unknown:
        raise ParameterError(
            f"unknown config keys for {args.command}: {sorted(unknown)}; "
            f"allowed: {sorted(readers)}")
    for key, value in data.items():
        try:
            parsed = readers[key](value)
        except ValueError as exc:
            raise ParameterError(f"{args.config}: bad {key} = {value!r}: {exc}") from None
        if getattr(args, key) in (None, False):     # explicit flags win
            setattr(args, key, parsed)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_damping(p):
        p.add_argument("--damping", choices=("none", "decaying", "constant", "combined"),
                       default="none")
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--r1", type=float, default=None)
        p.add_argument("--r2", type=float, default=None)

    p = sub.add_parser("solve", help="run one method on a built-in instance")
    p.add_argument("--method", required=True, choices=tuple(METHODS))
    add_damping(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--instance", required=True,
                   choices=("lasso-desk", "lasso-full", "matcomp-desk",
                            "matcomp-full", "quad-desk"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iters", type=int, default=100_000)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("order-check", help="one-step error order of a method")
    p.add_argument("--method", required=True, choices=tuple(METHODS))
    add_damping(p)
    p.add_argument("--h-min", type=float, default=1e-3)
    p.add_argument("--h-max", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_order_check)

    p = sub.add_parser("rates", help="decay-rate fits of the reference flows")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_rates)

    for command, help_text, func in (
            ("lasso", "the twelve-variant regression suite", cmd_lasso),
            ("matcomp", "the matrix completion suite", cmd_matcomp)):
        p = sub.add_parser(command, help=help_text)
        for key, (_, kwargs) in _suite_flags(command).items():
            p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None) is not None:
            _apply_config(args)
        args.outdir = Path(os.environ.get("PROXFLOW_OUTDIR", ".") if args.outdir is None
                           else args.outdir)
        args.outdir.mkdir(parents=True, exist_ok=True)     # fail before any solver work
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_ARGS
    except (ValueError, OSError) as exc:
        print(f"proxflow: error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except NumericalError as exc:
        print(f"proxflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry() -> None:
    raise SystemExit(main())
