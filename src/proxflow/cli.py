"""Command-line interface: solver runs, order checks, rate checks, suites.

Run it as ``proxflow``, ``python -m proxflow`` or ``python -m proxflow.cli``.

Subcommands
-----------
solve        one (method, damping) run on a built-in instance; trace CSV
order-check  one-step error slope of a method vs the reference flow
rates        decay-rate fits of the reference flows on built-in instances
lasso        the twelve-variant regression suite; per-run + aggregate CSVs
matcomp      the completion suite (single weight or --anneal)

Exit codes: 0 success/converged, 1 bad arguments (a NaN, infinite or
out-of-range numeric parameter, an empty seed or variant list, a seed
that is not an integer or is negative (solve --seed included), a
--max-iters below 1 (solve's included), an unknown variant or an alias
such as fb-none for fb, a variant or seed listed twice, an order-check
grid of fewer than 3 --points or an --h-min to --h-max range under 1.5
decades, or --desk together with --paper-scale, refused before any
work; also an unwritable output path), 2 not converged (or slope or rate
fit outside its band / partial suite failure), 3 diverged, an order fit
that failed (a kept h with r2*h > 1, an h too small for its prox
parameter, or a one-step error that is not finite and > 0), or
NumericalError (a factorization or decomposition failed, a reference
trajectory left float range, or a lasso reference solution missed its
tolerance).
Output CSVs land in --outdir (default: $PROXFLOW_OUTDIR or the working
directory); reruns with identical flags and seeds overwrite them with
identical content, wall-clock columns aside.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import csvio, damping, experiments, odelab, prox
from .errors import NumericalError, ParameterError, require
from .solvers import (
    CONVERGED,
    METHODS,
    STATUSES,
    Problem,
    StepConfig,
    method_spec,
    run,
    stop_on_estimate_change,
    stop_on_residual,
)

# a run's exit code is its status's; the fit-band and NumericalError exits
# reuse these codes, and no run ends with EXIT_BAD_ARGS
EXIT_OK, EXIT_NOT_CONVERGED, EXIT_DIVERGED = STATUSES.values()
EXIT_BAD_ARGS = 1


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
        return _quad_problem_for(args.method), np.array([1.0, -1.0])
    cfg = experiments.LassoConfig() if kind == "lasso" else experiments.MatCompConfig()
    cfg = cfg.paper_scale() if scale == "full" else cfg
    inst = cfg.instance(args.seed)
    if kind == "lasso":
        return experiments.lasso_problem(inst, args.method), np.zeros(cfg.n)
    problem = experiments.matcomp_problem(inst, experiments.matched_single_alpha(inst))
    return problem, inst.observed


def _quad_problem_for(method: str) -> Problem:
    """The quadratic triple, less the terms ``method`` needs absent."""
    f, g, w = _quadratic_triple()
    _, _, absent = method_spec(method)
    return Problem(f=None if "f" in absent else f, g=g, w=None if "w" in absent else w)


def cmd_solve(args) -> int:
    experiments.check_seed(args.seed)       # before any instance is built
    require(args.max_iters, "max_iters", 1, strict=False)      # run's own rule
    schedule = damping.schedule_for(args.damping, args.r, args.r1, args.r2)
    cfg = StepConfig(lam=args.lam, schedule=schedule)
    matcomp = args.instance.startswith("matcomp")
    stop = (stop_on_estimate_change if matcomp else stop_on_residual)(args.tol)
    problem, x0 = _solve_instance(args)
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
    return STATUSES[trace.status]


def cmd_order_check(args) -> int:
    problem = _quad_problem_for(args.method)
    schedule = damping.schedule_for(args.damping, args.r, args.r1, args.r2)
    for flag, h in (("--h-min", args.h_min), ("--h-max", args.h_max)):
        require(h, flag)
    odelab.check_grid(args.points, *sorted((args.h_min, args.h_max)),
                      names=("--points", "--h-min and --h-max"))
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
    lo, hi = odelab.SLOPE_BAND
    return EXIT_OK if lo <= fit.slope <= hi else EXIT_NOT_CONVERGED


def cmd_rates(args) -> int:
    rows = []
    out_of_band = False
    for name, case in odelab.rate_cases().items():
        fit = case.fit()
        rows.append((name, case.predicted, fit.exponent, fit.r_squared))
        out_of_band |= not case.in_band(fit.exponent)
    out = args.outdir / "rates.csv"
    csvio.write_rows(out, "rates", rows)
    for name, predicted, fitted, r2 in rows:
        print(f"{name}: predicted={predicted:+.3f} fitted={fitted:+.4f} r2={r2:.5f}")
    print(f"rate fits written to {out}")
    return EXIT_NOT_CONVERGED if out_of_band else EXIT_OK


def _suite_config(cfg, args):
    """A suite's configuration, at its ``paper_scale()`` if --paper-scale
    asks, with each field that has a flag set to the flag's value where one
    was given."""
    if args.desk and args.paper_scale:
        raise ParameterError("--desk and --paper-scale ask for different scales; give one")
    if args.paper_scale:
        cfg = cfg.paper_scale()
    return replace(cfg, **{f.name: getattr(args, f.name) for f in fields(cfg)
                           if getattr(args, f.name, None) is not None})


def _write_report(report, outdir: Path, prefix: str) -> int:
    """Write a suite's series, aggregate and (when the records carry stage
    logs) stage CSVs under ``prefix`` and print one line per run."""
    for rec in report.records:
        csvio.write_rows(outdir / f"{prefix}-{rec.variant}-seed{rec.seed}.csv", "series",
                         ((k, float(e)) for k, e in enumerate(rec.errors)))
    aggregate = outdir / f"{prefix}-aggregate.csv"
    csvio.write_rows(aggregate, "aggregate", report.summaries())
    if any(rec.stages for rec in report.records):
        csvio.write_rows(outdir / f"{prefix}-stages.csv", "stages", (
            (rec.variant, rec.seed, st.stage, st.alpha, st.iterations, st.final_error)
            for rec in report.records for st in rec.stages or []))
    for rec in report.records:
        rank = "" if rec.rank is None else f" rank={rec.rank}"
        print(f"{rec.variant} seed={rec.seed}: iters={rec.iterations} "
              f"status={rec.status} final_rel_error={rec.final_error:.3e}{rank}")
    print(f"aggregate written to {aggregate}")
    failed = any(r.status != CONVERGED for r in report.records)
    return EXIT_NOT_CONVERGED if failed else EXIT_OK


def cmd_lasso(args) -> int:
    cfg = _suite_config(experiments.LassoConfig(), args)
    return _write_report(experiments.run_lasso_suite(cfg), args.outdir, "lasso")


def cmd_matcomp(args) -> int:
    cfg = _suite_config(experiments.MatCompConfig(), args)
    mode = "anneal" if args.anneal else "single"
    report = experiments.run_matcomp_suite(cfg, mode=mode)
    return _write_report(report, args.outdir, f"matcomp-{mode}")


# ---------------------------------------------------------------------------
# argument wiring


def _listed(value: str, what: str = "variant") -> tuple[str, ...]:
    """A comma list's entries, each stripped, blanks dropped; empty is refused."""
    # argparse prints the text of ArgumentTypeError only
    entries = tuple(entry for entry in map(str.strip, value.split(",")) if entry)
    if not entries:
        raise argparse.ArgumentTypeError(f"{what}s must list at least one {what}")
    return entries


def _seeds(value: str) -> tuple[int, ...]:
    seeds = []
    for entry in _listed(value, "seed"):
        try:
            seeds.append(int(entry))
        except ValueError:
            raise argparse.ArgumentTypeError(f"seed {entry!r} is not an integer") from None
    return tuple(seeds)


# The suite flags, in parser order: name -> argparse keywords.  Both suite
# parsers read this table; "anneal" is matcomp's.
_SUITE_FLAGS = {
    "desk": dict(action="store_true", help="desk scale (default)"),
    "paper_scale": dict(action="store_true", help="full-size study (slow)"),
    "anneal": dict(action="store_true", help="annealed weight schedule"),
    "seeds": dict(type=_seeds, default=None, help="comma-separated seed list"),
    "variants": dict(type=_listed, default=None, help="comma-separated variant subset"),
    "max_iters": dict(type=int, default=None),
    "outdir": dict(default=None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="proxflow", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_damping(p):
        p.add_argument("--damping", choices=damping.NAMES, default="none")
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
        for key, kwargs in _SUITE_FLAGS.items():
            if key != "anneal" or command == "matcomp":
                p.add_argument("--" + key.replace("_", "-"), **kwargs)
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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


if __name__ == "__main__":
    entry()
