"""Command-line interface: solver runs, order checks, rate checks, suites.

Subcommands
-----------
solve        one (method, damping) run on a built-in instance; trace CSV
order-check  one-step error slope of a method vs the reference flow
rates        decay-rate fits of the reference flows on built-in instances
lasso        the twelve-variant regression suite; per-run + aggregate CSVs
matcomp      the completion suite (single weight or --anneal)

Exit codes: 0 success/converged, 1 bad arguments, 2 not converged (or
slope outside the expected band / partial suite failure), 3 diverged,
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
from pathlib import Path

import numpy as np

from . import csvio, experiments, odelab, prox
from .damping import CombinedDamping, ConstantDamping, DecayingDamping, NoDamping
from .errors import NumericalError, ParameterError
from .odelab import AcceleratedFlow, GradientFlow
from .solvers import (
    Problem,
    StepConfig,
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


def _outdir(args) -> Path:
    if args.outdir is not None:
        return Path(args.outdir)
    return Path(os.environ.get("PROXFLOW_OUTDIR", "."))


def _schedule(args):
    if args.damping == "none":
        return NoDamping()
    if args.damping == "decaying":
        return DecayingDamping(args.r if args.r is not None else 3.0)
    if args.damping == "constant":
        if args.r is None:
            raise ParameterError("--damping constant requires --r")
        return ConstantDamping(args.r)
    if args.damping == "combined":
        if args.r1 is None or args.r2 is None:
            raise ParameterError("--damping combined requires --r1 and --r2")
        return CombinedDamping(args.r1, args.r2)
    raise ParameterError(f"unknown damping {args.damping!r}")


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
    """Instance + split for the solve subcommand."""
    method = args.method
    if args.instance in ("lasso-desk", "lasso-full"):
        m, n = (50, 250) if args.instance == "lasso-desk" else (500, 2500)
        inst = experiments.gen_lasso(m, n, seed=args.seed)
        family = "dr" if method == "dy" else method
        problem = experiments.lasso_problem(inst, family)
        stop = stop_on_residual(args.tol)
        x0 = np.zeros(n)
        return problem, x0, stop
    if args.instance in ("matcomp-desk", "matcomp-full"):
        if method not in ("admm", "dy"):
            raise ParameterError(f"instance {args.instance} supports methods admm/dy")
        if args.instance == "matcomp-desk":
            inst = experiments.gen_matcomp(40, 40, rank=3, s=0.5, seed=args.seed)
        else:
            inst = experiments.gen_matcomp(100, 100, rank=5, s=0.4, seed=args.seed)
        alpha = experiments.matched_single_alpha(inst)
        problem = experiments.matcomp_problem(inst, alpha)
        stop = stop_on_estimate_change(args.tol)
        return problem, inst.observed, stop
    if args.instance == "quad-desk":
        problem = _quad_problem_for(method)
        stop = stop_on_residual(args.tol)
        return problem, np.array([1.0, -1.0]), stop
    raise ParameterError(f"unknown instance {args.instance!r}")


def _quad_problem_for(method: str) -> Problem:
    f, g, w = _quadratic_triple()
    if method in ("fb", "tseng"):
        return Problem(f=None, g=g, w=w)
    if method == "dr":
        return Problem(f=f, g=g, w=None)
    return Problem(f=f, g=g, w=w)


def cmd_solve(args) -> int:
    problem, x0, stop = _solve_instance(args)
    cfg = StepConfig(lam=args.lam, schedule=_schedule(args))
    state, trace = run(args.method, problem, cfg, x0,
                       stop=stop, max_iters=args.max_iters)
    out = _outdir(args) / (
        f"solve-{args.instance}-{args.method}-{args.damping}-seed{args.seed}.csv"
    )
    csvio.write_trace_csv(trace, out)
    obj = trace.objectives[-1]
    print(f"status={trace.status} iterations={trace.iterations} "
          f"objective={obj:.12g} residual={trace.residuals[-1]:.3e}")
    print(f"trace written to {out}")
    return _STATUS_EXIT[trace.status]


def cmd_order_check(args) -> int:
    problem = _quad_problem_for(args.method)
    schedule = _schedule(args)
    if isinstance(schedule, NoDamping):
        schedule = None
    hs = np.logspace(math.log10(args.h_min), math.log10(args.h_max), args.points)
    try:
        fit = odelab.local_error_order(args.method, problem, schedule, hs,
                                       x0=np.array([1.2, -0.7]))
    except ParameterError as exc:
        print(f"order fit failed: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    out = _outdir(args) / f"order-{args.method}-{args.damping}.csv"
    csvio.write_order_csv(fit, out)
    print(f"slope={fit.slope:.4f} intercept={fit.intercept:.4f} "
          f"r_squared={fit.r_squared:.6f}")
    print(f"fit data written to {out}")
    return EXIT_OK if 1.8 <= fit.slope <= 2.2 else EXIT_NOT_CONVERGED


def cmd_rates(args) -> int:
    rows = []

    # strongly convex descent flow: distance decays like exp(-m t)
    m = 1.0
    quad = prox.Quadratic(np.diag([m, 4.0]))
    fit = odelab.continuous_rate_check(
        GradientFlow(quad), quad, x_star=np.zeros(2), F_star=0.0, T=8.0,
        x0=np.array([1.0, 1.0]), steps=4000, kind="exponential",
    )
    rows.append(("gradient-flow-strongly-convex", m, fit.exponent, fit.r_squared))

    # convex (degenerate) objective under decaying damping: F - F* ~ t^-2
    quartic = prox.FunctionOracle(
        value=lambda x: 0.25 * float(np.sum(x**4)),
        grad=lambda x: x**3,
        name="quartic",
    )
    fit = odelab.continuous_rate_check(
        AcceleratedFlow(quartic, DecayingDamping(3.0)), quartic,
        x_star=np.zeros(1), F_star=0.0, T=300.0,
        x0=np.array([1.5]), v0=np.zeros(1), t0=1.0, steps=120_000,
        kind="power", window=(0.03, 1.0),
    )
    rows.append(("accelerated-decaying-convex", -2.0, fit.exponent, fit.r_squared))

    # strongly convex under critical constant damping: distance ~ exp(-sqrt(m) t)
    m = 4.0
    quad1 = prox.Quadratic(np.array([[m]]))
    fit = odelab.continuous_rate_check(
        AcceleratedFlow(quad1, ConstantDamping(2.0 * math.sqrt(m))), quad1,
        x_star=np.zeros(1), F_star=0.0, T=10.0,
        x0=np.array([1.0]), v0=np.zeros(1), steps=8000, kind="exponential",
    )
    rows.append(("accelerated-constant-strongly-convex", math.sqrt(m),
                 fit.exponent, fit.r_squared))

    out = _outdir(args) / "rates.csv"
    csvio.write_rates_csv(rows, out)
    for case, predicted, fitted, r2 in rows:
        print(f"{case}: predicted={predicted:+.3f} fitted={fitted:+.4f} r2={r2:.5f}")
    print(f"rate fits written to {out}")
    return EXIT_OK


def _parse_seeds(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s.strip() != "")


def cmd_lasso(args) -> int:
    cfg = experiments.LassoConfig()
    if args.paper_scale:
        cfg = experiments.paper_scale_lasso(cfg)
    from dataclasses import replace
    if args.seeds is not None:
        cfg = replace(cfg, seeds=_parse_seeds(args.seeds))
    if args.variants is not None:
        cfg = replace(cfg, variants=tuple(args.variants.split(",")))
    if args.max_iters is not None:
        cfg = replace(cfg, max_iters=args.max_iters)
    report = experiments.run_lasso_suite(cfg)
    outdir = _outdir(args)
    for rec in report.records:
        csvio.write_series_csv(rec.errors, outdir / f"lasso-{rec.variant}-seed{rec.seed}.csv")
    csvio.write_aggregate_csv(report.summaries(), outdir / "lasso-aggregate.csv")
    failed = [r for r in report.records if r.status != "converged"]
    for rec in report.records:
        print(f"{rec.variant} seed={rec.seed}: iters={rec.iterations} "
              f"status={rec.status} final_rel_error={rec.final_error:.3e}")
    print(f"aggregate written to {outdir / 'lasso-aggregate.csv'}")
    return EXIT_OK if not failed else EXIT_NOT_CONVERGED


def cmd_matcomp(args) -> int:
    cfg = experiments.MatCompConfig()
    if args.paper_scale:
        cfg = experiments.paper_scale_matcomp(cfg)
    from dataclasses import replace
    if args.seeds is not None:
        cfg = replace(cfg, seeds=_parse_seeds(args.seeds))
    if args.variants is not None:
        cfg = replace(cfg, variants=tuple(args.variants.split(",")))
    if args.max_iters is not None:
        cfg = replace(cfg, max_iters=args.max_iters)
    mode = "anneal" if args.anneal else "single"
    report = experiments.run_matcomp_suite(cfg, mode=mode)
    outdir = _outdir(args)
    for rec in report.records:
        csvio.write_series_csv(
            rec.errors, outdir / f"matcomp-{mode}-{rec.variant}-seed{rec.seed}.csv")
    csvio.write_aggregate_csv(report.summaries(), outdir / f"matcomp-{mode}-aggregate.csv")
    if mode == "anneal":
        csvio.write_stages_csv(report.records, outdir / "matcomp-anneal-stages.csv")
    failed = [r for r in report.records if r.status != "converged"]
    for rec in report.records:
        print(f"{rec.variant} seed={rec.seed}: iters={rec.iterations} "
              f"status={rec.status} final_rel_error={rec.final_error:.3e} "
              f"rank={rec.rank}")
    print(f"aggregate written to {outdir / f'matcomp-{mode}-aggregate.csv'}")
    return EXIT_OK if not failed else EXIT_NOT_CONVERGED


# ---------------------------------------------------------------------------
# config files and argument wiring

_CONFIG_KEYS = {
    "lasso": {"seeds", "variants", "max_iters", "paper_scale", "outdir"},
    "matcomp": {"seeds", "variants", "max_iters", "paper_scale", "anneal", "outdir"},
}


def load_config(path) -> dict[str, str]:
    """Parse a ``key = value`` config file; '#' starts a comment."""
    data: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    return data


def _apply_config(args, subcommand: str) -> None:
    if getattr(args, "config", None) is None:
        return
    allowed = _CONFIG_KEYS[subcommand]
    data = load_config(args.config)
    unknown = set(data) - allowed
    if unknown:
        raise ParameterError(
            f"unknown config keys for {subcommand}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    bools = {"paper_scale", "anneal"}
    ints = {"max_iters"}
    for key, value in data.items():
        if getattr(args, key) not in (None, False):
            continue    # explicit flags win
        if key in bools:
            setattr(args, key, value.lower() in ("1", "true", "yes"))
        elif key in ints:
            setattr(args, key, int(value))
        else:
            setattr(args, key, value)


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
    p.add_argument("--method", required=True,
                   choices=("admm", "dy", "dr", "fb", "tseng"))
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
    p.add_argument("--method", required=True, choices=("admm", "dy", "dr", "fb", "tseng"))
    add_damping(p)
    p.add_argument("--h-min", type=float, default=1e-3)
    p.add_argument("--h-max", type=float, default=1e-1)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_order_check)

    p = sub.add_parser("rates", help="decay-rate fits of the reference flows")
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("lasso", help="the twelve-variant regression suite")
    p.add_argument("--desk", action="store_true", help="desk scale (default)")
    p.add_argument("--paper-scale", action="store_true", help="full-size study (slow)")
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.add_argument("--variants", default=None, help="comma-separated variant subset")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_lasso, subcommand="lasso")

    p = sub.add_parser("matcomp", help="the matrix completion suite")
    p.add_argument("--desk", action="store_true", help="desk scale (default)")
    p.add_argument("--paper-scale", action="store_true", help="full-size study (slow)")
    p.add_argument("--anneal", action="store_true", help="annealed weight schedule")
    p.add_argument("--seeds", default=None, help="comma-separated seed list")
    p.add_argument("--variants", default=None, help="comma-separated variant subset")
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--outdir", default=None)
    p.set_defaults(func=cmd_matcomp, subcommand="matcomp")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "subcommand", None) in _CONFIG_KEYS:
            _apply_config(args, args.subcommand)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_BAD_ARGS
    except (ParameterError, ValueError) as exc:
        print(f"proxflow: error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except NumericalError as exc:
        print(f"proxflow: numerical failure: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def entry() -> None:
    raise SystemExit(main())
