"""The four workloads: the CLI calls each makes, and the check of their outputs.

A workload is a list of ``proxflow`` command lines run in one process.
After a round the workload reads what the program printed and the CSVs
it wrote, and turns them into one record per solver run or fit: its
fingerprint (iterations, status, final error), whether it failed, and
any sign that an output is wrong.

A run *fails* when it did not converge, exited non-zero, has a slope
outside [1.8, 2.2], a rate fit outside the acceptance bands, or a rank
other than 3.  Failures are counted, never dropped.  An output is
*wrong* when the program contradicts itself or misses an accuracy bound
on a run it reports as converged: an exit code that does not match the
status, an iteration count that differs between stdout and CSV, a
converged lasso run above 1e-6 relative error, a reference solution that
did not converge or fails the lasso optimality conditions (so F* is
wrong), converged ``lasso-full`` objectives that disagree by more than
1e-8, or a fitted slope that the written data does not reproduce.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

EXIT_CODES = {"converged": 0, "max-iters": 2, "diverged": 3}

LASSO_TARGET = 1e-6           # LassoConfig.target, the suite's stop rule
KKT_TOL = 1e-6                # reference optimality, relative to the l1 weight
FULL_AGREEMENT = 1e-8         # converged lasso-full objectives, relative
SLOPE_BAND = (1.8, 2.2)       # order-check, acceptance criterion 1
MATCOMP_RANK = 3
# Fixed configuration of `proxflow rates`: RK4 steps of its three cases.
RATES_RK4_STEPS = 4000 + 120_000 + 8000
# Fixed configuration of `proxflow order-check`: RK4 substeps per point,
# plus the one solver step taken at each point.
ORDER_STEPS_PER_POINT = 64 + 1


# Acceptance criterion 5: the band each rate case must fall in.
RATE_BANDS = {
    "gradient-flow-strongly-convex": lambda pred, fit: abs(fit - pred) <= 0.15 * pred,
    "accelerated-decaying-convex": lambda pred, fit: fit <= -1.7,
    "accelerated-constant-strongly-convex": lambda pred, fit: abs(fit - pred) <= 0.25 * pred,
}


@dataclass
class RunRecord:
    key: str
    iterations: int
    status: str
    final_error: float
    failed: bool

    def fingerprint(self) -> str:
        return f"{self.key} {self.iterations} {self.status} {self.final_error:.12e}"


@dataclass
class RoundCheck:
    records: list[RunRecord] = field(default_factory=list)
    steps: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


@dataclass
class JobOutput:
    argv: list[str]
    code: int
    stdout: str


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _csv_rows(path: Path, schema: str) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != f"# {schema}":
        raise ValueError(f"{path.name}: expected schema {schema}")
    return [line.split(",") for line in lines[2:]]


# ---------------------------------------------------------------------------
# lasso-desk and matcomp-anneal: suite commands, one line per run

_SUITE_LINE = re.compile(
    r"^(?P<variant>\S+) seed=(?P<seed>\d+): iters=(?P<iters>\d+) status=(?P<status>\S+)"
    r" final_rel_error=\S+(?: rank=(?P<rank>\S+))?$", re.M)


def _check_suite(out: JobOutput, outdir: Path, prefix: str, check: RoundCheck,
                 rank_required: bool) -> list[RunRecord]:
    records = []
    for m in _SUITE_LINE.finditer(out.stdout):
        variant, seed, iters, status = m["variant"], m["seed"], int(m["iters"]), m["status"]
        key = f"{variant}/seed{seed}"
        rows = _csv_rows(outdir / f"{prefix}-{variant}-seed{seed}.csv", "proxflow-series-v1")
        check.expect(int(rows[-1][0]) == iters, f"{key}: CSV has {rows[-1][0]} iterations, "
                                                 f"stdout {iters}")
        failed = status != "converged"
        if rank_required:
            failed |= m["rank"] != str(MATCOMP_RANK)
        rec = RunRecord(key, iters, status, float(rows[-1][1]), failed)
        records.append(rec)
        check.steps += iters
    check.expect(bool(records), f"{' '.join(out.argv)}: no run reported")
    # The CLI's exit code follows the status alone; a wrong rank is a failure
    # to count, not a wrong output.
    want = 0 if all(r.status == "converged" for r in records) else 2
    check.expect(out.code == want, f"{' '.join(out.argv)}: exit code {out.code}, "
                                   f"expected {want}")
    check.records.extend(records)
    return records


def _lasso_desk_jobs(seeds, outdir, extra):
    argv = ["lasso", "--desk", "--outdir", str(outdir), *extra]
    if seeds is not None:
        argv += ["--seeds", ",".join(map(str, seeds))]
    return [argv]


def reference_problem(instance, ref) -> str | None:
    """Why ``ref`` is not the lasso optimum of ``instance``, or None.

    With g = A^T (A x - b), x minimises 0.5||Ax - b||^2 + alpha ||x||_1
    exactly when |g_i| <= alpha everywhere and g_i = -alpha sign(x_i) on
    the support; both are checked to KKT_TOL relative to alpha.  F* must
    also be the objective at x.
    """
    if not ref.converged:
        return "did not converge"
    A, b, alpha, x = instance.A, instance.b, instance.alpha, ref.x
    g = A.T @ (A @ x - b)
    tol = KKT_TOL * alpha
    support = x != 0
    if np.max(np.abs(g)) > alpha + tol:
        return f"max |A^T(Ax-b)| = {np.max(np.abs(g)):.6e} exceeds alpha = {alpha:.6e}"
    gap = np.max(np.abs(g[support] + alpha * np.sign(x[support])), initial=0.0)
    if gap > tol:
        return f"A^T(Ax-b) differs from -alpha sign(x) on the support by {gap:.3e}"
    r = A @ x - b
    value = 0.5 * float(r @ r) + alpha * float(np.sum(np.abs(x)))
    if abs(ref.value - value) > 1e-12 * abs(value):
        return f"F* = {ref.value!r} is not the objective at x ({value!r})"
    return None


def _lasso_desk_check(outputs, outdir, check, references):
    for out in outputs:
        for rec in _check_suite(out, outdir, "lasso", check, rank_required=False):
            if rec.status == "converged":
                check.expect(rec.final_error <= LASSO_TARGET,
                             f"{rec.key}: converged at relative error {rec.final_error:.3e}")
    check.expect(bool(references), "no reference solution computed")
    for instance, ref in references:
        problem = reference_problem(instance, ref)
        check.expect(problem is None, f"reference solution, seed {instance.seed}: {problem}")


def _matcomp_jobs(seeds, outdir, extra):
    return [["matcomp", "--anneal", "--desk", "--seeds", ",".join(map(str, seeds)),
             "--outdir", str(outdir), *extra]]


def _matcomp_check(outputs, outdir, check, references):
    for out in outputs:
        _check_suite(out, outdir, "matcomp-anneal", check, rank_required=True)
        rows = _csv_rows(outdir / "matcomp-anneal-stages.csv", "proxflow-stages-v1")
        check.expect(bool(rows), "matcomp-anneal-stages.csv has no stages")


# ---------------------------------------------------------------------------
# lasso-full: one `solve` per method

FULL_METHODS = ("admm", "dr", "fb", "tseng")
_SOLVE_LINE = re.compile(r"^status=(?P<status>\S+) iterations=(?P<iters>\d+) ", re.M)


def _lasso_full_jobs(seeds, outdir, extra):
    return [["solve", "--instance", "lasso-full", "--lambda", "0.1", "--damping", "constant",
             "--r", "0.5", "--method", method, "--seed", str(seed),
             "--outdir", str(outdir), *extra]
            for seed in seeds for method in FULL_METHODS]


def _lasso_full_check(outputs, outdir, check, references):
    by_seed: dict[str, list[tuple[RunRecord, float]]] = {}
    for out in outputs:
        method, seed = _flag(out.argv, "--method"), _flag(out.argv, "--seed")
        key = f"{method}/seed{seed}"
        m = _SOLVE_LINE.search(out.stdout)
        if m is None:
            check.problems.append(f"{key}: no status line")
            continue
        status, iters = m["status"], int(m["iters"])
        rows = _csv_rows(outdir / f"solve-lasso-full-{method}-constant-seed{seed}.csv",
                         "proxflow-trace-v1")
        check.expect(int(rows[-1][0]) == iters, f"{key}: CSV and stdout iterations differ")
        check.expect(out.code == EXIT_CODES[status],
                     f"{key}: exit code {out.code} for status {status}")
        rec = RunRecord(key, iters, status, math.nan, status != "converged")
        by_seed.setdefault(seed, []).append((rec, float(rows[-1][1])))
        check.steps += iters
    for seed, runs in by_seed.items():
        converged = [obj for rec, obj in runs if not rec.failed]
        best = min(converged) if converged else math.nan
        for rec, obj in runs:
            rec.final_error = (obj - best) / abs(best)
            check.records.append(rec)
        gap = max((rec.final_error for rec, _ in runs if not rec.failed), default=0.0)
        check.expect(gap <= FULL_AGREEMENT,
                     f"seed {seed}: converged objectives differ by {gap:.3e}")


# ---------------------------------------------------------------------------
# flow-lab: `rates` plus `order-check` for every method and schedule

FLOW_METHODS = ("admm", "dy", "dr", "fb", "tseng")
FLOW_DAMPINGS = {
    "none": ["--damping", "none"],
    "decaying": ["--damping", "decaying"],
    "constant": ["--damping", "constant", "--r", "1.0"],
    "combined": ["--damping", "combined", "--r1", "3", "--r2", "0.5"],
}
_SLOPE_LINE = re.compile(r"^slope=(?P<slope>\S+) ", re.M)


def _flow_jobs(seeds, outdir, extra):
    jobs = [["rates", "--outdir", str(outdir)]]
    for method in FLOW_METHODS:
        for damping, args in FLOW_DAMPINGS.items():
            jobs.append(["order-check", "--method", method, *args, "--outdir", str(outdir)])
    return jobs


def _flow_check(outputs, outdir, check, references):
    for out in outputs:
        if out.argv[0] == "rates":
            check.expect(out.code == 0, f"rates: exit code {out.code}")
            for case, predicted, fitted, _r2 in _csv_rows(outdir / "rates.csv",
                                                          "proxflow-rates-v1"):
                predicted, fitted = float(predicted), float(fitted)
                if case not in RATE_BANDS:
                    check.problems.append(f"rates: unknown case {case}")
                    continue
                ok = RATE_BANDS[case](predicted, fitted)
                check.records.append(RunRecord(
                    f"rates/{case}", 0, "in-band" if ok else "out-of-band",
                    abs(fitted - predicted) / abs(predicted), not ok))
            check.steps += RATES_RK4_STEPS
            continue
        method, damping = _flag(out.argv, "--method"), _flag(out.argv, "--damping")
        key = f"order/{method}-{damping}"
        rows = _csv_rows(outdir / f"order-{method}-{damping}.csv", "proxflow-order-v1")
        hs = np.array([float(r[0]) for r in rows])
        errors = np.array([float(r[1]) for r in rows])
        slope = float(np.polyfit(np.log10(hs), np.log10(errors), 1)[0])
        m = _SLOPE_LINE.search(out.stdout)
        check.expect(m is not None and abs(float(m["slope"]) - slope) <= 6e-5,
                     f"{key}: printed slope does not fit the written data ({slope:.6f})")
        in_band = SLOPE_BAND[0] <= slope <= SLOPE_BAND[1]
        check.expect(out.code == (0 if in_band else 2), f"{key}: exit code {out.code}")
        check.records.append(RunRecord(key, len(rows), "in-band" if in_band else "out-of-band",
                                       abs(slope - 2.0), not in_band or out.code != 0))
        check.steps += len(rows) * ORDER_STEPS_PER_POINT


@dataclass(frozen=True)
class Workload:
    name: str
    make_jobs: Callable        # (seeds, outdir, extra CLI args) -> command lines
    check_outputs: Callable    # (outputs, outdir, RoundCheck, reference solutions)
    # Instance seeds passed to the CLI; None leaves the CLI's own default.
    default_seeds: tuple[int, ...] | None
    working_set: dict[str, int]             # bytes, computed from the sizes
    takes_seeds: bool = True

    def jobs(self, seeds, outdir: Path, extra: tuple[str, ...] = ()) -> list[list[str]]:
        return self.make_jobs(self.default_seeds if seeds is None else seeds, outdir, extra)

    def check(self, outputs: list[JobOutput], outdir: Path, references) -> RoundCheck:
        check = RoundCheck()
        try:
            self.check_outputs(outputs, outdir, check, references)
        except (OSError, ValueError, IndexError) as exc:
            check.problems.append(f"unreadable output: {exc}")
        return check


F8 = 8  # bytes per float64

WORKLOADS = {w.name: w for w in (
    Workload("lasso-desk", _lasso_desk_jobs, _lasso_desk_check, None,
             {"A": 50 * 250 * F8, "cholesky_factor": 250 * 250 * F8}),
    Workload("lasso-full", _lasso_full_jobs, _lasso_full_check, (0,),
             {"A": 500 * 2500 * F8, "cholesky_factor": 2500 * 2500 * F8}),
    # One of the CLI's three default seeds, so that a run holds several rounds.
    Workload("matcomp-anneal", _matcomp_jobs, _matcomp_check, (0,),
             {"iterate": 40 * 40 * F8}),
    Workload("flow-lab", _flow_jobs, _flow_check, None,
             {"quartic_trajectory": 2 * 120_001 * F8}, takes_seeds=False),
)}
