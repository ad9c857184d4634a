"""Instance generators, reference solutions and the two benchmark suites.

The l1-regularized regression suite runs twelve variants (four splitting
families, each plain / decaying momentum / constant momentum) against a
high-precision in-repo reference solution and records the relative
objective error per iteration.  The box-constrained matrix completion
suite runs the three-operator and balance-coefficient families, either
at a single nuclear-norm weight or along a geometric annealing schedule
with warm starts, and records the relative reconstruction error.

Each study has one instance recipe.  A lasso instance plants a 95%-sparse
signal behind a unit-column Gaussian design, adds noise of standard
deviation 1e-3 and sets alpha = 0.1 * alpha_max; each of its runs stops
at a relative objective error of ``LASSO_TARGET`` = 1e-6.  A completion
instance multiplies two factors with N(3, 1) entries, and annealing
follows one geometric schedule: from 0.25 * ||observed||_F, by factors
of ``ANNEAL_DELTA`` = 0.25, down to ``ANNEAL_ALPHA_BAR`` = 1e-8.  Sizes,
ranks, sampling fractions and seeds are the settings a caller chooses.

All randomness flows through one ``numpy.random.default_rng(seed)``
(PCG64) per instance; normal draws use the generator's documented
ziggurat sampler, so instances are bit-reproducible here and
distributionally reproducible elsewhere.  Desk-scale defaults keep every
suite in the seconds-to-minutes range; the sizes used in the original
studies remain selectable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import prox
from .damping import ConstantDamping, DecayingDamping, NoDamping
from .errors import ConfigurationError, NumericalError, ParameterError, require
from .solvers import (
    CONVERGED,
    Problem,
    StepConfig,
    method_spec,
    run,
    stop_on_estimate_change,
)
from .space import Element, norm

# ---------------------------------------------------------------------------
# l1-regularized least squares


@dataclass(frozen=True, eq=False)
class LassoInstance:
    A: Element          # m x n, unit two-norm columns
    b: Element
    x_true: Element
    alpha: float
    seed: int

    def objective(self, x: Element) -> float:
        r = self.A @ x - self.b
        return 0.5 * float(r @ r) + self.alpha * float(np.sum(np.abs(x)))


def gen_lasso(m: int, n: int, seed: int = 0) -> LassoInstance:
    """Random unit-column design with a 95%-sparse planted signal.

    A has standard normal entries with columns scaled to unit two-norm;
    the planted x keeps round((1 - 0.95)*n) standard normal entries on a
    uniformly chosen support; b = A x + noise of standard deviation 1e-3.
    The weight is 0.1 times the largest weight admitting a nonzero
    solution, ``alpha_max(A, b)``.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    # column norms accumulated row by row, as np.linalg.norm(A, axis=0)
    # sums them (same bits), but without its m x n temporary A*A
    sq = np.zeros(n)
    for row in A:
        sq += row * row
    A /= np.sqrt(sq)
    nnz = int(round((1.0 - 0.95) * n))
    support = rng.choice(n, size=nnz, replace=False)
    x_true = np.zeros(n)
    x_true[support] = rng.standard_normal(nnz)
    b = A @ x_true + 1e-3 * rng.standard_normal(m)
    alpha = 0.1 * alpha_max(A, b)
    return LassoInstance(A=A, b=b, x_true=x_true, alpha=alpha, seed=seed)


def alpha_max(A: Element, b: Element) -> float:
    """Smallest l1 weight for which the zero vector is already optimal."""
    return float(np.max(np.abs(A.T @ b)))


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    x: Element
    value: float
    residual: float       # fixed-point residual of x (see reference_solution)
    iterations: int
    converged: bool


# consecutive iterations with one sign pattern before that pattern is polished
_POLISH_AFTER = 3


def reference_solution(
    instance: LassoInstance, tol: float = 1e-10, max_iters: int = 10**6
) -> ReferenceSolution:
    """High-precision oracle for the l1 objective: accelerated
    forward-backward plus support polish.

    Let T_lam(x) = soft_threshold(x - lam*A^T(Ax - b), lam*alpha), where L
    is the largest eigenvalue of A^T A.  The iteration is FISTA (Beck &
    Teboulle 2009) at its step 1/L: x_k = T_{1/L}(y), then y = x_k +
    k/(k+3)*(x_k - x_{k-1}).  A gradient restart (O'Donoghue & Candes 2015)
    sets k = 0 and y = x_k whenever (y - x_k).(x_k - x_{k-1}) > 0, that is,
    when the step turned against the momentum.  The sign pattern s of the
    iterate is compared with the previous one at every iteration; once it
    has held for ``_POLISH_AFTER`` iterations, and again whenever the step
    ||y - x_k|| is at most ``tol``, the optimum with that support S and
    those signs is computed from (A_S^T A_S) x_S = A_S^T b - alpha*s_S (the
    subspace step of Wen, Yin, Goldfarb & Zhang 2010, FPC_AS).

    One map decides what is returned: T = T_{0.5/L}.  A point is accepted,
    the polished candidate first, only if its fixed-point residual
    ||x - T(x)|| is at most ``tol``, and that residual is the reported
    ``residual``.  A polished candidate must also keep the signs s and be
    finite; otherwise forward-backward continues from its own iterate.

    ``iterations`` counts the accelerated steps taken.  If the cap is
    reached, the last iterate and its residual under T are reported with
    ``converged=False`` instead of raising.
    """
    require(tol, "tol")
    A, b, alpha = instance.A, instance.b, instance.alpha
    L = prox.gram_spectral_norm(A)

    def step(x, lam):
        return prox.soft_threshold(x - lam * (A.T @ (A @ x - b)), lam * alpha)

    def residual(x):
        return norm(x - step(x, 0.5 / L))

    def result(x, resid, iterations, converged=True):
        return ReferenceSolution(x=x, value=instance.objective(x), residual=resid,
                                 iterations=iterations, converged=converged)

    x = y = np.zeros(A.shape[1])
    k = held = 0
    signs = np.sign(x)
    for it in range(1, max_iters + 1):
        x_new = step(y, 1.0 / L)
        reached = norm(y - x_new) <= tol
        if (y - x_new) @ (x_new - x) > 0:    # gradient restart
            k, y = 0, x_new
        else:
            k += 1
            y = x_new + k / (k + 3) * (x_new - x)
        x = x_new
        new_signs = np.sign(x)
        held = held + 1 if np.array_equal(new_signs, signs) else 0
        signs = new_signs
        if reached or held == _POLISH_AFTER:
            polished = _support_polish(A, b, alpha, signs)
            if polished is not None:
                resid = residual(polished)
                if resid <= tol:
                    return result(polished, resid, it)
        if reached:
            resid = residual(x)
            if resid <= tol:
                return result(x, resid, it)
    return result(x, residual(x), max_iters, converged=False)


def _support_polish(A: Element, b: Element, alpha: float, signs: Element) -> Element | None:
    """Lasso stationary point with the given sign pattern, or None.

    Solves (A_S^T A_S) x_S = A_S^T b - alpha*s_S on the support S of
    ``signs`` (zero elsewhere); None when that system is singular or the
    solution is not finite or leaves the sign pattern.
    """
    on = signs != 0
    x = np.zeros(A.shape[1])
    if on.any():
        A_S = A[:, on]
        try:
            x[on] = np.linalg.solve(A_S.T @ A_S, A_S.T @ b - alpha * signs[on])
        except np.linalg.LinAlgError:
            return None
    if not np.all(np.isfinite(x)) or not np.array_equal(np.sign(x), signs):
        return None
    return x


# ---------------------------------------------------------------------------
# box-constrained matrix completion


@dataclass(frozen=True, eq=False)
class MatCompInstance:
    M: Element            # ground truth, low rank by construction
    mask: np.ndarray      # boolean observation mask
    lo: float             # box bounds from the observed entries
    hi: float
    seed: int

    @property
    def observed(self) -> Element:
        return np.where(self.mask, self.M, 0.0)

    @cached_property
    def _truth_norm(self) -> float:
        return norm(self.M)

    def relative_error(self, x: Element) -> float:
        return norm(x - self.M) / self._truth_norm


def gen_matcomp(n: int, m: int, rank: int, s: float = 0.4, seed: int = 0) -> MatCompInstance:
    """Ground truth L1 @ L2^T with factor entries from N(3, 1).

    floor(s*n*m) entries are observed, sampled uniformly without
    replacement.  The box bounds are min/max of the observed entries
    widened by half their standard deviation.
    """
    if rank > min(n, m):
        raise ParameterError(f"rank {rank} exceeds min(n, m) = {min(n, m)}")
    if not 0 < s <= 1:
        raise ParameterError(f"sampling fraction must be in (0, 1], got {s}")
    rng = np.random.default_rng(seed)
    L1 = 3.0 + rng.standard_normal((n, rank))
    L2 = 3.0 + rng.standard_normal((m, rank))
    M = L1 @ L2.T
    count = int(math.floor(s * n * m))
    flat = rng.choice(n * m, size=count, replace=False)
    mask = np.zeros(n * m, dtype=bool)
    mask[flat] = True
    mask = mask.reshape(n, m)
    obs = M[mask]
    sigma = float(obs.std())
    lo, hi = float(obs.min() - sigma / 2), float(obs.max() + sigma / 2)
    return MatCompInstance(M=M, mask=mask, lo=lo, hi=hi, seed=seed)


ANNEAL_DELTA = 0.25
ANNEAL_ALPHA_BAR = 1e-8


def anneal_schedule(alpha0: float) -> list[float]:
    """The completion study's weights: alpha_{j+1} = max(delta*alpha_j, alpha_bar).

    delta = ``ANNEAL_DELTA`` and alpha_bar = ``ANNEAL_ALPHA_BAR``.  Starts
    at alpha0 and stops at the first attainment of alpha_bar; if alpha0 is
    already at or below alpha_bar the sequence is just [alpha_bar].
    """
    require(alpha0, "alpha0", strict=False)     # an infinite alpha0 would never reach alpha_bar
    if alpha0 <= ANNEAL_ALPHA_BAR:
        return [ANNEAL_ALPHA_BAR]
    seq = [alpha0]
    while seq[-1] > ANNEAL_ALPHA_BAR:
        seq.append(max(ANNEAL_DELTA * seq[-1], ANNEAL_ALPHA_BAR))
    return seq


# The default single-run nuclear weight was calibrated at 3.5 on 100x100
# rank-5 instances with s=0.4 and N(3,1) factors; keep alpha/||observed||_F
# at that calibration ratio so the weight transfers across instance sizes.
_CALIBRATION_OBS_NORM = math.sqrt(0.4 * 100 * 100 * (19.0 * 5 + (9.0 * 5) ** 2))
SINGLE_ALPHA_RATIO = 3.5 / _CALIBRATION_OBS_NORM


def matched_single_alpha(instance: MatCompInstance) -> float:
    """Nuclear weight for single-run mode, scaled to the instance."""
    return SINGLE_ALPHA_RATIO * norm(instance.observed)


def matcomp_problem(instance: MatCompInstance, alpha: float) -> Problem:
    return Problem(
        f=prox.Nuclear(alpha),
        g=prox.Box(instance.lo, instance.hi),
        w=prox.MaskedQuadratic(instance.mask, instance.observed),
    )


# ---------------------------------------------------------------------------
# suite plumbing


@dataclass(eq=False)
class StageLog:
    stage: int
    alpha: float
    iterations: int
    final_error: float


@dataclass(eq=False)
class RunRecord:
    variant: str
    seed: int
    status: str
    errors: np.ndarray          # per-iteration relative error, row 0 = start
    rank: int | None = None
    stages: list[StageLog] | None = None

    @property
    def iterations(self) -> int:
        return len(self.errors) - 1

    @property
    def final_error(self) -> float:
        return float(self.errors[-1])


@dataclass(eq=False)
class RunReport:
    records: list[RunRecord]

    def for_variant(self, variant: str) -> list[RunRecord]:
        return [r for r in self.records if r.variant == variant]

    def summaries(self):
        """Aggregate rows per variant: the mean and standard deviation of
        the iteration counts, then of the final errors."""
        for variant in dict.fromkeys(r.variant for r in self.records):
            rows = self.for_variant(variant)
            iters = np.array([r.iterations for r in rows], dtype=float)
            errs = np.array([r.final_error for r in rows], dtype=float)
            yield (variant, float(iters.mean()), float(iters.std()),
                   float(errs.mean()), float(errs.std()))

    def mean_iterations(self, variant: str) -> float:
        rows = self.for_variant(variant)
        return float(np.mean([r.iterations for r in rows]))


LASSO_FAMILIES = ("admm", "dr", "fb", "tseng")
MATCOMP_FAMILIES = ("dy", "admm")


def _variant_table(families, lam: float, r_constant: float) -> dict:
    """A suite's variants: name -> (family, StepConfig).  Each family runs
    plain ("fb"), with decaying damping at ``DecayingDamping()``'s rate
    ("fb-decaying") and with constant damping at ``r_constant``
    ("fb-constant"), in that order; no other name is a variant."""
    regimes = {"": NoDamping(), "-decaying": DecayingDamping(),
               "-constant": ConstantDamping(r_constant)}
    return {family + suffix: (family, StepConfig(lam=lam, schedule=schedule))
            for family in families for suffix, schedule in regimes.items()}


def check_seed(seed: int) -> None:
    """The seed rule of the suites and of ``proxflow solve``: a negative
    seed raises ConfigurationError naming it."""
    if seed < 0:
        raise ConfigurationError(f"seed {seed} is negative; seeds must be >= 0")


def _resolve(cfg, table) -> list:
    """(variant, family, StepConfig) for each of ``cfg.variants``, resolved
    before a suite does any work: an empty list of variants or seeds, a name
    that is not in ``table``, a variant or seed listed twice, or a negative
    seed, raises ConfigurationError; a ``cfg.max_iters`` below 1 raises
    ParameterError."""
    require(cfg.max_iters, "max_iters", 1, strict=False)
    for what, listed in (("variant", cfg.variants), ("seed", cfg.seeds)):
        if not listed:
            raise ConfigurationError(f"{what}s must list at least one {what}")
        if len(set(listed)) < len(listed):      # the most frequent entry is a repeat
            raise ConfigurationError(f"{what} {max(listed, key=listed.count)!r} is listed twice")
    check_seed(min(cfg.seeds))
    for variant in cfg.variants:
        if variant not in table:
            raise ConfigurationError(f"unknown variant {variant!r}; variants: {', '.join(table)}")
    return [(variant, *table[variant]) for variant in cfg.variants]


# ---------------------------------------------------------------------------
# the two suites


# The forward-backward-forward family is only stable for lam < 1/L, and
# lam = 0.1 sits exactly at that boundary for unit-column designs with
# n/m = 5 (L concentrates near 10 with a few percent of seed-to-seed
# spread).  The default desk seeds are ones whose instances satisfy the
# stability requirement for every family; seeds with L > 10 make Tseng
# diverge, which is the method's documented behavior at that step size.
LASSO_LAM = 0.1
LASSO_R_CONSTANT = 0.5
REFERENCE_TOL = 1e-12       # fixed-point residual the reference solution must reach
LASSO_TARGET = 1e-6         # relative objective error each run stops at


@dataclass(frozen=True)
class LassoConfig:
    m: int = 50
    n: int = 250
    seeds: tuple[int, ...] = (1, 3, 4)
    max_iters: int = 200_000
    variants: tuple[str, ...] = tuple(
        _variant_table(LASSO_FAMILIES, LASSO_LAM, LASSO_R_CONSTANT))

    def instance(self, seed: int) -> LassoInstance:
        return gen_lasso(self.m, self.n, seed=seed)

    def paper_scale(self) -> LassoConfig:
        """This configuration at the full study's size (slow; desk scale is
        the default)."""
        return replace(self, m=500, n=2500, seeds=tuple(range(10)))


def lasso_problem(instance: LassoInstance, family: str) -> Problem:
    """The split a method uses: the quadratic sits behind its prox as f,
    unless the method needs f absent; then it exposes its gradient as w."""
    _, _, absent = method_spec(family)
    quad = prox.LeastSquares(instance.A, instance.b)
    l1 = prox.L1(instance.alpha)
    if "f" in absent:
        return Problem(f=None, g=l1, w=quad)
    return Problem(f=quad, g=l1, w=None)


def run_lasso_suite(cfg: LassoConfig) -> RunReport:
    """Run the configured variants on each seed's instance.

    Each run stops when |F_k - F*| / F* falls to ``LASSO_TARGET`` = 1e-6
    (F evaluated at the solution estimate) or at the iteration cap.  An
    empty list of variants or seeds, an unknown variant, a variant or seed
    listed twice, or a negative seed, raises ``ConfigurationError``, and a
    ``max_iters`` below 1 ``ParameterError``, before any instance is
    generated.  A reference solution F* that misses
    ``REFERENCE_TOL`` raises ``NumericalError`` before any variant runs on
    that seed.  The per-record error series backs iteration-count
    comparisons across variants.
    """
    steps = _resolve(cfg, _variant_table(LASSO_FAMILIES, LASSO_LAM, LASSO_R_CONSTANT))
    records = []
    for seed in cfg.seeds:
        instance = cfg.instance(seed)
        ref = reference_solution(instance, tol=REFERENCE_TOL)
        if not ref.converged:
            raise NumericalError(
                f"reference solution for seed {seed} did not converge: residual "
                f"{ref.residual:.3e} after {ref.iterations} iterations, "
                f"tolerance {REFERENCE_TOL:.3e}"
            )
        f_star = ref.value
        for variant, family, step_cfg in steps:
            problem = lasso_problem(instance, family)
            _, trace = run(
                family, problem, step_cfg, np.zeros(cfg.n),
                stop=lambda state, err: err <= LASSO_TARGET, max_iters=cfg.max_iters,
                measure=lambda state: abs(problem.value(state.estimate) - f_star) / f_star,
            )
            records.append(RunRecord(variant=variant, seed=seed, status=trace.status,
                                     errors=trace.objectives))
    return RunReport(records)


MATCOMP_LAM = 1.0
# the constant-damping rate of each mode, which also names the modes
MATCOMP_R_CONSTANT = {"single": 0.1, "anneal": 0.5}
MATCOMP_STOP_TOL = 1e-10    # relative change of the estimate


@dataclass(frozen=True)
class MatCompConfig:
    # Desk default seeds are chosen so the box bounds derived from the
    # observed entries actually contain the ground truth (at 40x40 the
    # half-sigma cushion occasionally misses an unobserved extreme, which
    # makes exact completion infeasible and the optimum marginally higher
    # rank; the original study likewise verified its instances).
    n: int = 40
    m: int = 40
    rank: int = 3
    s: float = 0.5
    seeds: tuple[int, ...] = (0, 2, 3)
    max_iters: int = 50_000
    # the variant names are the same in both modes
    variants: tuple[str, ...] = tuple(
        _variant_table(MATCOMP_FAMILIES, MATCOMP_LAM, MATCOMP_R_CONSTANT["single"]))

    def instance(self, seed: int) -> MatCompInstance:
        return gen_matcomp(self.n, self.m, self.rank, self.s, seed=seed)

    def paper_scale(self) -> MatCompConfig:
        """This configuration at the full study's size (slow; desk scale is
        the default)."""
        return replace(self, n=100, m=100, rank=5, s=0.4, seeds=tuple(range(10)))


def _estimate_rank(low_rank_estimate: Element) -> int:
    """Number of singular values above 1e-6 of the largest."""
    svals = np.linalg.svd(low_rank_estimate, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > 1e-6 * svals[0]))


def run_matcomp_suite(cfg: MatCompConfig, mode: str = "single") -> RunReport:
    """Run the completion study in single-weight or annealing mode.

    Every run starts from the observed matrix, stops on a 1e-10 relative
    change of the estimate and records ||estimate - M||_F / ||M||_F per
    iteration.  Annealing mode chains runs over the geometric weight
    schedule, warm-starting each stage from the previous solution, and
    reports summed iterations plus a per-stage log.  The reported rank
    (singular values above 1e-6 of the largest) is that of the final
    step's nuclear-prox output, ``state.last_half``, for both families.
    An empty list of variants or seeds, an unknown variant, a variant or
    seed listed twice, or a negative seed, raises ``ConfigurationError``,
    and a ``max_iters`` below 1 ``ParameterError``, before any instance is
    generated.
    """
    if mode not in MATCOMP_R_CONSTANT:
        raise ConfigurationError(f"mode must be 'single' or 'anneal', got {mode!r}")
    steps = _resolve(cfg, _variant_table(MATCOMP_FAMILIES, MATCOMP_LAM, MATCOMP_R_CONSTANT[mode]))
    records = []
    for seed in cfg.seeds:
        instance = cfg.instance(seed)
        if mode == "single":
            alphas = [matched_single_alpha(instance)]
        else:
            alphas = anneal_schedule(ANNEAL_DELTA * norm(instance.observed))
        for variant, family, step_cfg in steps:
            records.append(_matcomp_run(instance, family, variant, alphas, step_cfg, cfg))
    return RunReport(records)


def _matcomp_run(instance, family, variant, alphas, step_cfg, cfg) -> RunRecord:
    x0 = instance.observed
    series = []
    stages = []
    status = CONVERGED
    for j, alpha in enumerate(alphas):
        state, trace = run(
            family, matcomp_problem(instance, alpha), step_cfg, x0,
            stop=stop_on_estimate_change(MATCOMP_STOP_TOL), max_iters=cfg.max_iters,
            measure=lambda state: instance.relative_error(state.estimate),
        )
        # a warm-started stage's row 0 is measured at the previous stage's
        # last estimate, so it repeats that stage's last row
        series.append(trace.objectives[1 if series else 0:])
        if trace.status != CONVERGED:
            status = trace.status
        stages.append(StageLog(stage=j, alpha=alpha, iterations=trace.iterations,
                               final_error=float(trace.objectives[-1])))
        x0 = state.estimate     # warm start for the next weight
    # only an annealed run carries its stage log
    return RunRecord(variant, instance.seed, status, np.concatenate(series),
                     _estimate_rank(state.last_half), stages if len(alphas) > 1 else None)
