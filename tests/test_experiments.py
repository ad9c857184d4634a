import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from proxflow import experiments, prox, space
from proxflow.errors import ParameterError
from proxflow.experiments import (
    LassoConfig,
    LassoInstance,
    MatCompConfig,
    alpha_max,
    anneal_schedule,
    gen_lasso,
    gen_matcomp,
    matched_single_alpha,
    reference_solution,
    run_lasso_suite,
    run_matcomp_suite,
)


# ---------------------------------------------------------------------------
# instance generation


def test_gen_lasso_unit_columns_and_support_count():
    inst = gen_lasso(40, 200, seed=3)
    np.testing.assert_allclose(np.linalg.norm(inst.A, axis=0), 1.0, atol=1e-12)
    assert np.count_nonzero(inst.x_true) == round(0.05 * 200)


def test_gen_lasso_full_scale_support_count():
    # 125 nonzero entries at the full study size
    inst = gen_lasso(500, 2500, seed=0)
    assert np.count_nonzero(inst.x_true) == 125


def test_gen_lasso_deterministic():
    a = gen_lasso(25, 70, seed=9)
    b = gen_lasso(25, 70, seed=9)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(a.x_true, b.x_true)
    assert a.alpha == b.alpha


@pytest.mark.parametrize("m,n,seed", [(50, 250, 1), (50, 250, 3), (50, 250, 4),
                                      (500, 2500, 0)])
def test_gen_lasso_design_matches_norm_division(m, n, seed):
    # the row-by-row column norms give np.linalg.norm's bits, so instances
    # (and every iteration count and error built on them) stay as they were
    A0 = np.random.default_rng(seed).standard_normal((m, n))
    A = gen_lasso(m, n, seed=seed).A
    assert np.array_equal(A, A0 / np.linalg.norm(A0, axis=0))
    np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# alpha_max and the reference oracle


def test_alpha_max_zero_signal():
    assert alpha_max(np.eye(3), np.zeros(3)) == 0.0


def test_alpha_max_direct():
    assert alpha_max(np.eye(3), np.array([1.0, -3.0, 2.0])) == 3.0


def test_alpha_above_threshold_gives_zero_solution():
    base = gen_lasso(20, 50, seed=4)
    amax = alpha_max(base.A, base.b)
    inst = LassoInstance(A=base.A, b=base.b, x_true=base.x_true,
                         alpha=1.01 * amax, seed=4)
    ref = reference_solution(inst, tol=1e-12)
    np.testing.assert_array_equal(ref.x, np.zeros(50))


def test_reference_solution_scalar_closed_form():
    # A = (1), b = (2), alpha = 0.5: soft threshold of the normal-equation
    # solution gives 1.5
    inst = LassoInstance(A=np.array([[1.0]]), b=np.array([2.0]),
                         x_true=np.array([2.0]), alpha=0.5, seed=0)
    ref = reference_solution(inst, tol=1e-14)
    assert ref.x[0] == pytest.approx(1.5, abs=1e-10)
    assert ref.converged


def test_reference_solution_dual_implementation_agreement():
    # independent proximal-gradient loop with a different step size
    inst = gen_lasso(30, 90, seed=5)
    ref = reference_solution(inst, tol=1e-13)
    L = prox.gram_spectral_norm(inst.A)
    lam = 0.3 / L
    x = np.zeros(90)
    for _ in range(200_000):
        x_new = prox.soft_threshold(x - lam * (inst.A.T @ (inst.A @ x - inst.b)),
                                    lam * inst.alpha)
        if space.norm(x - x_new) <= 1e-13:
            x = x_new
            break
        x = x_new
    assert abs(inst.objective(x) - ref.value) <= 1e-9


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_reference_solution_rejects_tol_not_above_zero(tol):
    # a NaN tol would never be reached: the driver would run to its cap
    with pytest.raises(ParameterError, match="tol must be finite and > 0"):
        reference_solution(gen_lasso(20, 50, seed=6), tol=tol, max_iters=200)


def test_reference_solution_reports_best_on_cap():
    # this instance converges, by a polish, at iteration 21
    inst = gen_lasso(20, 50, seed=6)
    ref = reference_solution(inst, tol=1e-16, max_iters=10)
    assert not ref.converged
    assert ref.iterations == 10
    assert math.isfinite(ref.residual)


def kkt_violation(inst: LassoInstance, x) -> float:
    """Largest violation of the lasso optimality conditions at ``x``:
    g_i = -alpha*sign(x_i) on the support and |g_i| <= alpha off it,
    where g = A^T(Ax - b)."""
    g = inst.A.T @ (inst.A @ x - inst.b)
    on = x != 0
    return max(float(np.max(np.abs(g[on] + inst.alpha * np.sign(x[on])), initial=0.0)),
               float(np.max(np.abs(g[~on]) - inst.alpha, initial=0.0)))


def test_reference_solution_desk_seeds_polished():
    # plain forward-backward at 0.5/L settles the signs by 825 + 450 + 1,100
    # = 2,375 steps on these instances (and alone needs 10,036 to reach tol);
    # accelerated forward-backward at 0.5/L, checked every 25 steps, by
    # 100 + 100 + 150 = 350; at 1/L, checked every step, by 55 + 48 + 65 = 168
    instances = [gen_lasso(50, 250, seed=s) for s in (1, 3, 4)]
    refs = [reference_solution(inst, tol=1e-12) for inst in instances]
    assert sum(ref.iterations for ref in refs) <= 200
    for inst, ref in zip(instances, refs):
        assert ref.converged and ref.residual <= 1e-12
        assert kkt_violation(inst, ref.x) <= 1e-10 * inst.alpha


def weighted_lasso(m, n, seed, ratio):
    """The instance ``gen_lasso(m, n, seed=seed)`` with its weight at ``ratio``
    times ``alpha_max``, in place of the generator's 0.1."""
    inst = gen_lasso(m, n, seed=seed)
    return replace(inst, alpha=ratio * alpha_max(inst.A, inst.b))


def test_reference_solution_desk_seeds_end_at_a_polish():
    # the returned point is the support polish on its own sign pattern, so
    # the path of the iteration leaves no trace in x, F* or the residual
    for seed in range(10):
        inst = gen_lasso(50, 250, seed=seed)
        ref = reference_solution(inst, tol=1e-12)
        assert np.array_equal(
            ref.x, experiments._support_polish(inst.A, inst.b, inst.alpha, np.sign(ref.x)))


def test_reference_solution_polishes_where_the_step_reaches_tol():
    # the step reaches tol 1e-8 at iteration 3, before any sign pattern can
    # have held for 3 iterations; the iterate itself has residual 1.6e-9
    inst = weighted_lasso(5, 5, 11, 0.998)
    ref = reference_solution(inst, tol=1e-8)
    assert ref.iterations == 3 and ref.residual <= 1e-15
    assert np.array_equal(
        ref.x, experiments._support_polish(inst.A, inst.b, inst.alpha, np.sign(ref.x)))


@st.composite
def small_lasso_instances(draw):
    m = draw(st.integers(5, 30))
    n = draw(st.integers(m, 4 * m))
    seed = draw(st.integers(0, 2**32 - 1))
    ratio = draw(st.floats(0.01, 1.2))
    return weighted_lasso(m, n, seed, ratio)


@given(small_lasso_instances())
# 5x5, no planted signal (b is 1e-3 noise), alpha = 7.6e-4: accelerated
# forward-backward at 0.5/L reaches tol at step 21 with an iterate that
# violates the optimality conditions by 3.8e-9*alpha; only a polish meets
# them (here the one at step 4, after the sign pattern of step 1 held)
@example(weighted_lasso(5, 5, 0, 0.998))
def test_reference_solution_is_optimal_property(inst):
    ref = reference_solution(inst, tol=1e-12)
    assert ref.converged
    assert kkt_violation(inst, ref.x) <= 1e-9 * inst.alpha
    # an independent plain forward-backward loop at step 1/L never ends
    # below the reference objective
    lam = 1.0 / prox.gram_spectral_norm(inst.A)
    x = np.zeros(inst.A.shape[1])
    for _ in range(200_000):
        x_new = prox.soft_threshold(x - lam * (inst.A.T @ (inst.A @ x - inst.b)),
                                    lam * inst.alpha)
        done = space.norm(x - x_new) <= 1e-13
        x = x_new
        if done:
            break
    fb_value = inst.objective(x)
    assert ref.value <= fb_value + 1e-12 * abs(fb_value)


# ---------------------------------------------------------------------------
# matrix completion generation


def test_gen_matcomp_rank_by_construction():
    inst = gen_matcomp(100, 100, rank=5, s=0.4, seed=2)
    svals = np.linalg.svd(inst.M, compute_uv=False)
    assert svals[5] / svals[0] <= 1e-10
    assert inst.mask.sum() == math.floor(0.4 * 100 * 100)


def test_gen_matcomp_full_observation():
    inst = gen_matcomp(12, 10, rank=2, s=1.0, seed=3)
    assert inst.mask.all()
    assert inst.lo <= inst.M.min()
    assert inst.hi >= inst.M.max()


def test_gen_matcomp_deterministic():
    a = gen_matcomp(15, 14, rank=3, s=0.5, seed=8)
    b = gen_matcomp(15, 14, rank=3, s=0.5, seed=8)
    np.testing.assert_array_equal(a.M, b.M)
    np.testing.assert_array_equal(a.mask, b.mask)
    assert (a.lo, a.hi) == (b.lo, b.hi)


def test_matcomp_relative_error_measures_truth_once(monkeypatch):
    inst = gen_matcomp(15, 14, rank=3, s=0.5, seed=8)
    rng = np.random.default_rng(0)
    xs = [inst.M + rng.standard_normal(inst.M.shape) for _ in range(5)]
    expected = [space.norm(x - inst.M) / space.norm(inst.M) for x in xs]
    measured = []

    def counting_norm(x):
        measured.append(x)
        return space.norm(x)

    monkeypatch.setattr(experiments, "norm", counting_norm)
    assert [inst.relative_error(x) for x in xs] == expected
    assert len(measured) == len(xs) + 1


def test_gen_matcomp_validates():
    with pytest.raises(ParameterError):
        gen_matcomp(5, 5, rank=6)
    with pytest.raises(ParameterError):
        gen_matcomp(5, 5, rank=2, s=0.0)


# ---------------------------------------------------------------------------
# annealing schedule


def test_anneal_schedule_direct():
    bar = experiments.ANNEAL_ALPHA_BAR
    assert experiments.ANNEAL_DELTA == 0.25
    assert anneal_schedule(16.0 * bar) == [16.0 * bar, 4.0 * bar, bar]


def test_anneal_schedule_immediate_clip():
    bar = experiments.ANNEAL_ALPHA_BAR
    for alpha0 in (0.0, 0.5 * bar, bar):
        assert anneal_schedule(alpha0) == [bar]


def test_anneal_schedule_length_by_enumeration():
    seq = anneal_schedule(1.0)
    # direct enumeration: 0.25^13 = 1.49e-8 > 1e-8 >= 0.25^14, then the clip
    assert experiments.ANNEAL_ALPHA_BAR == 1e-8
    expected = [0.25 ** j for j in range(14)] + [1e-8]
    assert len(seq) == 15
    np.testing.assert_allclose(seq, expected, rtol=1e-12)


def test_anneal_schedule_validates():
    # an infinite or NaN start would never reach alpha_bar
    for alpha0 in (math.inf, math.nan, -1.0):
        with pytest.raises(ParameterError, match="^alpha0 must be finite and >= 0"):
            anneal_schedule(alpha0)


# ---------------------------------------------------------------------------
# suite behavior (small smoke configs; the full desk runs live in the
# acceptance suite)


SMALL_LASSO = replace(LassoConfig(), m=25, n=80, seeds=(1,), max_iters=50_000,
                      variants=("fb", "fb-constant", "admm", "admm-constant"))


def test_lasso_suite_smoke_and_trace_lengths():
    report = run_lasso_suite(SMALL_LASSO)
    assert {r.variant for r in report.records} == set(SMALL_LASSO.variants)
    for rec in report.records:
        assert rec.status == "converged"
        # the stop rule reads the measured error: it fires at the first row
        # at or below the target
        assert rec.final_error <= experiments.LASSO_TARGET < rec.errors[:-1].min()


def test_lasso_final_objectives_respect_reference_floor():
    # the reference value is a certified lower envelope up to oracle
    # tolerance: no variant's final objective may undercut it
    from proxflow.solvers import StepConfig, run, stop_on_residual
    from proxflow.damping import ConstantDamping, NoDamping

    inst = gen_lasso(25, 80, seed=1)
    ref = reference_solution(inst, tol=1e-12)
    for family in ("admm", "dr", "fb", "tseng"):
        problem = experiments.lasso_problem(inst, family)
        for schedule in (NoDamping(), ConstantDamping(0.5)):
            state, trace = run(family, problem, StepConfig(lam=0.1, schedule=schedule),
                               np.zeros(80), stop=stop_on_residual(1e-10),
                               max_iters=100_000)
            assert problem.value(state.estimate) >= ref.value - 1e-9


def test_lasso_suite_acceleration_helps_on_smoke_config():
    report = run_lasso_suite(SMALL_LASSO)
    assert report.mean_iterations("fb-constant") < report.mean_iterations("fb")
    assert report.mean_iterations("admm-constant") < report.mean_iterations("admm")


# `proxflow lasso --desk`'s and `proxflow matcomp --desk`'s runs, one run a
# row, final error last
DESK_LASSO_RUNS = Path(__file__).with_name("lasso_desk_runs.csv")
DESK_MATCOMP_RUNS = Path(__file__).with_name("matcomp_desk_runs.csv")


def assert_runs_match(report, table, header):
    """Each run of ``report`` against its row of ``table``: every column
    exactly but the final error, which is pinned to rtol 1e-6, room for
    another BLAS's last bits."""
    first, *rows = table.read_text(encoding="utf-8").splitlines()
    assert first == header
    *columns, _ = header.split(",")
    rows = [row.split(",") for row in rows]
    assert ([[str(getattr(r, c)) for c in columns] for r in report.records]
            == [row[:-1] for row in rows])
    np.testing.assert_allclose([r.final_error for r in report.records],
                               [float(row[-1]) for row in rows], rtol=1e-6, atol=0)


def test_desk_lasso_suite_matches_its_committed_runs():
    # pins each run, not only the orderings the acceptance criteria read: a
    # momentum index off by one moves a decaying run by a single iteration
    assert_runs_match(run_lasso_suite(LassoConfig()), DESK_LASSO_RUNS,
                      "variant,seed,iterations,status,final_error")


def test_desk_matcomp_suite_matches_its_committed_runs():
    # the single-weight completion study, its ranks included
    assert_runs_match(run_matcomp_suite(MatCompConfig()), DESK_MATCOMP_RUNS,
                      "variant,seed,iterations,status,rank,final_error")


def test_lasso_suite_deterministic():
    r1 = run_lasso_suite(SMALL_LASSO)
    r2 = run_lasso_suite(SMALL_LASSO)
    for a, b in zip(r1.records, r2.records):
        assert a.variant == b.variant and a.iterations == b.iterations
        np.testing.assert_array_equal(a.errors, b.errors)


# seed picked so the tiny instance is well posed for the scaled default
# weight (rank recovery at 20x20 is marginal for some draws)
SMALL_MATCOMP = replace(MatCompConfig(), n=20, m=20, rank=2, seeds=(3,),
                        variants=("dy", "dy-constant", "admm"), max_iters=20_000)


def test_matcomp_suite_single_mode_smoke():
    report = run_matcomp_suite(SMALL_MATCOMP, mode="single")
    inst = SMALL_MATCOMP.instance(SMALL_MATCOMP.seeds[0])
    for rec in report.records:
        assert rec.status == "converged"
        assert rec.rank == 2
        assert rec.errors[0] == inst.relative_error(inst.observed)
        assert rec.stages is None


def test_matcomp_rank_is_last_nuclear_prox_output():
    # desk seed 1: both families stop at the same final error with a rank-4
    # nuclear-prox output; a second shrinkage of ADMM's box output read 3
    cfg = replace(MatCompConfig(), seeds=(1,), variants=("dy", "admm"))
    report = run_matcomp_suite(cfg, mode="single")
    assert [rec.rank for rec in report.records] == [4, 4]


@pytest.fixture(scope="module")
def small_anneal():
    return run_matcomp_suite(SMALL_MATCOMP, mode="anneal")


def test_matcomp_suite_anneal_improves_error(small_anneal):
    single = run_matcomp_suite(SMALL_MATCOMP, mode="single")
    for s, a in zip(single.records, small_anneal.records):
        assert a.final_error < s.final_error
        assert a.stages is not None
        # stage handoffs never increase the stage-final error
        finals = [st.final_error for st in a.stages]
        assert all(f2 <= f1 * (1 + 1e-9) for f1, f2 in zip(finals, finals[1:]))


def test_matcomp_anneal_series_stitches_the_stages(small_anneal):
    # the stages' series are concatenated, each warm start's row 0 dropped:
    # stage j ends at row (iterations of stages 0..j) of the run's series
    for rec in small_anneal.records:
        assert len(rec.stages) > 1
        assert rec.iterations == sum(st.iterations for st in rec.stages)
        ends = np.cumsum([st.iterations for st in rec.stages])
        assert [st.final_error for st in rec.stages] == [rec.errors[k] for k in ends]


def test_matcomp_box_feasible_after_g_prox():
    inst = gen_matcomp(20, 20, rank=2, s=0.5, seed=0)
    alpha = matched_single_alpha(inst)
    problem = experiments.matcomp_problem(inst, alpha)
    from proxflow.solvers import StepConfig, run

    feasible = []

    def check(state):
        feasible.append(bool(np.all(state.estimate >= inst.lo)
                             and np.all(state.estimate <= inst.hi)))
        return 0.0

    run("dy", problem, StepConfig(lam=1.0), inst.observed, measure=check, max_iters=50)
    # row 0 is the observed matrix, whose unobserved zeros lie below lo;
    # every one of the 50 prox-g outputs after it is in the box
    assert len(feasible) == 51 and not feasible[0]
    assert all(feasible[1:])


def test_matcomp_suite_rejects_unknown_mode():
    with pytest.raises(Exception):
        run_matcomp_suite(SMALL_MATCOMP, mode="warp")


def test_default_variants_are_the_twelve_and_six_in_order():
    assert LassoConfig().variants == (
        "admm", "admm-decaying", "admm-constant", "dr", "dr-decaying", "dr-constant",
        "fb", "fb-decaying", "fb-constant", "tseng", "tseng-decaying", "tseng-constant")
    assert MatCompConfig().variants == (
        "dy", "dy-decaying", "dy-constant", "admm", "admm-decaying", "admm-constant")


def test_suite_defaults_match_the_benchmark_copies(benchmark_workloads):
    assert benchmark_workloads.LASSO_TARGET == experiments.LASSO_TARGET
    assert benchmark_workloads.MATCOMP_RANK == MatCompConfig().rank


def test_suites_reject_unknown_variants(monkeypatch):
    # every variant and seed is resolved before any work: a valid one listed
    # first is neither generated, solved nor given a reference solution.
    # Plain fb is named "fb" only, so "fb-none" is unknown; a variant or
    # seed listed twice would solve the same run twice, an empty list would
    # run nothing, and a negative seed would fail in numpy after the rest
    from proxflow.errors import ConfigurationError

    calls = []

    def spy(name, real):
        def record(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return record

    for name in ("run", "reference_solution", "gen_lasso", "gen_matcomp"):
        monkeypatch.setattr(experiments, name, spy(name, getattr(experiments, name)))
    for changes, message in (
            (dict(variants=("fb", "sor")), "unknown variant 'sor'"),
            (dict(variants=("fb", "fb-none")), "unknown variant 'fb-none'"),
            (dict(variants=("fb", "fb-")), "unknown variant 'fb-'"),
            (dict(variants=("fb", "fb-decaying", "fb")), "variant 'fb' is listed twice"),
            (dict(variants=("fb",), seeds=(1, 2, 1)), "seed 1 is listed twice"),
            (dict(variants=()), "variants must list at least one variant"),
            (dict(variants=("fb",), seeds=()), "seeds must list at least one seed"),
            (dict(variants=("fb",), seeds=(1, -1), max_iters=5),
             "seed -1 is negative; seeds must be >= 0")):
        with pytest.raises(ConfigurationError, match=message):
            run_lasso_suite(replace(SMALL_LASSO, **changes))
    for mode in ("single", "anneal"):
        for changes, message in (
                (dict(variants=("dy", "dy-constant-x")), "unknown variant 'dy-constant-x'"),
                (dict(variants=("dy", "dy-none")), "unknown variant 'dy-none'"),
                (dict(variants=("dy", "dy")), "variant 'dy' is listed twice"),
                (dict(variants=("dy",), seeds=(3, 3)), "seed 3 is listed twice"),
                (dict(variants=()), "variants must list at least one variant"),
                (dict(variants=("dy",), seeds=()), "seeds must list at least one seed"),
                (dict(variants=("dy",), seeds=(1, -1), max_iters=5),
                 "seed -1 is negative; seeds must be >= 0")):
            with pytest.raises(ConfigurationError, match=message):
                run_matcomp_suite(replace(SMALL_MATCOMP, **changes), mode=mode)
    # a step budget below 1 is refused by the rule run itself applies
    budget = "max_iters must be finite and >= 1, got 0"
    with pytest.raises(ParameterError, match=budget):
        run_lasso_suite(replace(SMALL_LASSO, variants=("fb",), seeds=(1,), max_iters=0))
    for mode in ("single", "anneal"):
        with pytest.raises(ParameterError, match=budget):
            run_matcomp_suite(replace(SMALL_MATCOMP, variants=("dy",), seeds=(0,),
                                      max_iters=0), mode=mode)
    assert calls == []

