import math
from dataclasses import replace

import numpy as np
import pytest

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
    inst = gen_lasso(40, 200, sparsity=0.95, seed=3)
    np.testing.assert_allclose(np.linalg.norm(inst.A, axis=0), 1.0, atol=1e-12)
    assert np.count_nonzero(inst.x_true) == round(0.05 * 200)


def test_gen_lasso_full_scale_support_count():
    # 125 nonzero entries at the full study size
    inst = gen_lasso(500, 2500, sparsity=0.95, seed=0)
    assert np.count_nonzero(inst.x_true) == 125


def test_gen_lasso_noise_free_case():
    inst = gen_lasso(20, 60, noise_std=0.0, seed=1)
    np.testing.assert_array_equal(inst.b, inst.A @ inst.x_true)


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


def test_gen_lasso_validates_sparsity():
    with pytest.raises(ParameterError):
        gen_lasso(10, 20, sparsity=1.0)


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


def test_reference_solution_reports_best_on_cap():
    inst = gen_lasso(20, 50, seed=6)
    ref = reference_solution(inst, tol=1e-16, max_iters=50)
    assert not ref.converged
    assert ref.iterations == 50
    assert math.isfinite(ref.residual)


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


def test_gen_matcomp_validates():
    with pytest.raises(ParameterError):
        gen_matcomp(5, 5, rank=6)
    with pytest.raises(ParameterError):
        gen_matcomp(5, 5, rank=2, s=0.0)


# ---------------------------------------------------------------------------
# annealing schedule


def test_anneal_schedule_direct():
    assert anneal_schedule(0.25, 16.0, 1.0) == [16.0, 4.0, 1.0]


def test_anneal_schedule_immediate_clip():
    assert anneal_schedule(0.25, 0.5, 1.0) == [1.0]


def test_anneal_schedule_length_by_enumeration():
    seq = anneal_schedule(0.25, 1.0, 1e-8)
    # direct enumeration: 0.25^13 = 1.49e-8 > 1e-8 >= 0.25^14, then the clip
    expected = [0.25 ** j for j in range(14)] + [1e-8]
    assert len(seq) == 15
    np.testing.assert_allclose(seq, expected, rtol=1e-12)


def test_anneal_schedule_validates():
    with pytest.raises(ParameterError):
        anneal_schedule(1.0, 4.0, 1.0)
    with pytest.raises(ParameterError):
        anneal_schedule(0.5, 4.0, 0.0)


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
        assert len(rec.errors) == rec.iterations + 1
        assert rec.final_error <= SMALL_LASSO.target


def test_lasso_final_objectives_respect_reference_floor():
    # the reference value is a certified lower envelope up to oracle
    # tolerance: no variant's final objective may undercut it
    from proxflow.solvers import StepConfig, run, stop_on_residual
    from proxflow.damping import ConstantDamping

    inst = gen_lasso(25, 80, seed=1)
    ref = reference_solution(inst, tol=1e-12)
    for family in ("admm", "dr", "fb", "tseng"):
        problem = experiments.lasso_problem(inst, family)
        for schedule in (None, ConstantDamping(0.5)):
            state, trace = run(family, problem, StepConfig(lam=0.1, schedule=schedule),
                               np.zeros(80), stop=stop_on_residual(1e-10),
                               max_iters=100_000)
            assert problem.value(state.estimate) >= ref.value - 1e-9


def test_lasso_suite_acceleration_helps_on_smoke_config():
    report = run_lasso_suite(SMALL_LASSO)
    assert report.mean_iterations("fb-constant") < report.mean_iterations("fb")
    assert report.mean_iterations("admm-constant") < report.mean_iterations("admm")


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
    for rec in report.records:
        assert rec.status == "converged"
        assert rec.rank == 2
        assert len(rec.errors) == rec.iterations + 1
        assert rec.stages is None


def test_matcomp_suite_anneal_improves_error():
    single = run_matcomp_suite(SMALL_MATCOMP, mode="single")
    anneal = run_matcomp_suite(SMALL_MATCOMP, mode="anneal")
    for s, a in zip(single.records, anneal.records):
        assert a.final_error < s.final_error
        assert a.stages is not None
        # stage handoffs never increase the stage-final error
        finals = [st.final_error for st in a.stages]
        assert all(f2 <= f1 * (1 + 1e-9) for f1, f2 in zip(finals, finals[1:]))


def test_matcomp_box_feasible_after_g_prox():
    inst = gen_matcomp(20, 20, rank=2, s=0.5, seed=0)
    alpha = matched_single_alpha(inst)
    problem = experiments.matcomp_problem(inst, alpha)
    from proxflow.solvers import StepConfig, run

    feasible = []

    def check(state):
        feasible.append(bool(np.all(state.estimate >= inst.lo)
                             and np.all(state.estimate <= inst.hi)))

    run("dy", problem, StepConfig(lam=1.0), inst.observed,
        callback=check, max_iters=50, record_objective=False)
    assert all(feasible)


def test_matcomp_suite_rejects_unknown_mode():
    with pytest.raises(Exception):
        run_matcomp_suite(SMALL_MATCOMP, mode="warp")


def test_suites_reject_unknown_variants():
    from proxflow.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        run_lasso_suite(replace(SMALL_LASSO, variants=("fb", "sor")))
    with pytest.raises(ConfigurationError):
        run_matcomp_suite(replace(SMALL_MATCOMP, variants=("dy-constant-x",)))
