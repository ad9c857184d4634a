import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxflow import cli


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# proxflow-")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_solve_smoke_writes_trace(tmp_path, capsys):
    code = cli.main([
        "solve", "--method", "dy", "--damping", "constant", "--r", "0.5",
        "--lambda", "0.1", "--instance", "lasso-desk", "--seed", "7",
        "--tol", "1e-8", "--outdir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status=converged" in out
    schema, header, rows = read_csv(tmp_path / "solve-lasso-desk-dy-constant-seed7.csv")
    assert schema == "# proxflow-trace-v1"
    assert header == ["k", "objective", "residual", "time_s"]
    assert int(rows[0][0]) == 0 and len(rows) >= 2


def test_solve_damping_none_reproduces_classical_trace(tmp_path):
    cli.main(["solve", "--method", "fb", "--damping", "none", "--lambda", "0.1",
              "--instance", "lasso-desk", "--tol", "1e-6",
              "--max-iters", "20000", "--outdir", str(tmp_path)])
    _, _, rows = read_csv(tmp_path / "solve-lasso-desk-fb-none-seed0.csv")
    # independent classical proximal-gradient trace on the same instance
    from proxflow import experiments, prox

    inst = experiments.gen_lasso(50, 250, seed=0)
    x = np.zeros(250)
    for k in range(1, len(rows)):
        x = prox.soft_threshold(x - 0.1 * (inst.A.T @ (inst.A @ x - inst.b)),
                                0.1 * inst.alpha)
        assert float(rows[k][1]) == pytest.approx(inst.objective(x), rel=1e-12)


def test_solve_combined_damping_selectable(tmp_path):
    code = cli.main(["solve", "--method", "dy", "--damping", "combined",
                     "--r1", "2.0", "--r2", "0.4", "--lambda", "0.1",
                     "--instance", "quad-desk", "--tol", "1e-10",
                     "--outdir", str(tmp_path)])
    assert code == 0


def test_solve_combined_damping_requires_both_rates(capsys):
    code = cli.main(["solve", "--method", "dy", "--damping", "combined",
                     "--r1", "2.0", "--lambda", "0.1", "--instance", "quad-desk"])
    assert code == 1


def test_solve_momentum_zero_at_every_k_exits_one_before_any_work(tmp_path, monkeypatch,
                                                                  capsys):
    # r2*h = 5*sqrt(0.1) = 1.58 > 1: refused before the instance is generated
    work = []
    monkeypatch.setattr(cli, "_solve_instance", lambda args: work.append(args))
    code = cli.main(["solve", "--instance", "quad-desk", "--method", "dy",
                     "--damping", "constant", "--r", "5", "--lambda", "0.1",
                     "--outdir", str(tmp_path)])
    assert code == 1
    assert not work and list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out == "" and "r2*h = 1.58 > 1" in err


_QUAD_FB = ["solve", "--instance", "quad-desk", "--method", "fb"]
_LASSO_FB = ["solve", "--instance", "lasso-desk", "--method", "fb"]
_SEED_NEGATIVE = "seed -1 is negative; seeds must be >= 0"


@pytest.mark.parametrize("argv,name", [
    (_QUAD_FB + ["--lambda", "nan"], "lam"),
    (_QUAD_FB + ["--lambda", "inf"], "lam"),
    (_QUAD_FB + ["--lambda", "0.1", "--damping", "decaying", "--r", "inf"],
     "decaying damping r"),
    (_QUAD_FB + ["--lambda", "0.1", "--damping", "constant", "--r", "nan"],
     "constant damping r"),
    (_QUAD_FB + ["--lambda", "0.1", "--damping", "combined", "--r1", "nan", "--r2", "0.5"],
     "combined damping r1"),
    (_QUAD_FB + ["--lambda", "0.1", "--tol", "nan"], "tol"),
    # the suites' seed rule, on an instance that draws from the seed and on
    # one that draws nothing (and would name its CSV after the seed)
    (_LASSO_FB + ["--lambda", "0.1", "--seed", "-1"], _SEED_NEGATIVE),
    (_QUAD_FB + ["--lambda", "0.1", "--seed", "-1"], _SEED_NEGATIVE),
    (["order-check", "--method", "fb", "--damping", "constant", "--r", "nan"],
     "constant damping r"),
    (["lasso", "--seeds", ","], "--seeds"),
    (["lasso", "--variants", ","], "variants must list at least one variant"),
    (["lasso", "--variants", ""], "variants must list at least one variant"),
], ids=["lambda-nan", "lambda-inf", "decaying-r-inf", "constant-r-nan", "combined-r1-nan",
        "tol-nan", "lasso-seed-negative", "quad-seed-negative", "order-check-r-nan",
        "lasso-no-seeds", "lasso-no-variants", "lasso-blank-variants"])
def test_non_finite_or_empty_parameter_exits_one_before_any_work(tmp_path, monkeypatch,
                                                                 capsys, argv, name):
    from proxflow import experiments, odelab

    work = []
    for owner, attr in ((cli, "_solve_instance"), (cli, "run"),
                        (odelab, "local_error_order"), (experiments, "run_lasso_suite")):
        monkeypatch.setattr(owner, attr, lambda *args, **kwargs: work.append(args))
    code = cli.main(argv + ["--outdir", str(tmp_path)])
    assert code == 1
    assert not work and list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out == "" and name in err


def test_solve_max_iters_below_one_exits_one_before_the_instance_is_built(tmp_path, monkeypatch,
                                                                         capsys):
    from proxflow import experiments

    work = []
    monkeypatch.setattr(experiments, "gen_lasso", lambda *args, **kw: work.append(args))
    code = cli.main(["solve", "--instance", "lasso-full", "--method", "fb", "--lambda", "0.1",
                     "--max-iters", "0", "--outdir", str(tmp_path)])
    assert code == 1
    assert not work and list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out == "" and "max_iters must be finite and >= 1, got 0" in err


def test_solve_missing_lambda_exits_one(capsys):
    code = cli.main(["solve", "--method", "dy", "--instance", "lasso-desk"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_solve_max_iters_exit_code(tmp_path):
    code = cli.main(["solve", "--method", "dr", "--damping", "none",
                     "--lambda", "0.1", "--instance", "lasso-desk",
                     "--tol", "1e-14", "--max-iters", "5",
                     "--outdir", str(tmp_path)])
    assert code == 2


def test_solve_diverged_exit_code(tmp_path, capsys):
    # seed 0 lies just above the forward-backward-forward stability bound
    # at this step size, so the run blows up and reports as much
    code = cli.main(["solve", "--method", "tseng", "--damping", "none",
                     "--lambda", "0.1", "--instance", "lasso-desk",
                     "--seed", "0", "--outdir", str(tmp_path)])
    assert code == 3
    assert "status=diverged" in capsys.readouterr().out


def test_solve_numerical_error_exit_code(tmp_path, monkeypatch, capsys):
    from proxflow import prox

    # a quadratic that is not positive semidefinite has no Cholesky factor
    bad = prox.Quadratic(np.diag([-5.0, 1.0]))
    monkeypatch.setattr(cli, "_quadratic_triple", lambda: (bad, bad, bad))
    code = cli.main(["solve", "--method", "dr", "--damping", "none",
                     "--lambda", "1.0", "--instance", "quad-desk",
                     "--outdir", str(tmp_path)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_lasso_unconverged_reference_raises_and_exits_3(tmp_path, monkeypatch, capsys):
    from proxflow import experiments
    from proxflow.errors import NumericalError

    def unconverged(instance, tol=1e-10, max_iters=10**6):
        return experiments.ReferenceSolution(
            x=np.zeros(instance.A.shape[1]), value=1.0, residual=3e-7,
            iterations=17, converged=False)

    monkeypatch.setattr(experiments, "reference_solution", unconverged)
    message = (r"reference solution for seed 4 did not converge: residual 3\.000e-07 "
               r"after 17 iterations, tolerance 1\.000e-12")
    with pytest.raises(NumericalError, match=message):
        experiments.run_lasso_suite(experiments.LassoConfig(seeds=(4,)))
    code = cli.main(["lasso", "--seeds", "4", "--variants", "fb",
                     "--outdir", str(tmp_path)])
    assert code == 3
    assert "reference solution for seed 4 did not converge" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("method,damping,r", [
    ("admm", "constant", "1.0"),
    ("fb", "none", None),
    ("tseng", "decaying", "3"),
    ("dy", "constant", "15"),   # r*h = 1.5 at --h-max, but the fit keeps h <= 0.1/sqrt(L)
])
def test_order_check_slope_near_two(tmp_path, capsys, method, damping, r):
    argv = ["order-check", "--method", method, "--damping", damping,
            "--outdir", str(tmp_path)]
    if r is not None:
        argv += ["--r", r]
    code = cli.main(argv)
    assert code == 0
    out = capsys.readouterr().out
    slope = float(out.split("slope=")[1].split()[0])
    assert 1.8 <= slope <= 2.2
    schema, header, rows = read_csv(tmp_path / f"order-{method}-{damping}.csv")
    assert schema == "# proxflow-order-v1"
    assert header == ["h", "error"]
    assert len(rows) >= 3


@pytest.mark.parametrize("flags,reason", [
    (["--points", "0"], "--points: an order fit needs at least 3 points, got 0"),
    (["--points", "1"], "--points: an order fit needs at least 3 points, got 1"),
    (["--points", "2"], "--points: an order fit needs at least 3 points, got 2"),
    (["--points", "-3"], "--points: an order fit needs at least 3 points, got -3"),
    (["--h-min", "0.01", "--h-max", "0.02"], "--h-min and --h-max: an order fit needs "
     "steps spanning at least 1.5 decades, got 0.01 to 0.02"),
    (["--h-min", "0.02", "--h-max", "0.01"], "--h-min and --h-max: an order fit needs "
     "steps spanning at least 1.5 decades, got 0.01 to 0.02"),
], ids=["points-0", "points-1", "points-2", "points-minus-3", "range-0.3-decades",
        "range-reversed"])
def test_order_check_degenerate_grid_exits_one_before_any_work(tmp_path, monkeypatch, capsys,
                                                               flags, reason):
    from proxflow import odelab

    work = []
    monkeypatch.setattr(odelab, "local_error_order", lambda *args, **kw: work.append(args))
    code = cli.main(["order-check", "--method", "fb", *flags, "--outdir", str(tmp_path)])
    assert code == 1
    assert not work and list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out == "" and err == f"proxflow: error: {reason}\n"


def test_order_check_momentum_zero_at_a_fitted_h_exits_three(tmp_path, capsys):
    # r*h = 20 * 0.0518 = 1.04 > 1 at the largest h the fit keeps
    code = cli.main(["order-check", "--method", "dy", "--damping", "constant", "--r", "20",
                     "--outdir", str(tmp_path)])
    assert code == 3
    assert "order fit failed: damping r2*h = 1.04 > 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_order_check_step_whose_square_underflows_exits_three(tmp_path, capsys):
    # h = 1e-170 passes the flag check, but lam = h^2 underflows to 0
    code = cli.main(["order-check", "--method", "dy", "--damping", "constant", "--r", "1",
                     "--h-max", "1e-170", "--outdir", str(tmp_path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "order fit failed: h = 1e-170 is too small" in err
    assert "lam" not in err
    assert not list(tmp_path.iterdir())


def test_order_check_zero_one_step_error_exits_three(tmp_path, capsys):
    # the plain step at h = 1e-170 moves nothing measurable: its error is 0,
    # whose log10 would make the slope nan
    code = cli.main(["order-check", "--method", "fb", "--damping", "none",
                     "--h-max", "1e-170", "--outdir", str(tmp_path)])
    assert code == 3
    assert "order fit failed: one-step error at h = 1e-170 is 0.0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag,value", [
    ("--h-min", "0"), ("--h-min", "-1"), ("--h-max", "0"), ("--h-max", "inf"),
    ("--h-min", "nan"),
])
def test_order_check_rejects_bad_step_range(tmp_path, capsys, flag, value):
    # named before the fit, not as log10's "math domain error"
    code = cli.main(["order-check", "--method", "dy", flag, value,
                     "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert flag in err and "must be finite and > 0" in err
    assert not list(tmp_path.iterdir())


def test_lasso_paper_scale_flag_accepted(tmp_path):
    # full-size study scale, narrowed to one variant/seed to stay quick
    code = cli.main(["lasso", "--paper-scale", "--seeds", "1",
                     "--variants", "fb-constant", "--outdir", str(tmp_path)])
    assert code == 0
    _, _, rows = read_csv(tmp_path / "lasso-fb-constant-seed1.csv")
    assert float(rows[-1][1]) <= 1e-6


def test_rates_writes_summary(tmp_path, monkeypatch, capsys):
    from proxflow import odelab

    # the two cheap cases; the 120k-step quartic is fitted by acceptance
    # criterion 5 and test_odelab::test_rate_case_in_band
    cases = {name: case for name, case in odelab.rate_cases().items()
             if name != "accelerated-decaying-convex"}
    built = []
    monkeypatch.setattr(odelab, "rate_cases", lambda: built.append(1) or cases)
    code = cli.main(["rates", "--outdir", str(tmp_path)])
    assert code == 0
    assert len(built) == 1      # each case fits itself; none is looked up again
    schema, header, rows = read_csv(tmp_path / "rates.csv")
    assert schema == "# proxflow-rates-v1"
    assert [r[0] for r in rows] == ["gradient-flow-strongly-convex",
                                    "accelerated-constant-strongly-convex"]


def test_rates_out_of_band_exits_2(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from proxflow import odelab

    # keep only the cheap case, with a band its fit (about 1.0) misses
    case = odelab.rate_cases()["gradient-flow-strongly-convex"]
    monkeypatch.setattr(odelab, "rate_cases", lambda: {
        "gradient-flow-strongly-convex": replace(case, band=lambda pred, fit: 2.0 <= fit <= 3.0)})
    code = cli.main(["rates", "--outdir", str(tmp_path)])
    assert code == 2
    _, _, rows = read_csv(tmp_path / "rates.csv")
    assert [r[0] for r in rows] == ["gradient-flow-strongly-convex"]


def test_lasso_subcommand_writes_per_run_and_aggregate(tmp_path):
    code = cli.main(["lasso", "--desk", "--seeds", "1",
                     "--variants", "fb,fb-constant", "--outdir", str(tmp_path)])
    assert code == 0
    schema, header, rows = read_csv(tmp_path / "lasso-aggregate.csv")
    assert schema == "# proxflow-aggregate-v1"
    assert header == ["variant", "mean_iters", "std_iters",
                      "mean_final_error", "std_final_error"]
    assert {r[0] for r in rows} == {"fb", "fb-constant"}
    for name in ("lasso-fb-seed1.csv", "lasso-fb-constant-seed1.csv"):
        schema, header, series = read_csv(tmp_path / name)
        assert schema == "# proxflow-series-v1"
        assert float(series[-1][1]) <= 1e-6


def test_matcomp_subcommand_anneal_writes_stage_log(tmp_path):
    code = cli.main(["matcomp", "--anneal", "--seeds", "0",
                     "--variants", "dy-constant", "--outdir", str(tmp_path)])
    assert code == 0
    schema, header, rows = read_csv(tmp_path / "matcomp-anneal-stages.csv")
    assert schema == "# proxflow-stages-v1"
    assert header == ["variant", "seed", "stage", "alpha", "iterations", "final_error"]
    alphas = [float(r[3]) for r in rows]
    assert alphas == sorted(alphas, reverse=True)
    assert alphas[-1] == pytest.approx(1e-8)


def test_report_writes_stages_exactly_when_the_records_carry_them(tmp_path, capsys):
    from proxflow.experiments import RunRecord, RunReport, StageLog

    def report(stages):
        return RunReport([RunRecord("dy", 0, "converged", np.array([1.0, 0.5]),
                                    stages=stages)])

    assert cli._write_report(report([StageLog(0, 1.0, 1, 0.5)]), tmp_path, "logged") == 0
    _, header, rows = read_csv(tmp_path / "logged-stages.csv")
    assert header[:3] == ["variant", "seed", "stage"]
    assert rows == [["dy", "0", "0", "1", "1", "0.5"]]
    assert cli._write_report(report(None), tmp_path, "plain") == 0
    assert not (tmp_path / "plain-stages.csv").exists()


def test_outdir_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PROXFLOW_OUTDIR", str(tmp_path))
    code = cli.main(["order-check", "--method", "fb", "--damping", "none"])
    assert code == 0
    assert (tmp_path / "order-fb-none.csv").exists()


def test_rerun_overwrites_identically(tmp_path):
    argv = ["lasso", "--seeds", "1", "--variants", "fb-constant",
            "--outdir", str(tmp_path)]
    assert cli.main(argv) == 0
    first = (tmp_path / "lasso-fb-constant-seed1.csv").read_text()
    assert cli.main(argv) == 0
    second = (tmp_path / "lasso-fb-constant-seed1.csv").read_text()
    assert first == second


@pytest.mark.parametrize("case", ["outdir-under-file"])
def test_unreadable_config_or_unwritable_outdir_exits_one(tmp_path, capsys, case):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    code = cli.main(["lasso", "--seeds", "1", "--variants", "fb",
                     "--outdir", str(blocker / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("proxflow: error: ") and err.count("\n") == 1


def test_matcomp_single_mode_reports_through_the_suite_writer(tmp_path, capsys):
    code = cli.main(["matcomp", "--seeds", "0", "--variants", "dy,admm-constant",
                     "--outdir", str(tmp_path)])
    assert code == 0
    for variant in ("dy", "admm-constant"):
        schema, _, _ = read_csv(tmp_path / f"matcomp-single-{variant}-seed0.csv")
        assert schema == "# proxflow-series-v1"
    _, _, rows = read_csv(tmp_path / "matcomp-single-aggregate.csv")
    assert [r[0] for r in rows] == ["dy", "admm-constant"]
    assert not list(tmp_path.glob("*stages*"))
    *runs, last = capsys.readouterr().out.splitlines()
    assert len(runs) == 2 and all(" rank=" in line for line in runs)
    assert last == f"aggregate written to {tmp_path / 'matcomp-single-aggregate.csv'}"

    assert cli.main(["lasso", "--seeds", "1", "--variants", "fb",
                     "--outdir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "fb seed=1: iters=" in out and "rank=" not in out


def test_unwritable_outdir_fails_before_any_solver_work(tmp_path, monkeypatch, capsys):
    from proxflow import experiments

    ran = []
    monkeypatch.setattr(experiments, "run_lasso_suite", lambda cfg: ran.append(cfg))
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    code = cli.main(["lasso", "--seeds", "1", "--variants", "fb",
                     "--outdir", str(blocker / "out")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and not ran
    assert err.startswith("proxflow: error: ") and err.count("\n") == 1


def test_empty_seed_list_gives_its_reason_from_flag_and_config(tmp_path, capsys):
    for seeds, reason in ((",", "seeds must list at least one seed"),
                          ("0,one", "seed 'one' is not an integer")):
        assert cli.main(["lasso", "--seeds", seeds, "--outdir", str(tmp_path)]) == 1
        assert reason in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_variants_and_seeds_read_one_comma_list_from_flag_and_config(tmp_path, capsys):
    # each entry is stripped, in both lists
    assert cli.main(["lasso", "--variants", "fb, fb-constant", "--seeds", "1, 3",
                     "--max-iters", "5", "--outdir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert out.count("iters=5 status=max-iters") == 4
    for variant in ("fb", "fb-constant"):
        for seed in (1, 3):
            assert f"{variant} seed={seed}: " in out


def test_suite_max_iters_below_one_exits_one_before_any_work(tmp_path, capsys):
    assert cli.main(["lasso", "--max-iters", "0", "--seeds", "1", "--variants", "fb",
                     "--outdir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "proxflow: error: max_iters must be finite and >= 1, got 0\n"
    assert not list(tmp_path.glob("*.csv"))


def test_repeated_variant_or_seed_exits_one_from_flag_and_config(tmp_path, capsys):
    for command, key, value, reason in (
            ("lasso", "seeds", "1,1", "seed 1 is listed twice"),
            ("lasso", "variants", "fb,fb", "variant 'fb' is listed twice"),
            ("matcomp", "variants", "dy-none", "unknown variant 'dy-none'")):
        assert cli.main([command, "--" + key, value, "--outdir", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"proxflow: error: {reason}")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["lasso", "matcomp"])
def test_desk_with_paper_scale_exits_one_before_any_work(tmp_path, monkeypatch, capsys,
                                                         command):
    from proxflow import experiments

    work = []
    for attr in ("run_lasso_suite", "run_matcomp_suite"):
        monkeypatch.setattr(experiments, attr, lambda *args, **kw: work.append(args))
    argv = [command, "--desk", "--paper-scale", "--outdir", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == ("proxflow: error: --desk and --paper-scale ask for "
                                 "different scales; give one\n")
    assert not work and not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command", ["lasso", "matcomp"])
def test_suites_take_no_config_file(tmp_path, capsys, command):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seeds = 1\n")
    outdir = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--outdir", str(outdir)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --config" in err
    assert not outdir.exists()


SRC = str(Path(cli.__file__).resolve().parents[1])


def _python(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120, check=False)


@pytest.mark.parametrize("module", ["proxflow", "proxflow.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    proc = _python(["-m", module, "lasso", "--desk", "--paper-scale"], tmp_path)
    assert proc.returncode == 1
    assert proc.stdout == "" and "--desk and --paper-scale" in proc.stderr


def test_importing_the_package_loads_no_entry_point(tmp_path):
    proc = _python(["-c", "import sys, proxflow; print(sorted(sys.modules))"], tmp_path)
    assert proc.returncode == 0 and "'proxflow.space'" in proc.stdout
    assert "'proxflow.cli'" not in proc.stdout and "'proxflow.__main__'" not in proc.stdout
