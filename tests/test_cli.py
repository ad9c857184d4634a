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


@pytest.mark.parametrize("points", ["0", "1", "2"])
def test_order_check_degenerate_fit_exits_three(tmp_path, capsys, points):
    code = cli.main(["order-check", "--method", "fb", "--damping", "none",
                     "--points", points, "--outdir", str(tmp_path)])
    assert code == 3
    assert "order fit failed" in capsys.readouterr().err


def test_order_check_momentum_zero_at_a_fitted_h_exits_three(tmp_path, capsys):
    # r*h = 20 * 0.0518 = 1.04 > 1 at the largest h the fit keeps
    code = cli.main(["order-check", "--method", "dy", "--damping", "constant", "--r", "20",
                     "--outdir", str(tmp_path)])
    assert code == 3
    assert "order fit failed: damping r2*h = 1.04 > 1" in capsys.readouterr().err
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


def test_rates_writes_summary(tmp_path, capsys):
    code = cli.main(["rates", "--outdir", str(tmp_path)])
    assert code == 0
    schema, header, rows = read_csv(tmp_path / "rates.csv")
    assert schema == "# proxflow-rates-v1"
    assert len(rows) == 3
    cases = {r[0] for r in rows}
    assert cases == {"gradient-flow-strongly-convex", "accelerated-decaying-convex",
                     "accelerated-constant-strongly-convex"}


def test_rates_out_of_band_exits_2(tmp_path, monkeypatch, capsys):
    from dataclasses import replace

    from proxflow import odelab

    # keep only the cheap case, with a band its fit (about 1.0) misses
    case = odelab.rate_cases()["gradient-flow-strongly-convex"]
    monkeypatch.setattr(odelab, "rate_cases", lambda: {
        "gradient-flow-strongly-convex": replace(case, band=(2.0, 3.0))})
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


def test_config_file_applies_and_flags_override(tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("# smoke config\nseeds = 1\nvariants = fb\n")
    outdir = tmp_path / "out"
    code = cli.main(["lasso", "--config", str(cfg), "--variants", "fb-constant",
                     "--outdir", str(outdir)])
    assert code == 0
    assert (outdir / "lasso-fb-constant-seed1.csv").exists()       # flag wins
    assert not (outdir / "lasso-fb-seed1.csv").exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seeds = 1\nwibble = 2\n")
    code = cli.main(["lasso", "--config", str(cfg)])
    assert code == 1
    assert "wibble" in capsys.readouterr().err


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


@pytest.mark.parametrize("case", ["missing-config", "config-is-directory", "outdir-under-file"])
def test_unreadable_config_or_unwritable_outdir_exits_one(tmp_path, capsys, case):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    extra = {
        "missing-config": ["--config", str(tmp_path / "missing.cfg")],
        "config-is-directory": ["--config", str(tmp_path)],
        "outdir-under-file": ["--outdir", str(blocker / "out")],
    }[case]
    code = cli.main(["lasso", "--seeds", "1", "--variants", "fb", *extra])
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


def test_config_values_are_typed_by_the_flag_table(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seeds = 1\nvariants = fb\nmax_iters = 7\n")
    assert cli.main(["lasso", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert "fb seed=1: iters=7 status=max-iters" in capsys.readouterr().out

    cfg.write_text("seeds = 0\nvariants = dy\nmax_iters = 20\nanneal = yes\n")
    assert cli.main(["matcomp", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    _, _, rows = read_csv(tmp_path / "matcomp-anneal-stages.csv")
    assert len(rows) > 1 and max(int(r[4]) for r in rows) == 20

    assert cli.main(["lasso", "--config", str(cfg), "--outdir", str(tmp_path)]) == 1
    assert "unknown config keys for lasso: ['anneal']" in capsys.readouterr().err


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


@pytest.mark.parametrize("line,key", [
    ("anneal = on", "anneal"),
    ("paper_scale = maybe", "paper_scale"),
    ("max_iters = ten", "max_iters"),
    ("seeds = 0,one", "seeds"),
])
def test_config_bad_value_names_key_and_file(tmp_path, capsys, line, key):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(f"variants = dy\n{line}\n")
    code = cli.main(["matcomp", "--config", str(cfg), "--outdir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"proxflow: error: {cfg}: bad {key} = ")
    assert not list(tmp_path.glob("*.csv"))


def test_config_booleans_accept_no(tmp_path, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("seeds = 0\nvariants = dy\nmax_iters = 5\nanneal = no\npaper_scale = 0\n")
    assert cli.main(["matcomp", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2
    assert (tmp_path / "matcomp-single-aggregate.csv").exists()
    assert not list(tmp_path.glob("*stages*"))
