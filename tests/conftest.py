import importlib.util
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from proxflow import prox
from proxflow.solvers import Problem

# property tests draw the same examples on every run and leave no example
# database behind; numerical examples may take longer than hypothesis's
# default per-example deadline
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
# hypothesis still caches constants it collects from the source; keep them
# out of the checkout, in a directory removed when the test process exits
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="proxflow-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def _benchmark_module(name, monkeypatch):
    """``perfbench/<name>.py``, loaded by path for one test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)     # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def benchmark_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded by path.  The benchmark keeps its
    own copies of some tables so it can also run a tree without them; a
    drift between a copy and the package must fail tier-1, not a benchmark
    run."""
    return _benchmark_module("workloads", monkeypatch)


@pytest.fixture
def benchmark_tracer(monkeypatch):
    """``perfbench/tracer.py``, loaded by path.  It patches package names
    given as strings, so a rename in the package must fail tier-1, not a
    traced benchmark run."""
    return _benchmark_module("tracer", monkeypatch)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_spd(n, rng, scale=1.0):
    """Random symmetric positive definite matrix with eigenvalues in (0, scale]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = scale * (0.2 + 0.8 * rng.random(n))
    return (q * eigs) @ q.T


def quadratic_triple(seed=7, n=3, scale=0.4):
    """Strongly convex smooth triple (f, g, w) with modest total curvature."""
    rng = np.random.default_rng(seed)
    f = prox.Quadratic(make_spd(n, rng, scale), 0.5 * rng.standard_normal(n))
    g = prox.Quadratic(make_spd(n, rng, scale), 0.5 * rng.standard_normal(n))
    w = prox.Quadratic(make_spd(n, rng, scale), 0.5 * rng.standard_normal(n))
    return f, g, w


def quadratic_problem(seed=7, n=3, scale=0.4):
    f, g, w = quadratic_triple(seed, n, scale)
    return Problem(f=f, g=g, w=w)


def centered_quadratic_problem(seed=11, n=3, scale=0.4):
    """All three terms minimized at the origin (q = 0), so the total
    minimizer is a common stationary point of every term."""
    rng = np.random.default_rng(seed)
    f = prox.Quadratic(make_spd(n, rng, scale))
    g = prox.Quadratic(make_spd(n, rng, scale))
    w = prox.Quadratic(make_spd(n, rng, scale))
    return Problem(f=f, g=g, w=w)
