"""The run-loop types: the five frozen values refuse assignment, the three
schedule-like values compare and hash by value, the run records by
identity, all six survive pickle and deepcopy, and ``import proxflow``
does not load ``dataclasses``."""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxflow import prox
from proxflow.damping import Damping, NoDamping
from proxflow.solvers import Problem, SolverState, StepConfig, Trace, initial_state

SRC = Path(__file__).resolve().parents[1] / "src"


def _trace():
    return Trace(objectives=np.array([1.0, 0.5]), residuals=np.array([math.nan, 0.25]),
                 times=np.array([0.0, 1e-3]), status="max-iters")


FROZEN = {
    "NoDamping": NoDamping,
    "Damping": lambda: Damping(2.0, 0.4),
    "StepConfig": lambda: StepConfig(lam=0.1, schedule=Damping(r1=3.0)),
    "Problem": lambda: Problem(g=prox.L1(0.1)),
    "SolverState": lambda: initial_state(np.array([1.0, -2.0])),
}
ALL = {**FROZEN, "Trace": _trace}


@pytest.mark.parametrize("make", FROZEN.values(), ids=list(FROZEN))
def test_frozen_types_refuse_assignment_and_deletion(make):
    obj = make()
    before = dict(vars(obj))
    for name in [*before, "accelerated", "extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert vars(obj).keys() == before.keys()
    assert all(getattr(obj, k) is v for k, v in before.items())


def test_trace_is_mutable():
    trace = _trace()
    trace.status = "converged"
    assert trace.status == "converged"


def test_reprs():
    assert repr(NoDamping()) == "NoDamping()"
    assert repr(Damping(r1=3.0, r2=0.0)) == "Damping(r1=3.0, r2=0.0)"
    assert (repr(StepConfig(lam=0.1, schedule=Damping(r1=3.0)))
            == "StepConfig(lam=0.1, schedule=Damping(r1=3.0, r2=0.0))")
    assert repr(StepConfig(0.5)) == "StepConfig(lam=0.5, schedule=NoDamping())"
    assert repr(Problem(g="g")) == "Problem(f=None, g='g', w=None)"
    assert (repr(SolverState(1.0, 0.0, 0.5, 0.0, 3))
            == "SolverState(x=1.0, x_prev=0.0, x_hat=0.5, c=0.0, k=3, last_half=None, "
               "estimate=None, residual=nan)")
    assert (repr(Trace(objectives=[1.0], residuals=[math.nan], times=[0.0], status="diverged"))
            == "Trace(objectives=[1.0], residuals=[nan], times=[0.0], status='diverged')")


def test_schedules_and_step_configs_compare_and_hash_by_value():
    pairs = [
        (NoDamping(), NoDamping()),
        (Damping(2.0, 0.4), Damping(r1=2.0, r2=0.4)),
        (StepConfig(lam=0.1), StepConfig(0.1, NoDamping())),
        (StepConfig(0.1, Damping(r1=3.0)), StepConfig(lam=0.1, schedule=Damping(3.0, 0.0))),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert Damping(r1=3.0) != Damping(r1=4.0)
    assert Damping(r1=3.0) != NoDamping()
    assert StepConfig(0.1) != StepConfig(0.2)
    assert StepConfig(0.1) != StepConfig(0.1, Damping(r1=3.0))
    assert Damping(r1=3.0, r2=0.0) != (3.0, 0.0)
    assert len({NoDamping(), NoDamping(), Damping(r1=3.0), Damping(3.0, 0.0)}) == 2


@pytest.mark.parametrize("make", [FROZEN["Problem"], FROZEN["SolverState"], _trace],
                         ids=["Problem", "SolverState", "Trace"])
def test_run_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a
    assert a != b
    assert hash(a) == object.__hash__(a)


@pytest.mark.parametrize("make", ALL.values(), ids=list(ALL))
def test_pickle_and_deepcopy_round_trip(make):
    obj = make()
    for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
        assert type(twin) is type(obj)
        assert twin is not obj
        if isinstance(obj, Problem):
            v = np.array([0.3, -0.05])
            assert twin.f is None and twin.w is None
            np.testing.assert_array_equal(twin.prox_g(v, 1.0), obj.prox_g(v, 1.0))
        else:
            np.testing.assert_equal(vars(twin), vars(obj))
        if isinstance(obj, (NoDamping, Damping, StepConfig)):
            assert twin == obj and hash(twin) == hash(obj)
        if not isinstance(obj, Trace):
            with pytest.raises(AttributeError):
                twin.extra = 1.0


def test_import_loads_no_dataclasses():
    code = "import sys, numpy, proxflow; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert proc.stdout.strip() == "False"
