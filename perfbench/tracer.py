"""Spans around proxflow's layers, installed from outside the package.

A wrapper is a plain function put in place of the original: on the class
for a method, and on every proxflow module that binds the name for a
function (``experiments``, ``odelab`` and ``cli`` import ``run`` or
``norm`` by name, so patching only ``solvers.run`` would miss them).  No
object is replaced by a proxy, so ``isinstance(schedule, NoDamping)`` and
``hasattr(term, "value")`` inside the program see the same objects as in
an untraced run.

Each span records its calls, its total time and the time of the spans
directly nested in it; self time is the difference.  Work the benchmark
itself does inside a run (computing the rank of a prox output) runs under
:meth:`Tracer.excluded`: it is counted in no layer's self time and is
subtracted from the measured wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
import weakref
from dataclasses import dataclass

import numpy as np

# Rank rule of the matcomp suite: singular values above 1e-6 of the largest.
RANK_REL_THRESHOLD = 1e-6

ORACLE_METHODS = ("prox", "grad", "value")


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    child_s: float = 0.0
    cpu_s: float = 0.0      # process CPU time, set-up spans only

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


def output_rank(x) -> int:
    svals = np.linalg.svd(x, compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_REL_THRESHOLD * svals[0]))


class Tracer:
    """Span statistics plus the patches that produce them.

    ``install_setup`` puts in the few wrappers every run needs (instance
    generation and the reference solution, which make up set-up time);
    ``install_layers`` adds one wrapper per public function or method of
    each layer and is undone by ``uninstall_layers``.
    """

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.excluded_s = 0.0
        self.references: list = []      # (instance, reference solution), for the F* check
        self._stack = [[0.0]]
        self._setup_patches: list = []
        self._layer_patches: list = []
        self._ls_seen = weakref.WeakKeyDictionary()

    # -- accounting -------------------------------------------------------

    def timed(self, name: str, fn, after=None, cpu=False):
        """Wrap ``fn`` in a span; ``after(seconds, result, args, kwargs)`` runs
        once the span is closed, so what it does is charged to the caller.
        With ``cpu`` the span also records process CPU time."""
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        cpu_clock = time.process_time if cpu else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            c0 = cpu_clock() if cpu_clock else 0.0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                if cpu_clock:
                    stats.cpu_s += cpu_clock() - c0
                stack.pop()
                stats.calls += 1
                stats.s += dt
                stats.child_s += frame[0]
                stack[-1][0] += dt
            if after is not None:
                after(dt, result, args, kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def excluded(self):
        """Benchmark work inside a run: charged to no layer, not to wall time."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.excluded_s += dt
            self._stack[-1][0] += dt

    def reset(self) -> None:
        """Zero every figure, keeping the names; called at the start of a round."""
        for stats in self.spans.values():
            stats.calls, stats.s, stats.child_s, stats.cpu_s = 0, 0.0, 0.0, 0.0
        for name in self.counters:
            self.counters[name] = 0.0
        self.samples.clear()
        self.references.clear()
        self.excluded_s = 0.0

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- patching ---------------------------------------------------------

    @staticmethod
    def _patch_function(patches, module, attr, wrapper):
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "proxflow":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    @staticmethod
    def _patch_method(patches, cls, attr, wrapper):
        patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    @staticmethod
    def _restore(patches):
        for owner, key, original in reversed(patches):
            setattr(owner, key, original)
        patches.clear()

    def install_setup(self):
        from proxflow import experiments

        def reference_done(dt, ref, args, kwargs):
            self.references.append((args[0] if args else kwargs["instance"], ref))
            self.count("experiments.reference_solution.iterations", ref.iterations)
            self.count("experiments.reference_solution.unconverged", not ref.converged)

        for name in ("iterations", "unconverged"):
            self.counters.setdefault(f"experiments.reference_solution.{name}", 0.0)
        self._patch_function(
            self._setup_patches, experiments, "reference_solution",
            self.timed("experiments.reference_solution", experiments.reference_solution,
                       reference_done, cpu=True))
        for attr in ("gen_lasso", "gen_matcomp"):
            self._patch_function(self._setup_patches, experiments, attr,
                                 self.timed("experiments.gen", getattr(experiments, attr),
                                            cpu=True))

    def install_layers(self):
        from proxflow import cli, csvio, damping, odelab, prox, solvers, space
        from proxflow import experiments

        patches = self._layer_patches
        fn = functools.partial(self._patch_function, patches)

        timed_run = self.timed("solvers.run", solvers.run)
        for key in ("stop", "callback"):
            self.spans.setdefault(f"solvers.{key}", SpanStats())

        def run(*args, **kwargs):
            # stop and callback are keyword-only in solvers.run
            for key in ("stop", "callback"):
                rule = kwargs.get(key)
                if rule is not None:
                    kwargs[key] = self.timed(f"solvers.{key}", rule)
            return timed_run(*args, **kwargs)

        fn(solvers, "run", functools.wraps(solvers.run)(run))

        def gamma_done(dt, value, args, kwargs):
            schedule = args[0]
            if value == 0.0 and schedule is not None and not isinstance(
                    schedule, damping.NoDamping):
                self.count("damping.gamma.clamped")

        self.counters.setdefault("damping.gamma.clamped", 0.0)
        fn(damping, "gamma", self.timed("damping.gamma", damping.gamma, gamma_done))
        fn(space, "norm", self.timed("space.norm", space.norm))

        def trajectory_done(dt, traj, args, kwargs):
            self.count("odelab.reference_trajectory.steps", len(traj.ts) - 1)

        self.counters.setdefault("odelab.reference_trajectory.steps", 0.0)
        fn(odelab, "reference_trajectory",
           self.timed("odelab.reference_trajectory", odelab.reference_trajectory,
                      trajectory_done))
        for attr in ("local_error_order", "continuous_rate_check"):
            fn(odelab, attr, self.timed(f"odelab.{attr}", getattr(odelab, attr)))

        def write_done(dt, result, args, kwargs):
            self.count("csvio.write.bytes", len(args[1].encode("utf-8")))

        self.counters.setdefault("csvio.write.bytes", 0.0)
        fn(csvio, "atomic_write_text",
           self.timed("csvio.write", csvio.atomic_write_text, write_done))
        fn(cli, "main", self.timed("cli.main", cli.main))

        self._patch_method(patches, experiments.MatCompInstance, "relative_error",
                           self.timed("experiments.relative_error",
                                      experiments.MatCompInstance.relative_error))

        hooks = {("LeastSquares", "prox"): self._least_squares_done,
                 ("Nuclear", "prox"): self._nuclear_done}
        for cls_name, cls in vars(prox).items():
            if not inspect.isclass(cls) or cls.__module__ != prox.__name__:
                continue
            for method in ORACLE_METHODS:
                if method in cls.__dict__:
                    self._patch_method(
                        patches, cls, method,
                        self.timed(f"prox.{cls_name}.{method}", cls.__dict__[method],
                                   hooks.get((cls_name, method))))

    def uninstall_layers(self):
        self._restore(self._layer_patches)

    def uninstall(self):
        self._restore(self._layer_patches)
        self._restore(self._setup_patches)

    # -- hooks ------------------------------------------------------------

    def _least_squares_done(self, dt, result, args, kwargs):
        oracle = args[0]
        lam = args[2] if len(args) > 2 else kwargs["lam"]
        seen = self._ls_seen.setdefault(oracle, set())
        if lam in seen:
            self.sample("prox.LeastSquares.prox.steady", dt)
        else:
            seen.add(lam)
            self.sample("prox.LeastSquares.prox.first_call", dt)

    def _nuclear_done(self, dt, result, args, kwargs):
        with self.excluded():
            rank = output_rank(result)
        self.count("prox.Nuclear.prox.rank_sum", rank)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the round since the last :meth:`reset`."""
        out: dict[str, float] = {}
        for name, st in self.spans.items():
            out[f"{name}.calls"] = float(st.calls)
            out[f"{name}.s"] = st.s
            out[f"{name}.self_s"] = st.self_s
        out.update(self.counters)
        first = self.samples.get("prox.LeastSquares.prox.first_call", [])
        steady = self.samples.get("prox.LeastSquares.prox.steady", [])
        out["prox.LeastSquares.prox.first_call_s"] = statistics.median(first) if first else 0.0
        out["prox.LeastSquares.prox.steady_us"] = (
            statistics.median(steady) * 1e6 if steady else 0.0)
        nuclear = self.spans.get("prox.Nuclear.prox", SpanStats())
        calls = nuclear.calls
        out["prox.Nuclear.prox.us_per_call"] = nuclear.s / calls * 1e6 if calls else 0.0
        out["prox.Nuclear.prox.out_rank_mean"] = (
            self.counters.get("prox.Nuclear.prox.rank_sum", 0.0) / calls if calls else 0.0)
        return out
