"""A mutation check of the tier-1 suite: does some test fail when one line is wrong?

Copies the checkout (less ``.git`` and caches) into a temporary
directory once, then, for each entry of ``MUTANTS`` in turn, writes its
one-line change into the copy, runs the tier-1 suite there with
``pytest -x`` and puts the line back.  The checkout is never written,
and the tool's own tests are left out of the runs.
A mutant is *killed* when the suite fails (or runs past ``TIMEOUT_S``) and
*survives* when it passes.  An entry that carries an ``equivalent``
reason changes no result the suite can see, and is expected to survive.
Bytecode caches are off, so a mutant never runs from a stale ``.pyc``.

    python tools/mutants.py

It prints one line per mutant and a summary, and exits 1 if a mutant without a reason survives or one with a
reason is killed.  Each mutant costs up to one tier-1 run (about a
minute for a survivor).  Standard library only; pytest runs in a child
process.
"""

from __future__ import annotations

import contextlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600.0
# The tool's own tests check the table against the tree, which each mutant
# changes on purpose; they test no line of src/, so the runs leave them out.
_OWN_TESTS = "tests/test_mutants.py"
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 "*.egg-info", "*.pyc")


class Mutant(NamedTuple):
    """Replace the one occurrence of ``old`` in ``path`` (relative to the
    tree root) by ``new``; ``equivalent`` says why no output can change."""

    name: str
    path: str
    old: str
    new: str
    equivalent: str | None = None


_SOLVERS = "src/proxflow/solvers.py"
_DAMPING = "src/proxflow/damping.py"
_PROX = "src/proxflow/prox.py"
_ODELAB = "src/proxflow/odelab.py"
_EXPERIMENTS = "src/proxflow/experiments.py"

MUTANTS = (
    # the steps
    Mutant("admm-dual-sign", _SOLVERS, "c_next = c + (x_next - x_half) / lam",
           "c_next = c - (x_next - x_half) / lam"),
    Mutant("admm-dual-step-halved", _SOLVERS, "c_next = c + (x_next - x_half) / lam",
           "c_next = c + (x_next - x_half) / (2 * lam)"),
    Mutant("admm-residual", _SOLVERS,
           "residual=space.norm(x_next - x_half) + space.norm(x_next - state.x))",
           "residual=space.norm(x_next - x_half))"),
    Mutant("dy-no-reflection", _SOLVERS, "x_half = 2.0 * x_q - xh", "x_half = x_q"),
    Mutant("tseng-correction-sign", _SOLVERS,
           "x_next = x_half - lam * (problem.grad_w(x_half) - gw_hat)",
           "x_next = x_half + lam * (problem.grad_w(x_half) - gw_hat)"),
    Mutant("advance-reads-x-prev", _SOLVERS, "damping.extrapolate(x_next, state.x, g)",
           "damping.extrapolate(x_next, state.x_prev, g)"),
    Mutant("momentum-index", _SOLVERS, "g = damping.gamma(cfg.schedule, k1, cfg.h)",
           "g = damping.gamma(cfg.schedule, k1 + 1, cfg.h)"),
    # the run loop
    Mutant("divergence-lets-nan-through", _SOLVERS,
           "if not space.norm(state.x) <= DIVERGENCE_NORM:",
           "if space.norm(state.x) > DIVERGENCE_NORM:"),
    Mutant("row-residual-nan", _SOLVERS,
           "rows.append((value, state.residual, time.perf_counter() - start))",
           "rows.append((value, math.nan, time.perf_counter() - start))"),
    Mutant("row-0-after-first-step", _SOLVERS, "rows = [(measure(state), math.nan, 0.0)]",
           "rows = [(measure(step(state, problem, cfg)), math.nan, 0.0)]"),
    # damping
    Mutant("damping-law", _DAMPING, "(k / (k + self.r1) if self.r1 else 1.0)",
           "((k - 1) / (k + self.r1) if self.r1 else 1.0)"),
    Mutant("damping-clamp", _DAMPING, "- self.r2 * h, 0.0)", "- self.r2 * h, -1.0)"),
    Mutant("extrapolate-sign", _DAMPING, "return x + g * (x - x_prev)",
           "return x + g * (x_prev - x)"),
    # proxes
    Mutant("cholesky-shift", _PROX, "return a.T @ a, lam * shift", "return a.T @ a, shift"),
    Mutant("soft-threshold-sign", _PROX, "return np.sign(v) * np.maximum(",
           "return np.maximum("),
    Mutant("l1-weight", _PROX, 'soft_threshold(v, require(lam, "prox parameter") * self.weight)',
           'soft_threshold(v, require(lam, "prox parameter"))'),
    Mutant("nuclear-shrink-halved", _PROX, "(u * np.maximum(s - tau, 0.0)) @ vt",
           "(u * np.maximum(s - tau / 2, 0.0)) @ vt"),
    Mutant("box-upper-bound", _PROX, "np.clip(v, self.lo, self.hi)",
           "np.clip(v, self.lo, np.inf)"),
    Mutant("huber-outer-branch", _PROX, "outer = v - tau * np.sign(v)", "outer = v - tau"),
    Mutant("nuclear-shrink-unclamped", _PROX, "(u * np.maximum(s - tau, 0.0)) @ vt",
           "(u * (s - tau)) @ vt"),
    Mutant("least-squares-prox-drops-lam", _PROX, "(inverse @ (lam * (self.A @ v) + shift))",
           "(inverse @ ((self.A @ v) + shift))"),
    Mutant("quadratic-prox-drops-shift", _PROX, "return inverse @ (v + shift)",
           "return inverse @ v"),
    Mutant("masked-grad-ignores-mask", _PROX,
           "return np.where(self.mask, x, 0.0) - self.target", "return x - self.target"),
    Mutant("box-lower-bound", _PROX, "np.clip(v, self.lo, self.hi)",
           "np.clip(v, -np.inf, self.hi)"),
    # the oracles' shape checks, one each
    Mutant("least-squares-prox-shape-unchecked", _PROX, "_check_shape(v, self.A.shape[1:])",
           "pass"),
    Mutant("least-squares-grad-shape-unchecked", _PROX,
           '_check_shape(x, self.A.shape[1:], "x")', "pass"),
    Mutant("masked-value-shape-unchecked", _PROX, '_check_shape(x, self.target.shape, "x")',
           "pass"),
    Mutant("masked-grad-shape-unchecked", _PROX, '_check_shape(x, self.mask.shape, "x")',
           "pass"),
    Mutant("nuclear-prox-shape-unchecked", _PROX, "if np.ndim(v) != 2:", "if False:"),
    # the ODE lab
    Mutant("rk4-weights", _ODELAB, "x = x + dt / 6 * (k1x + 2 * k2x + 2 * k3x + k4x)",
           "x = x + dt / 6 * (2 * k1x + k2x + 2 * k3x + k4x)"),
    Mutant("rk4-drops-damping", _ODELAB, "-flow.eta(t) * v - grad(x)", "-grad(x)"),
    Mutant("order-unmatched-coefficient", _ODELAB, "c = -problem.g.grad(x0)",
           "c = np.zeros_like(x0)"),
    # the studies
    Mutant("anneal-keeps-warm-start-row", _EXPERIMENTS,
           "series.append(trace.objectives[1 if series else 0:])",
           "series.append(trace.objectives)"),
    Mutant("reference-restart-keeps-k", _EXPERIMENTS, "k, y = 0, x_new", "y = x_new",
           equivalent="the reference solution is accepted only at its fixed-point "
                      "tolerance, so the restart moves its path, not the point it returns; "
                      "every golden digest stays the same"),
    Mutant("norm-fast-path-off", "src/proxflow/space.py",
           "if type(x) is np.ndarray and x.dtype == np.float64:", "if False:",
           equivalent="np.linalg.norm computes the same sqrt(v.dot(v)) bit for bit; "
                      "the fast path only skips its argument handling"),
)


def apply(tree: Path, mutant: Mutant) -> str:
    """Write ``mutant`` into ``tree``; return the file's original text.

    Refuses (``ValueError``, file untouched) unless ``old`` occurs exactly
    once in the file.
    """
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in "
                         f"{mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


@contextlib.contextmanager
def applied(tree: Path, mutant: Mutant):
    """Hold ``mutant`` in ``tree`` for the ``with`` block, then put the line back."""
    original = apply(tree, mutant)
    try:
        yield
    finally:
        (tree / mutant.path).write_text(original, encoding="utf-8")


def run_suite(tree: Path, timeout: float) -> tuple[bool, str]:
    """Run ``pytest -x`` in ``tree``: (killed, the first failing test or why)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider", f"--ignore={_OWN_TESTS}"],
                              cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return True, f"timeout after {timeout:g} s"
    if proc.returncode == 0:
        return False, ""
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return True, first.group(1) if first else f"pytest exit {proc.returncode}"


def main() -> int:
    unexpected = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORE)
        for mutant in MUTANTS:
            start = time.perf_counter()
            with applied(tree, mutant):
                killed, detail = run_suite(tree, TIMEOUT_S)
            if mutant.equivalent:
                verdict = "KILLED, marked equivalent" if killed else "equivalent"
            else:
                verdict = "killed" if killed else "SURVIVED"
            unexpected += killed == bool(mutant.equivalent)
            print(f"{mutant.name:32s} {verdict:12s} {time.perf_counter() - start:6.1f} s  "
                  f"{detail or mutant.equivalent or ''}", flush=True)
    print(f"{len(MUTANTS)} mutants, {unexpected} not as the table expects")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
