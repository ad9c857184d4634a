"""Which function-body lines of proxflow no program path runs.

Runs, in this process and under a line tracer limited to the package's
source directory:

* every command of ``tools/golden.py``;
* the command lines of every benchmark workload, from
  ``perfbench/workloads.py`` (loaded by path and only read) at its
  default seeds;
* with ``--acceptance``, ``tests/test_acceptance.py`` under pytest.

Each command writes into its own temporary directory, and its stdout and
stderr are discarded.  Then, for each module, it prints the
function-body lines that none of them executed.  A function-body line
is a line on which a function, lambda or comprehension has an
instruction past its prologue; class bodies and module code are not
counted.  Standard library only, but ``--acceptance`` needs pytest.

    python tools/traffic.py [--acceptance] [--src SRC]     # SRC: dir holding proxflow/
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import importlib.util
import inspect
import io
import os
import sys
import tempfile
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def body_lines(code: types.CodeType) -> set[int]:
    """Function-body lines of every function nested in ``code``.

    The prologue up to the first ``RESUME`` (cell set-up, the generator
    return) sits on the ``def`` or decorator line and raises no line
    event, so it is skipped."""
    lines = set()
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        if const.co_flags & inspect.CO_OPTIMIZED:      # a function, not a class body
            instructions = list(dis.get_instructions(const))
            start = next(i for i, ins in enumerate(instructions) if ins.opname == "RESUME")
            lines.update(ins.positions.lineno for ins in instructions[start + 1:]
                         if ins.positions.lineno is not None)
        lines |= body_lines(const)
    return lines


class LineCollector:
    """Record every line event raised in a file under ``root``, in every thread.

    Use as a context manager; ``lines`` maps each traced file name to the
    set of line numbers that ran.  The trace functions in place before
    are put back on exit."""

    def __init__(self, root: Path):
        self.root = os.path.join(Path(root).resolve(), "")    # with a trailing separator
        self.lines: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}

    def _trace(self, frame, event, arg):
        name = frame.f_code.co_filename
        local = self._local.get(name)
        if local is None:
            if not name.startswith(self.root):
                return None
            seen = self.lines.setdefault(name, set())

            def local(frame, event, arg):
                if event == "line":
                    seen.add(frame.f_lineno)
                return local

            self._local[name] = local
        return local

    def __enter__(self) -> LineCollector:
        self._saved = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._trace)
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def never_ran(package: Path, lines: dict[str, set[int]]) -> dict[str, tuple[int, list[int]]]:
    """Module file name -> (function-body line count, the lines that never ran)."""
    report = {}
    for path in sorted(package.resolve().glob("*.py")):
        source = path.read_text(encoding="utf-8")
        body = body_lines(compile(source, str(path), "exec"))
        report[path.name] = (len(body), sorted(body - lines.get(str(path), set())))
    return report


def _load(path: Path) -> types.ModuleType:
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module     # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def command_lines(outdir: Path) -> list[list[str]]:
    """Every golden command and every workload's command lines, each with an
    output directory of its own under ``outdir``."""
    golden = _load(ROOT / "tools" / "golden.py")
    argvs = [[*argv, "--outdir", str(outdir / "golden" / name)]
             for name, argv in golden.COMMANDS.items()]
    workloads = _load(ROOT / "perfbench" / "workloads.py")
    for name, workload in workloads.WORKLOADS.items():
        argvs += workload.jobs(None, outdir / "workloads" / name)
    return argvs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--acceptance", action="store_true",
                        help="also run tests/test_acceptance.py (needs pytest)")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(key, "1")
    os.environ.pop("PROXFLOW_OUTDIR", None)
    package = args.src.resolve() / "proxflow"
    sys.path.insert(0, str(args.src.resolve()))
    from proxflow.cli import main as proxflow

    with tempfile.TemporaryDirectory() as tmp, LineCollector(package) as collector:
        for command in command_lines(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                proxflow(command)
        if args.acceptance:
            import pytest

            code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                                str(ROOT / "tests" / "test_acceptance.py")])
            if code != 0:
                print(f"acceptance run exited {code}", file=sys.stderr)

    report = never_ran(package, collector.lines)
    total = sum(count for count, _ in report.values())
    missed = sum(len(lines) for _, lines in report.values())
    print(f"{missed} of {total} function-body lines never ran")
    for name, (count, lines) in report.items():
        if not lines:
            continue
        print(f"\n{name}: {len(lines)} of {count}")
        source = (package / name).read_text(encoding="utf-8").splitlines()
        for line in lines:
            print(f"{line:5d}  {source[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
