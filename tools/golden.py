"""Golden outputs of the proxflow CLI: run a fixed command set, hash what it leaves.

Each command runs in its own subprocess, in its own directory under
OUTDIR with ``--outdir .`` (so the paths it prints are relative), on one
BLAS thread.  Its stdout, stderr and exit code are saved next to its
CSVs as ``_stdout``, ``_stderr`` and ``_exit``.  ``OUTDIR/SHA256SUMS``
then lists one SHA-256 per file; a CSV whose header has a ``time_s``
column (a clock, not a result) is hashed without it.  Two source trees
give the same outputs when their digests are equal:

    python tools/golden.py OUTDIR [--src SRC]     # SRC: dir holding proxflow/, default src
    diff base/SHA256SUMS change/SHA256SUMS

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = "SHA256SUMS"
_MAIN = "import sys; from proxflow.cli import main; sys.exit(main(sys.argv[1:]))"
_ONE_THREAD = {key: "1" for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}

_LASSO_CONSTANT = ["--damping", "constant", "--r", "0.5", "--lambda", "0.1"]

# directory name -> proxflow arguments (``--outdir`` is added)
COMMANDS = {
    "solve-lasso0-admm": ["solve", "--instance", "lasso-desk", "--seed", "0",
                          "--method", "admm", *_LASSO_CONSTANT],
    "solve-lasso0-tseng": ["solve", "--instance", "lasso-desk", "--seed", "0",
                           "--method", "tseng", *_LASSO_CONSTANT],
    "solve-lasso7-dy": ["solve", "--instance", "lasso-desk", "--seed", "7",
                        "--method", "dy", *_LASSO_CONSTANT],
    "solve-quad-dy-decaying": ["solve", "--instance", "quad-desk", "--method", "dy",
                               "--damping", "decaying", "--lambda", "0.1"],
    # r2*h = 5*sqrt(0.1) > 1: refused before any work
    "solve-quad-dy-constant-r5": ["solve", "--instance", "quad-desk", "--method", "dy",
                                  "--damping", "constant", "--r", "5", "--lambda", "0.1"],
    "solve-matcomp-dy": ["solve", "--instance", "matcomp-desk", "--method", "dy",
                         "--lambda", "1.0"],
    "order-dy-constant": ["order-check", "--method", "dy", "--damping", "constant",
                          "--r", "1.0"],
    "order-dy-combined": ["order-check", "--method", "dy", "--damping", "combined",
                          "--r1", "3", "--r2", "0.5"],
    "order-admm": ["order-check", "--method", "admm"],
    "order-tseng-decaying": ["order-check", "--method", "tseng", "--damping", "decaying"],
    "order-h-min-0": ["order-check", "--method", "dy", "--h-min", "0"],
    "rates": ["rates"],
    "lasso-desk": ["lasso", "--desk"],
    "matcomp-single": ["matcomp", "--desk"],
    "matcomp-anneal": ["matcomp", "--desk", "--anneal"],
}


def run_command(src: Path, workdir: Path, argv: list[str]) -> None:
    """Run ``proxflow argv`` from ``src`` in ``workdir``; save its streams and code."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **_ONE_THREAD)
    env.pop("PROXFLOW_OUTDIR", None)
    proc = subprocess.run([sys.executable, "-c", _MAIN, *argv, "--outdir", "."],
                          cwd=workdir, env=env, capture_output=True, check=False)
    (workdir / "_stdout").write_bytes(proc.stdout)
    (workdir / "_stderr").write_bytes(proc.stderr)
    (workdir / "_exit").write_text(f"{proc.returncode}\n", encoding="utf-8")


def canonical(path: Path) -> bytes:
    """A file's bytes, less the ``time_s`` column of a CSV that has one."""
    data = path.read_bytes()
    lines = data.split(b"\n")
    if path.suffix != ".csv" or len(lines) < 2 or b"time_s" not in lines[1].split(b","):
        return data
    col = lines[1].split(b",").index(b"time_s")
    rows = [b",".join(f for i, f in enumerate(line.split(b",")) if i != col)
            for line in lines[2:]]
    return b"\n".join(lines[:2] + rows)


def digest(outdir: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of :func:`canonical`, for every file but the digest."""
    return {path.relative_to(outdir).as_posix(): hashlib.sha256(canonical(path)).hexdigest()
            for path in sorted(outdir.rglob("*"))
            if path.is_file() and path.name != DIGEST}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    if args.outdir.exists() and any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    for name, command in COMMANDS.items():
        run_command(args.src, args.outdir / name, command)
    text = "".join(f"{sha}  {rel}\n" for rel, sha in digest(args.outdir).items())
    (args.outdir / DIGEST).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
