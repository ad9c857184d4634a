"""Golden outputs of the proxflow CLI: run a fixed command set, hash what it leaves.

Each command runs in its own subprocess, in its own directory under
OUTDIR with ``--outdir .`` (so the paths it prints are relative), on one
BLAS thread.  Its stdout, stderr and exit code are saved next to its
CSVs as ``_stdout``, ``_stderr`` and ``_exit``.  ``OUTDIR/SHA256SUMS``
then lists one SHA-256 per file; a CSV whose header has a ``time_s``
column (a clock, not a result) is hashed without it.  Two source trees
give the same outputs when their digests are equal:

    python tools/golden.py OUTDIR [--src SRC]     # SRC: dir holding proxflow/, default src
    python tools/golden.py --base REV OUTDIR [--src SRC]

With ``--base``, git revision REV is checked out into a temporary
``git worktree`` (removed on exit; no network needed), and its source
and SRC write their digests under ``OUTDIR/base`` and ``OUTDIR/change``.
Every path whose digest differs, or that only one side has, is printed,
and the exit code is 1 if there is any, else 0.

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
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
    # a non-finite parameter: refused before any work
    "solve-quad-fb-lambda-nan": ["solve", "--instance", "quad-desk", "--method", "fb",
                                 "--lambda", "nan"],
    # three steps cannot meet the tolerance: status max-iters, exit 2
    "solve-quad-dy-max-iters": ["solve", "--instance", "quad-desk", "--method", "dy",
                                "--lambda", "0.1", "--max-iters", "3"],
    # a negative seed: refused by name before any instance is built
    "solve-seed-negative": ["solve", "--instance", "lasso-desk", "--seed", "-1",
                            "--method", "fb", "--lambda", "0.1"],
    # no iterations allowed: refused before the 500x2500 instance is built
    "solve-max-iters-zero": ["solve", "--instance", "lasso-full", "--method", "fb",
                             "--lambda", "0.1", "--max-iters", "0"],
    "solve-matcomp-dy": ["solve", "--instance", "matcomp-desk", "--method", "dy",
                         "--lambda", "1.0"],
    "order-dy-constant": ["order-check", "--method", "dy", "--damping", "constant",
                          "--r", "1.0"],
    "order-dy-combined": ["order-check", "--method", "dy", "--damping", "combined",
                          "--r1", "3", "--r2", "0.5"],
    "order-admm": ["order-check", "--method", "admm"],
    "order-tseng-decaying": ["order-check", "--method", "tseng", "--damping", "decaying"],
    "order-h-min-0": ["order-check", "--method", "dy", "--h-min", "0"],
    # two points cannot carry a slope: refused, naming --points, before any work
    "order-points-2": ["order-check", "--method", "fb", "--points", "2"],
    "rates": ["rates"],
    "lasso-desk": ["lasso", "--desk"],
    # two scales asked for at once: refused before any work
    "lasso-desk-paper-scale": ["lasso", "--desk", "--paper-scale"],
    # an empty seed list: refused with its reason
    "lasso-seeds-empty": ["lasso", "--seeds", ","],
    # plain fb is named "fb" only, and a seed listed twice would repeat a
    # run: both refused before any work
    "lasso-fb-none": ["lasso", "--variants", "fb-none", "--seeds", "1"],
    "lasso-seeds-repeated": ["lasso", "--seeds", "1,1"],
    # a negative seed: refused by name before seed 1 is solved
    "lasso-seeds-negative": ["lasso", "--seeds", "1,-1", "--variants", "fb"],
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


def differing(base: dict[str, str], change: dict[str, str]) -> list[str]:
    """Paths whose digest differs between two :func:`digest` maps, or that one lacks."""
    return sorted(rel for rel in base.keys() | change.keys() if base.get(rel) != change.get(rel))


def write_digests(src: Path, outdir: Path) -> dict[str, str]:
    """Run every command from ``src`` under ``outdir``; write and return its digests."""
    for name, command in COMMANDS.items():
        run_command(src, outdir / name, command)
    sums = digest(outdir)
    (outdir / DIGEST).write_text("".join(f"{sha}  {rel}\n" for rel, sha in sums.items()),
                                 encoding="utf-8")
    return sums


def base_digests(rev: str, outdir: Path) -> dict[str, str]:
    """:func:`write_digests` of revision ``rev``'s ``src``, from a temporary worktree."""
    git = ["git", "-C", str(ROOT), "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        subprocess.run([*git, "add", "--detach", "--quiet", str(tree), rev], check=True)
        try:
            return write_digests(tree / "src", outdir)
        finally:
            subprocess.run([*git, "remove", "--force", str(tree)], check=False)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--base", metavar="REV",
                        help="compare with git revision REV's outputs; exit 1 if any differ")
    args = parser.parse_args(argv)
    if args.outdir.exists() and any(args.outdir.iterdir()):
        parser.error(f"{args.outdir} is not empty")
    if args.base is None:
        write_digests(args.src, args.outdir)
        sys.stdout.write((args.outdir / DIGEST).read_text(encoding="utf-8"))
        return 0
    try:
        base = base_digests(args.base, args.outdir / "base")
    except subprocess.CalledProcessError:
        parser.error(f"git cannot check {args.base} out into a worktree")
    change = write_digests(args.src, args.outdir / "change")
    paths = differing(base, change)
    sys.stdout.write("".join(f"{rel}\n" for rel in paths))
    print(f"{len(paths)} of {len(base.keys() | change.keys())} digests differ from {args.base}",
          file=sys.stderr)
    return 1 if paths else 0


if __name__ == "__main__":
    sys.exit(main())
