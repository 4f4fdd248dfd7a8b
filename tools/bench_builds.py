"""End-to-end rows for BENCH_protocol.json: build-cluster wall time and peak RSS.

Each run is one fresh ``python -m sicluster.cli build-cluster`` process,
started by a wrapper process that has no other child, so the wrapper's
``getrusage(RUSAGE_CHILDREN).ru_maxrss`` is that build's peak RSS; the
wrapper times the child with ``perf_counter``.  The tree's ``src/`` is
compiled before any timing, so no run pays for compiling the package.

    python3 tools/bench_builds.py --label after --k 3
    python3 tools/bench_builds.py --tree ../parent --commit <sha> --label before

Rows are appended to ``--out`` (default ``BENCH_protocol.json`` beside
``tools/``); each holds the command, the median and range of the wall time
and of the peak RSS over k runs, the SHA-256 of the files the first run
wrote, the commit, the Python and numpy versions and ``nproc``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SIZES = ("100x100", "300x300", "600x600")
PROTOCOLS = ("standard", "square")

# Runs in the wrapper process: start the one child, time it, report its peak.
_WRAPPER = """
import json, resource, subprocess, sys, time
t0 = time.perf_counter()
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(json.dumps({"wall_s": wall, "peak_rss_mb": rss}))
"""


def _spread(values: list[float]) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "runs": values}


def _commit(tree: Path) -> tuple[str, bool]:
    """HEAD of ``tree`` and whether its tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.CalledProcessError):
        return "unknown", False


def bench_row(argv: list[str], k: int, env: dict) -> dict:
    """k fresh-process runs of ``build-cluster *argv`` on the tree ``env`` imports."""
    walls, peaks, outputs = [], [], None
    for _ in range(k):
        with tempfile.TemporaryDirectory() as out:
            cmd = [sys.executable, "-m", "sicluster.cli", "build-cluster", *argv, "--out", out]
            done = subprocess.run([sys.executable, "-c", _WRAPPER, *cmd], env=env,
                                  capture_output=True, text=True, check=True)
            run = json.loads(done.stdout)
            walls.append(run["wall_s"])
            peaks.append(run["peak_rss_mb"])
            if outputs is None:
                outputs = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                           for f in sorted(Path(out).iterdir())}
    return {"command": ["build-cluster", *argv], "k": k, "wall_s": _spread(walls),
            "peak_rss_mb": _spread(peaks), "outputs": outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ is run")
    ap.add_argument("--label", required=True, help='row label, e.g. "before" or "after"')
    ap.add_argument("--commit", help="commit to record (default: the tree's HEAD)")
    ap.add_argument("--k", type=int, default=3, help="fresh processes per row (>= 3)")
    ap.add_argument("--sizes", default=",".join(SIZES), help="comma-separated LXxLY")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_protocol.json")
    args = ap.parse_args(argv)
    if args.k < 3:
        ap.error("--k must be at least 3")
    src = args.tree.resolve() / "src"
    if not compileall.compile_dir(str(src), quiet=1):
        return 1
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, platform; "
         "print(platform.python_version(), numpy.__version__)"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    commit, dirty = (args.commit, False) if args.commit else _commit(args.tree)
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    for size in args.sizes.split(","):
        for protocol in PROTOCOLS:
            row = bench_row(["--size", size, "--protocol", protocol, "--seed", "1"], args.k, env)
            row.update(label=args.label, commit=commit, dirty=dirty, python=versions[0],
                       numpy=versions[1], nproc=len(os.sched_getaffinity(0)))
            doc["rows"].append(row)
            print(f"{args.label} {size} {protocol}: wall {row['wall_s']['median']:.3f} s, "
                  f"peak {row['peak_rss_mb']['max']:.0f} MB", flush=True)
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
