"""Benchmark of the sicluster pipeline: seeded workloads with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload protocol-scale --seed 1 --seconds 40 --trace 0

Workloads: protocol-scale, oracle-sweep, mbqc-carve (see perfbench/README.md);
``--workload all`` runs each of them in turn, in its own process.
The package is imported from ``src/`` of the same checkout.  After set-up,
the workload runs whole rounds of its operations until the next round
would end past ``--seconds``.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
run does two untraced rounds and one traced round and reports the per-layer
metrics and the tracing overhead instead.  Every run also writes a record
with its settings (kernel lane, versions, nproc, commit) to ``.bench_out/``.
"""

from __future__ import annotations

import os
import sys
import time

# Settings that change speed are pinned before numpy is imported: one BLAS
# thread (OpenBLAS would otherwise take both cores) and an explicit kernel
# lane, which every run records; numbers from different lanes never compare.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.setdefault("SICLUSTER_KERNELS", "numpy")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
EXIT_SETUP = 2


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(EXIT_SETUP)


def _import_package():
    """Import sicluster from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "sicluster" / "__init__.py").is_file():
        _fail(f"no sicluster sources under {src}")
    sys.path.insert(0, str(src))
    import sicluster
    from sicluster import _kernels

    if Path(sicluster.__file__).resolve().parent != (src / "sicluster").resolve():
        _fail(f"sicluster imported from {sicluster.__file__}, not from {src}")
    return _kernels


def _commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no git metadata in this checkout)"


def _import_seconds() -> float:
    """Median time to import numpy and the package in a fresh interpreter.

    One import per process is too noisy a sample on a shared host, so the
    import is timed in SETUP_REPS child interpreters, each awaited.
    """
    code = ("import time; t = time.perf_counter(); import numpy, sicluster.cli, "
            "sicluster.mbqc, sicluster.noise; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPS):
        child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                               capture_output=True, text=True, check=True)
        times.append(float(child.stdout))
    return statistics.median(times)


def _settings(lane: str) -> dict:
    import numpy as np

    return {
        "kernel_lane": lane,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def _untraced(workload, tally, seconds: float, import_s: float, setup_times: list[float]):
    """Whole rounds until the next one would end past ``seconds`` (at least
    one); every end-to-end metric is a median over the run's samples."""
    t0 = time.perf_counter()
    walls: list[float] = []
    while not walls or time.perf_counter() - t0 + statistics.median(walls) <= seconds:
        t_round = time.perf_counter()
        workload.run_round(tally)
        tally.end_round()
        walls.append(time.perf_counter() - t_round)
    metrics = {"setup_s": import_s + statistics.median(setup_times),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               "round_s": statistics.median(tally.samples["round_s"])}
    lines = [f"rounds: {len(walls)}",
             f"setup: median import {import_s:.4f} s + median of {SETUP_REPS} set-ups "
             f"{[round(t, 4) for t in setup_times]}"]
    for k, stage in enumerate(workload.stages, start=1):
        samples = tally.samples[f"stage{k}_s"]
        metrics[f"stage{k}_s"] = statistics.median(samples)
        lines.append(f"stage{k}_s = {stage}: median {metrics[f'stage{k}_s']:.6f} s "
                     f"over {len(samples)} samples")
    units = {k: ("MB" if k == "peak_rss_mb" else "s") for k in metrics}
    return metrics, units, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sicluster benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("SICLUSTER_VALIDATE", "") not in ("", "0"):
        _fail("SICLUSTER_VALIDATE is on; it validates the tableau after every "
              "gate and would dominate every timing")
    kernels = _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload == "all":
        return _run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choices: {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    import_s = _import_seconds()
    settings = _settings(kernels.active_lane().name)

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            workloads.warm_layers(workdir)
            setup_times.append(time.perf_counter() - t0)
        tally = workloads.Tally()
        if args.trace:
            metrics, units, lines, tracer = _traced(workload, tally, tracing,
                                                    lambda: workloads.warm_layers(workdir))
        else:
            metrics, units, lines = _untraced(workload, tally, args.seconds,
                                              import_s, setup_times)
            tracer = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not tally.problems
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "settings": settings, "stages": workload.stages,
              "samples": tally.samples, "setup_times_s": setup_times, "import_s": import_s,
              "errors": sorted(set(tally.errors)), "problems": tally.problems[:50],
              "result": result}
    (out_dir / f"run-{tag}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(out_dir / f"trace-{tag}", {"workload": args.workload, "seed": args.seed,
                                                "settings": settings})

    for key, value in settings.items():
        print(f"# {key}: {value}")
    for line in lines:
        print(f"# {line}")
    for err in sorted(set(tally.errors)):
        print(f"# failed operation: {err}")
    for problem in tally.problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# operations: {tally.attempted} attempted, {tally.failed} failed; "
          f"outputs {'correct' if correct else 'WRONG'}")
    for key, value in metrics.items():
        print(f"# {key} = {value} {units[key]}")
    print(json.dumps(result))
    return 0


def _run_all(args, names: list[str]) -> int:
    """Each workload in its own child process, so that peak RSS and set-up
    stay per workload; prints every child's report, then one summary."""
    results = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        print(f"## {name}")
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"## {name} exited with {child.returncode}")
            return child.returncode
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    for name, res in results.items():
        metrics = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in res["metrics"].items())
        print(f"## {name}: {res['attempted']} attempted, {res['failed']} failed, "
              f"correct={res['correct']}; {metrics}")
    print(json.dumps({"workloads": results}))
    return 0


def _traced(workload, tally, tracing, warm):
    """Two untraced rounds, then the warm-up pass and the same round traced.

    The first round lets caches and allocator pools fill; the second is the
    reference for the tracing overhead.  The traced warm-up makes every
    layer appear on every workload; the overhead compares the rounds alone.
    """
    workload.run_round(tally)
    tally.end_round()
    t0 = time.perf_counter()
    workload.run_round(tally)
    tally.end_round()
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        warm()
        t0 = time.perf_counter()
        workload.run_round(tally)
        tally.end_round()
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics.update({"trace.spans": len(tracer.names), "trace.untraced_round_s": untraced,
                    "trace.traced_round_s": traced, "trace.overhead_s": traced - untraced,
                    "trace.overhead_ratio": (traced - untraced) / untraced})
    units = dict(tracing.PER_LAYER_METRICS)
    summary = tracer.summary()
    lines = [f"traced round {traced:.4f} s vs untraced {untraced:.4f} s: overhead "
             f"{traced - untraced:.4f} s = {100 * (traced - untraced) / untraced:.2f} % "
             f"of the untraced round ({len(tracer.names)} spans)",
             "span: calls, total s, self s, self share of the traced round"]
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name}: {row['calls']}, {row['total_s']:.4f}, {row['self_s']:.4f}, "
                     f"{100 * row['self_s'] / traced:.2f} % of {traced:.4f} s")
    return metrics, units, lines, tracer


if __name__ == "__main__":
    sys.exit(main())
