"""The three seeded workloads: set-up, one round of operations, checks.

Each workload is a closed loop with one client: an operation starts when
the previous one has finished.  ``setup`` makes every input from the seed;
``run_round`` then runs the same operations on the same inputs, so every
round attempts the same operations.  The program is called through module
attributes (``cli.main``, ``lattice.run_protocol`` ...) so that a traced
round sees the spans ``tracing.install`` puts there.

Every workload reports three stages, ``stage1_s`` .. ``stage3_s``; their
meaning per workload is the ``stages`` tuple of its class.  A stage sample is
one operation or one batch of operations that does the same work in every
run; the run reports the median sample, which keeps short bursts of load on
a shared host out of the figure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import warnings
from pathlib import Path

import numpy as np

import checks
from sicluster import cli, lattice, mbqc, noise, pulse, tableau
from sicluster.graphstate import line_graph
from sicluster.tableau import Basis


class Tally:
    """Operations attempted and failed, problems found, timing samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self._round_ops = 0.0

    def op(self, fn):
        """Run one operation; returns (output or None, seconds).  An exception
        raised by the program marks the operation failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out, error = fn(), None
        except Exception as exc:
            out, error = None, exc
        dt = time.perf_counter() - t0
        if error is not None:
            self.failed += 1
            self.errors.append(f"{type(error).__module__}.{type(error).__name__}: {error}")
        self._round_ops += dt
        return out, dt

    def check(self, problems: list[str]) -> None:
        self.problems.extend(problems)

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def end_round(self) -> None:
        self.add("round_s", self._round_ops)
        self._round_ops = 0.0


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _cli_op(argv: list[str]):
    def run():
        rc = _quiet_cli(argv)
        if rc != 0:
            raise RuntimeError(f"sicluster {argv[0]} exited with {rc}")
        return rc
    return run


def _read_build(out_dir: Path) -> tuple[dict, dict]:
    return (json.loads((out_dir / "cluster.json").read_text()),
            json.loads((out_dir / "report.json").read_text()))


def _seeded_dead(rng, lx: int, ly: int, fraction: float) -> list[tuple[int, int]]:
    """Exactly round(fraction * sites) dead sites, so the work per seed is fixed."""
    chosen = rng.choice(lx * ly, size=round(fraction * lx * ly), replace=False)
    return sorted(divmod(int(s), ly) for s in chosen)


def warm_layers(workdir: Path) -> None:
    """One tiny pass through every layer: a noisy CLI build and its export,
    both engines and the predictor, a carved wire on the stabilizer backend,
    a deterministic tableau readout, a dense rotation-chain check, a survey
    and a one-point pulse sweep.

    Every workload runs it as its warm-up, and a traced run traces it once
    more, so that every per-layer metric is measured on every workload.
    """
    cfg = workdir / "warm.json"
    cfg.write_text(json.dumps({"lx": 3, "ly": 3, "protocol": "square", "seed": 0,
                               "dead": [[1, 1]], "defects": ProtocolScale.DEFECTS}))
    if _quiet_cli(["build-cluster", "--config", str(cfg), "--with-noise",
                   "--out", str(workdir / "warm")]) != 0:
        raise RuntimeError("warm-up build failed")
    lat = lattice.DonorLattice(3, 2)
    steps = lattice.standard_protocol()
    for backend in ("stabilizer", "statevector"):
        res = lattice.run_protocol(lat, steps, backend=backend, rng=np.random.default_rng(0))
    lattice.predicted_edge_set(lat, steps)
    tableau.new_plus_state(1).measure(0, Basis.X, np.random.default_rng(0))
    cluster = mbqc.canonical_adjacency(res.graph)
    pattern, _ = mbqc.carved_wire_pattern(cluster, 0, 5)
    mbqc.execute_pattern(cluster, pattern, backend="stabilizer", rng=np.random.default_rng(0))
    mbqc.verify_logical(line_graph(5), mbqc.rotation_chain_pattern(0.1, 0.2, 0.3),
                        checks.rotation_target(0.1, 0.2, 0.3), seeds=range(1))
    noise.dead_pixel_survey(lat, noise.DefectModel(), steps, n_pairs=2)
    pulse.fidelity_sweep([np.pi], [2 * np.pi * 25e6])


# -- protocol-scale ----------------------------------------------------------------


class ProtocolScale:
    """The 10^4-qubit cluster build, standard and square, through the CLI."""

    name = "protocol-scale"
    stages = ("build_standard_s", "build_square_s", "build_small_s")
    STANDARD = (100, 100)
    SQUARE = (70, 70)
    SMALL = (20, 20)
    SMALL_REPS = 3
    DEAD_FRACTION = 0.02
    DEFECTS = {"eps_meas": 0.01, "p_shuttle": 0.01, "p_init_e": 0.01, "p_init_n": 0.01}

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        self.workdir = workdir
        self.square_dead = _seeded_dead(rng, *self.SQUARE, self.DEAD_FRACTION)
        self.build_seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        sq_cfg = {"lx": self.SQUARE[0], "ly": self.SQUARE[1], "protocol": "square",
                  "seed": self.build_seeds[1], "dead": self.square_dead,
                  "defects": self.DEFECTS}
        self.square_config = workdir / "square.json"
        self.square_config.write_text(json.dumps(sq_cfg))

    def _size_argv(self, lx, ly, seed, out, protocol="standard"):
        return ["build-cluster", "--size", f"{lx}x{ly}", "--protocol", protocol,
                "--backend", "stabilizer", "--seed", str(seed),
                "--out", str(self.workdir / out)]

    def _build(self, tally: Tally, argv, out, protocol, lx, ly, dead) -> float:
        _, dt = tally.op(_cli_op(argv))
        if (self.workdir / out / "report.json").exists():
            tally.check(checks.check_build(protocol, lx, ly, dead,
                                           *_read_build(self.workdir / out)))
            shutil.rmtree(self.workdir / out)
        return dt

    def run_round(self, tally: Tally) -> None:
        lx, ly = self.STANDARD
        tally.add("stage1_s", self._build(
            tally, self._size_argv(lx, ly, self.build_seeds[0], "standard"),
            "standard", "standard", lx, ly, ()))
        tally.add("stage2_s", self._build(
            tally, ["build-cluster", "--config", str(self.square_config), "--with-noise",
                    "--backend", "stabilizer", "--out", str(self.workdir / "square")],
            "square", "square", *self.SQUARE, self.square_dead))
        sx, sy = self.SMALL
        for _ in range(self.SMALL_REPS):
            tally.add("stage3_s", sum(
                self._build(tally, self._size_argv(sx, sy, self.build_seeds[2],
                                                       f"small-{p}", p),
                            f"small-{p}", p, sx, sy, ())
                for p in ("standard", "square")))


# -- oracle-sweep -------------------------------------------------------------------


_BASES = (Basis.X, Basis.Y, Basis.Z)
_DIRECTIONS = ("+x", "-x", "+y", "-y")


def random_script(rng, lx: int, ly: int, n_steps: int, yz_only: bool):
    """Seeded dead sites and a random step script for an lx-by-ly lattice.

    ``n_steps`` random steps (C-phase, any shuttle, X/Y/Z readout or Y/Z
    only, re-preparation) follow prepare and C-phase; a readout ends the
    script.  Scripts that read electrons in X and later read re-prepared
    electrons again are left out: the tableau's restriction fails on some of
    them (see README.md); the fixed ``KNOWN_FAULT`` case keeps that path
    measured.
    """
    bases = _BASES[1:] if yz_only else _BASES
    while True:
        chosen = rng.choice(lx * ly, size=round(0.15 * lx * ly), replace=False)
        dead = sorted(divmod(int(s), ly) for s in chosen)
        steps = [lattice.PrepareAllPlus(), lattice.GlobalCPhase()]
        for _ in range(n_steps):
            k = rng.random()
            if k < 0.35:
                steps.append(lattice.GlobalCPhase())
            elif k < 0.7:
                steps.append(lattice.Shuttle(_DIRECTIONS[int(rng.integers(4))]))
            elif k < 0.85:
                steps.append(lattice.MeasureElectrons(bases[int(rng.integers(len(bases)))]))
            else:
                steps.append(lattice.ReprepareElectronsPlus())
        steps.append(lattice.MeasureElectrons(bases[int(rng.integers(len(bases)))]))
        if not reads_x_then_rereads(steps):
            return dead, steps


def reads_x_then_rereads(steps) -> bool:
    """True when an X readout round and a second readout round both occur."""
    rounds, read_x, electrons_live, parked = 0, False, True, False
    for step in steps[1:]:
        if isinstance(step, lattice.MeasureElectrons) and electrons_live:
            rounds += 1
            read_x |= step.basis == Basis.X
            electrons_live, parked = False, True
        elif isinstance(step, lattice.ReprepareElectronsPlus) and parked:
            electrons_live, parked = True, False
    return read_x and rounds > 1


# Two sites, X readout, re-preparation, X readout again: the tableau's
# restriction rejected this state on all 200 coin streams tried.
KNOWN_FAULT = (2, 1, [], [lattice.PrepareAllPlus(), lattice.GlobalCPhase(),
                          lattice.MeasureElectrons(Basis.X), lattice.ReprepareElectronsPlus(),
                          lattice.GlobalCPhase(), lattice.MeasureElectrons(Basis.X)])


def _plain(result) -> dict:
    return {"edges": set(result.graph.edges()),
            "ops": {v: op.name for v, op in result.graph.vertex_ops.items()},
            "frame": result.frame.as_dict(),
            "outcomes": result.outcomes.entries()}


class OracleSweep:
    """Predictor, tableau and dense state vector on every small lattice."""

    name = "oracle-sweep"
    stages = ("verify_canonical_s", "verify_random_s", "pulse_sweep_s")
    MAX_SITES = 11
    SCRIPT_BATCHES = 10  # each batch holds one script per lattice shape
    RANDOM_MAX_SITES = 8
    RABIS_MHZ = (None, 5, 10, 15, 20, 25, 30, 40, 50, 60, 75, 100, 125, 150, 200, 300, 400)
    SWEEPS = 8
    THETAS_PER_SWEEP = 12

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        self.seed = seed
        self.canonical = [(lx, ly, name)
                          for lx in range(1, self.MAX_SITES + 1)
                          for ly in range(1, self.MAX_SITES + 1) if lx * ly <= self.MAX_SITES
                          for name in ("standard", "square")]
        # Every batch has the same shapes, dead-site counts, script lengths
        # and Y/Z-only half, so batches do equal work whatever the seed; the
        # seed picks dead sites, steps and bases.
        shapes = [(lx, ly) for lx in range(1, self.RANDOM_MAX_SITES + 1)
                  for ly in range(1, self.RANDOM_MAX_SITES + 1)
                  if lx * ly <= self.RANDOM_MAX_SITES]
        self.batches = [[(lx, ly, *random_script(rng, lx, ly, 3 + i % 6, i % 2 == 0), i % 2 == 0)
                         for i, (lx, ly) in enumerate(shapes)]
                        for _ in range(self.SCRIPT_BATCHES)]
        thetas = sorted([np.pi] + list(rng.uniform(0.0, 2 * np.pi,
                                                   self.SWEEPS * self.THETAS_PER_SWEEP - 1)))
        self.sweeps = [thetas[i:i + self.THETAS_PER_SWEEP]
                       for i in range(0, len(thetas), self.THETAS_PER_SWEEP)]
        self.rabis_hz = [None if m is None else m * 1e6 for m in self.RABIS_MHZ]

    def _engines(self, lat, steps, coin_seed, with_predictor):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            st = lattice.run_protocol(lat, steps, backend="stabilizer",
                                      rng=np.random.default_rng(coin_seed))
            sv = lattice.run_protocol(lat, steps, backend="statevector",
                                      rng=np.random.default_rng(coin_seed))
        pred = lattice.predicted_edge_set(lat, steps) if with_predictor else None
        return _plain(st), _plain(sv), pred

    def _compare(self, tally, label, lat, steps, coin_seed, with_predictor, want=None):
        out, dt = tally.op(lambda: self._engines(lat, steps, coin_seed, with_predictor))
        if out is not None:
            st, sv, pred = out
            tally.check(checks.check_engines_agree(label, st, sv))
            if pred is not None:
                tally.check(checks.check_predictor(label, pred, st["edges"]))
            if want is not None and st["edges"] != want:
                tally.check([f"{label}: edges differ from the closed form"])
        return dt

    def run_round(self, tally: Tally) -> None:
        total = 0.0
        for k, (lx, ly, name) in enumerate(self.canonical):
            steps = lattice.CANONICAL_PROTOCOLS[name]()
            total += self._compare(tally, f"{name} {lx}x{ly}", lattice.DonorLattice(lx, ly),
                                   steps, [self.seed, 3, k], True,
                                   checks.expected_edges(name, lx, ly))
        tally.add("stage1_s", total)

        for b, batch in enumerate(self.batches):
            tally.add("stage2_s", sum(
                self._compare(tally, f"script {b}.{i}", lattice.DonorLattice(lx, ly, dead),
                              steps, [self.seed, 4, b, i], yz_only)
                for i, (lx, ly, dead, steps, yz_only) in enumerate(batch)))
        lx, ly, dead, steps = KNOWN_FAULT
        self._compare(tally, "x-reread script", lattice.DonorLattice(lx, ly, dead), steps, 0,
                      False)

        rabis = [None if f is None else 2 * np.pi * f for f in self.rabis_hz]
        for thetas in self.sweeps:
            rows, dt = tally.op(lambda: pulse.fidelity_sweep(thetas, rabis))
            tally.add("stage3_s", dt)
            if rows is not None:
                tally.check(checks.check_pulse_rows(rows, thetas, self.rabis_hz))


# -- mbqc-carve ---------------------------------------------------------------------


def _bfs_distances(cluster, start: int, blocked: set) -> dict[int, int]:
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for u in cluster.neighbors(v):
                if u not in dist and u not in blocked:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


class MbqcCarve:
    """Carved one-way wires on a protocol-built cluster, dense logical
    checks of rotation chains, and the dead-pixel survey."""

    name = "mbqc-carve"
    stages = ("pattern_s", "logical_check_s", "survey_s")
    SIZE = (50, 50)
    DEAD_FRACTION = 0.02
    WIRE_HOPS = (6, 8, 10, 12)  # even hop counts give odd-length wires
    CHAIN_BATCHES = 4
    CHAINS_PER_BATCH = 10
    SURVEY_PAIRS = 100

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 5])
        self.seed = seed
        lx, ly = self.SIZE
        self.dead = _seeded_dead(rng, lx, ly, self.DEAD_FRACTION)
        self.lattice = lattice.DonorLattice(lx, ly, dead=self.dead)
        res = lattice.run_protocol(self.lattice, lattice.standard_protocol(),
                                   backend="stabilizer", rng=np.random.default_rng([seed, 6]))
        if set(res.graph.edges()) != checks.standard_edges(lx, ly, self.dead):
            raise RuntimeError("input cluster differs from the closed-form standard cluster")
        self.cluster = mbqc.canonical_adjacency(res.graph)
        self.dead_ids = {self.lattice.site_id(i, j) for i, j in self.dead}
        largest: set = set()
        for v in self.cluster.vertices():
            if v not in self.dead_ids and v not in largest:
                component = set(_bfs_distances(self.cluster, v, self.dead_ids))
                largest = max(largest, component, key=len)
        live = sorted(largest)
        self.wires = []
        for hops in self.WIRE_HOPS:
            for kind in ("identity", "pauli"):
                while True:
                    start = int(rng.choice(live))
                    dist = _bfs_distances(self.cluster, start, self.dead_ids)
                    ends = sorted(v for v, d in dist.items() if d == hops)
                    if ends:
                        break
                end = int(rng.choice(ends))
                angles = [0.0] * hops if kind == "identity" else \
                    [float(a) for a in rng.choice([0.0, np.pi / 2, np.pi, -np.pi / 2], hops)]
                self.wires.append((start, end, angles))
        self.chain_batches = [[tuple(float(x) for x in rng.uniform(-np.pi, np.pi, 3))
                               for _ in range(self.CHAINS_PER_BATCH)]
                              for _ in range(self.CHAIN_BATCHES)]
        self.line5 = line_graph(5)

    def _pattern(self, start, end, angles, k):
        pattern, path = mbqc.carved_wire_pattern(self.cluster, start, end, self.dead_ids,
                                                 angles=angles)
        res = mbqc.execute_pattern(self.cluster, pattern, backend="stabilizer",
                                   rng=np.random.default_rng([self.seed, 7, k]))
        return path, res

    def run_round(self, tally: Tally) -> None:
        # Wires differ in length and trim, so stage 1 is the mean time of one
        # pattern over the round's wires; its median over rounds is reported.
        total = 0.0
        for k, (start, end, angles) in enumerate(self.wires):
            out, dt = tally.op(lambda: self._pattern(start, end, angles, k))
            total += dt
            if out is None:
                continue
            path, res = out
            label = f"wire {start}->{end}"
            graph, target = res.output_graph, path[-1]
            if graph.vertices() != [target]:
                tally.check([f"{label}: output is not the single end vertex"])
                continue
            tally.check(checks.check_wire(label, angles, graph.op(target).word,
                                          target in res.frame.x, target in res.frame.z))
        tally.add("stage1_s", total / len(self.wires))

        for batch in self.chain_batches:
            total = 0.0
            for a, b, g in batch:
                rep, dt = tally.op(lambda: mbqc.verify_logical(
                    self.line5, mbqc.rotation_chain_pattern(a, b, g),
                    checks.rotation_target(a, b, g), root_seed=self.seed))
                total += dt
                if rep is not None:
                    tally.check(checks.check_distance(f"chain ({a:.3f},{b:.3f},{g:.3f})",
                                                      rep.distance))
            tally.add("stage2_s", total)

        rep, dt = tally.op(lambda: noise.dead_pixel_survey(
            self.lattice, noise.DefectModel(), lattice.standard_protocol(),
            seed=self.seed, n_pairs=self.SURVEY_PAIRS))
        tally.add("stage3_s", dt)
        if rep is not None:
            tally.check(checks.check_survey(rep, *self.SIZE, self.dead, self.seed,
                                            self.SURVEY_PAIRS))


WORKLOADS = {w.name: w for w in (ProtocolScale, OracleSweep, MbqcCarve)}
