"""Error and resource models: defects, noise injection, timing arithmetic.

Noise is Pauli-twirled and stabilizer-compatible: polarization-limited
initialization injects X flips on the pre-pulse state (applied as the
equivalent Z after the global pi/2 pulse), shuttling dephases the moving
electron with a per-hop Z, measurement records flip with probability
eps_meas, and nuclear decoherence is a single end-of-protocol Z channel
whose probability 1 - exp(-t/T2n) uses the preparation-time model.  All
draws come from labeled substreams of one root seed, so disabling any
channel never shifts another channel's randomness and zero-noise runs are
bit-identical to noiseless ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from sicluster.lattice import (
    DonorLattice,
    RunResult,
    draw_init_flips,
    nucleus,
    predicted_edge_set,
    run_protocol,
)
from sicluster.mbqc import carve_wire  # noqa: F401  (the benchmark tracer patches it here)
from sicluster.rng import substream


def _finite_positive(v: float) -> bool:
    return math.isfinite(v) and v > 0


@dataclass
class DefectModel:
    """Dead pixels plus the free error-rate parameters of the architecture.

    No measured value exists for shuttle dephasing or measurement error;
    those default to zero and carry no physical claim.  T2n defaults to
    2.5 s, consistent with nuclear coherence "in excess of seconds"; T1e is
    bookkept only for electron reset waits.
    """

    dead: set = field(default_factory=set)
    eps_meas: float = 0.0
    p_shuttle: float = 0.0
    p_init_e: float = 0.0
    p_init_n: float = 0.0
    t2n: float = 2.5
    t1e: float = 1.0

    def __post_init__(self):
        self.dead = {(int(i), int(j)) for i, j in self.dead}
        for name in ("eps_meas", "p_shuttle", "p_init_e", "p_init_n"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("t2n", "t1e"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive")

    @classmethod
    def from_polarizations(cls, p_electron: float = 1.0, p_nuclear: float = 1.0,
                           **kwargs) -> "DefectModel":
        for name, p in (("electron", p_electron), ("nuclear", p_nuclear)):
            if not 0.0 < p <= 1.0:
                raise ValueError(f"{name} polarization must be in (0, 1]")
        return cls(p_init_e=(1.0 - p_electron) / 2.0,
                   p_init_n=(1.0 - p_nuclear) / 2.0, **kwargs)


@dataclass
class TimingModel:
    """Rates and mode for the preparation-time model.

    Defaults follow the architecture estimates: a conservative 1 MHz
    shuttle rate, 100 ns for the three C-phase gates together, and 40 kHz
    spin measurement.
    """

    shuttle_rate: float = 1e6
    cphase_total: float = 1e-7
    meas_rate: float = 4e4
    mode: str = "sequential"
    parallel_shift_count: int = 2

    def __post_init__(self):
        for name in ("shuttle_rate", "cphase_total", "meas_rate"):
            if not _finite_positive(getattr(self, name)):
                raise ValueError(f"{name} must be finite and positive")
        if self.mode not in ("sequential", "parallel"):
            raise ValueError(f"mode must be sequential or parallel, got {self.mode!r}")
        if self.parallel_shift_count < 1:
            raise ValueError("parallel_shift_count must be >= 1")


def preparation_time(n_qubits: int, tm: TimingModel, mode: str | None = None,
                     reset_waits: int = 0, t1e: float = 0.0,
                     t1e_multiplier: float = 3.0) -> float:
    """Cluster growth time for an N-qubit device.

    Sequential shuttling costs sqrt(N) hops at the shuttle rate (about
    100 us for 10^4 qubits at 1 MHz); with alternate donors ionized the
    shifts run in parallel and the growth time is N-independent (a few
    microseconds).  When electron reuse is configured, each reset waits
    several T1e.
    """
    if n_qubits < 1:
        raise ValueError("qubit count must be >= 1")
    mode = tm.mode if mode is None else mode
    if mode == "sequential":
        t = math.sqrt(n_qubits) / tm.shuttle_rate + tm.cphase_total
    elif mode == "parallel":
        t = tm.parallel_shift_count / tm.shuttle_rate + tm.cphase_total
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if reset_waits:
        t += reset_waits * t1e_multiplier * t1e
    return t


def figure_of_merit(t2n: float, meas_rate: float) -> float:
    """Coherence time over effective gate (measurement) time: T2n * rate."""
    if not (_finite_positive(t2n) and _finite_positive(meas_rate)):
        raise ValueError("figure_of_merit needs finite positive inputs")
    return t2n * meas_rate


class NoiseInjector:
    """Protocol hooks drawing Pauli errors from labeled substreams.

    Channels draw nothing when their probability is exactly zero, keeping
    zero-noise transcripts identical to noiseless runs for the same seed.
    """

    def __init__(self, dm: DefectModel, tm: TimingModel, seed: int):
        self.dm = dm
        self.tm = tm
        self.seed = seed
        self.error_log: list[tuple] = []
        self._rng_init = substream(seed, "noise-init")
        self._rng_shuttle = substream(seed, "noise-shuttle")
        self._rng_meas = substream(seed, "noise-meas")
        self._rng_dec = substream(seed, "noise-decoherence")
        self._shuttle_step = 0

    # -- protocol hooks -----------------------------------------------------

    def after_prepare(self, backend, lattice: DonorLattice) -> None:
        flips = draw_init_flips(lattice, self.dm.p_init_n, self.dm.p_init_e, self._rng_init)
        for species, qubits in zip(("nuclear", "electron"), flips):
            for q in qubits:
                # Pre-pulse X flip == Z error after the global pi/2 pulse.
                backend.gate("Z", q)
                self.error_log.append(("init_x_flip", species, q))

    def before_shuttle(self, backend, electrons: list[int]) -> None:
        step = self._shuttle_step
        self._shuttle_step += 1
        if self.dm.p_shuttle <= 0.0 or not electrons:
            return
        draws = self._rng_shuttle.random(len(electrons))
        for q, d in zip(electrons, draws):
            if d < self.dm.p_shuttle:
                backend.gate("Z", q)
                self.error_log.append(("shuttle_z", q, step))

    def filter_outcome(self, qubit: int, basis, outcome: int) -> int:
        if self.dm.eps_meas <= 0.0:
            return outcome
        if self._rng_meas.random() < self.dm.eps_meas:
            self.error_log.append(("meas_flip", qubit))
            return -outcome
        return outcome

    def before_extract(self, backend, lattice: DonorLattice) -> None:
        self.decoherence_prob = self.dephasing_probability(lattice.n_sites)
        if self.decoherence_prob <= 0.0:
            return
        nuclei = nucleus(lattice.live_sites())
        hit = nuclei[self._rng_dec.random(nuclei.size) < self.decoherence_prob]
        for q in hit.tolist():
            backend.gate("Z", q)
            self.error_log.append(("decoherence_z", q))

    def dephasing_probability(self, n_sites: int) -> float:
        t = preparation_time(n_sites, self.tm)
        return 1.0 - math.exp(-t / self.dm.t2n)


@dataclass
class NoisyRunReport:
    result: RunResult
    error_log: list[tuple]
    prep_time_s: float
    decoherence_prob: float
    seed: int


def inject_noise(lattice: DonorLattice, steps, dm: DefectModel, tm: TimingModel,
                 seed: int, backend: str = "stabilizer") -> NoisyRunReport:
    """Run a protocol with Pauli noise injected; fully seed-reproducible.

    Measurement coins come from the "measure" substream and each noise
    channel from its own, so a run with all probabilities zero is
    bit-identical to ``run_protocol`` driven by the "measure" substream.
    """
    injector = NoiseInjector(dm, tm, seed)
    rng = substream(seed, "measure")
    result = run_protocol(lattice, steps, backend=backend, rng=rng, noise=injector)
    return NoisyRunReport(
        result=result,
        error_log=injector.error_log,
        prep_time_s=preparation_time(lattice.n_sites, tm),
        decoherence_prob=injector.dephasing_probability(lattice.n_sites),
        seed=seed,
    )


def dead_pixel_survey(lattice: DonorLattice, dm: DefectModel, steps,
                      seed: int = 0, n_pairs: int = 100) -> dict:
    """Topology survey of the predicted cluster under dead pixels.

    Reports lost vertices (dead plus orphaned live sites), the largest
    connected live component, and the carve success rate: the share of
    ``n_pairs`` seeded random live endpoint pairs that lie in one live
    component, which are exactly the pairs ``carve_wire`` connects.
    """
    if dm.dead <= lattice.dead:
        lat = lattice  # the defect model kills no further site
    else:
        lat = DonorLattice(lattice.lx, lattice.ly, dead=lattice.dead | dm.dead)
    adj: dict[int, list[int]] = {v: [] for v in range(lat.n_sites)}
    for u, v in predicted_edge_set(lat, steps):
        adj[u].append(v)
        adj[v].append(u)
    dead_ids = {lat.site_id(i, j) for (i, j) in lat.dead}
    live = lat.live_sites().tolist()

    label: dict[int, int] = {}  # live vertex -> index of its component
    sizes: list[int] = []
    for v in live:
        if v in label:
            continue
        c = label[v] = len(sizes)
        stack = [v]
        size = 0
        while stack:
            w = stack.pop()
            size += 1
            for u in adj[w]:
                if u not in label and u not in dead_ids:
                    label[u] = c
                    stack.append(u)
        sizes.append(size)

    # A live path joins two live sites exactly when they share a component.
    rng = substream(seed, "survey-pairs")
    pairs = []
    if len(live) >= 2:
        live_arr = np.array(live)
        pairs = [rng.choice(live_arr, 2, replace=False) for _ in range(n_pairs)]
    tested = len(pairs)
    successes = sum(label[int(a)] == label[int(b)] for a, b in pairs)
    orphaned = sum(1 for v in live if not adj[v])
    return {
        "n_sites": lat.n_sites,
        "dead": len(dead_ids),
        "orphaned": orphaned,
        "vertices_lost": len(dead_ids) + orphaned,
        "largest_component": max(sizes, default=0),
        "components": len(sizes),
        "carve_pairs_tested": tested,
        "carve_success_rate": (successes / tested) if tested else None,
        "seed": seed,
    }
