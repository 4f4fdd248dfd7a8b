"""The donor-lattice machine model: global operations weaving nuclear clusters.

A 2D array of donor sites, each holding a nuclear spin qubit and (when live)
a shuttleable electron.  Protocols are scripts of global steps: prepare all
spins in |+>, apply a controlled-phase between every co-located
electron/nuclear pair, shuttle every electron one site in a common
direction, and measure all electrons in a Pauli basis.  The sigma_y electron
measurement fuses the nuclei the electron touched into a clique, which is
what turns three C-phase rounds plus two orthogonal shuttles into a
triangle-union cluster state on the nuclei.

Qubits are numbered per site by ``nucleus`` (2*site) and ``electron``
(2*site + 1); no engine depends on the numbering.  Output graphs are indexed
by site id = i * ly + j for site (i, j).

One walker interprets every script: it validates the steps, shuttles the
electrons, measures out in Z those that leave the lattice, land on a dead
site or are still live at the end, parks and re-prepares measured ones,
and calls the noise hooks.  It builds its engine once the script's first
step is checked and calls ``cz``/``gate``/``measure`` on it directly.
``run_protocol(backend="stabilizer")`` runs the in-place graph-state
engine (``sicluster.graphsim``); ``backend="tableau"`` runs the same
script on the Aaronson-Gottesman stabilizer tableau and
``backend="statevector"`` on the deferred dense register of
``sicluster.statevec``, the two oracles the engine is checked against.
``predicted_edge_set`` runs it on an engine that only tracks CZ partner
sets.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from sicluster.graphsim import GraphSimulator
from sicluster.graphstate import GraphState, MeasurementOutcomeRecord, check_site_cap
from sicluster.statevec import (
    MAX_QUBITS,
    DenseRegister,
    SizeCapError,
    StateVector,
    graph_to_statevector,
    stabilizer_matrix,
    tableau_from_statevector,  # noqa: F401  (the benchmark tracer patches it here)
)
from sicluster.tableau import (
    Basis,
    graph_from_stab_matrix,
    new_plus_state,
    restricted_stab_graph,
)


class ProtocolError(ValueError):
    """Invalid protocol script or lattice configuration."""


# -- protocol steps -----------------------------------------------------------


@dataclass(frozen=True)
class PrepareAllPlus:
    species: str = "both"  # electron | nuclear | both

    def __post_init__(self):
        if self.species not in ("electron", "nuclear", "both"):
            raise ProtocolError(f"bad species {self.species!r}")


@dataclass(frozen=True)
class GlobalCPhase:
    pass


_DIRECTIONS = {"+x": (1, 0), "-x": (-1, 0), "+y": (0, 1), "-y": (0, -1)}


@dataclass(frozen=True)
class Shuttle:
    direction: str

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ProtocolError(f"bad shuttle direction {self.direction!r}")

    @property
    def delta(self) -> tuple[int, int]:
        return _DIRECTIONS[self.direction]


@dataclass(frozen=True)
class MeasureElectrons:
    basis: Basis = Basis.Y


@dataclass(frozen=True)
class ReprepareElectronsPlus:
    pass


ProtocolStep = (PrepareAllPlus | GlobalCPhase | Shuttle | MeasureElectrons
                | ReprepareElectronsPlus)


def standard_protocol() -> list[ProtocolStep]:
    """Three global C-phases with two orthogonal shuttles, then sigma_y."""
    return [
        PrepareAllPlus("both"),
        GlobalCPhase(),
        Shuttle("+x"),
        GlobalCPhase(),
        Shuttle("+y"),
        GlobalCPhase(),
        MeasureElectrons(Basis.Y),
    ]


def square_lattice_protocol() -> list[ProtocolStep]:
    """Standard script with an extra sigma_y round and C-phase before the
    second shuttle, producing a square-lattice cluster on the nuclei."""
    return [
        PrepareAllPlus("both"),
        GlobalCPhase(),
        Shuttle("+x"),
        GlobalCPhase(),
        MeasureElectrons(Basis.Y),
        ReprepareElectronsPlus(),
        GlobalCPhase(),
        Shuttle("+y"),
        GlobalCPhase(),
        MeasureElectrons(Basis.Y),
    ]


CANONICAL_PROTOCOLS = {
    "standard": standard_protocol,
    "square": square_lattice_protocol,
}


# -- lattice ------------------------------------------------------------------


def nucleus(s):
    """Nuclear qubit of site ``s`` (an id or an array of ids)."""
    return 2 * s


def electron(s):
    """Qubit of the electron that starts at site ``s``."""
    return 2 * s + 1


class DonorLattice:
    """An lx-by-ly open-boundary array of donor sites.

    Dead sites host no donor: they never hold an electron and their nuclei
    stay untouched (degree 0 in every output graph).
    """

    def __init__(self, lx: int, ly: int, dead=()):
        if lx < 1 or ly < 1:
            raise ProtocolError("lattice dimensions must be >= 1")
        check_site_cap(lx * ly)
        self.lx = lx
        self.ly = ly
        self.dead: set[tuple[int, int]] = set()
        for i, j in dead:
            if not (0 <= i < lx and 0 <= j < ly):
                raise ProtocolError(f"dead site ({i},{j}) outside lattice")
            self.dead.add((int(i), int(j)))

    def site_id(self, i: int, j: int) -> int:
        return i * self.ly + j

    def coords(self, s: int) -> tuple[int, int]:
        return divmod(s, self.ly)

    def in_bounds(self, i: int, j: int) -> bool:
        return 0 <= i < self.lx and 0 <= j < self.ly

    def is_live(self, i: int, j: int) -> bool:
        return self.in_bounds(i, j) and (i, j) not in self.dead

    @property
    def n_sites(self) -> int:
        return self.lx * self.ly

    def live_sites(self) -> np.ndarray:
        """Ids of the sites that host a donor, ascending."""
        live = np.ones(self.n_sites, bool)
        live[[self.site_id(i, j) for i, j in self.dead]] = False
        return np.flatnonzero(live)

    def initial_electrons(self) -> dict[int, int]:
        """site id -> electron qubit, for every live site."""
        live = self.live_sites()
        return dict(zip(live.tolist(), electron(live).tolist()))


# -- Pauli frame --------------------------------------------------------------


class PauliFrame:
    """Pending per-qubit X/Z byproduct corrections; composition is XOR."""

    def __init__(self, x=(), z=()):
        self.x: set[int] = set(x)
        self.z: set[int] = set(z)

    def flip_x(self, v: int) -> None:
        self.x ^= {v}

    def flip_z(self, v: int) -> None:
        self.z ^= {v}

    def compose(self, other: "PauliFrame") -> "PauliFrame":
        return PauliFrame(self.x ^ other.x, self.z ^ other.z)

    def as_dict(self) -> dict:
        return {"x": sorted(self.x), "z": sorted(self.z)}

    def __eq__(self, other) -> bool:
        return isinstance(other, PauliFrame) and self.x == other.x and self.z == other.z

    def __repr__(self) -> str:
        return f"PauliFrame(x={sorted(self.x)}, z={sorted(self.z)})"


@dataclass
class RunResult:
    graph: GraphState
    outcomes: MeasurementOutcomeRecord
    frame: PauliFrame
    backend: str
    n_sites: int = 0


# -- the protocol driver ------------------------------------------------------


def _assemble_graph(n_sites: int, adj, ops) -> tuple[GraphState, PauliFrame]:
    """Split vertex operators into Pauli frame bits and coset representatives.

    The graph adopts the extracted adjacency sets as its own, after checking
    that they cover exactly the sites, symmetrically and without self-loops.
    """
    frame = PauliFrame()
    coset_ops = {}
    for v, op in ops.items():
        (xb, zb), rep = op.pauli_factor()
        if xb:
            frame.flip_x(v)
        if zb:
            frame.flip_z(v)
        if not rep.is_identity():
            coset_ops[v] = rep
    if adj.keys() != set(range(n_sites)):
        raise AssertionError("extracted graph does not cover the sites")
    graph = GraphState.adopt(adj, coset_ops)
    return graph, frame


def run_protocol(lattice: DonorLattice, steps, backend: str = "stabilizer",
                 rng=None, noise=None) -> RunResult:
    """Execute a protocol script and return the nuclear cluster state.

    Returns a RunResult whose graph is indexed by site id, whose outcome
    record holds every electron measurement (qubit id, basis, outcome), and
    whose PauliFrame carries the outcome-dependent byproduct corrections on
    the nuclei.  The graph topology and vertex operators are outcome
    independent; only the frame varies with the seed.

    ``noise`` is an optional injector (see sicluster.noise.NoiseInjector)
    whose hooks insert Pauli errors and corrupt recorded outcomes; the
    recorded (possibly corrupted) outcomes drive any feed-forward, while the
    quantum state always collapses on the true ones.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n_sites = lattice.n_sites
    nuclei = nucleus(np.arange(n_sites))
    # Per backend: how to build the 2n-qubit engine, and how to read the
    # nuclear graph off it, which is the engine's last use.
    engines = {
        "stabilizer": (lambda: GraphSimulator(2 * n_sites),
                       lambda sim: sim.take_restricted_graph(nuclei.tolist())),
        "tableau": (lambda: new_plus_state(2 * n_sites),
                    lambda t: restricted_stab_graph(t, nuclei)),
        "statevector": (DenseRegister, lambda reg: graph_from_stab_matrix(
            *stabilizer_matrix(reg.gather(nuclei.tolist())))),
    }
    if backend not in engines:
        raise ProtocolError(f"unknown backend {backend!r}")
    # An electron joins the dense array only at its own readout, so the
    # register never holds more than n_sites + 1 qubits.
    if backend == "statevector" and n_sites + 1 > MAX_QUBITS:
        raise SizeCapError(f"statevector backend needs up to {n_sites + 1} "
                           f"qubits, cap is {MAX_QUBITS}")
    new_engine, read_nuclear_graph = engines[backend]
    engine, outcomes = _walk(lattice, steps, new_engine, rng, noise)
    try:
        adj, ops = read_nuclear_graph(engine)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    del engine  # free the engine before assembly, so it never coexists with the graph
    graph, frame = _assemble_graph(n_sites, adj, ops)
    return RunResult(graph=graph, outcomes=outcomes, frame=frame,
                     backend=backend, n_sites=n_sites)


def _walk(lattice: DonorLattice, steps, new_engine, rng,
          noise=None) -> tuple[object, MeasurementOutcomeRecord]:
    """Interpret a protocol script as primitive calls on an engine.

    Once the leading ``PrepareAllPlus`` is checked, ``new_engine()`` builds
    the engine, every qubit in |+>; the walker then calls only
    ``cz(electron, nucleus)``, ``gate(name, qubit)`` and ``measure(qubit,
    basis, rng) -> (outcome, deterministic)`` on it.  Electrons shuttled
    off the lattice or onto a dead site, and electrons still live at the
    end, are measured out in Z.  A readout round is parked for
    re-preparation only when a ``ReprepareElectronsPlus`` follows it.
    Returns the engine and the outcome record.
    """
    steps = list(steps)
    if not steps or not isinstance(steps[0], PrepareAllPlus):
        raise ProtocolError("protocol must start with PrepareAllPlus")
    if steps[0].species != "both":
        raise ProtocolError("run_protocol prepares both species; see cool_and_prepare")
    last_reprep = max((i for i, step in enumerate(steps)
                       if isinstance(step, ReprepareElectronsPlus)), default=0)

    engine = new_engine()
    positions = lattice.initial_electrons()  # site id -> electron qubit
    if noise is not None:
        noise.after_prepare(engine, lattice)
    # site id -> (electron, basis, recorded outcome), awaiting re-preparation
    parked: dict[int, tuple[int, Basis, int]] = {}
    outcomes = MeasurementOutcomeRecord()
    cphase_count = 0

    def measure_and_record(e: int, basis: Basis) -> int:
        outcome, _ = engine.measure(e, basis, rng)
        if noise is not None:
            outcome = noise.filter_outcome(e, basis, outcome)
        outcomes.append(e, basis, outcome)
        return outcome

    for step_no, step in enumerate(steps[1:], 1):
        if isinstance(step, PrepareAllPlus):
            raise ProtocolError("PrepareAllPlus is only supported as the first step")
        elif isinstance(step, GlobalCPhase):
            for s in sorted(positions):
                engine.cz(positions[s], nucleus(s))
            cphase_count += 1
        elif isinstance(step, Shuttle):
            if noise is not None:
                noise.before_shuttle(engine, [positions[s] for s in sorted(positions)])
            # Every electron moves by the same offset, so no two land on one
            # site, and parked electrons exist only while positions is empty.
            di, dj = step.delta
            new_positions: dict[int, int] = {}
            for s in sorted(positions):
                e = positions[s]
                i, j = lattice.coords(s)
                ni, nj = i + di, j + dj
                if lattice.is_live(ni, nj):
                    new_positions[lattice.site_id(ni, nj)] = e
                else:
                    measure_and_record(e, Basis.Z)
            positions = new_positions
        elif isinstance(step, MeasureElectrons):
            if cphase_count == 0:
                warnings.warn("measurement before any entangling gate is a no-op",
                              stacklevel=3)
            for s in sorted(positions):
                e = positions[s]
                outcome = measure_and_record(e, step.basis)
                if step_no < last_reprep:
                    parked[s] = (e, step.basis, outcome)
            positions = {}
        elif isinstance(step, ReprepareElectronsPlus):
            unrotate = {Basis.X: (), Basis.Y: ("SDG",), Basis.Z: ("H",)}
            for s in sorted(parked):
                e, basis, outcome = parked[s]
                for name in unrotate[basis]:
                    engine.gate(name, e)
                if outcome == -1:
                    engine.gate("Z", e)
                positions[s] = e
            parked = {}
        else:
            raise ProtocolError(f"unknown protocol step {step!r}")

    for s in sorted(positions):
        e = positions[s]
        warnings.warn("protocol ended with live electrons; measuring them out in Z",
                      stacklevel=3)
        measure_and_record(e, Basis.Z)

    if noise is not None:
        noise.before_extract(engine, lattice)
    return engine, outcomes


# -- predicted topology --------------------------------------------------------


class _EdgePredictor:
    """Edge bookkeeping for ``predicted_edge_set``.

    Tracks each electron's CZ partner parity set: a sigma_y readout toggles
    the clique on the partners, a Z readout contributes nothing, and either
    leaves the electron with no partners.  Gates never change the topology.
    """

    def __init__(self):
        self.partners: dict[int, set[int]] = {}
        self.edges: set[tuple[int, int]] = set()

    def cz(self, e: int, n: int) -> None:
        self.partners.setdefault(e, set()).symmetric_difference_update({n // 2})

    def gate(self, name: str, q: int) -> None:
        pass

    def measure(self, q: int, basis: Basis, rng) -> tuple[int, bool]:
        if basis == Basis.Y:
            self.edges.symmetric_difference_update(
                itertools.combinations(sorted(self.partners.get(q, ())), 2))
        elif basis != Basis.Z:
            raise ProtocolError(
                "predicted_edge_set supports Y and Z electron measurements only")
        self.partners.pop(q, None)
        return 1, True


def predicted_edge_set(lattice: DonorLattice, steps) -> set[tuple[int, int]]:
    """Combinatorial prediction of the output adjacency (site-id pairs).

    Walks the script as ``run_protocol`` does, on an engine that tracks only
    CZ partner sets (Y and Z electron readout; X raises ProtocolError).
    """
    predictor, _ = _walk(lattice, steps, _EdgePredictor, None)
    return predictor.edges


# -- initialization model -------------------------------------------------------


def draw_init_flips(lattice: DonorLattice, p_nuclear: float, p_electron: float,
                    rng) -> tuple[list[int], list[int]]:
    """The live qubits that start flipped: each nucleus, then each electron,
    flips when its draw is below its species' probability.  A species whose
    probability is 0 draws nothing.  Returns (nuclear, electron) qubits."""
    live = lattice.live_sites()
    flips = []
    for prob, qubits in ((p_nuclear, nucleus(live)), (p_electron, electron(live))):
        drawn = prob > 0.0 and qubits.size > 0
        flips.append(qubits[rng.random(qubits.size) < prob].tolist() if drawn else [])
    return flips[0], flips[1]


def cool_and_prepare(lattice: DonorLattice, p_electron: float = 1.0,
                     p_nuclear: float = 1.0, rng=None) -> dict:
    """Model SWAP-cooled initialization followed by global pi/2 pulses.

    With polarization p < 1 each spin independently starts flipped with
    probability (1 - p) / 2; the flips are reported as injected X errors on
    the pre-pulse state.  Dead sites host no donor and are skipped.
    """
    for name, p in (("electron", p_electron), ("nuclear", p_nuclear)):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"{name} polarization must be in (0, 1], got {p}")
    if rng is None:
        rng = np.random.default_rng(0)
    pe, pn = (1.0 - p_electron) / 2.0, (1.0 - p_nuclear) / 2.0
    nuclear, electrons = draw_init_flips(lattice, pn, pe, rng)
    return {"electron_flip_prob": pe, "nuclear_flip_prob": pn,
            "electron_flips": electrons, "nuclear_flips": nuclear}


def dense_state_of(result: RunResult) -> StateVector:
    """Render a run's (graph, frame) output as a dense state for comparison."""
    ids, sv = graph_to_statevector(result.graph)
    for v in result.frame.x:
        sv.apply_gate("X", ids.index(v))
    for v in result.frame.z:
        sv.apply_gate("Z", ids.index(v))
    return sv
