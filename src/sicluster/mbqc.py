"""One-way-model execution: measurement patterns consuming cluster states.

A pattern lists single-qubit measurements (Pauli bases at any scale via the
stabilizer backend, which runs the graph-state engine of
``sicluster.graphsim``; arbitrary xy-plane angles via the dense backend)
with outcome-adaptive angle sign flips, plus byproduct correction sets that
determine the final Pauli frame on the output vertices.  Arbitrary angles
are realized exactly as a pre-measurement Z rotation followed by a
sigma_z-frame readout.

The dense backend defers the cluster's CZs on a ``statevec.DenseRegister``:
a vertex is in the amplitude array only from the first readout that needs
its C-phases to its own, so a chain holds 2 qubits whatever its length.

Angle convention: measuring vertex v at angle a (basis cos(a) X + sin(a) Y)
with outcome bit m teleports X^m J(-a) onto the logical qubit, where
J(a) = H diag(1, e^{ia}).  The shipped chain builder uses this to realize
J-products; measuring at angles (0, -alpha, -beta, -gamma) along a 5-vertex
line gives Rx(gamma) Rz(beta) Rx(alpha) up to the tracked byproducts.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from sicluster.graphsim import GraphSimulator
from sicluster.graphstate import GraphState
from sicluster.lattice import PauliFrame
from sicluster.rng import substream
from sicluster.statevec import DenseRegister, StateVector
from sicluster.tableau import (  # noqa: F401  (the benchmark tracer patches the last two here)
    Basis,
    from_graph_state,
    restricted_stab_graph,
)

_HALF_PI = np.pi / 2


class PatternError(ValueError):
    """Malformed pattern or pattern/cluster mismatch."""


class NoPathError(RuntimeError):
    """carve_wire found no live route between the endpoints."""


@dataclass(frozen=True)
class MeasurementStep:
    """One measurement: Pauli basis ("X"/"Y"/"Z") or an xy-plane angle.

    ``s_adapt`` flips the angle sign on odd outcome parity of the listed
    vertices; ``t_adapt`` adds pi.  Z-basis steps take no adaptation.
    """

    vertex: int
    basis: str | None = None
    angle: float | None = None
    s_adapt: frozenset = field(default_factory=frozenset)
    t_adapt: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if (self.basis is None) == (self.angle is None):
            raise PatternError("step needs exactly one of basis/angle")
        if self.basis is not None and self.basis not in ("X", "Y", "Z"):
            raise PatternError(f"bad basis {self.basis!r}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise PatternError(f"angle must be finite, got {self.angle!r}")
        if self.basis == "Z" and (self.s_adapt or self.t_adapt):
            raise PatternError("Z-basis steps take no adaptation sets")
        object.__setattr__(self, "s_adapt", frozenset(self.s_adapt))
        object.__setattr__(self, "t_adapt", frozenset(self.t_adapt))

    def nominal_angle(self) -> float | None:
        if self.angle is not None:
            return float(self.angle)
        if self.basis == "X":
            return 0.0
        if self.basis == "Y":
            return _HALF_PI
        return None  # Z


@dataclass
class MeasurementPattern:
    inputs: list[int]
    outputs: list[int]
    steps: list[MeasurementStep]
    corrections: dict[int, dict[str, frozenset]] = field(default_factory=dict)

    def validate(self, cluster: GraphState) -> None:
        verts = cluster._adj
        for v in self.inputs + self.outputs:
            if v not in verts:
                raise PatternError(f"pattern vertex {v} not in cluster")
        measured: set[int] = set()
        outs = set(self.outputs)
        for st in self.steps:
            if st.vertex not in verts:
                raise PatternError(f"measured vertex {st.vertex} not in cluster")
            if st.vertex in outs:
                raise PatternError(f"output vertex {st.vertex} cannot be measured")
            if st.vertex in measured:
                raise PatternError(f"vertex {st.vertex} measured twice")
            for dep in st.s_adapt | st.t_adapt:
                if dep not in measured:
                    raise PatternError(
                        f"step at {st.vertex} adapts on unmeasured vertex {dep}")
            measured.add(st.vertex)
        for out, sets in self.corrections.items():
            if out not in outs:
                raise PatternError(f"correction target {out} is not an output")
            for dep in set(sets.get("x", ())) | set(sets.get("z", ())):
                if dep not in measured:
                    raise PatternError(
                        f"correction for {out} references unmeasured vertex {dep}")

    # -- JSON wire format ---------------------------------------------------

    def to_json(self) -> str:
        steps = []
        for st in self.steps:
            d: dict = {"v": st.vertex}
            if st.basis is not None:
                d["basis"] = st.basis
            else:
                d["angle"] = st.angle
            if st.s_adapt:
                d["s"] = sorted(st.s_adapt)
            if st.t_adapt:
                d["t"] = sorted(st.t_adapt)
            steps.append(d)
        doc = {
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "steps": steps,
            "corrections": {
                str(out): {"x": sorted(sets.get("x", ())), "z": sorted(sets.get("z", ()))}
                for out, sets in sorted(self.corrections.items())
            },
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ": ")) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MeasurementPattern":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PatternError(f"invalid pattern JSON: {exc}") from exc
        try:
            steps = [
                MeasurementStep(
                    vertex=int(d["v"]),
                    basis=d.get("basis"),
                    angle=d.get("angle"),
                    s_adapt=frozenset(d.get("s", ())),
                    t_adapt=frozenset(d.get("t", ())),
                )
                for d in doc["steps"]
            ]
            corrections = {
                int(out): {"x": frozenset(sets.get("x", ())), "z": frozenset(sets.get("z", ()))}
                for out, sets in doc.get("corrections", {}).items()
            }
            return cls(list(map(int, doc["inputs"])), list(map(int, doc["outputs"])),
                       steps, corrections)
        except (KeyError, TypeError, ValueError) as exc:
            raise PatternError(f"malformed pattern document: {exc}") from exc


@dataclass
class PatternResult:
    outcomes: dict[int, int]
    order: list[int]
    frame: PauliFrame
    output_state: StateVector | None = None  # dense backend
    output_graph: GraphState | None = None  # stabilizer backend


def _outcome_parity(outcomes: dict[int, int], deps) -> int:
    return sum(1 for v in deps if outcomes[v] == -1) & 1


def _frame_from_corrections(pattern: MeasurementPattern, outcomes: dict[int, int]) -> PauliFrame:
    frame = PauliFrame()
    for out, sets in pattern.corrections.items():
        if _outcome_parity(outcomes, sets.get("x", ())):
            frame.flip_x(out)
        if _outcome_parity(outcomes, sets.get("z", ())):
            frame.flip_z(out)
    return frame


def execute_pattern(cluster: GraphState, pattern: MeasurementPattern,
                    input_state: StateVector | None = None,
                    backend: str = "statevector", rng=None) -> PatternResult:
    """Run a pattern on a cluster and return outcomes, frame, output state.

    The dense backend accepts any angles and an arbitrary ``input_state``
    over ``pattern.inputs`` (cluster qubits not listed as inputs start in
    |+>).  The stabilizer backend runs the graph-state engine; it is
    restricted to Pauli steps and |+> inputs and returns the output as a
    graph state.  Both backends refuse a pattern that leaves an unmeasured
    non-output vertex entangled with the outputs.  Both borrow the cluster's
    adjacency and copy only the neighbour sets the pattern touches, so a
    small pattern on a large cluster copies little; the cluster is never
    changed, and must not change while the pattern runs.
    """
    _check_runnable(cluster, pattern)
    if rng is None:
        rng = np.random.default_rng(0)
    if backend == "statevector":
        return _execute_dense(cluster, pattern, input_state, rng)
    if backend == "stabilizer":
        if input_state is not None:
            raise PatternError("stabilizer backend supports |+> inputs only")
        return _execute_stabilizer(cluster, pattern, rng)
    raise PatternError(f"unknown backend {backend!r}")


def _check_runnable(cluster: GraphState, pattern: MeasurementPattern) -> None:
    """Refuse an invalid pattern, or a cluster that carries vertex operators."""
    pattern.validate(cluster)
    for v in sorted(cluster.vertex_ops):
        if not cluster.op(v).is_identity():
            raise PatternError("execute_pattern needs a canonical cluster "
                               f"(vertex {v} carries {cluster.op(v).name})")


def _effective_angle(st: MeasurementStep, outcomes: dict[int, int]) -> float:
    a = st.nominal_angle()
    if _outcome_parity(outcomes, st.s_adapt):
        a = -a
    if _outcome_parity(outcomes, st.t_adapt):
        a += np.pi
    return a


def _execute_dense(cluster, pattern, input_state, rng) -> PatternResult:
    if input_state is None:
        reg = DenseRegister(adjacency=cluster._adj)
    elif input_state.n != len(pattern.inputs):
        raise PatternError("input state size does not match pattern inputs")
    else:
        reg = DenseRegister(pattern.inputs, input_state.psi, cluster._adj)
    outcomes: dict[int, int] = {}
    order: list[int] = []
    for st in pattern.steps:
        basis = Basis.Z if st.basis == "Z" else _effective_angle(st, outcomes)
        outcomes[st.vertex], _ = reg.measure(st.vertex, basis, rng)
        order.append(st.vertex)

    outs = list(pattern.outputs)
    mat = reg.gather(outs).reshape(1 << len(outs), -1)
    if mat.shape[1] > 1:
        # Unmeasured vertices still in the array are tolerated only when the
        # pattern has disentangled them from the outputs: demand a pure trace.
        rho = mat @ mat.conj().T
        purity = float(np.real(np.trace(rho @ rho)))
        if purity < 1 - 1e-9:
            # Name the unmeasured vertices the array holds beside the outputs:
            # those the outputs can be entangled with.
            stragglers = sorted(v for v in reg.axes if v not in outs)
            raise PatternError(
                "pattern leaves unmeasured vertices entangled with the outputs: "
                f"{stragglers} (purity {purity:.6f})")
        psi = np.linalg.eigh(rho)[1][:, -1]
    else:
        psi = mat[:, 0] / np.linalg.norm(mat)
    frame = _frame_from_corrections(pattern, outcomes)
    return PatternResult(outcomes, order, frame, output_state=StateVector(len(outs), psi))


def _execute_stabilizer(cluster, pattern, rng) -> PatternResult:
    sim = GraphSimulator.from_graph(cluster)
    outcomes: dict[int, int] = {}
    order: list[int] = []
    for st in pattern.steps:
        q = st.vertex
        if st.basis == "Z":
            outcome, _ = sim.measure(q, Basis.Z, rng)
        else:
            a = _effective_angle(st, outcomes) % (2 * np.pi)
            quarter = a / _HALF_PI
            if abs(quarter - round(quarter)) > 1e-12:
                raise PatternError(
                    f"stabilizer backend needs Pauli angles, got {a:.6f} at "
                    f"vertex {st.vertex}")
            quarter = int(round(quarter)) % 4
            basis = Basis.X if quarter % 2 == 0 else Basis.Y
            negated = quarter >= 2
            # Measuring -X (or -Y) is measuring X (Y) conjugated by Z; doing
            # it that way keeps coin draws aligned with the dense backend.
            if negated:
                sim.gate("Z", q)
            outcome, _ = sim.measure(q, basis, rng)
            if negated:
                sim.gate("Z", q)
        outcomes[q] = outcome
        order.append(q)
    # Measured vertices are isolated now, so the outputs are in a product
    # with everything else exactly when no straggler (an unmeasured
    # non-output vertex) is adjacent to an output: the entanglement of a
    # graph state across a cut is the GF(2) rank of the cut's edges.
    outs = set(pattern.outputs)
    entangled = set().union(*(sim.neighbors(v) for v in outs)) - outs
    if entangled:
        raise PatternError(
            f"pattern leaves vertex {min(entangled)} entangled with the outputs")
    # Keep Pauli byproducts inside the vertex operators: the graph is the
    # full post-measurement state, exactly like the dense lane's amplitudes;
    # the returned frame holds only the pattern's byproduct corrections.
    keep = sorted(outs)
    adj, ops = sim.take_restricted_graph(keep)
    edges = [(keep[a], keep[b]) for a, nbrs in adj.items() for b in nbrs if a < b]
    graph = GraphState(keep, edges, {keep[i]: op for i, op in ops.items()})
    frame = _frame_from_corrections(pattern, outcomes)
    return PatternResult(outcomes, order, frame, output_graph=graph)


# -- pattern builders -----------------------------------------------------------


def chain_pattern(angles, vertices=None, pre_z=None) -> MeasurementPattern:
    """Pattern measuring a 1-D cluster wire at the given angles in order.

    Realizes J(-a_{k-1}) ... J(-a_0) on the teleported qubit; byproduct
    tracking follows the X^m J(-a) teleportation identity, so only angle
    sign adaptation (s sets) is ever needed.

    ``pre_z`` maps a wire vertex to the set of earlier-measured vertices
    whose Z-cut outcomes left a pending Z on it (the carving prefix); those
    dependencies are folded into the adaptation and correction sets.
    """
    angles = list(angles)
    k = len(angles)
    if vertices is None:
        vertices = list(range(k + 1))
    if len(vertices) != k + 1:
        raise PatternError("need one more vertex than angles")
    pre_z = {v: frozenset(deps) for v, deps in (pre_z or {}).items()}
    x_set: frozenset = frozenset()
    z_set: frozenset = frozenset()
    steps = []
    for j, a in enumerate(angles):
        v = vertices[j]
        z_set ^= pre_z.get(v, frozenset())
        if a == 0.0:
            steps.append(MeasurementStep(v, basis="X", s_adapt=frozenset(),
                                         t_adapt=frozenset()))
        else:
            steps.append(MeasurementStep(v, angle=float(a), s_adapt=x_set))
        x_set, z_set = frozenset({v}) ^ z_set, x_set
    out = vertices[-1]
    z_set ^= pre_z.get(out, frozenset())
    return MeasurementPattern(
        inputs=[vertices[0]], outputs=[out], steps=steps,
        corrections={out: {"x": x_set, "z": z_set}})


def wire_pattern(length: int, vertices=None) -> MeasurementPattern:
    """Identity wire on a line of ``length`` vertices (odd length)."""
    if length < 3 or length % 2 == 0:
        raise PatternError("identity wire needs an odd length >= 3")
    return chain_pattern([0.0] * (length - 1), vertices)


def rotation_chain_pattern(alpha: float, beta: float, gamma: float,
                           vertices=None) -> MeasurementPattern:
    """5-vertex chain realizing Rx(gamma) Rz(beta) Rx(alpha) up to frame."""
    return chain_pattern([0.0, -alpha, -beta, -gamma], vertices)


def rotation_chain_target(alpha: float, beta: float, gamma: float) -> np.ndarray:
    rx = lambda t: np.array([[np.cos(t / 2), -1j * np.sin(t / 2)],
                             [-1j * np.sin(t / 2), np.cos(t / 2)]])
    rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    return rx(gamma) @ rz(beta) @ rx(alpha)


def cz_pattern() -> tuple[GraphState, MeasurementPattern]:
    """Graph-native CZ: two input/output vertices joined by one edge."""
    cluster = GraphState([0, 1], [(0, 1)])
    return cluster, MeasurementPattern(inputs=[0, 1], outputs=[0, 1], steps=[])


# -- wire carving -----------------------------------------------------------------


def canonical_adjacency(cluster: GraphState) -> GraphState:
    """Same adjacency, vertex operators dropped.

    Patterns are defined against the canonical cluster; a protocol-produced
    graph carries coset operators and a Pauli frame that stay byproduct
    bookkeeping (a device would fold them into its measurement bases), so
    simulation-level pattern runs use the bare adjacency.
    """
    return GraphState(cluster.vertices(), cluster.edges())


def carved_wire_pattern(cluster: GraphState, start: int, end: int,
                        forbidden=(), angles=None) -> tuple[MeasurementPattern, list[int]]:
    """Carve a path and build the full pattern: Z prefix plus wire measures.

    The Z cuts leave outcome-dependent Z marks on their path neighbors;
    these feed the chain's adaptation and correction sets so the combined
    pattern realizes the chain channel exactly.  ``angles`` defaults to an
    identity wire (all X measurements).
    """
    prefix, path = carve_wire(cluster, start, end, forbidden)
    if angles is None:
        angles = [0.0] * (len(path) - 1)
    elif len(angles) != len(path) - 1:
        raise PatternError(f"need {len(path) - 1} angles for this path")
    cut = [st.vertex for st in prefix]
    pre_z = {v: {u for u in cut if cluster.has_edge(u, v)} for v in path}
    pattern = chain_pattern(angles, vertices=path, pre_z=pre_z)
    pattern.steps = prefix + pattern.steps
    return pattern, path


def carve_wire(cluster: GraphState, start: int, end: int,
               forbidden=()) -> tuple[list[MeasurementStep], list[int]]:
    """Shortest live path start->end plus the Z-measurement prefix.

    Breadth-first search with deterministic lowest-id tie breaking; the
    prefix removes every off-path neighbor of the path so that the path
    vertices form a bare line graph.  Raises NoPathError when the dead set
    disconnects the endpoints.
    """
    forbidden = set(forbidden)
    adj = cluster._adj
    for v in (start, end):
        if v not in adj:
            raise PatternError(f"endpoint {v} not in cluster")
        if v in forbidden:
            raise NoPathError(f"endpoint {v} is forbidden")
    parent: dict[int, int | None] = {start: None}
    frontier = [start]
    while frontier and end not in parent:
        nxt = []
        for v in frontier:
            for u in sorted(adj[v]):
                if u in forbidden or u in parent:
                    continue
                parent[u] = v
                nxt.append(u)
        frontier = nxt
    if end not in parent:
        raise NoPathError(f"no live path from {start} to {end}")
    path = [end]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    on_path = set(path)
    trim = sorted({u for v in path for u in adj[v]} - on_path - forbidden)
    prefix = [MeasurementStep(u, basis="Z") for u in trim]
    return prefix, path


# -- logical verification -----------------------------------------------------------


_BASIS_STATES = {
    "0": np.array([1, 0], complex),
    "1": np.array([0, 1], complex),
    "+": np.array([1, 1], complex) / np.sqrt(2),
    "+i": np.array([1, 1j], complex) / np.sqrt(2),
}


@dataclass
class LogicalChannelReport:
    distance: float
    per_input: dict[str, float]
    n_seeds: int
    target_shape: tuple

    def ok(self, tol: float = 1e-9) -> bool:
        return self.distance < tol


def verify_logical(cluster: GraphState, pattern: MeasurementPattern,
                   target: np.ndarray, seeds=range(5),
                   root_seed: int = 0) -> LogicalChannelReport:
    """Compare the frame-corrected pattern channel to a target unitary.

    Runs the dense backend on the spanning input set {|0>,|1>,|+>,|+i>}^k,
    applies the byproduct frame, and reports the worst infidelity
    1 - |<target psi|output>| over inputs and seeds.  (A sqrt-style trace
    distance would amplify double-precision roundoff to ~1e-8 and could
    never certify at the 1e-9 level; the fidelity gap is zero iff the
    channels coincide up to global phase, which is the property needed.)
    """
    seeds = list(seeds)  # iterated once per input state; a generator would not be
    if not seeds:
        raise PatternError("logical verification needs at least one seed")
    k = len(pattern.inputs)
    if k > 2:
        raise PatternError("logical verification is limited to 2 logical qubits")
    dim = 1 << k
    target = np.asarray(target, complex)
    if target.shape != (dim, dim):
        raise PatternError(f"target must be {dim}x{dim}")
    if not np.all(np.isfinite(target)):
        raise PatternError("target must be finite")
    _check_runnable(cluster, pattern)
    idx = {v: i for i, v in enumerate(pattern.outputs)}
    labels = list(_BASIS_STATES)
    per_input: dict[str, float] = {}
    worst = 0.0
    for combo in itertools.product(labels, repeat=k):
        vec = np.array([1.0], complex)
        for lab in combo:
            vec = np.kron(vec, _BASIS_STATES[lab])
        expected = target @ vec
        name = "|" + ",".join(combo) + ">"
        inp = StateVector(k, vec)
        dmax = 0.0
        for s in seeds:
            rng = substream(root_seed, "verify", int(s))
            res = _execute_dense(cluster, pattern, inp, rng)
            out = res.output_state
            for v in res.frame.x:
                out.apply_gate("X", idx[v])
            for v in res.frame.z:
                out.apply_gate("Z", idx[v])
            fid = min(1.0, float(abs(np.vdot(expected, out.psi))))
            dmax = max(dmax, 1.0 - fid)
        per_input[name] = dmax
        worst = max(worst, dmax)
    return LogicalChannelReport(distance=worst, per_input=per_input,
                                n_seeds=len(seeds), target_shape=target.shape)
