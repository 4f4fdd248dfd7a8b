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

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from sicluster.graphsim import GraphSimulator
from sicluster.graphstate import GraphState
from sicluster.lattice import PauliFrame
from sicluster.rng import CoinRows, substream
from sicluster.statevec import DenseRegister, SizeCapError, StateVector, mat_rz
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
        if isinstance(self.angle, bool):
            raise PatternError(f"angle must be a finite number, not a boolean, got {self.angle!r}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise PatternError(f"angle must be a finite number, got {self.angle!r}")
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
        """The pattern of a document in the form ``to_json`` writes.  Vertex
        ids (the inputs, outputs, each step's ``v``, ``s`` and ``t``, and each
        correction's key and ``x``/``z`` sets) must be integers, booleans
        excluded, and ``corrections`` an object of objects; any other
        document raises PatternError."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PatternError(f"invalid pattern JSON: {exc}") from exc
        try:
            steps = [
                MeasurementStep(
                    vertex=_ids([d["v"]])[0],
                    basis=d.get("basis"),
                    angle=d.get("angle"),
                    s_adapt=frozenset(_ids(d.get("s", ()))),
                    t_adapt=frozenset(_ids(d.get("t", ()))),
                )
                for d in doc["steps"]
            ]
            corrections = doc.get("corrections", {})
            if not (isinstance(corrections, dict)
                    and all(isinstance(sets, dict) for sets in corrections.values())):
                raise PatternError("corrections must be an object of objects")
            corrections = {
                int(out): {"x": frozenset(_ids(sets.get("x", ()))),
                           "z": frozenset(_ids(sets.get("z", ())))}
                for out, sets in corrections.items()
            }
            return cls(_ids(doc["inputs"]), _ids(doc["outputs"]), steps, corrections)
        except (KeyError, TypeError, ValueError) as exc:
            raise PatternError(f"malformed pattern document: {exc}") from exc


def _ids(values) -> list[int]:
    """A pattern document's vertex ids as a list; ValueError unless each is
    an integer (booleans and floats included)."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        raise ValueError(f"vertex ids must be integers, got {values!r}")
    return values


@dataclass
class PatternResult:
    outcomes: dict[int, int]
    order: list[int]
    frame: PauliFrame | None  # None for a per-slice dense run
    output_state: StateVector | None = None  # dense backend
    output_graph: GraphState | None = None  # stabilizer backend


def _outcome_parity(outcomes: dict, deps):
    """The parity of the -1 outcomes among ``deps``: an int, or an array of
    one parity per slice when each outcome is an array of one per slice."""
    return sum(outcomes[v] == -1 for v in deps) & 1


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
    |+>), one state rather than a batch.  The stabilizer backend runs the
    graph-state engine; it is restricted to Pauli steps and |+> inputs and
    returns the output as a graph state.  Both backends refuse a pattern that leaves an unmeasured
    non-output vertex entangled with the outputs.  Both borrow the cluster's
    adjacency and copy only the neighbour sets the pattern touches, so a
    small pattern on a large cluster copies little; the cluster is never
    changed, and must not change while the pattern runs.
    """
    _check_runnable(cluster, pattern)
    if rng is None:
        rng = np.random.default_rng(0)
    if backend == "statevector":
        if input_state is not None and input_state.batch != 1:
            raise PatternError("execute_pattern runs one input state, not a batch")
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


def _effective_angle(st: MeasurementStep, outcomes: dict):
    """The adapted angle of a step: a float, or an array of one angle per
    slice (each the float its run alone would give) for per-slice outcomes."""
    a = st.nominal_angle()
    flip, turn = _outcome_parity(outcomes, st.s_adapt), _outcome_parity(outcomes, st.t_adapt)
    if isinstance(flip, np.ndarray) or isinstance(turn, np.ndarray):
        a = np.where(flip, -a, a)
        return np.where(turn, a + np.pi, a)
    if flip:
        a = -a
    if turn:
        a += np.pi
    return a


def _execute_dense(cluster, pattern, input_state, rng):
    """The dense backend.  A ``Generator`` drives one run.  ``rng`` may
    instead be ``CoinRows`` of one row per slice of a batched
    ``input_state``: each slice is then its own run, drawing its coins from
    its own row, and the result holds one outcome per slice for each vertex
    and the batched output state, but no frame (``_distances`` applies the
    corrections per slice).  A slice left mixed by the pattern refuses the
    batch, naming the first such slice's purity."""
    if input_state is None:
        reg = DenseRegister(adjacency=cluster._adj)
    elif input_state.n != len(pattern.inputs):
        raise PatternError("input state size does not match pattern inputs")
    else:
        reg = DenseRegister(pattern.inputs, input_state.psi, cluster._adj, input_state.batch)
    outcomes: dict = {}
    order: list[int] = []
    for st in pattern.steps:
        basis = Basis.Z if st.basis == "Z" else _effective_angle(st, outcomes)
        outcomes[st.vertex], _ = reg.measure(st.vertex, basis, rng)
        order.append(st.vertex)

    outs = list(pattern.outputs)
    batch = reg.sv.batch
    # One (outputs x rest) matrix per slice.
    mat = reg.gather(outs).reshape(1 << len(outs), -1, batch).transpose(2, 0, 1)
    if mat.shape[2] > 1:
        # Unmeasured vertices still in the array are tolerated only when the
        # pattern has disentangled them from the outputs: demand a pure trace.
        rho = mat @ mat.conj().transpose(0, 2, 1)
        purity = np.einsum("bij,bji->b", rho, rho).real
        mixed = np.flatnonzero(purity < 1 - 1e-9)
        if mixed.size:
            # Name the unmeasured vertices the array holds beside the outputs:
            # those the outputs can be entangled with.
            stragglers = sorted(v for v in reg.axes if v not in outs)
            raise PatternError(
                "pattern leaves unmeasured vertices entangled with the outputs: "
                f"{stragglers} (purity {purity[mixed[0]]:.6f})")
        psi = np.linalg.eigh(rho)[1][:, :, -1]
    else:
        psi = mat[:, :, 0] / np.linalg.norm(mat, axis=(1, 2))[:, None]
    frame = _frame_from_corrections(pattern, outcomes) \
        if isinstance(rng, np.random.Generator) else None
    return PatternResult(outcomes, order, frame, output_state=StateVector(len(outs), psi.T, batch))


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
    graph = GraphState.adopt({keep[a]: {keep[b] for b in nbrs} for a, nbrs in adj.items()},
                             {keep[i]: op for i, op in ops.items()})
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
    return rx(gamma) @ mat_rz(beta) @ rx(alpha)


# -- wire carving -----------------------------------------------------------------


def canonical_adjacency(cluster: GraphState) -> GraphState:
    """Same adjacency, vertex operators dropped.

    Patterns are defined against the canonical cluster; a protocol-produced
    graph carries coset operators and a Pauli frame that stay byproduct
    bookkeeping (a device would fold them into its measurement bases), so
    simulation-level pattern runs use the bare adjacency.  The returned graph
    shares the cluster's neighbour sets, copying none, so neither graph may
    change while both are in use: the rule ``BorrowedAdjacency`` states for
    the executors, which only borrow a cluster.
    """
    g = GraphState.__new__(GraphState)
    g._adj, g.vertex_ops = cluster._adj, {}
    return g


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
    cut = {st.vertex for st in prefix}
    pre_z = {v: cluster._adj[v] & cut for v in path}
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


@functools.cache
def _spanning_inputs(k: int) -> tuple[tuple[str, ...], np.ndarray]:
    """The names of the 4^k product inputs and their states, one per column
    (read-only, as every caller gets the same array)."""
    combos = list(itertools.product(_BASIS_STATES, repeat=k))
    states = np.array([functools.reduce(np.kron, map(_BASIS_STATES.get, combo), np.ones(1))
                       for combo in combos]).T
    states.flags.writeable = False
    return tuple("|" + ",".join(combo) + ">" for combo in combos), states


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

    The 4^k inputs and the seeds run in one dense pass, as a batch of
    4^k x S slices, input-major: slice i runs input i // S on seed i % S,
    the order of one ``execute_pattern`` per input and seed.  Each slice is
    its own run: it draws its coins from its own row of a table that holds,
    for seed s, the first ``len(pattern.steps)`` coins of the substream
    ``substream(root_seed, "verify", s)``, so it takes the branches and
    gets the outcomes and frame of that single run.  If the dense cap
    (which counts the log2 of the batch) refuses the batch, the slices run
    in consecutive chunks, the chunk halving down to one slice, which the
    cap refuses exactly as it would a single run; a purity refusal names
    the first slice that fails it.
    """
    seeds = list(seeds)
    if not seeds:
        raise PatternError("logical verification needs at least one seed")
    k = len(pattern.inputs)
    if k > 2:
        raise PatternError("logical verification is limited to 2 logical qubits")
    if len(pattern.outputs) != k:
        raise PatternError(f"logical verification needs as many outputs as inputs, "
                           f"got {len(pattern.outputs)} outputs for {k} inputs")
    dim = 1 << k
    target = np.asarray(target, complex)
    if target.shape != (dim, dim):
        raise PatternError(f"target must be {dim}x{dim}")
    if not np.all(np.isfinite(target)):
        raise PatternError("target must be finite")
    _check_runnable(cluster, pattern)
    names, inputs = _spanning_inputs(k)
    states = np.repeat(inputs, len(seeds), axis=1)
    expected = np.repeat(target @ inputs, len(seeds), axis=1)
    coins = np.tile([substream(root_seed, "verify", int(s)).random(len(pattern.steps))
                     for s in seeds], (len(names), 1))

    def distances(part: slice) -> np.ndarray:
        batch = StateVector(k, states[:, part], len(coins[part]))
        return _distances(_execute_dense(cluster, pattern, batch, CoinRows(coins[part])),
                          pattern, expected[:, part])

    runs = chunk = states.shape[1]
    while True:
        try:
            dist = np.concatenate([distances(slice(i, i + chunk)) for i in range(0, runs, chunk)])
            break
        except SizeCapError:
            if chunk == 1:
                raise
            chunk //= 2
    worst = dist.reshape(len(names), -1).max(axis=1)
    per_input = {name: float(d) for name, d in zip(names, worst)}
    return LogicalChannelReport(distance=max(per_input.values()), per_input=per_input,
                                n_seeds=len(seeds), target_shape=target.shape)


def _distances(res: PatternResult, pattern, expected) -> np.ndarray:
    """1 - fidelity of each slice of a per-slice dense run's frame-corrected
    output to the matching column of ``expected``.  The frame is read off
    each slice's outcomes: a frame X swaps the halves of its output's axis
    and a frame Z negates the upper half, as the gates would (in place, in
    the result's output state)."""
    k = len(pattern.outputs)
    psi = res.output_state.psi.reshape([2] * k + [-1])
    for j, v in enumerate(pattern.outputs):
        sets = pattern.corrections.get(v, {})
        flip_x = _outcome_parity(res.outcomes, sets.get("x", ()))
        if np.any(flip_x):
            psi = np.where(flip_x, np.flip(psi, j), psi)
        flip_z = _outcome_parity(res.outcomes, sets.get("z", ()))
        if np.any(flip_z):
            upper = psi[(slice(None),) * j + (1,)]
            upper[...] = np.where(flip_z, -upper, upper)
    fid = np.abs(np.einsum("ib,ib->b", expected.conj(), psi.reshape(1 << k, -1)))
    return 1.0 - np.minimum(1.0, fid)
