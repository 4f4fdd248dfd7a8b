"""Measurement patterns, adaptive execution, carving, logical verification."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sicluster import mbqc
from sicluster.graphsim import GraphSimulator
from sicluster.graphstate import BorrowedAdjacency, GraphState, grid_graph, line_graph
from sicluster.mbqc import (
    MeasurementPattern,
    MeasurementStep,
    NoPathError,
    PatternError,
    carve_wire,
    carved_wire_pattern,
    chain_pattern,
    cz_pattern,
    execute_pattern,
    rotation_chain_pattern,
    rotation_chain_target,
    verify_logical,
    wire_pattern,
)
from sicluster.statevec import DenseRegister, StateVector, tableau_from_statevector
from sicluster.tableau import Basis, from_graph_state, same_stabilizer_group


class TestPatternType:
    def test_step_needs_basis_xor_angle(self):
        with pytest.raises(PatternError):
            MeasurementStep(0)
        with pytest.raises(PatternError):
            MeasurementStep(0, basis="X", angle=0.3)
        with pytest.raises(PatternError):
            MeasurementStep(0, basis="Q")

    @pytest.mark.parametrize("angle", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_rejected(self, angle):
        with pytest.raises(PatternError, match="finite"):
            MeasurementStep(0, angle=angle)

    def test_nan_angle_in_json_rejected(self):
        text = wire_pattern(3).to_json().replace('"basis": "X"', '"angle": NaN', 1)
        with pytest.raises(PatternError, match="finite"):
            MeasurementPattern.from_json(text)

    def test_z_takes_no_adaptation(self):
        with pytest.raises(PatternError):
            MeasurementStep(0, basis="Z", s_adapt={1})

    def test_validation_rules(self):
        cl = line_graph(3)
        with pytest.raises(PatternError):  # adaptation on unmeasured vertex
            MeasurementPattern([0], [2], [
                MeasurementStep(0, angle=0.3, s_adapt={1}),
                MeasurementStep(1, basis="X")]).validate(cl)
        with pytest.raises(PatternError):  # output measured
            MeasurementPattern([0], [2], [MeasurementStep(2, basis="X")]).validate(cl)
        with pytest.raises(PatternError):  # unknown vertex
            MeasurementPattern([0], [9], []).validate(cl)

    def test_json_roundtrip(self):
        pat = rotation_chain_pattern(0.3, -0.7, 1.1)
        text = pat.to_json()
        back = MeasurementPattern.from_json(text)
        assert back.to_json() == text

    def test_bad_json(self):
        with pytest.raises(PatternError):
            MeasurementPattern.from_json("{nope")
        with pytest.raises(PatternError):
            MeasurementPattern.from_json('{"inputs": []}')


class TestExecution:
    def test_z_measure_all_gives_product_state(self):
        cl = line_graph(4)
        pat = MeasurementPattern([], [3], [MeasurementStep(v, basis="Z")
                                           for v in (0, 1, 2)])
        res = execute_pattern(cl, pat, backend="stabilizer",
                              rng=np.random.default_rng(0))
        assert res.output_graph.edges() == []

    def test_stabilizer_dense_outcome_agreement(self):
        cl = line_graph(5)
        pat = MeasurementPattern([0], [4], [
            MeasurementStep(0, basis="X"),
            MeasurementStep(1, basis="Y"),
            MeasurementStep(2, basis="X", t_adapt={1}),
            MeasurementStep(3, basis="Y", s_adapt={0}),
        ])
        for seed in range(20):
            a = execute_pattern(cl, pat, backend="stabilizer",
                                rng=np.random.default_rng(seed))
            b = execute_pattern(cl, pat, backend="statevector",
                                rng=np.random.default_rng(seed))
            assert a.outcomes == b.outcomes
            assert a.frame == b.frame

    def test_stabilizer_output_graph_matches_dense_state(self):
        cl = grid_graph(2, 3)
        pat = MeasurementPattern([], [0, 3], [
            MeasurementStep(v, basis=b) for v, b in
            ((1, "Y"), (2, "X"), (4, "Z"), (5, "Y"))])
        for seed in range(10):
            a = execute_pattern(cl, pat, backend="stabilizer",
                                rng=np.random.default_rng(seed))
            b = execute_pattern(cl, pat, backend="statevector",
                                rng=np.random.default_rng(seed))
            assert a.frame == b.frame
            # The graph (vertex ops included) is the full output state.
            relabel = {v: i for i, v in enumerate(sorted(pat.outputs))}
            t_graph = from_graph_state(a.output_graph.relabeled(relabel))
            t_dense = tableau_from_statevector(b.output_state.psi)
            assert same_stabilizer_group(t_graph, t_dense)

    def test_large_grid_pauli_pattern_agreement(self):
        # 16-qubit grid: stabilizer and dense lanes agree per seed on a
        # full Pauli sweep leaving two outputs.
        cl = grid_graph(4, 4)
        bases = ["X", "Y", "X", "Z", "Y", "X", "Y", "Z", "X", "Y", "X", "Y", "X", "Y"]
        measured = [v for v in range(16) if v not in (5, 10)]
        pat = MeasurementPattern([], [5, 10], [
            MeasurementStep(v, basis=b) for v, b in zip(measured, bases)])
        for seed in range(5):
            a = execute_pattern(cl, pat, backend="stabilizer",
                                rng=np.random.default_rng(seed))
            b = execute_pattern(cl, pat, backend="statevector",
                                rng=np.random.default_rng(seed))
            assert a.outcomes == b.outcomes

    def test_non_pauli_angle_rejected_on_stabilizer(self):
        cl = line_graph(3)
        pat = MeasurementPattern([0], [2], [
            MeasurementStep(0, angle=0.3), MeasurementStep(1, basis="X")])
        with pytest.raises(PatternError):
            execute_pattern(cl, pat, backend="stabilizer", rng=np.random.default_rng(0))

    def test_cluster_with_vertex_ops_rejected(self):
        from sicluster import cliffords

        g = GraphState(range(2), [(0, 1)], vertex_ops={0: cliffords.S})
        pat = MeasurementPattern([0], [1], [MeasurementStep(0, basis="X")])
        with pytest.raises(PatternError):
            execute_pattern(g, pat, rng=np.random.default_rng(0))

    def test_vertex_op_refusal_names_lowest_vertex(self):
        from sicluster import cliffords

        g = GraphState(range(4), [(0, 1), (1, 2), (2, 3)],
                       vertex_ops={3: cliffords.S, 2: cliffords.H})
        pat = MeasurementPattern([0], [1], [MeasurementStep(0, basis="X")])
        with pytest.raises(PatternError, match="vertex 2 carries"):
            execute_pattern(g, pat, rng=np.random.default_rng(0))


@st.composite
def pauli_patterns(draw):
    """A graph of at most 10 vertices and a Pauli pattern on it: X/Y/Z or
    quarter-angle steps with s/t adaptation, some vertices left unmeasured."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    order = draw(st.permutations(range(n)))
    n_out = draw(st.integers(1, min(3, n)))
    outputs, rest = order[:n_out], order[n_out:]
    measured = rest[:draw(st.integers(0, len(rest)))]  # the rest are stragglers
    earlier = st.sets(st.sampled_from(measured)) if measured else st.just(set())

    steps = []
    for j, v in enumerate(measured):
        kind = draw(st.sampled_from(["X", "Y", "Z", "angle"]))
        if kind == "Z":
            steps.append(MeasurementStep(v, basis="Z"))
            continue
        deps = [draw(earlier) & set(measured[:j]) for _ in range(2)]
        if kind == "angle":
            steps.append(MeasurementStep(v, angle=draw(st.integers(-4, 4)) * np.pi / 2,
                                         s_adapt=deps[0], t_adapt=deps[1]))
        else:
            steps.append(MeasurementStep(v, basis=kind, s_adapt=deps[0], t_adapt=deps[1]))
    corrections = {v: {"x": draw(earlier), "z": draw(earlier)} for v in outputs}
    pattern = MeasurementPattern([], outputs, steps, corrections)
    return GraphState(range(n), edges), pattern, draw(st.integers(0, 2**16))


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=pauli_patterns())
def test_stabilizer_and_dense_executors_agree(case):
    cluster, pattern, seed = case
    results, coins = {}, {}
    for backend in ("stabilizer", "statevector"):
        rng = np.random.default_rng(seed)
        try:
            results[backend] = execute_pattern(cluster, pattern, backend=backend, rng=rng)
        except PatternError as exc:
            results[backend] = exc
        coins[backend] = rng.bit_generator.state
    stab, dense = results["stabilizer"], results["statevector"]
    assert isinstance(stab, PatternError) == isinstance(dense, PatternError), results
    assert coins["stabilizer"] == coins["statevector"]
    if isinstance(stab, PatternError):
        return
    assert stab.outcomes == dense.outcomes
    assert stab.order == dense.order
    assert stab.frame == dense.frame
    # The dense output state lists its qubits in pattern.outputs order.
    relabel = {v: i for i, v in enumerate(pattern.outputs)}
    assert same_stabilizer_group(from_graph_state(stab.output_graph.relabeled(relabel)),
                                 tableau_from_statevector(dense.output_state.psi))


@st.composite
def refusable_pauli_patterns(draw):
    """pauli_patterns, with one step sometimes turned into a non-Pauli angle
    that the stabilizer backend refuses when it reaches it."""
    cluster, pattern, seed = draw(pauli_patterns())
    if pattern.steps and draw(st.booleans()):
        j = draw(st.integers(0, len(pattern.steps) - 1))
        pattern.steps[j] = MeasurementStep(pattern.steps[j].vertex, angle=np.pi / 3)
    return cluster, pattern, seed


def _run_summary(cluster, pattern, backend, seed):
    """Everything a run returns, or its refusal, and the coins after it."""
    rng = np.random.default_rng(seed)
    try:
        res = execute_pattern(cluster, pattern, backend=backend, rng=rng)
    except PatternError as exc:
        return str(exc), rng.bit_generator.state
    out = res.output_graph if res.output_state is None else res.output_state.psi.tobytes()
    return (res.outcomes, res.order, res.frame, out), rng.bit_generator.state


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=refusable_pauli_patterns())
def test_executors_borrow_the_cluster_without_changing_it(case):
    # A run, refused or not, leaves each of the cluster's neighbour sets in
    # place and unchanged, and returns what the same run returns on a copy
    # of the cluster whose sets are all copied up front.
    cluster, pattern, seed = case
    lent = dict(cluster._adj)
    contents = {v: frozenset(nbrs) for v, nbrs in lent.items()}
    eager = mock.patch.object(BorrowedAdjacency, "of",
                              lambda adj: {v: set(nbrs) for v, nbrs in adj.items()})
    for backend in ("stabilizer", "statevector"):
        got = _run_summary(cluster, pattern, backend, seed)
        assert cluster._adj.keys() == lent.keys()
        for v, nbrs in cluster._adj.items():
            assert nbrs is lent[v] and nbrs == contents[v]
        with eager:
            assert got == _run_summary(cluster.copy(), pattern, backend, seed)


@pytest.mark.parametrize("backend", ["stabilizer", "statevector"])
def test_a_carve_copies_as_many_sets_on_any_grid(backend, monkeypatch):
    # The engine copies only the neighbour sets the pattern reaches, so the
    # same carve holds as many sets of its own on a 30x30 as on a 90x90 grid.
    held = []
    from_graph = GraphSimulator.from_graph.__func__
    dense_init = DenseRegister.__init__

    def spy_from_graph(cls, graph):
        sim = from_graph(cls, graph)
        held.append(sim._adj)
        return sim

    def spy_init(reg, *args, **kwargs):
        dense_init(reg, *args, **kwargs)
        held.append(reg.pending)

    monkeypatch.setattr(GraphSimulator, "from_graph", classmethod(spy_from_graph))
    monkeypatch.setattr(DenseRegister, "__init__", spy_init)
    own = []
    for side in (30, 90):
        cluster = grid_graph(side, side)
        pattern, path = carved_wire_pattern(cluster, 2 * side + 2, 2 * side + 12)
        assert len(path) == 11
        held.clear()
        execute_pattern(cluster, pattern, backend=backend, rng=np.random.default_rng(5))
        (adj,) = held
        own.append(sum(nbrs is not cluster._adj.get(v) for v, nbrs in adj.items()))
    assert own[0] == own[1] < 100, own


def _eager_execute_dense(cluster, pattern, input_state, rng):
    """The dense executor as it was before the deferred register, kept
    frozen: it prepares the whole cluster and applies every edge before the
    first readout."""
    ids = sorted(cluster.vertices())
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    if input_state is None:
        sv = StateVector.all_plus(n)
    else:
        if input_state.n != len(pattern.inputs):
            raise PatternError("input state size does not match pattern inputs")
        psi = input_state.psi.reshape([2] * input_state.n)
        rest = [v for v in ids if v not in set(pattern.inputs)]
        plus = np.full([2] * len(rest), (1 / np.sqrt(2)) ** len(rest), complex) \
            if rest else np.array(1.0, complex)
        full = np.multiply.outer(psi, plus)
        axis_of = {v: k for k, v in enumerate(list(pattern.inputs) + rest)}
        full = np.transpose(full, [axis_of[v] for v in ids])
        sv = StateVector(n, full.reshape(-1))
    for u, v in cluster.edges():
        sv.apply_cz(index[u], index[v])
    outcomes, order = {}, []
    remaining = list(ids)
    for step in pattern.steps:
        basis = Basis.Z if step.basis == "Z" else mbqc._effective_angle(step, outcomes)
        outcome, _, _ = sv.measure_out(remaining.index(step.vertex), basis, rng)
        remaining.remove(step.vertex)
        outcomes[step.vertex] = outcome
        order.append(step.vertex)
    stragglers = [v for v in remaining if v not in set(pattern.outputs)]
    pos = {v: i for i, v in enumerate(remaining)}
    if stragglers:
        work = sv.psi.reshape([2] * sv.n)
        work = np.transpose(work, [pos[v] for v in pattern.outputs]
                            + [pos[v] for v in stragglers])
        mat = work.reshape(1 << len(pattern.outputs), -1)
        rho = mat @ mat.conj().T
        purity = float(np.real(np.trace(rho @ rho)))
        if purity < 1 - 1e-9:
            raise PatternError(
                "pattern leaves unmeasured vertices entangled with the outputs: "
                f"{stragglers} (purity {purity:.6f})")
        psi = np.linalg.eigh(rho)[1][:, -1]
    else:
        psi = np.transpose(sv.psi.reshape([2] * sv.n),
                           [pos[v] for v in pattern.outputs]).reshape(-1)
        psi = psi / np.linalg.norm(psi)
    frame = mbqc._frame_from_corrections(pattern, outcomes)
    return mbqc.PatternResult(outcomes, order, frame,
                              output_state=StateVector(len(pattern.outputs), psi))


@st.composite
def dense_patterns(draw):
    """A graph of at most 10 vertices, an X/Y/Z or free-angle pattern on it
    with s/t adaptation and stragglers, and |+> or a random 1-2 qubit input."""
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    order = draw(st.permutations(range(n)))
    n_out = draw(st.integers(1, min(3, n)))
    outputs, rest = order[:n_out], order[n_out:]
    measured = rest[:draw(st.integers(0, len(rest)))]  # the rest are stragglers
    earlier = st.sets(st.sampled_from(measured)) if measured else st.just(set())
    steps = []
    for j, v in enumerate(measured):
        kind = draw(st.sampled_from(["X", "Y", "Z", "angle"]))
        if kind == "Z":
            steps.append(MeasurementStep(v, basis="Z"))
            continue
        deps = [draw(earlier) & set(measured[:j]) for _ in range(2)]
        if kind == "angle":
            angle = draw(st.floats(-np.pi, np.pi, allow_nan=False))
            steps.append(MeasurementStep(v, angle=angle, s_adapt=deps[0], t_adapt=deps[1]))
        else:
            steps.append(MeasurementStep(v, basis=kind, s_adapt=deps[0], t_adapt=deps[1]))
    corrections = {v: {"x": draw(earlier), "z": draw(earlier)} for v in outputs}
    inputs, input_state = [], None
    k = draw(st.integers(0, min(2, n)))
    if k:
        inputs = draw(st.permutations(range(n)))[:k]
        amps = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(2, 1 << k))
        psi = amps[0] + 1j * amps[1]
        input_state = StateVector(k, psi / np.linalg.norm(psi))
    pattern = MeasurementPattern(inputs, outputs, steps, corrections)
    return GraphState(range(n), edges), pattern, input_state, draw(st.integers(0, 2**16))


_STRAGGLER_REFUSAL = re.compile(r"(.*: )\[([\d, ]+)\]( \(purity .*\))")


def _assert_same_refusal(new: str, old: str) -> None:
    """The same refusal, except for the stragglers it names: the eager
    executor names every unmeasured non-output vertex, the deferred one only
    those its array holds beside the outputs, a non-empty subset."""
    m_new, m_old = _STRAGGLER_REFUSAL.fullmatch(new), _STRAGGLER_REFUSAL.fullmatch(old)
    if m_old is None:
        assert new == old
        return
    assert m_new is not None and m_new.group(1, 3) == m_old.group(1, 3)
    named = {int(v) for v in m_new.group(2).split(",")}
    assert named <= {int(v) for v in m_old.group(2).split(",")}


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=dense_patterns())
def test_deferred_dense_executor_matches_eager_one(case):
    cluster, pattern, input_state, seed = case
    results, coins = [], []
    for run in (execute_pattern, _eager_execute_dense):
        rng = np.random.default_rng(seed)
        try:
            results.append(run(cluster, pattern, input_state, rng=rng))
        except PatternError as exc:
            results.append(exc)
        coins.append(rng.bit_generator.state)
    new, old = results
    assert coins[0] == coins[1]
    if isinstance(old, PatternError):
        assert isinstance(new, PatternError)
        _assert_same_refusal(str(new), str(old))
        return
    assert (new.outcomes, new.order, new.frame) == (old.outcomes, old.order, old.frame)
    assert 1 - new.output_state.fidelity(old.output_state) < 1e-12


def test_chain_array_holds_at_most_two_qubits(monkeypatch):
    """A chain pattern attaches each wire vertex at its neighbour's readout
    and drops it at its own, so the array never exceeds 2 qubits, on lines
    far past the 22-qubit cap."""
    widths = []
    attach = DenseRegister._attach

    def spy_attach(reg, *qubits):
        attach(reg, *qubits)
        widths.append(reg.sv.n)

    monkeypatch.setattr(DenseRegister, "_attach", spy_attach)
    rng = np.random.default_rng(11)

    def j(a):  # measuring at angle a teleports J(-a) = H diag(1, e^{-ia})
        return np.array([[1, 1], [1, -1]]) @ np.diag([1, np.exp(-1j * a)]) / np.sqrt(2)

    for n in range(5, 42):
        angles = rng.uniform(-np.pi, np.pi, n - 1)
        target = np.eye(2)
        for a in angles:
            target = j(a) @ target
        widths.clear()
        rep = verify_logical(line_graph(n), chain_pattern(angles), target, seeds=range(1))
        assert rep.distance < 1e-9, n
        assert max(widths) == 2, n


class TestLogicalChannels:
    def test_identity_wire(self):
        rep = verify_logical(line_graph(3), wire_pattern(3), np.eye(2), seeds=range(10))
        assert rep.distance < 1e-9

    def test_longer_wire(self):
        rep = verify_logical(line_graph(5), wire_pattern(5), np.eye(2), seeds=range(5))
        assert rep.distance < 1e-9

    def test_rotation_chain_random_angles(self):
        rng = np.random.default_rng(9)
        cl = line_graph(5)
        for _ in range(10):
            a, b, g = (float(x) for x in rng.uniform(-np.pi, np.pi, 3))
            rep = verify_logical(cl, rotation_chain_pattern(a, b, g),
                                 rotation_chain_target(a, b, g), seeds=range(5))
            assert rep.distance < 1e-9

    def test_graph_native_cz(self):
        cluster, pat = cz_pattern()
        rep = verify_logical(cluster, pat, np.diag([1, 1, 1, -1]).astype(complex))
        assert rep.distance < 1e-9

    def test_wrong_frame_negative_control(self):
        pat = wire_pattern(3)
        pat.corrections[2] = {"x": frozenset(), "z": frozenset()}
        rep = verify_logical(line_graph(3), pat, np.eye(2), seeds=range(10))
        assert rep.distance > 0.1

    def test_seed_generator_checks_every_input(self):
        pat = wire_pattern(3)
        pat.corrections[2] = {"x": frozenset(), "z": frozenset()}
        rep = verify_logical(line_graph(3), pat, np.eye(2), seeds=(s for s in range(10)))
        assert rep.n_seeds == 10
        assert len(rep.per_input) == 4 and min(rep.per_input.values()) > 0.1

    def test_no_seeds_rejected(self):
        with pytest.raises(PatternError):
            verify_logical(line_graph(3), wire_pattern(3), np.eye(2), seeds=range(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_rejected(self, bad):
        target = np.eye(2, dtype=complex)
        target[0, 1] = bad
        with pytest.raises(PatternError, match="finite"):
            verify_logical(line_graph(3), wire_pattern(3), target)

    def test_three_logical_qubits_rejected(self):
        pat = MeasurementPattern([0, 1, 2], [0, 1, 2], [])
        with pytest.raises(PatternError):
            verify_logical(GraphState(range(3)), pat, np.eye(8))


class TestCarving:
    def test_straight_row(self):
        g = grid_graph(5, 5)
        prefix, path = carve_wire(g, 0, 20)
        assert path == [0, 5, 10, 15, 20]
        assert all(st.basis == "Z" for st in prefix)

    def test_detour_around_dead_vertex(self):
        g = grid_graph(5, 5)
        _, base = carve_wire(g, 0, 20)
        _, detour = carve_wire(g, 0, 20, forbidden={10})
        assert len(detour) == len(base) + 2
        assert 10 not in detour

    def test_matches_bfs_oracle_distance(self):
        rng = np.random.default_rng(14)
        g = grid_graph(6, 6)
        for _ in range(20):
            dead = {int(v) for v in rng.choice(36, size=6, replace=False)}
            live = [v for v in range(36) if v not in dead]
            a, b = (int(x) for x in rng.choice(live, 2, replace=False))
            try:
                _, path = carve_wire(g, a, b, forbidden=dead)
            except NoPathError:
                path = None
            assert _bfs_dist(g, a, b, dead) == (len(path) - 1 if path else None)

    @pytest.mark.parametrize("start, end, forbidden, path, trim", [
        (0, 19, set(), [0, 1, 2, 3, 4, 9, 14, 19], [5, 6, 7, 8, 13, 18]),
        (0, 19, {6, 12}, [0, 1, 2, 3, 4, 9, 14, 19], [5, 7, 8, 13, 18]),
        (3, 15, {7, 8, 11}, [3, 2, 1, 0, 5, 10, 15], [4, 6, 16]),
    ])
    def test_lowest_id_tie_breaking_and_trim(self, start, end, forbidden, path, trim):
        prefix, got = carve_wire(grid_graph(4, 5), start, end, forbidden)
        assert got == path
        assert [st.vertex for st in prefix] == trim

    def test_fully_blocked(self):
        g = grid_graph(3, 3)
        with pytest.raises(NoPathError):
            carve_wire(g, 0, 8, forbidden=set(range(1, 8)))

    def test_prefix_leaves_line_graph(self):
        g = grid_graph(4, 4)
        prefix, path = carve_wire(g, 0, 12)
        pat = MeasurementPattern([], path, prefix)
        res = execute_pattern(g, pat, backend="stabilizer",
                              rng=np.random.default_rng(3))
        want = {tuple(sorted((path[i], path[i + 1]))) for i in range(len(path) - 1)}
        got = {e for e in res.output_graph.edges()
               if e[0] in set(path) and e[1] in set(path)}
        assert got == want

    def test_carved_wire_teleports_identity(self):
        g = grid_graph(3, 3)
        pat, path = carved_wire_pattern(g, 0, 6)  # (0,0) -> (2,0), length 3
        assert path == [0, 3, 6]
        rep = verify_logical(g, pat, np.eye(2), seeds=range(8))
        assert rep.distance < 1e-9

    def test_carved_wire_with_detour_and_angles(self):
        # A dead pixel in a protocol cluster has no edges; model it that way.
        full = grid_graph(3, 3)
        edges = [e for e in full.edges() if 3 not in e]
        g = GraphState(range(9), edges)
        pat, path = carved_wire_pattern(g, 0, 6, forbidden={3})
        assert 3 not in path and len(path) == 5
        rep = verify_logical(g, pat, np.eye(2), seeds=range(8))
        assert rep.distance < 1e-9
        # rotation along the same carved path
        a, b, c = 0.3, -1.1, 0.7
        pat2, _ = carved_wire_pattern(g, 0, 6, forbidden={3},
                                      angles=[0.0, -a, -b, -c])
        rep2 = verify_logical(g, pat2, rotation_chain_target(a, b, c), seeds=range(8))
        assert rep2.distance < 1e-9

    def test_edge_carrying_forbidden_vertex_fails_cleanly(self):
        # With a synthetic grid the forbidden vertex stays entangled with the
        # wire; execution must refuse rather than return a mixed output.
        g = grid_graph(3, 3)
        pat, _ = carved_wire_pattern(g, 0, 6, forbidden={3})
        with pytest.raises(PatternError):
            execute_pattern(g, pat, rng=np.random.default_rng(0))


def _bfs_dist(g, a, b, dead):
    from collections import deque

    if a in dead or b in dead:
        return None
    dist = {a: 0}
    dq = deque([a])
    while dq:
        v = dq.popleft()
        if v == b:
            return dist[v]
        for u in g.neighbors(v):
            if u not in dead and u not in dist:
                dist[u] = dist[v] + 1
                dq.append(u)
    return None


class TestArchitecturePipeline:
    """End to end: weave a cluster with the protocol, then compute on it."""

    def test_carved_wire_through_protocol_cluster(self):
        from sicluster.lattice import DonorLattice, run_protocol, square_lattice_protocol
        from sicluster.mbqc import canonical_adjacency

        lat = DonorLattice(4, 5, dead=[(2, 2)])
        res = run_protocol(lat, square_lattice_protocol(),
                           rng=np.random.default_rng(3))
        cluster = canonical_adjacency(res.graph)
        dead_ids = {lat.site_id(i, j) for i, j in lat.dead}
        start, end = lat.site_id(1, 2), lat.site_id(3, 2)  # straddle the hole
        pat, path = carved_wire_pattern(cluster, start, end, forbidden=dead_ids)
        assert lat.site_id(2, 2) not in path
        if len(path) % 2 == 1:
            rep = verify_logical(cluster, pat, np.eye(2), seeds=range(5))
            assert rep.distance < 1e-9
        # the stabilizer lane should run the same pattern at scale
        r = execute_pattern(cluster, pat, backend="stabilizer",
                            rng=np.random.default_rng(0))
        assert set(r.output_graph.vertices()) == {end}

    def test_bigger_lattice_stabilizer_only(self):
        from sicluster.lattice import DonorLattice, run_protocol, square_lattice_protocol
        from sicluster.mbqc import canonical_adjacency

        lat = DonorLattice(12, 12)
        res = run_protocol(lat, square_lattice_protocol(),
                           rng=np.random.default_rng(1))
        cluster = canonical_adjacency(res.graph)
        pat, path = carved_wire_pattern(cluster, 0, lat.site_id(11, 0))
        r = execute_pattern(cluster, pat, backend="stabilizer",
                            rng=np.random.default_rng(2))
        assert r.output_graph.edges() == []
        assert len(r.outcomes) == len(pat.steps)


class TestFrameSeedIndependence:
    def test_frame_corrected_channel_is_seed_independent(self):
        cl = line_graph(5)
        pat = wire_pattern(5)
        outs = []
        for seed in range(12):
            res = execute_pattern(cl, pat, StateVector(1, np.array([0.6, 0.8j])),
                                  rng=np.random.default_rng(seed))
            out = res.output_state
            for v in res.frame.x:
                out.apply_gate("X", 0)
            for v in res.frame.z:
                out.apply_gate("Z", 0)
            outs.append(out)
        for other in outs[1:]:
            assert outs[0].fidelity(other) > 1 - 1e-9
