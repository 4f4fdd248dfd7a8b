"""In-place graph-state engine against the tableau, gate by gate."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_graph, tableau_graph
from sicluster import cliffords
from sicluster.graphsim import _EIGEN_VOP, _ZP_MOVES, GraphSimulator
from sicluster.graphstate import GraphState
from sicluster.tableau import (
    MAX_TABLEAU_BYTES,
    Basis,
    SizeCapError,
    from_graph_state,
    graph_from_stab_matrix,
    new_plus_state,
    restricted_stab_graph,
    same_stabilizer_group,
)

GATES_1Q = ["H", "S", "SDG", "X", "Y", "Z"]
BASES = [Basis.X, Basis.Y, Basis.Z]


def run_pair(ops, n, coin_seed=0):
    """Drive the engine and a tableau through the same ops; returns both and
    the two coin generators after the run."""
    sim, t = GraphSimulator(n), new_plus_state(n)
    c_sim, c_t = np.random.default_rng(coin_seed), np.random.default_rng(coin_seed)
    for op in ops:
        if op[0] == "CZ":
            sim.cz(op[1], op[2])
            t.apply_gate("CZ", op[1], op[2])
        elif op[0] == "M":
            assert sim.measure(op[1], op[2], c_sim) == t.measure(op[1], op[2], c_t), op
        else:
            sim.gate(op[0], op[1])
            t.apply_gate(op[0], op[1])
        sim.validate()
    return sim, t, c_sim, c_t


def assert_same_state(sim, t):
    assert same_stabilizer_group(from_graph_state(sim), t)
    n = t.n
    adj, ops = GraphSimulator.from_graph(sim).take_restricted_graph(list(range(n)))
    g = tableau_graph(t)
    assert adj == {v: g.neighbors(v) for v in range(n)}
    assert ops == dict(g.vertex_ops)


def random_ops(n, depth, rng):
    ops = []
    for _ in range(depth):
        r = rng.random()
        if r < 0.4 and n > 1:
            a, b = (int(x) for x in rng.choice(n, 2, replace=False))
            ops.append(("CZ", a, b))
        elif r < 0.8:
            ops.append((GATES_1Q[int(rng.integers(6))], int(rng.integers(n))))
        else:
            ops.append(("M", int(rng.integers(n)), BASES[int(rng.integers(3))]))
    return ops


@pytest.mark.parametrize("seed", range(40))
def test_random_circuits_match_tableau(seed):
    rng = np.random.default_rng(900 + seed)
    n = 1 + seed % 6
    ops = random_ops(n, 10 + seed, rng)
    sim, t, c_sim, c_t = run_pair(ops, n, coin_seed=seed)
    assert c_sim.bit_generator.state == c_t.bit_generator.state
    assert_same_state(sim, t)
    # Measuring a random subset leaves the rest pure: both restrictions must
    # give the same canonical graph, vertex operators (signs) included.
    measured = [int(q) for q in rng.permutation(n)[:int(rng.integers(n))]]
    for q in measured:
        basis = BASES[int(rng.integers(3))]
        assert sim.measure(q, basis, c_sim) == t.measure(q, basis, c_t)
    rest = [q for q in range(n) if q not in measured]
    assert sim.take_restricted_graph(rest) == restricted_stab_graph(t, rest)


def test_zp_move_table():
    # Every VOP reaches a Z-axis-preserving one; "n" only ever leads.
    assert len(_ZP_MOVES) == 24
    lc_self = cliffords.SQRT_MINUS_IX.inverse()
    lc_nbr = cliffords.SQRT_PLUS_IZ.inverse()
    for el, word in _ZP_MOVES.items():
        assert word in ((), ("v",), ("n", "v"))
        u = el
        for letter in word:
            u = u.compose(lc_self if letter == "v" else lc_nbr)
        assert u.z_axis == 2
        assert (word == ()) == (el.z_axis == 2)


# Each CZ case the endpoint reductions cannot reach by complementation:
# an endpoint in a Z eigenstate, an endpoint mapping X to Z whose only
# neighbour is the partner, and two such endpoints tied only to each other.
CZ_CORNER_CASES = {
    "zero-state": [("H", 0), ("CZ", 0, 1)],
    "one-state": [("H", 0), ("X", 0), ("CZ", 0, 1), ("CZ", 1, 2)],
    "leaf-plus": [("CZ", 0, 1), ("CZ", 1, 2), ("H", 0), ("CZ", 0, 1)],
    "leaf-minus": [("CZ", 0, 1), ("CZ", 1, 2), ("H", 0), ("X", 0), ("CZ", 0, 1)],
    "leaf-partner-flips-z": [("CZ", 0, 1), ("CZ", 1, 2), ("H", 0), ("X", 1), ("CZ", 0, 1)],
    "mutual-leaves": [("CZ", 0, 1), ("H", 0), ("H", 1), ("CZ", 0, 1), ("CZ", 1, 2)],
}


@pytest.mark.parametrize("name", sorted(CZ_CORNER_CASES))
def test_cz_corner_cases(name):
    sim, t, _, _ = run_pair(CZ_CORNER_CASES[name], 3)
    assert_same_state(sim, t)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("seed", range(4))
def test_measured_vertex_stays_isolated_eigenstate(basis, seed):
    ops = [("CZ", 0, 1), ("CZ", 1, 2), ("S", 1), ("M", 1, basis)]
    sim, t, _, _ = run_pair(ops, 3, coin_seed=seed)
    assert sim.degree(1) == 0
    # Re-measuring is deterministic and repeats the outcome, drawing nothing.
    coins = np.random.default_rng(99)
    state = coins.bit_generator.state
    first = t.copy().measure(1, basis, np.random.default_rng(0))
    assert sim.measure(1, basis, coins) == (first[0], True)
    assert coins.bit_generator.state == state
    assert_same_state(sim, t)


def test_read_off_matches_packed_reduction():
    # With Z-axis-preserving VOPs the per-vertex read-off must equal the
    # general reduction it short-cuts.
    rng = np.random.default_rng(4)
    diagonal = ["S", "SDG", "Z", "X", "Y"]
    for _ in range(20):
        sim = GraphSimulator(6)
        for _ in range(12):
            a, b = (int(x) for x in rng.choice(6, 2, replace=False))
            sim.cz(a, b)
            sim.gate(diagonal[int(rng.integers(5))], int(rng.integers(6)))
        keep = list(range(6))
        assert all(op.z_axis == 2 for op in sim.vertex_ops.values())
        reduced = graph_from_stab_matrix(*sim._generators(
            keep, {v: v for v in keep}, [sim.op(v) for v in keep]))
        assert sim.take_restricted_graph(keep) == reduced


def test_restriction_rejects_entangled_dropped_qubit():
    sim = GraphSimulator(3)
    sim.cz(0, 2)
    with pytest.raises(ValueError, match="entangled"):
        sim.take_restricted_graph([0, 1])


def test_restriction_drops_measured_qubits():
    sim, _, _, _ = run_pair([("CZ", 0, 1), ("CZ", 1, 2), ("M", 1, Basis.Y)], 3)
    adj, _ = sim.take_restricted_graph([0, 2])
    assert adj == {0: {1}, 1: {0}}


def test_oversized_fallback_reduction_refused_before_allocating(monkeypatch):
    # The fallback takes two (k, k) bool blocks and k signs, 2k^2 + k bytes:
    # over the tableau's 2 GiB cap from k = 32 768 on, while 32 767 fits.
    assert 2 * 32_767**2 + 32_767 <= MAX_TABLEAU_BYTES < 2 * 32_768**2 + 32_768
    sim = GraphSimulator(32_768)
    sim.gate("H", 0)  # a VOP that moves the Z axis forces the fallback

    def generators(*args):
        raise AssertionError("the fallback reduction was built")

    monkeypatch.setattr(GraphSimulator, "_generators", generators)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match="32768-qubit graph reduction"):
            sim.take_restricted_graph(list(range(32_768)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


def diagonal_ops(n, depth, rng):
    """CZs, gates that keep the Z axis, and Y/Z readouts: every VOP they
    leave preserves Z, so a restriction takes the per-vertex read-off."""
    ops = []
    for _ in range(depth):
        r = rng.random()
        if r < 0.5 and n > 1:
            a, b = (int(x) for x in rng.choice(n, 2, replace=False))
            ops.append(("CZ", a, b))
        elif r < 0.85:
            ops.append((["S", "SDG", "X", "Y", "Z"][int(rng.integers(5))], int(rng.integers(n))))
        else:
            ops.append(("M", int(rng.integers(n)), [Basis.Y, Basis.Z][int(rng.integers(2))]))
    return ops


def engine_state(sim):
    return {v: set(nbrs) for v, nbrs in sim._adj.items()}, dict(sim.vertex_ops)


def test_taken_restriction_matches_restricted_graph():
    # The consuming restriction returns exactly what the tableau's
    # restriction returns on the same circuit and coins.  On the read-off
    # branch it empties the engine's adjacency; the fallback reduction
    # leaves the engine as it was.
    rng = np.random.default_rng(1900)
    branches = {"read-off": 0, "fallback": 0}
    for trial in range(120):
        n = int(rng.integers(1, 9))
        make = random_ops if trial % 2 else diagonal_ops
        sim, t, c_sim, c_t = run_pair(make(n, 4 + 2 * n, rng), n, coin_seed=trial)
        measured = [int(q) for q in rng.permutation(n)[:int(rng.integers(n))]]
        for q in measured:
            basis = BASES[int(rng.integers(3))]
            assert sim.measure(q, basis, c_sim) == t.measure(q, basis, c_t)
        keep = [q for q in range(n) if q not in measured]
        before = engine_state(sim)
        want = restricted_stab_graph(t, keep)
        read_off = all(sim.op(v).z_axis == 2 for v in keep)
        assert sim.take_restricted_graph(keep) == want
        if read_off:
            assert sim._adj == {}
        else:
            assert engine_state(sim) == before
        branches["read-off" if read_off else "fallback"] += 1
    assert min(branches.values()) >= 20, branches


def test_taken_restriction_refuses_before_removing_anything():
    sim = GraphSimulator(4)
    for a in range(3):
        sim.cz(a, a + 1)
    before = engine_state(sim)
    with pytest.raises(ValueError, match="kept qubit 1 is entangled with dropped qubit 2"):
        sim.take_restricted_graph([0, 1, 3])
    assert engine_state(sim) == before
    sim = GraphSimulator(32_768)
    sim.gate("H", 0)  # forces the fallback reduction, over the byte cap
    with pytest.raises(SizeCapError, match="32768-qubit graph reduction"):
        sim.take_restricted_graph(list(range(32_768)))
    assert len(sim._adj) == 32_768


class ForcedCoin:
    """A coin source whose every draw is ``value``: below 0.5 reads -1."""

    def __init__(self, value: float):
        self.value, self.draws = value, 0

    def random(self) -> float:
        self.draws += 1
        return self.value


@pytest.mark.parametrize("seed", range(4))
def test_readout_rewrites_as_measure_pauli(seed):
    # On random graphs with random VOPs, the engine's readout with a forced
    # coin leaves the graph and the other VOPs of GraphState.measure_pauli,
    # with the measured qubit isolated and carrying the eigenstate's VOP.
    # A refused restriction then leaves the engine as it was.
    rng = np.random.default_rng(2600 + seed)
    refused = 0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = random_graph(n, rng, with_ops=True)
        before = g.copy()
        v = int(rng.integers(n))
        for basis in BASES:
            for outcome in (1, -1):
                sim = GraphSimulator.from_graph(g)
                coin = ForcedCoin(0.25 if outcome == -1 else 0.75)
                got, det = sim.measure(v, basis, coin)
                assert coin.draws == (0 if det else 1)
                if got != outcome:
                    assert det
                    with pytest.raises(ValueError, match="deterministically"):
                        g.measure_pauli(v, basis.value, outcome)
                    continue
                want, _ = g.measure_pauli(v, basis.value, outcome)
                assert sim.degree(v) == 0
                assert {u: s for u, s in sim._adj.items() if u != v} == want._adj
                assert {u: op for u, op in sim.vertex_ops.items() if u != v} == want.vertex_ops
                if not det:
                    assert sim.op(v) is _EIGEN_VOP[("XYZ".index(basis.value), outcome)]
                edge = next(((a, b) for a in sorted(sim._adj) for b in sorted(sim._adj[a])), None)
                if edge is not None:
                    state = engine_state(sim)
                    keep = [u for u in range(n) if u != edge[1]]
                    with pytest.raises(ValueError, match=f"dropped qubit {edge[1]}"):
                        sim.take_restricted_graph(keep)
                    assert engine_state(sim) == state
                    refused += 1
        assert g == before
    assert refused > 100


def test_bad_arguments():
    sim = GraphSimulator(2)
    with pytest.raises(ValueError):
        sim.cz(1, 1)
    with pytest.raises(IndexError):
        sim.cz(0, 2)
    with pytest.raises(IndexError):
        sim.gate("H", 5)
    with pytest.raises(KeyError):
        sim.gate("T", 0)
    with pytest.raises(ValueError):
        GraphSimulator(0)


@pytest.mark.parametrize("seed", range(10))
def test_from_graph_starts_in_the_graph_state(seed):
    # Arbitrary vertex ids become the engine's qubit labels; the engine then
    # tracks the tableau of the same graph state through a random circuit.
    # It borrows the graph's neighbour sets and never changes them.
    rng = np.random.default_rng(700 + seed)
    n = 2 + seed % 6
    labels = [3 * i + 7 for i in range(n)]
    edges = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n)
             if (a, b) == (0, 1) or rng.random() < 0.5]
    vops = {v: cliffords.ELEMENTS[int(rng.integers(24))] for v in labels}
    g = GraphState(labels, edges, vops)
    before, lent = g.copy(), dict(g._adj)
    sim = GraphSimulator.from_graph(g)
    t = from_graph_state(g)
    assert same_stabilizer_group(from_graph_state(sim), t)
    c_sim, c_t = np.random.default_rng(seed), np.random.default_rng(seed)
    # First an X readout with a swap partner: the hub's operator maps X onto
    # the measured axis and the hub has neighbours.  Then a CZ whose two
    # endpoints both need a reduction: neither operator preserves Z.
    hub = max(range(n), key=lambda i: (g.degree(labels[i]), i))
    basis = BASES[g.op(labels[hub]).x_axis]
    assert sim.measure(labels[hub], basis, c_sim) == t.measure(hub, basis, c_t)
    for i in (0, 1):
        if sim.op(labels[i]).z_axis == 2:
            sim.gate("H", labels[i])
            t.apply_gate("H", i)
    sim.cz(labels[0], labels[1])
    t.apply_gate("CZ", 0, 1)
    for op in random_ops(n, 12, rng):
        if op[0] == "CZ":
            sim.cz(labels[op[1]], labels[op[2]])
            t.apply_gate("CZ", op[1], op[2])
        elif op[0] == "M":
            assert sim.measure(labels[op[1]], op[2], c_sim) == t.measure(op[1], op[2], c_t)
        else:
            sim.gate(op[0], labels[op[1]])
            t.apply_gate(op[0], op[1])
    assert c_sim.bit_generator.state == c_t.bit_generator.state
    assert same_stabilizer_group(from_graph_state(sim), t)
    assert g == before
    assert all(g._adj[v] is nbrs for v, nbrs in lent.items())
