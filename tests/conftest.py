"""Shared helpers: random Clifford circuits, random graphs, dense oracles."""

import numpy as np

from sicluster import cliffords
from sicluster.graphstate import GraphState
from sicluster.statevec import (
    KET_MINUS,
    KET_MINUS_I,
    KET_PLUS,
    KET_PLUS_I,
    StateVector,
)
from sicluster.tableau import new_plus_state, restricted_stab_graph

GATES_1Q = ["H", "S", "SDG", "X", "Y", "Z"]

EIGENSTATES = {
    ("X", 1): KET_PLUS, ("X", -1): KET_MINUS,
    ("Y", 1): KET_PLUS_I, ("Y", -1): KET_MINUS_I,
    ("Z", 1): np.array([1, 0], complex), ("Z", -1): np.array([0, 1], complex),
}


def random_clifford_ops(n, depth, rng):
    ops = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.4:
            a, b = (int(x) for x in rng.choice(n, 2, replace=False))
            ops.append(("CZ" if rng.random() < 0.5 else "CNOT", a, b))
        else:
            ops.append((GATES_1Q[int(rng.integers(len(GATES_1Q)))], int(rng.integers(n))))
    return ops


def apply_ops_tableau(t, ops):
    for op in ops:
        t.apply_gate(op[0], *op[1:])
    return t


def apply_ops_dense(sv, ops):
    for op in ops:
        if op[0] == "CZ":
            sv.apply_cz(op[1], op[2])
        elif op[0] == "CNOT":
            sv.apply_cnot(op[1], op[2])
        else:
            sv.apply_gate(op[0], op[1])
    return sv


def random_state_pair(n, depth, rng):
    """The same random stabilizer state as (tableau, dense) pair."""
    ops = random_clifford_ops(n, depth, rng)
    t = apply_ops_tableau(new_plus_state(n), ops)
    sv = apply_ops_dense(StateVector.all_plus(n), ops)
    return t, sv


def after_draws(rng, draws: int):
    """``rng`` once it has drawn ``draws`` coins: the state of a stream that
    ``draws`` readouts with a random outcome have read."""
    rng.random(draws)
    return rng


def tableau_graph(t):
    """The graph form of a tableau's state: every qubit kept, by position."""
    return GraphState.adopt(*restricted_stab_graph(t, list(range(t.n))))


def random_graph(n, rng, edge_factor=2.0, with_ops=False):
    edges = set()
    for _ in range(int(rng.integers(0, max(2, int(n * edge_factor))))):
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        e = (min(a, b), max(a, b))
        edges.symmetric_difference_update({e})
    ops = {}
    if with_ops:
        for v in range(n):
            if rng.random() < 0.4:
                ops[v] = cliffords.ELEMENTS[int(rng.integers(24))]
    return GraphState(range(n), edges, ops)


def dense_measure_graph(g, v, basis_name, outcome):
    """Oracle: project vertex v of the dense graph state; None if zero prob."""
    from sicluster.statevec import graph_to_statevector

    ids, sv = graph_to_statevector(g)
    q = ids.index(v)
    eig = EIGENSTATES[(basis_name, outcome)]
    psi = sv.psi.reshape([2] * sv.n)
    new = np.tensordot(np.conj(eig), psi, axes=([0], [q]))
    norm = np.linalg.norm(new)
    if norm < 1e-9:
        return None
    rest = [i for i in ids if i != v]
    return rest, StateVector(sv.n - 1, (new / norm).reshape(-1))
