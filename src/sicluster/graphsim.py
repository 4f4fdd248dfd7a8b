"""In-place graph-state stabilizer engine with per-vertex Clifford operators.

Every stabilizer state is a graph state up to local Cliffords:
``|psi> = prod_v U_v |G>``.  Following Anders and Briegel ("Fast simulation
of stabilizer circuits using a graph-state representation", Phys. Rev. A
73, 022334 (2006), quant-ph/0504117), the engine keeps one adjacency set
and one vertex operator (VOP) ``U_v`` per qubit and updates both in place:

* a single-qubit Clifford composes onto the VOP;
* a CZ first turns both endpoint VOPs into ones that preserve the Z axis,
  by local complementations at the endpoint and at a neighbour other than
  the partner, then toggles the edge (a VOP that flips Z leaves a Z on the
  partner); an endpoint no complementation reaches is Z-correlated with its
  partner or in a Z eigenstate, and the CZ reduces to a Z on the partner;
* a Pauli measurement applies the rewrite rules of
  :meth:`GraphState.measure_pauli_inplace`, and the measured qubit stays as
  an isolated eigenstate.

A VOP is an element of :mod:`sicluster.cliffords`, so composing two,
conjugating a Pauli and inverting are table lookups; a qubit missing from
``vertex_ops`` carries the identity.  Cost per operation scales with the
degrees involved, not with the number of qubits, which is what lets lattice
protocols of 10^4 sites run in well under a second.  Outcomes are drawn exactly as the tableau draws them (one
``draw_sign_bit`` per random outcome, none for a deterministic one), so a
seed yields the same transcript on either engine.
"""

from __future__ import annotations

import numpy as np

from sicluster import cliffords
from sicluster.cliffords import IDENTITY, Clifford1
from sicluster.graphstate import (
    _AXIS_OF,
    _LC_NEIGHBOR,
    _LC_SELF,
    BorrowedAdjacency,
    GraphState,
    _basis_name,
)
from sicluster.rng import draw_sign_bit
from sicluster.tableau import MAX_TABLEAU_BYTES, REDUCTION_OPS, graph_from_stab_matrix
from sicluster.tableau import SizeCapError

_X, _Y, _Z = 0, 1, 2


def _build_zp_moves() -> dict[Clifford1, tuple[str, ...]]:
    """Shortest local-complementation sequence that makes each VOP preserve Z.

    A complementation at the vertex itself composes ``_LC_SELF`` onto its VOP
    ("v"); one at a neighbour composes ``_LC_NEIGHBOR`` ("n").  Searched
    breadth-first over both letters, as cliffords._build_group does over H
    and S.
    """
    right = {"v": _LC_SELF, "n": _LC_NEIGHBOR}
    moves: dict[Clifford1, tuple[str, ...]] = {}
    frontier: list[tuple[str, ...]] = [()]
    while len(moves) < len(cliffords.ELEMENTS):
        for word in frontier:
            for el in cliffords.ELEMENTS:
                u = el
                for letter in word:
                    u = u.compose(right[letter])
                if el not in moves and u.z_axis == _Z:
                    moves[el] = word
        frontier = [word + (letter,) for word in frontier for letter in right]
    return moves


_ZP_MOVES = _build_zp_moves()

# VOP that maps |+> to the eigenstate of (axis, outcome): the one with that
# X image, preferring a Z-axis-preserving operator.
_EIGEN_VOP = {(axis, outcome): cliffords.by_action(
    "XYZ"[axis], 0 if outcome == 1 else 1, "X" if axis == _Z else "Z", 0)
    for axis in (_X, _Y, _Z) for outcome in (1, -1)}


class GraphSimulator(GraphState):
    """An n-qubit stabilizer state held as a graph plus vertex operators.

    Starts in |+>^n (no edges, identity VOPs).  Unlike the functional
    :class:`GraphState` operations, every method here mutates the state.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("qubit count must be >= 1")
        super().__init__(range(n))

    @classmethod
    def from_graph(cls, graph: GraphState) -> "GraphSimulator":
        """Engine holding ``graph``'s state, with its vertex ids as qubit labels.

        The engine borrows ``graph``'s adjacency (a :class:`BorrowedAdjacency`):
        it copies a neighbour set only when it first reads it, so a pattern
        that touches a few vertices of a large cluster copies a few sets, and
        ``graph`` is never changed.  ``graph`` must not change while the
        engine is in use.
        """
        sim = cls.__new__(cls)
        sim._adj = BorrowedAdjacency.of(graph._adj)
        sim.vertex_ops = dict(graph.vertex_ops)
        return sim

    def _apply(self, q: int, el: Clifford1) -> None:
        new = el.compose(self.vertex_ops.get(q, IDENTITY))
        if new is IDENTITY:
            self.vertex_ops.pop(q, None)
        else:
            self.vertex_ops[q] = new

    def gate(self, name: str, q: int) -> None:
        """Apply a named single-qubit Clifford (H, S, SDG, X, Y, Z, ...)."""
        if q not in self._adj:
            raise IndexError(f"qubit {q} out of range")
        self._apply(q, cliffords.by_name(name.upper()))

    def _reduce(self, x: int, ux: Clifford1, partner: int) -> bool:
        """Make x's VOP ``ux`` preserve the Z axis without touching the
        partner's VOP beyond a Z-axis rotation.  Returns False when no move
        applies: x then maps X to +-Z and has no neighbour but the partner."""
        moves = _ZP_MOVES[ux]
        if not moves:
            return False
        if moves[0] == "n":
            others = [c for c in self._adj[x] if c != partner]
            if not others:
                return False
            self.local_complement_inplace(min(others))
        self.local_complement_inplace(x)
        return True

    def cz(self, a: int, b: int) -> None:
        """Controlled-Z between qubits a and b."""
        if a == b:
            raise ValueError("CZ targets must be distinct")
        if a not in self._adj or b not in self._adj:
            raise IndexError(f"qubit out of range in CZ({a}, {b})")
        vops = self.vertex_ops
        while True:
            ua, ub = vops.get(a, IDENTITY), vops.get(b, IDENTITY)
            if ua.z_axis == _Z and ub.z_axis == _Z:
                # CZ (P_a D_a)(P_b D_b) = (P_a Z_a^[P_b=X] D_a)(P_b Z_b^[P_a=X] D_b) CZ
                # for diagonal D and P in {I, X}; P = X exactly when Z -> -Z.
                if b in self._adj[a]:
                    self._adj[a].discard(b)
                    self._adj[b].discard(a)
                else:
                    self._adj[a].add(b)
                    self._adj[b].add(a)
                if ub.z_sign:
                    self._apply(a, cliffords.Z)
                if ua.z_sign:
                    self._apply(b, cliffords.Z)
                return
            if self._reduce(a, ua, b) or self._reduce(b, ub, a):
                continue
            # An endpoint x that is left maps X to +-Z and has no neighbour
            # but its partner p, so its generator is +-Z_x (U_p Z U_p^dag).
            # A reduction that returns False changed nothing: ua, ub hold.
            x, p, ux, up = (a, b, ua, ub) if ua.z_axis != _Z else (b, a, ub, ua)
            if not self._adj[x]:
                # x is |0> or |1>: CZ acts as Z^x on p.
                if ux.x_sign:
                    self._apply(p, cliffords.Z)
                return
            if up.z_axis == _Z:
                # Generator lam Z_x Z_p: CZ is Z_p for lam = +1 and I for -1.
                if not ux.x_sign ^ up.z_sign:
                    self._apply(p, cliffords.Z)
                return
            # Both endpoints are such leaves of each other: complementing at
            # x turns p's VOP into one that a complementation at p reduces.
            self.local_complement_inplace(x)

    def measure(self, q: int, basis, rng) -> tuple[int, bool]:
        """Measure qubit q in a Pauli basis; returns (outcome, deterministic).

        The outcome is deterministic exactly when q is isolated and its VOP
        maps the measured axis onto X; otherwise it consumes one draw.
        """
        if q not in self._adj:
            raise IndexError(f"qubit {q} out of range")
        axis = _AXIS_OF[_basis_name(basis)]
        eff_axis, eff_sign = self.vertex_ops.get(q, IDENTITY).inverse().conj_pauli(axis)
        if eff_axis == _X and not self._adj[q]:
            return (1 if eff_sign == 0 else -1), True
        outcome = -1 if draw_sign_bit(rng, 0.5) else 1
        self.measure_pauli_inplace(q, basis, outcome)
        self._adj[q] = set()
        el = _EIGEN_VOP[(axis, outcome)]
        if el is not IDENTITY:
            self.vertex_ops[q] = el
        return outcome, False

    def take_restricted_graph(self, keep: list[int]) -> tuple[dict, dict]:
        """Graph form of the state restricted to ``keep``, indexed by position.

        Returns the same (adjacency, vertex_ops) canonical form as
        :func:`sicluster.tableau.graph_from_stab_matrix` on the kept
        generators.  Raises ValueError if a kept qubit has a neighbour
        outside ``keep`` (the kept marginal is then mixed), and SizeCapError
        before allocating a fallback reduction above the tableau's byte cap;
        both refusals come before any change.  This is the engine's last
        use: when every kept operator preserves Z, the dropped qubits' sets
        and operators go first and each kept set is popped as its extracted
        one is built, so the engine's adjacency and the extracted one are
        never held in full together, and the engine is left empty.  The
        fallback reduction leaves the engine as it was.
        """
        pos = self._positions(keep)
        if not self._preserves_z(keep):
            return self._fallback_reduction(keep, pos)
        # A dict keeps its table when entries are deleted, so both are
        # rebuilt over the kept qubits; the old ones go before the read-off.
        vops = self.vertex_ops
        self._adj = {v: self._adj[v] for v in pos}
        self.vertex_ops = {v: vops[v] for v in pos if v in vops}
        del vops
        return self._read_off(pos)

    def _positions(self, keep) -> dict[int, int]:
        """Each kept qubit's position, after refusing a kept qubit that is
        entangled with a dropped one."""
        pos = {v: i for i, v in enumerate(keep)}
        for v in keep:
            for u in self._adj[v]:
                if u not in pos:
                    raise ValueError(
                        f"cannot restrict to {len(keep)} qubits: kept qubit {v} "
                        f"is entangled with dropped qubit {u}")
        return pos

    def _preserves_z(self, keep) -> bool:
        vops = self.vertex_ops
        return all(vops.get(v, IDENTITY).z_axis == _Z for v in keep)

    def _read_off(self, pos) -> tuple[dict, dict]:
        """The reduction when every kept VOP preserves Z: the generator of v
        is +-(X or Y)_v prod_u +-Z_u, so the X block is already the identity
        and the graph is read off per vertex, popping each adjacency set
        from the engine as it goes."""
        vops = self.vertex_ops
        adj, out_ops = {}, {}
        for v, i in pos.items():
            nbrs = self._adj.pop(v)
            adj[i] = {pos[u] for u in nbrs}
            op = vops.get(v, IDENTITY)
            s = op.x_axis == _Y
            z = op.x_sign ^ s
            for u in nbrs:
                z ^= vops.get(u, IDENTITY).z_sign
            el = REDUCTION_OPS[(False, s, bool(z))]
            if el is not None:
                out_ops[i] = el
        return adj, out_ops

    def _fallback_reduction(self, keep, pos) -> tuple[dict, dict]:
        if 2 * len(keep) ** 2 + len(keep) > MAX_TABLEAU_BYTES:  # two (k, k) blocks, k signs
            raise SizeCapError(f"a {len(keep)}-qubit graph reduction exceeds the "
                               f"{MAX_TABLEAU_BYTES / 2**30:.0f} GiB tableau cap")
        ops = [self.op(v) for v in keep]
        return graph_from_stab_matrix(*self._generators(keep, pos, ops))

    def _generators(self, keep, pos, ops):
        """Kept generators U K_v U^dag as the bool (x, z, r) rows that
        graph_from_stab_matrix takes."""
        k = len(keep)
        x = np.zeros((k, k), bool)
        z = np.zeros((k, k), bool)
        r = np.zeros(k, bool)
        for i, v in enumerate(keep):
            letters = [(i, *ops[i].conj_pauli(_X))]
            letters += [(pos[u], *self.op(u).conj_pauli(_Z)) for u in self._adj[v]]
            for c, axis, sign in letters:
                x[i, c] = axis != _Z
                z[i, c] = axis != _X
                r[i] ^= sign
        return x, z, r
