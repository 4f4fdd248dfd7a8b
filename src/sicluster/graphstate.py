"""Graph-state algebra: local complementation and Pauli-measurement rewrites.

A ``GraphState`` is an adjacency structure over stable integer vertex ids
plus a per-vertex local Clifford ("vertex operator"); with all vertex
operators equal to the identity the represented state is
``prod_{(u,v) in E} CZ_uv |+>^n``.  The public operations are functional
(they return a new instance) and purely combinatorial; each rewrite is a
copy followed by its ``*_inplace`` form, which the graph-state engine in
``sicluster.graphsim`` calls directly.  Measurement outcomes are inputs,
drawn by the caller from a backend or a fair coin, which keeps this module
deterministic.

Adjacency is stored as sorted sets per vertex rather than a literal bit
matrix so that vertex deletion stays cheap at 10^4-vertex protocol scale.
"""

from __future__ import annotations

import json

from sicluster import cliffords
from sicluster.cliffords import IDENTITY, Clifford1

_AXIS_OF = {"X": 0, "Y": 1, "Z": 2}

# Largest donor lattice or generated cluster, in sites.  A standard-protocol
# build and its JSON and DOT export peak at about 1.8 KB per site (644 MiB
# at 600x600 and 1,689 MiB at 1000x1000, measured on a 2-core 8 GB
# machine), so 10^6 sites stay under a quarter of it.
MAX_SITES = 10**6


class SizeCapError(RuntimeError):
    """Raised when a simulation would exceed a size cap."""


def check_site_cap(n_sites: int) -> None:
    """Refuse a lattice or cluster of more than MAX_SITES sites."""
    if n_sites > MAX_SITES:
        raise SizeCapError(f"{n_sites} sites is above the cap of {MAX_SITES}")


# What a local complementation at v composes onto v's own vertex operator,
# and onto the operator of each neighbor of v.
_LC_SELF = cliffords.SQRT_MINUS_IX.inverse()
_LC_NEIGHBOR = cliffords.SQRT_PLUS_IZ.inverse()


def _basis_name(basis) -> str:
    name = getattr(basis, "value", basis)
    if name not in _AXIS_OF:
        raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
    return name


class BorrowedAdjacency(dict):
    """An adjacency (vertex -> neighbour set) that borrows its sets from a
    lender's until it reads them.

    It starts as a shallow copy of the lender's dict, so every set is still
    the lender's.  ``adj[v]`` swaps in a private copy of v's set the first
    time it is read, so a rewrite that changes sets only through ``adj[v]``
    never writes into the lender and copies only the sets it touches.  The
    whole-graph views (``items()``, ``get``, ``==``) read each set as it is,
    shared or private, and see the same graph.  The lender must not change
    while it is borrowed.
    """

    __slots__ = ("lender",)

    @classmethod
    def of(cls, lender: dict) -> "BorrowedAdjacency":
        adj = cls(lender)
        adj.lender = lender
        return adj

    def __getitem__(self, v):
        nbrs = dict.__getitem__(self, v)
        if nbrs is self.lender.get(v):
            nbrs = set(nbrs)
            dict.__setitem__(self, v, nbrs)
        return nbrs


class MeasurementOutcomeRecord:
    """Ordered record of (vertex, basis, outcome) triples.

    A qubit that is re-prepared and measured again (the square-lattice
    variant re-measures its electrons) has one entry per preparation
    lifetime.
    """

    def __init__(self):
        self._entries: list[tuple[int, str, int]] = []

    def append(self, vertex: int, basis, outcome: int) -> None:
        self._entries.append((vertex, _basis_name(basis), outcome))

    def entries(self) -> list[tuple[int, str, int]]:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"MeasurementOutcomeRecord({self._entries!r})"


class GraphState:
    """Graph plus vertex operators; see module docstring for semantics."""

    def __init__(self, vertices=(), edges=(), vertex_ops=None):
        self._adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            self._add_edge(int(u), int(v))
        self._set_vertex_ops(vertex_ops)

    @classmethod
    def adopt(cls, adj: dict[int, set[int]], vertex_ops=None) -> "GraphState":
        """A graph state that takes ``adj`` (vertex -> neighbour set) as its
        own adjacency, without copying it; :meth:`validate` checks it first."""
        g = cls.__new__(cls)
        g._adj = adj
        g.validate()
        g._set_vertex_ops(vertex_ops)
        return g

    def _set_vertex_ops(self, vertex_ops) -> None:
        self.vertex_ops: dict[int, Clifford1] = {}
        if vertex_ops:
            for v, op in vertex_ops.items():
                if int(v) not in self._adj:
                    raise KeyError(f"vertex op on unknown vertex {v}")
                if not op.is_identity():
                    self.vertex_ops[int(v)] = op

    # -- primitive structure -------------------------------------------------

    def _add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if u not in self._adj or v not in self._adj:
            raise KeyError(f"unknown vertex in edge ({u}, {v})")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def _upper_walk(self):
        """Each vertex in ascending order with its higher neighbours, sorted;
        read in turn, the (vertex, neighbour) pairs are the sorted edges."""
        adj = self._adj
        for v in sorted(adj):
            yield v, sorted([u for u in adj[v] if u > v])

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v, upper in self._upper_walk() for u in upper]

    def edge_count(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def neighbors(self, v: int) -> set[int]:
        return set(self._adj[v])

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def op(self, v: int) -> Clifford1:
        return self.vertex_ops.get(v, IDENTITY)

    @property
    def n(self) -> int:
        return len(self._adj)

    def copy(self) -> "GraphState":
        g = GraphState.__new__(GraphState)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g.vertex_ops = dict(self.vertex_ops)
        return g

    def relabeled(self, mapping: dict[int, int]) -> "GraphState":
        g = GraphState(
            (mapping[v] for v in self._adj),
            ((mapping[u], mapping[v]) for u, v in self.edges()),
        )
        g.vertex_ops = {mapping[v]: op for v, op in self.vertex_ops.items()}
        return g

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges())

    def validate(self) -> None:
        for v, nbrs in self._adj.items():
            if v in nbrs:
                raise AssertionError(f"self-loop at {v}")
            for u in nbrs:
                if v not in self._adj.get(u, ()):
                    raise AssertionError(f"asymmetric edge ({v},{u})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, GraphState) and self._adj == other._adj
                and self.vertex_ops == other.vertex_ops)

    def __repr__(self) -> str:
        return f"GraphState(n={self.n}, edges={self.edge_count()})"

    # -- spec operations ------------------------------------------------------

    def toggle_edge(self, u: int, v: int) -> "GraphState":
        """Flip edge (u, v); both endpoints must carry identity vertex ops."""
        if u == v:
            raise ValueError("cannot toggle a self-loop")
        for w in (u, v):
            if w not in self._adj:
                raise KeyError(f"unknown vertex {w}")
            if not self.op(w).is_identity():
                raise ValueError(
                    f"toggle_edge({u},{v}): vertex {w} carries a non-identity "
                    "operator; CZ does not commute past it")
        g = self.copy()
        if v in g._adj[u]:
            g._adj[u].discard(v)
            g._adj[v].discard(u)
        else:
            g._adj[u].add(v)
            g._adj[v].add(u)
        return g

    def local_complement(self, v: int) -> "GraphState":
        """Complement the subgraph on N(v), preserving the quantum state.

        The adjacency change is compensated by sqrt(-iX)^dag at v and
        sqrt(iZ)^dag on each neighbor, folded into the vertex operators.
        """
        g = self.copy()
        g.local_complement_inplace(v)
        return g

    def local_complement_inplace(self, v: int) -> None:
        """In-place form of :meth:`local_complement`."""
        if v not in self._adj:
            raise KeyError(f"unknown vertex {v}")
        nbrs = list(self._adj[v])
        _complement_adj(self._adj, v)
        self._compose_op(v, _LC_SELF)
        for u in nbrs:
            self._compose_op(u, _LC_NEIGHBOR)

    def _compose_op(self, v: int, correction: Clifford1) -> None:
        new = self.vertex_ops.get(v, IDENTITY).compose(correction)
        if new is IDENTITY:
            self.vertex_ops.pop(v, None)
        else:
            self.vertex_ops[v] = new

    def measure_pauli(self, v: int, basis, outcome: int):
        """Measure vertex v in a Pauli basis with the given outcome (+-1).

        Returns (graph without v, corrections) where corrections is the list
        of (vertex, Clifford1) byproduct operators that were folded into the
        remaining vertex operators.  The returned graph represents the exact
        post-measurement state of the represented state.
        """
        g = self.copy()
        corrections = g.measure_pauli_inplace(v, basis, outcome)
        return g, corrections

    def measure_pauli_inplace(self, v: int, basis, outcome: int) -> list[tuple[int, Clifford1]]:
        """In-place form of :meth:`measure_pauli`: deletes v, returns the corrections."""
        if v not in self._adj:
            raise KeyError(f"unknown vertex {v}")
        if outcome not in (1, -1):
            raise ValueError("outcome must be +1 or -1")
        name = _basis_name(basis)
        adj = self._adj
        u_v = self.vertex_ops.get(v, IDENTITY)
        eff_axis, eff_sign = u_v.inverse().conj_pauli(_AXIS_OF[name], 0)
        m_eff = outcome if eff_sign == 0 else -outcome
        nbrs = sorted(adj[v])

        corrections: list[tuple[int, Clifford1]] = []
        if eff_axis == 2:  # Z
            if m_eff == -1:
                corrections = [(u, cliffords.Z) for u in nbrs]
        elif eff_axis == 1:  # Y
            _complement_adj(adj, v)
            fix = cliffords.SQRT_MINUS_IZ if m_eff == 1 else cliffords.SQRT_PLUS_IZ
            corrections = [(u, fix) for u in nbrs]
        elif not nbrs:  # X on an isolated vertex
            if m_eff != 1:
                raise ValueError(
                    "X measurement of an isolated vertex is deterministically +1")
        else:  # X: any neighbour is a valid swap partner; the one of least
            # degree keeps the three local complementations cheap.
            b0 = min(nbrs, key=lambda u: (len(adj[u]), u))
            nb0 = set(adj[b0])
            nv = set(nbrs)
            _complement_adj(adj, b0)
            _complement_adj(adj, v)
            _complement_adj(adj, b0)
            if m_eff == 1:
                corrections = [(b0, cliffords.SQRT_PLUS_IY)]
                corrections += [(u, cliffords.Z) for u in sorted(nv - nb0 - {b0})]
            else:
                corrections = [(b0, cliffords.SQRT_MINUS_IY)]
                corrections += [(u, cliffords.Z) for u in sorted(nb0 - nv - {v})]
        del_vertex(adj, v)
        self.vertex_ops.pop(v, None)
        for u, c in corrections:
            self._compose_op(u, c)
        return corrections

    def equal_up_to_local_cliffords(self, other: "GraphState", max_orbit: int = 500_000):
        """Decide LC equivalence of the two adjacencies by orbit search.

        Returns (flag, witness): witness is the vertex sequence whose local
        complementations map self's adjacency onto other's (empty when they
        already match); None when inequivalent.  Vertex operators are
        ignored -- this compares topologies modulo local Cliffords.
        """
        if set(self._adj) != set(other._adj):
            raise ValueError("vertex sets differ")
        target = other.edge_set()
        start = self.edge_set()
        if start == target:
            return True, []
        verts = self.vertices()
        seen = {start: []}
        frontier = [start]
        while frontier:
            nxt = []
            for edges in frontier:
                adj = _edges_to_adj(verts, edges)
                base = seen[edges]
                for v in verts:
                    if not adj[v]:
                        continue
                    a2 = {u: set(s) for u, s in adj.items()}
                    _complement_adj(a2, v)
                    key = _adj_to_edges(a2)
                    if key in seen:
                        continue
                    seq = base + [v]
                    if key == target:
                        return True, seq
                    seen[key] = seq
                    nxt.append(key)
                    if len(seen) > max_orbit:
                        raise RuntimeError(
                            f"LC orbit exceeded {max_orbit} graphs; "
                            "equal_up_to_local_cliffords is bounded to small n")
            frontier = nxt
        return False, None


# fmt -> (vertex entry, edge entry, each vertex operator's name as the
# vertex entry writes it).  A JSON entry ends in the comma that separates it
# from the next one; export drops the last.
_FORMATS = {
    "dot": (b'  %d [op="%s"];\n', b"  %d -- %d;\n",
            {el: el.name.encode() for el in cliffords.ELEMENTS}),
    "json": (b'{"id": %d,"op": %s},', b"[%d,%d],",
             {el: json.dumps(el.name).encode() for el in cliffords.ELEMENTS}),
}


def export(g: GraphState, fmt: str) -> bytes:
    """Serialize a graph state; fmt is "dot" or "json".

    One ascending walk over the vertices writes each vertex's entry and its
    edges to higher neighbours, in sorted order, so the edges come out sorted
    without an edge list.  The JSON is ``json.dumps`` of ``{"vertices":
    [{"id": v, "op": name}, ...], "edges": [[u, v], ...]}`` with
    ``sort_keys=True`` and ``separators=(",", ": ")``, plus a newline.
    """
    fmt = fmt.lower()
    if fmt not in _FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    vertex_entry, edge_entry, names = _FORMATS[fmt]
    nodes, links = bytearray(), bytearray()
    for v, upper in g._upper_walk():
        nodes += vertex_entry % (v, names[g.op(v)])
        for u in upper:
            links += edge_entry % (v, u)
    if fmt == "dot":
        return b"".join([b"graph cluster {\n", nodes, links, b"}\n"])
    del nodes[-1:], links[-1:]
    return b"".join([b'{"edges": [', links, b'],"vertices": [', nodes, b"]}\n"])


def graph_from_json(text: str) -> GraphState:
    doc = json.loads(text)
    g = GraphState((v["id"] for v in doc["vertices"]), doc["edges"])
    for v in doc["vertices"]:
        if v.get("op", "I") != "I":
            g.vertex_ops[v["id"]] = cliffords.by_name(v["op"])
    return g


def _complement_adj(adj: dict[int, set[int]], v: int) -> None:
    nbrs = sorted(adj[v])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b in adj[a]:
                adj[a].discard(b)
                adj[b].discard(a)
            else:
                adj[a].add(b)
                adj[b].add(a)


def del_vertex(adj: dict[int, set[int]], v: int) -> None:
    for u in adj[v]:
        adj[u].discard(v)
    del adj[v]


def _edges_to_adj(verts, edges):
    adj = {v: set() for v in verts}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _adj_to_edges(adj):
    return frozenset((v, u) if v < u else (u, v)
                     for v, nbrs in adj.items() for u in nbrs if u != v) or frozenset()


def line_graph(n: int, start: int = 0) -> GraphState:
    """A 1-D cluster: vertices start..start+n-1 in a path."""
    check_site_cap(n)
    verts = range(start, start + n)
    return GraphState(verts, [(v, v + 1) for v in range(start, start + n - 1)])


def grid_graph(lx: int, ly: int) -> GraphState:
    """An lx-by-ly square-lattice cluster; vertex id = i * ly + j."""
    check_site_cap(lx * ly)
    verts = range(lx * ly)
    edges = []
    for i in range(lx):
        for j in range(ly):
            if i + 1 < lx:
                edges.append((i * ly + j, (i + 1) * ly + j))
            if j + 1 < ly:
                edges.append((i * ly + j, i * ly + j + 1))
    return GraphState(verts, edges)
