"""Graph-state algebra: local complementation and Pauli-measurement rewrites.

A ``GraphState`` is an adjacency structure over stable integer vertex ids
plus a per-vertex local Clifford ("vertex operator"); with all vertex
operators equal to the identity the represented state is
``prod_{(u,v) in E} CZ_uv |+>^n``.  The public operations are functional
(they return a new instance) and purely combinatorial; each rewrite is a
copy followed by its ``*_inplace`` form, whose core the graph-state engine
in ``sicluster.graphsim`` calls directly.  Measurement outcomes are inputs,
drawn by the caller from a backend or a fair coin, which keeps this module
deterministic.

Adjacency is stored as an unordered set of neighbours per vertex rather
than a bit matrix, so that edge toggles and vertex deletion stay cheap at
10^4-vertex protocol scale.
"""

from __future__ import annotations

import itertools
import json

from sicluster import cliffords
from sicluster.cliffords import IDENTITY, Clifford1

_AXIS_OF = {"X": 0, "Y": 1, "Z": 2}

# Largest donor lattice or generated cluster, in sites.  A build and its JSON
# and DOT export peak at up to 1.8 KiB per site (standard and square: 624 and
# 642 MiB at 600x600, 1,513 and 1,720 MiB at 1000x1000; BENCH_protocol.json,
# 2-core 8 GB machine), so 10^6 sites stay under a quarter of it.
MAX_SITES = 10**6
MAX_LC_ORBIT = 500_000  # graphs equal_up_to_local_cliffords visits before giving up


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
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("self-loops are not allowed")
            if u not in adj or v not in adj:
                raise KeyError(f"unknown vertex in edge ({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = adj
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

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def sorted_walk(self) -> tuple[list[int], list[int], list[int]]:
        """The vertices in ascending order, how many higher neighbours each
        has, and those neighbours, each vertex's sorted, in one list; read in
        turn, the (vertex, neighbour) pairs are the sorted edges."""
        adj = self._adj
        verts = sorted(adj)
        uppers = [sorted([u for u in adj[v] if u > v]) for v in verts]
        return verts, list(map(len, uppers)), list(itertools.chain.from_iterable(uppers))

    def edges(self) -> list[tuple[int, int]]:
        return list(_walk_pairs(self.sorted_walk()))

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
        axis = _AXIS_OF[_basis_name(basis)]
        eff_axis, eff_sign = self.vertex_ops.get(v, IDENTITY).inverse().conj_pauli(axis)
        fixes = self._measure_isolating(v, eff_axis, outcome if eff_sign == 0 else -outcome)
        del self._adj[v]
        self.vertex_ops.pop(v, None)
        return [(u, c) for c, us in fixes for u in sorted(us)]

    def _measure_isolating(self, v: int, eff_axis: int, m_eff: int) -> list:
        """Measure v with outcome ``m_eff`` on ``eff_axis``, the measured axis
        seen through v's operator; v is left isolated, its operator as it
        was.  Returns the byproducts as (Clifford1, vertices) groups."""
        adj = self._adj
        nbrs = adj[v]
        if eff_axis == 2:  # Z
            fixes = [(cliffords.Z, nbrs)] if m_eff == -1 else []
        elif eff_axis == 1:  # Y
            _complement_adj(adj, v)
            fixes = [(cliffords.SQRT_MINUS_IZ if m_eff == 1 else cliffords.SQRT_PLUS_IZ, nbrs)]
        elif not nbrs:  # X on an isolated vertex
            if m_eff != 1:
                raise ValueError(
                    "X measurement of an isolated vertex is deterministically +1")
            return []
        else:  # X: any neighbour is a valid swap partner; the one of least
            # degree keeps the three local complementations cheap.
            b0 = min(nbrs, key=lambda u: (len(adj[u]), u))
            nb0 = set(adj[b0])
            nv = set(nbrs)
            _complement_adj(adj, b0)
            _complement_adj(adj, v)
            _complement_adj(adj, b0)
            if m_eff == 1:
                fixes = [(cliffords.SQRT_PLUS_IY, (b0,)), (cliffords.Z, nv - nb0 - {b0})]
            else:
                fixes = [(cliffords.SQRT_MINUS_IY, (b0,)), (cliffords.Z, nb0 - nv - {v})]
            nbrs = adj[v]
        for u in nbrs:
            adj[u].discard(v)
        adj[v] = set()
        for c, us in fixes:
            for u in us:
                self._compose_op(u, c)
        return fixes

    def equal_up_to_local_cliffords(self, other: "GraphState"):
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
                    if len(seen) > MAX_LC_ORBIT:
                        raise RuntimeError(
                            f"LC orbit exceeded {MAX_LC_ORBIT} graphs; "
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
# Entries per % call in export: few enough that the argument tuple stays small.
_CHUNK = 4096


def export(g: GraphState, fmt: str, walk=None) -> bytes:
    """Serialize a graph state; fmt is "dot" or "json".

    ``walk`` is ``g.sorted_walk()``, which a caller writing both formats
    takes once; its (vertex, neighbour) pairs are the sorted edges.  The
    JSON is ``json.dumps`` of ``{"vertices": [{"id": v, "op": name}, ...],
    "edges": [[u, v], ...]}`` with ``sort_keys=True`` and ``separators=(",",
    ": ")``, plus a newline.
    """
    fmt = fmt.lower()
    if fmt not in _FORMATS:
        raise ValueError(f"unknown export format {fmt!r}")
    vertex_entry, edge_entry, names = _FORMATS[fmt]
    walk = g.sorted_walk() if walk is None else walk
    verts, uppers = walk[0], walk[2]
    ops = map(names.__getitem__, map(g.vertex_ops.get, verts, itertools.repeat(IDENTITY)))
    nodes = _entries(vertex_entry, zip(verts, ops), len(verts))
    links = _entries(edge_entry, _walk_pairs(walk), len(uppers))
    if fmt == "dot":
        return b"".join([b"graph cluster {\n", *nodes, *links, b"}\n"])
    for chunks in (nodes, links):
        chunks[-1:] = [last[:-1] for last in chunks[-1:]]
    return b"".join([b'{"edges": [', *links, b'],"vertices": [', *nodes, b"]}\n"])


def _walk_pairs(walk):
    """The (vertex, neighbour) pairs of a :meth:`GraphState.sorted_walk`."""
    verts, counts, uppers = walk
    return zip(itertools.chain.from_iterable(map(itertools.repeat, verts, counts)), uppers)


def _entries(entry: bytes, pairs, n: int) -> list[bytes]:
    """``entry % pair`` for each of the n pairs, one % call per _CHUNK pairs."""
    args = itertools.chain.from_iterable(pairs)
    return [(entry * k) % tuple(itertools.islice(args, 2 * k))
            for k in (min(_CHUNK, n - start) for start in range(0, n, _CHUNK))]


def graph_from_json(text: str) -> GraphState:
    """The graph state of a document in the JSON form :func:`export` writes.

    A document of the wrong shape raises KeyError, TypeError or ValueError;
    so does one that names a vertex twice, or gives a vertex id or an edge
    end that is not an integer (booleans and floats included).
    """
    doc = json.loads(text)
    vertices, edges = doc["vertices"], doc["edges"]
    del doc
    check_site_cap(len(vertices))
    ids = [v["id"] for v in vertices]
    if not set(map(type, ids)) <= {int}:
        raise ValueError("vertex ids must be integers")
    if len(set(ids)) != len(ids):
        raise ValueError("a vertex id is listed twice")
    if not set(map(type, itertools.chain.from_iterable(edges))) <= {int}:
        raise ValueError("edge ends must be integers")
    ops = {v["id"]: cliffords.by_name(v["op"]) for v in vertices if v.get("op", "I") != "I"}
    del vertices
    return GraphState(ids, edges, ops)


def _complement_adj(adj: dict[int, set[int]], v: int) -> None:
    """Toggle every edge between two neighbours of v: each neighbour's set
    takes the symmetric difference with v's, less itself."""
    nbrs = adj[v]
    for a in nbrs:
        na = adj[a]
        na ^= nbrs
        na.discard(a)


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
