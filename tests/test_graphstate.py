"""Graph-state algebra: LC, measurement rewrites, LC-equivalence, export."""

import json

import numpy as np
import pytest

from conftest import dense_measure_graph, random_graph
from sicluster import cliffords
from sicluster.graphstate import (
    GraphState,
    MeasurementOutcomeRecord,
    export,
    graph_from_json,
    grid_graph,
    line_graph,
)
from sicluster.statevec import graph_to_statevector
from sicluster.tableau import from_graph_state, same_stabilizer_group


class TestToggleEdge:
    def test_toggle_and_involution(self):
        g = GraphState(range(2))
        g2 = g.toggle_edge(0, 1)
        assert g2.edges() == [(0, 1)]
        assert g2.toggle_edge(0, 1).edges() == []

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            GraphState(range(2)).toggle_edge(0, 0)

    def test_non_identity_op_rejected(self):
        g = GraphState(range(2), vertex_ops={0: cliffords.S})
        with pytest.raises(ValueError):
            g.toggle_edge(0, 1)

    def test_toggle_equals_cz_on_tableau(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            g = random_graph(n, rng)
            u, v = (int(x) for x in rng.choice(n, 2, replace=False))
            t = from_graph_state(g).apply_gate("CZ", u, v)
            t2 = from_graph_state(g.toggle_edge(u, v))
            assert same_stabilizer_group(t, t2)


class TestLocalComplement:
    def test_star_becomes_triangle(self):
        star = GraphState(range(4), [(0, 1), (0, 2), (0, 3)])
        lc = star.local_complement(0)
        for e in [(1, 2), (1, 3), (2, 3), (0, 1), (0, 2), (0, 3)]:
            assert lc.has_edge(*e)

    def test_adjacency_involution(self):
        g = line_graph(5)
        assert g.local_complement(2).local_complement(2).edge_set() == g.edge_set()

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            line_graph(3).local_complement(7)

    def test_state_preserved_100_random_graphs(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            g = random_graph(n, rng, with_ops=bool(rng.integers(2)))
            v = int(rng.integers(n))
            g2 = g.local_complement(v)
            _, sv1 = graph_to_statevector(g)
            _, sv2 = graph_to_statevector(g2)
            assert sv1.fidelity(sv2) > 1 - 1e-9

    def test_state_preserved_via_tableau(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(2, 10))
            g = random_graph(n, rng)
            v = int(rng.integers(n))
            t1 = from_graph_state(g)
            t2 = from_graph_state(g.local_complement(v))
            assert same_stabilizer_group(t1, t2)


class TestMeasurePauli:
    def test_y_center_of_star_makes_triangle(self):
        star = GraphState(range(4), [(0, 1), (0, 2), (0, 3)])
        g, _ = star.measure_pauli(0, "Y", 1)
        assert g.edge_set() == frozenset({(1, 2), (1, 3), (2, 3)})

    def test_z_isolated_vertex_removed(self):
        g = GraphState(range(3), [(1, 2)])
        g2, corr = g.measure_pauli(0, "Z", -1)
        assert g2.vertices() == [1, 2] and g2.edges() == [(1, 2)]
        assert corr == []

    def test_z_end_of_path_correction(self):
        path = line_graph(3)
        g_plus, corr_plus = path.measure_pauli(0, "Z", 1)
        assert corr_plus == [] and g_plus.edges() == [(1, 2)]
        g_minus, corr_minus = path.measure_pauli(0, "Z", -1)
        assert g_minus.edges() == [(1, 2)]
        assert corr_minus == [(1, cliffords.Z)]
        assert g_minus.op(1) == cliffords.Z

    def test_x_isolated_requires_plus(self):
        g = GraphState(range(1))
        g2, _ = g.measure_pauli(0, "X", 1)
        assert g2.n == 0
        with pytest.raises(ValueError):
            g.measure_pauli(0, "X", -1)

    def test_z_never_touches_remote_edges(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            g = random_graph(n, rng)
            v = int(rng.integers(n))
            g2, _ = g.measure_pauli(v, "Z", 1 if rng.random() < 0.5 else -1)
            before = {e for e in g.edges() if v not in e}
            assert g2.edge_set() == frozenset(before)

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_rules_match_tableau_backend(self, basis):
        # Same rewrite checked against the scalable backend: measure on the
        # tableau (forcing the graph's outcome choice via sign injection is
        # not possible, so compare on the branch the tableau takes).
        from sicluster.tableau import Basis as TB
        from sicluster.tableau import restricted_stab_graph

        rng = np.random.default_rng(101 + hash(basis) % 97)
        checked = 0
        while checked < 25:
            n = int(rng.integers(2, 8))
            g = random_graph(n, rng)
            v = int(rng.integers(n))
            t = from_graph_state(g)
            out, det = t.measure(v, TB(basis), np.random.default_rng(checked))
            try:
                g2, _ = g.measure_pauli(v, basis, out)
            except ValueError:
                assert det  # impossible branch can only be a deterministic one
                continue
            keep = [u for u in range(n) if u != v]
            adj, ops = restricted_stab_graph(t, keep)
            got = GraphState(keep, [(keep[a], keep[b]) for a, nb in adj.items()
                                    for b in nb if a < b],
                             {keep[i]: op for i, op in ops.items()})
            assert same_stabilizer_group(from_graph_state(got), from_graph_state(g2))
            checked += 1

    def test_x_swap_partner_is_the_least_connected_neighbour(self):
        # Neighbour 1 (the lowest id) is a hub; neighbour 4 touches only 0
        # and 5, so the X rule complements at 4 and leaves the hub's
        # neighbourhood to one local complementation.
        from sicluster.tableau import Basis as TB
        from sicluster.tableau import restricted_stab_graph

        g = GraphState(range(9), [(0, 1), (0, 4), (1, 2), (1, 3), (1, 6), (1, 7),
                                  (1, 8), (4, 5), (2, 3)])
        keep = [u for u in g.vertices() if u != 0]
        seen = set()
        for seed in range(20):
            t = from_graph_state(g)
            out, det = t.measure(0, TB.X, np.random.default_rng(seed))
            assert not det
            g2, corrections = g.measure_pauli(0, "X", out)
            assert corrections[0][0] == 4
            adj, ops = restricted_stab_graph(t, keep)
            got = GraphState(keep, [(keep[a], keep[b]) for a, nb in adj.items()
                                    for b in nb if a < b],
                             {keep[i]: op for i, op in ops.items()})
            assert same_stabilizer_group(from_graph_state(got), from_graph_state(g2))
            seen.add(out)
        assert seen == {1, -1}

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_rules_match_dense_oracle(self, basis):
        rng = np.random.default_rng(hash(basis) % 1000)
        checked = 0
        while checked < 40:
            n = int(rng.integers(2, 8))
            g = random_graph(n, rng, with_ops=bool(rng.integers(2)))
            v = int(rng.integers(n))
            outcome = 1 if rng.random() < 0.5 else -1
            oracle = dense_measure_graph(g, v, basis, outcome)
            try:
                g2, _ = g.measure_pauli(v, basis, outcome)
            except ValueError:
                assert oracle is None
                continue
            assert oracle is not None
            ids, sv = oracle
            ids2, sv2 = graph_to_statevector(g2)
            assert ids == ids2
            assert sv.fidelity(sv2) > 1 - 1e-9
            checked += 1


class TestLCEquivalence:
    def test_triangle_vs_star(self):
        tri = GraphState(range(3), [(0, 1), (0, 2), (1, 2)])
        star = GraphState(range(3), [(0, 1), (0, 2)])
        flag, witness = tri.equal_up_to_local_cliffords(star)
        assert flag and witness
        # replaying the witness maps the adjacency
        g = tri
        for v in witness:
            g = g.local_complement(v)
        assert g.edge_set() == star.edge_set()

    def test_path_vs_cycle_inequivalent(self):
        path = line_graph(4)
        cycle = GraphState(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
        flag, witness = path.equal_up_to_local_cliffords(cycle)
        assert not flag and witness is None

    def test_self_equivalence_empty_witness(self):
        g = line_graph(4)
        flag, witness = g.equal_up_to_local_cliffords(g)
        assert flag and witness == []

    def test_vertex_set_mismatch(self):
        with pytest.raises(ValueError):
            line_graph(3).equal_up_to_local_cliffords(GraphState(range(4)))

    def test_lc_preserves_connected_components(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            g = random_graph(n, rng)
            v = int(rng.integers(n))
            assert _components(g) == _components(g.local_complement(v))

    def test_symmetry_and_lc_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            g1 = random_graph(n, rng)
            g2 = random_graph(n, rng)
            f12, _ = g1.equal_up_to_local_cliffords(g2)
            f21, _ = g2.equal_up_to_local_cliffords(g1)
            assert f12 == f21
            v = int(rng.integers(n))
            f_lc, _ = g1.local_complement(v).equal_up_to_local_cliffords(g2)
            assert f_lc == f12


def _components(g):
    seen, comps = set(), []
    for v in g.vertices():
        if v in seen:
            continue
        stack, comp = [v], set()
        while stack:
            w = stack.pop()
            if w in comp:
                continue
            comp.add(w)
            stack.extend(g.neighbors(w) - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


class TestExport:
    def test_dot_single_edge(self):
        g = GraphState(range(2), [(0, 1)])
        dot = export(g, "dot").decode()
        assert "0 -- 1;" in dot and dot.startswith("graph")

    def test_empty_graph_valid_json(self):
        doc = json.loads(export(GraphState(), "json").decode())
        assert doc == {"vertices": [], "edges": []}

    def test_json_roundtrip_with_ops(self):
        g = GraphState(range(3), [(0, 2)], vertex_ops={1: cliffords.S})
        g2 = graph_from_json(export(g, "json").decode())
        assert g2 == g

    def test_identity_named_by_its_word_loads_as_no_operator(self):
        # "" is the identity's H/S word, which cliffords.by_name accepts.
        text = '{"edges": [[0, 1]], "vertices": [{"id": 0, "op": ""}, {"id": 1, "op": "S"}]}'
        assert graph_from_json(text) == GraphState(range(2), [(0, 1)], {1: cliffords.S})

    @pytest.mark.parametrize("doc, message", [
        ({"vertices": [{"id": 0, "op": "S"}, {"id": 0, "op": "H"}, {"id": 1}],
          "edges": [[0, 1]]}, "listed twice"),
        ({"vertices": [{"id": 0}, {"id": 1.7}], "edges": [[0, 1]]}, "vertex ids"),
        ({"vertices": [{"id": 0}, {"id": 1.0}], "edges": []}, "vertex ids"),
        ({"vertices": [{"id": 0}, {"id": True}], "edges": []}, "vertex ids"),
        ({"vertices": [{"id": "0"}], "edges": []}, "vertex ids"),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1.0]]}, "edge ends"),
        ({"vertices": [{"id": 0}, {"id": 1}], "edges": [[False, 1]]}, "edge ends"),
    ])
    def test_bad_ids_are_refused(self, doc, message):
        with pytest.raises(ValueError, match=message):
            graph_from_json(json.dumps(doc))

    def test_export_loads_to_an_equal_graph(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            g = random_graph(int(rng.integers(2, 12)), rng, with_ops=True)
            assert graph_from_json(export(g, "json").decode()) == g

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            export(GraphState(), "yaml")

    def test_deterministic_ordering(self):
        g = GraphState([3, 1, 2], [(3, 1), (2, 3)])
        assert export(g, "json") == export(g.copy(), "json")

    @staticmethod
    def _reference(g, fmt):
        """The export as it was written before the one-pass walk: a sorted
        edge list, then json.dumps of a document or one DOT line each."""
        verts = sorted(g._adj)
        edges = sorted((v, u) for v in verts for u in g._adj[v] if u > v)
        if fmt == "json":
            doc = {"vertices": [{"id": v, "op": g.op(v).name} for v in verts],
                   "edges": [list(e) for e in edges]}
            return (json.dumps(doc, sort_keys=True, separators=(",", ": ")) + "\n").encode()
        lines = ["graph cluster {"]
        lines += [f'  {v} [op="{g.op(v).name}"];' for v in verts]
        lines += [f"  {u} -- {v};" for u, v in edges]
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()

    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(41)
        for trial in range(60):
            n = int(rng.integers(0, 30))
            ids = [int(v) for v in rng.choice(10**6, n, replace=False) - 3]  # non-contiguous
            g = GraphState(ids, [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
                                 if rng.random() < 0.25])
            for v in ids:
                if rng.random() < 0.6:
                    g.vertex_ops[v] = cliffords.ELEMENTS[int(rng.integers(1, 24))]
            for fmt in ("json", "dot", "JSON"):
                assert export(g, fmt) == self._reference(g, fmt.lower()), (trial, fmt)
            assert g.edges() == sorted(g.edges()) == sorted(
                tuple(sorted(e)) for e in g.edge_set())

    def test_matches_reference_for_ids_past_64_bits(self):
        # Ids below -2**63, above 2**63 and far apart, and more vertices and
        # edges than one formatting chunk holds; a walk taken once serves
        # both formats.
        rng = np.random.default_rng(42)
        ids = [-(2**63) - 1, -(3 * 2**64), 2**63, 2**63 + 1, -(10**30), 10**30, 2**200, 0, -1]
        ids += [int(x) * 2**40 - 2**62 for x in rng.choice(10**6, 9000, replace=False)]
        order = [ids[int(i)] for i in rng.permutation(len(ids))]
        edges = list(zip(order, order[1:]))
        edges += [(a, ids[int(rng.integers(9, len(ids)))]) for a in ids[:9]]
        g = GraphState(ids, edges)
        for v in ids:
            if rng.random() < 0.6:
                g.vertex_ops[v] = cliffords.ELEMENTS[int(rng.integers(1, 24))]
        walk = g.sorted_walk()
        for fmt in ("json", "dot"):
            want = self._reference(g, fmt)
            assert export(g, fmt) == want
            assert export(g, fmt, walk) == want
        assert graph_from_json(export(g, "json", walk).decode()) == g

    def test_every_vertex_operator_name(self):
        g = GraphState(range(24), [(v, (v * 7 + 3) % 24) for v in range(24)])
        g.vertex_ops = {el.index: el for el in cliffords.ELEMENTS if not el.is_identity()}
        for fmt in ("json", "dot"):
            assert export(g, fmt) == self._reference(g, fmt)
        assert graph_from_json(export(g, "json").decode()) == g

    def test_empty_graph_matches_reference(self):
        for fmt in ("json", "dot"):
            assert export(GraphState(), fmt) == self._reference(GraphState(), fmt)
        assert export(GraphState(), "dot") == b"graph cluster {\n}\n"
        assert export(GraphState([5]), "json") == b'{"edges": [],"vertices": [{"id": 5,"op": "I"}]}\n'


class TestRecord:
    def test_order(self):
        rec = MeasurementOutcomeRecord()
        rec.append(3, "Y", -1)
        rec.append(1, "Z", 1)
        assert rec.entries() == [(3, "Y", -1), (1, "Z", 1)]

    def test_repeats_allowed_when_requested(self):
        rec = MeasurementOutcomeRecord()
        rec.append(3, "Y", -1)
        rec.append(3, "Y", 1)
        assert len(rec) == 2


def test_grid_graph_shape():
    g = grid_graph(3, 2)
    assert g.n == 6
    assert g.degree(0) == 2  # corner
    assert sorted(g.neighbors(3)) == [1, 2, 5]  # (1,1): up (1,0)=2, left(0,1)=1, right(2,1)=5


class TestAdopt:
    def test_adopts_the_sets_it_is_given(self):
        adj = {0: {1}, 1: {0, 2}, 2: {1}}
        g = GraphState.adopt(adj, {2: cliffords.S, 0: cliffords.IDENTITY})
        assert g._adj is adj
        assert g == GraphState(range(3), [(0, 1), (1, 2)], {2: cliffords.S})
        assert g.edge_count() == 2

    @pytest.mark.parametrize("adj", [
        {0: {1}, 1: set()},  # asymmetric
        {0: {0}},  # self-loop
        {0: {5}},  # neighbour that is no vertex
    ])
    def test_refuses_a_malformed_adjacency(self, adj):
        with pytest.raises(AssertionError):
            GraphState.adopt(adj)

    def test_refuses_ops_on_unknown_vertices(self):
        with pytest.raises(KeyError):
            GraphState.adopt({0: set()}, {3: cliffords.H})


class TestConstructor:
    def test_builds_symmetric_sets(self):
        g = GraphState([2, 0, 1], [(0, 1), (np.int64(1), 2)], {2: cliffords.S})
        assert g._adj == {0: {1}, 1: {0, 2}, 2: {1}}
        assert list(g._adj) == [2, 0, 1]
        assert g.vertex_ops == {2: cliffords.S}

    def test_self_loop_is_a_value_error_before_an_unknown_vertex(self):
        with pytest.raises(ValueError, match="self-loops"):
            GraphState(range(2), [(0, 1), (1, 1)])
        with pytest.raises(ValueError, match="self-loops"):
            GraphState(range(2), [(5, 5)])

    @pytest.mark.parametrize("edge", [(0, 2), (2, 0)])
    def test_unknown_vertex_is_a_key_error(self, edge):
        with pytest.raises(KeyError, match="unknown vertex in edge"):
            GraphState(range(2), [edge])
