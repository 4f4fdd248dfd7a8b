"""Stabilizer tableau: gates, measurements, expectations, graph conversion."""

import numpy as np
import pytest

from conftest import random_state_pair, tableau_graph
from sicluster.statevec import tableau_to_statevector
from sicluster.tableau import (
    MAX_TABLEAU_BYTES,
    Basis,
    PauliString,
    SizeCapError,
    StabilizerTableau,
    from_graph_state,
    graph_from_stab_matrix,
    new_plus_state,
    same_stabilizer_group,
    tableau_bytes,
)


def labels(t):
    """The stabilizer rows one per line, e.g. ``+XZI``."""
    return "\n".join(row.to_label() for row in t.stabilizer_rows())


class TestPauliString:
    def test_labels_roundtrip(self):
        for label in ("+XZI", "-IYX", "+i" + "ZZ", "-iYY", "+III"):
            p = PauliString.from_label(label)
            assert p.to_label() == label

    def test_product_phases(self):
        x = PauliString.from_label("X")
        y = PauliString.from_label("Y")
        z = PauliString.from_label("Z")
        assert (x * y).to_label() == "+i" + "Z"
        assert (y * x).to_label() == "-i" + "Z"
        assert (x * x).to_label() == "+I"
        assert (z * y).to_label() == "-i" + "X"

    def test_bad_label(self):
        with pytest.raises(ValueError):
            PauliString.from_label("+XQ")


class TestConstruction:
    def test_plus_state_stabilizers(self):
        assert labels(new_plus_state(1)) == "+X"
        assert labels(new_plus_state(3)) == "+XII\n+IXI\n+IIX"

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            new_plus_state(0)

    def test_plus_state_x_measure_deterministic(self):
        t = new_plus_state(1)
        out, det = t.measure(0, Basis.X, np.random.default_rng(0))
        assert (out, det) == (1, True)


class TestGates:
    def test_cz_graph_pair(self):
        t = new_plus_state(2).apply_gate("CZ", 0, 1)
        assert labels(t) == "+XZ\n+ZX"

    def test_h_involution_and_s_order(self):
        rng = np.random.default_rng(1)
        t, _ = random_state_pair(4, 15, rng)
        ref = labels(t)
        t.apply_gate("H", 2).apply_gate("H", 2)
        assert labels(t) == ref
        for _ in range(4):
            t.apply_gate("S", 1)
        assert labels(t) == ref

    def test_bad_targets(self):
        t = new_plus_state(2)
        with pytest.raises(IndexError):
            t.apply_gate("H", 5)
        with pytest.raises(ValueError):
            t.apply_gate("CZ", 1, 1)
        with pytest.raises(ValueError):
            t.apply_gate("FOO", 0)

    def test_invariants_hold_after_random_ops(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t, _ = random_state_pair(int(rng.integers(1, 8)), 25, rng)
            t.validate()


class TestMeasurement:
    def test_z_on_plus_is_fair_coin(self):
        outcomes = {new_plus_state(1).measure(0, Basis.Z, np.random.default_rng(s))[0]
                    for s in range(30)}
        assert outcomes == {1, -1}

    def test_post_state_stabilized_by_outcome(self):
        rng = np.random.default_rng(3)
        for trial in range(30):
            n = int(rng.integers(1, 7))
            t, _ = random_state_pair(n, 20, rng)
            q = int(rng.integers(n))
            basis = [Basis.X, Basis.Y, Basis.Z][trial % 3]
            out, det = t.measure(q, basis, np.random.default_rng(trial))
            p = PauliString.single(n, q, basis, phase_exp=0 if out == 1 else 2)
            assert t.expectation(p) == 1
            t.validate()

    def test_y_measure_star_center_yields_triangle(self):
        # Y on the center of a 3-star fuses the leaves into a triangle,
        # up to local Cliffords -- checked via the tableau pipeline alone.
        from sicluster.graphstate import GraphState
        from sicluster.tableau import restricted_stab_graph

        star = GraphState(range(4), [(0, 1), (0, 2), (0, 3)])
        triangle = GraphState(range(3), [(0, 1), (0, 2), (1, 2)])
        for seed in range(6):
            t = from_graph_state(star)
            t.measure(0, Basis.Y, np.random.default_rng(seed))
            adj, _ = restricted_stab_graph(t, [1, 2, 3])
            got = GraphState(range(3), [(a, b) for a, nb in adj.items()
                                        for b in nb if a < b])
            flag, _ = got.equal_up_to_local_cliffords(triangle)
            assert flag

    def test_deterministic_flag_means_no_rng_use(self):
        t = new_plus_state(2).apply_gate("CZ", 0, 1)

        class Boom:
            def random(self):
                raise AssertionError("rng consumed on deterministic outcome")

        val = t.expectation(PauliString.from_label("+XZ"))
        assert val == 1
        t2 = new_plus_state(1)
        out, det = t2.measure(0, Basis.X, Boom())
        assert det


class TestExpectation:
    def test_examples(self):
        t = new_plus_state(2).apply_gate("CZ", 0, 1)
        assert t.expectation(PauliString.from_label("+XZ")) == 1
        assert t.expectation(PauliString.from_label("-XZ")) == -1
        assert new_plus_state(2).expectation(PauliString.from_label("+ZI")) == 0

    def test_triangle_graph_generator(self):
        from sicluster.graphstate import GraphState

        tri = GraphState(range(3), [(0, 1), (0, 2), (1, 2)])
        t = from_graph_state(tri)
        assert t.expectation(PauliString.from_label("+XZZ")) == 1
        assert t.expectation(PauliString.from_label("+ZXZ")) == 1

    def test_imaginary_phase_rejected(self):
        t = new_plus_state(1)
        with pytest.raises(ValueError):
            t.expectation(PauliString.from_label("+iX"))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            new_plus_state(2).expectation(PauliString.from_label("+X"))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n = int(rng.integers(1, 6))
            t, sv = random_state_pair(n, 20, rng)
            p = PauliString(n, rng.integers(0, 2, n), rng.integers(0, 2, n),
                            2 * int(rng.integers(2)))
            want = complex(sv.expectation(p))
            got = t.expectation(p)
            assert abs(want - got) < 1e-9


class TestGraphConversion:
    def test_cz_pair_graph(self):
        g = tableau_graph(new_plus_state(2).apply_gate("CZ", 0, 1))
        assert g.edges() == [(0, 1)]
        assert not g.vertex_ops

    def test_ket_zero_graph(self):
        from sicluster import cliffords

        g = tableau_graph(new_plus_state(1).apply_gate("H", 0))
        assert g.edges() == []
        assert g.op(0) == cliffords.H

    def test_roundtrip_200_random_states(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(1, 13))
            t, _ = random_state_pair(n, int(rng.integers(1, 40)), rng)
            ref = t.copy()
            g = tableau_graph(t)
            t2 = from_graph_state(g)
            t2.validate()
            assert same_stabilizer_group(ref, t2)

    def test_restriction_of_unmeasured_product_qubit(self):
        # Z-measuring one end of a CZ pair leaves the other in |+-> with a
        # presentation that still references it; the restriction must elect
        # a pseudo-generator and return the clean marginal.
        from sicluster.graphstate import GraphState
        from sicluster.statevec import graph_to_statevector
        from sicluster.tableau import restricted_stab_graph

        for seed in range(8):
            t = new_plus_state(2).apply_gate("CZ", 0, 1)
            out, _ = t.measure(1, Basis.Z, np.random.default_rng(seed))
            adj, ops = restricted_stab_graph(t.copy(), [1])
            g = GraphState([0], [], ops)
            _, sv = graph_to_statevector(g)
            # kept qubit should be exactly |0> or |1> per the outcome
            want = np.zeros(2, complex)
            want[0 if out == 1 else 1] = 1.0
            assert abs(np.vdot(want, sv.psi)) > 1 - 1e-9
            # and dropping the measured qubit instead also works
            adj2, ops2 = restricted_stab_graph(t, [0])
            g2 = GraphState([0], [], ops2)
            _, sv2 = graph_to_statevector(g2)
            plus = np.array([1, out], complex) / np.sqrt(2)
            assert abs(np.vdot(plus, sv2.psi)) > 1 - 1e-9

    def test_restriction_rejects_entangled_drop(self):
        from sicluster.tableau import restricted_stab_graph

        t = new_plus_state(2).apply_gate("CZ", 0, 1)
        with pytest.raises(ValueError):
            restricted_stab_graph(t, [1])

    def test_restriction_drops_internally_entangled_pair(self):
        from sicluster.tableau import restricted_stab_graph

        # Keep only a spectator; the dropped pair is entangled within itself
        # (mixed letters per column), handled by excluding its rows outright.
        t = new_plus_state(3).apply_gate("CZ", 1, 2)
        t.apply_gate("H", 1)
        adj, ops = restricted_stab_graph(t.copy(), [0])
        assert adj == {0: set()} and not ops

    def test_restriction_smeared_presentation_with_negative_sign(self):
        from sicluster.graphstate import GraphState
        from sicluster.statevec import graph_to_statevector
        from sicluster.tableau import restricted_stab_graph

        # Presentations listing the dropped qubit's letter on several rows,
        # including one that IS the bare generator, with sigma = -1.  The
        # rows go straight into the stabilizer half, which is all the
        # restriction reads.
        t = new_plus_state(3)
        for i, label in enumerate(("-XZI", "-XIX", "-XII")):
            p = PauliString.from_label(label)
            t.x[3 + i], t.z[3 + i], t.r[3 + i] = p.x, p.z, p.phase_exp == 2
        adj, ops = restricted_stab_graph(t, [1, 2])
        # group elements with I at qubit 0: r1*r3 = +Z1, r2*r3 = +X2
        g = GraphState([0, 1], [(a + 0, b) for a, nb in adj.items()
                                for b in nb if a < b],
                       {v: op for v, op in ops.items()})
        _, sv = graph_to_statevector(g)
        ref = from_graph_state(g)
        assert ref.expectation(PauliString.from_label("+ZI")) == 1
        assert ref.expectation(PauliString.from_label("+IX")) == 1


class TestDenseAgreement:
    def test_tableau_renders_to_same_state(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            t, sv = random_state_pair(n, 25, rng)
            assert sv.fidelity(tableau_to_statevector(t)) > 1 - 1e-9

    def test_copy_is_independent(self):
        t = new_plus_state(3)
        c = t.copy()
        c.apply_gate("CZ", 0, 1)
        assert labels(t) == "+XII\n+IXI\n+IIX"
        assert labels(c) != labels(t)


class TestGraphReduction:
    def test_dependent_rows_raise_value_error(self):
        # Rows X_0 Z_1 and X_0 Z_1 again: the set is dependent, so no graph
        # form exists; the caller must see a ValueError, not an assertion.
        x = np.array([[1, 0], [1, 0]], bool)
        z = np.array([[0, 1], [0, 1]], bool)
        with pytest.raises(ValueError, match="rank-deficient"):
            graph_from_stab_matrix(x, z, np.zeros(2, bool))


class TestResourceGuard:
    def test_estimate(self):
        # Bool x and z of shape (2n, n) and r of shape (2n,).
        assert tableau_bytes(1) == 6
        assert tableau_bytes(3) == 2 * 6 * 3 + 6
        t = new_plus_state(7)
        assert tableau_bytes(7) == t.x.nbytes + t.z.nbytes + t.r.nbytes
        assert tableau_bytes(20_000) == 4 * 20_000**2 + 2 * 20_000

    def test_cap_boundary(self):
        # 23 170 qubits fit under the cap; one more qubit is over it.
        assert tableau_bytes(23_170) <= MAX_TABLEAU_BYTES
        assert tableau_bytes(23_171) > MAX_TABLEAU_BYTES

    def test_oversized_tableau_refused_before_allocating(self):
        with pytest.raises(SizeCapError):
            StabilizerTableau(2**16 + 1)
        with pytest.raises(SizeCapError):
            new_plus_state(180_000)  # a 300x300-site protocol, ~16 GB
