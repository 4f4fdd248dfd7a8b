"""Dense backend: gates, Born sampling, stabilizer reconstruction."""

import numpy as np
import pytest

from conftest import random_state_pair
from sicluster.statevec import (
    MAX_QUBITS,
    SizeCapError,
    StateVector,
    ZeroProbabilityError,
    graph_to_statevector,
    tableau_from_statevector,
    tableau_to_statevector,
)
from sicluster.graphstate import GraphState
from sicluster.tableau import Basis, PauliString, new_plus_state, same_stabilizer_group


class TestBasics:
    def test_plus_measure_z_fair(self):
        outs = set()
        for seed in range(30):
            sv = StateVector.all_plus(1)
            out, det = sv.measure(0, Basis.Z, np.random.default_rng(seed))
            assert not det
            outs.add(out)
        assert outs == {1, -1}

    def test_cz_then_x_measure(self):
        for seed in range(10):
            sv = StateVector.all_plus(2)
            sv.apply_cz(0, 1)
            out, det = sv.measure(0, Basis.X, np.random.default_rng(seed))
            assert not det
            # remaining qubit is the corresponding H eigenstate |0>/|1> .. check
            # via stabilizer: qubit 1 should now satisfy <out * Z_1>? measure X0 of
            # graph pair leaves qubit 1 in |0/1> basis state up to H frame.
            p1 = sv.prob_one(1)
            assert p1 < 1e-9 or p1 > 1 - 1e-9

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            StateVector(MAX_QUBITS + 1)

    def test_zero_probability_branch(self):
        sv = StateVector(1)  # |0>
        with pytest.raises(ZeroProbabilityError):
            sv.project_z(0, 1)

    def test_norm_check(self):
        with pytest.raises(AssertionError):
            StateVector(1, np.array([2.0, 0.0]))

    def test_expectation_triangle_parity(self):
        tri = GraphState(range(3), [(0, 1), (0, 2), (1, 2)])
        _, sv = graph_to_statevector(tri)
        val = sv.expectation(PauliString.from_label("+XZZ"))
        assert abs(val - 1) < 1e-12

    def test_cnot_and_cphase(self):
        sv = StateVector(2)
        sv.apply_gate("X", 0)
        sv.apply_cnot(0, 1)
        assert abs(sv.psi[3] - 1) < 1e-12  # |11>
        sv.apply_cphase(np.pi / 3, 0, 1)
        assert abs(sv.psi[3] - np.exp(1j * np.pi / 3)) < 1e-12


class TestMeasureFrames:
    @pytest.mark.parametrize("basis", [Basis.X, Basis.Y, Basis.Z])
    def test_repeat_measurement_is_deterministic(self, basis):
        rng = np.random.default_rng(3)
        for seed in range(10):
            t, sv = random_state_pair(3, 15, np.random.default_rng(seed))
            out1, _ = sv.measure(1, basis, rng)
            out2, det2 = sv.measure(1, basis, rng)
            assert out2 == out1 and det2

    def test_xy_angle_consistency_with_x(self):
        for seed in range(10):
            a = StateVector.all_plus(2).apply_cz(0, 1)
            b = StateVector.all_plus(2).apply_cz(0, 1)
            o1, _ = a.measure(0, Basis.X, np.random.default_rng(seed))
            o2, _ = b.measure_xy_angle(0, 0.0, np.random.default_rng(seed))
            assert o1 == o2
            assert a.fidelity(b) > 1 - 1e-9


class TestReconstruction:
    def test_roundtrip_random_states(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            n = int(rng.integers(1, 8))
            t, sv = random_state_pair(n, int(rng.integers(1, 30)), rng)
            t2 = tableau_from_statevector(sv.psi)
            t2.validate()
            assert same_stabilizer_group(t, t2)

    def test_rejects_non_stabilizer_state(self):
        psi = np.array([1.0, 0.5], complex)
        psi /= np.linalg.norm(psi)
        with pytest.raises(ValueError):
            tableau_from_statevector(psi)
        psi = np.array([1.0, np.exp(0.3j)], complex) / np.sqrt(2)
        with pytest.raises(ValueError):
            tableau_from_statevector(psi)

    def test_rejects_ccz_on_plus_states(self):
        # Uniform support and +-1 phases, but the cubic phase of CCZ|+++>
        # passes every pairwise check and fails only on the full support.
        psi = np.ones(8, complex) / np.sqrt(8)
        psi[7] *= -1
        with pytest.raises(ValueError, match="phases do not fit a quadratic form"):
            tableau_from_statevector(psi)

    def test_tableau_to_statevector_roundtrip(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            t, sv = random_state_pair(n, 20, rng)
            assert tableau_to_statevector(t).fidelity(sv) > 1 - 1e-9

    def test_graph_with_ops_renders(self):
        from sicluster import cliffords

        g = GraphState(range(2), [(0, 1)], vertex_ops={0: cliffords.H})
        ids, sv = graph_to_statevector(g)
        t = tableau_from_statevector(sv.psi)
        t2 = new_plus_state(2).apply_gate("CZ", 0, 1).apply_gate("H", 0)
        assert same_stabilizer_group(t, t2)


class TestSvRun:
    def test_plus_measure_z(self):
        from sicluster.statevec import sv_run

        outs = set()
        for seed in range(20):
            _, outcomes = sv_run(1, [("M", 0, "Z")], np.random.default_rng(seed))
            outs.add(outcomes[0][2])
        assert outs == {1, -1}

    def test_cz_plus_plus_then_x(self):
        from sicluster.statevec import sv_run

        for seed in range(10):
            sv, outcomes = sv_run(2, [("CZ", 0, 1), ("M", 0, "X")],
                                  np.random.default_rng(seed))
            # partner collapses to a Z eigenstate (H-related to |+->)
            p1 = sv.prob_one(1)
            assert p1 < 1e-9 or p1 > 1 - 1e-9

    def test_graph_source_parity(self):
        from sicluster.statevec import sv_run

        tri = GraphState(range(3), [(0, 1), (0, 2), (1, 2)])
        sv, _ = sv_run(tri, [])
        assert abs(sv.expectation(PauliString.from_label("+XZZ")) - 1) < 1e-12

    def test_matches_tableau_transcript(self):
        from sicluster.statevec import sv_run

        ops = [("H", 0), ("CZ", 0, 1), ("CNOT", 1, 2), ("S", 2),
               ("M", 0, "Y"), ("M", 2, "X"), ("M", 1, "Z")]
        for seed in range(10):
            _, dense_out = sv_run(3, ops, np.random.default_rng(seed))
            t = new_plus_state(3)
            rng = np.random.default_rng(seed)
            tab_out = []
            for op in ops:
                if op[0] == "M":
                    o, _ = t.measure(op[1], Basis(op[2]), rng)
                    tab_out.append((op[1], op[2], o))
                else:
                    t.apply_gate(op[0], *op[1:])
            assert dense_out == tab_out
