"""Dense backend: gates, Born sampling, stabilizer reconstruction."""

import numpy as np
import pytest

from conftest import EIGENSTATES, random_state_pair
from sicluster.statevec import (
    MAT_H,
    DenseRegister,
    MAX_QUBITS,
    SizeCapError,
    StateVector,
    ZeroProbabilityError,
    graph_to_statevector,
    mat_rz,
    _support_basis,
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
            sv.contract(0, np.array([0, 1], complex))

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


def _random_dense(n, rng):
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, psi / np.linalg.norm(psi))


def _eigvec(basis, outcome):
    """The reference eigenvector, built apart from the code under test."""
    if isinstance(basis, Basis):
        return EIGENSTATES[(basis.value, outcome)]
    return (mat_rz(basis) @ MAT_H)[:, 0 if outcome == 1 else 1]


_READOUTS = [Basis.X, Basis.Y, Basis.Z, 0.7]


class TestMeasureOut:
    """measure_out is measure (or measure_xy_angle) followed by contract."""

    @staticmethod
    def _reference(sv, q, basis, rng):
        if isinstance(basis, Basis):
            outcome, det = sv.measure(q, basis, rng)
        else:
            outcome, det = sv.measure_xy_angle(q, basis, rng)
        return outcome, det, sv.contract(q, _eigvec(basis, outcome))

    def _check(self, sv, q, basis, seed):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        out_ref, det_ref, rest_ref = self._reference(sv.copy(), q, basis, ref_rng)
        n = sv.n
        outcome, det, ket = sv.measure_out(q, basis, rng)
        assert (outcome, det) == (out_ref, det_ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert np.allclose(ket, _eigvec(basis, outcome), atol=1e-15)
        assert sv.n == n - 1 and sv.psi.shape == (1 << (n - 1),)
        assert abs(np.vdot(rest_ref.psi, sv.psi)) >= 1 - 1e-12
        return outcome, det, rng.bit_generator.state

    @pytest.mark.parametrize("basis", _READOUTS, ids=str)
    def test_random_states_match_measure_then_contract(self, basis):
        rng = np.random.default_rng(17)
        outcomes = set()
        for seed in range(40):
            n = int(rng.integers(1, 7))
            outcome, det, _ = self._check(_random_dense(n, rng), int(rng.integers(n)), basis,
                                          seed)
            assert not det
            outcomes.add(outcome)
        assert outcomes == {1, -1}

    @pytest.mark.parametrize("basis", _READOUTS, ids=str)
    @pytest.mark.parametrize("outcome", [1, -1])
    def test_deterministic_branches_draw_no_coin(self, basis, outcome):
        rng = np.random.default_rng(23)
        for q in range(3):
            rest = _random_dense(2, rng).psi.reshape(2, 2)
            psi = np.einsum("a,bc->abc", _eigvec(basis, outcome), rest)
            sv = StateVector(3, np.moveaxis(psi, 0, q).reshape(-1))
            fresh = np.random.default_rng(q).bit_generator.state
            assert self._check(sv, q, basis, seed=q) == (outcome, True, fresh)

    @pytest.mark.parametrize("basis", _READOUTS, ids=str)
    def test_last_qubit_leaves_a_phase(self, basis):
        sv = _random_dense(1, np.random.default_rng(5))
        self._check(sv, 0, basis, seed=0)
        assert sv.n == 0 and abs(abs(sv.psi[0]) - 1) < 1e-12


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


def _rescanning_support_basis(offsets, dim, k):
    """The support-basis loop as it was before the pointer walk: it rescans
    every offset once per basis vector.  Kept as the reference."""
    in_span = np.zeros(dim, bool)
    in_span[0] = True
    span = np.zeros(1, np.int64)
    basis = []
    while len(basis) <= k:
        outside = offsets[~in_span[offsets]]
        if outside.size == 0:
            break
        basis.append(int(outside[0]))
        span = np.concatenate([span, span ^ basis[-1]])
        in_span[span] = True
    if len(basis) != k:
        raise ValueError("support is not an affine subspace")
    return basis, span


def _basis_or_error(fn, *args):
    try:
        basis, span = fn(*args)
    except ValueError as exc:
        return str(exc)
    return basis, span.tolist()


class TestSupportBasis:
    def test_matches_rescanning_loop_on_stabilizer_states(self):
        rng = np.random.default_rng(31)
        for _ in range(80):
            n = int(rng.integers(1, 13))
            _, sv = random_state_pair(n, int(rng.integers(1, 4 * n + 2)), rng)
            support = np.flatnonzero(np.abs(sv.psi) > 0.5 * np.abs(sv.psi).max())
            offsets = np.sort(support ^ support[0])
            k = int(round(np.log2(support.size)))
            got = _basis_or_error(_support_basis, offsets, k)
            assert isinstance(got, tuple)
            assert got == _basis_or_error(_rescanning_support_basis, offsets, 1 << n, k)

    def test_matches_rescanning_loop_on_non_affine_supports(self):
        rng = np.random.default_rng(32)
        refused = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            k = int(rng.integers(0, n + 1))
            if rng.random() < 0.5:  # an affine support with some offsets moved
                _, sv = random_state_pair(n, 3 * n, rng)
                offsets = np.flatnonzero(np.abs(sv.psi) > 0.5 * np.abs(sv.psi).max())
                offsets ^= offsets[0]
                k = int(round(np.log2(offsets.size)))
                pool = np.setdiff1d(np.arange(1 << n), offsets)
                m = min(int(rng.integers(1, 3)), offsets.size - 1, pool.size)
                moved = 1 + rng.choice(offsets.size - 1, m, replace=False)
                offsets[moved] = rng.choice(pool, m, replace=False)
            else:
                offsets = np.concatenate([[0], rng.choice(
                    np.arange(1, 1 << n), (1 << k) - 1, replace=False)])
            offsets = np.sort(offsets)
            got = _basis_or_error(_support_basis, offsets, k)
            assert got == _basis_or_error(_rescanning_support_basis, offsets, 1 << n, k)
            refused += isinstance(got, str)
        assert refused > 100


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


def test_dense_register_cz_leaves_a_borrowed_adjacency_alone():
    adj = {0: {1}, 1: {0, 2}, 2: {1}}
    lent, contents = dict(adj), {v: set(nbrs) for v, nbrs in adj.items()}
    reg = DenseRegister(adjacency=adj)
    reg.cz(0, 1)  # cancels a borrowed edge
    reg.cz(2, 0)
    reg.cz(2, 3)  # reaches a qubit the adjacency does not name
    assert adj == contents and all(adj[v] is nbrs for v, nbrs in lent.items())
    assert reg.pending == {0: {2}, 1: {2}, 2: {0, 1, 3}, 3: {2}}
    _, want = graph_to_statevector(GraphState(range(4), [(0, 2), (1, 2), (2, 3)]))
    got = reg.gather([0, 1, 2, 3]).reshape(-1)
    assert np.allclose(got, want.psi)
