"""Dense backend: gates, Born sampling, stabilizer reconstruction."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EIGENSTATES, after_draws, random_state_pair
from sicluster import statevec
from sicluster.statevec import (
    KET_ONE,
    KET_PLUS,
    KET_ZERO,
    MAT_H,
    DenseRegister,
    MAX_QUBITS,
    SizeCapError,
    StateVector,
    ZeroProbabilityError,
    graph_to_statevector,
    mat_rz,
    _support_basis,
    stabilizer_matrix,
    tableau_from_statevector,
    tableau_to_statevector,
)
from sicluster.graphstate import GraphState
from sicluster.rng import CoinRows
from sicluster.tableau import (
    Basis,
    PauliString,
    graph_from_stab_matrix,
    new_plus_state,
    restricted_stab_graph,
    same_stabilizer_group,
)


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

    def test_cnot(self):
        sv = StateVector(2)
        sv.apply_gate("X", 0)
        sv.apply_cnot(0, 1)
        assert abs(sv.psi[3] - 1) < 1e-12  # |11>


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


def _ket(*factors):
    """The product state of the given one-qubit kets, qubit 0 first."""
    psi = np.ones(1, complex)
    for ket in factors:
        psi = np.kron(psi, ket)
    return psi


def _h_all(t):
    """``t`` with H on every qubit: |+>^n becomes |0>^n."""
    for q in range(t.n):
        t.apply_gate("H", q)
    return t


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 8), depth=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_stabilizer_matrix_reduces_to_the_restricted_tableau_graph(n, depth, seed):
    """One reduction of the generators read off the amplitudes gives the graph
    form that restricting the paired tableau to every qubit gives."""
    t, sv = random_state_pair(n, depth, np.random.default_rng(seed))
    assert graph_from_stab_matrix(*stabilizer_matrix(sv.psi)) == restricted_stab_graph(
        t, list(range(n)))


@pytest.mark.parametrize("psi, t", [
    # k = 0: a basis state, every generator Z-type
    (_ket(KET_ZERO, KET_ZERO, KET_ZERO), _h_all(new_plus_state(3))),
    (_ket(KET_ONE, KET_ZERO), _h_all(new_plus_state(2)).apply_gate("X", 0)),
    (_ket(KET_ZERO), _h_all(new_plus_state(1))),
    # k = n: full support, every generator X-type
    (_ket(*[KET_PLUS] * 4), new_plus_state(4)),
    (_ket(KET_PLUS), new_plus_state(1)),
], ids=["000", "10", "0", "++++", "+"])
def test_stabilizer_matrix_on_empty_and_full_support_bases(psi, t):
    x, z, r = stabilizer_matrix(psi)
    assert x.shape == z.shape == (t.n, t.n) and r.shape == (t.n,)
    assert graph_from_stab_matrix(x, z, r) == restricted_stab_graph(t, list(range(t.n)))


@pytest.mark.parametrize("psi, message", [
    (np.ones(3) / np.sqrt(3), "amplitude count is not a power of two"),
    (np.zeros(4), "zero state"),
    (np.array([1.0, 0.3, 0, 0]) / np.sqrt(1.09),
     "amplitude magnitudes are not uniform on the support"),
    (np.array([1.0, 1, 1, 0]) / np.sqrt(3), "support size is not a power of two"),
    (np.array([1.0, 1, 1, 0, 1, 0, 0, 0]) / 2, "support is not an affine subspace"),
    (np.array([1.0, 0.8]) / np.sqrt(1.64), "non-uniform amplitude ratio"),
    (np.array([1.0, np.exp(0.25j * np.pi)]) / np.sqrt(2), "amplitude phases are not powers of i"),
    (np.array([1.0, 1, 1, 1j]) / 2, "phase function is not quadratic over GF(2)"),
    (np.array([1.0, 1, 1, 1, 1, 1, 1, -1]) / np.sqrt(8), "phases do not fit a quadratic form"),
])
def test_stabilizer_matrix_keeps_every_refusal(psi, message):
    """Each refusal an input can reach, with the message the tableau round
    trip gave.  The rank check guards the elimination (see below); the
    imaginary-phase one cannot fire, as R w = T[:, j] makes r_j.w = c_j
    mod 2."""
    for fn in (stabilizer_matrix, tableau_from_statevector):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(psi)


def test_dependent_support_basis_is_refused(monkeypatch):
    """A dependent support basis, which ``_support_basis`` never returns, is
    refused as rank-deficient by the elimination."""
    monkeypatch.setattr(statevec, "_support_basis",
                        lambda offsets, k: ([1, 1], np.array([0, 1, 1, 0])))
    with pytest.raises(ValueError, match="^support basis matrix is rank-deficient$"):
        stabilizer_matrix(_ket(KET_PLUS, KET_PLUS))


def _doubling_fit(kappa, k):
    """The quadratic-form check as it was before the one-pass recurrence: c
    off the basis vectors, b off their pairs, then the prediction built one
    top bit at a time.  Returns the refusal message, or None.  Kept as the
    reference."""
    cvec = [int(kappa[1 << j]) for j in range(k)]
    bmat = np.zeros((k, k), np.int64)
    for j in range(k):
        for l in range(j + 1, k):
            diff = (int(kappa[(1 << j) | (1 << l)]) - cvec[j] - cvec[l]) % 4
            if diff & 1:
                return "phase function is not quadratic over GF(2)"
            bmat[j, l] = bmat[l, j] = diff >> 1
    pred = np.zeros(1, np.int64)
    for j in range(k):
        cross = np.zeros(1, np.int64)
        for l in range(j):
            cross = np.concatenate([cross, cross + bmat[j, l]])
        pred = np.concatenate([pred, pred + cvec[j] + 2 * cross])
    if np.any((pred - kappa) % 4):
        return "phases do not fit a quadratic form"
    return None


def test_quadratic_fit_matches_the_doubling_loop():
    """On full supports, quadratic phase tables with one entry moved or a
    cubic term added are refused exactly when the doubling loop refuses
    them, with its message."""
    rng = np.random.default_rng(41)
    seen = set()
    for _ in range(400):
        k = int(rng.integers(1, 8))
        u = np.arange(1 << k)
        bits = (u[:, None] >> np.arange(k)) & 1
        b = np.triu(rng.integers(0, 2, (k, k)), 1)
        kappa = bits @ rng.integers(0, 4, k) + 2 * np.einsum("uj,jl,ul->u", bits, b, bits)
        change = rng.integers(3)
        if change == 1:
            kappa[rng.integers(1 << k)] += rng.integers(1, 4)
        elif change == 2 and k >= 3:
            a, c, e = rng.choice(k, 3, replace=False)
            kappa += 2 * bits[:, a] * bits[:, c] * bits[:, e]
        kappa = (kappa - kappa[0]) % 4
        want = _doubling_fit(kappa, k)
        try:
            stabilizer_matrix(1j ** kappa / np.sqrt(1 << k))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        seen.add(want)
    assert len(seen) == 3


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


class TestBatchedReadout:
    """A batch of states reads out each slice as it would alone, each on its
    own row of coins."""

    @pytest.mark.parametrize("basis", _READOUTS, ids=str)
    @pytest.mark.parametrize("drop", [False, True])
    def test_slices_read_out_as_they_would_alone(self, basis, drop):
        rng = np.random.default_rng(23)
        for seed in range(10):
            n = int(rng.integers(1, 6))
            q = int(rng.integers(n))
            # Two random states and an eigenstate on q, of either outcome.
            rest = _random_dense(n - 1, rng).psi.reshape([2] * (n - 1))
            eigen = np.moveaxis(np.multiply.outer(_eigvec(basis, 1 - 2 * (seed % 2)), rest), 0, q)
            psi = np.stack([_random_dense(n, rng).psi, eigen.reshape(-1),
                            _random_dense(n, rng).psi], axis=1)
            batch = StateVector(n, psi, 3)
            coins = CoinRows([np.random.default_rng([seed, k]).random(2) for k in range(3)])
            outcomes, det, vecs = batch._measure(q, basis, coins, drop)
            assert batch.n == n - drop and batch.psi.size == 3 << batch.n
            assert det.tolist() == [False, True, False]
            for k in range(3):
                one, ref_coins = StateVector(n, psi[:, k]), np.random.default_rng([seed, k])
                want = one._measure(q, basis, ref_coins, drop)
                assert (outcomes[k], det[k]) == want[:2] and np.array_equal(vecs[:, k], want[2])
                drawn = after_draws(np.random.default_rng([seed, k]), coins.cursor[k])
                assert drawn.bit_generator.state == ref_coins.bit_generator.state
                assert np.allclose(batch.psi.reshape(-1, 3)[:, k], one.psi, atol=1e-14)

    @pytest.mark.parametrize("basis, kets, outcomes, draws", [
        (Basis.Z, [KET_ZERO, KET_ONE], [1, -1], [0, 0]),  # opposite deterministic outcomes
        (Basis.X, [KET_PLUS, KET_ZERO], [1, 1], [0, 1]),  # deterministic against random
        (Basis.Z, [[0.8 ** 0.5, 0.2 ** 0.5], [0.2 ** 0.5, 0.8 ** 0.5]], [1, -1], [1, 1]),
    ])
    def test_divergent_slices_each_take_their_own_branch(self, basis, kets, outcomes, draws):
        """Both slices' rows start with the coin 0.51 (the first of seed 1),
        which reads +1 at p(-1) = 0.2 and -1 at 0.8; each slice advances its
        own cursor only when its outcome is random."""
        psi = np.array(kets, complex).T
        sv = StateVector(1, psi, 2)
        coins = CoinRows(np.tile(np.random.default_rng(1).random(1), (2, 1)))
        got, det, vecs = sv.measure_out(0, basis, coins)
        assert got.tolist() == outcomes and coins.cursor.tolist() == draws
        for k in range(2):
            one, ref = StateVector(1, psi[:, k]), np.random.default_rng(1)
            want = one.measure_out(0, basis, ref)
            assert (got[k], det[k]) == want[:2] and np.array_equal(vecs[:, k], want[2])
            drawn = after_draws(np.random.default_rng(1), draws[k])
            assert drawn.bit_generator.state == ref.bit_generator.state
            assert np.allclose(sv.psi[k], one.psi[0], atol=1e-15)

    @pytest.mark.parametrize("basis, kets, coins_drawn", [
        (Basis.Z, [KET_ZERO, KET_ONE], 0),  # opposite deterministic outcomes
        (Basis.X, [KET_PLUS, KET_ZERO], 0),  # deterministic against random
        (Basis.Z, [[0.8 ** 0.5, 0.2 ** 0.5], [0.2 ** 0.5, 0.8 ** 0.5]], 1),  # coin 0.51
    ])
    def test_divergent_slices_leave_the_state_alone(self, basis, kets, coins_drawn):
        """One coin generator cannot serve slices that branch apart: the batch
        refuses it before it reads or draws anything, so the state and the
        generator are as they were, and the first slice alone then reads on
        that generator as on a fresh one, drawing ``coins_drawn`` coins."""
        psi = np.array(kets, complex).T
        sv, rng = StateVector(1, psi, 2), np.random.default_rng(1)
        with pytest.raises(ValueError, match="coin row per slice"):
            sv.measure_out(0, basis, rng)
        assert sv.n == 1 and np.array_equal(sv.psi, psi.reshape(-1))
        assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state
        got = StateVector(1, psi[:, 0]).measure_out(0, basis, rng)
        want = StateVector(1, psi[:, 0]).measure_out(0, basis, np.random.default_rng(1))
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
        assert rng.bit_generator.state == after_draws(np.random.default_rng(1),
                                                      coins_drawn).bit_generator.state

    def test_a_generator_reads_one_run(self):
        sv = StateVector(1, np.tile(KET_PLUS[:, None], (1, 2)), 2)
        with pytest.raises(ValueError, match="coin row per slice"):
            sv.measure(0, Basis.X, np.random.default_rng(0))

    def test_batch_bits_count_against_the_cap(self, monkeypatch):
        monkeypatch.setattr(statevec, "MAX_QUBITS", 4)
        StateVector(2, batch=4)
        with pytest.raises(SizeCapError, match="3 qubits in a batch of 4 exceed"):
            StateVector(3, batch=4)
        reg = DenseRegister([0, 1], np.full((4, 4), 0.5), batch=4)
        reg.cz(1, 2)
        with pytest.raises(SizeCapError, match="3 qubits in a batch of 4 exceed"):
            reg.measure(1, Basis.X, CoinRows(np.zeros((4, 1))))
        assert reg.sv.n == 2


class TestNormCheck:
    def test_one_drifted_slice_fails_the_batch(self):
        psi = np.tile(KET_PLUS[:, None], (1, 5))
        psi[:, 3] *= 1 + 5e-8  # inside the bound
        StateVector(1, psi, 5)
        for k in (0, 3, 4):
            drifted = psi.copy()
            drifted[:, k] *= 1 + 2e-7
            with pytest.raises(AssertionError, match="norm drifted"):
                StateVector(1, drifted, 5)


class TestDetachedReadout:
    """A detached qubit's ket is read in place as a one-qubit state would be."""

    @pytest.mark.parametrize("basis", _READOUTS, ids=str)
    def test_in_place_read_matches_a_one_qubit_state(self, basis):
        rng = np.random.default_rng(31)
        eigvecs = [KET_ZERO, KET_ONE] if basis is Basis.Z else list(statevec._eigvecs(basis))
        kets = eigvecs + [_random_dense(1, rng).psi for _ in range(200)]
        outcomes = set()
        for seed, ket in enumerate(kets):
            coins, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = statevec._read_ket(ket, basis, coins)
            want = StateVector(1, ket).measure_out(0, basis, ref)
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
            assert coins.bit_generator.state == ref.bit_generator.state
            outcomes.add(got[:2])
        assert outcomes == {(1, True), (-1, True), (1, False), (-1, False)}

    def test_per_seed_read_matches_each_seed_alone(self):
        """A ket per slice, or one ket for every slice, read in Z or at an
        angle per slice, gives each slice the outcome, flag, eigenvector and
        coin draws of its own read on its own seed's coins."""
        rng = np.random.default_rng(32)
        runs = 5
        for trial in range(40):
            kets = np.stack([_random_dense(1, rng).psi for _ in range(runs)], axis=1)
            kets[:, 0] = KET_ONE  # one deterministic slice
            angles = rng.uniform(-np.pi, np.pi, runs)
            for ket, basis in ((kets, Basis.Z), (kets, angles), (KET_PLUS, angles)):
                each = [Basis.Z] * runs if basis is Basis.Z else basis.tolist()
                coins = CoinRows([np.random.default_rng([trial, s]).random(1)
                                  for s in range(runs)])
                outcome, det, vecs = statevec._read_ket(ket, basis, coins)
                for s in range(runs):
                    ref = np.random.default_rng([trial, s])
                    alone = ket.copy() if ket.ndim == 1 else ket[:, s].copy()
                    want = statevec._read_ket(alone, each[s], ref)
                    assert (outcome[s], det[s]) == want[:2]
                    assert np.array_equal(vecs[:, s], want[2])
                    drawn = after_draws(np.random.default_rng([trial, s]), coins.cursor[s])
                    assert drawn.bit_generator.state == ref.bit_generator.state


class TestSvRun:
    """Short scripted runs on a StateVector: prepare, apply gates, read out."""

    def test_plus_measure_z(self):
        outs = set()
        for seed in range(20):
            out, _ = StateVector.all_plus(1).measure(0, Basis.Z, np.random.default_rng(seed))
            outs.add(out)
        assert outs == {1, -1}

    def test_cz_plus_plus_then_x(self):
        for seed in range(10):
            sv = StateVector.all_plus(2).apply_cz(0, 1)
            sv.measure(0, Basis.X, np.random.default_rng(seed))
            # partner collapses to a Z eigenstate (H-related to |+->)
            p1 = sv.prob_one(1)
            assert p1 < 1e-9 or p1 > 1 - 1e-9

    def test_graph_source_parity(self):
        tri = GraphState(range(3), [(0, 1), (0, 2), (1, 2)])
        _, sv = graph_to_statevector(tri)
        assert abs(sv.expectation(PauliString.from_label("+XZZ")) - 1) < 1e-12

    def test_matches_tableau_transcript(self):
        ops = [("H", 0), ("CZ", 0, 1), ("CNOT", 1, 2), ("S", 2),
               ("M", 0, "Y"), ("M", 2, "X"), ("M", 1, "Z")]
        for seed in range(10):
            sv, rng = StateVector.all_plus(3), np.random.default_rng(seed)
            dense_out = []
            for op in ops:
                if op[0] == "M":
                    dense_out.append((op[1], op[2], sv.measure(op[1], Basis(op[2]), rng)[0]))
                elif op[0] == "CZ":
                    sv.apply_cz(*op[1:])
                elif op[0] == "CNOT":
                    sv.apply_cnot(*op[1:])
                else:
                    sv.apply_gate(*op)
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
