"""Group-theory checks on the single-qubit Clifford table."""

import numpy as np
import pytest

from sicluster import cliffords as cl


def test_group_has_24_elements():
    assert len(cl.ELEMENTS) == 24
    assert len({el.key() for el in cl.ELEMENTS}) == 24


def test_identities():
    assert cl.H.compose(cl.H).is_identity()
    assert cl.S.compose(cl.SDG).is_identity()
    assert cl.S.compose(cl.S) == cl.Z
    assert cl.X.compose(cl.X).is_identity()


def test_every_element_has_inverse():
    for el in cl.ELEMENTS:
        assert el.compose(el.inverse()).is_identity()
        assert el.inverse().compose(el).is_identity()


def test_associativity_sample():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b, c = (cl.ELEMENTS[i] for i in rng.integers(24, size=3))
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_actions_match_matrices():
    paulis = {
        0: np.array([[0, 1], [1, 0]], complex),
        1: np.array([[0, -1j], [1j, 0]], complex),
        2: np.array([[1, 0], [0, -1]], complex),
    }
    for el in cl.ELEMENTS:
        m = cl.matrix_of(el)
        for axis, sign, pref in ((el.x_axis, el.x_sign, paulis[0]),
                                 (el.z_axis, el.z_sign, paulis[2])):
            img = m @ pref @ m.conj().T
            assert np.allclose(img, (-1) ** sign * paulis[axis], atol=1e-9)


def test_conj_pauli_y_consistent():
    y = np.array([[0, -1j], [1j, 0]], complex)
    paulis = [np.array([[0, 1], [1, 0]], complex), y,
              np.array([[1, 0], [0, -1]], complex)]
    for el in cl.ELEMENTS:
        m = cl.matrix_of(el)
        ax, s = el.conj_pauli(1)
        assert np.allclose(m @ y @ m.conj().T, (-1) ** s * paulis[ax], atol=1e-9)


def test_pauli_factorization():
    for el in cl.ELEMENTS:
        (xb, zb), rep = el.pauli_factor()
        assert rep.x_sign == 0 and rep.z_sign == 0
        p = cl.IDENTITY
        if xb and zb:
            p = cl.X.compose(cl.Z)
        elif xb:
            p = cl.X
        elif zb:
            p = cl.Z
        assert p.compose(rep) == el


def test_pauli_factor_stable_under_pauli_left_multiplication():
    # The coset representative must not change when a Pauli is prepended.
    for el in cl.ELEMENTS:
        _, rep = el.pauli_factor()
        for p in (cl.X, cl.Y, cl.Z):
            _, rep2 = p.compose(el).pauli_factor()
            assert rep2 == rep


def test_sqrt_elements_are_correct_matrices():
    sq2 = 1 / np.sqrt(2)
    x = np.array([[0, 1], [1, 0]], complex)
    ymat = np.array([[0, -1j], [1j, 0]], complex)
    z = np.diag([1, -1]).astype(complex)
    cases = [
        (cl.SQRT_MINUS_IX, (np.eye(2) - 1j * x) * sq2),
        (cl.SQRT_PLUS_IX, (np.eye(2) + 1j * x) * sq2),
        (cl.SQRT_MINUS_IZ, (np.eye(2) - 1j * z) * sq2),
        (cl.SQRT_PLUS_IZ, (np.eye(2) + 1j * z) * sq2),
        (cl.SQRT_MINUS_IY, (np.eye(2) - 1j * ymat) * sq2),
        (cl.SQRT_PLUS_IY, (np.eye(2) + 1j * ymat) * sq2),
    ]
    for el, target in cases:
        m = cl.matrix_of(el)
        ratio = m @ np.linalg.inv(target)
        assert np.allclose(ratio / ratio[0, 0], np.eye(2), atol=1e-9)


def test_by_name_lookup():
    for name in ("I", "H", "S", "SDG", "X", "Y", "Z"):
        assert cl.by_name(name).name == name
    with pytest.raises(KeyError):
        cl.by_name("Q")


# -- the lookup tables against 2x2 matrices built here from the H/S words ----

_H = np.array([[1, 1], [1, -1]], complex) / np.sqrt(2)
_S = np.diag([1, 1j])
_PAULIS = [np.array([[0, 1], [1, 0]], complex),
           np.array([[0, -1j], [1j, 0]], complex),
           np.diag([1, -1]).astype(complex)]


def _word_matrix(word: str) -> np.ndarray:
    mat = np.eye(2, dtype=complex)
    for letter in reversed(word):
        mat = (_H if letter == "H" else _S) @ mat
    return mat


def _same_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    i = np.unravel_index(np.argmax(abs(b)), b.shape)
    return np.allclose(a * (b[i] / a[i]), b, atol=1e-9)


def test_product_table_matches_matrix_products():
    for a in cl.ELEMENTS:
        for b in cl.ELEMENTS:
            assert _same_up_to_phase(_word_matrix(a.compose(b).word),
                                     _word_matrix(a.word) @ _word_matrix(b.word))


def test_conj_pauli_table_matches_matrices():
    for el in cl.ELEMENTS:
        m = _word_matrix(el.word)
        for axis in range(3):
            for sign in (0, 1):
                ax, s = el.conj_pauli(axis, sign)
                img = m @ ((-1) ** sign * _PAULIS[axis]) @ m.conj().T
                assert np.allclose(img, (-1) ** s * _PAULIS[ax], atol=1e-9)


def test_inverse_table_matches_matrix_inverse():
    for el in cl.ELEMENTS:
        assert _same_up_to_phase(_word_matrix(el.inverse().word),
                                 np.linalg.inv(_word_matrix(el.word)))


def test_pauli_factor_table_matches_matrix_factorization():
    for el in cl.ELEMENTS:
        (xb, zb), rep = el.pauli_factor()
        p = np.linalg.matrix_power(_PAULIS[0], xb) @ np.linalg.matrix_power(_PAULIS[2], zb)
        assert _same_up_to_phase(_word_matrix(el.word), p @ _word_matrix(rep.word))
        m = _word_matrix(rep.word)
        for axis in (0, 2):  # the representative flips no sign
            img = m @ _PAULIS[axis] @ m.conj().T
            assert any(np.allclose(img, q, atol=1e-9) for q in _PAULIS)


def test_identity_is_the_only_identity():
    assert [el for el in cl.ELEMENTS if el.is_identity()] == [cl.IDENTITY]
    assert all(cl.ELEMENTS[el.index] is el for el in cl.ELEMENTS)
