"""The 24-element single-qubit Clifford group, as lookup tables.

Each element is identified by its conjugation action on the Pauli axes: the
image of X and the image of Z, each a signed Pauli.  That pair (a symplectic
2x2 over GF(2) plus two sign bits) identifies a Clifford uniquely up to
global phase, which is all the graph-state and tableau machinery needs.

The group is built once at import, breadth-first from the H and S matrices,
so sign conventions are fixed by linear algebra rather than by hand.  The
24 elements are interned singletons, each with an ``index`` in ``ELEMENTS``,
and every group operation is a lookup in tables filled at that time: the
X, Y and Z images, the 24x24 product table, the inverse and the Pauli
factorization.  This is the integer vertex-operator algebra of Anders and
Briegel (Phys. Rev. A 73, 022334 (2006)), kept behind ``Clifford1`` objects.
"""

from __future__ import annotations

import numpy as np

# Pauli axis codes.
_AX_X, _AX_Y, _AX_Z = 0, 1, 2
_AXIS_NAMES = "XYZ"

_SQ2 = 1.0 / np.sqrt(2.0)
_MAT_I = np.eye(2, dtype=complex)
_MAT_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_MAT_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
_MAT_PAULI = {
    _AX_X: np.array([[0, 1], [1, 0]], dtype=complex),
    _AX_Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    _AX_Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def _conj_image(mat: np.ndarray, axis: int) -> tuple[int, int]:
    """Return (axis, sign_bit) of mat P mat^dagger for Pauli axis P."""
    img = mat @ _MAT_PAULI[axis] @ mat.conj().T
    for ax, pm in _MAT_PAULI.items():
        # tr(P img) / 2 is +-1 exactly when img = +-P: both have norm sqrt(2).
        overlap = np.vdot(pm, img).real / 2
        if abs(abs(overlap) - 1) < 1e-9:
            return ax, int(overlap < 0)
    raise AssertionError("conjugation image is not a signed Pauli")


class Clifford1:
    """A single-qubit Clifford, identified by its action on X and Z.

    Only this module creates elements, one per group element, so equality is
    identity.  Attributes:
        index: position in ``ELEMENTS``.
        x_axis, x_sign: image of X under conjugation, U X U^dag = (-1)^x_sign P.
        z_axis, z_sign: image of Z.
        word: a decomposition into "H"/"S" letters, leftmost applied last.
        name: short label ("I", "H", "S", "SDG", "X", ... or the word itself).
    """

    __slots__ = ("index", "x_axis", "x_sign", "z_axis", "z_sign", "word", "name",
                 "_images", "_products", "_inverse", "_factor")

    def __init__(self, index, x_axis, x_sign, z_axis, z_sign, word):
        self.index = index
        self.x_axis = x_axis
        self.x_sign = x_sign
        self.z_axis = z_axis
        self.z_sign = z_sign
        self.word = word
        self.name = word

    def key(self) -> tuple[int, int, int, int]:
        return (self.x_axis, self.x_sign, self.z_axis, self.z_sign)

    def __hash__(self) -> int:
        return self.index

    def __repr__(self) -> str:
        return f"Clifford1({self.name})"

    # -- group structure: lookups in the tables _build_tables fills ---------

    def conj_pauli(self, axis: int, sign: int = 0) -> tuple[int, int]:
        """Image (axis, sign) of a signed Pauli under U . U^dagger."""
        return self._images[axis][sign]

    def compose(self, other: "Clifford1") -> "Clifford1":
        """self o other: the Clifford applying `other` first, then `self`."""
        return self._products[other.index]

    def inverse(self) -> "Clifford1":
        return self._inverse

    def is_identity(self) -> bool:
        return self is IDENTITY

    def is_pauli(self) -> bool:
        """True for I, X, Y, Z (axes fixed, only signs flipped)."""
        return self.x_axis == _AX_X and self.z_axis == _AX_Z

    def pauli_factor(self) -> tuple[tuple[int, int], "Clifford1"]:
        """Factor U = P . C with P a Pauli and C the canonical coset rep.

        Returns ((x_bit, z_bit), rep): P = X^x_bit Z^z_bit up to phase, and
        rep is the unique element with the same axis images and zero signs.
        """
        return self._factor


def _element(index: int, mat: np.ndarray, word: str) -> Clifford1:
    """The element realized by ``mat``, with its X, Y and Z images."""
    images = [_conj_image(mat, axis) for axis in (_AX_X, _AX_Y, _AX_Z)]
    el = Clifford1(index, *images[_AX_X], *images[_AX_Z], word)
    el._images = tuple(((ax, s), (ax, s ^ 1)) for ax, s in images)
    return el


def _build_group() -> tuple[dict, list]:
    """BFS over <H, S> collecting all 24 actions with shortest words."""
    ident = _element(0, _MAT_I, "")
    by_key = {ident.key(): ident}
    frontier = [(_MAT_I, "")]
    while frontier:
        nxt = []
        for mat, word in frontier:
            for gmat, letter in ((_MAT_H, "H"), (_MAT_S, "S")):
                m2 = gmat @ mat
                el = _element(len(by_key), m2, letter + word)
                if el.key() not in by_key:
                    by_key[el.key()] = el
                    nxt.append((m2, el.word))
        frontier = nxt
    assert len(by_key) == 24
    return by_key, list(by_key.values())


def _build_tables(by_key: dict, elements: list) -> None:
    """Fill every element's product row, inverse and Pauli factorization
    from the images alone: (a o b) maps X to a's image of b's image of X."""
    for a in elements:
        a._products = tuple(
            by_key[a._images[b.x_axis][b.x_sign] + a._images[b.z_axis][b.z_sign]]
            for b in elements)
    ident = by_key[(_AX_X, 0, _AX_Z, 0)]
    for a in elements:
        a._inverse = next(b for b in elements if a._products[b.index] is ident)
    for a in elements:
        rep = by_key[(a.x_axis, 0, a.z_axis, 0)]
        p = a._products[rep._inverse.index]
        if not p.is_pauli():
            raise AssertionError("coset factor is not a Pauli")
        # P X P^dag sign flip <=> P contains Z; P Z P^dag flip <=> contains X.
        a._factor = ((p.z_sign, p.x_sign), rep)


_ELEMENTS_BY_KEY, ELEMENTS = _build_group()
_build_tables(_ELEMENTS_BY_KEY, ELEMENTS)

# Friendly names for the elements that have common ones.
_ALIASES = {
    "": "I",
    "SSS": "SDG",
    "SS": "Z",
    "HSSH": "X",
}
for _el in ELEMENTS:
    _el.name = _ALIASES.get(_el.word, _el.word)
    if _el.key() == (_AX_X, 1, _AX_Z, 1):
        _el.name = "Y"

_BY_NAME = {el.name: el for el in ELEMENTS}
_BY_WORD = {el.word: el for el in ELEMENTS}

IDENTITY = _BY_NAME["I"]
H = _BY_NAME["H"]
S = _BY_NAME["S"]
SDG = _BY_NAME["SDG"]
X = _BY_NAME["X"]
Y = _BY_NAME["Y"]
Z = _BY_NAME["Z"]


def by_name(name: str) -> Clifford1:
    """Look up an element by its short name or H/S word."""
    if name in _BY_NAME:
        return _BY_NAME[name]
    if name in _BY_WORD:
        return _BY_WORD[name]
    raise KeyError(f"unknown Clifford name {name!r}")


def by_action(x_axis: str, x_sign: int, z_axis: str, z_sign: int) -> Clifford1:
    """Look up the element with the given conjugation action."""
    key = (_AXIS_NAMES.index(x_axis), x_sign, _AXIS_NAMES.index(z_axis), z_sign)
    return _ELEMENTS_BY_KEY[key]


def matrix_of(el: Clifford1) -> np.ndarray:
    """A 2x2 unitary realizing the element (global phase arbitrary)."""
    mat = _MAT_I
    for letter in reversed(el.word):
        mat = (_MAT_H if letter == "H" else _MAT_S) @ mat
    return mat


# Square-root Paulis used by local-complementation corrections.  Principal
# roots: sqrt(-iP) = exp(-i pi/4 P) and sqrt(+iP) = exp(+i pi/4 P).
# sqrt(-iX) = exp(-i pi/4 X): X -> X,  Z -> -Y.
SQRT_MINUS_IX = by_action("X", 0, "Y", 1)
SQRT_PLUS_IX = by_action("X", 0, "Y", 0)
# sqrt(+iZ) = exp(+i pi/4 Z) ~ SDG: X -> -Y; sqrt(-iZ) ~ S: X -> +Y.
SQRT_PLUS_IZ = by_action("Y", 1, "Z", 0)
SQRT_MINUS_IZ = by_action("Y", 0, "Z", 0)
# sqrt(+iY) = exp(+i pi/4 Y): X -> Z, Z -> -X.
SQRT_PLUS_IY = by_action("Z", 0, "X", 1)
SQRT_MINUS_IY = by_action("Z", 1, "X", 0)
