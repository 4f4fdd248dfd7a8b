"""Aaronson-Gottesman stabilizer tableau: Clifford gates and Pauli measurements.

The CHP layout of Aaronson and Gottesman (Phys. Rev. A 70, 052328 (2004),
quant-ph/0406196): bool arrays ``x`` and ``z`` of shape (2n, n) and signs
``r`` of shape (2n,).  Rows 0..n-1 are the destabilizers, rows n..2n-1 the
stabilizers; row i is (-1)^r[i] times one letter per qubit, I, X, Z or Y
for (x, z) = (0, 0), (1, 0), (0, 1), (1, 1).  A gate updates the columns
of its targets and a measurement multiplies rows in one vectorised pass.
Free-standing Pauli strings track the full {1, i, -1, -i} phase.

The tableau is the oracle the graph-state engine (``sicluster.graphsim``)
is checked against.  It has no locality (gates cost O(n), measurements up
to O(n^2)), which suits the few hundred qubits of the oracle checks.
"""

from __future__ import annotations

import enum

import numpy as np

from sicluster import cliffords
from sicluster._kernels import _phase, _rowsum, active_lane
from sicluster.graphstate import GraphState, SizeCapError
from sicluster.rng import draw_sign_bit

# Largest tableau allocation, in bytes (see tableau_bytes): 23 170 qubits.
# A 100x100-site protocol (2 * 10^4 qubits) needs 1.6 GB.
MAX_TABLEAU_BYTES = 2**31


def tableau_bytes(n: int) -> int:
    """Bytes of the x, z and r arrays of an n-qubit tableau."""
    return 4 * n * n + 2 * n


class Basis(enum.Enum):
    """Single-qubit Pauli measurement basis."""

    X = "X"
    Y = "Y"
    Z = "Z"


_PHASE_VALUES = {0: 1, 1: 1j, 2: -1, 3: -1j}
_PHASE_LABELS = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LABEL_PHASES = {"+": 0, "": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


class PauliString:
    """An n-qubit Pauli operator with an exact {1, i, -1, -i} phase."""

    __slots__ = ("n", "x", "z", "phase_exp")

    def __init__(self, n: int, x=None, z=None, phase_exp: int = 0):
        self.n = n
        self.x = np.zeros(n, np.uint8) if x is None else np.asarray(x, np.uint8)
        self.z = np.zeros(n, np.uint8) if z is None else np.asarray(z, np.uint8)
        if self.x.shape != (n,) or self.z.shape != (n,):
            raise ValueError("x/z bit vectors must have length n")
        self.phase_exp = phase_exp & 3

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse e.g. "+XZI", "-IYX", "iZ"; sign prefix optional."""
        body_start = 0
        while body_start < len(label) and label[body_start] not in "IXYZ":
            body_start += 1
        prefix, body = label[:body_start], label[body_start:]
        if prefix not in _LABEL_PHASES:
            raise ValueError(f"bad phase prefix {prefix!r}")
        p = cls(len(body), phase_exp=_LABEL_PHASES[prefix])
        for i, ch in enumerate(body):
            if ch == "X":
                p.x[i] = 1
            elif ch == "Z":
                p.z[i] = 1
            elif ch == "Y":
                p.x[i] = 1
                p.z[i] = 1
            elif ch != "I":
                raise ValueError(f"bad Pauli letter {ch!r}")
        return p

    @classmethod
    def single(cls, n: int, q: int, basis: Basis, phase_exp: int = 0) -> "PauliString":
        p = cls(n, phase_exp=phase_exp)
        if basis in (Basis.X, Basis.Y):
            p.x[q] = 1
        if basis in (Basis.Z, Basis.Y):
            p.z[q] = 1
        return p

    @property
    def phase(self) -> complex:
        return _PHASE_VALUES[self.phase_exp]

    def to_label(self) -> str:
        letters = ["IXZY"[int(xv) + 2 * int(zv)] for xv, zv in zip(self.x, self.z)]
        prefix = _PHASE_LABELS[self.phase_exp]
        return prefix + "".join(letters)

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.x | self.z)

    def is_identity(self) -> bool:
        return not (self.x.any() or self.z.any())

    def __mul__(self, other: "PauliString") -> "PauliString":
        if self.n != other.n:
            raise ValueError("size mismatch")
        ax, az = self.x.astype(np.int64), self.z.astype(np.int64)
        bx, bz = other.x.astype(np.int64), other.z.astype(np.int64)
        g = ax * az + bx * bz + 2 * az * bx - (ax ^ bx) * (az ^ bz)
        exp = (self.phase_exp + other.phase_exp + int(g.sum())) & 3
        return PauliString(self.n, self.x ^ other.x, self.z ^ other.z, exp)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PauliString) and self.n == other.n
                and self.phase_exp == other.phase_exp
                and bool(np.all(self.x == other.x)) and bool(np.all(self.z == other.z)))

    def __repr__(self) -> str:
        return f"PauliString({self.to_label()!r})"


def _letter_images(el: cliffords.Clifford1) -> np.ndarray:
    """Rows (x, z, sign flip) of U P U^dag for the letters P = I, Z, X, Y,
    i.e. indexed by 2x + z."""
    out = np.zeros((4, 3), bool)
    for row, axis in ((1, 2), (2, 0), (3, 1)):
        image, sign = el.conj_pauli(axis)
        out[row] = (image != 2, image != 0, sign)
    return out


_IMAGES = {el: _letter_images(el) for el in cliffords.ELEMENTS}
_GATES_1Q = {name: cliffords.by_name(name) for name in ("H", "S", "SDG", "X", "Y", "Z")}


class StabilizerTableau:
    """Destabilizer/stabilizer tableau for an n-qubit stabilizer state.

    Construct via :func:`new_plus_state` or :func:`from_graph_state`.  Gates
    and measurements mutate in place (use :meth:`copy` for value semantics);
    a tableau shares no state with any other, so independent copies can be
    driven from separate threads.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("tableau needs at least one qubit")
        if tableau_bytes(n) > MAX_TABLEAU_BYTES:
            raise SizeCapError(
                f"a {n}-qubit tableau needs {tableau_bytes(n) / 2**30:.1f} GiB, "
                f"cap is {MAX_TABLEAU_BYTES / 2**30:.1f} GiB")
        self.n = n
        self.x = np.zeros((2 * n, n), bool)
        self.z = np.zeros((2 * n, n), bool)
        self.r = np.zeros(2 * n, bool)

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
        t.n = self.n
        t.x, t.z, t.r = self.x.copy(), self.z.copy(), self.r.copy()
        return t

    # -- gates --------------------------------------------------------------

    def apply_gate(self, gate: str, *targets: int) -> "StabilizerTableau":
        """Conjugate the state by a named Clifford gate.

        Supported: H, S, SDG, X, Y, Z (one target) and CZ, CNOT/CX (two
        distinct targets).
        """
        gate = gate.upper()
        if gate in _GATES_1Q:
            if len(targets) != 1:
                raise ValueError(f"{gate} takes one target")
            return self.apply_clifford1(_GATES_1Q[gate], targets[0])
        if gate not in ("CZ", "CNOT", "CX"):
            raise ValueError(f"unknown gate {gate!r}")
        if len(targets) != 2:
            raise ValueError(f"{gate} takes two targets")
        a, b = targets
        self._check_q(a)
        self._check_q(b)
        if a == b:
            raise ValueError("two-qubit gate targets must be distinct")
        xa, za, xb, zb = self.x[:, a], self.z[:, a], self.x[:, b], self.z[:, b]
        if gate == "CZ":
            self.r ^= xa & xb & (za ^ zb)
            za ^= xb
            zb ^= xa
        else:
            self.r ^= xa & zb & ~(xb ^ za)
            xb ^= xa
            za ^= zb
        return self

    def cz(self, a: int, b: int) -> None:
        self.apply_gate("CZ", a, b)

    def gate(self, name: str, q: int) -> None:
        self.apply_gate(name, q)

    def apply_clifford1(self, el: cliffords.Clifford1, q: int) -> "StabilizerTableau":
        """Apply a single-qubit Clifford group element to qubit q."""
        self._check_q(q)
        image = _IMAGES[el][2 * self.x[:, q] + self.z[:, q]]
        self.x[:, q], self.z[:, q] = image[:, 0], image[:, 1]
        self.r ^= image[:, 2]
        return self

    def _check_q(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise IndexError(f"qubit {q} out of range for n={self.n}")

    # -- measurement --------------------------------------------------------

    def measure(self, q: int, basis: Basis, rng) -> tuple[int, bool]:
        """Measure qubit q in a Pauli basis.

        Returns (outcome, deterministic) with outcome in {+1, -1}.  Random
        outcomes consume exactly one draw from ``rng``; deterministic ones
        consume none.
        """
        return self._measure_impl(q, basis, rng)

    def _measure_impl(self, q: int, basis: Basis, rng) -> tuple[int, bool]:
        self._check_q(q)
        n, x, z, r = self.n, self.x, self.z, self.r
        pauli = PauliString.single(n, q, basis)
        hits = self._anticommuting(pauli)
        if hits[-1] < n:
            return self.expectation(pauli), True
        # AG's random case: the first anticommuting stabilizer p is
        # multiplied into every other anticommuting row, becomes the
        # destabilizer of the new generator and is replaced by +-P_q.
        p = int(hits[hits >= n][0])
        coin = draw_sign_bit(rng, 0.5)
        _rowsum(x, z, r, hits[hits != p], p)
        x[p - n], z[p - n], r[p - n] = x[p], z[p], r[p]
        x[p], z[p], r[p] = pauli.x, pauli.z, coin
        return (-1 if coin else 1), False

    def _anticommuting(self, p: PauliString) -> np.ndarray:
        """Indices of the rows that anticommute with p."""
        odd = (np.count_nonzero(self.x[:, p.z.astype(bool)], axis=1)
               + np.count_nonzero(self.z[:, p.x.astype(bool)], axis=1))
        return np.flatnonzero(odd & 1)

    # -- queries ------------------------------------------------------------

    def expectation(self, p: PauliString) -> int:
        """+-1 if +-p is in the stabilizer group, 0 if p anticommutes with it."""
        if p.n != self.n:
            raise ValueError("operator size does not match tableau")
        if p.phase_exp & 1:
            raise ValueError("expectation of a non-Hermitian (imaginary) Pauli")
        if p.is_identity():
            return 1 if p.phase_exp == 0 else -1
        hits = self._anticommuting(p)
        if hits[-1] >= self.n:
            return 0
        # The destabilizers that anticommute with p pick out the stabilizers
        # whose product is +-p.  Multiply them in order, prefix by prefix.
        rows = hits + self.n
        x, z = self.x[rows], self.z[rows]
        px = np.logical_xor.accumulate(x, axis=0)
        pz = np.logical_xor.accumulate(z, axis=0)
        if not (np.array_equal(px[-1], p.x != 0) and np.array_equal(pz[-1], p.z != 0)):
            raise AssertionError("commuting Pauli not generated by stabilizer group")
        exp = int(_phase(px[:-1], pz[:-1], x[1:], z[1:]).sum()) + 2 * int(self.r[rows].sum())
        if exp & 1:
            raise AssertionError("product of stabilizers has an imaginary phase")
        sign = -1 if exp & 2 else 1
        return sign if p.phase_exp == 0 else -sign

    def stabilizer_rows(self) -> list[PauliString]:
        n = self.n
        return [PauliString(n, self.x[i].astype(np.uint8), self.z[i].astype(np.uint8),
                            2 * int(self.r[i])) for i in range(n, 2 * n)]

    def validate(self) -> None:
        """Check the symplectic form; raises AssertionError on damage.

        Destabilizer i must anticommute with stabilizer i and commute with
        every other row; the stabilizers must commute with each other.
        """
        n = self.n
        x, z = self.x.astype(np.int64), self.z.astype(np.int64)
        want = np.zeros((2 * n, 2 * n), np.int64)
        want[:n, n:] = want[n:, :n] = np.eye(n, dtype=np.int64)
        bad = np.argwhere((x @ z.T + z @ x.T) % 2 != want)
        if bad.size:
            raise AssertionError(f"rows {bad[0][0]} and {bad[0][1]} break the symplectic form")


def graph_from_stab_matrix(x, z, r) -> tuple[dict, dict]:
    """Reduce k commuting stabilizer rows to graph form.

    ``x`` and ``z`` are the (k, k) bool X and Z blocks and ``r`` the bool
    signs; all three are reduced in place.  Row-reduces the X block to the
    identity (inserting Hadamards on the rank defect), strips the Z diagonal
    with S corrections and the signs with Z corrections.  Returns (adjacency
    dict, vertex_ops dict); the represented state equals
    (prod_v ops[v]) |adjacency>.
    """
    k = x.shape[0]
    if k == 0:
        return {}, {}
    lane = active_lane()
    pivrow, h_cols = lane.rref_x_block(x, z, r)
    if h_cols.size:
        r ^= np.logical_xor.reduce(x[:, h_cols] & z[:, h_cols], axis=1)
        x[:, h_cols], z[:, h_cols] = z[:, h_cols], x[:, h_cols]
        pivrow, free2 = lane.rref_x_block(x, z, r)
        if free2.size:
            raise ValueError("X block still rank-deficient after Hadamard pass "
                             "(stabilizer rows are dependent)")
    if np.any(pivrow < 0):
        raise ValueError("stabilizer matrix is rank-deficient")

    zg = z[pivrow]
    s_cols = zg.diagonal().copy()
    np.fill_diagonal(zg, False)
    z_cols = r[pivrow] ^ s_cols
    if not np.array_equal(zg, zg.T):
        raise AssertionError("extracted adjacency is not a simple symmetric graph")
    adj = {v: set(np.flatnonzero(row).tolist()) for v, row in enumerate(zg)}

    h = np.zeros(k, bool)
    h[h_cols] = True
    ops: dict[int, cliffords.Clifford1] = {}
    for v in range(k):
        el = REDUCTION_OPS[(bool(h[v]), bool(s_cols[v]), bool(z_cols[v]))]
        if el is not None:
            ops[v] = el
    return adj, ops


def _reduction_op(h: bool, s: bool, z: bool) -> cliffords.Clifford1 | None:
    w_el = cliffords.IDENTITY
    if h:
        w_el = cliffords.H.compose(w_el)
    if s:
        w_el = cliffords.S.compose(w_el)
    if z:
        w_el = cliffords.Z.compose(w_el)
    return None if w_el.is_identity() else w_el.inverse()


# Vertex operator of a column that graph_from_stab_matrix reduced by H, then
# S, then Z corrections, keyed by (h, s, z): the inverse of the corrections,
# None for the identity.
REDUCTION_OPS = {(h, s, z): _reduction_op(h, s, z)
                 for h in (False, True) for s in (False, True) for z in (False, True)}


def restricted_stab_graph(t: StabilizerTableau, keep_cols: list[int]) -> tuple[dict, dict]:
    """Graph form of the state restricted to ``keep_cols``, indexed by position.

    Eliminates the dropped columns from the stabilizer rows, one X or Z bit
    column at a time, with sign-tracked row products.  The rows left with no
    dropped support generate the stabilizers supported on the kept qubits.
    There are len(keep_cols) of them exactly when the kept marginal is pure;
    otherwise the kept qubits are entangled with dropped ones and ValueError
    is raised.  The tableau is not changed.
    """
    n = t.n
    x, z, r = t.x[n:].copy(), t.z[n:].copy(), t.r[n:].copy()
    free = np.ones(n, bool)  # rows not yet spent as a pivot
    for q in np.setdiff1d(np.arange(n), keep_cols):
        for bits in (x, z):
            hits = np.flatnonzero(bits[:, q] & free)
            if hits.size:
                free[hits[0]] = False
                _rowsum(x, z, r, hits[1:], hits[0])
    rows, k = np.flatnonzero(free), len(keep_cols)
    if rows.size != k:
        raise ValueError(
            f"cannot restrict to {k} qubits: found {rows.size} stabilizers on them "
            "(the kept qubits are entangled with dropped ones)")
    sub = np.ix_(rows, np.asarray(keep_cols, np.int64))
    return graph_from_stab_matrix(x[sub], z[sub], r[rows])


def new_plus_state(n: int) -> StabilizerTableau:
    """Tableau for |+>^n: stabilizers {X_i}, destabilizers {Z_i}."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    t = StabilizerTableau(n)
    i = np.arange(n)
    t.z[i, i] = t.x[n + i, i] = True
    return t


def from_graph_state(g: GraphState) -> StabilizerTableau:
    """Tableau of a graph state, vertex operators applied exactly.

    Vertices are mapped to qubits in sorted-id order.
    """
    ids = sorted(g.vertices())
    if not ids:
        raise ValueError("cannot build a tableau for the empty graph")
    index = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    t = new_plus_state(n)
    for u, v in g.edges():  # stabilizer of v: X_v times Z on each neighbour
        a, b = index[u], index[v]
        t.z[n + a, b] = t.z[n + b, a] = True
    for v, op in g.vertex_ops.items():
        t.apply_clifford1(op, index[v])
    return t


def same_stabilizer_group(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    """True iff both tableaux stabilize the same state (signs included)."""
    if a.n != b.n:
        return False
    return all(b.expectation(row) == 1 for row in a.stabilizer_rows())
