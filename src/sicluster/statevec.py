"""Dense state-vector backend: the brute-force oracle for everything else.

Capped at 22 qubits (64 MiB of complex amplitudes).  Qubit q is tensor axis
q of the amplitude array reshaped to [2]*n, i.e. basis index bit weight
2^(n-1-q).  Norm is maintained to 1e-9 and checked.

``DenseRegister``, the dense register of the protocol oracle and the MBQC
executor, defers every CZ until a readout needs one of its ends and drops
each qubit at its readout, so the array holds only entangled qubits.
"""

from __future__ import annotations

import numpy as np

from sicluster import cliffords
from sicluster.graphstate import BorrowedAdjacency, GraphState
from sicluster.rng import draw_sign_bit
from sicluster.tableau import (  # noqa: F401  (SizeCapError is re-exported)
    Basis,
    PauliString,
    SizeCapError,
    StabilizerTableau,
    tableau_from_stabilizers,
)

MAX_QUBITS = 22
ATOL = 1e-9

_SQ2 = 1.0 / np.sqrt(2.0)
MAT_I = np.eye(2, dtype=complex)
MAT_X = np.array([[0, 1], [1, 0]], dtype=complex)
MAT_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
MAT_Z = np.array([[1, 0], [0, -1]], dtype=complex)
MAT_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
MAT_S = np.array([[1, 0], [0, 1j]], dtype=complex)
_PAULI_MATS = {"X": MAT_X, "Y": MAT_Y, "Z": MAT_Z}
_GATE_MATS = {"H": MAT_H, "S": MAT_S, "SDG": MAT_S.conj().T, **_PAULI_MATS}

KET_PLUS = np.array([_SQ2, _SQ2], dtype=complex)
KET_MINUS = np.array([_SQ2, -_SQ2], dtype=complex)
KET_PLUS_I = np.array([_SQ2, 1j * _SQ2], dtype=complex)
KET_MINUS_I = np.array([_SQ2, -1j * _SQ2], dtype=complex)
KET_ZERO = np.array([1.0, 0.0], dtype=complex)
KET_ONE = np.array([0.0, 1.0], dtype=complex)
_PAULI_EIGVECS = {Basis.X: (KET_PLUS, KET_MINUS), Basis.Y: (KET_PLUS_I, KET_MINUS_I)}


def mat_rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=complex)


def _eigvecs(basis: Basis | float) -> tuple[np.ndarray, np.ndarray]:
    """The (+1, -1) eigenvectors of X or Y, or of cos(a) X + sin(a) Y."""
    if isinstance(basis, Basis):
        return _PAULI_EIGVECS[basis]
    frame = mat_rz(basis) @ MAT_H
    return frame[:, 0], frame[:, 1]


def _sq_norm(a: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", a.real, a.real) + np.einsum("ij,ij->", a.imag, a.imag))


class ZeroProbabilityError(RuntimeError):
    """Raised when projecting onto a zero-probability branch."""


class StateVector:
    """A pure state on n <= 22 qubits with in-place gate application.

    n = 0 is the empty register: one amplitude, a global phase.
    """

    def __init__(self, n: int, psi: np.ndarray | None = None):
        if n < 0:
            raise ValueError("negative qubit count")
        if n > MAX_QUBITS:
            raise SizeCapError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
        self.n = n
        if psi is None:
            self.psi = np.zeros(1 << n, dtype=complex)
            self.psi[0] = 1.0
        else:
            psi = np.asarray(psi, dtype=complex).reshape(-1)
            if psi.shape[0] != 1 << n:
                raise ValueError("amplitude count does not match qubit count")
            self.psi = psi.copy()
            self._check_norm()

    @classmethod
    def all_plus(cls, n: int) -> "StateVector":
        sv = cls(n)
        sv.psi[:] = 1.0 / np.sqrt(1 << n)
        return sv

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.psi)

    def _check_norm(self) -> None:
        if abs(np.linalg.norm(self.psi) - 1.0) > 1e-7:
            raise AssertionError("state norm drifted")

    # -- gates ----------------------------------------------------------------

    def _axis_view(self, q: int) -> np.ndarray:
        return self.psi.reshape(1 << q, 2, 1 << (self.n - 1 - q))

    def apply_1q(self, mat: np.ndarray, q: int) -> "StateVector":
        view = self._axis_view(q)
        x0, x1 = view[:, 0, :], view[:, 1, :]
        if mat[0, 1] == 0 and mat[1, 0] == 0:  # diagonal: scale in place
            if mat[0, 0] != 1:
                x0 *= mat[0, 0]
            if mat[1, 1] != 1:
                x1 *= mat[1, 1]
            return self
        t0 = mat[0, 0] * x0 + mat[0, 1] * x1
        t1 = mat[1, 0] * x0 + mat[1, 1] * x1
        view[:, 0, :] = t0
        view[:, 1, :] = t1
        return self

    def apply_gate(self, name: str, q: int) -> "StateVector":
        return self.apply_1q(_GATE_MATS[name.upper()], q)

    def apply_clifford1(self, el: cliffords.Clifford1, q: int) -> "StateVector":
        return self.apply_1q(cliffords.matrix_of(el), q)

    def apply_cz(self, a: int, b: int) -> "StateVector":
        if a == b:
            raise ValueError("CZ targets must differ")
        psi = self.psi.reshape([2] * self.n)
        idx = [slice(None)] * self.n
        idx[a] = 1
        idx[b] = 1
        psi[tuple(idx)] *= -1
        return self

    def apply_cphase(self, theta: float, a: int, b: int) -> "StateVector":
        psi = self.psi.reshape([2] * self.n)
        idx = [slice(None)] * self.n
        idx[a] = 1
        idx[b] = 1
        psi[tuple(idx)] *= np.exp(1j * theta)
        return self

    def apply_cnot(self, a: int, b: int) -> "StateVector":
        psi = self.psi.reshape([2] * self.n)
        psi = np.moveaxis(psi, (a, b), (0, 1))
        psi[1] = psi[1, ::-1]
        self.psi = np.moveaxis(psi, (0, 1), (a, b)).reshape(-1)
        return self

    def apply_pauli(self, p: PauliString) -> "StateVector":
        if p.n != self.n:
            raise ValueError("size mismatch")
        for q in p.support():
            q = int(q)
            name = "IXZY"[int(p.x[q]) + 2 * int(p.z[q])]
            self.apply_1q(_PAULI_MATS[name], q)
        self.psi *= p.phase
        return self

    # -- measurement ----------------------------------------------------------

    def prob_one(self, q: int) -> float:
        return _sq_norm(self._axis_view(q)[:, 1, :])

    def _measure(self, q: int, basis: Basis | float, rng,
                 drop: bool) -> tuple[int, bool, np.ndarray]:
        """Read qubit q in a Pauli basis, or at an XY angle given as a float.

        Projects directly onto the eigenvector (one half-size contraction
        per branch) instead of rotating the whole state into the Z frame and
        back.  Deterministic outcomes consume no randomness, random ones
        exactly one draw.  With ``drop`` the projected half-size amplitudes
        become the state and qubit q is gone; otherwise q is left in the
        observed eigenstate.  Returns (outcome, deterministic, eigenvector).
        """
        view = self._axis_view(q)
        x0, x1 = view[:, 0, :], view[:, 1, :]
        if basis is Basis.Z:
            v_plus, v_minus = KET_ZERO, KET_ONE
            a_minus = x1
            p_minus = self.prob_one(q)
        else:
            v_plus, v_minus = _eigvecs(basis)
            a_minus = np.conj(v_minus[0]) * x0 + np.conj(v_minus[1]) * x1
            p_minus = _sq_norm(a_minus)
        if p_minus < ATOL:
            outcome, det, bit = 1, True, 0
        elif p_minus > 1 - ATOL:
            outcome, det, bit = -1, True, 1
        else:
            bit = draw_sign_bit(rng, p_minus)
            outcome, det = (-1 if bit else 1), False
        if bit:
            amp = a_minus * (1.0 / np.sqrt(p_minus))
            vec = v_minus
        else:
            a_plus = x0 if basis is Basis.Z else np.conj(v_plus[0]) * x0 + np.conj(v_plus[1]) * x1
            amp = a_plus * (1.0 / np.sqrt(max(1.0 - p_minus, ATOL)))
            vec = v_plus
        if drop:
            self.n -= 1
            self.psi = amp.reshape(-1)
        else:
            view[:, 0, :] = vec[0] * amp
            view[:, 1, :] = vec[1] * amp
        return outcome, det, vec

    def measure(self, q: int, basis: Basis, rng) -> tuple[int, bool]:
        """Projective Pauli measurement; returns (outcome, deterministic).

        Mirrors the tableau backend's draw discipline: deterministic outcomes
        consume no randomness, random ones consume exactly one draw.
        """
        return self._measure(q, basis, rng, drop=False)[:2]

    def measure_xy_angle(self, q: int, alpha: float, rng) -> tuple[int, bool]:
        """Measure cos(a) X + sin(a) Y; qubit left in the observed eigenstate."""
        return self._measure(q, alpha, rng, drop=False)[:2]

    def measure_out(self, q: int, basis: Basis | float,
                    rng) -> tuple[int, bool, np.ndarray]:
        """Measure qubit q and remove it: the state shrinks to n - 1 qubits.

        ``basis`` is a Pauli basis or an XY angle (as in ``measure_xy_angle``);
        outcomes and coin draws are those of ``measure`` followed by
        ``contract`` onto the observed eigenvector, which is returned as
        (outcome, deterministic, eigenvector).  Removing the last qubit
        leaves a 0-qubit state holding one global phase.
        """
        return self._measure(q, basis, rng, drop=True)

    def contract(self, q: int, local: np.ndarray) -> "StateVector":
        """Remove qubit q by projecting onto the given normalized 1-qubit state."""
        psi = self.psi.reshape([2] * self.n)
        new = np.tensordot(np.conj(local), psi, axes=([0], [q]))
        norm = np.linalg.norm(new)
        if norm < 1 - 1e-6:
            raise ZeroProbabilityError(
                f"qubit {q} is not in the requested product state (norm {norm:.3g})")
        out = StateVector.__new__(StateVector)
        out.n = self.n - 1
        out.psi = (new / norm).reshape(-1)
        return out

    # -- queries ----------------------------------------------------------------

    def expectation(self, p: PauliString) -> complex:
        work = self.copy().apply_pauli(p)
        return complex(np.vdot(self.psi, work.psi))

    def fidelity(self, other: "StateVector") -> float:
        """|<self|other>|, insensitive to global phase."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return float(abs(np.vdot(self.psi, other.psi)))


class DenseRegister:
    """Dense amplitudes of the entangled qubits only, with deferred CZs.

    Qubits carry any sortable labels.  A detached qubit is a one-qubit ket
    in ``single`` (a label not met yet is a detached |+>); the array ``sv``
    holds the others, ``axes`` naming the qubit of each axis.  A CZ is only
    recorded in ``pending``, where a repeated pair cancels: CZs commute with
    each other and with Z, S and SDG.  A non-diagonal gate or a readout off
    the Z axis first applies the qubit's pending CZs, attaching their
    detached ends; the readout then drops the qubit from the array
    (``StateVector.measure_out``).  A Z readout applies none: each pending
    CZ is a Z on the partner when the qubit reads 1.  Like the other
    engines, it takes its coins per readout: ``measure(q, basis, rng)``.

    A graph's ``adjacency`` (qubit -> partner set, each edge listed at both
    ends) starts one CZ per edge pending.  The register borrows it as a
    :class:`~sicluster.graphstate.BorrowedAdjacency`, copying a partner set
    only when it first reads it as ``pending[q]``, and never changes the
    caller's sets; the adjacency must not change while the register is in
    use.
    """

    def __init__(self, labels=(), psi=None, adjacency=None):
        # The array starts empty or holds psi, labels[0] on its leading axis.
        self.sv = StateVector(len(labels), psi)
        self.axes: list = list(labels)
        self.single: dict = {}
        # qubit -> deferred CZ partners, each set changed only as pending[q]
        self.pending: dict = {} if adjacency is None else BorrowedAdjacency.of(adjacency)

    def _attach(self, *qubits) -> None:
        """Move the detached qubits among ``qubits`` into sv as leading axes,
        copying the array once and never past the dense cap."""
        new = [q for q in qubits if q not in self.axes]
        if not new:
            return
        n = self.sv.n + len(new)
        if n > MAX_QUBITS:
            raise SizeCapError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
        ket = self.single.pop(new[0], KET_PLUS)
        for q in new[1:]:
            ket = np.multiply.outer(ket, self.single.pop(q, KET_PLUS)).reshape(-1)
        self.sv.psi = np.multiply.outer(ket, self.sv.psi).reshape(-1)
        self.sv.n = n
        self.axes[:0] = new

    def _flush(self, q) -> None:
        """Apply the CZs deferred on q."""
        partners = sorted(self.pending.pop(q, ()))
        if not partners:
            return
        self._attach(q, *partners)
        for p in partners:
            self.pending[p].discard(q)
            self.sv.apply_cz(self.axes.index(q), self.axes.index(p))

    def cz(self, a, b) -> None:
        pending = self.pending
        if a not in pending:
            pending[a] = set()
        if b not in pending:
            pending[b] = set()
        pending[a] ^= {b}
        pending[b] ^= {a}

    def gate(self, name: str, q) -> None:
        name = name.upper()
        if name not in ("Z", "S", "SDG"):
            self._flush(q)
        if q in self.axes:
            self.sv.apply_gate(name, self.axes.index(q))
        else:
            self.single[q] = _GATE_MATS[name] @ self.single.get(q, KET_PLUS)

    def measure(self, q, basis: Basis | float, rng) -> tuple[int, bool]:
        """Read q in a Pauli basis or at an XY angle, leaving it detached."""
        if basis is not Basis.Z:
            self._flush(q)
        partners = sorted(self.pending.pop(q, ()))  # none left after a flush
        if q in self.axes:
            outcome, det, ket = self.sv.measure_out(self.axes.index(q), basis, rng)
            self.axes.remove(q)
        else:
            one = StateVector(1, self.single.get(q, KET_PLUS))
            outcome, det, ket = one.measure_out(0, basis, rng)
        self.single[q] = ket
        for p in partners:
            self.pending[p].discard(q)
            if outcome == -1:
                self.gate("Z", p)
        return outcome, det

    def gather(self, qubits) -> np.ndarray:
        """Apply every deferred CZ reachable from ``qubits`` or the array; return
        the array, now in a product with the rest, with ``qubits`` leading."""
        self._attach(*qubits)
        todo = list(self.axes)
        while todo:
            q = todo.pop()
            if self.pending.get(q):
                todo += self.pending[q]
                self._flush(q)
        order = list(qubits) + [q for q in self.axes if q not in qubits]
        return self.sv.psi.reshape([2] * self.sv.n).transpose(
            [self.axes.index(q) for q in order])


def sv_run(source, operations, rng=None) -> tuple[StateVector, list[tuple[int, str, int]]]:
    """Convenience driver: prepare, apply a gate list, collect measurements.

    ``source`` is a qubit count (all-|+> register) or a GraphState.
    Operations are tuples: ("H"|"S"|"SDG"|"X"|"Y"|"Z", q), ("CZ"|"CNOT", a, b),
    ("CPHASE", theta, a, b), ("M", q, "X"|"Y"|"Z").  Returns the final state
    and the ordered (qubit, basis, outcome) measurement list.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if isinstance(source, GraphState):
        _, sv = graph_to_statevector(source)
    else:
        sv = StateVector.all_plus(int(source))
    outcomes: list[tuple[int, str, int]] = []
    for op in operations:
        name = op[0].upper()
        if name == "M":
            _, q, basis = op
            out, _ = sv.measure(q, Basis(basis), rng)
            outcomes.append((q, basis, out))
        elif name == "CZ":
            sv.apply_cz(op[1], op[2])
        elif name in ("CNOT", "CX"):
            sv.apply_cnot(op[1], op[2])
        elif name == "CPHASE":
            sv.apply_cphase(op[1], op[2], op[3])
        else:
            sv.apply_gate(name, op[1])
    return sv, outcomes


def graph_to_statevector(g: GraphState) -> tuple[list[int], StateVector]:
    """Dense state of a graph state incl. vertex operators.

    Returns (sorted vertex ids, state); qubit index = position in the id list.
    """
    ids = sorted(g.vertices())
    index = {v: i for i, v in enumerate(ids)}
    sv = StateVector.all_plus(len(ids))
    for u, v in g.edges():
        sv.apply_cz(index[u], index[v])
    for v in ids:
        op = g.op(v)
        if not op.is_identity():
            sv.apply_clifford1(op, index[v])
    return ids, sv


def tableau_to_statevector(t: StabilizerTableau) -> StateVector:
    """Render a tableau densely by projecting onto its stabilizer group."""
    n = t.n
    if n > MAX_QUBITS:
        raise SizeCapError("tableau too large for dense rendering")
    rows = t.stabilizer_rows()
    for start in range(1 << n):
        sv = StateVector(n)
        sv.psi[:] = 0
        sv.psi[start] = 1.0
        ok = True
        for row in rows:
            proj = sv.copy().apply_pauli(row)
            sv.psi = 0.5 * (sv.psi + proj.psi)
            norm = np.linalg.norm(sv.psi)
            if norm < 1e-12:
                ok = False
                break
            sv.psi /= norm
        if ok:
            return sv
    raise AssertionError("no basis state overlaps the stabilizer state")


def _support_basis(offsets: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
    """Greedy basis of the 2^k sorted support offsets (``offsets[0] == 0``),
    smallest first, and its span: span[u] is the XOR of the basis vectors
    picked out by the bits of u.  Raises ValueError unless the offsets form
    a linear subspace.

    In a subspace each greedy vector's top bit lies above every point of the
    span before it (a point sharing that bit would XOR with it to a smaller
    point outside the span), so the span of the first t vectors is the 2^t
    smallest offsets, listed in order.  The basis is therefore the offsets at
    positions 1, 2, 4, ..., and one comparison of its span with the offsets
    checks the whole support.
    """
    basis = [int(offsets[1 << j]) for j in range(k)]
    span = np.zeros(1, np.int64)
    for b in basis:
        span = np.concatenate([span, span ^ b])
    if not np.array_equal(span, offsets):
        raise ValueError("support is not an affine subspace")
    return basis, span


def tableau_from_statevector(psi: np.ndarray, tol: float = 1e-8) -> StabilizerTableau:
    """Reconstruct the stabilizer tableau of a dense stabilizer state.

    Uses the affine-support normal form: a stabilizer state has uniform
    amplitude magnitude over an affine subspace of basis indices with phases
    i^(quadratic form).  Raises ValueError when the input is not a stabilizer
    state to tolerance.
    """
    psi = np.asarray(psi, complex).reshape(-1)
    dim = psi.shape[0]
    n = int(round(np.log2(dim)))
    if 1 << n != dim:
        raise ValueError("amplitude count is not a power of two")
    amax = np.abs(psi).max()
    if amax < tol:
        raise ValueError("zero state")
    support = np.flatnonzero(np.abs(psi) > 0.5 * amax)
    if np.any((np.abs(psi) > tol * amax) & (np.abs(psi) <= 0.5 * amax)):
        raise ValueError("amplitude magnitudes are not uniform on the support")
    d = support.size
    k = int(round(np.log2(d)))
    if 1 << k != d:
        raise ValueError("support size is not a power of two")

    t0 = int(support[0])
    basis, span = _support_basis(np.sort(support ^ t0), k)

    c = psi[t0 ^ span] / psi[t0]
    ang = np.angle(c) / (np.pi / 2)
    bad_ratio = np.abs(np.abs(c) - 1.0) > 1e-6
    bad = np.flatnonzero(bad_ratio | (np.abs(ang - np.round(ang)) > 1e-6))
    if bad.size:
        if bad_ratio[bad[0]]:
            raise ValueError("non-uniform amplitude ratio")
        raise ValueError("amplitude phases are not powers of i")
    kappa = np.round(ang).astype(np.int64) & 3
    cvec = [int(kappa[1 << j]) for j in range(k)]
    bmat = np.zeros((k, k), np.int64)
    for j in range(k):
        for l in range(j + 1, k):
            diff = (int(kappa[(1 << j) | (1 << l)]) - cvec[j] - cvec[l]) % 4
            if diff & 1:
                raise ValueError("phase function is not quadratic over GF(2)")
            bmat[j, l] = bmat[l, j] = diff >> 1
    # Verify the quadratic model on the whole support: the points with top
    # bit j add c_j plus 2 * b_jl for every lower bit l they set.
    pred = np.zeros(1, np.int64)
    for j in range(k):
        cross = np.zeros(1, np.int64)
        for l in range(j):
            cross = np.concatenate([cross, cross + bmat[j, l]])
        pred = np.concatenate([pred, pred + cvec[j] + 2 * cross])
    if np.any((pred - kappa) % 4):
        raise ValueError("phases do not fit a quadratic form")

    def int_bits(value: int) -> np.ndarray:
        return np.array([(value >> (n - 1 - q)) & 1 for q in range(n)], np.uint8)

    t0_bits = int_bits(t0)
    rmat = np.array([int_bits(b) for b in basis], np.uint8).reshape(k, n)

    # One elimination of [R | T] gives the null space of R (the Z-type
    # generators) and, column j of T being the target of X-type generator j,
    # a w with R w = T[:, j].
    targets = (bmat + np.diag(np.asarray(cvec, np.int64))) & 1
    reduced, pivots = gf2_rref(np.concatenate([rmat, targets], axis=1))
    if len(pivots) < k or any(c >= n for c in pivots):
        raise ValueError("support basis matrix is rank-deficient")
    gens: list[PauliString] = []
    # Z-type generators: Z^w for w in the null space of R, sign (-1)^(w.t0).
    for f in sorted(set(range(n)) - set(pivots)):
        w = np.zeros(n, np.uint8)
        w[f] = 1
        w[pivots] = reduced[:k, f]
        sign = int(np.dot(w, t0_bits)) & 1
        gens.append(PauliString(n, np.zeros(n, np.uint8), w, 2 if sign else 0))
    # X-type generators, one per support-basis vector.
    for j in range(k):
        w = np.zeros(n, np.uint8)
        w[pivots] = reduced[:k, n + j]
        r = rmat[j]
        overlap = int(np.sum(r & w))
        sign_bit = (cvec[j] + int(np.dot(w, t0_bits))) & 1
        exp = (-cvec[j] - overlap + 2 * sign_bit) % 4
        if exp & 1:
            raise ValueError("X-type generator has imaginary phase")
        gens.append(PauliString(n, r.copy(), w, exp))
    if len(gens) != n:
        raise AssertionError("generator count mismatch")
    return tableau_from_stabilizers(gens)


def gf2_rref(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 0/1 matrix over GF(2).

    Returns (reduced, pivot_cols): ``reduced`` is a new uint8 matrix whose
    row i has its leading one in column pivot_cols[i]; rows past
    len(pivot_cols) are zero.  The form depends only on the row space.
    """
    a = np.asarray(a, np.uint8) % 2
    pivots: list[int] = []
    for c in range(a.shape[1]):
        top = len(pivots)
        if top == a.shape[0]:
            break
        hits = np.flatnonzero(a[top:, c])
        if not hits.size:
            continue
        a[[top, top + hits[0]]] = a[[top + hits[0], top]]
        others = a[:, c].astype(bool)
        others[top] = False
        a[others] ^= a[top]
        pivots.append(c)
    return a, pivots
