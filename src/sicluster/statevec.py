"""Dense state-vector backend: the brute-force oracle for everything else.

Capped at 22 qubits (64 MiB of complex amplitudes).  Qubit q is tensor axis
q of the amplitude array reshaped to [2]*n, i.e. basis index bit weight
2^(n-1-q).  Norm is maintained to 1e-9 and checked.  An array may carry a
trailing batch axis of B independent states on the same qubits; the batch
bits count against the cap.

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
    from_graph_state,
    graph_from_stab_matrix,
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
    # The columns of mat_rz(basis) @ MAT_H.
    lo, hi = _SQ2 * np.exp(-0.5j * basis), _SQ2 * np.exp(0.5j * basis)
    return np.array([lo, hi]), np.array([lo, -hi])


def _sq_norm(a: np.ndarray) -> float:
    return float(np.einsum("ij,ij->", a.real, a.real) + np.einsum("ij,ij->", a.imag, a.imag))


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """The squared norm of each slice of a 3-axis array whose last axis is the batch."""
    return np.einsum("ijk,ijk->k", a.real, a.real) + np.einsum("ijk,ijk->k", a.imag, a.imag)


def _check_cap(n: int, batch: int) -> None:
    """Refuse an array of n qubits and ``batch`` slices past the dense cap."""
    if n > MAX_QUBITS:
        raise SizeCapError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
    if batch << n > 1 << MAX_QUBITS:
        raise SizeCapError(
            f"{n} qubits in a batch of {batch} exceed the dense cap of {MAX_QUBITS}")


def _read_ket(ket: np.ndarray, basis: Basis | float, rng) -> tuple:
    """``StateVector(1, ket).measure_out(0, basis, rng)`` read in place: the
    same projection arithmetic, outcome, coin draws and eigenvector, with
    no copy of the ket.  Given ``CoinRows`` (as ``StateVector._measure``
    takes them), ``ket`` is one ket or a 2 x B array of one column per run,
    ``basis`` may be one angle per run, and the outcome, deterministic flag
    and eigenvector come back per run."""
    if basis is Basis.Z:
        v_plus, v_minus = KET_ZERO, KET_ONE
        a_minus = ket[1]
    else:
        v_plus, v_minus = _eigvecs(basis)
        a_minus = np.conj(v_minus[0]) * ket[0] + np.conj(v_minus[1]) * ket[1]
    p_minus = a_minus.real * a_minus.real + a_minus.imag * a_minus.imag
    if isinstance(rng, np.random.Generator):
        p_minus = float(p_minus)
        det = p_minus < ATOL or p_minus > 1 - ATOL
        bit = int(p_minus > 0.5) if det else draw_sign_bit(rng, p_minus)
        return (-1 if bit else 1), det, (v_minus if bit else v_plus)
    return _read_runs(np.broadcast_to(p_minus, rng.cursor.shape), rng, v_plus, v_minus)[1]


def _read_runs(p_minus: np.ndarray, coins, v_plus: np.ndarray,
               v_minus: np.ndarray) -> tuple[np.ndarray, tuple]:
    """(taken, (outcomes, deterministic flags, eigenvectors)) of a readout
    whose run i reads -1 with probability ``p_minus[i]``: ``taken`` marks
    the runs that read -1, and the eigenvectors are the columns of a 2 x B
    array.  Each run draws as ``draw_sign_bit`` would, from its own row of
    ``coins``."""
    det = (p_minus < ATOL) | (p_minus > 1 - ATOL)
    taken = (p_minus > 1 - ATOL) | coins.sign_bits(p_minus, ~det)
    vecs = np.where(taken, v_minus.reshape(2, -1), v_plus.reshape(2, -1))
    return taken, (np.where(taken, -1, 1), det, vecs)


class ZeroProbabilityError(RuntimeError):
    """Raised when projecting onto a zero-probability branch."""


class StateVector:
    """A pure state on n <= 22 qubits with in-place gate application.

    n = 0 is the empty register: one amplitude, a global phase.  With
    ``batch`` = B the array holds B states on the same qubits, the slice
    index running fastest (``psi`` read as [2^n, B]); ``n`` counts qubits
    only, and n + log2 B must fit the cap.  Gates act on every slice.  A
    ``Generator`` reads out a batch of one; a batch of B is B independent
    runs, read out with ``rng.CoinRows`` of one row per slice, and each
    slice takes its own branch on its own coins.  ``prob_one``,
    ``contract``, ``expectation`` and ``fidelity`` read a batch of one.
    """

    def __init__(self, n: int, psi: np.ndarray | None = None, batch: int = 1):
        if n < 0:
            raise ValueError("negative qubit count")
        _check_cap(n, batch)
        self.n = n
        self.batch = batch
        if psi is None:
            self.psi = np.zeros(batch << n, dtype=complex)
            self.psi[:batch] = 1.0
        else:
            psi = np.asarray(psi, dtype=complex).reshape(-1)
            if psi.shape[0] != batch << n:
                raise ValueError("amplitude count does not match qubit count")
            self.psi = psi.copy()
            self._check_norm()

    @classmethod
    def all_plus(cls, n: int) -> "StateVector":
        sv = cls(n)
        sv.psi[:] = 1.0 / np.sqrt(1 << n)
        return sv

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.psi, self.batch)

    def _check_norm(self) -> None:
        """Raise AssertionError unless every slice has norm 1 to 1e-7."""
        norms = np.linalg.norm(self.psi.reshape(-1, self.batch), axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-7):
            raise AssertionError("state norm drifted")

    def _tensor(self) -> np.ndarray:
        """The amplitudes as a [2]*n tensor, with the batch axis last."""
        return self.psi.reshape([2] * self.n + [self.batch])

    # -- gates ----------------------------------------------------------------

    def _axis_view(self, q: int) -> np.ndarray:
        """Qubit q as the middle axis; the last one runs over the later
        qubits and the batch."""
        return self.psi.reshape(1 << q, 2, -1)

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
        if a > b:
            a, b = b, a
        self.psi.reshape(1 << a, 2, 1 << (b - a - 1), 2, -1)[:, 1, :, 1, :] *= -1
        return self

    def apply_cnot(self, a: int, b: int) -> "StateVector":
        psi = self._tensor()
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

        A ``Generator`` reads a batch of one.  A batch of B slices reads with
        ``CoinRows`` of one row per slice instead, ``basis`` possibly one
        angle per slice: each slice reads its own probability and takes its
        own branch, drawing at most one coin from its own row, and the
        outcomes and deterministic flags come back as arrays of B, the
        eigenvectors as the columns of a 2 x B array.
        """
        view = self._axis_view(q)
        x0, x1 = view[:, 0, :], view[:, 1, :]
        single = isinstance(rng, np.random.Generator)
        if not single:  # split the batch axis off, to scale each slice alone
            x0, x1 = (x.reshape(x.shape[0], -1, self.batch) for x in (x0, x1))
        elif self.batch > 1:
            raise ValueError("a coin generator reads one run; a batch reads a coin row per slice")
        if basis is Basis.Z:
            v_plus, v_minus = KET_ZERO, KET_ONE
            a_minus = x1
        else:
            v_plus, v_minus = _eigvecs(basis)
            c_plus, c_minus = np.conj(v_plus), np.conj(v_minus)
            a_minus = c_minus[0] * x0 + c_minus[1] * x1
        if single:
            p_minus = _sq_norm(a_minus)
            det = p_minus < ATOL or p_minus > 1 - ATOL
            bit = int(p_minus > 0.5) if det else draw_sign_bit(rng, p_minus)
            if bit:
                amp, vec = a_minus * (1.0 / np.sqrt(p_minus)), v_minus
            else:
                a_plus = x0 if basis is Basis.Z else c_plus[0] * x0 + c_plus[1] * x1
                amp, vec = a_plus * (1.0 / np.sqrt(1.0 - p_minus)), v_plus
            result = ((-1 if bit else 1), det, vec)
        else:
            p_minus = _sq_norms(a_minus)
            taken, result = _read_runs(p_minus, rng, v_plus, v_minus)
            # The branch each slice takes has probability at least ATOL.
            a_plus = x0 if basis is Basis.Z else c_plus[0] * x0 + c_plus[1] * x1
            amp = np.where(taken, a_minus, a_plus)
            amp *= 1.0 / np.sqrt(np.where(taken, p_minus, 1.0 - p_minus))
            vec = result[2]
        if drop:
            self.n -= 1
            self.psi = amp.reshape(-1)
        else:
            x0[...] = vec[0] * amp
            x1[...] = vec[1] * amp
        return result

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
        out.n, out.batch = self.n - 1, 1
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

    With ``batch`` = B, ``psi`` holds B states of the labelled qubits (see
    ``StateVector``), and the register runs them as B independent runs, read
    out with ``rng.CoinRows`` of one row per slice: each slice takes its own
    branch, outcomes come back per slice, and a Z readout that reads -1 in
    some slices only puts its Z on those slices.  Only the array is
    batched: the qubits it holds depend on the pattern of gates and
    readouts, never on the outcomes, so every slice holds the same ones.
    A detached qubit stays detached when such a Z reaches it, its ket now a
    2 x B array of one column per slice.  ``sv.n`` counts qubits only, but
    the batch bits count against the dense cap.
    """

    def __init__(self, labels=(), psi=None, adjacency=None, batch: int = 1):
        # The array starts empty or holds psi, labels[0] on its leading axis.
        self.sv = StateVector(len(labels), psi, batch)
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
        _check_cap(n, self.sv.batch)
        # A ket is one column, or one column per slice.
        ket = self.single.pop(new[0], KET_PLUS).reshape(2, -1)
        for q in new[1:]:
            k = self.single.pop(q, KET_PLUS).reshape(2, -1)
            ket = (ket[:, None, :] * k).reshape(2 * ket.shape[0], -1)
        self.sv.psi = (ket[:, None, :] * self.sv.psi.reshape(-1, self.sv.batch)).reshape(-1)
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

    def _slice_z(self, q, flip: np.ndarray) -> None:
        """Z on q in the slices ``flip`` marks, one flag per slice."""
        if not flip.any():
            return
        if q in self.axes:
            sign = np.where(flip, -1.0, 1.0)
            self.sv.psi.reshape(1 << self.axes.index(q), 2, -1, self.sv.batch)[:, 1] *= sign
        else:
            ket = np.array(np.broadcast_to(self.single.get(q, KET_PLUS).reshape(2, -1),
                                           (2, flip.size)))
            ket[1, flip] *= -1
            self.single[q] = ket

    def measure(self, q, basis: Basis | float, rng) -> tuple[int, bool]:
        """Read q in a Pauli basis or at an XY angle, leaving it detached;
        with ``CoinRows``, per-slice outcomes and flags."""
        if basis is not Basis.Z:
            self._flush(q)
        partners = sorted(self.pending.pop(q, ()))  # none left after a flush
        if q in self.axes:
            outcome, det, ket = self.sv.measure_out(self.axes.index(q), basis, rng)
            self.axes.remove(q)
        else:
            outcome, det, ket = _read_ket(self.single.get(q, KET_PLUS), basis, rng)
        self.single[q] = ket
        for p in partners:
            self.pending[p].discard(q)
            if isinstance(outcome, np.ndarray):
                self._slice_z(p, outcome == -1)
            elif outcome == -1:
                self.gate("Z", p)
        return outcome, det

    def gather(self, qubits) -> np.ndarray:
        """Apply every deferred CZ reachable from ``qubits`` or the array; return
        the array, now in a product with the rest, as a [2]*n + [batch]
        tensor with ``qubits`` leading."""
        self._attach(*qubits)
        todo = list(self.axes)
        while todo:
            q = todo.pop()
            if self.pending.get(q):
                todo += self.pending[q]
                self._flush(q)
        order = list(qubits) + [q for q in self.axes if q not in qubits]
        return self.sv._tensor().transpose(
            [self.axes.index(q) for q in order] + [self.sv.n])


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


def _lowest_bit_split(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(rest, low) for u = 1 .. d - 1: low is the lowest set bit of u and
    rest = u ^ low, in the smallest unsigned type that holds d."""
    u = np.arange(1, d, dtype=np.min_scalar_type(d))
    low = u & -u
    u ^= low
    return u, low


def _support(psi: np.ndarray, tol: float) -> np.ndarray:
    """Indices of the amplitudes above half the largest magnitude.  Raises
    ValueError on a zero state or on a magnitude between tol and half the
    largest, relative to the largest."""
    mag = np.abs(psi)
    amax = mag.max()
    if amax < tol:
        raise ValueError("zero state")
    support = np.flatnonzero(mag > 0.5 * amax)
    if np.count_nonzero(mag > tol * amax) > support.size:
        raise ValueError("amplitude magnitudes are not uniform on the support")
    return support


def _support_basis(offsets: np.ndarray, k: int) -> tuple[list[int], np.ndarray]:
    """Greedy basis of the 2^k sorted support offsets (``offsets[0] == 0``),
    smallest first, and its span: span[u] is the XOR of the basis vectors
    picked out by the bits of u.  Raises ValueError unless the offsets form
    a linear subspace.

    In a subspace each greedy vector's top bit lies above every point of the
    span before it (a point sharing that bit would XOR with it to a smaller
    point outside the span), so the span of the first t vectors is the 2^t
    smallest offsets, listed in order.  The basis is therefore the offsets at
    positions 1, 2, 4, ..., and the span is the offsets themselves exactly
    when each offset is the XOR of the offsets at u with its lowest bit
    cleared and at that bit alone: one pass checks the whole support.
    """
    basis = offsets[1 << np.arange(k)].tolist()
    rest, low = _lowest_bit_split(offsets.size)
    span = offsets[rest]
    span ^= offsets[low]
    if not np.array_equal(span, offsets[1:]):
        raise ValueError("support is not an affine subspace")
    return basis, offsets


def _phase_quarters(psi: np.ndarray, t0: int, span: np.ndarray) -> np.ndarray:
    """The phase of psi[t0 ^ span[u]] against psi[t0] in quarter turns, 0..3,
    as int8.  Raises ValueError unless every ratio is a power of i."""
    # In place where it can be: at 21 qubits each array here is 16 or 32 MB.
    c = psi[t0 ^ span]
    c /= psi[t0]
    err = np.abs(c)
    err -= 1.0
    bad_ratio = np.abs(err, out=err) > 1e-6
    del err
    ang = np.angle(c)
    del c
    ang /= np.pi / 2
    quarter = np.round(ang)
    ang -= quarter
    bad = np.flatnonzero(bad_ratio | (np.abs(ang, out=ang) > 1e-6))
    if bad.size:
        if bad_ratio[bad[0]]:
            raise ValueError("non-uniform amplitude ratio")
        raise ValueError("amplitude phases are not powers of i")
    return quarter.astype(np.int8) & 3


def stabilizer_matrix(psi: np.ndarray,
                      tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n commuting generators of a dense stabilizer state as (x, z, r):
    the (n, n) bool X and Z blocks and the bool signs that
    ``tableau.graph_from_stab_matrix`` reduces.

    Uses the affine-support normal form (Dehaene & De Moor, PRA 68, 042318
    (2003)): a stabilizer state has uniform amplitude magnitude over an
    affine subspace t0 + span(R) of basis indices, with phases i^q(u) for a
    quadratic form q of the coordinates u over the k rows of R.  The first
    n - k rows are Z-type generators, one per non-pivot column of R; the
    last k are X-type, one per row of R.  Raises ValueError when the input
    is not a stabilizer state to tolerance.
    """
    psi = np.asarray(psi, complex).reshape(-1)
    dim = psi.shape[0]
    n = max(dim.bit_length() - 1, 0)
    if 1 << n != dim:
        raise ValueError("amplitude count is not a power of two")
    offsets = _support(psi, tol)
    d = offsets.size
    k = d.bit_length() - 1
    if 1 << k != d:
        raise ValueError("support size is not a power of two")
    t0 = int(offsets[0])
    offsets ^= t0
    offsets.sort()
    basis, span = _support_basis(offsets, k)
    kappa = _phase_quarters(psi, t0, span)

    # kappa(u) = sum_j c_j u_j + 2 sum_{l<j} b_jl u_j u_l (mod 4): c is read
    # off the basis vectors, b off their pairs.
    unit = 1 << np.arange(k)
    cvec = kappa[unit]
    pair = (kappa[unit[:, None] | unit] - cvec[:, None] - cvec) & 3
    np.fill_diagonal(pair, 0)
    if np.any(pair & 1):
        raise ValueError("phase function is not quadratic over GF(2)")
    bmat = pair >> 1
    # Verify the form on the whole support in one pass: clearing the lowest
    # bit l of u leaves a rest whose bits all lie above l, and the form gives
    # kappa(u) = kappa(rest) + c_l + 2 * (the b_jl of the bits j of rest).
    rest, low = _lowest_bit_split(d)
    lowest = np.bitwise_count(low - 1)
    diff = kappa[1:] - kappa[rest] - cvec[lowest]
    rest &= (bmat @ unit).astype(rest.dtype)[lowest]
    if np.any((diff - 2 * np.bitwise_count(rest)) & 3):
        raise ValueError("phases do not fit a quadratic form")

    # One elimination of [R | T] gives the null space of R (the Z-type
    # generators) and, column j of T being the target of X-type generator j,
    # a w with R w = T[:, j].  Each row is one int, column 0 its top bit.
    tmat = bmat  # T is B with c mod 2 on its diagonal; B is spent
    np.fill_diagonal(tmat, cvec & 1)
    rows = ((np.array(basis, np.int64) << k) | (tmat @ unit[::-1])).tolist()
    reduced = []  # the reduced rows, in pivot order
    for _ in range(k):
        top = max(rows)
        if top >> k == 0:
            raise ValueError("support basis matrix is rank-deficient")
        lead = 1 << (top.bit_length() - 1)
        rows.remove(top)
        rows = [r ^ top if r & lead else r for r in rows]
        reduced = [r ^ top if r & lead else r for r in reduced]
        reduced.append(top)
    # Qubit q is bit n - 1 - q of an X or Z part, as of a basis index.
    pivot_bits = [1 << (r.bit_length() - 1 - k) for r in reduced]

    def pivot_part(col: int) -> int:
        """The pivot qubits of the reduced rows that set bit ``col``."""
        return sum(p for r, p in zip(reduced, pivot_bits) if r & col)

    # (X part, c, Z part): Z-type Z^w for w in the null space of R, then
    # X-type X^r_j Z^w with R w = T[:, j].  The phase is
    # i^(2 (c + w.t0) - c - r.w), real for a stabilizer state.
    pivot_mask = sum(pivot_bits)
    free_bits = [1 << b for b in range(n - 1, -1, -1) if not pivot_mask >> b & 1]
    gens = [(0, 0, f | pivot_part(f << k)) for f in free_bits]
    gens += [(r_j, c_j, pivot_part(1 << (k - 1 - j)))
             for j, (r_j, c_j) in enumerate(zip(basis, cvec.tolist()))]
    signs = []
    for r, c, w in gens:
        exp = (2 * (c + (w & t0).bit_count()) - c - (r & w).bit_count()) & 3
        if exp & 1:
            raise ValueError("X-type generator has imaginary phase")
        signs.append(exp >> 1)
    parts = [r for r, _, _ in gens] + [w for _, _, w in gens]
    bits = (np.array(parts, np.int64)[:, None] >> np.arange(n - 1, -1, -1)) & 1 != 0
    return bits[:n], bits[n:], np.array(signs, bool)


def tableau_from_statevector(psi: np.ndarray, tol: float = 1e-8) -> StabilizerTableau:
    """Tableau of a dense stabilizer state, in the graph form of its
    stabilizer group.  Raises ValueError as ``stabilizer_matrix`` does."""
    return from_graph_state(GraphState.adopt(*graph_from_stab_matrix(
        *stabilizer_matrix(psi, tol))))
