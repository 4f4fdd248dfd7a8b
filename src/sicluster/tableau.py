"""Bit-packed GF(2) stabilizer algebra: Clifford gates and Pauli measurements.

The tableau keeps n destabilizer and n stabilizer generators in the packed
qubit-major layout described in ``_kernels``.  Signs are exact: tableau rows
carry a +-1 sign bit, while free-standing Pauli strings track the full
{1, i, -1, -i} phase.  The convention for a site with both bits set is Y
(i.e. a row's operator is the product of per-site I/X/Y/Z letters).
"""

from __future__ import annotations

import enum
import os

import numpy as np

from sicluster import _kernels as kern
from sicluster import cliffords
from sicluster.graphstate import GraphState
from sicluster.rng import draw_sign_bit

# Debug mode: validate the symplectic invariants after every gate and
# measurement.  Slow; meant for hunting sign bugs.
AUTO_VALIDATE = os.environ.get("SICLUSTER_VALIDATE", "") not in ("", "0")

# Largest tableau allocation, in bytes (see tableau_bytes).  2 GiB holds a
# 100x100-site protocol (2 * 10^4 qubits, about 200 MB); a 300x300 lattice
# would need about 16 GB.
MAX_TABLEAU_BYTES = 2**31


class SizeCapError(RuntimeError):
    """Raised when a simulation would exceed a size cap."""


def tableau_bytes(n: int) -> int:
    """Bytes of the X and Z bit blocks of an n-qubit tableau."""
    return 2 * n * ((2 * n + 63) >> 6) * 8


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

    def commutes_with(self, other: "PauliString") -> bool:
        if self.n != other.n:
            raise ValueError("size mismatch")
        parity = int(np.sum(self.x & other.z) + np.sum(self.z & other.x)) & 1
        return parity == 0

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


_GATE_1Q = {"H": "gate_h", "S": "gate_s", "SDG": "gate_sdg",
            "X": "gate_x", "Y": "gate_y", "Z": "gate_z"}
_GATE_2Q = {"CZ": "gate_cz", "CNOT": "gate_cnot", "CX": "gate_cnot"}


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
        nwords = (2 * n + 63) >> 6
        self.xs = np.zeros((n, nwords), np.uint64)
        self.zs = np.zeros((n, nwords), np.uint64)
        self.rs = np.zeros(nwords, np.uint64)
        self.lo = np.zeros(2 * n, np.int32)
        self.hi = np.zeros(2 * n, np.int32)

    # -- construction -------------------------------------------------------

    def _init_plus(self) -> None:
        i = np.arange(self.n)
        sb, db = 2 * i + 1, 2 * i
        one = np.uint64(1)
        self.xs[i, sb >> 6] |= one << (sb & 63).astype(np.uint64)
        self.zs[i, db >> 6] |= one << (db & 63).astype(np.uint64)
        self.lo[sb] = self.lo[db] = i
        self.hi[sb] = self.hi[db] = i + 1

    def copy(self) -> "StabilizerTableau":
        t = StabilizerTableau.__new__(StabilizerTableau)
        t.n = self.n
        t.xs = self.xs.copy()
        t.zs = self.zs.copy()
        t.rs = self.rs.copy()
        t.lo = self.lo.copy()
        t.hi = self.hi.copy()
        return t

    # -- gates --------------------------------------------------------------

    def apply_gate(self, gate: str, *targets: int) -> "StabilizerTableau":
        """Conjugate the state by a named Clifford gate.

        Supported: H, S, SDG, X, Y, Z (one target) and CZ, CNOT/CX (two
        distinct targets).
        """
        gate = gate.upper()
        lane = kern.active_lane()
        if gate in _GATE_1Q:
            if len(targets) != 1:
                raise ValueError(f"{gate} takes one target")
            (q,) = targets
            self._check_q(q)
            getattr(lane, _GATE_1Q[gate])(self.xs, self.zs, self.rs, q)
        elif gate in _GATE_2Q:
            if len(targets) != 2:
                raise ValueError(f"{gate} takes two targets")
            a, b = targets
            self._check_q(a)
            self._check_q(b)
            if a == b:
                raise ValueError("two-qubit gate targets must be distinct")
            getattr(lane, _GATE_2Q[gate])(self.xs, self.zs, self.rs, self.lo, self.hi, a, b)
        else:
            raise ValueError(f"unknown gate {gate!r}")
        if AUTO_VALIDATE:
            self.validate()
        return self

    def apply_clifford1(self, el: cliffords.Clifford1, q: int) -> "StabilizerTableau":
        """Apply a single-qubit Clifford group element via its H/S word."""
        for letter in reversed(el.word):
            self.apply_gate(letter, q)
        return self

    def _check_q(self, q: int) -> None:
        if not 0 <= q < self.n:
            raise IndexError(f"qubit {q} out of range for n={self.n}")

    # -- measurement --------------------------------------------------------

    def measure(self, q: int, basis: Basis, rng) -> tuple[int, bool]:
        """Measure qubit q in a Pauli basis.

        Returns (outcome, deterministic) with outcome in {+1, -1}.  Random
        outcomes consume exactly one draw from ``rng``; deterministic ones
        consume none.  Y and Z are routed through the X code path by basis
        conjugation.
        """
        out, det, _ = self._measure_impl(q, basis, rng)
        return out, det

    def _measure_impl(self, q: int, basis: Basis, rng) -> tuple[int, bool, int]:
        self._check_q(q)
        if basis == Basis.Z:
            pre, post = "H", "H"
        elif basis == Basis.Y:
            pre, post = "SDG", "S"
        else:
            pre = post = None
        if pre:
            self.apply_gate(pre, q)
        lane = kern.active_lane()
        p = self._pick_pivot_row(q)
        if p >= 0:
            coin = draw_sign_bit(rng, 0.5)
            lane.measure_x_random(self.xs, self.zs, self.rs, self.lo, self.hi, q, p, coin)
            outcome, det = (-1 if coin else 1), False
        else:
            rows = (kern.bits_of(self.zs[q] & kern.EVEN_MASK) + 1).astype(np.int64)
            exp, ax, az = lane.group_sign(self.xs, self.zs, self.rs, self.lo, self.hi, rows)
            want_x = np.zeros_like(ax)
            want_x[q >> 6] = np.uint64(1) << np.uint64(q & 63)
            if exp & 1 or az.any() or not np.array_equal(ax, want_x):
                raise AssertionError("deterministic measurement product is not +-X_q")
            outcome, det, p = (1 if exp == 0 else -1), True, -1
        if post:
            self.apply_gate(post, q)
        if AUTO_VALIDATE:
            self.validate()
        return outcome, det, p

    def _pick_pivot_row(self, q: int) -> int:
        """Anticommuting stabilizer row-bit with the smallest column window.

        Any anticommuting stabilizer works; taking the narrowest one keeps
        the rowsum pass local and damps window growth over long measurement
        rounds (ties break toward the lowest row for determinism).
        """
        cands = kern.bits_of(self.zs[q] & kern.ODD_MASK)
        if cands.size == 0:
            return -1
        spans = self.hi[cands] - self.lo[cands]
        return int(cands[int(np.argmin(spans))])

    def _clean_stab_column(self, q: int, p: int) -> None:
        """Clear the measured-Pauli bits of column q from all stabilizer rows.

        Presentation-only rewrite (multiplies rows by the generator at row-bit
        ``p``); it deliberately skips the matching destabilizer fix-up, so the
        destabilizer half is invalid afterwards.  Used just before restricting
        to a sub-register, where only stabilizer rows survive.
        """
        kern.active_lane().clean_column(self.xs, self.zs, self.rs, q, p)

    # -- queries ------------------------------------------------------------

    def expectation(self, p: PauliString) -> int:
        """+-1 if +-p is in the stabilizer group, 0 if p anticommutes with it."""
        if p.n != self.n:
            raise ValueError("operator size does not match tableau")
        if p.phase_exp & 1:
            raise ValueError("expectation of a non-Hermitian (imaginary) Pauli")
        if p.is_identity():
            return 1 if p.phase_exp == 0 else -1
        parity = np.zeros_like(self.rs)
        for c in p.support():
            c = int(c)
            if p.x[c]:
                parity ^= self.zs[c]
            if p.z[c]:
                parity ^= self.xs[c]
        if (parity & kern.ODD_MASK).any():
            return 0
        rows = (kern.bits_of(parity & kern.EVEN_MASK) + 1).astype(np.int64)
        exp, ax, az = kern.active_lane().group_sign(
            self.xs, self.zs, self.rs, self.lo, self.hi, rows)
        if not (np.array_equal(ax, _pack_bits(p.x)) and np.array_equal(az, _pack_bits(p.z))):
            raise AssertionError("commuting Pauli not generated by stabilizer group")
        sign = 1 if exp == 0 else -1
        return sign if p.phase_exp == 0 else -sign

    def stabilizer_rows(self) -> list[PauliString]:
        rows = np.arange(1, 2 * self.n, 2, dtype=np.int64)
        xm, zm, sg, _, _ = self._extract(rows)
        return [_row_to_pauli(self.n, xm[i], zm[i], sg[i]) for i in range(self.n)]

    def destabilizer_rows(self) -> list[PauliString]:
        rows = np.arange(0, 2 * self.n, 2, dtype=np.int64)
        xm, zm, sg, _, _ = self._extract(rows)
        return [_row_to_pauli(self.n, xm[i], zm[i], sg[i]) for i in range(self.n)]

    def _extract(self, rows, colmap=None, n_out=None):
        lane = kern.active_lane()
        if colmap is None:
            colmap = np.arange(self.n, dtype=np.int32)
            n_out = self.n
        rows = np.asarray(rows, np.int64)
        row_map = np.full(2 * self.n, -1, np.int32)
        row_map[rows] = np.arange(rows.size, dtype=np.int32)
        return lane.extract_rows_transposed(self.xs, self.zs, self.rs,
                                            row_map, colmap, n_out, rows.size)

    def dump(self) -> str:
        """Debug form: one stabilizer per line, e.g. ``+XZI``."""
        lines = []
        for row in self.stabilizer_rows():
            label = row.to_label()
            if not label.startswith(("+", "-")):
                label = "+" + label
            lines.append(label)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.dump()

    def validate(self) -> None:
        """Check the symplectic invariants; raises AssertionError on damage."""
        stabs = self.stabilizer_rows()
        destabs = self.destabilizer_rows()
        for i, s in enumerate(stabs):
            if s.is_identity():
                raise AssertionError(f"stabilizer {i} is the identity")
            for j in range(i + 1, self.n):
                if not s.commutes_with(stabs[j]):
                    raise AssertionError(f"stabilizers {i},{j} anticommute")
        for i, d in enumerate(destabs):
            for j, s in enumerate(stabs):
                want = i != j
                if d.commutes_with(s) != want:
                    raise AssertionError(f"destabilizer {i} pairing broken at {j}")
        for b in range(2 * self.n):
            i, is_stab = b >> 1, b & 1
            row = stabs[i] if is_stab else destabs[i]
            sup = row.support()
            if sup.size and not (self.lo[b] <= sup[0] and sup[-1] < self.hi[b]):
                raise AssertionError(f"window of row-bit {b} does not cover support")

    # -- graph-state conversion ---------------------------------------------

    def to_graph_state(self) -> GraphState:
        """Express the state as a graph plus per-vertex local Cliffords."""
        rows = np.arange(1, 2 * self.n, 2, dtype=np.int64)
        xm, zm, sg, rlo, rhi = self._extract(rows)
        adj, ops = graph_from_stab_matrix(xm, zm, sg, rlo, rhi)
        edges = [(v, u) for v, nbrs in adj.items() for u in nbrs if u > v]
        return GraphState(range(self.n), edges, ops)


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    n = bits.shape[0]
    out = np.zeros((n + 63) >> 6, np.uint64)
    idx = np.flatnonzero(bits)
    if idx.size:
        np.bitwise_or.at(out, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64))
    return out


def _row_to_pauli(n: int, xw: np.ndarray, zw: np.ndarray, sign: int) -> PauliString:
    p = PauliString(n, phase_exp=2 if sign else 0)
    for c in kern.bits_of(xw):
        p.x[c] = 1
    for c in kern.bits_of(zw):
        p.z[c] = 1
    return p


def graph_from_stab_matrix(xm, zm, sg, rlo, rhi) -> tuple[dict, dict]:
    """Reduce a packed stabilizer matrix to graph form.

    Row-reduces the X block to the identity (inserting Hadamards on the rank
    defect), strips the Z diagonal with S corrections and the signs with Z
    corrections.  Returns (adjacency dict, vertex_ops dict); the represented
    state equals (prod_v ops[v]) |adjacency>.
    """
    k = xm.shape[0]
    if k == 0:
        return {}, {}
    lane = kern.active_lane()
    sg = sg.astype(np.uint8)
    pivrow, free_cols = lane.rref_x_block(xm, zm, sg, rlo, rhi)
    h_cols = set()
    if free_cols.size:
        for col in free_cols:
            col = int(col)
            w, b = col >> 6, np.uint64(col & 63)
            xcol = (xm[:, w] >> b) & np.uint64(1)
            zcol = (zm[:, w] >> b) & np.uint64(1)
            sg ^= (xcol & zcol).astype(np.uint8)
            diff = (xcol ^ zcol) << b
            xm[:, w] ^= diff
            zm[:, w] ^= diff
            h_cols.add(col)
        pivrow, free2 = lane.rref_x_block(xm, zm, sg, rlo, rhi)
        if free2.size:
            raise ValueError("X block still rank-deficient after Hadamard pass "
                             "(stabilizer rows are dependent)")
    if np.any(pivrow < 0):
        raise ValueError("stabilizer matrix is rank-deficient")

    adj: dict[int, set[int]] = {v: set() for v in range(k)}
    s_cols, z_cols = set(), set()
    one = np.uint64(1)
    for v in range(k):
        r = int(pivrow[v])
        w, b = v >> 6, np.uint64(v & 63)
        if (zm[r, w] >> b) & one:
            zm[r, w] ^= one << b
            sg[r] ^= 1
            s_cols.add(v)
        if sg[r]:
            z_cols.add(v)
            sg[r] = 0
        adj[v] = {int(u) for u in kern.bits_of(zm[r])}
    for v in range(k):
        for u in adj[v]:
            if v not in adj[u] or u == v:
                raise AssertionError("extracted adjacency is not a simple symmetric graph")

    ops: dict[int, cliffords.Clifford1] = {}
    for v in range(k):
        el = REDUCTION_OPS[(v in h_cols, v in s_cols, v in z_cols)]
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


def restricted_stab_graph(t: StabilizerTableau, keep_cols: list[int],
                          gen_rows: dict[int, int]) -> tuple[dict, dict]:
    """Graph form of the state restricted to ``keep_cols``.

    The kept marginal must be pure (each dropped qubit disentangled from the
    kept set).  Measured qubits come with their single-qubit generator
    row-bit in ``gen_rows``.  Other dropped columns are retired per-column:

    * one supporting row: exclude it, nothing else references the column;
    * several rows sharing one Pauli letter: multiply all but one by the
      virtual generator sigma*P_q (sign from the pristine group), which is a
      single-column rewrite, then exclude the pivot.  The pivot is a row of
      the product that forms sigma*P_q, so the rewritten rows stay
      independent;
    * mixed letters (a dropped factor entangled within itself): exclude
      every supporting row outright.

    Surviving rows are independent group members with no dropped support;
    finding exactly len(keep_cols) of them certifies the restriction, so any
    presentation this scheme cannot untangle fails loudly rather than
    returning a wrong graph.
    """
    keep_set = set(keep_cols)
    nwords = t.rs.shape[0]
    one = np.uint64(1)
    excl_mask = np.zeros(nwords, np.uint64)

    def exclude(bit: int) -> None:
        excl_mask[bit >> 6] |= one << np.uint64(bit & 63)

    def letter_at(q: int, bit: int) -> tuple[bool, bool]:
        w, b = bit >> 6, np.uint64(bit & 63)
        return bool((t.xs[q, w] >> b) & one), bool((t.zs[q, w] >> b) & one)

    dropped = [q for q in range(t.n) if q not in keep_set and q not in gen_rows]
    for q in gen_rows:
        if q in keep_set:
            raise ValueError(f"qubit {q} is both kept and marked as measured")

    # Virtual generator signs, and the supporting rows whose product forms
    # the generator, must come from the intact tableau: the cleanup below
    # rewrites stabilizer rows without fixing destabilizers, which
    # expectation() relies on.
    virtual_sign: dict[int, int] = {}
    factors: dict[int, np.ndarray] = {}
    for q in dropped:
        support = (t.xs[q] | t.zs[q]) & kern.ODD_MASK
        bits = kern.bits_of(support)
        if bits.size < 2:
            continue
        first = letter_at(q, int(bits[0]))
        if all(letter_at(q, int(b)) == first for b in bits[1:]):
            px, pz = first
            basis = Basis.Y if (px and pz) else (Basis.X if px else Basis.Z)
            virtual_sign[q] = t.expectation(PauliString.single(t.n, q, basis))
            # Stabilizer i is a factor iff destabilizer i anticommutes with P_q.
            parity = (t.zs[q] if px else 0) ^ (t.xs[q] if pz else 0)
            factors[q] = kern.bits_of(((parity & kern.EVEN_MASK) << one) & support)

    for q, p in gen_rows.items():
        t._clean_stab_column(q, p)
        exclude(p)

    for q in dropped:
        support = (t.xs[q] | t.zs[q]) & kern.ODD_MASK & ~excl_mask
        bits = kern.bits_of(support)
        if bits.size == 0:
            continue
        letters = {letter_at(q, int(b)) for b in bits}
        if len(letters) > 1 or q not in virtual_sign and bits.size > 1:
            # mixed letters, or letters homogenized only by prior exclusions:
            # retire the column by excluding every supporting row.
            for b in bits:
                exclude(int(b))
            continue
        # The pivot must be a factor of the virtual generator (one of the
        # rows whose product is sigma*P_q).  Cleaning a factor against the
        # generator leaves the product of the other factors, so the rows
        # would lose a dimension; a bare generator (support exactly {q}) is
        # annihilated outright.  Windows cannot pick such rows out: they only
        # bound the support, and a later C-phase widens a bare row's window.
        h0 = next((int(b) for b in bits if b in factors.get(q, ())), int(bits[0]))
        if bits.size > 1:
            px, pz = letter_at(q, h0)
            mask = support.copy()
            mask[h0 >> 6] &= ~(one << np.uint64(h0 & 63))
            if px:
                t.xs[q] ^= mask
            if pz:
                t.zs[q] ^= mask
            if virtual_sign[q] == -1:
                t.rs ^= mask
        exclude(h0)

    colmap = np.full(t.n, -1, np.int32)
    for pos, q in enumerate(keep_cols):
        colmap[q] = pos
    k = len(keep_cols)
    all_stabs = np.arange(1, 2 * t.n, 2, dtype=np.int64)
    rows = np.array([b for b in all_stabs
                     if not (excl_mask[b >> 6] >> np.uint64(b & 63)) & one], np.int64)
    xm, zm, sg, rlo, rhi = t._extract(rows, colmap, k)
    keep_rows = [i for i in range(rows.size) if rhi[i] > rlo[i]]
    if len(keep_rows) != k:
        raise ValueError(
            f"cannot restrict to {k} qubits: found {len(keep_rows)} clean "
            "stabilizer rows (kept marginal impure, or a presentation this "
            "restriction cannot untangle)")
    idx = np.array(keep_rows, np.int64)
    return graph_from_stab_matrix(
        np.ascontiguousarray(xm[idx]), np.ascontiguousarray(zm[idx]),
        sg[idx], rlo[idx].copy(), rhi[idx].copy())


def new_plus_state(n: int) -> StabilizerTableau:
    """Tableau for |+>^n: stabilizers {X_i}, destabilizers {Z_i}."""
    if n < 1:
        raise ValueError("qubit count must be >= 1")
    t = StabilizerTableau(n)
    t._init_plus()
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
    t = StabilizerTableau(n)
    one = np.uint64(1)
    for v in ids:
        i = index[v]
        sb, db = 2 * i + 1, 2 * i
        t.xs[i, sb >> 6] |= one << np.uint64(sb & 63)
        t.zs[i, db >> 6] |= one << np.uint64(db & 63)
        cols = [i] + [index[u] for u in g.neighbors(v)]
        for u in g.neighbors(v):
            j = index[u]
            t.zs[j, sb >> 6] |= one << np.uint64(sb & 63)
        t.lo[sb], t.hi[sb] = min(cols), max(cols) + 1
        t.lo[db], t.hi[db] = i, i + 1
    for v in ids:
        op = g.op(v)
        if not op.is_identity():
            t.apply_clifford1(op, index[v])
    return t


def same_stabilizer_group(a: StabilizerTableau, b: StabilizerTableau) -> bool:
    """True iff both tableaux stabilize the same state (signs included)."""
    if a.n != b.n:
        return False
    return all(b.expectation(row) == 1 for row in a.stabilizer_rows())


def tableau_from_stabilizers(gens: list[PauliString]) -> StabilizerTableau:
    """Build a full tableau from n commuting independent +-1 generators.

    Destabilizers are completed by solving the symplectic pairing conditions
    over GF(2); their signs are set to +.  Desk-scale helper (used by the
    dense-backend reconstruction), not tuned for large n.
    """
    n = gens[0].n
    if len(gens) != n:
        raise ValueError(f"need exactly {n} generators, got {len(gens)}")
    for g in gens:
        if g.n != n:
            raise ValueError("generator size mismatch")
        if g.phase_exp & 1:
            raise ValueError("generators must have +-1 phase")
    # Symplectic product matrix rows for the constraint systems.
    svecs = [np.concatenate([g.x, g.z]) for g in gens]

    def sprod(a_xz, b_xz):
        ax, az = a_xz[:n], a_xz[n:]
        bx, bz = b_xz[:n], b_xz[n:]
        return int(np.sum(ax & bz) + np.sum(az & bx)) & 1

    destab_vecs: list[np.ndarray] = []
    for i in range(n):
        # Unknown d (2n bits): <d, stab_j> = delta_ij, <d, destab_j> = 0 (j<i).
        rows, rhs = [], []
        for j, sv in enumerate(svecs):
            rows.append(np.concatenate([sv[n:], sv[:n]]))  # symplectic pairing
            rhs.append(1 if j == i else 0)
        for dv in destab_vecs:
            rows.append(np.concatenate([dv[n:], dv[:n]]))
            rhs.append(0)
        sol = _solve_gf2(np.array(rows, np.uint8), np.array(rhs, np.uint8))
        if sol is None:
            raise ValueError("generators are dependent or non-commuting")
        destab_vecs.append(sol)
    for i, dv in enumerate(destab_vecs):
        for j, sv in enumerate(svecs):
            if sprod(dv, sv) != (1 if i == j else 0):
                raise AssertionError("destabilizer completion failed")

    t = StabilizerTableau(n)
    one = np.uint64(1)
    for i in range(n):
        sb, db = 2 * i + 1, 2 * i
        for vec, bit in ((svecs[i], sb), (destab_vecs[i], db)):
            x, z = vec[:n], vec[n:]
            sup = np.flatnonzero(x | z)
            if sup.size == 0:
                raise ValueError("identity generator")
            for c in sup:
                c = int(c)
                if x[c]:
                    t.xs[c, bit >> 6] |= one << np.uint64(bit & 63)
                if z[c]:
                    t.zs[c, bit >> 6] |= one << np.uint64(bit & 63)
            t.lo[bit], t.hi[bit] = int(sup[0]), int(sup[-1]) + 1
        if gens[i].phase_exp == 2:
            t.rs[sb >> 6] |= one << np.uint64(sb & 63)
    return t


def _solve_gf2(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """One solution of A x = b over GF(2), or None."""
    a = a.copy() % 2
    b = b.copy() % 2
    rows, cols = a.shape
    pivot_col_of_row = []
    r = 0
    for c in range(cols):
        pivots = [i for i in range(r, rows) if a[i, c]]
        if not pivots:
            continue
        p = pivots[0]
        a[[r, p]] = a[[p, r]]
        b[[r, p]] = b[[p, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
                b[i] ^= b[r]
        pivot_col_of_row.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if b[i]:
            return None
    x = np.zeros(cols, np.uint8)
    for i, c in enumerate(pivot_col_of_row):
        x[c] = b[i]
    return x
