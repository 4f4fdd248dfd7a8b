"""Dense two-spin validation of the composite conditional-phase gate.

One donor electron/nuclear pair is a 4-dimensional system with an isotropic
hyperfine coupling of about 2*pi*120 MHz.  The entangling gate is a pi
Z-rotation of the electron selective on the nuclear state, realized by the
composite rotation (pi/2)_x (theta)_y (pi/2)_-x applied on one hyperfine
line.  This module integrates that sequence exactly (matrix exponentials of
piecewise-constant Hamiltonians via eigendecomposition) in both the
ideal-instantaneous limit and with finite-amplitude pulses, and scores the
result against CPhase(theta) with a fidelity that is maximized over local Z
phases, since the architecture absorbs those into the Pauli frame.

Basis ordering: |e n> with index 2e + n, e = 0 the upper electron state.
All frequencies are angular (rad/s); CSV output reports Rabi in Hz.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi
DEFAULT_HYPERFINE = TWO_PI * 120e6  # isotropic A of Si:P
DEFAULT_RABI = TWO_PI * 25e6  # reproduces the 40 ns composite pi gate

_SX = 0.5 * np.array([[0, 1], [1, 0]], complex)
_SY = 0.5 * np.array([[0, -1j], [1j, 0]], complex)
_SZ = 0.5 * np.array([[1, 0], [0, -1]], complex)
_I2 = np.eye(2, dtype=complex)

UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class TwoSpinSystem:
    """Electron-nuclear pair in a doubly rotating frame.

    a_hyperfine: isotropic coupling A (> 0).
    delta_e / delta_n: spin offsets from their carriers.
    secular: keep only A Sz Iz; otherwise the full A S.I is integrated (the
    flip-flop part is static in a common frame, so a large delta_n emulates
    the high-field Zeeman mismatch that suppresses it).
    """

    a_hyperfine: float = DEFAULT_HYPERFINE
    delta_e: float = 0.0
    delta_n: float = 0.0
    secular: bool = True

    def __post_init__(self):
        if not np.isfinite(self.a_hyperfine) or self.a_hyperfine <= 0:
            raise ValueError("hyperfine coupling must be positive and finite")
        if not (np.isfinite(self.delta_e) and np.isfinite(self.delta_n)):
            raise ValueError("detunings must be finite")

    @classmethod
    def resonant_electron(cls, a_hyperfine: float = DEFAULT_HYPERFINE,
                          secular: bool = True, delta_n: float = 0.0) -> "TwoSpinSystem":
        """Carrier on the nuclear-spin-up hyperfine line (delta_e = -A/2)."""
        return cls(a_hyperfine, -0.5 * a_hyperfine, delta_n, secular)

    def h0(self) -> np.ndarray:
        h = (self.delta_e * np.kron(_SZ, _I2)
             + self.delta_n * np.kron(_I2, _SZ)
             + self.a_hyperfine * np.kron(_SZ, _SZ))
        if not self.secular:
            h = h + self.a_hyperfine * (np.kron(_SX, _SX) + np.kron(_SY, _SY))
        return h

    def electron_detuning(self, n_index: int) -> float:
        """Drive detuning of the electron line conditioned on nuclear state."""
        sn = 0.5 if n_index == 0 else -0.5
        return self.delta_e + self.a_hyperfine * sn

    def nuclear_detuning(self, e_index: int) -> float:
        se = 0.5 if e_index == 0 else -0.5
        return self.delta_n + self.a_hyperfine * se


@dataclass(frozen=True)
class Pulse:
    """One resonant pulse; rabi=None marks the ideal instantaneous limit."""

    channel: str  # "electron" | "nuclear"
    phase: float  # axis in the xy plane; x = 0, y = pi/2
    angle: float  # nominal rotation angle, >= 0
    rabi: float | None = None  # angular Rabi frequency for finite pulses

    def __post_init__(self):
        if self.channel not in ("electron", "nuclear"):
            raise ValueError(f"bad channel {self.channel!r}")
        if not (np.isfinite(self.phase) and np.isfinite(self.angle)):
            raise ValueError("pulse phase and angle must be finite")
        if self.angle < 0:
            raise ValueError("nominal angle must be >= 0")
        if self.rabi is not None and not (np.isfinite(self.rabi) and self.rabi > 0):
            raise ValueError("finite pulses need a finite rabi > 0")

    @property
    def duration(self) -> float:
        return 0.0 if self.rabi is None else self.angle / self.rabi


@dataclass(frozen=True)
class Delay:
    duration: float

    def __post_init__(self):
        if not (np.isfinite(self.duration) and self.duration >= 0):
            raise ValueError("delay must be finite and >= 0")


@dataclass(frozen=True)
class CompositeSequence:
    items: tuple = field(default_factory=tuple)

    def __init__(self, items=()):
        object.__setattr__(self, "items", tuple(items))

    @property
    def total_duration(self) -> float:
        return sum(it.duration for it in self.items)

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


def _check_theta(theta: float) -> None:
    if not 0.0 <= theta <= TWO_PI:
        raise ValueError("theta must lie in [0, 2*pi]")


def composite_cphase(theta: float, rabi: float | None = None) -> CompositeSequence:
    """The (pi/2)_x (theta)_y (pi/2)_-x electron sequence for CPhase(theta).

    With rabi=None the pulses are instantaneous and selective; a finite
    angular Rabi frequency gives real pulses whose selectivity comes from
    the hyperfine detuning of the other nuclear manifold.  At theta = pi and
    rabi = 2*pi*25 MHz the total duration is the 40 ns gate time.
    """
    _check_theta(theta)
    return CompositeSequence([
        Pulse("electron", 0.0, np.pi / 2, rabi),
        Pulse("electron", np.pi / 2, theta, rabi),
        Pulse("electron", np.pi, np.pi / 2, rabi),
    ])


def _expm_hermitian(vals: np.ndarray, vecs: np.ndarray, t) -> np.ndarray:
    """exp(-i H t) from eigh(H) = (vals, vecs), stacked over the leading axes.

    ``t`` broadcasts against ``vals``: shape (K, 1) against one (4,) spectrum
    gives K propagators of one Hamiltonian.
    """
    phases = np.exp(-1j * vals * t)
    return (vecs * phases[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _instantaneous_ops(sys: TwoSpinSystem, pulse: Pulse, angles: np.ndarray) -> np.ndarray:
    axis = np.cos(pulse.phase) * 2 * _SX + np.sin(pulse.phase) * 2 * _SY
    rot = _expm_hermitian(*np.linalg.eigh((0.5 * angles)[:, None, None] * axis), 1.0)
    tol = 1e-9 * sys.a_hyperfine
    u = np.tile(np.eye(4, dtype=complex), (len(angles), 1, 1))
    if pulse.channel == "electron":
        sels = [[n, 2 + n] for n in range(2) if abs(sys.electron_detuning(n)) <= tol]
    else:
        sels = [[2 * e, 2 * e + 1] for e in range(2) if abs(sys.nuclear_detuning(e)) <= tol]
    if not sels:
        raise ValueError("instantaneous pulse addresses no resonant manifold")
    for sel in sels:
        u[(slice(None),) + np.ix_(sel, sel)] = rot
    return u


def _segments(sys: TwoSpinSystem, h0: np.ndarray, item, eigs: dict,
              angles=None) -> np.ndarray:
    """Propagators of one sequence item, stacked (K, 4, 4).

    A pulse is evaluated at each nominal angle in ``angles`` (default: its
    own); a delay gives one propagator.  ``eigs`` maps each drive (channel,
    phase, rabi) to the eigendecomposition of its Hamiltonian, so a drive
    shared by several items or angles is diagonalized once per dict.
    """
    if isinstance(item, Delay):
        if "delay" not in eigs:
            eigs["delay"] = np.linalg.eigh(h0)
        return _expm_hermitian(*eigs["delay"], np.array([[item.duration]]))
    if not isinstance(item, Pulse):
        raise TypeError(f"bad sequence item {item!r}")
    angles = np.array([item.angle] if angles is None else angles, dtype=float)
    if item.rabi is None:
        return _instantaneous_ops(sys, item, angles)
    key = (item.channel, item.phase, item.rabi)
    if key not in eigs:
        axis = np.cos(item.phase) * _SX + np.sin(item.phase) * _SY
        drive = np.kron(axis, _I2) if item.channel == "electron" else np.kron(_I2, axis)
        eigs[key] = np.linalg.eigh(h0 + item.rabi * drive)
    return _expm_hermitian(*eigs[key], (angles / item.rabi)[:, None])


def _chain(segments) -> np.ndarray:
    """Time-ordered product of stacked segments; every product is checked for unitarity."""
    u = np.eye(4, dtype=complex)[None]
    for seg in segments:
        u = seg @ u
    defect = np.linalg.norm(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(4), axis=(-2, -1))
    bad = ~(defect <= UNITARITY_TOL)
    if bad.any():
        raise AssertionError(f"propagator unitarity defect {defect[bad][0]:.2e}")
    return u


def propagator(sys: TwoSpinSystem, seq: CompositeSequence) -> np.ndarray:
    """Time-ordered propagator of the sequence, exact per constant segment."""
    h0 = sys.h0()
    eigs: dict = {}
    return _chain([_segments(sys, h0, item, eigs) for item in seq])[0]


def cphase_target(theta: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(complex)


def gate_fidelity(u: np.ndarray, theta: float) -> float:
    """Trace fidelity against CPhase(theta), maximized over local Z phases.

    F = max_{phi_e, phi_n, global} |Tr[(Z_e Z_n CPhase)^dag U]| / 4.  The
    maximization reduces to a single phase: Tr = (d00 + d10 x) +
    (d01 + d11 e^{-i theta} x) y with |x| = |y| = 1, and the optimum over y
    is the sum of magnitudes.  The remaining 1-D problem is solved by a
    dense scan plus golden-section refinement (accurate to ~1e-12).
    """
    u = np.asarray(u, complex)
    if u.shape != (4, 4):
        raise ValueError("need a 4x4 matrix")
    if not np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-8:
        raise ValueError("input is not unitary")
    return float(_fidelities(u[None], np.array([theta], dtype=float))[0])


def _mul(ar, ai, br, bi):
    """Complex product in real arithmetic, rounded as numpy's complex scalars round."""
    return ar * br - ai * bi, ar * bi + ai * br


_SCAN_POINTS = 2048
_SCAN_BLOCK = 8  # rows per dense-scan block


def _fidelities(us: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """gate_fidelity of each (4, 4) ``us[k]`` against ``thetas[k]``.

    The dense scan runs in blocks of rows; the golden-section refinement
    runs on all rows at once, each row taking its own branch.  The
    refinement's complex products and magnitudes are written in real
    arithmetic (``np.hypot`` for the magnitudes), which rounds exactly as
    the scalar one-point search does.
    """
    d = np.diagonal(us, axis1=1, axis2=2)
    # Tr = (c0[0] + c1[0] x) + (c0[1] + c1[1] x) y with c1[1] = d11 e^{-i theta}:
    # one row per term, one column per matrix.
    c0 = np.stack([d[:, 0], d[:, 1]])
    c1 = np.stack([d[:, 2], d[:, 3]])
    e = np.exp(-1j * thetas)
    c1[1].real, c1[1].imag = _mul(d[:, 3].real, d[:, 3].imag, e.real, e.imag)
    c0r, c0i, c1r, c1i = c0.real, c0.imag, c1.real, c1.imag

    ts = np.linspace(0.0, TWO_PI, _SCAN_POINTS, endpoint=False)
    xs = np.exp(1j * ts)
    best = np.empty(len(us), dtype=np.intp)
    vbest = np.empty(len(us))
    # One set of scan buffers per call: fresh temporaries in every block are
    # large enough to be mapped from the OS and page-faulted in each time.
    nbuf = min(len(us), _SCAN_BLOCK)
    zbuf = np.empty((2, nbuf, _SCAN_POINTS), complex)
    mbuf = np.empty((2, nbuf, _SCAN_POINTS))
    for k in range(0, len(us), _SCAN_BLOCK):
        n = min(_SCAN_BLOCK, len(us) - k)
        blk = slice(k, k + n)
        z, m = zbuf[:, :n], mbuf[:, :n]
        np.abs(np.add(c0[:, blk, None], np.multiply(c1[:, blk, None], xs, out=z), out=z), out=m)
        vals = np.add(m[0], m[1], out=m[0])
        best[blk] = np.argmax(vals, axis=1)
        vbest[blk] = vals[np.arange(n), best[blk]]

    def score(t: np.ndarray) -> np.ndarray:
        x = np.exp(1j * t)
        re, im = _mul(c1r, c1i, x.real, x.imag)
        h = np.hypot(c0r + re, c0i + im)
        return h[0] + h[1]

    lo = ts[best] - TWO_PI / _SCAN_POINTS
    hi = ts[best] + TWO_PI / _SCAN_POINTS
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = score(x1), score(x2)
    for _ in range(90):
        # Where f1 < f2 the bracket keeps [x1, hi] and probes a new x2;
        # elsewhere it keeps [lo, x2] and probes a new x1.
        up = f1 < f2
        lo = np.where(up, x1, lo)
        hi = np.where(up, hi, x2)
        step = phi * (hi - lo)
        t = np.where(up, lo + step, hi - step)
        f = score(t)
        x1, x2 = np.where(up, x2, t), np.where(up, t, x1)
        f1, f2 = np.where(up, f2, f), np.where(up, f, f1)
    return np.maximum(np.maximum(f1, f2), vbest) / 4.0


def fidelity_sweep(thetas, rabis, system: TwoSpinSystem | None = None) -> list[dict]:
    """Fidelity/duration table over a (theta, rabi) grid.

    ``rabis`` entries are angular Rabi frequencies; None means the
    instantaneous limit.  Rows come out theta-major in input order and
    equal, bit for bit, ``gate_fidelity(propagator(system, seq), theta)``
    and ``seq.total_duration`` of ``seq = composite_cphase(theta, rabi)``.
    ``h0`` is built once, each drive is diagonalized once, and the theta
    pulse of one rabi is evaluated for every theta as one stack.
    """
    th = np.array(list(thetas), dtype=float)
    rabis = list(rabis)
    if not len(th) or not rabis:
        raise ValueError("sweep grids must be non-empty")
    for theta in th:
        _check_theta(theta)
    if system is None:
        system = TwoSpinSystem.resonant_electron()
    h0 = system.h0()
    eigs: dict = {}
    us = np.empty((len(th), len(rabis), 4, 4), complex)
    durations = np.empty((len(th), len(rabis)))
    for j, rabi in enumerate(rabis):
        # The middle pulse is evaluated at every theta, not at its own angle.
        first, middle, last = composite_cphase(0.0, rabi)
        us[:, j] = _chain([_segments(system, h0, first, eigs),
                           _segments(system, h0, middle, eigs, th),
                           _segments(system, h0, last, eigs)])
        theta_s = np.zeros_like(th) if rabi is None else th / rabi
        durations[:, j] = (first.duration + theta_s) + last.duration
    fid = _fidelities(us.reshape(-1, 4, 4), np.repeat(th, len(rabis)))
    fid = fid.reshape(len(th), len(rabis)).tolist()
    durations = durations.tolist()
    omega1_hz = [float("inf") if rabi is None else float(rabi / TWO_PI) for rabi in rabis]
    return [{"theta": float(theta), "omega1_hz": omega1_hz[j],
             "fidelity": fid[i][j], "duration_s": durations[i][j]}
            for i, theta in enumerate(th) for j in range(len(rabis))]


def sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write("theta,omega1_hz,fidelity,duration_s\n")
    for r in rows:
        buf.write(f"{r['theta']!r},{r['omega1_hz']!r},{r['fidelity']!r},{r['duration_s']!r}\n")
    return buf.getvalue()


def selectivity_trend(rows: list[dict]) -> str:
    """One-line summary of how fidelity moves with drive strength.

    Compares, per theta, the weakest against the strongest finite drive.
    """
    by_theta: dict[float, list] = {}
    for r in rows:
        if np.isfinite(r["omega1_hz"]):
            by_theta.setdefault(r["theta"], []).append((r["omega1_hz"], r["fidelity"]))
    verdicts = []
    for theta, pts in by_theta.items():
        if len(pts) < 2:
            continue
        pts.sort()
        verdicts.append(pts[0][1] >= pts[-1][1])
    if not verdicts:
        return "selectivity trend needs >= 2 finite drive strengths per theta"
    if all(verdicts):
        return "fidelity improves as omega1 decreases (selective limit)"
    return "fidelity does not improve monotonically toward weak drive on this grid"
