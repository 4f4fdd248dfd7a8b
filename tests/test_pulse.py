"""Composite conditional-phase gate on the two-spin system."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicluster import pulse
from sicluster.pulse import (
    DEFAULT_HYPERFINE,
    DEFAULT_RABI,
    TWO_PI,
    CompositeSequence,
    Delay,
    Pulse,
    TwoSpinSystem,
    composite_cphase,
    cphase_target,
    fidelity_sweep,
    gate_fidelity,
    propagator,
    selectivity_trend,
    sweep_csv,
)

# Regression constant: finite-amplitude composite at theta=pi at the 40 ns
# operating point (omega1 = 2pi*25 MHz, A = 2pi*120 MHz).  No reference
# value exists; computed once by this integrator and frozen.
PINNED_FINITE_FIDELITY = 0.9853403777353125

SYS0 = TwoSpinSystem.resonant_electron()


class TestPropagator:
    def test_empty_sequence_identity(self):
        u = propagator(SYS0, CompositeSequence([]))
        assert np.allclose(u, np.eye(4), atol=1e-12)

    def test_instantaneous_pi_is_selective_x(self):
        u = propagator(SYS0, CompositeSequence([Pulse("electron", 0.0, np.pi)]))
        # resonant (nuclear-up) manifold flips; the other is untouched
        expect = np.eye(4, dtype=complex)
        expect[0, 0] = expect[2, 2] = 0
        expect[0, 2] = expect[2, 0] = -1j
        assert np.allclose(u, expect, atol=1e-12)

    def test_unitary_for_random_finite_sequences(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            items = []
            for _ in range(int(rng.integers(1, 5))):
                if rng.random() < 0.3:
                    items.append(Delay(float(rng.uniform(0, 50e-9))))
                else:
                    items.append(Pulse("electron" if rng.random() < 0.7 else "nuclear",
                                       float(rng.uniform(0, TWO_PI)),
                                       float(rng.uniform(0, np.pi)),
                                       float(TWO_PI * rng.uniform(1e6, 50e6))))
            u = propagator(SYS0, CompositeSequence(items))
            assert np.linalg.norm(u.conj().T @ u - np.eye(4)) < 1e-10

    def test_nan_propagator_rejected(self):
        # exp(-i H t) overflows to NaN at this delay; the guard must not let
        # a NaN defect through as "unitary".
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(AssertionError, match="unitarity defect nan"):
            propagator(SYS0, CompositeSequence([Delay(1e305)]))

    def test_detuned_instantaneous_pulse_rejected(self):
        sys_off = TwoSpinSystem(DEFAULT_HYPERFINE, delta_e=DEFAULT_HYPERFINE)
        with pytest.raises(ValueError):
            propagator(sys_off, CompositeSequence([Pulse("electron", 0.0, np.pi)]))


class TestCompositeGate:
    def test_theta_zero_is_identity(self):
        u = propagator(SYS0, composite_cphase(0.0))
        assert gate_fidelity(u, 0.0) > 1 - 1e-12
        assert np.allclose(np.abs(np.diagonal(u)), 1, atol=1e-12)

    def test_instantaneous_limit_20_random_thetas(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(0, TWO_PI, 20):
            u = propagator(SYS0, composite_cphase(float(theta)))
            assert gate_fidelity(u, float(theta)) > 1 - 1e-10

    def test_conditional_z_closed_form(self):
        # (pi/2)_x (theta)_y (pi/2)_-x == R_z(-theta) on the driven manifold.
        theta = 0.7337
        u = propagator(SYS0, composite_cphase(theta))
        expect = np.diag([np.exp(0.5j * theta), 1.0, np.exp(-0.5j * theta), 1.0])
        assert np.allclose(u, expect, atol=1e-10)

    def test_forty_ns_gate_time(self):
        seq = composite_cphase(np.pi, DEFAULT_RABI)
        assert seq.total_duration == pytest.approx(40e-9, rel=1e-12)

    def test_finite_fidelity_regression(self):
        u = propagator(SYS0, composite_cphase(np.pi, DEFAULT_RABI))
        assert gate_fidelity(u, np.pi) == pytest.approx(PINNED_FINITE_FIDELITY, abs=1e-9)

    def test_selective_limit(self):
        f = []
        for scale in (1.0, 0.1, 0.01):
            u = propagator(SYS0, composite_cphase(np.pi, DEFAULT_RABI * scale))
            f.append(gate_fidelity(u, np.pi))
        assert f[0] < f[1] < f[2]
        assert f[2] > 1 - 1e-4

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            composite_cphase(-0.5)


class TestFidelityMetric:
    def test_exact_target_scores_one(self):
        for theta in (0.0, 0.3, np.pi, 5.0):
            assert gate_fidelity(cphase_target(theta), theta) > 1 - 1e-12

    def test_invariant_under_global_phase_and_local_z(self):
        theta = 1.1
        u = propagator(SYS0, composite_cphase(theta, DEFAULT_RABI))
        base = gate_fidelity(u, theta)
        assert gate_fidelity(np.exp(0.4j) * u, theta) == pytest.approx(base, abs=1e-9)
        ze = np.diag([1, 1, np.exp(0.9j), np.exp(0.9j)])
        zn = np.diag([1, np.exp(-0.2j), 1, np.exp(-0.2j)])
        assert gate_fidelity(ze @ zn @ u, theta) == pytest.approx(base, abs=1e-9)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.ones((4, 4)), 0.0)

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            gate_fidelity(np.full((4, 4), np.nan), 0.0)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            gate_fidelity(np.eye(2), 0.0)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pulse(self, bad):
        for kwargs in ({"phase": bad}, {"angle": bad}, {"rabi": bad}):
            args = {"channel": "electron", "phase": 0.0, "angle": np.pi, "rabi": DEFAULT_RABI}
            with pytest.raises(ValueError):
                Pulse(**{**args, **kwargs})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_system(self, bad):
        for kwargs in ({"a_hyperfine": bad}, {"delta_e": bad}, {"delta_n": bad}):
            with pytest.raises(ValueError):
                TwoSpinSystem(**kwargs)
        with pytest.raises(ValueError):
            TwoSpinSystem.resonant_electron(a_hyperfine=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_delay(self, bad):
        with pytest.raises(ValueError):
            Delay(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-9])
    def test_sweep(self, bad):
        with pytest.raises(ValueError):
            fidelity_sweep([np.pi], [bad])
        with pytest.raises(ValueError):
            fidelity_sweep([bad], [None])


class TestFrameConsistency:
    def test_secular_vs_isotropic_high_field(self):
        # Emulate A << electron Zeeman: the flip-flop term is static in a
        # common rotating frame with the full Zeeman mismatch W on the
        # nuclear offset; the fidelity metric absorbs the frame Z rotations.
        w_mismatch = TWO_PI * 5e13
        seq = composite_cphase(np.pi, DEFAULT_RABI)
        f_sec = gate_fidelity(propagator(SYS0, seq), np.pi)
        iso = TwoSpinSystem(DEFAULT_HYPERFINE, -0.5 * DEFAULT_HYPERFINE,
                            -w_mismatch, secular=False)
        f_iso = gate_fidelity(propagator(iso, seq), np.pi)
        assert abs(f_sec - f_iso) < 1e-6


class TestSweep:
    def test_rows_and_csv(self):
        rows = fidelity_sweep([np.pi], [None, DEFAULT_RABI])
        assert rows[0]["omega1_hz"] == float("inf")
        assert rows[0]["fidelity"] > 1 - 1e-10
        assert rows[0]["duration_s"] == 0.0
        assert rows[1]["omega1_hz"] == pytest.approx(25e6)
        assert rows[1]["duration_s"] == pytest.approx(40e-9, rel=1e-12)
        csv = sweep_csv(rows)
        lines = csv.strip().split("\n")
        assert lines[0] == "theta,omega1_hz,fidelity,duration_s"
        assert len(lines) == 3
        assert "inf" in lines[1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fidelity_sweep([], [None])

    def test_trend_summary(self):
        rows = fidelity_sweep([np.pi], [DEFAULT_RABI, DEFAULT_RABI * 0.05])
        assert "improves" in selectivity_trend(rows)


# -- reference: the per-point arithmetic the sweep must reproduce bit for bit ------
#
# A frozen copy of the one-point path as it stood before the sweep was
# batched: one eigendecomposition per segment and a scalar golden-section
# search.  fidelity_sweep's rows must equal these with ==.


def _ref_expm_hermitian(h, t):
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T


def _ref_instantaneous_op(sys, p):
    axis = np.cos(p.phase) * 2 * pulse._SX + np.sin(p.phase) * 2 * pulse._SY
    rot = _ref_expm_hermitian(0.5 * p.angle * axis, 1.0)
    tol = 1e-9 * sys.a_hyperfine
    u = np.eye(4, dtype=complex)
    addressed = 0
    if p.channel == "electron":
        for n in range(2):
            if abs(sys.electron_detuning(n)) <= tol:
                sel = [n, 2 + n]
                u[np.ix_(sel, sel)] = rot
                addressed += 1
    else:
        for e in range(2):
            if abs(sys.nuclear_detuning(e)) <= tol:
                sel = [2 * e, 2 * e + 1]
                u[np.ix_(sel, sel)] = rot
                addressed += 1
    if addressed == 0:
        raise ValueError("instantaneous pulse addresses no resonant manifold")
    return u


def _ref_propagator(sys, seq):
    sx, sy, i2 = pulse._SX, pulse._SY, pulse._I2
    u = np.eye(4, dtype=complex)
    h0 = sys.h0()
    for item in seq:
        if isinstance(item, Delay):
            seg = _ref_expm_hermitian(h0, item.duration)
        elif item.rabi is None:
            seg = _ref_instantaneous_op(sys, item)
        else:
            if item.channel == "electron":
                drive = np.kron(np.cos(item.phase) * sx + np.sin(item.phase) * sy, i2)
            else:
                drive = np.kron(i2, np.cos(item.phase) * sx + np.sin(item.phase) * sy)
            seg = _ref_expm_hermitian(h0 + item.rabi * drive, item.duration)
        u = seg @ u
    return u


def _ref_gate_fidelity(u, theta):
    d = np.diagonal(u)
    a1, a2 = d[0], d[2]
    b1, b2 = d[1], d[3] * np.exp(-1j * theta)

    def score(t):
        x = np.exp(1j * t)
        return abs(a1 + a2 * x) + abs(b1 + b2 * x)

    ts = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
    xs = np.exp(1j * ts)
    vals = np.abs(a1 + a2 * xs) + np.abs(b1 + b2 * xs)
    best = int(np.argmax(vals))
    lo = ts[best] - TWO_PI / 2048
    hi = ts[best] + TWO_PI / 2048
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    f1, f2 = score(x1), score(x2)
    for _ in range(90):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + phi * (hi - lo)
            f2 = score(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - phi * (hi - lo)
            f1 = score(x1)
    return float(max(f1, f2, vals[best])) / 4.0


def _ref_sweep(thetas, rabis, system):
    rows = []
    for theta in thetas:
        for rabi in rabis:
            seq = composite_cphase(theta, rabi)
            rows.append({
                "theta": float(theta),
                "omega1_hz": float("inf") if rabi is None else float(rabi / TWO_PI),
                "fidelity": _ref_gate_fidelity(_ref_propagator(system, seq), theta),
                "duration_s": float(seq.total_duration),
            })
    return rows


@st.composite
def sweep_grids(draw):
    """theta grids with the endpoints and pi mixed in, rabi lists with the
    instantaneous limit and repeats, on default and non-default systems."""
    special = st.sampled_from([0.0, np.pi, TWO_PI])
    thetas = draw(st.lists(st.one_of(special, st.floats(0.0, TWO_PI)), min_size=1, max_size=6))
    rabi = st.one_of(st.none(), st.floats(1e5, 1e10).map(lambda hz: TWO_PI * hz))
    rabis = draw(st.lists(rabi, min_size=1, max_size=7))
    if draw(st.booleans()):
        rabis = rabis + draw(st.lists(st.sampled_from(rabis), min_size=1, max_size=3))
    system = TwoSpinSystem.resonant_electron(
        a_hyperfine=TWO_PI * draw(st.sampled_from([120e6, 30e6, 2e9])),
        secular=draw(st.booleans()),
        delta_n=draw(st.sampled_from([0.0, TWO_PI * 3e6, -TWO_PI * 5e13])))
    return thetas, rabis, system


class TestSweepBitIdentity:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(grid=sweep_grids())
    def test_rows_equal_per_point_path(self, grid):
        thetas, rabis, system = grid
        assert fidelity_sweep(thetas, rabis, system) == _ref_sweep(thetas, rabis, system)

    def test_grid_spanning_several_scoring_blocks(self):
        rng = np.random.default_rng(9)
        thetas = [0.0, np.pi, TWO_PI] + list(rng.uniform(0.0, TWO_PI, 9))
        rabis = [None, DEFAULT_RABI] + list(TWO_PI * rng.uniform(1e6, 4e8, 15))
        rows = fidelity_sweep(thetas, rabis)
        assert len(rows) > 2 * pulse._SCAN_BLOCK and len(rows) % pulse._SCAN_BLOCK
        assert rows == _ref_sweep(thetas, rabis, SYS0)

    def test_propagator_and_fidelity_equal_per_point_path(self):
        rng = np.random.default_rng(4)
        sys_iso = TwoSpinSystem.resonant_electron(secular=False, delta_n=TWO_PI * 2e6)
        for sys in (SYS0, sys_iso):
            for _ in range(20):
                items = []
                for _ in range(int(rng.integers(1, 6))):
                    if rng.random() < 0.3:
                        items.append(Delay(float(rng.uniform(0, 50e-9))))
                    else:
                        # a small phase set so that drives repeat within a sequence
                        items.append(Pulse("electron" if rng.random() < 0.7 else "nuclear",
                                           float(rng.choice([0.0, np.pi / 2, np.pi])),
                                           float(rng.uniform(0, np.pi)),
                                           float(TWO_PI * rng.choice([5e6, 25e6]))))
                seq = CompositeSequence(items)
                u = propagator(sys, seq)
                assert np.array_equal(u, _ref_propagator(sys, seq))
                theta = float(rng.uniform(0, TWO_PI))
                assert gate_fidelity(u, theta) == _ref_gate_fidelity(u, theta)
