"""Donor-lattice protocol: scripts, backends, predictor, frames."""

import itertools
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sicluster import lattice, statevec
from sicluster.graphsim import GraphSimulator
from sicluster.graphstate import export
from sicluster.lattice import (
    DonorLattice,
    GlobalCPhase,
    MeasureElectrons,
    PauliFrame,
    PrepareAllPlus,
    ProtocolError,
    ReprepareElectronsPlus,
    Shuttle,
    cool_and_prepare,
    dense_state_of,
    predicted_edge_set,
    run_protocol,
    square_lattice_protocol,
    standard_protocol,
)
from sicluster.noise import DefectModel, NoiseInjector, TimingModel, inject_noise
from sicluster.rng import substream
from sicluster.statevec import DenseRegister, SizeCapError, StateVector, stabilizer_matrix
from sicluster.tableau import Basis, StabilizerTableau

BACKENDS = ("stabilizer", "tableau", "statevector")
ENGINE_CLASSES = [("stabilizer", GraphSimulator), ("tableau", StabilizerTableau),
                  ("statevector", DenseRegister)]
SHAPES_UP_TO_11 = [(lx, ly) for lx in range(1, 12) for ly in range(1, 12) if lx * ly <= 11]
_PROTOCOLS = {"standard": standard_protocol, "square": square_lattice_protocol}


def spy_dense_widths(monkeypatch) -> list[int]:
    """Record the dense register's array width after every attachment (the
    only place the array grows)."""
    widths = []
    attach = DenseRegister._attach

    def spy_attach(reg, *qubits):
        attach(reg, *qubits)
        widths.append(reg.sv.n)

    monkeypatch.setattr(DenseRegister, "_attach", spy_attach)
    return widths


def run_noisy(lat, steps, dm, seed, backend):
    """``inject_noise`` with its coin generator kept: the result (or
    ("error", message)), the error log and the generator's final state."""
    injector = NoiseInjector(dm, TimingModel(), seed)
    rng = substream(seed, "measure")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            res = run_protocol(lat, steps, backend=backend, rng=rng, noise=injector)
        except ProtocolError as exc:
            res = ("error", str(exc))
    return res, injector.error_log, rng.bit_generator.state


def assert_noisy_runs_agree(runs, assert_results_agree):
    """``run_noisy`` triples agree: coins, error logs, and either every run
    failed or every result agrees."""
    (ref, ref_log, ref_state), *others = runs
    for res, log, state in others:
        assert state == ref_state, "backends drew different numbers of coins"
        assert log == ref_log
        if isinstance(ref, tuple) or isinstance(res, tuple):
            assert isinstance(ref, tuple) and isinstance(res, tuple), (ref, res)
        else:
            assert_results_agree(ref, res)


class TestScripts:
    def test_standard_structure(self):
        steps = standard_protocol()
        assert len(steps) == 7
        assert isinstance(steps[0], PrepareAllPlus) and steps[0].species == "both"
        assert sum(isinstance(s, GlobalCPhase) for s in steps) == 3
        shuttles = [s for s in steps if isinstance(s, Shuttle)]
        assert [s.direction for s in shuttles] == ["+x", "+y"]
        assert isinstance(steps[-1], MeasureElectrons)
        assert steps[-1].basis == Basis.Y

    def test_square_structure(self):
        steps = square_lattice_protocol()
        measures = [i for i, s in enumerate(steps) if isinstance(s, MeasureElectrons)]
        assert len(measures) == 2
        second_shuttle = [i for i, s in enumerate(steps)
                          if isinstance(s, Shuttle)][1]
        assert measures[0] < second_shuttle
        assert sum(isinstance(s, GlobalCPhase) for s in steps) == 4
        assert any(isinstance(s, ReprepareElectronsPlus) for s in steps)

    def test_bad_direction(self):
        with pytest.raises(ProtocolError):
            Shuttle("+q")


class TestLattice:
    def test_site_numbering(self):
        lat = DonorLattice(3, 2)
        assert lat.site_id(0, 0) == 0
        assert lat.site_id(2, 1) == 5
        assert lat.coords(3) == (1, 1)

    def test_dead_sites_hold_no_electron(self):
        lat = DonorLattice(2, 2, dead=[(0, 1)])
        electrons = lat.initial_electrons()
        assert lat.site_id(0, 1) not in electrons
        assert len(electrons) == 3

    def test_live_sites_ascend_with_electrons_at_odd_qubits(self):
        lat = DonorLattice(3, 4, dead=[(2, 3), (0, 0), (1, 2)])
        dead_ids = [lat.site_id(i, j) for i, j in lat.dead]
        want = [s for s in range(12) if s not in dead_ids]
        assert lat.live_sites().tolist() == want
        assert lat.initial_electrons() == {s: 2 * s + 1 for s in want}

    def test_bad_dims(self):
        with pytest.raises(ProtocolError):
            DonorLattice(0, 3)
        with pytest.raises(ProtocolError):
            DonorLattice(2, 2, dead=[(5, 5)])


class TestRunProtocol:
    def test_2x2_standard_triangle(self):
        lat = DonorLattice(2, 2)
        res = run_protocol(lat, standard_protocol(), rng=np.random.default_rng(7))
        assert set(res.graph.edges()) == {(0, 2), (0, 3), (2, 3)}
        assert res.graph.degree(1) == 0

    def test_1x1_single_vertex_no_edges(self):
        res = run_protocol(DonorLattice(1, 1), standard_protocol(),
                           rng=np.random.default_rng(0))
        assert res.graph.n == 1 and res.graph.edges() == []

    def test_zero_electron_lattice_all_plus(self):
        lat = DonorLattice(2, 2, dead=[(0, 0), (0, 1), (1, 0), (1, 1)])
        res = run_protocol(lat, standard_protocol(), rng=np.random.default_rng(0))
        assert res.graph.edges() == []
        assert not res.graph.vertex_ops
        assert res.frame == PauliFrame()
        assert len(res.outcomes) == 0

    def test_3x3_square_interior(self):
        lat = DonorLattice(3, 3)
        res = run_protocol(lat, square_lattice_protocol(), rng=np.random.default_rng(1))
        horiz = {(i * 3 + j, (i + 1) * 3 + j) for i in range(2) for j in range(3)}
        vert = {((i + 1) * 3 + j, (i + 1) * 3 + j + 1) for i in range(2) for j in range(2)}
        assert set(res.graph.edges()) == {tuple(sorted(e)) for e in horiz | vert}

    @pytest.mark.parametrize("lx,ly", [(1, 1), (2, 2), (1, 4), (3, 2), (3, 3), (3, 6)])
    @pytest.mark.parametrize("proto", ["standard", "square"])
    def test_backends_agree_per_seed(self, lx, ly, proto):
        steps = standard_protocol() if proto == "standard" else square_lattice_protocol()
        lat = DonorLattice(lx, ly)
        r1 = run_protocol(lat, steps, backend="stabilizer", rng=np.random.default_rng(5))
        r2 = run_protocol(lat, steps, backend="statevector", rng=np.random.default_rng(5))
        assert r1.graph == r2.graph
        assert r1.frame == r2.frame
        assert list(r1.outcomes) == list(r2.outcomes)
        d1, d2 = dense_state_of(r1), dense_state_of(r2)
        assert d1.fidelity(d2) > 1 - 1e-9

    def test_topology_and_ops_seed_independent(self):
        lat = DonorLattice(3, 3)
        keys = set()
        frames = set()
        for seed in range(25):
            res = run_protocol(lat, standard_protocol(), rng=np.random.default_rng(seed))
            keys.add((res.graph.edge_set(),
                      tuple(sorted((v, op.name) for v, op in res.graph.vertex_ops.items()))))
            frames.add((tuple(sorted(res.frame.x)), tuple(sorted(res.frame.z))))
        assert len(keys) == 1
        assert len(frames) > 5

    def test_every_single_dead_site_position_agrees(self):
        # Sweep the dead pixel over the whole lattice: backends and the
        # predictor must track every boundary interaction it creates.
        for lx, ly in ((2, 3), (3, 3)):
            for i in range(lx):
                for j in range(ly):
                    lat = DonorLattice(lx, ly, dead=[(i, j)])
                    for steps in (standard_protocol(), square_lattice_protocol()):
                        pred = predicted_edge_set(lat, steps)
                        r_st = run_protocol(lat, steps,
                                            rng=np.random.default_rng(11))
                        r_sv = run_protocol(lat, steps, backend="statevector",
                                            rng=np.random.default_rng(11))
                        assert set(r_st.graph.edges()) == pred, (lx, ly, i, j)
                        assert r_st.graph == r_sv.graph
                        assert r_st.frame == r_sv.frame

    def test_dead_sites_degree_zero(self):
        lat = DonorLattice(3, 3, dead=[(1, 1), (0, 2)])
        res = run_protocol(lat, standard_protocol(), rng=np.random.default_rng(2))
        for (i, j) in lat.dead:
            assert res.graph.degree(lat.site_id(i, j)) == 0
        assert set(res.graph.edges()) == predicted_edge_set(lat, standard_protocol())

    def test_statevector_cap(self, monkeypatch):
        # 22 sites may need 23 qubits at one readout: one more than the cap.
        # The lattice is refused before the walk, whatever the script.
        def no_walk(*args, **kwargs):
            raise AssertionError("the walk started")

        monkeypatch.setattr(lattice, "_walk", no_walk)
        for steps in (standard_protocol(), [GlobalCPhase()]):
            with pytest.raises(SizeCapError,
                               match=r"^statevector backend needs up to 23 qubits, cap is 22$"):
                run_protocol(DonorLattice(2, 11), steps,
                             backend="statevector", rng=np.random.default_rng(0))

    def test_dense_readouts_drop_their_qubit(self, monkeypatch):
        """On 1x11 every electron leaves at the first shuttle.  That Z readout
        commutes with its C-phase, which becomes a Z on the nucleus when the
        electron reads 1, so every readout sees the electron alone and
        extraction sees the 11 nuclei.  A readout of a qubit the array does
        not hold reads its one-qubit ket in place."""
        widths, extracted = [], []
        measure_out, read_ket = StateVector.measure_out, statevec._read_ket

        def spy_measure_out(sv, q, basis, rng):
            widths.append(sv.n)
            return measure_out(sv, q, basis, rng)

        def spy_read_ket(ket, basis, rng):
            widths.append(len(ket).bit_length() - 1)
            return read_ket(ket, basis, rng)

        def spy_extract(psi):
            extracted.append(int(np.log2(psi.size)))
            return stabilizer_matrix(psi)

        monkeypatch.setattr(StateVector, "measure_out", spy_measure_out)
        monkeypatch.setattr(statevec, "_read_ket", spy_read_ket)
        monkeypatch.setattr(lattice, "stabilizer_matrix", spy_extract)
        run_protocol(DonorLattice(1, 11), standard_protocol(), backend="statevector",
                     rng=np.random.default_rng(0))
        assert widths == [1] * 11
        assert extracted == [11]

    @pytest.mark.parametrize("proto", sorted(_PROTOCOLS))
    def test_dense_array_holds_at_most_one_electron(self, monkeypatch, proto):
        widths = spy_dense_widths(monkeypatch)
        for lx, ly in SHAPES_UP_TO_11:
            widths.clear()
            run_protocol(DonorLattice(lx, ly), _PROTOCOLS[proto](), backend="statevector",
                         rng=np.random.default_rng(lx * ly))
            assert max(widths) <= lx * ly + 1, (lx, ly)

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_deferred_cz_meets_every_gate(self, seed):
        """Register calls the walker never makes (H, X and Y on qubits with
        deferred C-phases, repeated pairs) against eager dense gates, with
        the gate names as written and in lower case."""
        calls = [("cz", 1, 0), ("cz", 3, 2), ("cz", 1, 2), ("gate", "H", 1),
                 ("cz", 3, 0), ("cz", 3, 0), ("cz", 3, 0), ("gate", "X", 0),
                 ("cz", 1, 0), ("gate", "S", 3), ("gate", "Y", 2), ("measure", 3, Basis.X),
                 ("gate", "SDG", 1), ("measure", 1, Basis.Y)]
        for spell in (str, str.lower):
            be, rng = DenseRegister(), np.random.default_rng(seed)
            ref, ref_rng = StateVector.all_plus(4), np.random.default_rng(seed)
            for op, *args in calls:
                if op == "cz":
                    be.cz(*args)
                    ref.apply_cz(*args)
                elif op == "gate":
                    be.gate(spell(args[0]), args[1])
                    ref.apply_gate(*args)
                else:
                    assert be.measure(*args, rng) == ref.measure(*args, ref_rng)
            for q in list(be.pending):
                be._flush(q)
            be._attach(0, 1, 2, 3)
            got = be.sv.psi.reshape([2] * 4).transpose([be.axes.index(q) for q in range(4)])
            assert StateVector(4, got).fidelity(ref) > 1 - 1e-9

    def test_dense_gate_names_ignore_case(self):
        """A lower-case name acts like its upper-case one: H on a detached
        qubit, and a Z that leaves the deferred C-phases deferred."""
        for name in ("H", "h"):
            reg = DenseRegister()
            reg.gate(name, 0)
            assert np.allclose(reg.single[0], [1, 0])
        for name in ("Z", "z"):
            reg = DenseRegister()
            reg.cz(1, 2)
            reg.gate(name, 1)
            assert reg.pending == {1: {2}, 2: {1}}
            assert reg.sv.n == 0 and np.allclose(reg.single[1], np.array([1, -1]) / np.sqrt(2))

    @pytest.mark.parametrize("backend, engine_cls", ENGINE_CLASSES)
    def test_scripts_are_refused_before_an_engine_is_built(self, monkeypatch, backend,
                                                          engine_cls):
        def no_engine(self, *args, **kwargs):
            raise AssertionError(f"{engine_cls.__name__} was built")

        monkeypatch.setattr(engine_cls, "__init__", no_engine)
        # A 100x100 tableau would need 1.5 GiB; the dense register caps at 21 sites.
        lat = DonorLattice(3, 3) if backend == "statevector" else DonorLattice(100, 100)
        for steps in ([GlobalCPhase(), MeasureElectrons(Basis.Y)], [],
                      [PrepareAllPlus("nuclear"), GlobalCPhase()]):
            with pytest.raises(ProtocolError):
                run_protocol(lat, steps, backend=backend, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_readouts_are_parked_only_for_a_later_reprepare(self, backend):
        """The walker keeps a round's (electron, basis, outcome) only when a
        re-preparation follows, so nothing is parked when the walk ends."""
        parked_at_end = []

        class Probe:
            def after_prepare(self, engine, lat):
                pass

            def before_shuttle(self, engine, electrons):
                pass

            def filter_outcome(self, qubit, basis, outcome):
                return outcome

            def before_extract(self, engine, lat):
                walk = sys._getframe(1)
                assert walk.f_code is lattice._walk.__code__
                parked_at_end.append(dict(walk.f_locals["parked"]))

        lat = DonorLattice(3, 3, dead=[(1, 2)])
        twice = [PrepareAllPlus(), GlobalCPhase(), MeasureElectrons(Basis.Y),
                 MeasureElectrons(Basis.Z), ReprepareElectronsPlus(), GlobalCPhase(),
                 MeasureElectrons(Basis.Y)]
        for steps in (standard_protocol(), square_lattice_protocol(), twice):
            noisy = run_protocol(lat, steps, backend=backend, rng=np.random.default_rng(3),
                                 noise=Probe())
            plain = run_protocol(lat, steps, backend=backend, rng=np.random.default_rng(3))
            assert (noisy.graph, noisy.frame) == (plain.graph, plain.frame)
        assert parked_at_end == [{}, {}, {}]

    def test_measure_before_entanglement_warns(self):
        steps = [PrepareAllPlus(), MeasureElectrons(Basis.Y)]
        with pytest.warns(UserWarning):
            run_protocol(DonorLattice(2, 2), steps, rng=np.random.default_rng(0))


class TestPredictor:
    def test_1x1_no_edges(self):
        assert predicted_edge_set(DonorLattice(1, 1), standard_protocol()) == set()

    def test_2x2_triangle(self):
        assert predicted_edge_set(DonorLattice(2, 2), standard_protocol()) == {
            (0, 2), (0, 3), (2, 3)}

    def test_triangle_union_formula(self):
        # Interior rule: triangle {n(i,j), n(i+1,j), n(i+1,j+1)} per electron.
        lat = DonorLattice(4, 4)
        pred = predicted_edge_set(lat, standard_protocol())
        expected = set()
        for i in range(3):
            for j in range(3):
                a, b, c = lat.site_id(i, j), lat.site_id(i + 1, j), lat.site_id(i + 1, j + 1)
                for e in ((a, b), (b, c), (a, c)):
                    expected.add(tuple(sorted(e)))
        assert pred == expected

    @pytest.mark.parametrize("seed", range(10))
    def test_predictor_matches_run_all_small_lattices(self, seed):
        rng = np.random.default_rng(seed)
        for lx in range(1, 4):
            for ly in range(1, 4):
                lat = DonorLattice(lx, ly)
                for steps in (standard_protocol(), square_lattice_protocol()):
                    res = run_protocol(lat, steps, rng=rng)
                    assert set(res.graph.edges()) == predicted_edge_set(lat, steps)

    def test_x_basis_unsupported(self):
        steps = [PrepareAllPlus(), GlobalCPhase(), MeasureElectrons(Basis.X)]
        with pytest.raises(ProtocolError):
            predicted_edge_set(DonorLattice(2, 2), steps)

    def test_shares_run_protocol_validation_and_warnings(self):
        with pytest.raises(ProtocolError, match="must start with PrepareAllPlus"):
            predicted_edge_set(DonorLattice(2, 2), [GlobalCPhase()])
        with pytest.warns(UserWarning, match="live electrons"):
            predicted_edge_set(DonorLattice(2, 2), [PrepareAllPlus(), GlobalCPhase()])

    def test_predictor_matches_run_over_50_seeds(self):
        # Topology is outcome independent, so the predictor must match the
        # stabilizer run for every seed, not just on average.
        for lx in range(1, 4):
            for ly in range(1, 4):
                lat = DonorLattice(lx, ly)
                for steps in (standard_protocol(), square_lattice_protocol()):
                    pred = predicted_edge_set(lat, steps)
                    for seed in range(50):
                        res = run_protocol(lat, steps,
                                           rng=np.random.default_rng(seed))
                        assert set(res.graph.edges()) == pred


def _closed_form_edges(lx, ly, dead, proto):
    """The canonical protocols' topology from its closed forms alone.

    Standard: the triangle {s, s+x, s+x+y} for every s whose three sites are
    live.  Square: edge s-(s+x) when both are live, and edge (s+x)-(s+x+y)
    when all three are.  Uses no lattice or protocol-walking code.
    """
    def live(i, j):
        return 0 <= i < lx and 0 <= j < ly and (i, j) not in dead

    edges = set()
    for i in range(lx - 1):
        for j in range(ly):
            s, x, xy = i * ly + j, (i + 1) * ly + j, (i + 1) * ly + j + 1
            pair = live(i, j) and live(i + 1, j)
            triple = pair and live(i + 1, j + 1)
            if proto == "standard":
                if triple:
                    edges |= {(s, x), (x, xy), (s, xy)}
            else:
                if pair:
                    edges.add((s, x))
                if triple:
                    edges.add((x, xy))
    return edges


def _dead_placements(lx, ly, max_dead):
    sites = [(i, j) for i in range(lx) for j in range(ly)]
    return [set(c) for k in range(max_dead + 1) for c in itertools.combinations(sites, k)]


_CLOSED_FORM_SIZES = [(3, 3), (4, 4), (2, 5), (5, 2), (4, 3)]


class TestClosedFormTopology:
    """Predictor and engine against the closed forms, independent of the
    protocol walker they share."""

    @pytest.mark.parametrize("lx,ly", _CLOSED_FORM_SIZES)
    @pytest.mark.parametrize("proto", sorted(_PROTOCOLS))
    def test_predictor_up_to_two_dead_sites(self, lx, ly, proto):
        for dead in _dead_placements(lx, ly, 2):
            lat = DonorLattice(lx, ly, dead=dead)
            assert predicted_edge_set(lat, _PROTOCOLS[proto]()) == \
                _closed_form_edges(lx, ly, dead, proto), dead

    @pytest.mark.parametrize("lx,ly", _CLOSED_FORM_SIZES)
    @pytest.mark.parametrize("proto", sorted(_PROTOCOLS))
    def test_engine_up_to_one_dead_site(self, lx, ly, proto):
        for dead in _dead_placements(lx, ly, 1):
            res = run_protocol(DonorLattice(lx, ly, dead=dead), _PROTOCOLS[proto](),
                               rng=np.random.default_rng(lx * ly))
            assert set(res.graph.edges()) == _closed_form_edges(lx, ly, dead, proto), dead


_STEPS = st.sampled_from(
    [GlobalCPhase(), ReprepareElectronsPlus()]
    + [Shuttle(d) for d in ("+x", "-x", "+y", "-y")]
    + [MeasureElectrons(b) for b in Basis])
_PROBS = st.sampled_from([0.0, 0.1, 0.5])
_FREE_FORM = st.lists(_STEPS, min_size=1, max_size=12).map(lambda s: [PrepareAllPlus(), *s])


@st.composite
def canonical_mutants(draw):
    """A canonical script with every readout in one drawn basis and up to
    three free-form steps inserted after the preparation, so that large
    lattices still grow clusters."""
    base = draw(st.sampled_from(sorted(_PROTOCOLS)))
    readout = MeasureElectrons(draw(st.sampled_from(list(Basis))))
    steps = [readout if isinstance(s, MeasureElectrons) else s for s in _PROTOCOLS[base]()]
    for step in draw(st.lists(_STEPS, max_size=3)):
        steps.insert(draw(st.integers(1, len(steps))), step)
    return steps


@st.composite
def noisy_scripts(draw, shapes=st.tuples(st.integers(1, 3), st.integers(1, 3)),
                  max_dead=None, scripts=_FREE_FORM):
    """A lattice (by default of at most 3x3) with dead sites, a script (by
    default free-form: any shuttle order, X/Y/Z readout, re-preparation),
    noise settings and a seed."""
    lx, ly = draw(shapes)
    sites = [(i, j) for i in range(lx) for j in range(ly)]
    max_size = len(sites) - 1 if max_dead is None else max_dead
    dead = sorted(draw(st.sets(st.sampled_from(sites), max_size=max_size)))
    steps = draw(scripts)
    # A short T2n makes end-of-protocol dephasing likely.
    dm = DefectModel(eps_meas=draw(_PROBS), p_shuttle=draw(_PROBS), p_init_e=draw(_PROBS),
                     p_init_n=draw(_PROBS), t2n=draw(st.sampled_from([2.5, 1e-6])))
    return lx, ly, dead, steps, dm, draw(st.integers(0, 2**16))


class TestRandomProtocols:
    """Fuzz custom scripts: the graph-state engine, the tableau and the dense
    state vector must agree transcript-for-transcript and draw the same
    coins."""

    @staticmethod
    def _random_step(rng):
        r = rng.random()
        if r < 0.35:
            return GlobalCPhase()
        if r < 0.60:
            return Shuttle(["+x", "-x", "+y", "-y"][int(rng.integers(4))])
        if r < 0.85:
            return MeasureElectrons([Basis.X, Basis.Y, Basis.Z][int(rng.integers(3))])
        return ReprepareElectronsPlus()

    @classmethod
    def _random_steps(cls, rng):
        """Mutate a canonical script so runs keep producing entanglement."""
        base = standard_protocol() if rng.random() < 0.5 else square_lattice_protocol()
        steps = list(base)
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.random()
            if kind < 0.5:
                pos = int(rng.integers(1, len(steps) + 1))
                steps.insert(pos, cls._random_step(rng))
            elif kind < 0.8 and len(steps) > 2:
                steps.pop(int(rng.integers(1, len(steps))))
            else:
                steps.append(cls._random_step(rng))
        return steps

    @staticmethod
    def _run_all(lat, steps, seed):
        """Per backend: the result (or ("error", message)) and the coin
        generator's state after the run."""
        results = {}
        for backend in BACKENDS:
            rng = np.random.default_rng(seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    res = run_protocol(lat, steps, backend=backend, rng=rng)
                except ProtocolError as exc:
                    res = ("error", str(exc))
            results[backend] = (res, rng.bit_generator.state)
        return results

    @staticmethod
    def _assert_agree(a, b):
        assert list(a.outcomes) == list(b.outcomes)
        assert a.graph == b.graph
        assert a.frame == b.frame
        assert dense_state_of(a).fidelity(dense_state_of(b)) > 1 - 1e-9

    @classmethod
    def _assert_all_agree(cls, results):
        (ref, ref_state), *others = results.values()
        for res, state in others:
            assert state == ref_state, "backends drew different numbers of coins"
            cls._assert_agree(ref, res)

    @pytest.mark.parametrize("trial", range(30))
    def test_backend_agreement_on_random_scripts(self, trial):
        rng = np.random.default_rng(5000 + trial)
        lx, ly = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        dead = set()
        if rng.random() < 0.4 and lx * ly > 1:
            dead.add((int(rng.integers(lx)), int(rng.integers(ly))))
        lat = DonorLattice(lx, ly, dead=dead)
        results = self._run_all(lat, self._random_steps(rng), trial)
        errors = [isinstance(res, tuple) for res, _ in results.values()]
        if any(errors):
            assert all(errors), results
            return
        self._assert_all_agree(results)

    @classmethod
    def _assert_pinned_script_agrees(cls, lx, ly, dead, script, seed):
        results = cls._run_all(DonorLattice(lx, ly, dead=dead), [PrepareAllPlus(), *script],
                               seed)
        assert not any(isinstance(res, tuple) for res, _ in results.values()), results
        cls._assert_all_agree(results)

    # Electrons read in X, re-prepared and read again.  The tableau
    # restriction used to reject these states (a bare generator whose window
    # a later C-phase had widened, or a pivot outside the generator's
    # product), so every backend must succeed here.
    _C, _R = GlobalCPhase(), ReprepareElectronsPlus()
    _X, _Z = MeasureElectrons(Basis.X), MeasureElectrons(Basis.Z)
    X_REREAD_SCRIPTS = {
        "2x1": (2, 1, [], [_C, _X, _R, _C, _X]),
        "2x3-dead": (2, 3, [(1, 1)], [_C, _C, _C, _X, Shuttle("-x"), _R, _C, _X]),
        "3x2-z-first": (3, 2, [(2, 1)], [_C, _Z, _R, _C, _C, _X, _C, _X]),
        "3x2-idle-cphase": (3, 2, [(0, 1)], [_C, _X, _C, _R, _R, _C, Shuttle("-y"), _C, _X]),
    }

    @pytest.mark.parametrize("name", sorted(X_REREAD_SCRIPTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_backend_agreement_on_x_reread_scripts(self, name, seed):
        self._assert_pinned_script_agrees(*self.X_REREAD_SCRIPTS[name], seed)

    @classmethod
    def _noisy_reports_agree(cls, lat, steps, dm, seed):
        """Run a noisy script on every backend; return the reference report,
        or None when every backend rejected the script."""
        reports = {}
        for backend in BACKENDS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    reports[backend] = inject_noise(lat, steps, dm, TimingModel(), seed,
                                                    backend=backend)
                except ProtocolError as exc:
                    reports[backend] = ("error", str(exc))
        errors = [isinstance(rep, tuple) for rep in reports.values()]
        if any(errors):
            assert all(errors), reports
            return None
        ref, *others = reports.values()
        for rep in others:
            assert rep.error_log == ref.error_log
            cls._assert_agree(ref.result, rep.result)
        return ref

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=noisy_scripts(scripts=st.one_of(canonical_mutants(), _FREE_FORM)))
    def test_backend_agreement_on_noisy_scripts(self, case):
        lx, ly, dead, steps, dm, seed = case
        lat = DonorLattice(lx, ly, dead=dead)
        ref = self._noisy_reports_agree(lat, steps, dm, seed)
        if ref is None:
            return
        # Pauli noise moves only the frame and the vertex operators.
        if not any(isinstance(s, MeasureElectrons) and s.basis == Basis.X for s in steps):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pred = predicted_edge_set(lat, steps)
            assert set(ref.result.graph.edges()) == pred

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=noisy_scripts(shapes=st.sampled_from([(1, 11), (11, 1), (2, 5), (5, 2), (3, 3)]),
                              max_dead=2, scripts=st.one_of(_FREE_FORM, canonical_mutants())))
    def test_dense_width_and_agreement_up_to_11_sites(self, case):
        lx, ly, dead, steps, dm, seed = case
        lat = DonorLattice(lx, ly, dead=dead)
        with pytest.MonkeyPatch.context() as mp:
            widths = spy_dense_widths(mp)
            runs = [run_noisy(lat, steps, dm, seed, backend) for backend in BACKENDS]
        assert max(widths, default=0) <= lat.n_sites + 1
        assert_noisy_runs_agree(runs, self._assert_agree)

    # The dense backend holds a qubit in its amplitude array only from the
    # readout that applies its C-phases to its next readout.  These scripts
    # reach the paths where a qubit is outside the array when it is gated,
    # read or extracted.
    _Y = MeasureElectrons(Basis.Y)
    SINGLE_QUBIT_SCRIPTS = {
        # Site (1, 0)'s re-prepared electron leaves the lattice before its
        # next C-phase: a random Z readout of a qubit outside the array.
        "reprep-shuttled-off": (2, 1, [], [_C, _Y, _R, Shuttle("+x"), _C, _Y]),
        # The dead site's nucleus never meets an electron, so it joins the
        # array only at extraction.
        "dead-nucleus-never-attached": (3, 1, [(1, 0)], standard_protocol()[1:]),
    }

    @pytest.mark.parametrize("name", sorted(SINGLE_QUBIT_SCRIPTS))
    @pytest.mark.parametrize("seed", range(3))
    def test_backend_agreement_on_single_qubit_paths(self, name, seed):
        self._assert_pinned_script_agrees(*self.SINGLE_QUBIT_SCRIPTS[name], seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_backend_agreement_on_init_flip_next_to_dead_site(self, seed):
        # Every live nucleus starts flipped, (0, 1) and (1, 0) beside the
        # dead (1, 1) among them: Z gates on qubits outside the array.
        lat = DonorLattice(2, 2, dead=[(1, 1)])
        dm = DefectModel(p_init_n=1.0)
        ref = self._noisy_reports_agree(lat, standard_protocol(), dm, seed)
        assert ref is not None
        for s in (lat.site_id(0, 1), lat.site_id(1, 0)):
            assert ("init_x_flip", "nuclear", 2 * s) in ref.error_log

    @pytest.mark.parametrize("trial", range(10))
    def test_random_scripts_match_predictor_when_supported(self, trial):
        rng = np.random.default_rng(7000 + trial)
        lat = DonorLattice(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        steps = self._random_steps(rng)
        if any(isinstance(s, MeasureElectrons) and s.basis == Basis.X for s in steps):
            pytest.skip("predictor covers Y/Z electron measurements only")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            pred = predicted_edge_set(lat, steps)
            res = run_protocol(lat, steps, rng=np.random.default_rng(trial))
        assert set(res.graph.edges()) == pred


class TestEngineMatchesTableau:
    """The graph-state engine writes exactly what the tableau oracle writes."""

    DEAD = [(0, 3), (4, 4), (7, 19), (13, 0), (19, 11)]

    @staticmethod
    def _outputs(result):
        return (export(result.graph, "json"), export(result.graph, "dot"),
                result.outcomes.entries(), result.frame.as_dict())

    def test_20x20_standard_with_dead_sites(self):
        lat = DonorLattice(20, 20, dead=self.DEAD)
        runs = [run_protocol(lat, standard_protocol(), backend=backend,
                             rng=substream(5, "measure"))
                for backend in ("stabilizer", "tableau")]
        assert self._outputs(runs[0]) == self._outputs(runs[1])

    def test_20x20_noisy_square_with_dead_sites(self):
        lat = DonorLattice(20, 20, dead=self.DEAD)
        dm = DefectModel(eps_meas=0.01, p_shuttle=0.05, p_init_e=0.05, p_init_n=0.05)
        reps = [inject_noise(lat, square_lattice_protocol(), dm, TimingModel(), seed=8,
                             backend=backend)
                for backend in ("stabilizer", "tableau")]
        assert reps[0].error_log and reps[0].error_log == reps[1].error_log
        assert self._outputs(reps[0].result) == self._outputs(reps[1].result)

    def test_20x20_x_readout_with_dead_sites(self):
        # sigma_x readout leaves nuclear VOPs that do not preserve Z, so the
        # engine extracts the cluster through the general graph reduction.
        lat = DonorLattice(20, 20, dead=self.DEAD)
        steps = standard_protocol()[:-1] + [MeasureElectrons(Basis.X)]
        runs = [run_protocol(lat, steps, backend=backend, rng=substream(5, "measure"))
                for backend in ("stabilizer", "tableau")]
        assert self._outputs(runs[0]) == self._outputs(runs[1])


    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=noisy_scripts(shapes=st.integers(6, 12).map(lambda n: (n, n)), max_dead=5,
                              scripts=canonical_mutants()))
    def test_random_noisy_scripts_6x6_to_12x12(self, case):
        # Above the dense cap only the tableau checks the engine.
        lx, ly, dead, steps, dm, seed = case
        lat = DonorLattice(lx, ly, dead=dead)
        runs = [run_noisy(lat, steps, dm, seed, backend)
                for backend in ("stabilizer", "tableau")]

        def assert_same_outputs(a, b):
            assert self._outputs(a) == self._outputs(b)

        assert_noisy_runs_agree(runs, assert_same_outputs)

class TestCoolAndPrepare:
    def test_perfect_polarization_no_flips(self):
        rep = cool_and_prepare(DonorLattice(3, 3), 1.0, 1.0, np.random.default_rng(0))
        assert rep["electron_flips"] == [] and rep["nuclear_flips"] == []

    def test_flip_probabilities(self):
        rep = cool_and_prepare(DonorLattice(2, 2), 0.90, 0.76, np.random.default_rng(0))
        assert abs(rep["nuclear_flip_prob"] - 0.12) < 1e-12
        assert abs(rep["electron_flip_prob"] - 0.05) < 1e-12

    def test_bad_polarization(self):
        with pytest.raises(ValueError):
            cool_and_prepare(DonorLattice(1, 1), 0.0, 1.0)
        with pytest.raises(ValueError):
            cool_and_prepare(DonorLattice(1, 1), 1.0, 1.2)

    @pytest.mark.parametrize("seed", range(3))
    def test_flips_match_the_noise_injector(self, seed):
        """Polarizations 0.5 and 0.25 are the injector's exact flip
        probabilities 1/4 and 3/8; the same generator state flips the same
        live qubits, nuclei first."""
        lat = DonorLattice(4, 5, dead=[(0, 1), (3, 3)])
        injector = NoiseInjector(DefectModel(p_init_n=0.25, p_init_e=0.375),
                                 TimingModel(), seed)
        gated = []

        class Backend:
            def gate(self, name, q):
                gated.append((name, q))

        injector.after_prepare(Backend(), lat)
        rep = cool_and_prepare(lat, p_electron=0.25, p_nuclear=0.5,
                               rng=substream(seed, "noise-init"))
        assert rep["nuclear_flips"] and rep["electron_flips"]
        assert injector.error_log == (
            [("init_x_flip", "nuclear", q) for q in rep["nuclear_flips"]]
            + [("init_x_flip", "electron", q) for q in rep["electron_flips"]])
        assert gated == [("Z", q) for q in rep["nuclear_flips"] + rep["electron_flips"]]


class TestPauliFrame:
    def test_xor_composition(self):
        a = PauliFrame(x={1}, z={2})
        b = PauliFrame(x={1, 3}, z=set())
        c = a.compose(b)
        assert c == PauliFrame(x={3}, z={2})
        assert c.as_dict() == {"x": [3], "z": [2]}

    def test_frame_application_conjugates_measurement(self):
        # Measuring after applying the frame equals measuring a conjugated
        # basis: an X frame bit flips Z outcomes, a Z bit flips X outcomes.
        from conftest import random_state_pair

        rng = np.random.default_rng(31)
        for trial in range(20):
            _, sv = random_state_pair(2, 12, rng)
            flipped = sv.copy().apply_gate("X", 0)
            o1, d1 = sv.copy().measure(0, Basis.Z, np.random.default_rng(trial))
            o2, d2 = flipped.measure(0, Basis.Z, np.random.default_rng(trial))
            if d1:
                assert d2 and o2 == -o1
            else:
                # random branch: same coin lands on opposite labels
                assert not d2
