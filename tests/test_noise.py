"""Defect/timing models: arithmetic, reproducibility, statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sicluster.graphstate import GraphState
from sicluster.lattice import (
    CANONICAL_PROTOCOLS,
    DonorLattice,
    predicted_edge_set,
    run_protocol,
    standard_protocol,
)
from sicluster.mbqc import NoPathError, carve_wire
from sicluster.noise import (
    DefectModel,
    TimingModel,
    dead_pixel_survey,
    figure_of_merit,
    inject_noise,
    preparation_time,
)
from sicluster.rng import substream

TM = TimingModel()


class TestPreparationTime:
    def test_quoted_scale_sequential(self):
        t = preparation_time(10**4, TM)
        assert t == pytest.approx(1.001e-4, rel=1e-12)
        assert 0.9e-4 <= t <= 1.1e-4

    def test_parallel_few_microseconds(self):
        t = preparation_time(10**4, TM, mode="parallel")
        assert t == pytest.approx(2.1e-6, rel=1e-12)
        assert t <= 5e-6

    def test_n_equals_one(self):
        assert preparation_time(1, TM) == pytest.approx(1.1e-6, rel=1e-12)

    def test_monotone_in_n_sequential(self):
        times = [preparation_time(n, TM) for n in (1, 10, 100, 10**4, 10**6)]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_parallel_independent_of_n(self):
        times = {preparation_time(n, TM, mode="parallel") for n in (1, 100, 10**6)}
        assert len(times) == 1

    def test_sequential_parallel_ratio(self):
        seq = preparation_time(10**4, TM) - TM.cphase_total
        par = preparation_time(10**4, TM, mode="parallel") - TM.cphase_total
        assert seq / par == pytest.approx(np.sqrt(10**4) / 2, rel=1e-12)

    def test_reset_wait_accounting(self):
        base = preparation_time(100, TM)
        with_wait = preparation_time(100, TM, reset_waits=2, t1e=0.5)
        assert with_wait == pytest.approx(base + 2 * 3.0 * 0.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            preparation_time(0, TM)
        with pytest.raises(ValueError):
            TimingModel(shuttle_rate=0)

    @pytest.mark.parametrize("name", ["shuttle_rate", "cphase_total", "meas_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rates_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            TimingModel(**{name: value})


class TestFigureOfMerit:
    def test_quoted_value(self):
        assert figure_of_merit(2.5, 4e4) == 1.0e5

    def test_trivial_values(self):
        assert figure_of_merit(1.0, 1.0) == 1.0
        assert figure_of_merit(2.0, 4e4) == 8e4

    def test_bilinear(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            a, b, s = rng.uniform(0.1, 10, 3)
            assert figure_of_merit(s * a, b) == pytest.approx(s * figure_of_merit(a, b))
            assert figure_of_merit(a, s * b) == pytest.approx(s * figure_of_merit(a, b))

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            figure_of_merit(0.0, 1.0)

    @pytest.mark.parametrize("args", [(np.inf, 4e4), (2.5, np.nan), (np.nan, 1.0)])
    def test_finite_inputs_required(self, args):
        with pytest.raises(ValueError, match="finite"):
            figure_of_merit(*args)


class TestDefectModel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            DefectModel(eps_meas=1.5)
        with pytest.raises(ValueError):
            DefectModel(t2n=-1)

    @pytest.mark.parametrize("name", ["t2n"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_times_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            DefectModel(**{name: value})

    def test_polarization_constructor(self):
        dm = DefectModel.from_polarizations(p_electron=0.90, p_nuclear=0.76)
        assert dm.p_init_e == pytest.approx(0.05)
        assert dm.p_init_n == pytest.approx(0.12)


class TestInjectNoise:
    def test_zero_noise_transcript_identical(self):
        lat = DonorLattice(3, 3)
        rep = inject_noise(lat, standard_protocol(), DefectModel(), TM, seed=11)
        base = run_protocol(lat, standard_protocol(), rng=substream(11, "measure"))
        assert rep.result.graph == base.graph
        assert rep.result.frame == base.frame
        assert list(rep.result.outcomes) == list(base.outcomes)
        assert rep.error_log == []

    def test_full_measurement_flip_inverts_every_outcome(self):
        lat = DonorLattice(2, 2)
        base = run_protocol(lat, standard_protocol(), rng=substream(4, "measure"))
        noisy = inject_noise(lat, standard_protocol(), DefectModel(eps_meas=1.0),
                             TM, seed=4)
        assert [(q, b, -o) for q, b, o in noisy.result.outcomes] == list(base.outcomes)

    def test_bit_for_bit_reproducibility(self):
        lat = DonorLattice(3, 3)
        dm = DefectModel.from_polarizations(0.9, 0.76, eps_meas=0.05, p_shuttle=0.02)
        a = inject_noise(lat, standard_protocol(), dm, TM, seed=5)
        b = inject_noise(lat, standard_protocol(), dm, TM, seed=5)
        assert a.error_log == b.error_log
        assert list(a.result.outcomes) == list(b.result.outcomes)
        assert a.result.frame == b.result.frame

    def test_error_log_matches_flip_count(self):
        lat = DonorLattice(4, 4)
        dm = DefectModel.from_polarizations(0.9, 0.76)
        total = 0
        for seed in range(50):
            rep = inject_noise(lat, standard_protocol(), dm, TM, seed=seed)
            kinds = {k for k, *_ in rep.error_log}
            assert kinds <= {"init_x_flip"}
            total += len(rep.error_log)
        assert total > 0

    def test_decoherence_channel_applies_z(self):
        lat = DonorLattice(2, 2)
        dm = DefectModel(t2n=1e-7)  # strong decoherence over ~2 us prep
        rep = inject_noise(lat, standard_protocol(), dm, TM, seed=2)
        assert rep.decoherence_prob > 0.9
        assert any(k == "decoherence_z" for k, *_ in rep.error_log)

    def test_topology_unaffected_by_pauli_noise(self):
        lat = DonorLattice(3, 3)
        dm = DefectModel.from_polarizations(0.8, 0.7, p_shuttle=0.1)
        rep = inject_noise(lat, standard_protocol(), dm, TM, seed=9)
        base = run_protocol(lat, standard_protocol(), rng=substream(9, "measure"))
        assert rep.result.graph.edge_set() == base.graph.edge_set()


class TestSurvey:
    def test_no_defects_square_lattice(self):
        from sicluster.lattice import square_lattice_protocol

        rep = dead_pixel_survey(DonorLattice(6, 6), DefectModel(),
                                square_lattice_protocol(), seed=1)
        assert rep["dead"] == 0 and rep["orphaned"] == 0
        assert rep["largest_component"] == 36
        assert rep["carve_success_rate"] == 1.0

    def test_standard_protocol_has_one_corner_orphan(self):
        rep = dead_pixel_survey(DonorLattice(6, 6), DefectModel(),
                                standard_protocol(), seed=1, n_pairs=0)
        assert rep["orphaned"] == 1  # site (0, ly-1) joins no triangle

    def test_all_dead(self):
        n = 3
        dm = DefectModel(dead={(i, j) for i in range(n) for j in range(n)})
        rep = dead_pixel_survey(DonorLattice(n, n), dm, standard_protocol())
        assert rep["largest_component"] == 0
        assert rep["carve_success_rate"] is None

    def test_five_percent_regression(self):
        # 20x20 square-protocol lattice, 5% dead chosen by the canonical
        # substream, seed 0.  Values computed once and frozen; any drift
        # means the RNG plumbing or the topology code changed behavior.
        from sicluster.lattice import square_lattice_protocol

        rng = substream(0, "survey-dead")
        chosen = rng.choice(400, size=20, replace=False)
        dead = {(int(s) // 20, int(s) % 20) for s in chosen}
        rep = dead_pixel_survey(DonorLattice(20, 20), DefectModel(dead=dead),
                                square_lattice_protocol(), seed=0, n_pairs=100)
        assert rep["dead"] == 20
        assert rep["orphaned"] == 1
        assert rep["vertices_lost"] == 21
        assert rep["largest_component"] == 379
        assert rep["components"] == 2
        assert rep["carve_success_rate"] == pytest.approx(1.0)

    def test_report_independent_of_where_dead_sites_live(self):
        # The survey reuses the caller's lattice when the defect model adds
        # no dead site, and builds the union lattice otherwise.
        dead = {(0, 1), (2, 2), (3, 0), (4, 4)}
        steps = standard_protocol()
        reports = [dead_pixel_survey(DonorLattice(5, 5, dead=on_lattice),
                                     DefectModel(dead=in_model), steps, seed=2, n_pairs=30)
                   for on_lattice, in_model in [(dead, set()), (dead, {(2, 2)}),
                                                (set(), dead), ({(0, 1)}, dead)]]
        assert all(rep == reports[0] for rep in reports)


def _predicted_graph(lat, steps) -> GraphState:
    """The predictor's edge set as a graph on every site of the lattice."""
    return GraphState(range(lat.n_sites), predicted_edge_set(lat, steps))


@st.composite
def defective_lattices(draw):
    """A lattice of at most 8x8 with 0-60 % of its sites dead, the dead set
    split between the lattice and the defect model."""
    lx, ly = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    sites = [(i, j) for i in range(lx) for j in range(ly)]
    flags = draw(st.lists(st.integers(0, 9), min_size=len(sites), max_size=len(sites)))
    threshold = draw(st.integers(0, 6))
    dead = [site for site, f in zip(sites, flags) if f < threshold]
    return lx, ly, set(dead[::2]), set(dead[1::2])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=defective_lattices(), protocol=st.sampled_from(sorted(CANONICAL_PROTOCOLS)),
       seed=st.integers(0, 2**16), n_pairs=st.integers(0, 20))
def test_survey_rate_is_the_carve_rate(case, protocol, seed, n_pairs):
    lx, ly, lattice_dead, model_dead = case
    steps = CANONICAL_PROTOCOLS[protocol]()
    rep = dead_pixel_survey(DonorLattice(lx, ly, dead=lattice_dead),
                            DefectModel(dead=model_dead), steps, seed=seed, n_pairs=n_pairs)

    # The survey's pairs, drawn as it draws them, each sent to carve_wire.
    lat = DonorLattice(lx, ly, dead=lattice_dead | model_dead)
    graph = _predicted_graph(lat, steps)
    dead_ids = {lat.site_id(i, j) for i, j in lat.dead}
    live = np.array([v for v in range(lat.n_sites) if v not in dead_ids])
    rng = substream(seed, "survey-pairs")
    carved = []
    for _ in range(n_pairs if len(live) >= 2 else 0):
        a, b = rng.choice(live, 2, replace=False)
        try:
            carve_wire(graph, int(a), int(b), forbidden=dead_ids)
            carved.append(True)
        except NoPathError:
            carved.append(False)
    assert rep["carve_pairs_tested"] == len(carved)
    assert rep["carve_success_rate"] == (sum(carved) / len(carved) if carved else None)
