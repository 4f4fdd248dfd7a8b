"""Negative controls for the benchmark's output checks.

Each check must pass on a real output at a tiny size and fail on the same
output with one corruption: a toggled cluster edge, a dropped outcome, a
flipped frame bit, a perturbed rotation angle, and so on.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from sicluster import cliffords, lattice, mbqc, noise, pulse  # noqa: E402
from sicluster.graphstate import line_graph  # noqa: E402


def _build(tmp_path: Path, argv: list[str]) -> tuple[dict, dict]:
    assert workloads._quiet_cli(argv + ["--out", str(tmp_path)]) == 0
    return workloads._read_build(tmp_path)


def test_standard_build_check_catches_a_toggled_edge(tmp_path):
    dead = [(1, 2)]
    cluster, report = _build(tmp_path, ["build-cluster", "--size", "4x4", "--protocol",
                                        "standard", "--seed", "3", "--dead", "1,2"])
    assert checks.check_build("standard", 4, 4, dead, cluster, report) == []
    removed = dict(cluster, edges=cluster["edges"][1:])
    assert checks.check_build("standard", 4, 4, dead, removed, report)
    added = dict(cluster, edges=cluster["edges"] + [[0, 15]])
    assert checks.check_build("standard", 4, 4, dead, added, report)


def test_square_build_check_catches_a_dropped_outcome(tmp_path):
    dead = [[2, 1]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lx": 4, "ly": 3, "protocol": "square", "seed": 5,
                               "dead": dead, "defects": workloads.ProtocolScale.DEFECTS}))
    cluster, report = _build(tmp_path / "out", ["build-cluster", "--config", str(cfg),
                                                "--with-noise"])
    dead = [tuple(d) for d in dead]
    assert checks.check_build("square", 4, 3, dead, cluster, report) == []
    dropped = dict(report, outcomes=report["outcomes"][:-1])
    assert checks.check_build("square", 4, 3, dead, cluster, dropped)


def test_closed_forms_match_the_canonical_counts():
    # 3x3 standard: four triangles of three edges; square: six horizontal
    # edges and, for s in the first two columns, two vertical ones each.
    assert len(checks.standard_edges(3, 3)) == 12
    assert len(checks.square_edges(3, 3)) == 6 + 4
    assert checks.expected_outcome_count("square", 3, 3) == 9 + 6


def _carved_wire(angles_of):
    lat = lattice.DonorLattice(5, 5)
    res = lattice.run_protocol(lat, lattice.standard_protocol(), rng=np.random.default_rng(1))
    cluster = mbqc.canonical_adjacency(res.graph)
    start = 0
    dist = workloads._bfs_distances(cluster, start, set())
    end = max(v for v, d in dist.items() if d == 4)
    angles = angles_of(4)
    pattern, path = mbqc.carved_wire_pattern(cluster, start, end, angles=angles)
    out = mbqc.execute_pattern(cluster, pattern, backend="stabilizer",
                               rng=np.random.default_rng(2))
    v = path[-1]
    return angles, out.output_graph.op(v).word, v in out.frame.x, v in out.frame.z


def test_wire_check_catches_a_flipped_frame_bit():
    angles, word, x_bit, z_bit = _carved_wire(lambda k: [0.0] * k)
    assert checks.check_wire("identity", angles, word, x_bit, z_bit) == []
    # The identity wire outputs |+>, which a stray X leaves unchanged; a
    # stray Z turns it into |->.
    assert checks.check_wire("identity", angles, word, x_bit, not z_bit)


def test_wire_check_accepts_a_pauli_chain_and_rejects_a_wrong_angle():
    angles, word, x_bit, z_bit = _carved_wire(lambda k: [np.pi / 2, np.pi, -np.pi / 2, 0.0])
    assert checks.check_wire("pauli", angles, word, x_bit, z_bit) == []
    assert checks.check_wire("pauli", [0.0] + angles[1:], word, x_bit, z_bit)


def test_word_decoding_matches_every_clifford():
    for el in cliffords.ELEMENTS:
        overlap = abs(np.trace(checks.word_matrix(el.word).conj().T @ cliffords.matrix_of(el)))
        assert overlap == pytest.approx(2.0), el


def test_rotation_check_catches_a_perturbed_angle():
    a, b, g = 0.4, -1.1, 2.3
    pattern = mbqc.rotation_chain_pattern(a, b, g)
    good = mbqc.verify_logical(line_graph(5), pattern, checks.rotation_target(a, b, g))
    assert checks.check_distance("chain", good.distance) == []
    bad = mbqc.verify_logical(line_graph(5), pattern, checks.rotation_target(a, b + 1e-3, g))
    assert checks.check_distance("chain", bad.distance)


def test_engine_check_catches_a_flipped_frame_bit():
    sweep = workloads.OracleSweep()
    st, sv, pred = sweep._engines(lattice.DonorLattice(2, 3), lattice.square_lattice_protocol(),
                                  7, True)
    assert checks.check_engines_agree("2x3", st, sv) == []
    assert checks.check_predictor("2x3", pred, st["edges"]) == []
    assert st["edges"] == checks.square_edges(2, 3)
    flipped = dict(sv, frame={"x": sv["frame"]["x"], "z": sorted(set(sv["frame"]["z"]) ^ {0})})
    assert checks.check_engines_agree("2x3", st, flipped)


def test_random_scripts_skip_only_x_rereads():
    rng = np.random.default_rng(0)
    scripts = [workloads.random_script(rng, 2, 3, 8, False) for _ in range(50)]
    assert not any(workloads.reads_x_then_rereads(steps) for _, steps in scripts)
    assert workloads.reads_x_then_rereads(workloads.KNOWN_FAULT[3])


def test_pulse_check_catches_a_wrong_duration():
    thetas, rabis_hz = [0.5, np.pi], [None, 25e6]
    rows = pulse.fidelity_sweep(thetas, [None if f is None else 2 * np.pi * f
                                         for f in rabis_hz])
    assert checks.check_pulse_rows(rows, thetas, rabis_hz) == []
    assert rows[-1]["duration_s"] == pytest.approx(40e-9)
    stretched = [dict(r, duration_s=r["duration_s"] * 1.001) for r in rows]
    assert checks.check_pulse_rows(stretched, thetas, rabis_hz)


def test_survey_check_catches_a_wrong_component():
    dead = [(0, 1), (2, 2), (3, 0)]
    lat = lattice.DonorLattice(6, 5, dead=dead)
    rep = noise.dead_pixel_survey(lat, noise.DefectModel(), lattice.standard_protocol(),
                                  seed=4, n_pairs=30)
    assert checks.check_survey(rep, 6, 5, dead, 4, 30) == []
    wrong = dict(rep, largest_component=rep["largest_component"] - 1)
    assert checks.check_survey(wrong, 6, 5, dead, 4, 30)
