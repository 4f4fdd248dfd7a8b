"""CLI contract: subcommands, exit codes, deterministic outputs."""

import gc
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sicluster.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_NO_PATH, EXIT_RESOURCE, main
from sicluster.lattice import DonorLattice, predicted_edge_set, standard_protocol


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(args):
    return main(list(args))


def readme_cli_commands() -> list[list[str]]:
    """The commands of the README's ``## CLI`` block in order, continuation
    lines joined, comments and the leading ``sicluster`` dropped."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(c[0] == "sicluster" for c in commands), commands
    return [c[1:] for c in commands]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    # In order: the mbqc example reads the cluster the build above it writes.
    monkeypatch.chdir(tmp_path)
    for args in readme_cli_commands():
        assert run_cli(args) == 0, args


class TestBuildCluster:
    def test_2x2_statevector_matches_predictor(self, tmp_path):
        out = tmp_path / "o"
        rc = run_cli(["build-cluster", "--size", "2x2", "--protocol", "standard",
                      "--backend", "statevector", "--seed", "7",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "cluster.json").read_text())
        got = {tuple(e) for e in doc["edges"]}
        want = predicted_edge_set(DonorLattice(2, 2), standard_protocol())
        assert got == want
        report = json.loads((out / "report.json").read_text())
        assert report["backend"] == "statevector"
        assert report["graph"]["edges"] == 3

    def test_byte_identical_given_config_and_seed(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            rc = run_cli(["build-cluster", "--size", "3x3", "--protocol", "square",
                          "--seed", "13", "--out", str(out)])
            assert rc == 0
            blobs.append((out / "report.json").read_bytes()
                         + (out / "cluster.json").read_bytes()
                         + (out / "cluster.dot").read_bytes())
        assert blobs[0] == blobs[1]

    def test_malformed_json_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"lx": 2,\n  "ly": }')
        rc = run_cli(["build-cluster", "--config", str(cfg)])
        assert rc == EXIT_CONFIG

    def test_malformed_json_reports_line_column(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"lx": 2,\n  "ly": }')
        run_cli(["build-cluster", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"lx": 2, "ly": 2, "qubits": 7}')
        assert run_cli(["build-cluster", "--config", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize("model", [
        {"defects": {"eps_meas": 2}},
        {"defects": {"t2n": "long"}},
        {"timing": {"mode": "warp"}},
        {"defects": {"dead": [[1, 1]]}},  # dead sites are the top-level "dead"
    ])
    def test_bad_model_parameters_are_config_errors(self, tmp_path, model):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lx": 2, "ly": 2, **model}))
        rc = run_cli(["build-cluster", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("config", [
        '{"lx": "a", "ly": 2}',
        '{"lx": 2, "ly": 2, "dead": [[0]]}',
        '{"lx": 2, "ly": 2, "seed": "x"}',
        '{"lx": 2, "ly": 2, "dead": 5}',
    ])
    def test_mistyped_config_values_are_config_errors(self, tmp_path, config, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(config)
        rc = run_cli(["build-cluster", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_statevector_cap_exit_code(self, tmp_path, capsys):
        rc = run_cli(["build-cluster", "--size", "2x11", "--backend", "statevector",
                      "--out", str(tmp_path / "o")])
        assert rc == EXIT_RESOURCE
        assert capsys.readouterr().err == (
            "resource cap: statevector backend needs up to 23 qubits, cap is 22\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, rc", [
        (["--size", "3x3"], 0),
        (["--size", "2x11", "--backend", "statevector"], EXIT_RESOURCE),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_cyclic_collector_setting_is_restored(self, tmp_path, argv, rc, enabled):
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run_cli(["build-cluster", *argv, "--out", str(tmp_path / "o")]) == rc
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_build_and_export_run_without_the_cyclic_collector(self, tmp_path, monkeypatch):
        from sicluster import cli, graphstate

        seen = []

        def spy(fn):
            def wrapped(*args, **kwargs):
                seen.append((fn.__name__, gc.isenabled()))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "run_protocol", spy(cli.run_protocol))
        monkeypatch.setattr(graphstate, "export", spy(graphstate.export))
        assert gc.isenabled()
        assert run_cli(["build-cluster", "--size", "3x3", "--out", str(tmp_path / "o")]) == 0
        assert seen == [("run_protocol", False), ("export", False), ("export", False)]
        assert gc.isenabled()

    def test_custom_protocol_steps_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "lx": 2, "ly": 2, "seed": 3,
            "protocol": [
                {"op": "prepare_all_plus"},
                {"op": "global_cphase"},
                {"op": "shuttle", "direction": "+x"},
                {"op": "global_cphase"},
                {"op": "measure_electrons", "basis": "Y"},
            ],
        }))
        rc = run_cli(["build-cluster", "--config", str(cfg), "--out",
                      str(tmp_path / "o")])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "cluster.json").read_text())
        assert {tuple(e) for e in doc["edges"]} == {(0, 2), (1, 3)}

    def test_100x100_square_stabilizer_completes(self, tmp_path):
        out = tmp_path / "big"
        rc = run_cli(["build-cluster", "--size", "100x100", "--protocol", "square",
                      "--backend", "stabilizer", "--seed", "0",
                      "--out", str(out), "--format", "json"])
        assert rc == 0
        doc = json.loads((out / "cluster.json").read_text())
        assert len(doc["vertices"]) == 10000
        # interior square-lattice adjacency: vertex (i,j)=(50,50) has 4 nbrs
        centre = 50 * 100 + 50
        deg = sum(1 for e in doc["edges"] if centre in e)
        assert deg == 4

    def test_with_noise_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "lx": 2, "ly": 2, "seed": 1,
            "defects": {"p_init_n": 0.5}}))
        rc = run_cli(["build-cluster", "--config", str(cfg), "--with-noise",
                      "--out", str(tmp_path / "o")])
        assert rc == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        assert any(e[0] == "init_x_flip" for e in report["error_log"])


class TestVerifyProtocol:
    def test_passes_and_has_skip_rows(self, tmp_path):
        out = tmp_path / "v.txt"
        rc = run_cli(["verify-protocol", "--seed", "1", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "SKIP" in text
        assert "PASS square 4x3 backends-agree" in text
        assert "FAIL " not in text

    def test_negative_control(self, tmp_path):
        rc = run_cli(["verify-protocol", "--selftest-negate-predictor",
                      "--out", str(tmp_path / "v.txt")])
        assert rc == EXIT_CHECK_FAILED


# `pulse --theta pi,0.5pi,1.7 --omega1 inst,5,25,400 --trend`, recorded from the
# per-point sweep before it was batched.
PINNED_SWEEP_CSV = (
    "theta,omega1_hz,fidelity,duration_s\n"
    "3.141592653589793,inf,0.9999999999999998,0.0\n"
    "3.141592653589793,5000000.0,0.9994655299121175,2e-07\n"
    "3.141592653589793,25000000.000000004,0.9853403777353122,3.9999999999999994e-08\n"
    "3.141592653589793,400000000.00000006,0.8362636084010697,2.4999999999999996e-09\n"
    "1.5707963267948966,inf,0.9999999999999998,0.0\n"
    "1.5707963267948966,5000000.0,0.9996994890569695,1.5e-07\n"
    "1.5707963267948966,25000000.000000004,0.8629210769802929,3e-08\n"
    "1.5707963267948966,400000000.00000006,0.8001326065410783,1.875e-09\n"
    "1.7,inf,0.9999999999999998,0.0\n"
    "1.7,5000000.0,0.7173520822146762,1.541126806512444e-07\n"
    "1.7,25000000.000000004,0.9324506902482192,3.082253613024888e-08\n"
    "1.7,400000000.00000006,0.7808121552413305,1.926408508140555e-09\n"
    "# fidelity does not improve monotonically toward weak drive on this grid\n"
)


class TestPulse:
    def test_default_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = run_cli(["pulse", "--theta", "pi", "--omega1", "inst,25",
                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "theta,omega1_hz,fidelity,duration_s"
        inst = lines[1].split(",")
        assert float(inst[2]) > 1 - 1e-10
        finite = lines[2].split(",")
        assert float(finite[3]) == pytest.approx(40e-9, rel=1e-9)

    def test_empty_grid(self):
        assert run_cli(["pulse", "--theta", "", "--omega1", "25"]) == EXIT_CONFIG

    def test_bad_theta(self):
        assert run_cli(["pulse", "--theta", "banana", "--omega1", "25"]) == EXIT_CONFIG

    @pytest.mark.parametrize("omega", ["nan", "1e999", "-inf", "25,nan", "0"])
    def test_non_finite_omega_is_a_config_error(self, omega, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["pulse", "--theta", "pi", "--omega1", omega,
                        "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("keyword", ["inst", "instantaneous", "inf"])
    def test_instantaneous_keywords(self, keyword, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["pulse", "--theta", "pi", "--omega1", keyword, "--out", str(out)]) == 0
        assert out.read_text().split("\n")[1].split(",")[1:] == ["inf", "0.9999999999999998",
                                                                 "0.0"]

    def test_pinned_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["pulse", "--theta", "pi,0.5pi,1.7", "--omega1", "inst,5,25,400",
                        "--trend", "--out", str(out)]) == 0
        assert out.read_text() == PINNED_SWEEP_CSV



class TestMbqc:
    def test_builtin_wire_report(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(["mbqc", "--cluster", "line:3", "--builtin", "wire:3",
                      "--seed", "5", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["channel_distance"] < 1e-9
        assert doc["distance_ok"] is True

    def test_rotation_builtin(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(["mbqc", "--cluster", "line:5", "--builtin",
                      "rotation:0.4,-0.9,1.3", "--seed", "2", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["channel_distance"] < 1e-9

    def test_pattern_file_roundtrip(self, tmp_path):
        from sicluster.mbqc import wire_pattern

        pf = tmp_path / "pattern.json"
        pf.write_text(wire_pattern(3).to_json())
        out = tmp_path / "r.json"
        rc = run_cli(["mbqc", "--cluster", "line:3", "--pattern", str(pf),
                      "--target", "identity", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["channel_distance"] < 1e-9

    def test_bad_builtin_wire_length(self):
        assert run_cli(["mbqc", "--cluster", "line:3", "--builtin", "wire:abc"]) == EXIT_CONFIG

    def test_zero_verify_seeds(self, tmp_path):
        rc = run_cli(["mbqc", "--cluster", "line:5", "--builtin", "wire:5",
                      "--verify-seeds", "0", "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG

    def test_missing_pattern_file(self):
        assert run_cli(["mbqc", "--cluster", "line:3",
                        "--pattern", "/nonexistent.json"]) == EXIT_CONFIG

    def test_invalid_pattern_file(self, tmp_path):
        pf = tmp_path / "bad.json"
        pf.write_text("{]")
        assert run_cli(["mbqc", "--cluster", "line:3",
                        "--pattern", str(pf)]) == EXIT_CONFIG

    def test_non_finite_builtin_angle_is_a_config_error(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(["mbqc", "--cluster", "line:5", "--builtin", "rotation:nan,0,0",
                      "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_nan_angle_in_pattern_file_is_a_config_error(self, tmp_path):
        pf = tmp_path / "pattern.json"
        pf.write_text('{"inputs": [0], "outputs": [2], "corrections": {}, "steps": '
                      '[{"v": 0, "angle": NaN}, {"v": 1, "basis": "X"}]}')
        assert run_cli(["mbqc", "--cluster", "line:3", "--pattern", str(pf),
                        "--target", "identity", "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG

    def test_carve_success(self, tmp_path):
        out = tmp_path / "r.json"
        rc = run_cli(["mbqc", "--cluster", "grid:3x3", "--carve", "0:6",
                      "--seed", "3", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["carve"]["path"] == [0, 3, 6]
        assert doc["identity_wire_distance"] < 1e-9

    def test_readme_carve_beyond_dense_cap(self, tmp_path):
        # 25 cluster vertices: the dense check holds only the wire's
        # neighbourhood, never the whole cluster.
        out = tmp_path / "r.json"
        rc = run_cli(["mbqc", "--cluster", "grid:5x5", "--carve", "0:20",
                      "--dead-vertices", "10", "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["distance_ok"] is True

    @pytest.mark.parametrize("cluster", ["grid:5x5", "line:30"])
    def test_dense_outputs_entangled_past_the_cap_exit_3(self, cluster, capsys):
        # wire:3 leaves output 2 entangled with every unmeasured vertex: 23
        # and 28 qubits with the output, more than the 22-qubit cap.
        rc = run_cli(["mbqc", "--cluster", cluster, "--builtin", "wire:3"])
        assert rc == EXIT_RESOURCE
        assert "dense cap" in capsys.readouterr().err

    def test_carve_blocked_exit_4(self):
        rc = run_cli(["mbqc", "--cluster", "grid:3x3", "--carve", "0:8",
                      "--dead-vertices", "1,3,4,5,7"])
        assert rc == EXIT_NO_PATH

    def test_exported_protocol_graph_feeds_mbqc(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli(["build-cluster", "--size", "4x4", "--protocol", "square",
                        "--seed", "3", "--out", str(out),
                        "--format", "json"]) == 0
        report = tmp_path / "carve.json"
        rc = run_cli(["mbqc", "--cluster", f"file:{out}/cluster.json",
                      "--strip-ops", "--carve", "0:12", "--seed", "1",
                      "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["carve"]["path"][0] == 0 and doc["carve"]["path"][-1] == 12
        if "identity_wire_distance" in doc:
            assert doc["identity_wire_distance"] < 1e-9


    def test_stabilizer_carved_wire_above_tableau_cap(self, tmp_path):
        # 257 * 256 = 65792 vertices, above the 23 170-qubit tableau cap: the
        # stabilizer backend runs the graph-state engine and builds no tableau.
        from sicluster.graphstate import grid_graph
        from sicluster.mbqc import carved_wire_pattern

        pattern, path = carved_wire_pattern(grid_graph(257, 256), 0, 4 * 256)
        assert path == [0, 256, 512, 768, 1024]
        pf = tmp_path / "pattern.json"
        pf.write_text(pattern.to_json())
        out = tmp_path / "r.json"
        rc = run_cli(["mbqc", "--cluster", "grid:257x256", "--pattern", str(pf),
                      "--backend", "stabilizer", "--seed", "4", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert [v for v, _ in doc["outcomes"]] == [step.vertex for step in pattern.steps]

    def test_stabilizer_straggler_next_to_output_exit_code(self, tmp_path, capsys):
        # wire:3 measures vertices 0 and 1 only; output 2 keeps its grid
        # neighbours, which are unmeasured and entangled with it.
        rc = run_cli(["mbqc", "--cluster", "grid:257x256", "--builtin", "wire:3",
                      "--backend", "stabilizer", "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG
        assert "entangled with the outputs" in capsys.readouterr().err

    def test_dense_straggler_refusal_names_only_the_entangled_vertex(self, tmp_path, capsys):
        # The wire 0-1-11-21-20 detours round dead vertex 10, which stays
        # unmeasured next to it.  The other 89 unmeasured vertices lie beyond
        # the ring of Z readouts round the wire and never join the dense
        # array, so the refusal names 10 alone.
        rc = run_cli(["mbqc", "--cluster", "grid:10x10", "--carve", "0:20",
                      "--dead-vertices", "10", "--out", str(tmp_path / "r.json")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "entangled with the outputs: [10] (purity" in err


class TestTiming:
    def test_table_values(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run_cli(["timing", "--n", "1,10000", "--mode", "both",
                      "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "N,mode,seconds"
        table = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
                 for r in lines[1:] if not r.startswith("#")}
        assert table[("10000", "sequential")] == pytest.approx(1.001e-4, rel=1e-9)
        assert table[("10000", "parallel")] == pytest.approx(2.1e-6, rel=1e-9)
        assert table[("1", "sequential")] == pytest.approx(1.1e-6, rel=1e-9)
        assert "figure_of_merit" in lines[-1]
        assert "100000.0" in lines[-1]

    @pytest.mark.parametrize("bad", [["--t2n", "0"], ["--shuttle-rate", "0"],
                                     ["--n", "0"], ["--shuttle-rate", "nan"],
                                     ["--t2n", "inf"], ["--meas-rate", "inf"],
                                     ["--cphase-total", "nan"]])
    def test_bad_model_parameters_are_config_errors(self, tmp_path, bad):
        assert run_cli(["timing", *bad, "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG


class TestSurvey:
    def test_survey_report(self, tmp_path):
        out = tmp_path / "s.json"
        rc = run_cli(["survey", "--size", "10x10", "--dead-fraction", "0.05",
                      "--seed", "4", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["dead"] == 5
        assert doc["n_sites"] == 100

    def test_negative_pairs(self, tmp_path):
        rc = run_cli(["survey", "--size", "4x4", "--pairs", "-3",
                      "--out", str(tmp_path / "s.json")])
        assert rc == EXIT_CONFIG

    def test_deterministic(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_cli(["survey", "--size", "8x8", "--dead-fraction", "0.1",
                     "--seed", "9", "--out", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    # Full reports pinned byte for byte; the two fractional rates check the
    # carve-pair accounting, the 60x60 runs the labelling at size.
    @pytest.mark.parametrize("args, report", [
        ("--size 3x3 --dead-fraction 0.4 --dead 0,0",
         '{"carve_pairs_tested": 100,"carve_success_rate": 0.54,"components": 2,'
         '"dead": 5,"largest_component": 3,"n_sites": 9,"orphaned": 1,'
         '"protocol": "standard","seed": 0,"size": "3x3","vertices_lost": 6}'),
        ("--size 30x30 --dead-fraction 0.15 --seed 4",
         '{"carve_pairs_tested": 100,"carve_success_rate": 0.81,"components": 41,'
         '"dead": 135,"largest_component": 704,"n_sites": 900,"orphaned": 32,'
         '"protocol": "standard","seed": 4,"size": "30x30","vertices_lost": 167}'),
        ("--size 60x60 --dead-fraction 0.02",
         '{"carve_pairs_tested": 100,"carve_success_rate": 1.0,"components": 7,'
         '"dead": 72,"largest_component": 3522,"n_sites": 3600,"orphaned": 6,'
         '"protocol": "standard","seed": 0,"size": "60x60","vertices_lost": 78}'),
        ("--size 60x60 --dead-fraction 0.02 --protocol square --seed 3",
         '{"carve_pairs_tested": 100,"carve_success_rate": 1.0,"components": 3,'
         '"dead": 72,"largest_component": 3526,"n_sites": 3600,"orphaned": 2,'
         '"protocol": "square","seed": 3,"size": "60x60","vertices_lost": 74}'),
    ], ids=["3x3-rate-0.54", "30x30-rate-0.81", "60x60-standard", "60x60-square"])
    def test_pinned_report(self, tmp_path, args, report):
        out = tmp_path / "s.json"
        assert run_cli(["survey", *args.split(), "--out", str(out)]) == 0
        assert out.read_text() == report + "\n"


class TestSiteCap:
    def test_oversized_lattices_refused_before_allocating(self, tmp_path):
        # The child caps its own address space at 1.5 GB, so a missing check
        # ends in a MemoryError there rather than exhausting the host.
        script = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))
from sicluster.cli import main
for argv in (["build-cluster", "--size", "20000x20000", "--out", {str(tmp_path)!r}],
             ["survey", "--size", "20000x20000"],
             ["survey", "--size", "20000x20000", "--dead-fraction", "0.1"],
             ["mbqc", "--cluster", "grid:20000x20000", "--builtin", "wire:3"],
             ["mbqc", "--cluster", "line:400000000", "--builtin", "wire:3"]):
    print(main(argv))
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.stdout.split() == [str(EXIT_RESOURCE)] * 5, proc.stderr
        assert proc.stderr.count("resource cap") == 5
        assert not list(tmp_path.iterdir())

    def test_oversized_sigma_x_reduction_refused_in_a_capped_child(self, tmp_path):
        # X readout of a 1 x 33000 line leaves vertex operators that move the
        # Z axis, so extraction needs the dense k x k fallback reduction: over
        # 2 GiB at k = 33000.  It must exit 3 before allocating, and before
        # the consuming read-off has removed anything from the engine.
        cfg = tmp_path / "sigma_x.json"
        cfg.write_text(json.dumps({
            "lx": 1, "ly": 33000,
            "protocol": [{"op": "prepare_all_plus"}, {"op": "global_cphase"},
                         {"op": "shuttle", "direction": "+y"}, {"op": "global_cphase"},
                         {"op": "measure_electrons", "basis": "X"}]}))
        out = tmp_path / "out"
        script = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, (1536 * 2**20, 1536 * 2**20))
from sicluster.cli import main
from sicluster.graphsim import GraphSimulator
take = GraphSimulator.take_restricted_graph
def spy(self, keep):
    qubits = len(self._adj)
    try:
        return take(self, keep)
    finally:
        print("engine", qubits, len(self._adj))
GraphSimulator.take_restricted_graph = spy
print(main(["build-cluster", "--config", {str(cfg)!r}, "--out", {str(out)!r}]))
"""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120, env=env)
        assert proc.stdout.split() == ["engine", "66000", "66000", str(EXIT_RESOURCE)], proc.stderr
        assert "a 33000-qubit graph reduction exceeds the 2 GiB tableau cap" in proc.stderr
        assert not out.exists()

    def test_cap_is_inclusive(self):
        from sicluster.graphstate import MAX_SITES, SizeCapError, check_site_cap, line_graph

        check_site_cap(MAX_SITES)
        with pytest.raises(SizeCapError):
            check_site_cap(MAX_SITES + 1)
        with pytest.raises(SizeCapError):
            line_graph(MAX_SITES + 1)
        with pytest.raises(SizeCapError):
            DonorLattice(1, MAX_SITES + 1)


class TestHelpAndEntrypoint:
    def test_help_exits_zero(self):
        assert run_cli(["--help"]) == 0
        for sub in ("build-cluster", "pulse", "mbqc", "timing", "survey",
                    "verify-protocol"):
            assert run_cli([sub, "--help"]) == 0

    def test_no_command_is_config_error(self):
        assert run_cli([]) == EXIT_CONFIG

    @pytest.mark.parametrize("sub", ["verify-protocol", "mbqc", "survey"])
    def test_negative_seed_is_config_error(self, sub, capsys):
        assert run_cli([sub, "--seed", "-1"]) == EXIT_CONFIG
        assert "non-negative integer" in capsys.readouterr().err

    def test_subprocess_smoke(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sicluster.cli", "timing", "--n", "100"],
            capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0
        assert "N,mode,seconds" in proc.stdout
