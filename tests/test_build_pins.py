"""Pinned build-cluster outputs, and the engine's release before assembly.

The digests below were taken before the single-qubit Clifford group became
table-driven and before run_protocol started dropping its engine ahead of
graph assembly; both changes must leave every output byte-identical.
"""

import gc
import hashlib
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from sicluster import cli, lattice, mbqc
from sicluster.cli import main
from sicluster.graphsim import GraphSimulator
from sicluster.lattice import DonorLattice, run_protocol, standard_protocol
from sicluster.statevec import DenseRegister
from sicluster.tableau import StabilizerTableau

_NOISY_SQUARE = {
    "lx": 20, "ly": 20, "protocol": "square", "seed": 7,
    "dead": [[0, 5], [3, 4], [10, 10], [15, 2], [19, 19]],
    "defects": {"eps_meas": 0.01, "p_shuttle": 0.01, "p_init_e": 0.01, "p_init_n": 0.01},
}
_SIGMA_X = {
    "lx": 20, "ly": 20, "seed": 5,
    "protocol": [{"op": "prepare_all_plus"}, {"op": "global_cphase"},
                 {"op": "shuttle", "direction": "+x"}, {"op": "global_cphase"},
                 {"op": "shuttle", "direction": "+y"}, {"op": "global_cphase"},
                 {"op": "measure_electrons", "basis": "X"}],
}

# name -> (config written to a file or None, extra argv)
CASES = {
    "standard": (None, ["--size", "20x20", "--protocol", "standard", "--seed", "5"]),
    "noisy-square": (_NOISY_SQUARE, ["--with-noise"]),
    "sigma-x": (_SIGMA_X, []),
    "standard-100x100": (None, ["--size", "100x100", "--protocol", "standard", "--seed", "5"]),
    "square-100x100": (None, ["--size", "100x100", "--protocol", "square", "--seed", "5"]),
}

PINNED = {
    "standard": {
        "cluster.json": "54050beccd24449c41a389e88816884b709703575da1a4e2d2fa63a431c4f0a0",
        "cluster.dot": "24e0ba24732c0703bae5451174552012b7df4214d21e881e842add97b5624710",
        "report.json": "298d9e59e0f2e15b22d088b05224591e0606db2eaf8b7701c4bf7be64cd757b6",
    },
    "noisy-square": {
        "cluster.json": "1db1d2700a49b0e9e80e6cefab268e9cfd669cc669690c0a233a2f190706e2fd",
        "cluster.dot": "f0a582a705298119c8210d67116c4227d75e1d5fe037eb559fa10bc496b0fa63",
        "report.json": "7283e0e0a797c39caaed5c3b18cfdbd71325607288d71bcc82f1cf0c46ec69d8",
    },
    "sigma-x": {
        "cluster.json": "092ab5d7ee3d48cef57740a701dfa94bf2240761f82aed6acf52818cd5b7e738",
        "cluster.dot": "98b2050de281d11080fda2532ba22b6f4855c636a63a815d2376a53123919f88",
        "report.json": "a56753b5bdd82374d8691ba927d8d1417c6e0b12b5aa548e04b25f5b147a16b5",
    },
    # Lattice scale, taken before the readout, the read-off and the export
    # dropped their repeated per-element work.
    "standard-100x100": {
        "cluster.json": "adc3d3c36745c9186013900af2bee4aa740c447857b4f4e2d819e6cd3d4e432f",
        "cluster.dot": "f4e7e701dacb203a22564c1f467b60092154e715a4a16b9c860c1dc77197810e",
        "report.json": "1c76bd02508979d2ded6753fbfa73a3949a787e0aea9de8e5dacf6e540c03127",
    },
    "square-100x100": {
        "cluster.json": "e27598dbdad53431f48ee3fcb044f97b35e8991246f362a95f38bc433e0392b4",
        "cluster.dot": "f5cd23f5ac30ace117773744f161a50c7e9cb5d601438e2aa1985d6133d81ed1",
        "report.json": "f6d5bc132b118bc87e37f9a2659c144c906f9919dbb7ba691e5432126de2112d",
    },
}


def build_digests(tmp_path, name: str) -> dict[str, str]:
    """sha256 of each file one build-cluster run writes."""
    config, argv = CASES[name]
    argv = ["build-cluster", *argv, "--out", str(tmp_path / name)]
    if config is not None:
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert main(argv) == 0
    return {f: hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
            for f in PINNED[name]}


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_outputs_are_pinned(tmp_path, name):
    assert build_digests(tmp_path, name) == PINNED[name]


# name -> (carve, sha256 of the report of `mbqc --cluster
# file:<name>/cluster.json --strip-ops --carve <carve> --seed 1` on the pinned
# build).  Both paths have 11 vertices, so verify_logical runs; 210 is a dead
# site of the noisy-square build.  Taken before a loaded cluster was built in
# one pass and --strip-ops came to share its adjacency.
CONSUMER_PINNED = {
    "standard": ("0:210", "7e58c788b3a7aee979aa0736db60a87b7a9b57befa6b776ae837335fd18e3070"),
    "noisy-square": ("0:200", "32b3bc121888e80821ee7e8f9de822e43a69b655b1187c3ac424a393e40c27e2"),
}


def consume(tmp_path, monkeypatch, name: str) -> Path:
    """Build the pinned ``name`` cluster, carve on it with --strip-ops and
    return the report's path.  The report names the cluster file, so the
    file is given relative to ``tmp_path``."""
    assert build_digests(tmp_path, name) == PINNED[name]
    monkeypatch.chdir(tmp_path)
    report = tmp_path / f"{name}-carve.json"
    assert main(["mbqc", "--cluster", f"file:{name}/cluster.json", "--strip-ops",
                 "--carve", CONSUMER_PINNED[name][0], "--seed", "1",
                 "--out", str(report)]) == 0
    return report


@pytest.mark.parametrize("name", sorted(CONSUMER_PINNED))
def test_consumer_report_is_pinned(tmp_path, monkeypatch, name):
    report = consume(tmp_path, monkeypatch, name)
    assert hashlib.sha256(report.read_bytes()).hexdigest() == CONSUMER_PINNED[name][1]


def test_strip_ops_hands_over_a_bare_graph_and_leaves_the_loaded_one(tmp_path, monkeypatch):
    strips, runs = [], []
    strip = cli.canonical_adjacency

    def spy_strip(g):
        stripped = strip(g)
        strips.append((g, g.copy(), stripped))
        return stripped

    dense = mbqc._execute_dense

    def spy_dense(cluster, *args):
        runs.append(dict(cluster.vertex_ops))
        return dense(cluster, *args)

    monkeypatch.setattr(cli, "canonical_adjacency", spy_strip)
    monkeypatch.setattr(mbqc, "_execute_dense", spy_dense)
    consume(tmp_path, monkeypatch, "standard")
    (loaded, snapshot, stripped), = strips
    assert runs and all(ops == {} for ops in runs)
    pattern, _ = mbqc.carved_wire_pattern(stripped, 0, 210)
    mbqc.execute_pattern(stripped, pattern, backend="stabilizer", rng=np.random.default_rng(1))
    assert stripped.vertex_ops == {}
    assert loaded.vertex_ops and loaded == snapshot


def engine_released_before_assembly(monkeypatch, backend: str, engine_cls) -> list[bool]:
    """Run a 4x4 standard protocol, and at assembly note whether the first
    ``engine_cls`` instance built is gone."""
    refs, seen = [], []
    init = engine_cls.__init__

    def spy_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    assemble = lattice._assemble_graph

    def spy_assemble(*args):
        gc.collect()
        seen.append(refs[0]() is None)
        return assemble(*args)

    with monkeypatch.context() as m:
        m.setattr(engine_cls, "__init__", spy_init)
        m.setattr(lattice, "_assemble_graph", spy_assemble)
        result = run_protocol(DonorLattice(4, 4), standard_protocol(), backend=backend)
    assert result.graph.n == 16
    return seen


def test_engine_is_released_before_assembly(monkeypatch):
    """run_protocol drops its engine once the nuclear graph is extracted, so
    the engine never coexists with the assembled graph, on every backend."""
    engines = {"stabilizer": GraphSimulator, "tableau": StabilizerTableau,
               "statevector": DenseRegister}
    for backend, engine_cls in engines.items():
        assert engine_released_before_assembly(monkeypatch, backend, engine_cls) == [True]


def test_assembly_refuses_a_graph_that_does_not_cover_the_sites():
    with pytest.raises(AssertionError):
        lattice._assemble_graph(3, {0: set(), 1: set()}, {})
    with pytest.raises(AssertionError):
        lattice._assemble_graph(2, {0: {1}, 1: set()}, {})
