"""Pinned build-cluster outputs, and the engine's release before assembly.

The digests below were taken before the single-qubit Clifford group became
table-driven and before run_protocol started dropping its engine ahead of
graph assembly; both changes must leave every output byte-identical.
"""

import gc
import hashlib
import json
import weakref

import pytest

from sicluster import lattice
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
