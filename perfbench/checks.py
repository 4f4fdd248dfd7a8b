"""Output checks computed apart from the program.

Every expected value here comes from a closed form or from a computation
that shares no code with ``sicluster``: the edge sets of both canonical
protocols on a lattice with dead sites, the electron-outcome counts, the
logical state of a one-way wire, the rotation-chain target, the pulse
timing arithmetic, and the connectivity facts of a dead-pixel survey.
Each ``check_*`` function returns a list of problems; an empty list means
the output is correct.  Nothing here imports the package under test.
"""

from __future__ import annotations

import hashlib

import numpy as np

SQ2 = 1.0 / np.sqrt(2.0)
KET_PLUS = np.array([SQ2, SQ2], complex)
_MATS = {
    "H": np.array([[SQ2, SQ2], [SQ2, -SQ2]], complex),
    "S": np.array([[1, 0], [0, 1j]], complex),
    "X": np.array([[0, 1], [1, 0]], complex),
    "Z": np.array([[1, 0], [0, -1]], complex),
}


def _sid(i: int, j: int, ly: int) -> int:
    return i * ly + j


def _live(lx: int, ly: int, dead, i: int, j: int) -> bool:
    return 0 <= i < lx and 0 <= j < ly and (i, j) not in dead


def standard_edges(lx: int, ly: int, dead=()) -> set[tuple[int, int]]:
    """Triangle {s, s+x, s+x+y} for every s whose three sites are live."""
    dead = set(dead)
    edges = set()
    for i in range(lx):
        for j in range(ly):
            tri = [(i, j), (i + 1, j), (i + 1, j + 1)]
            if all(_live(lx, ly, dead, a, b) for a, b in tri):
                ids = sorted(_sid(a, b, ly) for a, b in tri)
                edges |= {(ids[0], ids[1]), (ids[0], ids[2]), (ids[1], ids[2])}
    return edges


def square_edges(lx: int, ly: int, dead=()) -> set[tuple[int, int]]:
    """Edge s-(s+x) when both are live; (s+x)-(s+x+y) when all three are."""
    dead = set(dead)
    edges = set()
    for i in range(lx):
        for j in range(ly):
            if not (_live(lx, ly, dead, i, j) and _live(lx, ly, dead, i + 1, j)):
                continue
            edges.add((_sid(i, j, ly), _sid(i + 1, j, ly)))
            if _live(lx, ly, dead, i + 1, j + 1):
                edges.add((_sid(i + 1, j, ly), _sid(i + 1, j + 1, ly)))
    return edges


def expected_edges(protocol: str, lx: int, ly: int, dead=()) -> set[tuple[int, int]]:
    return {"standard": standard_edges, "square": square_edges}[protocol](lx, ly, dead)


def expected_outcome_count(protocol: str, lx: int, ly: int, dead=()) -> int:
    """Electron readouts: one per live site, plus one per live (s, s+x) pair
    for the square protocol, whose re-prepared electrons are read twice."""
    dead = set(dead)
    live = lx * ly - len(dead)
    if protocol == "standard":
        return live
    pairs = sum(1 for i in range(lx) for j in range(ly)
                if _live(lx, ly, dead, i, j) and _live(lx, ly, dead, i + 1, j))
    return live + pairs


def check_build(protocol: str, lx: int, ly: int, dead, cluster_doc: dict,
                report_doc: dict) -> list[str]:
    """Check an exported ``cluster.json`` and ``report.json`` pair."""
    problems = []
    n_vertices = len(cluster_doc["vertices"])
    if n_vertices != lx * ly:
        problems.append(f"{protocol} {lx}x{ly}: {n_vertices} vertices, want {lx * ly}")
    got = {tuple(sorted(e)) for e in cluster_doc["edges"]}
    want = expected_edges(protocol, lx, ly, dead)
    if got != want:
        problems.append(f"{protocol} {lx}x{ly}: edge set differs from the closed "
                        f"form ({len(got ^ want)} edges differ)")
    n_out = len(report_doc["outcomes"])
    want_out = expected_outcome_count(protocol, lx, ly, dead)
    if n_out != want_out:
        problems.append(f"{protocol} {lx}x{ly}: {n_out} outcomes, want {want_out}")
    if report_doc["graph"]["edges"] != len(got):
        problems.append(f"{protocol} {lx}x{ly}: report edge count disagrees with export")
    return problems


# -- engine agreement ------------------------------------------------------------


def check_engines_agree(label: str, a: dict, b: dict) -> list[str]:
    """Two engine outputs, each as {"edges", "ops", "frame", "outcomes"} of
    plain values, must agree exactly on every field."""
    return [f"{label}: engines disagree on {key}"
            for key in ("edges", "ops", "frame", "outcomes") if a[key] != b[key]]


def check_predictor(label: str, predicted: set, engine_edges: set) -> list[str]:
    if predicted != engine_edges:
        return [f"{label}: predictor edges differ from the engine "
                f"({len(predicted ^ engine_edges)} edges)"]
    return []


# -- one-way wires -----------------------------------------------------------------


def j_gate(a: float) -> np.ndarray:
    """J(a) = H diag(1, e^{ia})."""
    return _MATS["H"] @ np.diag([1.0, np.exp(1j * a)])


def chain_state(angles) -> np.ndarray:
    """J(-a_{k-1}) ... J(-a_0) |+>, the logical output of a measured chain."""
    psi = KET_PLUS.copy()
    for a in angles:
        psi = j_gate(-a) @ psi
    return psi


def word_matrix(word: str) -> np.ndarray:
    """Matrix of an H/S word whose leftmost letter acts last."""
    m = np.eye(2, dtype=complex)
    for letter in word:
        m = m @ _MATS[letter]
    return m


def corrected_output(word: str, x_bit: bool, z_bit: bool) -> np.ndarray:
    """Output vertex state (word)|+> after the frame's X then Z correction."""
    psi = word_matrix(word) @ KET_PLUS
    if x_bit:
        psi = _MATS["X"] @ psi
    if z_bit:
        psi = _MATS["Z"] @ psi
    return psi


def check_wire(label: str, angles, word: str, x_bit: bool, z_bit: bool,
               tol: float = 1e-9) -> list[str]:
    """The frame-corrected output must equal the closed-form chain state up to
    a global phase; for an identity wire that state is |+>."""
    got = corrected_output(word, x_bit, z_bit)
    overlap = abs(np.vdot(chain_state(angles), got))
    if abs(1.0 - overlap) > tol:
        return [f"{label}: output overlap with closed form is {overlap:.12f}"]
    return []


# -- rotation chains ---------------------------------------------------------------


def rotation_target(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Rx(gamma) Rz(beta) Rx(alpha), with R_P(t) = exp(-i t P / 2)."""
    def rot(p, t):
        return np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * _MATS[p]
    return rot("X", gamma) @ rot("Z", beta) @ rot("X", alpha)


def check_distance(label: str, distance: float, tol: float = 1e-9) -> list[str]:
    if not (0.0 <= distance < tol):
        return [f"{label}: channel distance {distance:.3e} not below {tol:g}"]
    return []


# -- pulse sweep ---------------------------------------------------------------------

GATE_RABI_HZ = 25e6
GATE_DURATION_S = 40e-9


def check_pulse_rows(rows, thetas, rabis_hz) -> list[str]:
    """Rows are theta-major over (thetas x rabis_hz); None marks the
    instantaneous limit.  The composite sequence is pi/2, theta, pi/2 at
    angular rate 2 pi f, so a finite gate lasts (pi + theta) / (2 pi f)."""
    problems = []
    grid = [(t, f) for t in thetas for f in rabis_hz]
    if len(rows) != len(grid):
        return [f"pulse sweep returned {len(rows)} rows for {len(grid)} points"]
    for row, (theta, f) in zip(rows, grid):
        fid, dur = row["fidelity"], row["duration_s"]
        if not 0.0 <= fid <= 1.0 + 1e-12:
            problems.append(f"pulse theta={theta:.4f} f={f}: fidelity {fid} out of range")
        if f is None:
            if abs(fid - 1.0) > 1e-9 or dur != 0.0:
                problems.append(f"pulse theta={theta:.4f} instantaneous: "
                                f"fidelity {fid!r}, duration {dur!r}")
        else:
            want = (np.pi + theta) / (2 * np.pi * f)
            if abs(dur - want) > 1e-12 * want:
                problems.append(f"pulse theta={theta:.4f} f={f}: duration {dur!r}, "
                                f"want {want!r}")
            if (theta == np.pi and f == GATE_RABI_HZ
                    and abs(dur - GATE_DURATION_S) > 1e-12 * GATE_DURATION_S):
                problems.append(f"pi gate at 25 MHz lasts {dur!r} s, want 40 ns")
    return problems


# -- dead-pixel survey ----------------------------------------------------------------


def substream_generator(seed: int, label: str) -> np.random.Generator:
    """The documented labelled-substream derivation: SeedSequence(seed) with
    the first 8 little-endian bytes of sha256(label) as spawn key."""
    key = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


def expected_survey(lx: int, ly: int, dead, seed: int, n_pairs: int) -> dict:
    """Survey facts of the standard cluster from the closed-form edge set."""
    dead = set(dead)
    n = lx * ly
    dead_ids = {_sid(i, j, ly) for i, j in dead}
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    degree = [0] * n
    for u, v in standard_edges(lx, ly, dead):
        degree[u] += 1
        degree[v] += 1
        parent[find(u)] = find(v)
    live = [v for v in range(n) if v not in dead_ids]
    sizes: dict[int, int] = {}
    for v in live:
        sizes[find(v)] = sizes.get(find(v), 0) + 1
    orphaned = sum(1 for v in live if degree[v] == 0)
    rng = substream_generator(seed, "survey-pairs")
    live_arr = np.array(live)
    ok = 0
    for _ in range(n_pairs):
        a, b = rng.choice(live_arr, 2, replace=False)
        ok += find(int(a)) == find(int(b))
    return {
        "n_sites": n,
        "dead": len(dead_ids),
        "orphaned": orphaned,
        "vertices_lost": len(dead_ids) + orphaned,
        "largest_component": max(sizes.values()),
        "components": len(sizes),
        "carve_pairs_tested": n_pairs,
        "carve_success_rate": ok / n_pairs,
    }


def check_survey(report: dict, lx: int, ly: int, dead, seed: int, n_pairs: int) -> list[str]:
    want = expected_survey(lx, ly, dead, seed, n_pairs)
    return [f"survey {key}: got {report.get(key)!r}, want {value!r}"
            for key, value in want.items() if report.get(key) != value]
