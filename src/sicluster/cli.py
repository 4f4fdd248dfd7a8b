"""Command-line driver: every pipeline stage, deterministic and scriptable.

Subcommands: build-cluster, verify-protocol, pulse, mbqc, timing, survey.
Exit codes: 0 success, 1 failed check, 2 configuration error, 3 resource cap
exceeded, 4 infeasible carve.  Identical (config, seed) pairs produce
byte-identical outputs: all JSON is key-sorted, floats print via repr, and
nothing records wall-clock time.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

import numpy as np

from sicluster import graphstate
from sicluster.graphstate import GraphState, graph_from_json, grid_graph, line_graph
from sicluster.lattice import (
    CANONICAL_PROTOCOLS,
    DonorLattice,
    GlobalCPhase,
    MeasureElectrons,
    PrepareAllPlus,
    ProtocolError,
    ReprepareElectronsPlus,
    Shuttle,
    predicted_edge_set,
    run_protocol,
)
from sicluster.mbqc import (
    MeasurementPattern,
    NoPathError,
    PatternError,
    canonical_adjacency,
    carved_wire_pattern,
    execute_pattern,
    rotation_chain_pattern,
    rotation_chain_target,
    verify_logical,
    wire_pattern,
)
from sicluster.noise import (
    DefectModel,
    TimingModel,
    dead_pixel_survey,
    figure_of_merit,
    inject_noise,
    preparation_time,
)
from sicluster.pulse import TWO_PI, fidelity_sweep, selectivity_trend, sweep_csv
from sicluster.rng import substream
from sicluster.statevec import SizeCapError
from sicluster.tableau import Basis

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NO_PATH = 4


class ConfigError(ValueError):
    pass


# -- config handling ------------------------------------------------------------

_TOP_KEYS = {"lx", "ly", "dead", "protocol", "seed", "backend", "defects", "timing"}
_DEFECT_KEYS = {"eps_meas", "p_shuttle", "p_init_e", "p_init_n", "t2n", "t1e"}
_TIMING_KEYS = {"shuttle_rate", "cphase_total", "meas_rate", "mode",
                "parallel_shift_count"}


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    for sub, keys in (("defects", _DEFECT_KEYS), ("timing", _TIMING_KEYS)):
        if sub in doc:
            if not isinstance(doc[sub], dict):
                raise ConfigError(f"{path}: {sub} must be an object")
            bad = set(doc[sub]) - keys
            if bad:
                raise ConfigError(f"{path}: unknown {sub} keys {sorted(bad)}")
    return doc


def steps_from_config(spec) -> list:
    if isinstance(spec, str):
        if spec not in CANONICAL_PROTOCOLS:
            raise ConfigError(f"unknown protocol {spec!r}; "
                              f"choices: {sorted(CANONICAL_PROTOCOLS)} or a step list")
        return CANONICAL_PROTOCOLS[spec]()
    if not isinstance(spec, list):
        raise ConfigError("protocol must be a name or a list of steps")
    steps = []
    for entry in spec:
        if not isinstance(entry, dict) or "op" not in entry:
            raise ConfigError(f"bad protocol step {entry!r}")
        op = entry["op"]
        try:
            if op == "prepare_all_plus":
                steps.append(PrepareAllPlus(entry.get("species", "both")))
            elif op == "global_cphase":
                steps.append(GlobalCPhase())
            elif op == "shuttle":
                steps.append(Shuttle(entry["direction"]))
            elif op == "measure_electrons":
                steps.append(MeasureElectrons(Basis(entry.get("basis", "Y"))))
            elif op == "reprepare_electrons_plus":
                steps.append(ReprepareElectronsPlus())
            else:
                raise ConfigError(f"unknown protocol op {op!r}")
        except (KeyError, ValueError, ProtocolError) as exc:
            raise ConfigError(f"bad protocol step {entry!r}: {exc}") from exc
    return steps


def _seed(text: str) -> int:
    """argparse type of every --seed: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_size(text: str) -> tuple[int, int]:
    try:
        lx, ly = text.lower().split("x")
        lx, ly = int(lx), int(ly)
    except ValueError as exc:
        raise ConfigError(f"--size expects LXxLY, got {text!r}") from exc
    if lx < 1 or ly < 1:
        raise ConfigError("lattice dimensions must be >= 1")
    return lx, ly


def _parse_dead(text: str | None) -> set[tuple[int, int]]:
    if not text:
        return set()
    out = set()
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            i, j = part.split(",")
            out.add((int(i), int(j)))
        except ValueError as exc:
            raise ConfigError(f"--dead expects i,j;i,j..., got {text!r}") from exc
    return out


def _merged_run_config(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    if getattr(args, "size", None):
        cfg["lx"], cfg["ly"] = _parse_size(args.size)
    if getattr(args, "protocol", None):
        cfg["protocol"] = args.protocol
    if getattr(args, "backend", None):
        cfg["backend"] = args.backend
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "dead", None):
        cfg["dead"] = sorted(_parse_dead(args.dead))
    cfg.setdefault("lx", 2)
    cfg.setdefault("ly", 2)
    cfg.setdefault("protocol", "standard")
    cfg.setdefault("backend", "stabilizer")
    cfg.setdefault("seed", 0)
    cfg.setdefault("dead", [])
    return cfg


def _dump_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ": "),
                      default=_json_default) + "\n"


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)


# -- build-cluster ----------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_run_config(cfg: dict) -> None:
    """Type checks for the values a JSON config can set to anything."""
    for key in ("lx", "ly"):
        if not _is_int(cfg[key]):
            raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}")
    if not _is_int(cfg["seed"]) or cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    dead = cfg["dead"]
    if not isinstance(dead, (list, tuple)) or not all(
            isinstance(site, (list, tuple)) and len(site) == 2
            and all(_is_int(x) for x in site) for site in dead):
        raise ConfigError(f"dead must be a list of [i, j] integer pairs, got {dead!r}")


def cmd_build_cluster(args) -> int:
    cfg = _merged_run_config(args)
    _check_run_config(cfg)
    try:
        steps = steps_from_config(cfg["protocol"])
        lattice = DonorLattice(cfg["lx"], cfg["ly"], dead=cfg["dead"])
    except ProtocolError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        tm = TimingModel(**cfg.get("timing", {}))
        dm = DefectModel(**cfg.get("defects", {}))
    except (TypeError, ValueError) as exc:  # JSON values of any type reach here
        raise ConfigError(str(exc)) from exc
    # The engine and the export make hundreds of thousands of sets and
    # strings but no reference cycle: reference counting frees them, and the
    # cyclic collector would only rescan them.  The caller's setting is restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        if args.with_noise:
            report_noise = inject_noise(lattice, steps, dm, tm, seed=cfg["seed"],
                                        backend=cfg["backend"])
            result = report_noise.result
            error_log = report_noise.error_log
        else:
            rng = substream(cfg["seed"], "measure")
            result = run_protocol(lattice, steps, backend=cfg["backend"], rng=rng)
            error_log = []
        n_nuclei = lattice.n_sites
        report = {
            "backend": result.backend,
            "config": {k: cfg[k] for k in ("lx", "ly", "dead", "seed")},
            "protocol": cfg["protocol"] if isinstance(cfg["protocol"], str) else "custom",
            "graph": {"vertices": result.graph.n, "edges": result.graph.edge_count()},
            "outcomes": [[q, b, o] for q, b, o in result.outcomes],
            "frame": result.frame.as_dict(),
            "error_log": [list(e) for e in error_log],
            "timing": {
                "preparation_time_s": {
                    "sequential": preparation_time(n_nuclei, tm, mode="sequential"),
                    "parallel": preparation_time(n_nuclei, tm, mode="parallel"),
                },
                "figure_of_merit": figure_of_merit(dm.t2n, tm.meas_rate),
            },
        }
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        fmts = ["dot", "json"] if args.format == "both" else [args.format]
        walk = result.graph.sorted_walk()
        for fmt in fmts:
            (out_dir / f"cluster.{fmt}").write_bytes(graphstate.export(result.graph, fmt, walk))
        (out_dir / "report.json").write_text(_dump_json(report))
        sys.stdout.write(f"wrote {out_dir}/cluster.{{{','.join(fmts)}}} and report.json "
                         f"({result.graph.n} vertices, {result.graph.edge_count()} edges)\n")
    finally:
        if gc_was_enabled:
            gc.enable()
    return EXIT_OK


# -- verify-protocol ----------------------------------------------------------------


def _verify_cases() -> list[tuple[int, int]]:
    sizes = []
    for lx in range(1, 12):
        for ly in range(1, 12):
            if lx * ly <= 11:
                sizes.append((lx, ly))
    sizes += [(4, 3), (3, 4), (8, 8)]
    return sizes


def cmd_verify_protocol(args) -> int:
    rows = []
    failures = 0
    for lx, ly in _verify_cases():
        lattice = DonorLattice(lx, ly)
        for name in ("standard", "square"):
            steps = CANONICAL_PROTOCOLS[name]()
            predicted = predicted_edge_set(lattice, steps)
            res_st = run_protocol(lattice, steps, backend="stabilizer",
                                  rng=substream(args.seed, "verify", lx, ly, name))
            checks = [("stabilizer=predictor",
                       set(res_st.graph.edges()) == set(predicted))]
            try:
                res_sv = run_protocol(lattice, steps, backend="statevector",
                                      rng=substream(args.seed, "verify", lx, ly, name))
            except SizeCapError as exc:
                rows.append(f"SKIP {name} {lx}x{ly} statevector ({exc})")
            else:
                checks.append(("statevector=predictor",
                               set(res_sv.graph.edges()) == set(predicted)))
                checks.append(("backends-agree",
                               res_sv.graph == res_st.graph
                               and res_sv.frame == res_st.frame))
            for label, ok in checks:
                status = "PASS" if ok else "FAIL"
                if not ok:
                    failures += 1
                rows.append(f"{status} {name} {lx}x{ly} {label}")
    out = "\n".join(rows) + f"\n{'FAIL' if failures else 'PASS'}: " \
        f"{failures} failed checks over {len(rows)} rows\n"
    _write(args.out, out)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


# -- pulse ---------------------------------------------------------------------------


def _parse_theta_list(text: str) -> list[float]:
    vals = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if part == "pi":
                vals.append(np.pi)
            elif part.endswith("pi"):
                vals.append(float(part[:-2]) * np.pi)
            else:
                vals.append(float(part))
        except ValueError as exc:
            raise ConfigError(f"bad theta value {part!r}") from exc
    for v in vals:
        if not 0.0 <= v <= TWO_PI:
            raise ConfigError(f"theta {v} outside [0, 2pi]")
    return vals


def _parse_omega_list(text: str) -> list[float | None]:
    vals: list[float | None] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in ("inst", "instantaneous", "inf"):
            vals.append(None)
        else:
            try:
                mhz = float(part)
            except ValueError as exc:
                raise ConfigError(f"bad omega1 value {part!r} (MHz or 'inst')") from exc
            if not np.isfinite(mhz) or mhz <= 0:
                raise ConfigError(f"omega1 must be a positive finite number, got {part!r}")
            vals.append(TWO_PI * mhz * 1e6)
    return vals


def cmd_pulse(args) -> int:
    thetas = _parse_theta_list(args.theta)
    omegas = _parse_omega_list(args.omega1)
    if not thetas or not omegas:
        raise ConfigError("pulse sweep grids must be non-empty")
    rows = fidelity_sweep(thetas, omegas)
    text = sweep_csv(rows)
    if args.trend:
        text += f"# {selectivity_trend(rows)}\n"
    _write(args.out, text)
    return EXIT_OK


# -- mbqc ----------------------------------------------------------------------------


def _cluster_from_spec(spec: str) -> GraphState:
    kind, _, rest = spec.partition(":")
    if kind == "line":
        try:
            return line_graph(int(rest))
        except ValueError as exc:
            raise ConfigError(f"bad line size {rest!r}") from exc
    if kind == "grid":
        lx, ly = _parse_size(rest)
        return grid_graph(lx, ly)
    if kind == "file":
        try:
            return graph_from_json(Path(rest).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read cluster file {rest}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad cluster file {rest}: {exc}") from exc
    raise ConfigError(f"unknown cluster spec {spec!r} (line:N, grid:LXxLY, file:PATH)")


def _builtin_pattern(spec: str) -> tuple[MeasurementPattern, np.ndarray | None]:
    kind, _, rest = spec.partition(":")
    if kind == "wire":
        try:
            n = int(rest)
        except ValueError as exc:
            raise ConfigError(f"wire:N expected, got {rest!r}") from exc
        return wire_pattern(n), np.eye(2, dtype=complex)
    if kind == "rotation":
        try:
            a, b, g = (float(x) for x in rest.split(","))
        except ValueError as exc:
            raise ConfigError(f"rotation:A,B,G expected, got {rest!r}") from exc
        return rotation_chain_pattern(a, b, g), rotation_chain_target(a, b, g)
    raise ConfigError(f"unknown builtin pattern {spec!r}")


def cmd_mbqc(args) -> int:
    cluster = _cluster_from_spec(args.cluster)
    if args.strip_ops:
        cluster = canonical_adjacency(cluster)
    forbidden = set()
    if args.dead_vertices:
        try:
            forbidden = {int(v) for v in args.dead_vertices.split(",")}
        except ValueError as exc:
            raise ConfigError(f"bad --dead-vertices {args.dead_vertices!r}") from exc

    report: dict = {"cluster": args.cluster, "seed": args.seed}
    if args.carve:
        try:
            start_s, end_s = args.carve.split(":")
            start, end = int(start_s), int(end_s)
        except ValueError as exc:
            raise ConfigError(f"--carve expects START:END, got {args.carve!r}") from exc
        pattern, path = carved_wire_pattern(cluster, start, end, forbidden)
        report["carve"] = {
            "path": path,
            "z_prefix": sorted(st.vertex for st in pattern.steps if st.basis == "Z"),
        }
        if len(path) % 2 == 1:
            rep = verify_logical(cluster, pattern, np.eye(2, dtype=complex),
                                 seeds=range(args.verify_seeds), root_seed=args.seed)
            report["identity_wire_distance"] = rep.distance
            report["distance_ok"] = rep.ok()
        text = _dump_json(report)
        _write(args.out, text)
        return EXIT_OK

    if args.pattern:
        try:
            text = Path(args.pattern).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read pattern {args.pattern}: {exc}") from exc
        pattern = MeasurementPattern.from_json(text)
        target = None
        if args.target == "identity":
            dim = 1 << len(pattern.inputs)
            target = np.eye(dim, dtype=complex)
    elif args.builtin:
        pattern, target = _builtin_pattern(args.builtin)
    else:
        raise ConfigError("mbqc needs --pattern, --builtin or --carve")

    res = execute_pattern(cluster, pattern, backend=args.backend,
                          rng=substream(args.seed, "mbqc"))
    report["outcomes"] = [[v, res.outcomes[v]] for v in res.order]
    report["frame"] = res.frame.as_dict()
    if target is not None and args.backend == "statevector":
        rep = verify_logical(cluster, pattern, target,
                             seeds=range(args.verify_seeds), root_seed=args.seed)
        report["channel_distance"] = rep.distance
        report["distance_ok"] = rep.ok()
        report["per_input_distance"] = rep.per_input
    _write(args.out, _dump_json(report))
    return EXIT_OK


# -- timing ---------------------------------------------------------------------------


def cmd_timing(args) -> int:
    try:
        ns = [int(x) for x in args.n.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --n list {args.n!r}") from exc
    if not ns:
        raise ConfigError("--n list is empty")
    if min(ns) < 1:
        raise ConfigError("--n counts must be >= 1")
    try:
        tm = TimingModel(shuttle_rate=args.shuttle_rate, cphase_total=args.cphase_total,
                         meas_rate=args.meas_rate)
        fom = figure_of_merit(args.t2n, args.meas_rate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    modes = ["sequential", "parallel"] if args.mode == "both" else [args.mode]
    lines = ["N,mode,seconds"]
    for n in ns:
        for mode in modes:
            lines.append(f"{n},{mode},{preparation_time(n, tm, mode=mode)!r}")
    lines.append(f"# figure_of_merit(T2n={args.t2n!r}s, meas_rate={args.meas_rate!r}Hz)"
                 f" = {fom!r}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# -- survey ---------------------------------------------------------------------------


def cmd_survey(args) -> int:
    lx, ly = _parse_size(args.size)
    if args.pairs < 0:
        raise ConfigError("--pairs must be >= 0")
    graphstate.check_site_cap(lx * ly)  # refuse an oversized lattice before the dead draw
    dead = _parse_dead(args.dead)
    if args.dead_fraction:
        if not 0.0 <= args.dead_fraction <= 1.0:
            raise ConfigError("--dead-fraction must be in [0, 1]")
        rng = substream(args.seed, "survey-dead")
        n_dead = int(round(args.dead_fraction * lx * ly))
        chosen = rng.choice(lx * ly, size=n_dead, replace=False)
        dead |= {(int(s) // ly, int(s) % ly) for s in chosen}
    steps = steps_from_config(args.protocol)
    report = dead_pixel_survey(DonorLattice(lx, ly, dead=dead), DefectModel(), steps,
                               seed=args.seed, n_pairs=args.pairs)
    report["size"] = f"{lx}x{ly}"
    report["protocol"] = args.protocol
    _write(args.out, _dump_json(report))
    return EXIT_OK


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sicluster",
        description="Silicon-donor cluster-state architecture simulator")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build-cluster", help="run a protocol and export the cluster")
    b.add_argument("--size", help="lattice as LXxLY, e.g. 3x3")
    b.add_argument("--protocol", choices=sorted(CANONICAL_PROTOCOLS))
    b.add_argument("--backend", choices=["stabilizer", "statevector"])
    b.add_argument("--seed", type=_seed)
    b.add_argument("--dead", help="dead sites as i,j;i,j")
    b.add_argument("--config", help="JSON config file")
    b.add_argument("--with-noise", action="store_true",
                   help="inject the configured defect model")
    b.add_argument("--out", default="out", help="output directory")
    b.add_argument("--format", choices=["dot", "json", "both"], default="both")
    b.set_defaults(func=cmd_build_cluster)

    v = sub.add_parser("verify-protocol",
                       help="backend-agreement and predictor property suite")
    v.add_argument("--seed", type=_seed, default=0)
    v.add_argument("--out", default=None)
    v.add_argument("--format", choices=["text"], default="text")
    v.set_defaults(func=cmd_verify_protocol)

    pl = sub.add_parser("pulse", help="composite-gate fidelity sweep (CSV)")
    pl.add_argument("--theta", default="pi",
                    help="comma list of angles in radians ('pi', '0.5pi', 1.57)")
    pl.add_argument("--omega1", default="inst,25",
                    help="comma list of Rabi frequencies in MHz or 'inst'")
    pl.add_argument("--trend", action="store_true",
                    help="append the selectivity trend summary line")
    pl.add_argument("--seed", type=_seed)
    pl.add_argument("--out", default=None)
    pl.add_argument("--format", choices=["csv"], default="csv")
    pl.set_defaults(func=cmd_pulse)

    m = sub.add_parser("mbqc", help="execute a measurement pattern")
    m.add_argument("--cluster", default="line:3",
                   help="line:N | grid:LXxLY | file:PATH")
    m.add_argument("--pattern", help="pattern JSON file")
    m.add_argument("--builtin", help="wire:N | rotation:A,B,G")
    m.add_argument("--carve", help="START:END vertex ids for wire carving")
    m.add_argument("--dead-vertices", help="comma list of forbidden vertex ids")
    m.add_argument("--strip-ops", action="store_true",
                   help="run on the canonical adjacency of an exported graph "
                        "(vertex operators stay byproduct bookkeeping)")
    m.add_argument("--target", choices=["identity"], default=None)
    m.add_argument("--backend", choices=["statevector", "stabilizer"],
                   default="statevector")
    m.add_argument("--verify-seeds", type=int, default=5)
    m.add_argument("--seed", type=_seed, default=0)
    m.add_argument("--out", default=None)
    m.add_argument("--format", choices=["json"], default="json")
    m.set_defaults(func=cmd_mbqc)

    t = sub.add_parser("timing", help="preparation-time table and figure of merit")
    t.add_argument("--n", default="1,100,10000", help="comma list of qubit counts")
    t.add_argument("--mode", choices=["sequential", "parallel", "both"],
                   default="both")
    t.add_argument("--shuttle-rate", type=float, default=1e6, dest="shuttle_rate")
    t.add_argument("--cphase-total", type=float, default=1e-7, dest="cphase_total")
    t.add_argument("--meas-rate", type=float, default=4e4, dest="meas_rate")
    t.add_argument("--t2n", type=float, default=2.5)
    t.add_argument("--seed", type=_seed)
    t.add_argument("--out", default=None)
    t.add_argument("--format", choices=["csv"], default="csv")
    t.set_defaults(func=cmd_timing)

    s = sub.add_parser("survey", help="dead-pixel topology survey")
    s.add_argument("--size", default="20x20")
    s.add_argument("--protocol", default="standard")
    s.add_argument("--dead", help="dead sites as i,j;i,j")
    s.add_argument("--dead-fraction", type=float, default=0.0)
    s.add_argument("--pairs", type=int, default=100)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=["json"], default="json")
    s.set_defaults(func=cmd_survey)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PatternError, ProtocolError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SizeCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except NoPathError as exc:
        print(f"no path: {exc}", file=sys.stderr)
        return EXIT_NO_PATH


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
