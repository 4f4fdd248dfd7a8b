"""Timing spans around the public entry points of each sicluster layer.

The tracer patches module and class attributes of the imported package in
this process only, and puts every original back on ``uninstall``.  Each
call becomes a span (name, start, end, parent span); spans stay in memory
and are written out once, when the benchmark ends.  Counters and gauges
are taken at the same boundaries.  A layer is the first component of a
span name; its self time is the time of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np

# Kernel functions whose calls and time are reported one by one; the other
# lane functions are still spanned so that tableau self time excludes them.
REPORTED_KERNELS = ("gate_cz", "measure_x_random", "group_sign", "clean_column",
                    "extract_rows_transposed", "rref_x_block")
LAYERS = ("cli", "lattice", "tableau", "kernels", "statevec", "mbqc",
          "graphstate", "noise", "pulse")

PER_LAYER_METRICS = (
    [("tableau.cz_calls", "count"), ("tableau.cz_s", "s"),
     ("tableau.gate1q_calls", "count"), ("tableau.gate1q_s", "s"),
     ("tableau.measure_random", "count"), ("tableau.measure_deterministic", "count"),
     ("tableau.measure_s", "s"), ("tableau.restrict_s", "s"),
     ("tableau.graph_reduce_s", "s"), ("tableau.from_graph_s", "s"),
     ("tableau.alloc_mb", "MB")]
    + [(f"kernels.{k}_{suffix}", unit) for k in REPORTED_KERNELS
       for suffix, unit in (("calls", "count"), ("s", "s"))]
    + [("lattice.run_protocol_s", "s"), ("lattice.run_protocol_self_s", "s"),
       ("lattice.predict_s", "s"),
       ("statevec.measure_calls", "count"), ("statevec.measure_s", "s"),
       ("statevec.cz_s", "s"), ("statevec.contract_s", "s"),
       ("statevec.to_tableau_s", "s"), ("statevec.max_qubits", "count"),
       ("mbqc.carve_s", "s"), ("mbqc.execute_stabilizer_s", "s"),
       ("mbqc.execute_dense_s", "s"), ("mbqc.measurements", "count"),
       ("graphstate.export_s", "s"), ("cli.self_s", "s"),
       ("noise.hooks_s", "s"), ("noise.errors_injected", "count"),
       ("noise.survey_s", "s"),
       ("pulse.propagator_s", "s"), ("pulse.fidelity_s", "s"),
       ("pulse.points", "count")]
    + [(f"{layer}.layer_self_s", "s") for layer in LAYERS if layer != "cli"]
    + [("trace.spans", "count"), ("trace.untraced_round_s", "s"),
       ("trace.traced_round_s", "s"), ("trace.overhead_s", "s"),
       ("trace.overhead_ratio", "ratio")]
)

# Span name -> metric reported as (calls, seconds); None drops one of them.
_SPAN_METRICS = {
    "tableau.cz": ("tableau.cz_calls", "tableau.cz_s"),
    "tableau.gate1q": ("tableau.gate1q_calls", "tableau.gate1q_s"),
    "tableau.measure": (None, "tableau.measure_s"),
    "tableau.restrict": (None, "tableau.restrict_s"),
    "tableau.graph_reduce": (None, "tableau.graph_reduce_s"),
    "tableau.from_graph": (None, "tableau.from_graph_s"),
    "lattice.run_protocol": (None, "lattice.run_protocol_s"),
    "lattice.predict": (None, "lattice.predict_s"),
    "statevec.measure": ("statevec.measure_calls", "statevec.measure_s"),
    "statevec.cz": (None, "statevec.cz_s"),
    "statevec.contract": (None, "statevec.contract_s"),
    "statevec.to_tableau": (None, "statevec.to_tableau_s"),
    "mbqc.carve": (None, "mbqc.carve_s"),
    "mbqc.execute_stabilizer": (None, "mbqc.execute_stabilizer_s"),
    "mbqc.execute_dense": (None, "mbqc.execute_dense_s"),
    "graphstate.export": (None, "graphstate.export_s"),
    "noise.hooks": (None, "noise.hooks_s"),
    "noise.survey": (None, "noise.survey_s"),
    "pulse.propagator": (None, "pulse.propagator_s"),
    "pulse.fidelity": ("pulse.points", "pulse.fidelity_s"),
}
_SPAN_METRICS.update({f"kernels.{k}": (f"kernels.{k}_calls", f"kernels.{k}_s")
                      for k in REPORTED_KERNELS})


class Tracer:
    """In-memory span recorder with counters and max-gauges."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def span(self, fn, name, name_of=None, after=None):
        """Wrap ``fn`` so each call records a span.  ``name_of(args)`` may pick
        the span name per call; ``after(args, result)`` may update counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.starts)
            tracer.names.append(name_of(args) if name_of else name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.starts[sid] = t0
                tracer.ends[sid] = t1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def gauge_max(self, key: str, value: float) -> None:
        if value > self.gauges.get(key, float("-inf")):
            self.gauges[key] = value

    def patch(self, owner, attr: str, name: str, name_of=None, after=None,
              static: bool = False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapped = self.span(fn, name, name_of, after)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting ------------------------------------------------------------

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span (total, self) seconds."""
        total = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, np.int64)
        child = np.zeros_like(total)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], total[has_parent])
        return total, total - child

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        total, self_t = self.durations()
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += float(total[i])
            row["self_s"] += float(self_t[i])
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except the trace.* overhead figures."""
        by_name = self.summary()
        metrics = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER_METRICS
                   if not name.startswith("trace.")}
        for span_name, (calls_key, secs_key) in _SPAN_METRICS.items():
            row = by_name.get(span_name)
            if row is None:
                continue
            if calls_key:
                metrics[calls_key] = row["calls"]
            if secs_key:
                metrics[secs_key] = row["total_s"]
        for layer in LAYERS:
            own = sum(r["self_s"] for n, r in by_name.items() if n.split(".")[0] == layer)
            metrics["cli.self_s" if layer == "cli" else f"{layer}.layer_self_s"] = own
        metrics["lattice.run_protocol_self_s"] = by_name.get(
            "lattice.run_protocol", {}).get("self_s", 0.0)
        for key in ("tableau.measure_random", "tableau.measure_deterministic",
                    "mbqc.measurements", "noise.errors_injected"):
            metrics[key] = self.counts[key]
        metrics["tableau.alloc_mb"] = self.gauges.get("tableau.alloc_mb", 0.0)
        metrics["statevec.max_qubits"] = self.gauges.get("statevec.max_qubits", 0)
        return metrics

    def write(self, path: Path, extra: dict) -> None:
        """Spans as columns (name index, start, end, parent) plus a summary."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = min(self.starts) if self.starts else 0.0
        np.savez_compressed(
            path.with_suffix(".npz"),
            name=np.array([index[n] for n in self.names], np.int32),
            start=np.asarray(self.starts) - t0,
            end=np.asarray(self.ends) - t0,
            parent=np.asarray(self.parents, np.int64))
        doc = dict(extra, names=table, spans=self.summary(),
                   counts=dict(self.counts), gauges=self.gauges)
        path.with_suffix(".json").write_text(json.dumps(doc, indent=1, sort_keys=True))


def install(tracer: Tracer) -> None:
    """Span the public entry points of every layer of the imported package."""
    from sicluster import _kernels, cli, graphstate, lattice, mbqc, noise, pulse, statevec, tableau

    gate1q = {"H", "S", "SDG", "X", "Y", "Z"}

    def gate_name(args):
        g = args[1].upper()
        return "tableau.cz" if g == "CZ" else (
            "tableau.gate1q" if g in gate1q else "tableau.gate2q")

    def count_measure(args, out):
        tracer.counts["tableau.measure_deterministic" if out[1]
                      else "tableau.measure_random"] += 1

    def count_alloc(args, out):
        n = args[1]
        tracer.gauge_max("tableau.alloc_mb", 2 * n * ((2 * n + 63) // 64) * 8 / 2**20)

    def count_qubits(args, out):
        tracer.gauge_max("statevec.max_qubits", args[1])

    def count_steps(args, out):
        tracer.counts["mbqc.measurements"] += len(args[1].steps)

    def count_errors(args, out):
        tracer.counts["noise.errors_injected"] += len(out.error_log)

    # tableau
    st = tableau.StabilizerTableau
    tracer.patch(st, "__init__", "tableau.alloc", after=count_alloc)
    tracer.patch(st, "apply_gate", "", name_of=gate_name)
    tracer.patch(st, "_measure_impl", "tableau.measure", after=count_measure)
    for owner in (tableau, lattice, mbqc):
        tracer.patch(owner, "restricted_stab_graph", "tableau.restrict")
    tracer.patch(tableau, "graph_from_stab_matrix", "tableau.graph_reduce")
    for owner in (tableau, mbqc):
        tracer.patch(owner, "from_graph_state", "tableau.from_graph")

    # kernels: a copy of the active lane class with every kernel spanned
    lane = _kernels.active_lane()
    proxy_cls = type("TracedLane", (), {"name": lane.name})
    for attr, value in type(lane).__dict__.items():
        if isinstance(value, staticmethod):
            setattr(proxy_cls, attr, value)
            tracer.patch(proxy_cls, attr, f"kernels.{attr}", static=True)
    tracer._patched.append((_kernels, "_ACTIVE", lane))
    _kernels._ACTIVE = proxy_cls()

    # protocol runner and predictor
    for owner in (lattice, cli, noise):
        tracer.patch(owner, "run_protocol", "lattice.run_protocol")
    for owner in (lattice, cli):
        tracer.patch(owner, "predicted_edge_set", "lattice.predict")

    # dense oracle
    sv = statevec.StateVector
    tracer.patch(sv, "__init__", "statevec.alloc", after=count_qubits)
    tracer.patch(sv, "apply_1q", "statevec.gate1q")
    tracer.patch(sv, "apply_cz", "statevec.cz")
    tracer.patch(sv, "measure", "statevec.measure")
    tracer.patch(sv, "measure_xy_angle", "statevec.measure")
    tracer.patch(sv, "contract", "statevec.contract")
    for owner in (statevec, lattice):
        tracer.patch(owner, "tableau_from_statevector", "statevec.to_tableau")

    # one-way model
    for owner in (mbqc, noise):
        tracer.patch(owner, "carve_wire", "mbqc.carve")
    tracer.patch(mbqc, "carved_wire_pattern", "mbqc.carved_wire_pattern")
    tracer.patch(mbqc, "execute_pattern", "mbqc.execute_pattern")
    tracer.patch(mbqc, "_execute_stabilizer", "mbqc.execute_stabilizer", after=count_steps)
    tracer.patch(mbqc, "_execute_dense", "mbqc.execute_dense", after=count_steps)
    tracer.patch(mbqc, "verify_logical", "mbqc.verify_logical")

    # export, CLI, noise, pulse
    tracer.patch(graphstate, "export", "graphstate.export")
    tracer.patch(cli, "main", "cli.main")
    for hook in ("after_prepare", "before_shuttle", "filter_outcome", "before_extract"):
        tracer.patch(noise.NoiseInjector, hook, "noise.hooks")
    for owner in (noise, cli):
        tracer.patch(owner, "inject_noise", "noise.inject", after=count_errors)
    tracer.patch(noise, "dead_pixel_survey", "noise.survey")
    tracer.patch(pulse, "fidelity_sweep", "pulse.sweep")
    tracer.patch(pulse, "propagator", "pulse.propagator")
    tracer.patch(pulse, "gate_fidelity", "pulse.fidelity")
