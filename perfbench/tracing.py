"""Layer spans recorded from outside pinnet, by patching its public functions.

Each traced name is replaced, for the length of a ``with tracer.installed():``
block, on the module where its caller looks it up (``pinnet.cli.integrate``
for the scenario pipeline, ``pinnet.simulate.integrate`` for direct calls),
so the package itself is never edited. A span records its name, start, end,
parent and the time its children covered; a layer's self time is its
duration minus that child time.

Right-hand-side calls are too many for one span each (about 10^4 per
scenario), so ``make_network_rhs`` is wrapped to return a timed closure whose
durations go into one flat array per pass and count as child time of the
enclosing ``integrate`` span.
"""

from __future__ import annotations

import contextlib
import functools
import os
from array import array
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import pinnet.cli
import pinnet.conditions
import pinnet.simulate


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _csv_bytes(args, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _trajectory_shape(args, result) -> dict:
    steps = len(result.times) - 1
    _, m, n = result.states.shape
    # integrate fills one (steps + 1, m + 1, n) float64 buffer: nodes plus reference
    return {"steps": steps, "m": m, "buffer_bytes": (steps + 1) * (m + 1) * n * 8}


def _matrix_size(args, result) -> dict:
    return {"m": int(np.shape(getattr(args[0], "entries", args[0]))[0])}


def _samples(args, result) -> dict:
    return {"samples": int(result.detail["samples"])}


# (module, attribute, span name, attribute extractor): every place a caller
# looks up a traced function at the parent commit.
TRACED = [
    (pinnet.cli, "run_sweep", "cli.run_sweep", None),
    (pinnet.cli, "run_scenario", "cli.run_scenario", None),
    (pinnet.cli, "check_scenario", "cli.check_scenario", None),
    (pinnet.cli, "parse_scenario", "cli.parse_scenario", None),
    (pinnet.cli, "write_trajectory_csv", "cli.write_trajectory_csv", _csv_bytes),
    (pinnet.cli, "write_metrics_csv", "cli.write_metrics_csv", _csv_bytes),
    (pinnet.cli, "integrate", "simulate.integrate", _trajectory_shape),
    (pinnet.simulate, "integrate", "simulate.integrate", _trajectory_shape),
    (pinnet.cli, "metrics", "simulate.metrics", None),
    (pinnet.simulate, "metrics", "simulate.metrics", None),
    (pinnet.cli, "lyapunov_monitor", "simulate.lyapunov_monitor", None),
    (pinnet.cli, "decay_rate_fit", "simulate.decay_rate_fit", None),
    (pinnet.cli, "validate_coupling", "model.validate_coupling", None),
    (pinnet.conditions, "validate_coupling", "model.validate_coupling", None),
    (pinnet.cli, "proposition1_holds", "conditions.proposition1_holds", None),
    (pinnet.cli, "theorem4_check", "conditions.theorem4_check", None),
    (pinnet.cli, "quad_check_sampled", "conditions.quad_check_sampled", _samples),
    (pinnet.conditions, "quad_check_sampled", "conditions.quad_check_sampled", _samples),
    (pinnet.conditions, "sym_eigen", "linalg.sym_eigen", _matrix_size),
    (pinnet.cli, "scc_condensation", "linalg.scc_condensation", None),
    (pinnet.conditions, "scc_condensation", "linalg.scc_condensation", None),
    (pinnet.cli, "left_null_vector", "linalg.left_null_vector", None),
    (pinnet.conditions, "left_null_vector", "linalg.left_null_vector", None),
]


def _total(spans, name, key="duration") -> float:
    return float(sum(getattr(s, key) for s in spans if s.name == name))


def _attr_total(spans, name, key) -> int:
    return int(sum(s.attrs.get(key, 0) for s in spans if s.name == name))


class Tracer:
    """Spans and right-hand-side call durations of one traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.rhs_s = array("d")
        self._open: list[Span] = []

    def reset(self) -> None:
        self.spans = []
        self.rhs_s = array("d")

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, perf_counter(), 0.0, parent.name if parent else None)
            self._open.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                if parent is not None:
                    parent.child_s += span.duration
                self.spans.append(span)
            if extract is not None:
                span.attrs = extract(args, result)
            return result

        return traced

    def _wrap_rhs_factory(self, factory):
        @functools.wraps(factory)
        def traced_factory(sys):
            rhs = factory(sys)
            # bound once per integrate call so reset() between passes is safe
            record = self.rhs_s.append
            enclosing = self._open[-1] if self._open else None

            def timed_rhs(y, t):
                t0 = perf_counter()
                out = rhs(y, t)
                elapsed = perf_counter() - t0
                record(elapsed)
                if enclosing is not None:
                    enclosing.child_s += elapsed
                return out

            return timed_rhs

        return traced_factory

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the block, restoring the originals after."""
        saved = []
        try:
            for module, attr, name, extract in TRACED:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, extract))
            factory = pinnet.simulate.make_network_rhs
            saved.append((pinnet.simulate, "make_network_rhs", factory))
            pinnet.simulate.make_network_rhs = self._wrap_rhs_factory(factory)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def setup_metrics(self) -> dict:
        """Per-layer metrics of the set-up phase (parse and validation)."""
        return {
            "cli.parse_scenario.s": _total(self.spans, "cli.parse_scenario"),
            "model.validate_coupling.s": _total(self.spans, "model.validate_coupling"),
        }

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass over the workload's items."""
        spans = self.spans
        rhs_us = np.frombuffer(self.rhs_s, dtype=float) * 1e6
        steps = _attr_total(spans, "simulate.integrate", "steps")
        integrate_s = _total(spans, "simulate.integrate")
        node_steps = sum(
            s.attrs.get("steps", 0) * s.attrs.get("m", 0)
            for s in spans
            if s.name == "simulate.integrate"
        )
        eig = [s for s in spans if s.name == "linalg.sym_eigen"]
        eig_s = {m: sum(s.duration for s in eig if s.attrs.get("m") == m) for m in (30, 100)}
        quad_s = _total(spans, "conditions.quad_check_sampled")
        quad_samples = _attr_total(spans, "conditions.quad_check_sampled", "samples")
        top = sum(s.duration for s in spans if s.parent is None)
        return {
            "model.rhs.calls": int(rhs_us.size),
            "model.rhs.s": float(rhs_us.sum() / 1e6),
            "model.rhs.call_us.p50": float(np.percentile(rhs_us, 50)) if rhs_us.size else 0.0,
            "model.rhs.call_us.p99": float(np.percentile(rhs_us, 99)) if rhs_us.size else 0.0,
            "simulate.integrate.s": integrate_s,
            "simulate.integrate.self_s": _total(spans, "simulate.integrate", "self_s"),
            "simulate.integrate.steps": steps,
            "simulate.integrate.node_steps": int(node_steps),
            "simulate.integrate.step_us": integrate_s / steps * 1e6 if steps else 0.0,
            "simulate.integrate.buffer_bytes": max(
                (s.attrs.get("buffer_bytes", 0) for s in spans if s.name == "simulate.integrate"),
                default=0,
            ),
            "simulate.metrics.s": _total(spans, "simulate.metrics"),
            "simulate.lyapunov_monitor.s": _total(spans, "simulate.lyapunov_monitor"),
            "simulate.decay_rate_fit.s": _total(spans, "simulate.decay_rate_fit"),
            "cli.write_trajectory_csv.s": _total(spans, "cli.write_trajectory_csv"),
            "cli.write_trajectory_csv.bytes": _attr_total(
                spans, "cli.write_trajectory_csv", "bytes"
            ),
            "cli.write_metrics_csv.s": _total(spans, "cli.write_metrics_csv"),
            "cli.write_metrics_csv.bytes": _attr_total(spans, "cli.write_metrics_csv", "bytes"),
            "cli.run_scenario.self_s": _total(spans, "cli.run_scenario", "self_s"),
            "cli.run_sweep.self_s": _total(spans, "cli.run_sweep", "self_s"),
            "cli.check_scenario.s": _total(spans, "cli.check_scenario"),
            "linalg.sym_eigen.calls": len(eig),
            "linalg.sym_eigen.s": float(sum(s.duration for s in eig)),
            "linalg.sym_eigen.m30.s": float(eig_s[30]),
            "linalg.sym_eigen.m100.s": float(eig_s[100]),
            "linalg.scc_condensation.s": _total(spans, "linalg.scc_condensation"),
            "linalg.left_null_vector.s": _total(spans, "linalg.left_null_vector"),
            "conditions.proposition1_holds.s": _total(spans, "conditions.proposition1_holds"),
            "conditions.theorem4_check.s": _total(spans, "conditions.theorem4_check"),
            "conditions.quad_check_sampled.s": quad_s,
            "conditions.quad_check_sampled.samples_per_s": quad_samples / quad_s if quad_s else 0.0,
            "trace.top_span_share": top / wall_s,
        }
