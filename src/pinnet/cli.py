"""Scenario-driven command line: check pinning conditions, run simulations.

A scenario is a JSON object (or one of the built-in ids in
:mod:`pinnet.scenarios`) naming the coupling matrix, node dynamics, coupling
function, pin plan, certificate, initial data, and integration grid.
``check`` runs the condition chain and prints a report; ``run`` integrates
and writes trajectory/metrics CSVs (by :mod:`pinnet.csvtext`) plus a UTF-8
plain-text summary. A closed stdout changes no file and no exit status.

Exit codes: 0 success, 1 usage or validation error, 2 condition-check
failure under ``--require-conditions``, 3 divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path, PurePath
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .conditions import (
    QuadCertificate,
    SpectralReport,
    Verdict,
    min_coupling_strength,
    proposition1_holds,
    quad_check_sampled,
    reducible_pinnability,
    spectral_negativity,
    theorem3_check,
    theorem4_check,
    verify_certificate,
    weighted_spectrum,
)
from .csvtext import cells, write_metrics_csv, write_table, write_trajectory_csv
# not called here: perfbench/tracing.py patches left_null_vector and
# scc_condensation on this module along with the other pipeline names.
from .linalg import ReducibilityError, finite_array, left_null_vector, scc_condensation  # noqa: F401
from .model import (
    UNCONTROLLED,
    CouplingFunction,
    CouplingMatrix,
    Dynamics,
    NetworkSystem,
    PinPlan,
    make_dynamics,
    pinned_matrix,
    validate_coupling,
    whole_number,
)
from .scenarios import BUILTIN_SCENARIOS, COUPLING_MATRICES, _outputs
from .simulate import (
    DivergenceError,
    MetricSeries,
    MonitorReport,
    decay_rate_fit,
    grid_steps,
    integrate,
    integrate_batch,
    lyapunov_monitor,
    metrics,
)

_SUMMARY_FIT_HORIZON = 10.0


class ScenarioError(ValueError):
    """A scenario file or dict failed validation; the message names the field."""


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, ready to check or run (without a pin plan, or with ``pin=None``, it runs
    :data:`UNCONTROLLED`). Its parts check themselves; each construction, ``replace``
    included, checks their types and the rest (file names, initial data against (m, n)
    with n = ``dynamics.dim``, certificate length, pin node range, grid) and keeps the
    initial data and ``outputs`` as read-only copies."""

    name: str
    coupling: CouplingMatrix
    dynamics: Dynamics
    gfun: CouplingFunction
    certificate: Optional[QuadCertificate]
    initial_states: np.ndarray
    reference_initial: np.ndarray
    dt: float
    t_max: float
    outputs: Mapping[str, str]
    pin: PinPlan = UNCONTROLLED

    def __post_init__(self):
        # the default and sweep output names derive from it
        _check_file_name(self.name, "name")
        pin = UNCONTROLLED if self.pin is None else self.pin
        parts = [("coupling", self.coupling, CouplingMatrix), ("dynamics", self.dynamics, Dynamics),
                 ("coupling_function", self.gfun, CouplingFunction), ("pin", pin, PinPlan)]
        if self.certificate is not None:
            parts.append(("certificate", self.certificate, QuadCertificate))
        for where, value, kind in parts:
            if not isinstance(value, kind):
                raise ScenarioError(f"{where} must be a {kind.__name__}, got {type(value).__name__}")
        reference = _reference(self.reference_initial)
        n, m, dim = reference.size, self.coupling.m, self.dynamics.dim
        if dim != n:
            raise ScenarioError(f"dynamics.dim must be {n}, the length of reference_initial, got {dim}")
        states = _field(finite_array, self.initial_states, "initial_states")
        if states.shape != (m, n):
            raise ScenarioError(f"initial_states must have shape ({m}, {n}) to match the "
                                f"coupling matrix and dynamics, got {states.shape}")
        # PinPlan owns the node's type and 1-based rule, NetworkSystem its range
        _named("pin", NetworkSystem, self.coupling, self.dynamics, self.gfun, pin)
        if self.certificate is not None and self.certificate.p.shape != (n,):
            raise ScenarioError(f"certificate.P and certificate.Delta must be length-{n} lists")
        _named("integration", grid_steps, self.dt, self.t_max)
        outputs = dict(_object(self.outputs, "outputs", ("trajectory", "metrics", "summary")))
        for key, value in outputs.items():
            _check_file_name(value, f"outputs.{key}")
        if len(set(outputs.values())) < len(outputs):
            raise ScenarioError(f"outputs must name three different files, got {outputs!r}")
        states.setflags(write=False)
        outputs = MappingProxyType(outputs)
        for name, value in zip(("pin", "reference_initial", "initial_states", "outputs", "dt", "t_max"),
                               (pin, reference, states, outputs, float(self.dt), float(self.t_max))):
            object.__setattr__(self, name, value)

    def __deepcopy__(self, memo):
        return self  # every part is read-only

    @property
    def coupling_id(self) -> Optional[str]:
        """The built-in id whose matrix equals ``coupling``, else None."""
        return next((k for k, a in COUPLING_MATRICES.items() if self.coupling == CouplingMatrix(a)), None)


def _reference(value) -> np.ndarray:
    """``reference_initial`` as a read-only, finite, nonempty flat float array."""
    reference = _field(finite_array, value, "reference_initial")
    if reference.ndim != 1 or reference.size == 0:
        raise ScenarioError("reference_initial must be a nonempty flat list of numbers")
    reference.setflags(write=False)
    return reference


def _field(rule, value, where: str, *args):
    """``rule(value, where, *args)``, a shared value rule naming the field's
    dotted path ``where``, with its ``ValueError`` as a ``ScenarioError``."""
    try:
        return rule(value, where, *args)
    except ValueError as err:
        raise ScenarioError(str(err)) from None


def _check_file_name(value, where: str) -> None:
    """Reject anything but a plain file name, which stays inside the output
    directory: nonempty, not absolute, no separator or NUL, not . or .."""
    if (
        not isinstance(value, str)
        or value in ("", ".", "..")
        or "\0" in value
        or PurePath(value).name != value
        or (os.altsep is not None and os.altsep in value)
    ):
        raise ScenarioError(f"{where} must be a plain file name, got {value!r}")


def _object(value, where: str, required, optional=()) -> dict:
    """``value`` as a JSON object with every key in ``required`` and no key
    outside ``required`` and ``optional``; a ``ScenarioError`` names the
    dotted path. ``where`` is the object's own path, "" at the top level."""
    label, prefix = (where, where + ".") if where else ("scenario", "")
    if not isinstance(value, Mapping):
        raise ScenarioError(f"{label} must be a JSON object, got {type(value).__name__}")
    fields = (*required, *optional)
    unknown = sorted(prefix + str(key) for key in value if key not in fields)
    if unknown:
        raise ScenarioError(
            f"unknown {label} field(s): {', '.join(unknown)} (known: {', '.join(fields)})"
        )
    for key in required:
        if key not in value:
            raise ScenarioError(f"scenario field {prefix + key!r} is required")
    return value


def _named(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``; its ``TypeError`` or ``ValueError`` becomes a
    ``ScenarioError`` that starts with ``where``."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"{where}: {err}") from err


def parse_scenario(source) -> ScenarioConfig:
    """Load a scenario from a dict, a built-in id, or a file path.

    Reads the JSON objects and builds the parts, which check themselves;
    :class:`ScenarioConfig` checks the rest. An error names its field, or
    the object that keeps it and its argument. Node indices are 1-based
    throughout.
    """
    if isinstance(source, dict):
        data = source
    else:
        key = str(source)
        if key in BUILTIN_SCENARIOS:
            data = BUILTIN_SCENARIOS[key]
        else:
            path = Path(key)
            if not path.is_file():
                known = ", ".join(sorted(BUILTIN_SCENARIOS))
                raise ScenarioError(
                    f"{key!r} is neither a readable file nor a built-in scenario "
                    f"(built-ins: {known})"
                )
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise ScenarioError(f"{path}: invalid JSON: {err}") from err
    _object(
        data,
        "",
        ("name", "reference_initial", "dynamics", "coupling", "initial_states", "integration"),
        ("coupling_function", "pin", "certificate", "outputs"),
    )

    dyn_spec = _object(data["dynamics"], "dynamics", ("kind",), ("params",))
    params = dyn_spec.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"dynamics.params must be an object, got {params!r}")
    # a malformed reference is named before a dynamics of its length fails
    reference = _reference(data["reference_initial"])
    dynamics = _named("dynamics", make_dynamics, dyn_spec["kind"], dim=reference.size, params=params)

    coupling_spec = data["coupling"]
    if isinstance(coupling_spec, str):
        if coupling_spec not in COUPLING_MATRICES:
            known = ", ".join(sorted(COUPLING_MATRICES))
            raise ScenarioError(
                f"unknown built-in coupling id {coupling_spec!r} (known: {known})"
            )
        coupling_spec = COUPLING_MATRICES[coupling_spec]
    coupling = _named("coupling", validate_coupling, coupling_spec)

    gfun_spec = _object(
        data.get("coupling_function", {"kind": "identity"}),
        "coupling_function",
        ("kind",),
        ("alpha_lower",),
    )
    gfun = _named("coupling_function", CouplingFunction, gfun_spec["kind"], gfun_spec.get("alpha_lower"))

    pin = UNCONTROLLED
    if data.get("pin") is not None:
        pin_spec = _object(data["pin"], "pin", ("node", "epsilon", "c"))
        pin = _named("pin", PinPlan, pin_spec["node"], pin_spec["epsilon"], pin_spec["c"])

    certificate = None
    if data.get("certificate") is not None:
        cert_spec = _object(data["certificate"], "certificate", ("P", "Delta", "eta"))
        certificate = _named(
            "certificate", QuadCertificate, cert_spec["P"], cert_spec["Delta"], cert_spec["eta"]
        )

    integration = _object(data["integration"], "integration", ("dt", "t_max"))
    outputs = data.get("outputs")
    return ScenarioConfig(
        name=data["name"],
        coupling=coupling,
        dynamics=dynamics,
        gfun=gfun,
        pin=pin,
        certificate=certificate,
        initial_states=data["initial_states"],
        reference_initial=reference,
        dt=integration["dt"],
        t_max=integration["t_max"],
        outputs=_outputs(data["name"]) if outputs is None else outputs,
    )


def serialize_scenario(cfg: ScenarioConfig) -> dict:
    """Canonical dict form of a config; parse/serialize round-trips exactly."""
    out = {
        "name": cfg.name,
        "coupling": cfg.coupling_id or cfg.coupling.entries.tolist(),
        "dynamics": {"kind": cfg.dynamics.kind, "params": dict(cfg.dynamics.params)},
        "coupling_function": {
            "kind": cfg.gfun.kind,
            "alpha_lower": cfg.gfun.alpha_lower,
        },
        "initial_states": cfg.initial_states.tolist(),
        "reference_initial": cfg.reference_initial.tolist(),
        "integration": {"dt": cfg.dt, "t_max": cfg.t_max},
        "outputs": dict(cfg.outputs),
        "pin": {"node": cfg.pin.pin_node, "epsilon": cfg.pin.epsilon, "c": cfg.pin.c},
    }
    if cfg.certificate is not None:
        out["certificate"] = {
            "P": cfg.certificate.p.tolist(),
            "Delta": cfg.certificate.delta.tolist(),
            "eta": cfg.certificate.eta,
        }
    return out


def build_system(cfg: ScenarioConfig) -> NetworkSystem:
    return NetworkSystem(
        coupling=cfg.coupling, dynamics=cfg.dynamics, gfun=cfg.gfun, pin=cfg.pin
    )


# ---------------------------------------------------------------------------
# condition chain


NEGATIVITY, REDUCIBLE = "pinned-spectrum negativity", "reducible pinnability"


@dataclass(frozen=True)
class ConditionReport:
    """Everything the condition chain learned about one scenario.

    ``verdicts`` is the chain in report order, keyed by the name the report
    prints: :data:`NEGATIVITY`, then ``theorem2``/``theorem3``/``theorem4``
    when there is a certificate, or :data:`REDUCIBLE` alone on the reducible
    route. The last verdict gates ``--require-conditions``.
    """

    scenario: str
    route: str  # "symmetric" | "asymmetric" | "reducible"
    pin: PinPlan
    spectral: Optional[SpectralReport]
    verdicts: dict[str, Verdict]
    min_c: Optional[float]
    quad_sampled: Optional[Verdict] = None

    @property
    def gate_verdict(self) -> Verdict:
        """The last verdict of the chain, which decides --require-conditions."""
        return next(reversed(self.verdicts.values()))

    @property
    def theorem(self) -> Optional[Verdict]:
        """The theorem 2, 3 or 4 verdict, or None when the route has none."""
        return next((v for name, v in self.verdicts.items() if name.startswith("theorem")), None)


def _quad_sample_box(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension hull of [-30, 30] and every initial coordinate (nodes
    and reference): the box the sampled QUAD check draws its pairs from."""
    points = np.vstack([cfg.initial_states, cfg.reference_initial])
    return np.minimum(points.min(axis=0), -30.0), np.maximum(points.max(axis=0), 30.0)


def check_scenario(cfg: ScenarioConfig, quad_samples: int = 0, seed: int = 0) -> ConditionReport:
    """Run the applicable checker chain for a scenario.

    Symmetric coupling: pinned-spectrum negativity plus the global margin
    (theorem2 for the identity map, theorem3 under a nonlinear one; both
    are :func:`theorem3_check` at the map's slope bound). Asymmetric
    irreducible coupling: negativity of the weighted symmetrization, plus
    its margin (theorem4, at the same slope bound) when there is a
    certificate. Reducible coupling: the structural pinnability criterion,
    judged on the condensation that the weighted spectrum's
    :class:`ReducibilityError` carries, so irreducibility is decided once.
    A theorem verdict also requires the certificate it relies on to be
    verified (:func:`pinnet.conditions.verify_certificate`). The report's
    ``verdicts`` hold these in that order, and the last one is the gate.
    ``min_c`` (c*) is set only when the negativity verdict holds and the
    certificate is verified.
    Pass ``quad_samples > 0`` to also falsification-test the certificate by
    sampling on the hull of [-30, 30] and the scenario's initial data; 0
    skips it; both it and ``seed`` must be whole numbers >= 0.
    """
    quad_samples = _field(whole_number, quad_samples, "quad_samples", 0)
    seed = _field(whole_number, seed, "seed", 0)
    pin, alpha = cfg.pin, cfg.gfun.alpha_lower
    verdicts, spectral, theorem, min_c = {}, None, None, None

    if cfg.coupling.symmetric:
        route = "symmetric"
        theorem_name = "theorem2" if cfg.gfun.kind == "identity" else "theorem3"
        verdicts[NEGATIVITY], spectral = proposition1_holds(pinned_matrix(cfg.coupling, pin))
        if cfg.certificate is not None:
            theorem = theorem3_check(cfg.certificate, pin.c, spectral.lambda1, alpha)
    else:
        theorem_name = "theorem4"
        try:
            if cfg.certificate is None:
                spectral = weighted_spectrum(cfg.coupling, pin)
            else:
                theorem, spectral = theorem4_check(cfg.coupling, pin, cfg.certificate, alpha)
        except ReducibilityError as err:
            route = "reducible"
            verdicts[REDUCIBLE] = reducible_pinnability(err.condensation, pin.pin_node)
        else:
            route = "asymmetric"
            verdicts[NEGATIVITY] = spectral_negativity(spectral)

    if theorem is not None:
        verdicts[theorem_name] = theorem = verify_certificate(theorem, cfg.dynamics, cfg.certificate)
        if verdicts[NEGATIVITY].holds and theorem.detail["certificate"] is None:
            min_c = min_coupling_strength(cfg.certificate, spectral, alpha=alpha)

    quad_sampled = None
    if quad_samples > 0:
        if cfg.certificate is None:
            raise ScenarioError("QUAD sampling needs a certificate in the scenario")
        quad_sampled = quad_check_sampled(
            cfg.dynamics, cfg.certificate, _quad_sample_box(cfg), quad_samples, seed=seed
        )
    return ConditionReport(cfg.name, route, pin, spectral, verdicts, min_c, quad_sampled)


def _fixed(v: float) -> str:
    """``v`` to six decimals; a value that rounds to zero prints without a sign."""
    return f"{round(v, 6) + 0.0:.6f}"


def _fmt_verdict(v: Verdict) -> str:
    # a failing margin within the tolerance is a roundoff zero: say so
    tolerance = v.detail["tolerance"]
    within = f", zero within {tolerance:g}" if not v.holds and abs(v.margin) <= tolerance else ""
    return f"{'holds' if v.holds else 'FAILS'} (margin {v.margin:+.6g}{within})"


def render_report(report: ConditionReport) -> str:
    """The report's text: scenario, route, pin and spectrum, then one line per
    verdict in chain order, each with its own detail lines, then QUAD sampling."""
    pin, sp = report.pin, report.spectral
    lines = [f"condition report: {report.scenario}", f"  route: {report.route} coupling",
             f"  pin: node {pin.pin_node}, epsilon {pin.epsilon:g}, c {pin.c:g}"]
    if sp is not None:
        label = "mu1" if report.route == "asymmetric" else "lambda1"
        lines.append(f"  {label} = {_fixed(sp.lambda1)}   (c*{label} = {_fixed(pin.c * sp.lambda1)})")
        lines.append("  spectrum: [" + ", ".join(map(_fixed, sp.eigenvalues)) + "]")
        if sp.xi is not None:
            xi = ", ".join(map(_fixed, sp.xi))
            lines.append(f"  left Perron vector xi: [{xi}]   max xi = {_fixed(sp.xi_max)}")
    for name, v in report.verdicts.items():
        if name == REDUCIBLE:
            lines.append(f"  {name}: {'holds' if v.holds else 'FAILS'}")
            lines.append(f"    blocks: {[list(b) for b in v.detail['blocks']]}")
            lines += [f"    problem: {problem}" for problem in v.detail["problems"]]
            continue
        lines.append(f"  {name}: {_fmt_verdict(v)}")
        if name.startswith("theorem"):
            if v.detail["certificate"] is not None:
                lines.append(f"  certificate: {v.detail['certificate']}")
            if report.min_c is not None:
                lines.append(f"  minimal coupling strength c* = {_fixed(report.min_c)}")
            elif not report.verdicts[NEGATIVITY].holds:
                lines.append("  minimal coupling strength: none (top eigenvalue not negative)")
    if report.quad_sampled is not None:
        v = report.quad_sampled
        box = " x ".join(f"[{a:g}, {b:g}]" for a, b in zip(*v.detail["box"]))
        lines.append(
            f"  QUAD sampling: {'no violation' if v.holds else 'VIOLATED'} "
            f"(min quotient {_fixed(v.detail['min_quotient'])} vs eta, "
            f"{v.detail['samples']} samples, seed {v.detail['seed']}, box {box})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# run pipeline


@dataclass
class RunResult:
    report: ConditionReport
    exit_code: int
    diverged: bool = False
    blowup_time: Optional[float] = None
    trajectory_path: Optional[Path] = None
    metrics_path: Optional[Path] = None
    summary_path: Optional[Path] = None
    final_sync: Optional[float] = None
    final_pin: Optional[float] = None
    fitted_rate: Optional[float] = None
    fit_window: Optional[tuple] = None
    monitor: Optional[MonitorReport] = None
    summary_text: str = ""


def _summary_fit(series: MetricSeries):
    """Fit window [0, min(10, last sample's time)] clipped to the strictly
    positive prefix of the pin ratio; returns (rate, window) or (None, None)."""
    if series.pin_ratio is None:
        return None, None
    end = min(_SUMMARY_FIT_HORIZON, float(series.times[-1]))
    dead = np.nonzero((series.pin_ratio <= 0.0) & (series.times <= end))[0]
    if dead.size:
        # dead[0] >= 1, as the ratio starts at 1; at 1, decay_rate_fit rejects [0, 0]
        end = float(series.times[dead[0] - 1])
    try:
        return decay_rate_fit(series, (0.0, end)), (0.0, end)
    except ValueError:
        return None, None


def run_scenario(
    cfg: ScenarioConfig,
    out_dir=".",
    require_conditions: bool = False,
) -> RunResult:
    """Check conditions, integrate, and write the scenario's output files.

    Writes only under ``out_dir``. On divergence the partial trajectory and
    metrics are still written, the summary is flagged, and the exit code is
    3. With ``require_conditions`` a failing gate verdict aborts before
    integration with exit code 2.
    """
    report = check_scenario(cfg)
    if require_conditions and not report.gate_verdict.holds:
        text = render_report(report) + "\nrun aborted: conditions not satisfied"
        return RunResult(report=report, exit_code=2, summary_text=text)

    try:
        outcome = integrate(
            build_system(cfg),
            cfg.initial_states,
            cfg.reference_initial,
            cfg.dt,
            cfg.t_max,
        )
    except DivergenceError as err:
        outcome = err
    return _finish_run(cfg, report, outcome, Path(out_dir))


def _finish_run(
    cfg: ScenarioConfig, report: ConditionReport, outcome, out: Path, time_cells=None
) -> RunResult:
    """Metrics, fit, monitor, CSVs and summary of one integrated scenario.

    ``outcome`` is the :class:`Trajectory` or the :class:`DivergenceError`
    (carrying the partial trajectory) that integration produced. ``out`` is
    made just before the first write: a run that fails earlier leaves none.
    ``time_cells`` are the :func:`pinnet.csvtext.cells` of a grid whose
    prefix is the trajectory's times; without them the times are formatted
    here. Both CSVs copy them.
    """
    diverged = isinstance(outcome, DivergenceError)
    traj = outcome.trajectory if diverged else outcome
    blowup = outcome.blowup_time if diverged else None

    weights = report.spectral.xi if report.route == "asymmetric" else None
    p = cfg.certificate.p if cfg.certificate is not None else None
    series = metrics(traj, weights=weights, p=p)
    rate, window = _summary_fit(series)
    monitor = None
    if cfg.certificate is not None:
        monitor = lyapunov_monitor(series, cfg.certificate)

    traj_path = out / cfg.outputs["trajectory"]
    metrics_path = out / cfg.outputs["metrics"]
    summary_path = out / cfg.outputs["summary"]
    time_cells = cells(traj.times) if time_cells is None else time_cells[: len(traj.times)]
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj_path, traj, time_cells)
    write_metrics_csv(metrics_path, series, time_cells)

    lines = [render_report(report), ""]
    lines.append(
        f"integration: dt={cfg.dt:g}, t_max={cfg.t_max:g}, steps={len(traj.times) - 1}"
    )
    if diverged:
        lines.append(
            f"DIVERGED at t={blowup:g}: outputs hold the partial trajectory"
        )
    final_sync = float(series.sync_ratio[-1]) if series.sync_ratio is not None else None
    final_pin = float(series.pin_ratio[-1]) if series.pin_ratio is not None else None
    for label, final, floor in (
        ("sync_ratio", final_sync, series.sync_floor),
        ("pin_ratio", final_pin, series.pin_floor),
    ):
        line = f"final {label}: " + (f"{final:.6g}" if final is not None else "undefined")
        if final is not None and final < floor:
            line += f" (below roundoff floor {floor:.2g})"
        lines.append(line)
    if rate is not None:
        lines.append(
            f"fitted pin decay rate over [{window[0]:g}, {window[1]:g}]: {rate:.6g}"
        )
    else:
        lines.append("fitted pin decay rate: unavailable")
    if monitor is not None:
        lines.append(
            f"lyapunov monitor: {monitor.violations} violations "
            f"(required rate {monitor.required_rate:.6g}"
            + (
                f", first at t={monitor.first_violation_time:g})"
                if monitor.first_violation_time is not None
                else ")"
            )
        )
    text = "\n".join(lines)
    summary_path.write_bytes(text.encode() + b"\n")

    return RunResult(
        report=report,
        exit_code=3 if diverged else 0,
        diverged=diverged,
        blowup_time=blowup,
        trajectory_path=traj_path,
        metrics_path=metrics_path,
        summary_path=summary_path,
        final_sync=final_sync,
        final_pin=final_pin,
        fitted_rate=rate,
        fit_window=window,
        monitor=monitor,
        summary_text=text,
    )


# ---------------------------------------------------------------------------
# sweep


def _number(text: str):
    """A count's command-line text as an int, else as a float, for
    :func:`pinnet.model.whole_number` to judge (``1e3`` is 1000)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_sweep(spec: str) -> np.ndarray:
    """Parse ``c=<a>:<b>:<n>`` into the n sweep values."""
    try:
        key, rest = spec.split("=", 1)
        lo_s, hi_s, n_s = rest.split(":")
        lo, hi, count = float(lo_s), float(hi_s), _number(n_s)
    except ValueError as err:
        raise ScenarioError(f"bad sweep spec {spec!r}, expected c=<a>:<b>:<n>") from err
    if key != "c":
        raise ScenarioError(f"only coupling-strength sweeps are supported, got {key!r}")
    count = _named(f"sweep {spec!r}", whole_number, count, "n", 1)
    if not 0 < lo <= hi < np.inf:
        raise ScenarioError(f"bad sweep range {spec!r}: need finite 0 < a <= b")
    if count == 1 and hi != lo:
        raise ScenarioError(f"bad sweep range {spec!r}: one point cannot span {lo:g} to {hi:g}")
    try:
        values = np.linspace(lo, hi, count)
    except (MemoryError, ValueError) as err:
        raise ScenarioError(f"sweep {spec!r}: {count} points cannot be allocated ({err})") from err
    # each point's outputs are named by its c at %g, so no two may share it
    named: dict[str, float] = {}
    for c in map(float, values):
        label = f"{c:g}"
        if label in named:
            raise ScenarioError(
                f"sweep {spec!r}: c={named[label]!r} and c={c!r} would share the "
                f"output names of c={label}; widen the range or take fewer points"
            )
        named[label] = c
    return values


def run_sweep(cfg: ScenarioConfig, spec: str, out_dir) -> int:
    """Run the scenario at each sweep value of c: the same outputs per point
    as :func:`run_scenario`, plus a ``<name>_sweep.csv`` table of margins and
    final pin ratios. Every point is checked, then all are integrated by one
    :func:`pinnet.simulate.integrate_batch` call."""
    values = parse_sweep(spec)
    out = Path(out_dir)
    points = [
        dataclasses.replace(
            cfg,
            pin=dataclasses.replace(cfg.pin, c=float(c)),
            outputs=_outputs(f"{cfg.name}_sweep_c{c:g}"),
        )
        for c in values
    ]
    reports = [check_scenario(point) for point in points]
    outcomes = integrate_batch(
        [build_system(point) for point in points],
        [point.initial_states for point in points],
        [point.reference_initial for point in points],
        cfg.dt,
        cfg.t_max,
    )
    # every member runs on the batch's grid and a diverged one stops on a
    # prefix of it, so the longest member's times are formatted for all
    trajectories = [o.trajectory if isinstance(o, DivergenceError) else o for o in outcomes]
    time_cells = cells(max((traj.times for traj in trajectories), key=len))
    rows = []
    for c, point, report, outcome in zip(values, points, reports, outcomes):
        result = _finish_run(point, report, outcome, out, time_cells)
        gate = report.gate_verdict
        final_pin = result.final_pin if result.final_pin is not None else float("nan")
        rows.append((float(c), gate.margin, gate.holds, final_pin, result.diverged))
        _say(
            f"sweep c={c:g}: margin={rows[-1][1]:+.6g} holds={rows[-1][2]} "
            f"final_pin={rows[-1][3]:.6g} diverged={result.diverged}"
        )
    table = out / f"{cfg.name}_sweep.csv"
    write_table(table, "c,margin,holds,final_pin_ratio,diverged", rows)
    _say(f"sweep table written to {table}")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _say(text: str) -> None:
    """Print and flush ``text``, each character stdout cannot encode as its
    backslash escape; once stdout's reader has gone, point stdout at the null
    device: a closed pipe changes no file a command writes, nor its exit."""
    try:
        print(text, flush=True)
    except UnicodeEncodeError:
        encoding = sys.stdout.encoding
        _say(text.encode(encoding, "backslashreplace").decode(encoding))
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinnet",
        description="Check pinning conditions and simulate pinned ODE networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a scenario and write CSV outputs")
    run_p.add_argument("scenario", help="scenario file path or built-in id")
    run_p.add_argument("--dt", type=float, help="override the integration step")
    run_p.add_argument("--tmax", type=float, help="override the horizon")
    run_p.add_argument("--out", default="out", help="output directory (default: out)")
    run_p.add_argument(
        "--require-conditions",
        action="store_true",
        help="abort with exit code 2 unless the applicable condition holds",
    )
    run_p.add_argument(
        "--sweep", metavar="c=<a>:<b>:<n>", help="sweep the coupling strength"
    )
    run_p.add_argument(
        "--dry-run",
        action="store_true",
        help="validate and print the resolved config without integrating",
    )

    check_p = sub.add_parser("check", help="run the condition chain and report")
    check_p.add_argument("scenario", help="scenario file path or built-in id")
    check_p.add_argument("--seed", type=_number, default=0, help="seed for sampled checks")
    check_p.add_argument(
        "--quad-samples",
        type=_number,
        default=0,
        help="also falsification-test the certificate with this many samples",
    )
    check_p.add_argument(
        "--require-conditions",
        action="store_true",
        help="exit with code 2 when the applicable condition fails",
    )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        if not err.code:  # --help
            raise
        # argparse exits 2 on a usage error; 2 means failed conditions here
        return 1
    try:
        cfg = parse_scenario(args.scenario)
        if args.command == "check":
            report = check_scenario(
                cfg, quad_samples=args.quad_samples, seed=args.seed
            )
            _say(render_report(report))
            return 2 if args.require_conditions and not report.gate_verdict.holds else 0

        if args.sweep:
            if args.require_conditions:
                raise ScenarioError(
                    "--sweep and --require-conditions cannot be combined: a sweep "
                    "integrates every point whatever its verdict"
                )
            parse_sweep(args.sweep)
        if args.dt is not None or args.tmax is not None:
            try:  # only the grid rule reads dt and t_max; _named keeps its message as the cause
                cfg = dataclasses.replace(cfg, dt=cfg.dt if args.dt is None else args.dt,
                                          t_max=cfg.t_max if args.tmax is None else args.tmax)
            except ScenarioError as err:
                raise ScenarioError(f"--dt/--tmax: {err.__cause__}") from None
        if args.dry_run:
            _say(json.dumps(serialize_scenario(cfg), indent=2))
            return 0
        if args.sweep:
            return run_sweep(cfg, args.sweep, args.out)
        result = run_scenario(
            cfg, out_dir=args.out, require_conditions=args.require_conditions
        )
        _say(result.summary_text)
        return result.exit_code
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
