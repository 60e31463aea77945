"""The benchmark's three workloads: seeded inputs, one timed pass, and its checks.

Every workload is a closed loop with one client: each item starts when the
previous one has finished. ``setup`` builds all inputs before the first
timed call; ``run_pass`` does the workload's fixed amount of work once and
returns what the program produced; ``check`` compares that with independent
references outside the timed region and returns one message per failed item.

- ``scenarios``: the five built-in scenarios through ``run_scenario`` at their
  shipped ``dt``, writing CSVs. Integration and the right-hand side do most
  of the work, the CSV writers most of the rest; the eigensolver almost none.
- ``sweep``: ``run_sweep`` on ``fig4-sym-pinned`` over ``c=6:14:9``: nine
  integrations of identical shape, straddling c* = 9.891 so both verdicts
  occur.
- ``network-checks``: seeded couplings at m = 30 and 100 (random symmetric,
  random asymmetric, ring, star) through ``check_scenario`` plus a short
  integration, then one sampled QUAD check. The symmetric eigensolver does
  most of the work and no CSV is written.

The horizon of the first two is cut to ``HORIZON`` so that one pass takes
about two seconds and a run holds several passes; the per-step work is the
shipped one. They use no random input, so the seed changes nothing there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pinnet
from pinnet import cli, conditions, simulate

HORIZON = 1.0
SWEEP_SCENARIO = "fig4-sym-pinned"
SWEEP_SPEC = "c=6:14:9"
NETWORK_SIZES = (30, 100)
NETWORK_KINDS = ("random-sym", "random-asym", "ring", "star")
NETWORK_EDGE_PROB = 0.2
NETWORK_PIN = {"epsilon": 5.0, "c": 10.0}
NETWORK_DT = 1e-3
NETWORK_T_MAX = 0.2
QUAD_SAMPLES = 1_000_000
QUAD_BOX = (-30.0, 30.0)
CERTIFICATE = {"P": [1.0, 1.0, 1.0], "Delta": [10.0, 10.0, 10.0], "eta": 0.6218}

# Documented outcomes of the built-in scenarios (README table, acceptance
# suite): route and gate verdict of each.
EXPECTED_ROUTES = {
    "fig2-sym-uncontrolled": ("symmetric", False),
    "fig4-sym-pinned": ("symmetric", True),
    "fig5-asym-pinned": ("asymmetric", True),
    "nonlinear-pinned": ("symmetric", True),
    "reducible-pinned": ("reducible", True),
}
# Acceptance constants with the tolerances tests/test_acceptance.py uses.
XI = (1 / 6, 2 / 6, 3 / 6)
XI_TOL = 1e-10
MU1, MU1_TOL = -0.0718, 1e-3
LAMBDA1, LAMBDA1_TOL = -1.011, 2e-3
MARGIN, MARGIN_TOL = -0.11, 0.02
C_STAR, C_STAR_TOL = 9.891, 0.01
# Final sync and pin ratios against the values recorded at the seed commit
# (reference.json): relative 1e-6, absolute 1e-12 (the ratios start at 1, so
# the absolute floor is roundoff of the initial spread).
RATIO_RTOL = 1e-6
RATIO_ATOL = 1e-12
# Top eigenvalue against numpy's LAPACK eigvalsh: within 1e-9 times the
# matrix's Frobenius norm, a thousand times the off-diagonal norm at which
# the Jacobi iteration stops. xi against an SVD null vector: 1e-9 absolute.
EIG_RTOL = 1e-9
XI_ATOL = 1e-9

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Item:
    """One unit of work: a scenario, a sweep, a network check or the QUAD check.

    ``cfg`` and ``system`` are its parsed and assembled inputs (for the QUAD
    check, ``system`` is the node dynamics); ``expected`` is what ``check``
    compares the output with (for the QUAD check, the certificate and seed).
    """

    name: str
    cfg: "cli.ScenarioConfig | None" = None
    system: "pinnet.NetworkSystem | None" = None
    expected: object = None


# ---------------------------------------------------------------------------
# inputs


def _network_matrix(rng: np.random.Generator, kind: str, m: int) -> np.ndarray:
    if kind in ("random-sym", "random-asym"):
        return conditions.random_coupling_matrix(
            rng, m, symmetric=kind == "random-sym", edge_prob=NETWORK_EDGE_PROB
        ).entries
    weights = 1.0 - rng.random(m)  # uniform on (0, 1]
    a = np.zeros((m, m))
    if kind == "ring":
        i = np.arange(m)
        a[i, (i + 1) % m] = weights
    else:  # star around node 1
        a[0, 1:] = weights[1:]
    a = a + a.T
    np.fill_diagonal(a, -a.sum(axis=1))
    return a


def _network_scenario(rng: np.random.Generator, kind: str, m: int) -> dict:
    return {
        "name": f"{kind}-m{m}",
        "coupling": _network_matrix(rng, kind, m).tolist(),
        "dynamics": {"kind": "chua"},
        "pin": {"node": int(rng.integers(1, m + 1)), **NETWORK_PIN},
        "certificate": CERTIFICATE,
        "initial_states": rng.uniform(-2.0, 2.0, size=(m, 3)).tolist(),
        "reference_initial": [0.0, 0.0, 0.0],
        "integration": {"dt": NETWORK_DT, "t_max": NETWORK_T_MAX},
    }


def _with_horizon(name: str):
    return dataclasses.replace(cli.parse_scenario(name), t_max=HORIZON)


def setup(workload: str, seed: int) -> list[Item]:
    """Build every item of a workload: generate, parse and assemble its inputs."""
    if workload == "scenarios":
        reference = json.loads(REFERENCE_PATH.read_text())["scenarios"]
        items = []
        for name in pinnet.BUILTIN_SCENARIOS:
            cfg = _with_horizon(name)
            items.append(Item(name, cfg, cli.build_system(cfg), reference[name]))
        return items
    if workload == "sweep":
        cfg = _with_horizon(SWEEP_SCENARIO)
        for c in cli.parse_sweep(SWEEP_SPEC):
            cli.build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=c)))
        reference = json.loads(REFERENCE_PATH.read_text())["sweep"]
        return [Item("sweep", cfg, None, reference)]
    if workload == "network-checks":
        rng = np.random.default_rng(seed)
        items = []
        for m in NETWORK_SIZES:
            for kind in NETWORK_KINDS:
                cfg = cli.parse_scenario(_network_scenario(rng, kind, m))
                items.append(Item(cfg.name, cfg, cli.build_system(cfg), kind))
        quad = conditions.QuadCertificate(
            p=CERTIFICATE["P"], delta=CERTIFICATE["Delta"], eta=CERTIFICATE["eta"]
        )
        items.append(Item("quad-chua", None, pinnet.make_dynamics("chua"), (quad, seed)))
        return items
    raise ValueError(f"unknown workload {workload!r}")


def items_per_pass(workload: str, items: list[Item]) -> int:
    return len(cli.parse_sweep(SWEEP_SPEC)) if workload == "sweep" else len(items)


# ---------------------------------------------------------------------------
# one pass

# Functions are looked up on their modules at call time so the tracer's
# patches apply.


def _network_item(item: Item):
    if item.cfg is None:
        cert, seed = item.expected
        return conditions.quad_check_sampled(
            item.system, cert, QUAD_BOX, QUAD_SAMPLES, seed=seed
        )
    cfg = item.cfg
    report = cli.check_scenario(cfg)
    traj = simulate.integrate(
        item.system, cfg.initial_states, cfg.reference_initial, cfg.dt, cfg.t_max
    )
    weights = report.spectral.xi if report.route == "asymmetric" else None
    return report, traj, simulate.metrics(traj, weights=weights, p=cfg.certificate.p)


def run_pass(workload: str, items: list[Item], out_dir: Path, after_item=None):
    """Run every item once, in order; return the outputs and the timed seconds.

    An item that raises yields its exception as output. ``after_item(seconds)``
    is called with each item's time, outside the timed region.
    """
    outputs, total = [], 0.0
    for item in items:
        t0 = time.perf_counter()
        try:
            if workload == "scenarios":
                outputs.append(cli.run_scenario(item.cfg, out_dir=out_dir))
            elif workload == "sweep":
                with contextlib.redirect_stdout(io.StringIO()):
                    outputs.append(cli.run_sweep(item.cfg, SWEEP_SPEC, out_dir))
            else:
                outputs.append(_network_item(item))
        except Exception as err:  # a failed item; check() reports its traceback
            outputs.append(err)
        elapsed = time.perf_counter() - t0
        total += elapsed
        if after_item is not None:
            after_item(elapsed)
    return outputs, total


# ---------------------------------------------------------------------------
# checks


def _close(value, ref) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return abs(value - ref) <= RATIO_RTOL * abs(ref) + RATIO_ATOL


def _pinned(cfg) -> np.ndarray:
    a = np.array(cfg.coupling.entries, dtype=float)
    p = cfg.pin.pin_node - 1
    a[p, p] -= cfg.pin.epsilon
    return a


def check_top_eigenvalue(cfg, report) -> list[str]:
    """Compare the reported top eigenvalue (and xi) with numpy's own solvers."""
    a = np.array(cfg.coupling.entries, dtype=float)
    pinned = _pinned(cfg)
    problems = []
    if report.route == "symmetric":
        matrix = pinned
    else:
        # left null vector of A from its SVD, normalised to sum 1
        xi = np.linalg.svd(a.T)[2][-1]
        xi = xi / xi.sum()
        if np.max(np.abs(xi - report.spectral.xi)) > XI_ATOL:
            problems.append(f"xi differs from the SVD null vector by more than {XI_ATOL:g}")
        matrix = 0.5 * (xi[:, None] * pinned + pinned.T * xi[None, :])
    top = float(np.linalg.eigvalsh(matrix)[-1])
    tol = EIG_RTOL * max(1.0, float(np.linalg.norm(matrix)))
    if abs(report.spectral.lambda1 - top) > tol:
        problems.append(
            f"top eigenvalue {report.spectral.lambda1!r} vs eigvalsh {top!r} (tol {tol:.1e})"
        )
    return problems


def _check_scenario_result(item: Item, result) -> list[str]:
    report = result.report
    route, holds = EXPECTED_ROUTES[item.name]
    gate = report.gate_verdict
    problems = []
    if result.exit_code != 0 or result.diverged:
        problems.append(f"exit code {result.exit_code}, diverged {result.diverged}")
    if report.route != route or gate is None or gate.holds != holds:
        problems.append(
            f"route {report.route} / holds {gate and gate.holds}, expected {route} / {holds}"
        )
    for path in (result.trajectory_path, result.metrics_path, result.summary_path):
        if path is None or not path.is_file() or path.stat().st_size == 0:
            problems.append(f"output {path} missing or empty")
    for key in ("final_sync", "final_pin"):
        if not _close(getattr(result, key), item.expected[key]):
            problems.append(f"{key} {getattr(result, key)!r} vs reference {item.expected[key]!r}")
    if report.route in ("symmetric", "asymmetric"):
        problems += check_top_eigenvalue(item.cfg, report)
    if item.name == "fig4-sym-pinned":
        lam1, margin, c_star = report.spectral.lambda1, report.theorem.margin, report.min_c
        if abs(lam1 - LAMBDA1) > LAMBDA1_TOL:
            problems.append(f"lambda1 {lam1} vs {LAMBDA1}")
        if abs(margin - MARGIN) > MARGIN_TOL:
            problems.append(f"margin {margin} vs {MARGIN}")
        if c_star is None or abs(c_star - C_STAR) > C_STAR_TOL:
            problems.append(f"c* {c_star} vs {C_STAR}")
    if item.name == "fig5-asym-pinned":
        xi, mu1 = report.spectral.xi, report.spectral.lambda1
        if np.max(np.abs(xi - np.array(XI))) > XI_TOL:
            problems.append(f"xi {xi} vs {XI}")
        if abs(mu1 - MU1) > MU1_TOL:
            problems.append(f"mu1 {mu1} vs {MU1}")
    return problems


def read_sweep_table(out_dir: Path) -> list[dict]:
    with open(out_dir / f"{SWEEP_SCENARIO}_sweep.csv") as f:
        header = f.readline().strip().split(",")
        return [dict(zip(header, line.strip().split(","))) for line in f]


def _check_sweep(item: Item, code, out_dir: Path) -> list[str]:
    """One message per failed sweep point; every point fails if the table is bad."""
    values = cli.parse_sweep(SWEEP_SPEC)
    try:
        rows = read_sweep_table(out_dir)
    except OSError as err:
        return [f"sweep table unreadable: {err}"] * len(values)
    if code != 0 or len(rows) != len(values):
        return [f"run_sweep returned {code} with {len(rows)} rows"] * len(values)
    problems = []
    for c, row, ref in zip(values, rows, item.expected):
        got_c, holds, pin = float(row["c"]), row["holds"] == "1", float(row["final_pin_ratio"])
        stem = f"{SWEEP_SCENARIO}_sweep_c{c:g}"
        bad = []
        if got_c != c or holds != (c > C_STAR) or row["diverged"] != "0":
            bad.append(f"c={got_c} holds={holds} diverged={row['diverged']}")
        if not _close(pin, ref["final_pin"]):
            bad.append(f"final_pin {pin!r} vs reference {ref['final_pin']!r}")
        for suffix in ("trajectory.csv", "metrics.csv", "summary.txt"):
            if not (out_dir / f"{stem}_{suffix}").is_file():
                bad.append(f"{stem}_{suffix} missing")
        if bad:
            problems.append(f"sweep c={c:g}: " + "; ".join(bad))
    return problems


def _check_network(item: Item, output) -> list[str]:
    if item.cfg is None:
        cert = item.expected[0]
        q = output.detail["min_quotient"]
        if output.holds and q >= cert.eta and output.detail["samples"] == QUAD_SAMPLES:
            return []
        return [f"QUAD sampling refuted the certificate: min quotient {q}"]
    report, traj, series = output
    route = "asymmetric" if item.expected == "random-asym" else "symmetric"
    problems = [] if report.route == route else [f"route {report.route}, expected {route}"]
    problems += check_top_eigenvalue(item.cfg, report)
    steps = int(round(item.cfg.t_max / item.cfg.dt))
    if traj.states.shape != (steps + 1, item.cfg.coupling.m, 3) or not np.all(
        np.isfinite(traj.states)
    ):
        problems.append(f"trajectory shape {traj.states.shape} or non-finite states")
    if series.pin_ratio is None or not math.isclose(series.pin_ratio[0], 1.0):
        problems.append("pin ratio does not start at 1")
    return problems


def check(workload: str, items: list[Item], outputs: list, out_dir: Path) -> list[str]:
    """Messages for every failed item of one pass; empty when all are correct."""
    failures = []
    for item, output in zip(items, outputs):
        if isinstance(output, Exception):
            n = items_per_pass(workload, items) if workload == "sweep" else 1
            trace = "".join(traceback.format_exception(output))
            failures += [f"{item.name} raised:\n{trace}"] * n
            continue
        if workload == "scenarios":
            problems = _check_scenario_result(item, output)
        elif workload == "sweep":
            failures += _check_sweep(item, output, out_dir)
            continue
        else:
            problems = _check_network(item, output)
        if problems:
            failures.append(f"{item.name}: " + "; ".join(problems))
    return failures


def record_reference(out_dir: Path) -> dict:
    """Final ratios of the scenarios and sweep points at ``HORIZON``."""
    scenarios = {}
    for name in pinnet.BUILTIN_SCENARIOS:
        result = cli.run_scenario(_with_horizon(name), out_dir=out_dir)
        scenarios[name] = {"final_sync": result.final_sync, "final_pin": result.final_pin}
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run_sweep(_with_horizon(SWEEP_SCENARIO), SWEEP_SPEC, out_dir)
    sweep = [
        {"c": float(row["c"]), "final_pin": float(row["final_pin_ratio"])}
        for row in read_sweep_table(out_dir)
    ]
    return {"horizon": HORIZON, "scenarios": scenarios, "sweep": sweep}
