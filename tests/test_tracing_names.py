"""The benchmark tracer patches pinnet functions by name; they must resolve.

``perfbench/tracing.py`` replaces each ``(module, attr)`` in its ``TRACED``
table, plus ``pinnet.simulate.make_network_rhs``, for the length of a traced
run. A refactor that renames or drops one of them breaks ``--trace 1`` only,
and one that routes a call around a patched name leaves that layer's metric
empty with no error; these tests make either fail here instead.
"""

import contextlib
import dataclasses
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

import pinnet
import pinnet.simulate
from pinnet import cli, conditions, simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# names the tracer patches that no pinnet code calls
UNREACHED = {"pinnet.cli.left_null_vector", "pinnet.cli.scc_condensation"}
CERTIFICATE = {"P": [1.0, 1.0, 1.0], "Delta": [10.0, 10.0, 10.0], "eta": 0.6218}


def _traced_names() -> list:
    spec = importlib.util.spec_from_file_location("pinnet_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve the defining module through sys.modules
    sys.modules[spec.name] = tracing
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _, _ in tracing.TRACED]
    names.append((pinnet.simulate, "make_network_rhs"))
    return names


def test_traced_names_resolve():
    names = _traced_names()
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in names
        if not callable(getattr(module, attr, None))
    ]
    assert len(names) > 1 and not missing, f"traced names are gone: {missing}"


def _asymmetric_network(m: int = 5) -> dict:
    rng = np.random.default_rng(0)
    coupling = conditions.random_coupling_matrix(rng, m, symmetric=False, edge_prob=0.5)
    return {
        "name": f"random-asym-m{m}",
        "coupling": coupling.entries.tolist(),
        "dynamics": {"kind": "chua"},
        "pin": {"node": 1, "epsilon": 5.0, "c": 10.0},
        "certificate": CERTIFICATE,
        "initial_states": rng.uniform(-2.0, 2.0, size=(m, 3)).tolist(),
        "reference_initial": [0.0, 0.0, 0.0],
        "integration": {"dt": 1e-3, "t_max": 0.01},
    }


def test_every_traced_name_is_reached_where_it_is_patched(monkeypatch, tmp_path):
    # the calls the benchmark's workloads make, at a tiny size, each name
    # counted at the (module, attr) where the tracer patches it
    calls = {}
    for module, attr in _traced_names():
        key = f"{module.__name__}.{attr}"
        calls[key] = 0
        original = getattr(module, attr)

        def counted(*args, _key=key, _original=original, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)

    for name in pinnet.BUILTIN_SCENARIOS:
        cfg = dataclasses.replace(cli.parse_scenario(name), t_max=0.01)
        cli.run_scenario(cfg, out_dir=tmp_path / name)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.run_sweep(cli.parse_scenario("fig4-sym-pinned"), "c=6:14:2", tmp_path / "sweep")
    cfg = cli.parse_scenario(_asymmetric_network())
    report = cli.check_scenario(cfg, quad_samples=100)
    assert report.route == "asymmetric"
    system = cli.build_system(cfg)
    traj = simulate.integrate(system, cfg.initial_states, cfg.reference_initial, cfg.dt, cfg.t_max)
    simulate.metrics(traj, weights=report.spectral.xi, p=cfg.certificate.p)
    cert = conditions.QuadCertificate(
        p=CERTIFICATE["P"], delta=CERTIFICATE["Delta"], eta=CERTIFICATE["eta"]
    )
    conditions.quad_check_sampled(pinnet.make_dynamics("chua"), cert, (-30.0, 30.0), 100)

    unreached = {key for key, count in calls.items() if count == 0}
    assert unreached == UNREACHED

