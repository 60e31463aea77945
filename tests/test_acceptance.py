"""Acceptance gate: every criterion checked at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The heavier criteria integrate the built-in scenarios at
their shipped steps and horizons, so the whole module takes a minute or so.
"""

import dataclasses
import time

import numpy as np
import pytest

import pinnet as pn
from pinnet.simulate import Trajectory

from _oracles import charpoly_eigenvalues, pairwise_quadratic_form

ASYM_3NODE = pn.validate_coupling([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
SYM_3NODE = pn.validate_coupling([[-5.1, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]])
TWO_BLOCK = pn.validate_coupling([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
CERT = pn.QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=0.6218)


def _report(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_01_left_perron_vector():
    xi = pn.left_null_vector(ASYM_3NODE)
    err = float(np.max(np.abs(xi - np.array([1 / 6, 2 / 6, 3 / 6]))))
    _report(1, err <= 1e-10, f"xi={np.round(xi, 8)} max err {err:.2e} (tol 1e-10)")


def test_02_weighted_spectral_value():
    _, report = pn.theorem4_check(ASYM_3NODE, pn.PinPlan(1, 2.0, 72.0), CERT)
    mu1 = report.lambda1
    oracle = charpoly_eigenvalues(
        pn.symmetrize_weighted(
            pn.pinned_matrix(ASYM_3NODE, pn.PinPlan(1, 2.0, 72.0)), report.xi
        )
    )[0]
    ok = mu1 < 0 and abs(mu1 - (-0.0718)) <= 1e-3 and abs(mu1 - oracle) <= 1e-9
    _report(2, ok, f"mu1={mu1:.6f} (target -0.0718 +- 1e-3, oracle {oracle:.6f})")


def test_03_symmetric_spectral_value():
    atil = pn.pinned_matrix(SYM_3NODE, pn.PinPlan(1, 4.9, 10.0))
    _, report = pn.proposition1_holds(atil)
    lam1 = report.lambda1
    oracle = charpoly_eigenvalues(atil)[0]
    ok = (
        abs(lam1 - (-1.011)) <= 2e-3
        and abs(10.0 * lam1 - (-10.11)) <= 0.02
        and abs(lam1 - oracle) <= 1e-9
    )
    _report(3, ok, f"lambda1={lam1:.6f}, c*lambda1={10 * lam1:.4f} (target -10.11 +- 0.02)")


def test_04_quad_certificate():
    eta = pn.certified_quad_margin(pn.make_dynamics("chua"), np.ones(3), 10.0 * np.ones(3))
    cert = pn.QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=eta - 1e-6)
    verdict = pn.quad_check_sampled(
        pn.make_dynamics("chua"), cert, (-30.0, 30.0), 1_000_000, seed=20240
    )
    ok = abs(eta - 0.6218) <= 1e-3 and verdict.holds
    _report(
        4,
        ok,
        f"eta={eta:.6f} (target 0.6218 +- 1e-3); 1e6-sample min quotient "
        f"{verdict.detail['min_quotient']:.4f}, no violation: {verdict.holds}",
    )


def test_05_theorem2_margin_and_minimal_strength():
    report = pn.check_scenario(pn.parse_scenario("fig4-sym-pinned"))
    weak = pn.parse_scenario("fig4-sym-pinned")
    weak = dataclasses.replace(weak, pin=dataclasses.replace(weak.pin, c=5.0))
    weak_report = pn.check_scenario(weak)
    ok = (
        report.theorem.holds
        and abs(report.theorem.margin - (-0.11)) <= 0.02
        and not weak_report.theorem.holds
        and abs(weak_report.min_c - 9.891) <= 0.01
    )
    _report(
        5,
        ok,
        f"margin={report.theorem.margin:+.4f} holds={report.theorem.holds}; "
        f"at c=5 holds={weak_report.theorem.holds}, c*={weak_report.min_c:.4f}",
    )


def test_06_pinned_convergence(tmp_path):
    t0 = time.perf_counter()
    result = pn.run_scenario(pn.parse_scenario("fig4-sym-pinned"), out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    ok = (
        elapsed < 10.0
        and result.exit_code == 0
        and result.final_pin < 1e-2
        and result.fitted_rate is not None
        and result.fitted_rate <= -0.6218
        and result.monitor.violations == 0
    )
    _report(
        6,
        ok,
        f"pin_ratio(20)={result.final_pin:.3e} (<1e-2), rate={result.fitted_rate:.3f} "
        f"(<=-0.6218), monitor violations={result.monitor.violations}, {elapsed:.1f}s (<10s)",
    )


def test_07_synchronization_without_pinning(tmp_path):
    result = pn.run_scenario(pn.parse_scenario("fig2-sym-uncontrolled"), out_dir=tmp_path)
    data = np.loadtxt(result.metrics_path, delimiter=",", skiprows=1)
    t, sync, pin_r = data[:, 0], data[:, 1], data[:, 2]
    min_sync = float(np.min(sync))
    late_pin = float(np.max(pin_r[t > 25.0]))
    ok = result.exit_code == 0 and min_sync < 1e-2 and late_pin > 0.1
    _report(
        7,
        ok,
        f"min sync_ratio={min_sync:.3e} (<1e-2), max pin_ratio(t>25)={late_pin:.3g} (>0.1)",
    )


def test_08_asymmetric_pinning(tmp_path):
    result = pn.run_scenario(pn.parse_scenario("fig5-asym-pinned"), out_dir=tmp_path)
    margin = result.report.theorem.margin
    ok = (
        result.exit_code == 0
        and result.final_pin < 1e-2
        and result.report.theorem.holds
        and abs(margin - (-0.17)) <= 0.03
    )
    _report(
        8,
        ok,
        f"pin_ratio(20)={result.final_pin:.3e} (<1e-2), theorem4 margin={margin:+.4f} "
        f"(-0.17 +- 0.03)",
    )


def test_09_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240901)

    # pinned random symmetric spectra are negative
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        a = pn.random_coupling_matrix(rng, m, symmetric=True)
        pin = pn.PinPlan(int(rng.integers(1, m + 1)), float(rng.uniform(1e-3, 10.0)), 1.0)
        verdict, report = pn.proposition1_holds(pn.pinned_matrix(a, pin))
        assert verdict.holds, f"lambda1={report.lambda1}"

    # pairwise quadratic-form identity (corrected sign)
    for _ in range(1000):
        m = int(rng.integers(2, 11))
        a = pn.random_coupling_matrix(rng, m, symmetric=True, require_irreducible=False)
        u, v = rng.normal(size=m), rng.normal(size=m)
        lhs = float(u @ a.entries @ v)
        rhs = pairwise_quadratic_form(a.entries, u, v)
        bound = 1e-9 * np.max(np.abs(a.entries)) * np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(lhs - rhs) <= bound

    # weighted symmetrization: zero row sums and negative pinned spectrum
    for _ in range(1000):
        m = int(rng.integers(2, 13))
        a = pn.random_coupling_matrix(rng, m, symmetric=False)
        xi = pn.left_null_vector(a)
        assert np.max(np.abs(pn.symmetrize_weighted(a, xi).sum(axis=1))) <= 1e-10
        pin = pn.PinPlan(int(rng.integers(1, m + 1)), float(rng.uniform(0.1, 5.0)), 1.0)
        weighted = pn.symmetrize_weighted(pn.pinned_matrix(a, pin), xi)
        assert pn.sym_eigen(weighted)[0] < 0.0

    # RK4 order on the exponential benchmark, 1000 random rates at once
    rates = rng.uniform(0.5, 2.0, size=1000)
    pn.register_dynamics("acceptance_decay", lambda dim, params: lambda x, t: -rates * x)
    sys_ = pn.NetworkSystem(
        coupling=pn.validate_coupling([[0.0]]),
        dynamics=pn.make_dynamics("acceptance_decay", dim=1000),
    )
    errors = []
    for dt in (0.1, 0.05, 0.025):
        traj = pn.integrate(sys_, np.ones((1, 1000)), np.zeros(1000), dt, 1.0)
        errors.append(np.abs(traj.states[-1, 0] - np.exp(-rates)))
    assert np.all(errors[0] / errors[1] >= 15.0)
    assert np.all(errors[1] / errors[2] >= 15.0)

    # pinned-manifold invariance, one batch per node count
    chua = pn.make_dynamics("chua")
    groups = {}
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        a = pn.random_coupling_matrix(
            rng, m, symmetric=bool(rng.integers(0, 2)), require_irreducible=False
        )
        pin = pn.PinPlan(
            int(rng.integers(1, m + 1)),
            float(rng.uniform(0.0, 5.0)),
            float(rng.uniform(0.1, 10.0)),
        )
        s0 = rng.uniform(-2.0, 2.0, size=3)
        groups.setdefault(m, []).append(
            (pn.NetworkSystem(coupling=a, dynamics=chua, pin=pin), np.tile(s0, (m, 1)), s0)
        )
    assert sum(map(len, groups.values())) == 1000
    for cases in groups.values():
        systems, x0s, s0s = zip(*cases)
        for traj in pn.integrate_batch(systems, x0s, s0s, 0.01, 0.2):
            assert isinstance(traj, Trajectory)
            dev = np.linalg.norm(traj.states - traj.reference[:, None, :], axis=2).sum(axis=1)
            assert float(dev.max()) <= 1e-10

    # metric ratios are exactly 1 at t = 0
    for _ in range(1000):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        series = pn.metrics(
            Trajectory(
                times=np.arange(4) * 0.1,
                states=rng.normal(size=(4, m, n)),
                reference=rng.normal(size=(4, n)),
            )
        )
        if series.sync_ratio is not None:
            assert series.sync_ratio[0] == 1.0
        assert series.pin_ratio[0] == 1.0

    elapsed = time.perf_counter() - t0
    _report(9, elapsed < 30.0, f"six property suites, 1000 cases each, {elapsed:.1f}s (<30s)")


def test_10_reducible_criterion(tmp_path):
    root_ok = pn.reducible_pinnability(pn.scc_condensation(TWO_BLOCK), 1)
    slave_bad = pn.reducible_pinnability(pn.scc_condensation(TWO_BLOCK), 3)
    result = pn.run_scenario(pn.parse_scenario("reducible-pinned"), out_dir=tmp_path)
    ok = (
        root_ok.holds
        and not slave_bad.holds
        and result.exit_code == 0
        and result.final_pin < 1e-2
    )
    _report(
        10,
        ok,
        f"root pin holds={root_ok.holds}, slave pin holds={slave_bad.holds}, "
        f"pin_ratio(30)={result.final_pin:.3e} (<1e-2)",
    )


def test_11_nonlinear_coupling(tmp_path):
    cfg = pn.parse_scenario("nonlinear-pinned")
    _, report = pn.proposition1_holds(pn.pinned_matrix(cfg.coupling, cfg.pin))
    c_star = pn.min_coupling_strength(CERT, report, alpha=0.5)
    result = pn.run_scenario(cfg, out_dir=tmp_path)

    rng = np.random.default_rng(7)
    bitwise = True
    for _ in range(100):
        n = int(rng.integers(1, 6))
        cert = pn.QuadCertificate(
            p=1.0 - rng.random(n), delta=rng.normal(size=n) * 5.0, eta=1.0
        )
        c = float(rng.uniform(0.01, 100.0))
        lam = float(rng.normal()) or -1.0
        t2 = pn.theorem3_check(cert, c, lam, 1.0)
        t3 = pn.theorem3_check(cert, c, lam, alpha=1.0)
        bitwise = bitwise and t3.margin == t2.margin and t3.holds == t2.holds

    ok = (
        cfg.pin.c >= c_star
        and result.exit_code == 0
        and result.final_pin < 1e-2
        and bitwise
    )
    _report(
        11,
        ok,
        f"c={cfg.pin.c} >= c*={c_star:.3f}, pin_ratio(30)={result.final_pin:.3e} (<1e-2), "
        f"theorem3(alpha=1) == theorem2 bitwise: {bitwise}",
    )
