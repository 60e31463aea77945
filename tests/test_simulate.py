import dataclasses

import numpy as np
import pytest

from pinnet import (
    DivergenceError,
    MetricSeries,
    NetworkSystem,
    PinPlan,
    QuadCertificate,
    build_system,
    decay_rate_fit,
    integrate,
    left_null_vector,
    lyapunov_monitor,
    make_coupling_function,
    make_dynamics,
    metrics,
    parse_scenario,
    validate_coupling,
)
from pinnet.model import make_network_rhs
from pinnet.scenarios import BUILTIN_SCENARIOS
from pinnet.simulate import grid_steps, integrate_batch

SYM_3NODE = validate_coupling([[-5.1, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]])
SPREAD_X0 = np.array([[40.1, 20.2, 30.3], [20.4, 30.5, 10.6], [60.7, 40.8, 50.9]])
CERT = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=0.6218)


def _single_node(rate=1.0, dim=1, pin=None):
    return NetworkSystem(
        coupling=validate_coupling(np.zeros((1, 1))),
        dynamics=make_dynamics("linear_decay", dim=dim, params={"rate": rate}),
        gfun=make_coupling_function("identity"),
        pin=pin,
    )


def _chua_net(pin):
    return NetworkSystem(
        coupling=SYM_3NODE, dynamics=make_dynamics("chua"), pin=pin
    )


class TestIntegrate:
    def test_no_dynamics_means_constant(self):
        sys_ = NetworkSystem(
            coupling=validate_coupling(np.zeros((2, 2))),
            dynamics=make_dynamics("linear_decay", dim=2, params={"rate": 0.0}),
        )
        x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
        traj = integrate(sys_, x0, np.zeros(2), dt=0.1, t_max=1.0)
        for snapshot in traj.states:
            np.testing.assert_array_equal(snapshot, x0)

    def test_exponential_decay_endpoint(self):
        traj = integrate(_single_node(), [[1.0]], [0.0], dt=0.01, t_max=1.0)
        assert traj.states[-1, 0, 0] == pytest.approx(np.exp(-1.0), abs=1e-8)

    def test_uniform_grid(self):
        traj = integrate(_single_node(), [[1.0]], [0.0], dt=0.01, t_max=2.0)
        assert len(traj.times) == 201
        steps = np.diff(traj.times)
        assert np.all(np.abs(steps - 0.01) <= 1e-15 * np.maximum(1.0, traj.times[1:]))
        np.testing.assert_array_equal(traj.times, np.arange(201) * 0.01)

    def test_reference_equilibrium_preserved(self):
        # origin is a circuit equilibrium; RK4 maps exact zero to exact zero
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), SPREAD_X0, np.zeros(3), 1e-3, 2.0)
        assert np.max(np.abs(traj.reference)) <= 1e-13

    def test_manifold_invariance(self):
        s0 = np.array([0.3, -0.1, 0.2])
        x0 = np.tile(s0, (3, 1))
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), x0, s0, 1e-3, 2.0)
        dev = np.linalg.norm(traj.states - traj.reference[:, None, :], axis=2).sum(axis=1)
        assert float(dev.max()) <= 1e-10

    def test_divergence_carries_partial_trajectory(self):
        # growth field x' = +5x crosses the guard around t = ln(1e9)/5
        sys_ = _single_node(rate=-5.0)
        with pytest.raises(DivergenceError) as err:
            integrate(sys_, [[1.0]], [0.0], dt=0.01, t_max=6.0)
        blowup = err.value.blowup_time
        assert blowup == pytest.approx(np.log(1e9) / 5.0, abs=0.05)
        partial = err.value.trajectory
        assert partial.times[-1] == pytest.approx(blowup)
        assert np.all(np.isfinite(partial.states))
        assert len(partial.times) < 601

    def test_validation(self):
        sys_ = _single_node()
        with pytest.raises(ValueError, match="dt"):
            integrate(sys_, [[1.0]], [0.0], dt=0.0, t_max=1.0)
        with pytest.raises(ValueError, match="t_max"):
            integrate(sys_, [[1.0]], [0.0], dt=0.1, t_max=0.01)
        with pytest.raises(ValueError, match="x0 must have shape"):
            integrate(sys_, [[1.0, 2.0]], [0.0], dt=0.1, t_max=1.0)
        with pytest.raises(ValueError, match="s0 must have shape"):
            integrate(sys_, [[1.0]], [0.0, 1.0], dt=0.1, t_max=1.0)
        with pytest.raises(ValueError, match="finite"):
            integrate(sys_, [[np.nan]], [0.0], dt=0.1, t_max=1.0)


class TestGrid:
    def test_non_dividing_step_rejected(self):
        # 0.3 would stop at t = 0.9 instead of the requested 1.0
        with pytest.raises(ValueError, match=r"dt=0\.3 .*t_max=1\b"):
            integrate(_single_node(), [[1.0]], [0.0], dt=0.3, t_max=1.0)

    @pytest.mark.parametrize(
        "dt, t_max, steps",
        [(1e-3, 0.2, 200), (1e-3, 1.0, 1000), (2e-4, 1.0, 5000), (0.1, 1.0, 10)]
        + [
            (d["integration"]["dt"], d["integration"]["t_max"], None)
            for d in BUILTIN_SCENARIOS.values()
        ],
    )
    def test_shipped_grids_accepted(self, dt, t_max, steps):
        n = grid_steps(dt, t_max)
        assert n * dt == pytest.approx(t_max, rel=1e-12)
        if steps is not None:
            assert n == steps


def _decay_net(c, rate=1.0, epsilon=1.0):
    # one node pinned to a reference at rest: x' = -(rate + c epsilon) x
    return _single_node(rate=rate, dim=2, pin=PinPlan(1, epsilon, c))


class TestIntegrateBatch:
    def test_members_match_solo_runs_bit_for_bit(self):
        cfg = parse_scenario("fig4-sym-pinned")
        systems = [
            build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=c)))
            for c in np.linspace(6.0, 14.0, 9)
        ]
        rng = np.random.default_rng(11)
        x0s = [cfg.initial_states] + [rng.uniform(-5, 5, (3, 3)) for _ in systems[1:]]
        s0s = [cfg.reference_initial] + [rng.uniform(-1, 1, 3) for _ in systems[1:]]
        batch = integrate_batch(systems, x0s, s0s, cfg.dt, 0.5)
        assert len(batch) == len(systems)
        for sys_, x0, s0, got in zip(systems, x0s, s0s, batch):
            solo = integrate(sys_, x0, s0, cfg.dt, 0.5)
            np.testing.assert_array_equal(got.times, solo.times)
            np.testing.assert_array_equal(got.states, solo.states)
            np.testing.assert_array_equal(got.reference, solo.reference)

    def test_nonlinear_coupling_members_match_solo_runs(self):
        cfg = parse_scenario("nonlinear-pinned")
        systems = [
            build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=c)))
            for c in (18.0, 22.0, 26.0)
        ]
        x0s = [cfg.initial_states] * 3
        s0s = [cfg.reference_initial] * 3
        for sys_, got in zip(systems, integrate_batch(systems, x0s, s0s, cfg.dt, 0.2)):
            solo = integrate(sys_, cfg.initial_states, cfg.reference_initial, cfg.dt, 0.2)
            np.testing.assert_array_equal(got.states, solo.states)

    def test_diverging_member_leaves_the_others_untouched(self):
        # the growth field x' = +5x of test_divergence_carries_partial_trajectory
        # between two members whose controller turns it into decay
        systems = [
            _single_node(rate=-5.0, pin=PinPlan(1, 6.0, 1.0)),
            _single_node(rate=-5.0),
            _single_node(rate=-5.0, pin=PinPlan(1, 5.5, 1.0)),
        ]
        x0s, s0s = [[[1.0]], [[1.0]], [[2.0]]], [[0.0]] * 3
        batch = integrate_batch(systems, x0s, s0s, dt=0.01, t_max=6.0)
        with pytest.raises(DivergenceError) as solo_err:
            integrate(systems[1], [[1.0]], [0.0], dt=0.01, t_max=6.0)
        err = batch[1]
        assert isinstance(err, DivergenceError)
        assert err.blowup_time == solo_err.value.blowup_time
        partial, solo_partial = err.trajectory, solo_err.value.trajectory
        np.testing.assert_array_equal(partial.times, solo_partial.times)
        np.testing.assert_array_equal(partial.states, solo_partial.states)
        np.testing.assert_array_equal(partial.reference, solo_partial.reference)
        for k in (0, 2):
            solo = integrate(systems[k], x0s[k], s0s[k], dt=0.01, t_max=6.0)
            assert len(batch[k].times) == 601
            np.testing.assert_array_equal(batch[k].states, solo.states)
            np.testing.assert_array_equal(batch[k].reference, solo.reference)

    def test_all_members_diverging(self):
        systems = [_single_node(rate=-6.0, pin=PinPlan(1, 1.0, 1.0)), _single_node(rate=-6.0)]
        batch = integrate_batch(systems, [[[1.0]]] * 2, [[0.0]] * 2, dt=0.01, t_max=6.0)
        assert all(isinstance(r, DivergenceError) for r in batch)
        assert batch[1].blowup_time < batch[0].blowup_time

    def test_validation_names_member_and_field(self):
        systems = [_single_node(), _single_node()]
        with pytest.raises(ValueError, match="one x0 and one s0 per system"):
            integrate_batch(systems, [[[1.0]]], [[0.0]] * 2, 0.1, 1.0)
        with pytest.raises(ValueError, match="member 2: x0 must have shape"):
            integrate_batch(systems, [[[1.0]], [[1.0, 2.0]]], [[0.0]] * 2, 0.1, 1.0)
        with pytest.raises(ValueError, match="node count"):
            integrate_batch(
                [_single_node(), _chua_net(None)], [[[1.0]], SPREAD_X0], [[0.0], np.zeros(3)],
                0.1, 1.0,
            )
        with pytest.raises(ValueError, match="dynamics"):
            integrate_batch(
                [_single_node(), _single_node(rate=2.0)], [[[1.0]]] * 2, [[0.0]] * 2, 0.1, 1.0
            )
        with pytest.raises(ValueError, match="dt=0.3"):
            integrate_batch(systems, [[[1.0]]] * 2, [[0.0]] * 2, 0.3, 1.0)


class TestIntegratorOracle:
    """RK4 against scipy's DOP853 at tight tolerances and against exact solutions."""

    @staticmethod
    def _dop853(sys_, x0, s0, t_max):
        integrate_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        rhs = make_network_rhs([sys_])
        y0 = np.vstack([x0, np.asarray(s0)[None, :]])[None]
        sol = integrate_ivp(
            lambda t, y: rhs(y.reshape(y0.shape), t).ravel(),
            (0.0, t_max),
            y0.ravel(),
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
        )
        assert sol.success
        return sol.y[:, -1].reshape(y0.shape)[0]

    @staticmethod
    def _check_decay(traj, x0, c, dt=0.01):
        # x' = -(1 + c) x: RK4 multiplies by its stability polynomial R(z) per
        # step, which matches exp(z) to O(z^5)
        z = -(1.0 + c) * dt
        steps = len(traj.times) - 1
        r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
        exact = x0[0] * np.exp(z * steps)
        np.testing.assert_allclose(traj.states[-1, 0], x0[0] * r**steps, rtol=1e-12, atol=0)
        np.testing.assert_allclose(traj.states[-1, 0], exact, rtol=1e-7, atol=0)
        np.testing.assert_array_equal(traj.reference, 0.0)

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_linear_decay_exact(self, c):
        x0 = np.array([[1.0, -0.5]])
        oracle = self._dop853(_decay_net(c), x0, np.zeros(2), 1.0)
        np.testing.assert_allclose(oracle[0], x0[0] * np.exp(-(1.0 + c)), rtol=1e-10, atol=0)
        self._check_decay(integrate(_decay_net(c), x0, np.zeros(2), 0.01, 1.0), x0, c)

    def test_linear_decay_exact_in_a_mixed_batch(self):
        x0 = np.array([[1.0, -0.5]])
        cs = (0.5, 1.0, 2.0)
        batch = integrate_batch(
            [_decay_net(c) for c in cs], [x0] * 3, [np.zeros(2)] * 3, 0.01, 1.0
        )
        for c, traj in zip(cs, batch):
            self._check_decay(traj, x0, c)

    @pytest.mark.parametrize("name", list(BUILTIN_SCENARIOS))
    def test_builtin_short_horizon(self, name):
        # the shipped step, a mixed-c batch around the shipped strength
        cfg = parse_scenario(name)
        t_max = 0.5
        systems = [
            build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=cfg.pin.c * f)))
            for f in (0.8, 1.0, 1.25)
        ]
        x0, s0 = cfg.initial_states, cfg.reference_initial
        solo = integrate(systems[1], x0, s0, cfg.dt, t_max)
        batch = integrate_batch(systems, [x0] * 3, [s0] * 3, cfg.dt, t_max)
        for sys_, traj in zip(systems, batch):
            oracle = self._dop853(sys_, x0, s0, t_max)
            end = np.vstack([traj.states[-1], traj.reference[-1]])
            assert np.max(np.abs(end - oracle)) <= 1e-6 * (1.0 + np.max(np.abs(oracle)))
        np.testing.assert_array_equal(batch[1].states, solo.states)


class TestRK4Order:
    def test_convergence_ratio_on_exponential(self):
        errors = []
        for dt in (0.1, 0.05, 0.025):
            traj = integrate(_single_node(), [[1.0]], [0.0], dt=dt, t_max=1.0)
            errors.append(abs(traj.states[-1, 0, 0] - np.exp(-1.0)))
        assert errors[0] / errors[1] >= 15.0
        assert errors[1] / errors[2] >= 15.0


class TestStepHalving:
    # endpoint agreement between dt and dt/2 over the stiff initial transient
    # guards the default steps of every built-in scenario
    @pytest.mark.parametrize(
        "name",
        [
            "fig2-sym-uncontrolled",
            "fig4-sym-pinned",
            "fig5-asym-pinned",
            "nonlinear-pinned",
            "reducible-pinned",
        ],
    )
    def test_builtin_scenario_endpoint_agreement(self, name):
        cfg = parse_scenario(name)
        sys_ = build_system(cfg)
        horizon = min(5.0, cfg.t_max)
        ends = []
        for dt in (cfg.dt, cfg.dt / 2.0):
            traj = integrate(sys_, cfg.initial_states, cfg.reference_initial, dt, horizon)
            ends.append(np.vstack([traj.states[-1], traj.reference[-1]]))
        rel = np.max(np.abs(ends[0] - ends[1])) / (1.0 + np.max(np.abs(ends[1])))
        assert rel < 1e-6


class TestMetrics:
    def test_ratios_one_at_start(self):
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), SPREAD_X0, np.zeros(3), 1e-2, 0.5)
        series = metrics(traj)
        assert series.sync_ratio[0] == 1.0
        assert series.pin_ratio[0] == 1.0

    def test_uniform_offset_leaves_sync_undefined(self):
        s0 = np.array([1.0, 2.0])
        sys_ = NetworkSystem(
            coupling=validate_coupling(np.zeros((3, 3))),
            dynamics=make_dynamics("linear_decay", dim=2, params={"rate": 0.0}),
        )
        x0 = np.tile(s0 + np.array([0.5, -0.5]), (3, 1))
        traj = integrate(sys_, x0, s0, dt=0.1, t_max=1.0)
        series = metrics(traj)
        assert series.sync_ratio is None
        assert series.pin_ratio[0] == 1.0

    def test_weighted_lyapunov(self):
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), SPREAD_X0, np.zeros(3), 1e-2, 0.1)
        w = np.array([1 / 6, 2 / 6, 3 / 6])
        p = np.array([1.0, 2.0, 3.0])
        series = metrics(traj, weights=w, p=p)
        dx = traj.states[0] - traj.reference[0]
        expected = 0.5 * sum(
            w[i] * float(dx[i] @ (p * dx[i])) for i in range(3)
        )
        assert series.lyapunov[0] == pytest.approx(expected, rel=1e-12)

    def test_shape_validation(self):
        traj = integrate(_single_node(dim=2), [[1.0, 0.0]], [0.0, 0.0], 0.1, 0.5)
        with pytest.raises(ValueError):
            metrics(traj, weights=np.ones(3))
        with pytest.raises(ValueError):
            metrics(traj, p=np.ones(3))


class TestDecayRateFit:
    def test_pure_controller_rate(self):
        sys_ = _single_node(rate=0.0, dim=3, pin=PinPlan(1, 2.0, 1.0))
        traj = integrate(sys_, [[1.0, 0.5, -0.25]], [0.0, 0.0, 0.0], 0.01, 5.0)
        series = metrics(traj)
        rate = decay_rate_fit(series, (0.0, 5.0))
        assert rate == pytest.approx(-2.0, abs=1e-6)

    def test_constant_series_rate_zero(self):
        sys_ = _single_node(rate=0.0)
        traj = integrate(sys_, [[1.0]], [0.0], 0.1, 2.0)
        rate = decay_rate_fit(metrics(traj), (0.0, 2.0))
        assert rate == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_values_rejected(self):
        series = MetricSeries(
            times=np.arange(4.0),
            sync_ratio=None,
            pin_ratio=np.array([1.0, 0.5, 0.0, 0.1]),
            lyapunov=np.zeros(4),
        )
        with pytest.raises(ValueError, match="positive"):
            decay_rate_fit(series, (0.0, 3.0))

    def test_undefined_ratio_rejected(self):
        series = MetricSeries(
            times=np.arange(4.0), sync_ratio=None, pin_ratio=None, lyapunov=np.zeros(4)
        )
        with pytest.raises(ValueError, match="undefined"):
            decay_rate_fit(series, (0.0, 3.0))

    def test_narrow_window_rejected(self):
        sys_ = _single_node()
        traj = integrate(sys_, [[1.0]], [0.0], 0.1, 1.0)
        with pytest.raises(ValueError, match="window"):
            decay_rate_fit(metrics(traj), (0.55, 0.56))


class TestLyapunovMonitor:
    def test_pinned_run_is_clean(self):
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), SPREAD_X0, np.zeros(3), 1e-3, 5.0)
        report = lyapunov_monitor(traj, CERT, tol_rate=1e-3)
        assert report.violations == 0
        assert report.first_violation_time is None
        assert report.required_rate == pytest.approx(0.6218 - 1e-3)

    def test_uncontrolled_run_reports_without_raising(self):
        traj = integrate(_chua_net(PinPlan(1, 0.0, 10.0)), SPREAD_X0, np.zeros(3), 1e-3, 10.0)
        report = lyapunov_monitor(traj, CERT, tol_rate=1e-3)
        assert report.violations > 0
        assert report.first_violation_time is not None
        assert report.worst_excess > 0

    def test_zero_error_is_clean(self):
        x0 = np.zeros((3, 3))
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), x0, np.zeros(3), 1e-2, 1.0)
        report = lyapunov_monitor(traj, CERT)
        assert report.violations == 0

    def test_asymmetric_pinned_run_is_clean(self):
        # theorem4 holds for this scenario, so the xi-weighted V must obey
        # the same discrete decrease bound
        cfg = parse_scenario("fig5-asym-pinned")
        traj = integrate(
            build_system(cfg), cfg.initial_states, cfg.reference_initial, cfg.dt, 2.0
        )
        xi = left_null_vector(cfg.coupling)
        report = lyapunov_monitor(traj, CERT, weights=xi, tol_rate=1e-3)
        assert report.violations == 0

    def test_nonlinear_pinned_run_is_clean(self):
        cfg = parse_scenario("nonlinear-pinned")
        traj = integrate(
            build_system(cfg), cfg.initial_states, cfg.reference_initial, cfg.dt, 2.0
        )
        report = lyapunov_monitor(traj, CERT, tol_rate=1e-3)
        assert report.violations == 0
