import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pinnet import (
    CouplingFunction,
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
    make_dynamics,
    metrics,
    chua_region_jacobian,
    parse_scenario,
    pinned_matrix,
    register_dynamics,
    run_scenario,
    validate_coupling,
)
from pinnet import simulate
from pinnet.model import make_network_rhs, network_operator
from pinnet.scenarios import BUILTIN_SCENARIOS
from pinnet.simulate import Trajectory, grid_steps, integrate_batch

from _oracles import integrate_batch_reference, metrics_reference

SCENARIOS = Path(__file__).with_name("data") / "scenarios"
SYM_3NODE = validate_coupling([[-5.1, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]])
SPREAD_X0 = np.array([[40.1, 20.2, 30.3], [20.4, 30.5, 10.6], [60.7, 40.8, 50.9]])
CERT = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=0.6218)


def _single_node(rate=1.0, dim=1, pin=None, gfun="identity"):
    return NetworkSystem(
        coupling=validate_coupling(np.zeros((1, 1))),
        dynamics=make_dynamics("linear_decay", dim=dim, params={"rate": rate}),
        gfun=CouplingFunction(gfun),
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
    @pytest.mark.parametrize("gfun", ["identity", "sine_blend"])
    def test_integer_step_is_a_float_step(self, gfun):
        # the affine path (identity) and the RK4 loop (sine_blend, whose
        # state stays far from its linear region) both step on the float that
        # dt is checked as
        sys_ = _single_node(rate=0.1, gfun=gfun)
        got = integrate(sys_, [[1.0]], [0.5], 1, 3)
        want = integrate(sys_, [[1.0]], [0.5], 1.0, 3.0)
        assert got.times.dtype == np.float64
        np.testing.assert_array_equal(got.times, [0.0, 1.0, 2.0, 3.0])
        _assert_same_runs([got], [want])

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
    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="^need at least one system$"):
            integrate_batch([], [], [], 1e-3, 1.0)

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

    def test_fig4_sweep_members_match_their_solo_runs_at_the_shipped_horizon(self):
        # each member steps by its own blocks from its own anchors
        cfg = parse_scenario("fig4-sym-pinned")
        systems = [
            build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=float(c))))
            for c in np.linspace(6.0, 14.0, 9)
        ]
        x0, s0 = cfg.initial_states, cfg.reference_initial
        batch = integrate_batch(systems, [x0] * 9, [s0] * 9, cfg.dt, cfg.t_max)
        for sys_, got in zip(systems, batch):
            solo = integrate(sys_, x0, s0, cfg.dt, cfg.t_max)
            np.testing.assert_array_equal(_bits(got.states), _bits(solo.states))
            np.testing.assert_array_equal(_bits(got.reference), _bits(solo.reference))

    def test_nonlinear_coupling_members_match_solo_runs(self, rhs_times):
        # the members settle within the sine blend's linear region at
        # different times (t = 0.986, 0.798, 0.669) and leave the batch for
        # the affine path one by one
        cfg = parse_scenario("nonlinear-pinned")
        systems = [
            build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=c)))
            for c in (18.0, 22.0, 26.0)
        ]
        x0s = [cfg.initial_states] * 3
        s0s = [cfg.reference_initial] * 3
        loop_steps = []
        for sys_, got in zip(systems, integrate_batch(systems, x0s, s0s, cfg.dt, 1.0)):
            rhs_times.clear()
            solo = integrate(sys_, cfg.initial_states, cfg.reference_initial, cfg.dt, 1.0)
            loop_steps.append(len(rhs_times) // 4)
            np.testing.assert_array_equal(_bits(got.states), _bits(solo.states))
            np.testing.assert_array_equal(_bits(got.reference), _bits(solo.reference))
        assert 1000 > loop_steps[0] > loop_steps[1] > loop_steps[2] > 0

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

    def test_guard_fires_on_the_norm_not_the_largest_component(self):
        # three equal components growing at rate 1 from 0.5e9 and from 0.7e9:
        # the node norm sqrt(3) x crosses 1e9 while every component is still
        # under 1e9 (the 0.7e9 member at the first step, with norm 1.21e9)
        grow = _single_node(rate=-1.0, dim=3)
        calm = _single_node(rate=-1.0, dim=3, pin=PinPlan(1, 3.0, 1.0))
        s0 = np.zeros(3)
        x0s = [np.full((1, 3), v) for v in (0.5e9, 0.5e9, 0.25e9, 0.7e9)]
        systems = [calm, grow, calm, grow]
        batch = integrate_batch(systems, x0s, [s0] * 4, dt=0.01, t_max=1.0)
        for k in (1, 3):
            # hand-computed norm check after each step, on the same run
            # scaled by 2**-10 (exact for a linear field, and far below the
            # guard)
            small = integrate(grow, x0s[k] / 1024.0, s0, dt=0.01, t_max=1.0)
            states = small.states[:, 0, :] * 1024.0
            first = 1 + int(np.argmax(np.linalg.norm(states[1:], axis=1) > 1e9))
            assert np.linalg.norm(states[first]) > 1e9 > np.abs(states[first]).max()
            err = batch[k]
            assert isinstance(err, DivergenceError)
            assert err.blowup_time == small.times[first]
            np.testing.assert_array_equal(err.trajectory.states[:, 0, :], states[: first + 1])
        assert batch[1].blowup_time > 0.1 and batch[3].blowup_time == 0.01
        for k in (0, 2):
            solo = integrate(calm, x0s[k], s0, dt=0.01, t_max=1.0)
            np.testing.assert_array_equal(batch[k].states, solo.states)
            np.testing.assert_array_equal(batch[k].reference, solo.reference)

    def test_non_finite_member_is_named(self):
        register_dynamics(
            "test_nan_above_2", lambda dim, params: lambda x, t: np.where(x > 2.0, np.nan, -x)
        )
        sys_ = NetworkSystem(
            coupling=validate_coupling(np.zeros((1, 1))),
            dynamics=make_dynamics("test_nan_above_2", dim=1),
        )
        with pytest.raises(ValueError, match="non-finite values in batch member 2 at t=0.1"):
            integrate_batch([sys_, sys_], [[[1.0]], [[3.0]]], [[0.0]] * 2, dt=0.1, t_max=1.0)

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


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_same_runs(got, want):
    """Batch results equal bit for bit (-0.0 and NaN payloads included)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, DivergenceError):
            assert str(g) == str(w) and g.blowup_time == w.blowup_time
            g, w = g.trajectory, w.trajectory
        for field in ("times", "states", "reference"):
            np.testing.assert_array_equal(_bits(getattr(g, field)), _bits(getattr(w, field)))


# Per-sample drift allowed between a run that takes affine steps and the
# RK4 loop, relative to the sample's largest entry: an affine step rounds
# y + B [y; 1] where the loop rounds its four stages, about eps per step.
# The built-ins drift by at most 5.7e-13 at their shipped horizons.
LINEAR_DRIFT = 1e-11


def _stacked(traj):
    """The samples as ``(N + 1, m + 1, n)``, the reference last."""
    return np.concatenate([traj.states, traj.reference[:, None, :]], axis=1)


def _assert_parity(got, want, affine):
    """Batch results against the frozen loop. Without ``affine`` pieces they
    are equal bit for bit. With them, outcomes, messages and blow-up times
    are equal, the initial samples are equal bit for bit, and every sample
    from sample 1 on is within ``LINEAR_DRIFT`` of the loop's."""
    if affine is None:
        _assert_same_runs(got, want)
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        if isinstance(w, DivergenceError):
            assert str(g) == str(w) and g.blowup_time == w.blowup_time
            g, w = g.trajectory, w.trajectory
        np.testing.assert_array_equal(_bits(g.times), _bits(w.times))
        a, b = _stacked(g), _stacked(w)
        np.testing.assert_array_equal(_bits(a[0]), _bits(b[0]))
        scale = np.abs(b).max(axis=(1, 2))
        assert np.all(np.abs(a - b).max(axis=(1, 2)) <= LINEAR_DRIFT * scale)


class _BlockProducts:
    """numpy for :mod:`pinnet.simulate`, counting its ``np.dot`` calls with an
    ``out`` buffer: the affine path's block products."""

    def __init__(self):
        self.count = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def dot(self, a, b, out=None):
        self.count += out is not None
        return np.dot(a, b, out=out)


def _pieces(sys_):
    """The affine pieces the integrator may step on: the field's, under either
    coupling map (the sine blend's once a member settles near 0)."""
    return sys_.dynamics.affine


class TestFrozenLoopParity:
    """The integrator against its earlier plain-expression loop
    (``_oracles.integrate_batch_reference``): same states, bit for bit, for
    systems without affine pieces, and within ``LINEAR_DRIFT`` for systems
    with them (:func:`_assert_parity`)."""

    @staticmethod
    def _both(systems, x0s, s0s, dt, t_max):
        return (
            integrate_batch(systems, x0s, s0s, dt, t_max),
            integrate_batch_reference(systems, x0s, s0s, dt, t_max),
        )

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins_at_shipped_dt(self, name):
        cfg = parse_scenario(name)
        sys_ = build_system(cfg)
        _assert_parity(
            *self._both([sys_], [cfg.initial_states], [cfg.reference_initial], cfg.dt, 2.0),
            _pieces(sys_),
        )

    def test_fig2_at_its_shipped_horizon(self):
        # the built-in with the most pattern switches: 50,000 steps
        cfg = parse_scenario("fig2-sym-uncontrolled")
        sys_ = build_system(cfg)
        _assert_parity(
            *self._both(
                [sys_], [cfg.initial_states], [cfg.reference_initial], cfg.dt, cfg.t_max
            ),
            _pieces(sys_),
        )

    def test_fig4_sweep_batch(self):
        cfg = parse_scenario("fig4-sym-pinned")
        systems = [
            build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=float(c))))
            for c in np.linspace(6.0, 14.0, 9)
        ]
        _assert_parity(
            *self._both(
                systems, [cfg.initial_states] * 9, [cfg.reference_initial] * 9, cfg.dt, 2.0
            ),
            _pieces(systems[0]),
        )

    def test_nonlinear_pinned_at_its_shipped_horizon(self):
        # the loop until every coordinate is within the sine blend's 1e-8
        # (t = 0.798), then the affine path; where a sample's largest entry is
        # subnormal (t > 22.9) the loop's roundoff differs in kind, and both
        # runs stay there
        cfg = parse_scenario("nonlinear-pinned")
        got, want = self._both(
            [build_system(cfg)], [cfg.initial_states], [cfg.reference_initial], cfg.dt, cfg.t_max
        )
        a, b = _stacked(got[0]), _stacked(want[0])
        np.testing.assert_array_equal(_bits(a[0]), _bits(b[0]))
        scale = np.abs(b).max(axis=(1, 2))
        normal = scale >= np.finfo(float).tiny
        assert normal[: len(normal) // 2].all() and not normal[-1]
        assert np.all(np.abs(a - b).max(axis=(1, 2))[normal] <= LINEAR_DRIFT * scale[normal])
        assert np.abs(a[~normal]).max() < np.finfo(float).tiny

    def test_a_member_that_leaves_the_linear_region_returns_to_the_loop(
        self, monkeypatch, generic_steps
    ):
        # x' = 5x - g(x), 3.5x near 0: from 1e-10 the node settles after the
        # first (loop) step, grows on the affine path and crosses 1e-8 at
        # t = ln(100) / 3.5 = 1.32; the loop takes every step from there,
        # with no block product
        products = _BlockProducts()
        monkeypatch.setattr(simulate, "np", products)
        sys_ = _single_node(rate=-5.0, pin=PinPlan(1, 1.0, 1.0), gfun="sine_blend")
        got, want = self._both([sys_], [[[1e-10]]], [[0.0]], 0.01, 2.0)
        crossing = int(np.argmax(np.abs(want[0].states[:, 0, 0]) > 1e-8))
        loop = generic_steps(0.01)
        assert 120 < crossing < 140 and want[0].states[-1, 0, 0] > 1e-7
        assert loop == {0} | set(range(crossing - 1, 200))
        # 9 products on the affine path (blocks doubling), none for the ~70
        # loop steps after the crossing
        assert products.count < 15
        _assert_parity(got, want, sys_.dynamics.affine)

    def test_a_member_back_in_the_linear_region_leaves_the_loop_again(self, generic_steps):
        # a pinned Chua node started within 1e-8 of 0: its non-normal inner
        # field carries it out of the sine blend's linear region (samples 13
        # to 269) and back; the loop takes the steps out there, and affine
        # steps resume once a sample is back within 1e-8
        sys_ = NetworkSystem(
            coupling=validate_coupling(np.zeros((1, 1))),
            dynamics=make_dynamics("chua"),
            gfun=CouplingFunction("sine_blend"),
            pin=PinPlan(1, 1.0, 3.0),
        )
        x0 = [[0.0, 9e-9, -9e-9]]
        got, want = self._both([sys_], [x0], [np.zeros(3)], 1e-3, 1.0)
        out = np.flatnonzero(np.abs(want[0].states[:, 0]).max(axis=1) > 1e-8)
        loop = generic_steps(1e-3)
        assert 1 < out.min() and out.max() < 500
        assert loop == {0} | set(range(out.min() - 1, out.max() + 1))
        _assert_parity(got, want, sys_.dynamics.affine)

    def test_diverging_member(self):
        self._diverging_member("identity")

    def test_diverging_member_sine_blend(self):
        # the same guard case under the sine blend: the two decaying members
        # settle near 0 and end on the affine path
        self._diverging_member("sine_blend")

    def _diverging_member(self, gfun):
        systems = [
            _single_node(rate=-5.0, pin=PinPlan(1, 6.0, 1.0), gfun=gfun),
            _single_node(rate=-5.0, gfun=gfun),
            _single_node(rate=-5.0, pin=PinPlan(1, 5.5, 1.0), gfun=gfun),
        ]
        got, want = self._both(systems, [[[1.0]], [[1.0]], [[2.0]]], [[0.0]] * 3, 0.01, 6.0)
        assert isinstance(want[1], DivergenceError) and 0.0 < want[1].blowup_time < 6.0
        assert not any(isinstance(r, DivergenceError) for r in (want[0], want[2]))
        _assert_parity(got, want, _pieces(systems[0]))

    def test_non_finite_member(self):
        register_dynamics(
            "test_nan_above_2_frozen",
            lambda dim, params: lambda x, t: np.where(x > 2.0, np.nan, -x),
        )
        sys_ = NetworkSystem(
            coupling=validate_coupling(np.zeros((1, 1))),
            dynamics=make_dynamics("test_nan_above_2_frozen", dim=1),
        )
        args = ([sys_, sys_], [[[1.0]], [[3.0]]], [[0.0]] * 2, 0.1, 1.0)
        with pytest.raises(ValueError) as want:
            integrate_batch_reference(*args)
        with pytest.raises(ValueError) as got:
            integrate_batch(*args)
        assert str(got.value) == str(want.value)

    def test_total_norm_over_the_guard_is_not_divergence(self):
        self._total_norm_over_the_guard("identity")

    def test_total_norm_over_the_guard_sine_blend(self):
        # the same guard case under the sine blend: these states stay far
        # from its linear region, so every step is a loop step, bit for bit
        self._total_norm_over_the_guard("sine_blend")

    def _total_norm_over_the_guard(self, gfun):
        # four nodes of norm 0.9e9 (total norm^2 3.2e18) fail the one-dot
        # filter on every step; the per-node check must still pass the
        # constant member and stop the growing one exactly where the old
        # loop did
        coupling = validate_coupling(np.zeros((4, 4)))
        constant, growing = (
            NetworkSystem(
                coupling=coupling,
                dynamics=make_dynamics("linear_decay", dim=3, params={"rate": rate}),
                gfun=CouplingFunction(gfun),
            )
            for rate in (0.0, -1.0)
        )
        x0 = np.full((4, 3), 0.9e9 / np.sqrt(3.0))
        assert (np.linalg.norm(x0, axis=1) < 1e9).all() and np.sum(x0 * x0) > 1e18
        s0 = np.zeros(3)
        pieces = _pieces(constant) if gfun == "identity" else None
        got, want = self._both([constant] * 2, [x0, 0.99 * x0], [s0] * 2, 0.01, 1.0)
        assert all(isinstance(r, Trajectory) for r in got)
        _assert_parity(got, want, pieces)
        got, want = self._both([growing], [x0], [s0], 0.01, 1.0)
        assert isinstance(want[0], DivergenceError) and want[0].blowup_time > 0.01
        _assert_parity(got, want, pieces)


@pytest.mark.parametrize("shape", ["dominant", "equal", "random"])
@pytest.mark.parametrize("nodes, n", [(4, 3), (24, 3), (256, 4), (1 << 15, 4)])
def test_safe_total_bounds_every_node_norm(shape, nodes, n):
    # a state whose one-dot total sits at the filter's bound, 12 to 2^17
    # entries: every node norm^2 that _breaches computes is within the guard
    rng = np.random.default_rng(nodes + n)
    base = {
        "dominant": np.vstack([np.ones((1, n)), np.full((nodes - 1, n), 1e-6)]),
        "equal": np.ones((nodes, n)),
        "random": rng.standard_normal((nodes, n)),
    }[shape]

    def total(scale):
        flat = (scale * base).ravel()
        return np.dot(flat, flat)

    # step the scale ulp by ulp to the last one whose total is <= _SAFE2; a
    # long sum's rounding is not monotone in it, so that total is only
    # within 1e-9 of _SAFE2
    scale = np.sqrt(simulate._SAFE2 / total(1.0))
    while total(scale) > simulate._SAFE2:
        scale = np.nextafter(scale, 0.0)
    while total(np.nextafter(scale, np.inf)) <= simulate._SAFE2:
        scale = np.nextafter(scale, np.inf)
    assert simulate._SAFE2 * (1.0 - 1e-9) <= total(scale) <= simulate._SAFE2
    y = (scale * base)[None]
    assert np.einsum("bij,bij->bi", y, y).max() <= simulate._GUARD2
    assert not simulate._breaches(y).any()


def _ring(m):
    a = np.zeros((m, m))
    i = np.arange(m)
    a[i, (i + 1) % m] = 1.0
    a = a + a.T
    np.fill_diagonal(a, -a.sum(axis=1))
    return validate_coupling(a)


@pytest.fixture
def rhs_times(monkeypatch):
    """The time argument of every right-hand-side call the integrator makes,
    in order."""
    times = []
    real = simulate.make_network_rhs

    def counted(systems):
        rhs = real(systems)

        def call(y, t):
            times.append(t)
            return rhs(y, t)

        return call

    monkeypatch.setattr(simulate, "make_network_rhs", counted)
    return times


@pytest.fixture
def generic_steps(rhs_times):
    """The grid indices of the steps the integrator takes with the RK4 loop,
    read off its right-hand-side calls (four per step, the first at the
    step's start); every other step is an affine step."""

    def read(dt):
        return set(np.rint(np.array(rhs_times[::4]) / dt).astype(int).tolist())

    return read


def _straddling_steps(sys_, traj, dt):
    """The grid indices of the steps whose plain RK4 stages, formed from the
    run's own samples, do not all lie on the pieces of the step's start (a
    row's piece is the number of breakpoints below its coordinate)."""
    affine = sys_.dynamics.affine
    op = network_operator(sys_)

    def field(v):
        return sys_.dynamics(v) + np.einsum("ij,sjk->sik", op, v)

    def piece(v):
        return np.searchsorted(affine.breaks, v[:, :, affine.coord])

    y = _stacked(traj)[:-1]
    start = piece(y)
    k1 = field(y)
    s2 = y + 0.5 * dt * k1
    s3 = y + 0.5 * dt * field(s2)
    s4 = y + dt * field(s3)
    moved = np.zeros(len(y), dtype=bool)
    for stage in (s2, s3, s4):
        moved |= (piece(stage) != start).any(axis=1)
    return set(np.flatnonzero(moved).tolist())


class TestLinearRegime:
    """Which steps take the one-matrix affine step: every step of a small
    network whose field declares affine pieces, under the identity map,
    except those whose stages leave the pieces the step starts on; under the
    sine blend, only once every coordinate is within its linear region."""

    def test_nonlinear_pinned_leaves_the_loop_once_settled(self, rhs_times):
        # 4,000 calls on the loop alone; from t = 0.798 the steps are affine
        cfg = parse_scenario("nonlinear-pinned")
        integrate(build_system(cfg), cfg.initial_states, cfg.reference_initial, cfg.dt, 1.0)
        assert 0 < len(rhs_times) <= 4 * 810

    @pytest.mark.parametrize(
        "name", sorted(set(BUILTIN_SCENARIOS) - {"nonlinear-pinned"})
    )
    def test_loop_steps_straddle_a_breakpoint(self, generic_steps, name):
        # fig2 crosses |x1| = 1 in transit, the pinned runs on their way in
        cfg = parse_scenario(name)
        sys_ = build_system(cfg)
        traj = integrate(sys_, cfg.initial_states, cfg.reference_initial, cfg.dt, 2.0)
        loop = generic_steps(cfg.dt)
        assert loop and loop == _straddling_steps(sys_, traj, cfg.dt)

    @pytest.mark.parametrize(
        "m, gfun, linear",
        [
            (simulate._LINEAR_MAX_SIZE // 3 - 1, "identity", True),
            (simulate._LINEAR_MAX_SIZE // 3, "identity", False),
            (100, "identity", False),
            (3, "sine_blend", False),
        ],
        ids=["at-cap", "over-cap", "m100", "sine-blend"],
    )
    def test_step_matrix_is_built_only_where_it_pays(self, monkeypatch, generic_steps,
                                                     m, gfun, linear):
        built = []
        real = simulate._affine_step_matrix

        def recorded(sys_, affine, pattern, dt):
            built.append((tuple(pattern), dt))
            return real(sys_, affine, pattern, dt)

        monkeypatch.setattr(simulate, "_affine_step_matrix", recorded)
        sys_ = NetworkSystem(
            coupling=_ring(m),
            dynamics=make_dynamics("chua"),
            gfun=CouplingFunction(gfun),
            pin=PinPlan(1, 5.0, 10.0),
        )
        # on the middle piece from the start, and it stays there
        x0 = np.full((m, 3), 0.01)
        got = integrate_batch([sys_], [x0], [np.zeros(3)], 1e-3, 0.02)
        want = integrate_batch_reference([sys_], [x0], [np.zeros(3)], 1e-3, 0.02)
        if linear:
            # one matrix, for the pattern read at the start
            assert built == [((1,) * (m + 1), 1e-3)] and generic_steps(1e-3) == set()
            _assert_parity(got, want, sys_.dynamics.affine)
        else:
            assert built == [] and generic_steps(1e-3) == set(range(20))
            _assert_same_runs(got, want)

    @pytest.mark.parametrize(
        "m, linear",
        [(simulate._LINEAR_MAX_SIZE // 3 - 1, True), (simulate._LINEAR_MAX_SIZE // 3, False)],
        ids=["at-cap", "over-cap"],
    )
    def test_a_settled_sine_blend_member_switches_only_under_the_cap(self, generic_steps,
                                                                      m, linear):
        # every coordinate is within 1e-8 after the first step
        sys_ = NetworkSystem(
            coupling=_ring(m),
            dynamics=make_dynamics("chua"),
            gfun=CouplingFunction("sine_blend"),
            pin=PinPlan(1, 5.0, 10.0),
        )
        x0 = np.full((m, 3), 1e-10)
        got = integrate_batch([sys_], [x0], [np.zeros(3)], 1e-3, 0.02)
        want = integrate_batch_reference([sys_], [x0], [np.zeros(3)], 1e-3, 0.02)
        assert generic_steps(1e-3) == ({0} if linear else set(range(20)))
        _assert_parity(got, want, sys_.dynamics.affine if linear else None)

    def test_members_enter_and_leave_on_their_own(self):
        # one batch: fig2 passes through the middle piece, the fig4 pin
        # strengths enter it at different steps, one member starts inside,
        # one on the left piece and one with x1 = 1 exactly; each is its
        # solo run bit for bit
        fig2, fig4 = parse_scenario("fig2-sym-uncontrolled"), parse_scenario("fig4-sym-pinned")
        systems = [build_system(fig2)] + [
            build_system(dataclasses.replace(fig4, pin=dataclasses.replace(fig4.pin, c=c)))
            for c in (6.0, 10.0, 14.0, 10.0, 14.0)
        ]
        left = np.array([[-3.0, 0.1, 0.2], [-2.0, -0.1, 0.0], [-1.5, 0.3, -0.2]])
        on_break = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.5], [1.0, -0.2, 0.1]])
        x0s = [fig2.initial_states] * 3 + [np.full((3, 3), 0.5), left, on_break]
        s0 = fig4.reference_initial
        batch = integrate_batch(systems, x0s, [s0] * 6, fig4.dt, 2.0)
        for sys_, x0, got in zip(systems, x0s, batch):
            solo = integrate(sys_, x0, s0, fig4.dt, 2.0)
            np.testing.assert_array_equal(_bits(got.states), _bits(solo.states))
            np.testing.assert_array_equal(_bits(got.reference), _bits(solo.reference))

    def test_a_diverging_member_leaves_with_its_pattern(self, monkeypatch):
        # the middle member blows up on the left piece; the last member
        # keeps its own pattern, so it builds the matrices of its solo run,
        # and both others match their solo runs bit for bit
        built = []
        real = simulate._affine_step_matrix

        def recorded(sys_, affine, pattern, dt):
            built.append((sys_, tuple(pattern)))
            return real(sys_, affine, pattern, dt)

        monkeypatch.setattr(simulate, "_affine_step_matrix", recorded)
        cfg = parse_scenario("fig2-sym-uncontrolled")
        systems = [build_system(cfg) for _ in range(3)]
        x0s = [cfg.initial_states, -1e7 * cfg.initial_states, cfg.initial_states]
        s0 = cfg.reference_initial
        batch = integrate_batch(systems, x0s, [s0] * 3, cfg.dt, 1.0)
        in_batch = list(built)
        assert isinstance(batch[1], DivergenceError)
        with pytest.raises(DivergenceError) as solo:
            integrate(systems[1], x0s[1], s0, cfg.dt, 1.0)
        assert batch[1].blowup_time == solo.value.blowup_time
        for k in (0, 2):
            built.clear()
            solo = integrate(systems[k], x0s[k], s0, cfg.dt, 1.0)
            assert [p for sys_, p in in_batch if sys_ is systems[k]] == [p for _, p in built]
            np.testing.assert_array_equal(_bits(batch[k].states), _bits(solo.states))
            np.testing.assert_array_equal(_bits(batch[k].reference), _bits(solo.reference))

    def test_everywhere_linear_field_steps_linearly_from_the_start(self, generic_steps):
        traj = integrate(_decay_net(2.0), [[1.0, -0.5]], [0.0, 0.0], 0.01, 1.0)
        assert generic_steps(0.01) == set()
        assert traj.states[-1, 0, 0] == pytest.approx(np.exp(-3.0), rel=1e-7)


@pytest.fixture
def doublings(monkeypatch):
    """The span of every block the integrator doubles, in order."""
    spans = []
    real = simulate._double_block

    def recorded(block, span, size):
        spans.append(span)
        doubled = real(block, span, size)
        assert doubled is None or doubled.size <= simulate._BLOCK_ENTRIES
        return doubled

    monkeypatch.setattr(simulate, "_double_block", recorded)
    return spans


def _middle_ring(m):
    # pinned at the origin; started on the middle piece, it stays there
    return NetworkSystem(coupling=_ring(m), dynamics=make_dynamics("chua"), pin=PinPlan(1, 5.0, 10.0))


def _pinned_chua(m):
    """A pinned Chua ring, or one pinned node at m = 1."""
    if m > 1:
        return _middle_ring(m)
    return NetworkSystem(coupling=validate_coupling(np.zeros((1, 1))),
                         dynamics=make_dynamics("chua"), pin=PinPlan(1, 5.0, 10.0))


class TestStepMatrix:
    """``W`` of a pattern: the increment rows are one RK4 step on the
    pattern's pieces, and the stage rows sign the loop's stage states."""

    @pytest.mark.parametrize("m", [1, 3, 23])
    def test_increment_rows_are_one_loop_step(self, m):
        # anchors well inside their pieces, outer ones included so that the
        # offsets enter, and every stage stays on them
        rng = np.random.default_rng(m)
        sys_, size, dt = _pinned_chua(m), (m + 1) * 3, 1e-3
        for _ in range(20):
            pattern = rng.integers(0, 3, m + 1)
            while not {0, 2} <= set(pattern.tolist()):
                pattern = rng.integers(0, 3, m + 1)
            y = rng.uniform(-0.5, 0.5, (m + 1, 3))
            y[:, 0] += 2.5 * (pattern - 1)
            w = simulate._affine_step_matrix(sys_, sys_.dynamics.affine, pattern, dt)
            z = w @ np.append(y, 1.0)
            assert z[size:].max() <= 0.0
            (loop,) = integrate_batch_reference([sys_], [y[:m]], [y[m]], dt, dt)
            want = np.vstack([loop.states[1], loop.reference[1]]).ravel()
            assert np.abs(y.ravel() + z[:size] - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("m", [1, 3, 23])
    def test_stage_rows_sign_the_loop_stages(self, m):
        # a row's test is <= 0 exactly where the loop's stage state lies on
        # the row's piece, up to the first stage that leaves (after it the
        # loop's field is another piece's)
        rng = np.random.default_rng(100 + m)
        sys_, size, dt = _pinned_chua(m), (m + 1) * 3, 5e-3
        affine, op = sys_.dynamics.affine, network_operator(sys_)
        ends = np.concatenate([[-np.inf], affine.breaks, [np.inf]])
        left_at = []
        for _ in range(50):
            y = rng.uniform(-3.0, 3.0, (m + 1, 3))
            pattern = np.searchsorted(affine.breaks, y[:, affine.coord])
            w = simulate._affine_step_matrix(sys_, affine, pattern, dt)
            above, below = (w @ np.append(y, 1.0))[size:].reshape(2, 4, m + 1) <= 0.0
            stages = [y]
            for factor in (0.5 * dt, 0.5 * dt, dt):
                stages.append(y + factor * (sys_.dynamics(stages[-1]) + op @ stages[-1]))
            for j, stage in enumerate(stages):
                coord = stage[:, affine.coord]
                np.testing.assert_array_equal(above[j], coord <= ends[pattern + 1])
                np.testing.assert_array_equal(below[j], coord >= ends[pattern])
                if not (above[j] & below[j]).all():
                    left_at.append(j)
                    break
        # some draws leave at the second stage, some later, and some stay on
        assert 1 in left_at and max(left_at) > 1 and len(left_at) < 50


class TestBlocks:
    """Blocks of affine steps: one product from an anchor state gives the
    next S states and their stage tests."""

    def test_a_block_holds_the_powers_of_the_one_step_map(self):
        # D_j = A^j - I and T_j = T A^(j - 1), here against matrix powers
        # (which lose the increment's last digits, hence the tolerance)
        sys_ = _middle_ring(3)
        affine = sys_.dynamics.affine
        w = simulate._affine_step_matrix(sys_, affine, [1] * 4, 1e-3)
        size = 12
        step = np.eye(size + 1)
        step[:size] += w[:size]
        block, span = w, 1
        while span < 32:
            block, span = simulate._double_block(block, span, size), 2 * span
        by_step = block.reshape(32, -1, size + 1)
        for j in range(1, 33):
            power = np.linalg.matrix_power(step, j - 1)
            d = (power @ step - np.eye(size + 1))[:size]
            np.testing.assert_allclose(by_step[j - 1, :size], d, rtol=0, atol=1e-13)
            np.testing.assert_allclose(by_step[j - 1, size:], w[size:] @ power, rtol=0, atol=1e-13)

    def test_a_block_stops_doubling_before_it_overflows(self, doublings):
        # x' = 1e4 x at dt = 0.01 multiplies a state by 4.4e6 per step, so
        # A^64 overflows; from exactly 0 the one-matrix steps stay at 0, and
        # so must the blocks (an inf entry would make 0 * inf = NaN)
        traj = integrate(_single_node(rate=-1e4), [[0.0]], [0.0], 0.01, 2.0)
        np.testing.assert_array_equal(traj.states, 0.0)
        assert doublings[:6] == [1, 2, 4, 8, 16, 16]

    def test_a_block_of_one_step_is_the_one_matrix_step(self, monkeypatch, doublings):
        sys_ = _middle_ring(3)
        x0, s0 = np.full((3, 3), 0.01), np.zeros(3)
        blocked = integrate(sys_, x0, s0, 1e-3, 0.2)
        assert doublings and max(doublings) == 16
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 0)
        doublings.clear()
        single = integrate(sys_, x0, s0, 1e-3, 0.2)
        assert doublings == []
        # y + W [y; 1], one step at a time
        w = simulate._affine_step_matrix(sys_, sys_.dynamics.affine, [1] * 4, 1e-3)
        y = np.append(np.vstack([x0, s0]).ravel(), 1.0)
        want = [y[:-1]]
        for _ in range(200):
            z = np.dot(w, y)
            assert z[12:].max() <= 0.0
            y = np.append(y[:-1] + z[:12], 1.0)
            want.append(y[:-1])
        want = np.array(want).reshape(201, 4, 3)
        np.testing.assert_array_equal(_bits(_stacked(single)), _bits(want))
        scale = np.abs(want).max(axis=(1, 2))
        assert np.all(np.abs(_stacked(blocked) - want).max(axis=(1, 2)) <= 1e-13 * scale)

    def test_blocks_grow_on_one_pattern_and_not_at_the_cap(self, monkeypatch, doublings):
        built = []
        real = simulate._affine_step_matrix

        def recorded(sys_, affine, pattern, dt):
            built.append(tuple(pattern))
            return real(sys_, affine, pattern, dt)

        monkeypatch.setattr(simulate, "_affine_step_matrix", recorded)
        # pinned fig4: every rebuild starts over at one step, and a pattern
        # held long enough grows its blocks to 32 steps (12 entries each)
        cfg = parse_scenario("fig4-sym-pinned")
        integrate(build_system(cfg), cfg.initial_states, cfg.reference_initial, cfg.dt, 2.0)
        starts = [k for k, span in enumerate(doublings) if span == 1]
        assert len(starts) == len(built) and starts[0] == 0
        assert doublings[-5:] == [1, 2, 4, 8, 16]
        # at the 72-entry cap one step's matrix already fills the budget
        m = simulate._LINEAR_MAX_SIZE // 3 - 1
        built.clear()
        doublings.clear()
        integrate(_middle_ring(m), np.full((m, 3), 0.01), np.zeros(3), 1e-3, 0.05)
        assert built == [(1,) * (m + 1)] and doublings == []

    def test_guard_breach_inside_a_block(self, monkeypatch, doublings):
        # x' = 5x from 2 crosses the guard at t = 4.01, sample 401, inside
        # the 256-step block anchored at sample 255 (blocks of 1, 2, 4, ...
        # steps: a one-node state with no stage tests fills the budget late)
        sys_ = _single_node(rate=-5.0)
        args = ([sys_], [[[2.0]]], [[0.0]], 0.01, 6.0)
        (got,) = integrate_batch(*args)
        assert doublings == [1, 2, 4, 8, 16, 32, 64, 128]
        assert isinstance(got, DivergenceError) and got.blowup_time == 4.01
        _assert_parity([got], integrate_batch_reference(*args), sys_.dynamics.affine)
        # the same step, time and partial trajectory as one step per product
        monkeypatch.setattr(simulate, "_BLOCK_ENTRIES", 0)
        (single,) = integrate_batch(*args)
        assert str(single) == str(got) and single.blowup_time == got.blowup_time
        _assert_parity([got], [single], sys_.dynamics.affine)

    def test_chaotic_ring_at_the_cap(self, generic_steps, doublings):
        # a block holds one step here, and the pattern moves every few steps;
        # cut at t = 10, before the chaos amplifies roundoff past LINEAR_DRIFT
        cfg = parse_scenario(str(SCENARIOS / "chua-ring-m23-uncontrolled.json"))
        sys_ = build_system(cfg)
        args = ([sys_], [cfg.initial_states], [cfg.reference_initial], cfg.dt, 10.0)
        got = integrate_batch(*args)
        loop = generic_steps(cfg.dt)
        assert doublings == [] and loop == _straddling_steps(sys_, got[0], cfg.dt)
        assert len(loop) > 100
        _assert_parity(got, integrate_batch_reference(*args), sys_.dynamics.affine)

    def test_loop_steps_see_only_their_member(self, monkeypatch):
        rows = []
        real = simulate.make_network_rhs

        def recorded(systems):
            rhs = real(systems)

            def call(y, t):
                rows.append(y.shape)
                return rhs(y, t)

            return call

        monkeypatch.setattr(simulate, "make_network_rhs", recorded)
        cfg = parse_scenario("fig4-sym-pinned")
        systems = [
            build_system(dataclasses.replace(cfg, pin=dataclasses.replace(cfg.pin, c=float(c))))
            for c in np.linspace(6.0, 14.0, 9)
        ]
        x0, s0 = cfg.initial_states, cfg.reference_initial
        integrate_batch(systems, [x0] * 9, [s0] * 9, cfg.dt, 1.0)
        in_batch = list(rows)
        rows.clear()
        for sys_ in systems:
            integrate(sys_, x0, s0, cfg.dt, 1.0)
        assert in_batch and set(in_batch) == {(4, 3)}
        assert len(in_batch) == len(rows)


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


class TestDecayRateOracle:
    # Near the reference s = 0 every pinned built-in runs in the middle region
    # of Chua's diode, so the pin error decays at the spectral abscissa of the
    # linearization kron(I, J_middle) + g'(0) kron(c A_pinned, I). The summary
    # fits on [0, 10]; a run cut at t = 10 fits the same samples, and fig4
    # runs at its shipped grid.
    @pytest.mark.parametrize(
        "name, horizon",
        [
            ("fig4-sym-pinned", None),
            ("fig5-asym-pinned", 10.0),
            ("nonlinear-pinned", 10.0),
            ("reducible-pinned", 10.0),
        ],
    )
    def test_fitted_rate_matches_the_middle_region_linearization(self, tmp_path, name, horizon):
        cfg = parse_scenario(name)
        if horizon is not None:
            cfg = dataclasses.replace(cfg, t_max=horizon)
        result = run_scenario(cfg, out_dir=tmp_path)
        sys_ = build_system(cfg)
        g = sys_.gfun
        slope = float((g(1e-6) - g(-1e-6)) / 2e-6)
        coupling = cfg.pin.c * pinned_matrix(sys_.coupling, sys_.pin)
        lin = np.kron(np.eye(sys_.coupling.m), chua_region_jacobian("middle")) + slope * np.kron(
            coupling, np.eye(3)
        )
        abscissa = float(np.max(np.linalg.eigvals(lin).real))
        assert result.fit_window == (0.0, 10.0)
        assert result.fitted_rate == pytest.approx(abscissa, rel=0.02)


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

    def test_roundoff_floors_of_the_final_ratios(self):
        # t = 0: spread 2 about the mean, distance 4 to s; last sample:
        # max |x_i| = 8, |s| = 2, so the floors are 2 eps 8 / 2 and 2 eps 10 / 4
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            states=np.array([[[1.0], [3.0]], [[8.0], [-8.0]]]),
            reference=np.array([[0.0], [2.0]]),
        )
        series = metrics(traj)
        eps = np.finfo(float).eps
        assert series.sync_floor == 8.0 * eps
        assert series.pin_floor == 5.0 * eps

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

    @staticmethod
    def _seeded_trajectory(samples=400, m=4, n=3):
        """Seeded states and a moving reference, with subnormals and -0.0."""
        rng = np.random.default_rng(20261020)
        states = rng.normal(size=(samples, m, n)) * 10.0 ** rng.integers(-5, 5, (samples, m, n))
        states[::7, 1] = rng.integers(1, 2**40, (len(states[::7]), n)) * 5e-324
        states[::5, 2, 0] = -0.0
        reference = rng.normal(size=(samples, n))
        reference[::3] = [-0.0, 0.0, 5e-324]
        return Trajectory(times=np.arange(samples) * 0.01, states=states, reference=reference)

    @pytest.mark.parametrize(
        "w, p", [(None, None), (np.array([0.1, 0.2, 0.3, 0.4]), np.array([1.0, 2.5, 0.75]))]
    )
    def test_bits_match_the_norm_form(self, w, p):
        traj = self._seeded_trajectory()
        before = traj.states.copy()
        got, want = metrics(traj, weights=w, p=p), metrics_reference(traj, weights=w, p=p)
        for name in ("sync_ratio", "pin_ratio", "lyapunov", "sync_floor", "pin_floor"):
            a, b = np.float64(getattr(got, name)), np.float64(getattr(want, name))
            assert np.array_equal(a.view(np.int64), b.view(np.int64)), name
        assert np.array_equal(traj.states.view(np.int64), before.view(np.int64))

    @staticmethod
    def _ring_trajectory(m, n, samples=40):
        """A pinned ring of m linear_decay nodes of n components from seeded
        starts, then a copy with subnormal and -0.0 entries."""
        rng = np.random.default_rng([20261020, m, n])
        ring = np.roll(np.eye(m), 1, axis=1) + np.roll(np.eye(m), -1, axis=1)
        np.fill_diagonal(ring, 0.0)
        np.fill_diagonal(ring, -ring.sum(axis=1))
        sys_ = NetworkSystem(
            coupling=validate_coupling(ring),
            dynamics=make_dynamics("linear_decay", dim=n, params={"rate": 0.5}),
            pin=PinPlan(1, 2.0, 1.0),
        )
        x0 = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-5, 5, (m, n))
        traj = integrate(sys_, x0, rng.normal(size=n), 0.01, (samples - 1) * 0.01)
        states, reference = traj.states.copy(), traj.reference.copy()
        states[1::7, -1] = rng.integers(1, 2**40, (len(states[1::7]), n)) * 5e-324
        states[1::5, 0, 0] = -0.0
        states[3::11] = -0.0  # a sample with every node at -0.0
        reference[1::3, 0] = -0.0
        reference[2::4, -1] = 5e-324
        return Trajectory(times=traj.times, states=states, reference=reference)

    # numpy sums the nodes pairwise from 8 on, and the components of a node
    # from 8 on; a single component leaves the nodes innermost in the mean
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9])
    @pytest.mark.parametrize("m", [1, 3, 8, 30, 100])
    def test_bits_match_the_norm_form_at_every_size(self, m, n):
        traj = self._ring_trajectory(m, n)
        rng = np.random.default_rng([m, n])
        for w, p in ((None, None), (rng.uniform(0.1, 1.0, m), rng.uniform(0.5, 3.0, n))):
            got, want = metrics(traj, weights=w, p=p), metrics_reference(traj, weights=w, p=p)
            for name in ("sync_ratio", "pin_ratio", "lyapunov", "sync_floor", "pin_floor"):
                a, b = np.float64(getattr(got, name)), np.float64(getattr(want, name))
                assert np.array_equal(a.view(np.int64), b.view(np.int64)), name

    def test_memory_is_one_trajectory_buffer(self):
        # the norm form peaks at about 3 times the size of the states
        traj = self._seeded_trajectory(samples=20_000, m=3, n=3)
        metrics(traj)  # numpy's lazy state, allocated on first use
        tracemalloc.start()
        try:
            metrics(traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * traj.states.nbytes


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
        report = lyapunov_monitor(metrics(traj, p=CERT.p), CERT)
        assert report.violations == 0
        assert report.first_violation_time is None
        assert report.required_rate == pytest.approx(0.6218 - 1e-3)

    def test_uncontrolled_run_reports_without_raising(self):
        traj = integrate(_chua_net(PinPlan(1, 0.0, 10.0)), SPREAD_X0, np.zeros(3), 1e-3, 10.0)
        report = lyapunov_monitor(metrics(traj, p=CERT.p), CERT)
        assert report.violations > 0
        assert report.first_violation_time is not None
        assert report.worst_excess > 0

    def test_series_must_carry_the_certificate_p(self):
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), SPREAD_X0, np.zeros(3), 1e-2, 1.0)
        skewed = QuadCertificate(p=np.array([1.0, 2.0, 1.0]), delta=CERT.delta, eta=CERT.eta)
        lyapunov_monitor(metrics(traj, p=skewed.p), skewed)
        with pytest.raises(ValueError, match="p="):
            lyapunov_monitor(metrics(traj), skewed)

    def test_zero_error_is_clean(self):
        x0 = np.zeros((3, 3))
        traj = integrate(_chua_net(PinPlan(1, 4.9, 10.0)), x0, np.zeros(3), 1e-2, 1.0)
        report = lyapunov_monitor(metrics(traj, p=CERT.p), CERT)
        assert report.violations == 0

    def test_asymmetric_pinned_run_is_clean(self):
        # theorem4 holds for this scenario, so the xi-weighted V must obey
        # the same discrete decrease bound
        cfg = parse_scenario("fig5-asym-pinned")
        traj = integrate(
            build_system(cfg), cfg.initial_states, cfg.reference_initial, cfg.dt, 2.0
        )
        xi = left_null_vector(cfg.coupling)
        report = lyapunov_monitor(metrics(traj, weights=xi, p=CERT.p), CERT)
        assert report.violations == 0

    def test_nonlinear_pinned_run_is_clean(self):
        cfg = parse_scenario("nonlinear-pinned")
        traj = integrate(
            build_system(cfg), cfg.initial_states, cfg.reference_initial, cfg.dt, 2.0
        )
        report = lyapunov_monitor(metrics(traj, p=CERT.p), CERT)
        assert report.violations == 0
