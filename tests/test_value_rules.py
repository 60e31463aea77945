"""One rule per kind of input value, at every entry point that takes it.

Each case is a value that some entry point used to accept, turn into nan or
reject with an unnamed error; each must now fail with a ``ValueError`` (or
its ``CouplingError`` or ``ScenarioError`` subclass) that names the argument.
"""

import numpy as np
import pytest

from pinnet import (
    CouplingFunction,
    NetworkSystem,
    PinPlan,
    QuadCertificate,
    SpectralReport,
    ScenarioError,
    certified_quad_margin,
    check_scenario,
    decay_rate_fit,
    integrate,
    make_dynamics,
    metrics,
    min_coupling_strength,
    parse_scenario,
    pinned_matrix,
    proposition1_holds,
    quad_check_sampled,
    random_coupling_matrix,
    reducible_pinnability,
    scc_condensation,
    theorem1_margin,
    theorem3_check,
    validate_coupling,
)
from pinnet.simulate import grid_steps

INF, NAN = float("inf"), float("nan")
CHUA = make_dynamics("chua")
CERT = QuadCertificate(p=[1.0, 1.0, 1.0], delta=[10.0, 10.0, 10.0], eta=0.5)
TWO_BLOCK = [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]


def _decay_pair():
    return NetworkSystem(
        coupling=validate_coupling([[-1.0, 1.0], [1.0, -1.0]]),
        dynamics=make_dynamics("linear_decay", dim=1),
    )


def _short_run():
    cfg = parse_scenario("fig4-sym-pinned")
    sys = NetworkSystem(coupling=cfg.coupling, dynamics=cfg.dynamics, pin=cfg.pin)
    return integrate(sys, cfg.initial_states, cfg.reference_initial, 1e-3, 0.01)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_coupling([["-1", "1"], ["1", "-1"]]),
         "coupling matrix must hold numbers only"),
        (lambda: validate_coupling([[-1, True], [True, -1]]),
         "coupling matrix must hold numbers only"),
        (lambda: QuadCertificate(p=["1", "1", "1"], delta=[10, 10, 10], eta=0.5),
         "p must hold numbers only"),
        (lambda: QuadCertificate(p=[1, 1, 1], delta=[True, 10, 10], eta=0.5),
         "delta must hold numbers only"),
        # checked as given: converting first would read True as 1.0
        (lambda: QuadCertificate(p=[True, 1, 1], delta=[10, 10, 10], eta=0.5),
         "p must hold numbers only"),
        (lambda: integrate(_decay_pair(), [["1"], [True]], [0.0], 0.1, 1.0),
         "x0 must hold numbers only"),
        (lambda: pinned_matrix([["-1", "1"], ["1", "-1"]], PinPlan(1, 1.0, 1.0)),
         "coupling matrix must hold numbers only"),
        (lambda: proposition1_holds([["-1"]]), "matrix must hold numbers only"),
    ],
    ids=["coupling-strings", "coupling-booleans", "p-strings", "delta-boolean",
         "p-boolean", "x0-mixed", "pinned-strings", "proposition1-string"],
)
def test_finite_array_holds_numbers_only(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"weights": [-1.0, 1.0, 1.0]}, r"^weights entry \(1\) must be > 0, got -1$"),
        ({"p": [0.0, 1.0, 1.0]}, r"^p entry \(1\) must be > 0, got 0$"),
        ({"weights": [1.0, NAN, 1.0]}, r"^weights entry \(2\) is not finite: nan$"),
    ],
    ids=["negative-weight", "zero-p", "nan-weight"],
)
def test_metrics_weights_and_p_are_positive_vectors(kwargs, message):
    # a nonpositive weight or P makes V(t) no Lyapunov function
    with pytest.raises(ValueError, match=message):
        metrics(_short_run(), **kwargs)


@pytest.mark.parametrize(
    "p, delta, message",
    [
        ([1, 1, 1], [INF, 10, 10], r"^delta entry \(1\) is not finite: inf$"),
        ([1, 1, 1], [10, NAN, 10], r"^delta entry \(2\) is not finite: nan$"),
        ([NAN, 1, 1], [10, 10, 10], r"^p entry \(1\) is not finite: nan$"),
    ],
    ids=["inf-delta", "nan-delta", "nan-p"],
)
def test_certified_margin_takes_the_certificate_diagonal_rule(p, delta, message):
    with pytest.raises(ValueError, match=message):
        certified_quad_margin(CHUA, p, delta)
    with pytest.raises(ValueError, match=message):
        QuadCertificate(p=p, delta=delta, eta=0.5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: theorem3_check(CERT, 10.0, -1.0, alpha=NAN), r"^alpha must be finite"),
        (lambda: theorem3_check(CERT, NAN, -1.0, alpha=1.0), r"^c must be finite"),
        (lambda: theorem3_check(CERT, 10.0, NAN, alpha=1.0), r"^lambda1 must be finite"),
        (lambda: theorem3_check(CERT, 10.0, -1.0, alpha=1.0, xi_max=INF),
         r"^xi_max must be finite"),
        (lambda: min_coupling_strength(CERT, SpectralReport(np.array([-1.0])), alpha=NAN),
         r"^alpha must be finite"),
        (lambda: theorem1_margin(_decay_pair(), NAN), r"^lambda1 must be finite, got nan$"),
        (lambda: theorem1_margin(_decay_pair(), INF), r"^lambda1 must be finite, got inf$"),
        (lambda: theorem1_margin(_decay_pair(), True), r"^lambda1 must be a number, got True$"),
        (lambda: theorem1_margin(_decay_pair(), "x"), r"^lambda1 must be a number, got 'x'$"),
    ],
    ids=["theorem3-alpha", "theorem3-c", "theorem3-lambda1", "theorem3-xi_max",
         "min-c-alpha", "theorem1-lambda1-nan", "theorem1-lambda1-inf",
         "theorem1-lambda1-boolean", "theorem1-lambda1-string"],
)
def test_margin_numbers_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "node, message",
    [
        (1.5, r"^pin_node must be an integer >= 1 \(1-based\), got 1\.5$"),
        (True, r"^pin_node must be an integer >= 1 \(1-based\), got True$"),
    ],
    ids=["fraction", "boolean"],
)
def test_reducible_pinnability_takes_the_node_index_rule(node, message):
    with pytest.raises(ValueError, match=message):
        reducible_pinnability(scc_condensation(TWO_BLOCK), node)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: check_scenario(parse_scenario("fig4-sym-pinned"), quad_samples=0, seed=-1),
         ScenarioError, r"^seed must be a whole number >= 0, got -1$"),
        (lambda: check_scenario(parse_scenario("fig4-sym-pinned"), quad_samples=2.5),
         ScenarioError, r"^quad_samples must be a whole number >= 0, got 2\.5$"),
        (lambda: random_coupling_matrix(np.random.default_rng(0), 1.5),
         ValueError, r"^m must be a whole number >= 1, got 1\.5$"),
    ],
    ids=["unsampled-seed", "fractional-samples", "fractional-m"],
)
def test_counts_and_seeds_are_whole_numbers(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: grid_steps(True, 3), r"^dt must be a number, got True$"),
        (lambda: grid_steps(0.1, "1"), r"^t_max must be a number, got '1'$"),
        (lambda: integrate(_decay_pair(), [[1.0], [0.0]], [0.0], True, 3),
         r"^dt must be a number, got True$"),
        (lambda: quad_check_sampled(CHUA, CERT, ("-1", "1"), 10),
         r"^box lo must hold numbers only"),
        (lambda: quad_check_sampled(CHUA, CERT, (True, 2), 10),
         r"^box lo must hold numbers only"),
        (lambda: quad_check_sampled(CHUA, CERT, (-1.0, [1.0, INF, 1.0]), 10),
         r"^box hi entry \(2\) is not finite: inf$"),
    ],
    ids=["grid-dt-boolean", "grid-t_max-string", "integrate-dt-boolean", "box-strings",
         "box-boolean", "box-inf"],
)
def test_grid_and_box_take_the_number_rules(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: random_coupling_matrix(np.random.default_rng(0), 3, edge_prob=-1.0),
         r"^edge_prob must lie in \[0, 1\], got -1$"),
        (lambda: random_coupling_matrix(np.random.default_rng(0), 3, edge_prob=2.0),
         r"^edge_prob must lie in \[0, 1\], got 2$"),
        (lambda: random_coupling_matrix(np.random.default_rng(0), 3, edge_prob=NAN),
         r"^edge_prob must be finite, got nan$"),
        (lambda: random_coupling_matrix(np.random.default_rng(0), 3, edge_prob=True),
         r"^edge_prob must be a number, got True$"),
        (lambda: random_coupling_matrix(np.random.default_rng(0), 3, edge_prob="x"),
         r"^edge_prob must be a number, got 'x'$"),
        (lambda: decay_rate_fit(metrics(_short_run()), ("a", 1.0)),
         r"^window must be a number, got 'a'$"),
        (lambda: decay_rate_fit(metrics(_short_run()), (True, 0.05)),
         r"^window must be a number, got True$"),
    ],
    ids=["edge_prob-negative", "edge_prob-above-one", "edge_prob-nan", "edge_prob-boolean",
         "edge_prob-string", "window-string", "window-boolean"],
)
def test_edge_prob_and_fit_window_take_the_number_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: CouplingFunction(3), r"^kind must be a string, got 3$"),
        (lambda: CouplingFunction("cubic"),
         r"^unknown coupling function kind 'cubic' \(known: identity, sine_blend\)$"),
        (lambda: CouplingFunction("identity", NAN), r"^alpha_lower must be finite, got nan$"),
        (lambda: CouplingFunction("identity", True), r"^alpha_lower must be a number, got True$"),
        (lambda: CouplingFunction("sine_blend", 0.75),
         r"^alpha_lower 0.75 exceeds the certified slope bound 0.5 of 'sine_blend'$"),
    ],
    ids=["kind-int", "kind-unknown", "alpha-nan", "alpha-boolean", "alpha-above-bound"],
)
def test_coupling_function_checks_its_own_fields(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_row_sum_rule_is_relative_below_unit_scale():
    # the first row sums to half its magnitude, 2e-13 of 4e-13
    with pytest.raises(ValueError, match=r"^row 1 sums to 2e-13"):
        validate_coupling([[-1e-13, 3e-13], [2e-13, -2e-13]])


def test_constructors_store_the_floats_their_rules_return():
    pin = PinPlan(1, 5, 10)
    cert = QuadCertificate(p=[1, 1, 1], delta=[10, 10, 10], eta=1)
    assert [type(v) for v in (pin.epsilon, pin.c, cert.eta)] == [float, float, float]
