"""Built-in scenarios: the reference experiments shipped with the package.

Five runs over a 3-node circuit network:

- ``fig2-sym-uncontrolled``: symmetric coupling at c = 10 with the controller
  off (epsilon = 0). The nodes synchronize with each other but do not
  converge to the reference; left alone they drift off the attractor.
- ``fig4-sym-pinned``: same network pinned at node 1 with epsilon = 4.9;
  the global symmetric-coupling condition holds with margin about -0.11.
- ``fig5-asym-pinned``: asymmetric coupling, epsilon = 2 and c = 72, checked
  through the weighted-symmetrization condition (margin about -0.17). Uses a
  finer step since the linear rates scale with c. Initial values reuse the
  symmetric runs' (none are prescribed for this case).
- ``nonlinear-pinned``: coupling and controller pass through
  g(u) = u + 0.5 sin(u) (slope bound 0.5); c = 22 sits above the minimal
  strength of about 19.78 demanded by the nonlinear-coupling condition.
- ``reducible-pinned``: a two-block reducible topology whose root block
  {1, 2} drives node 3; pinning inside the root block pins the whole
  network, at c = 15.

Every scenario dict is in the canonical field layout produced by
``pinnet.cli.serialize_scenario``, so parse/serialize round-trips exactly.
"""

from __future__ import annotations

COUPLING_MATRICES: dict[str, list[list[float]]] = {
    "sym-3node": [
        [-5.1, 5.0, 0.1],
        [5.0, -11.0, 6.0],
        [0.1, 6.0, -6.1],
    ],
    "asym-3node": [
        [-2.0, 1.0, 1.0],
        [1.0, -2.0, 1.0],
        [0.0, 1.0, -1.0],
    ],
    "two-block-3node": [
        [-1.0, 1.0, 0.0],
        [1.0, -1.0, 0.0],
        [1.0, 1.0, -2.0],
    ],
}

_CHUA = {"kind": "chua", "params": {"k": 9.0, "l": 100.0 / 7.0}}
_IDENTITY = {"kind": "identity", "alpha_lower": 1.0}
_SINE_BLEND = {"kind": "sine_blend", "alpha_lower": 0.5}
_CERT = {"P": [1.0, 1.0, 1.0], "Delta": [10.0, 10.0, 10.0], "eta": 0.6218}
_INITIAL = [
    [40.1, 20.2, 30.3],
    [20.4, 30.5, 10.6],
    [60.7, 40.8, 50.9],
]
_ORIGIN = [0.0, 0.0, 0.0]


def _outputs(name: str) -> dict[str, str]:
    """The trajectory, metrics and summary file names of a run named ``name``;
    the default outputs and each sweep point's use the same rule."""
    return {
        "trajectory": f"{name}_trajectory.csv",
        "metrics": f"{name}_metrics.csv",
        "summary": f"{name}_summary.txt",
    }


BUILTIN_SCENARIOS: dict[str, dict] = {
    "fig2-sym-uncontrolled": {
        "name": "fig2-sym-uncontrolled",
        "coupling": "sym-3node",
        "dynamics": dict(_CHUA),
        "coupling_function": dict(_IDENTITY),
        "pin": {"node": 1, "epsilon": 0.0, "c": 10.0},
        "certificate": dict(_CERT),
        "initial_states": list(_INITIAL),
        "reference_initial": list(_ORIGIN),
        "integration": {"dt": 1e-3, "t_max": 50.0},
        "outputs": _outputs("fig2-sym-uncontrolled"),
    },
    "fig4-sym-pinned": {
        "name": "fig4-sym-pinned",
        "coupling": "sym-3node",
        "dynamics": dict(_CHUA),
        "coupling_function": dict(_IDENTITY),
        "pin": {"node": 1, "epsilon": 4.9, "c": 10.0},
        "certificate": dict(_CERT),
        "initial_states": list(_INITIAL),
        "reference_initial": list(_ORIGIN),
        "integration": {"dt": 1e-3, "t_max": 20.0},
        "outputs": _outputs("fig4-sym-pinned"),
    },
    "fig5-asym-pinned": {
        "name": "fig5-asym-pinned",
        "coupling": "asym-3node",
        "dynamics": dict(_CHUA),
        "coupling_function": dict(_IDENTITY),
        "pin": {"node": 1, "epsilon": 2.0, "c": 72.0},
        "certificate": dict(_CERT),
        "initial_states": list(_INITIAL),
        "reference_initial": list(_ORIGIN),
        "integration": {"dt": 2e-4, "t_max": 20.0},
        "outputs": _outputs("fig5-asym-pinned"),
    },
    "nonlinear-pinned": {
        "name": "nonlinear-pinned",
        "coupling": "sym-3node",
        "dynamics": dict(_CHUA),
        "coupling_function": dict(_SINE_BLEND),
        "pin": {"node": 1, "epsilon": 4.9, "c": 22.0},
        "certificate": dict(_CERT),
        "initial_states": list(_INITIAL),
        "reference_initial": list(_ORIGIN),
        "integration": {"dt": 1e-3, "t_max": 30.0},
        "outputs": _outputs("nonlinear-pinned"),
    },
    "reducible-pinned": {
        "name": "reducible-pinned",
        "coupling": "two-block-3node",
        "dynamics": dict(_CHUA),
        "coupling_function": dict(_IDENTITY),
        "pin": {"node": 1, "epsilon": 4.9, "c": 15.0},
        "certificate": dict(_CERT),
        "initial_states": list(_INITIAL),
        "reference_initial": list(_ORIGIN),
        "integration": {"dt": 1e-3, "t_max": 30.0},
        "outputs": _outputs("reducible-pinned"),
    },
}
