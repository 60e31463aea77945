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

``_experiment`` builds each one, with new nested lists and dicts, from the
values that set it apart: coupling, coupling map, epsilon, c, dt and t_max.
Every scenario dict is in the canonical field layout produced by
``pinnet.cli.serialize_scenario``, so parse/serialize round-trips exactly.
"""

from __future__ import annotations

from .model import CHUA_K, CHUA_L

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


def _outputs(name: str) -> dict[str, str]:
    """The trajectory, metrics and summary file names of a run named ``name``;
    the default outputs and each sweep point's use the same rule."""
    return {
        "trajectory": f"{name}_trajectory.csv",
        "metrics": f"{name}_metrics.csv",
        "summary": f"{name}_summary.txt",
    }


def _experiment(
    name: str, coupling: str, epsilon: float, c: float, dt: float, t_max: float,
    coupling_function: tuple[str, float] = ("identity", 1.0),
) -> dict:
    """A fresh canonical scenario dict: the paper's Chua network pinned at
    node 1 from its one start, under its one QUAD certificate."""
    kind, alpha_lower = coupling_function
    return {
        "name": name,
        "coupling": coupling,
        "dynamics": {"kind": "chua", "params": {"k": CHUA_K, "l": CHUA_L}},
        "coupling_function": {"kind": kind, "alpha_lower": alpha_lower},
        "pin": {"node": 1, "epsilon": epsilon, "c": c},
        "certificate": {"P": [1.0, 1.0, 1.0], "Delta": [10.0, 10.0, 10.0], "eta": 0.6218},
        "initial_states": [[40.1, 20.2, 30.3], [20.4, 30.5, 10.6], [60.7, 40.8, 50.9]],
        "reference_initial": [0.0, 0.0, 0.0],
        "integration": {"dt": dt, "t_max": t_max},
        "outputs": _outputs(name),
    }


BUILTIN_SCENARIOS: dict[str, dict] = {
    s["name"]: s
    for s in (
        _experiment("fig2-sym-uncontrolled", "sym-3node", 0.0, 10.0, 1e-3, 50.0),
        _experiment("fig4-sym-pinned", "sym-3node", 4.9, 10.0, 1e-3, 20.0),
        _experiment("fig5-asym-pinned", "asym-3node", 2.0, 72.0, 2e-4, 20.0),
        _experiment("nonlinear-pinned", "sym-3node", 4.9, 22.0, 1e-3, 30.0, ("sine_blend", 0.5)),
        _experiment("reducible-pinned", "two-block-3node", 4.9, 15.0, 1e-3, 30.0),
    )
}
