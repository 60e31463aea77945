"""Fixed-step integration of the pinned network and its tracking metrics.

Classical RK4 advances all node states and the reference trajectory on one
uniform grid. The reference is integrated, never assumed: an equilibrium
start stays put only because the field maps it there. A norm guard converts
silent blowup into a :class:`DivergenceError` carrying the partial trajectory
and the time of the breach. Each step first takes one reduction, ``max|y|``:
a node norm is at most ``sqrt(n) max|y|``, so while that stays under
``DIVERGENCE_NORM / sqrt(n)`` (shaved for roundoff) no node can breach and
the per-node check is skipped. NaN and inf fail the comparison and take the
full check, so errors, blow-up times and partial trajectories are exactly
those of checking every node norm on every step.

The state is the stacked array ``y = [x; s]`` and the field is
``f(y) + M g(y)`` (:func:`pinnet.model.make_network_rhs`). There is one
entry point and one RK4 loop: :func:`integrate_batch` runs B systems that
share node count, dynamics and coupling map on ``(B, m + 1, n)`` operands,
one operator per member, and :func:`integrate` is a batch of one that
raises its member's :class:`DivergenceError`. Members are independent: each
one's trajectory is bit-identical to its run in a batch of one, and a member
that breaches the guard leaves the batch with its own
:class:`DivergenceError` while the others run on.

The step must divide the horizon: the grid ends exactly at ``t_max`` or the
call is rejected (:func:`grid_steps`).

The circuit's diode term is nonsmooth at |x1| = 1; no event detection is
used (the field is globally Lipschitz, so RK4 merely drops to lower order
locally at crossings, acceptable at the tolerances here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .conditions import QuadCertificate
from .model import NetworkSystem, make_network_rhs

DIVERGENCE_NORM = 1e9
GRID_RTOL = 1e-9
_MONITOR_FLOOR = 1e-300


class DivergenceError(RuntimeError):
    """A node or reference norm breached the guard; ``trajectory`` holds the
    finite prefix (including the breaching state) and ``blowup_time`` the
    grid time of the breach."""

    def __init__(self, message: str, trajectory: "Trajectory", blowup_time: float):
        super().__init__(message)
        self.trajectory = trajectory
        self.blowup_time = blowup_time


@dataclass(frozen=True)
class Trajectory:
    """Uniform-grid sample of the network run: ``times`` (N+1,), node
    ``states`` (N+1, m, n), and the integrated ``reference`` (N+1, n)."""

    times: np.ndarray
    states: np.ndarray
    reference: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def num_nodes(self) -> int:
        return self.states.shape[1]


def grid_steps(dt: float, t_max: float) -> int:
    """Number of steps of size ``dt`` that end exactly at ``t_max``.

    Raises ``ValueError`` unless ``dt`` is positive, ``t_max >= dt``, and
    ``dt`` divides ``t_max`` within a relative ``GRID_RTOL``; the horizon is
    never silently shortened or stretched.
    """
    if not (dt > 0.0 and np.isfinite(dt)):
        raise ValueError(f"dt must be positive, got {dt}")
    if not (np.isfinite(t_max) and t_max >= dt):
        raise ValueError(f"t_max={t_max} must be at least dt={dt}")
    steps = int(round(t_max / dt))
    if abs(steps * dt - t_max) > GRID_RTOL * t_max:
        raise ValueError(
            f"dt={dt:g} does not divide t_max={t_max:g}: {steps} steps end at "
            f"t={steps * dt:g}"
        )
    return steps


def _stacked_state(sys: NetworkSystem, x0, s0, label: str) -> np.ndarray:
    """Validate one member's initial data and stack it as ``[x0; s0]``."""
    m, n = sys.coupling.m, sys.dynamics.dim
    x0 = np.asarray(x0, dtype=float)
    s0 = np.asarray(s0, dtype=float)
    if x0.shape != (m, n):
        raise ValueError(f"{label}x0 must have shape ({m}, {n}), got {x0.shape}")
    if s0.shape != (n,):
        raise ValueError(f"{label}s0 must have shape ({n},), got {s0.shape}")
    if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(s0))):
        raise ValueError(f"{label}initial data must be finite")
    return np.vstack([x0, s0[None, :]])


def integrate(sys: NetworkSystem, x0, s0, dt: float, t_max: float) -> Trajectory:
    """Integrate nodes and reference together with classical RK4.

    ``x0`` is (m, n) initial node states, ``s0`` the (n,) reference start;
    this is :func:`integrate_batch` on a batch of one. Raises
    :class:`DivergenceError` once any per-node Euclidean norm exceeds
    ``DIVERGENCE_NORM``, and ``ValueError`` on malformed initial data, a
    ``dt`` that does not divide ``t_max`` (:func:`grid_steps`), or non-finite
    values from finite state.
    """
    (result,) = integrate_batch([sys], [x0], [s0], dt, t_max)
    if isinstance(result, DivergenceError):
        raise result
    return result


def integrate_batch(
    systems: Sequence[NetworkSystem],
    x0s,
    s0s,
    dt: float,
    t_max: float,
) -> list[Union[Trajectory, DivergenceError]]:
    """Integrate B systems on one grid with classical RK4, as one array program.

    The systems must share node count, dynamics and coupling map; they may
    differ in coupling matrix, pin plan and initial data (``x0s[k]`` is
    (m, n), ``s0s[k]`` is (n,)). Returns, in order, each member's
    :class:`Trajectory`, bit-identical to its run in a batch of one, or the
    :class:`DivergenceError` that run would raise: a member whose node norm
    breaches the guard leaves the active set with its partial trajectory,
    and the others run on. The trajectories are views into one shared
    buffer, so keeping any of them keeps all of it. Raises ``ValueError``
    (naming the member or field) on mismatched systems or initial data, a
    ``dt`` that does not divide ``t_max``, or non-finite values.
    """
    systems = list(systems)
    if len(x0s) != len(systems) or len(s0s) != len(systems):
        raise ValueError(
            f"need one x0 and one s0 per system: {len(systems)} systems, "
            f"{len(x0s)} x0s, {len(s0s)} s0s"
        )
    rhs = make_network_rhs(systems)
    steps = grid_steps(dt, t_max)
    y = np.stack(
        [
            _stacked_state(sys, x0, s0, f"member {k + 1}: ")
            for k, (sys, x0, s0) in enumerate(zip(systems, x0s, s0s))
        ]
    )
    count, m, n = y.shape[0], y.shape[1] - 1, y.shape[2]
    times = np.arange(steps + 1) * dt
    # member-major, so each member's samples are one contiguous slab
    buf = np.empty((count, steps + 1, m + 1, n))
    live = np.arange(count)
    rows = slice(None)
    buf[rows, 0] = y
    results: list = [None] * count
    half = 0.5 * dt
    sixth = dt / 6.0
    guard2 = DIVERGENCE_NORM * DIVERGENCE_NORM
    # a node norm is at most sqrt(n) max|y|; the shave covers the roundoff of
    # this bound and of the n-term sum of squares, so passing it proves that
    # no node breaches the guard (NaN and inf fail it)
    safe = DIVERGENCE_NORM / np.sqrt(n) * (1.0 - 4.0 * (n + 2) * np.finfo(float).eps)

    for i in range(steps):
        t = times[i]
        k1 = rhs(y, t)
        k2 = rhs(y + half * k1, t + half)
        k3 = rhs(y + half * k2, t + half)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        buf[rows, i + 1] = y
        if np.abs(y).max() <= safe:
            continue
        if not np.all(np.isfinite(y)):
            k = live[np.argmin(np.isfinite(y).all(axis=(1, 2)))]
            raise ValueError(
                f"right-hand side produced non-finite values in batch member "
                f"{k + 1} at t={times[i + 1]:g}"
            )
        norm2 = np.einsum("bij,bij->bi", y, y).max(axis=1)
        if norm2.max() > guard2:
            keep = norm2 <= guard2
            for k in live[~keep]:
                partial = Trajectory(
                    times=times[: i + 2],
                    states=buf[k, : i + 2, :m, :].copy(),
                    reference=buf[k, : i + 2, m, :].copy(),
                )
                results[k] = DivergenceError(
                    f"state norm exceeded {DIVERGENCE_NORM:g} at t={times[i + 1]:g}",
                    partial,
                    float(times[i + 1]),
                )
            live = live[keep]
            if not live.size:
                break
            y = y[keep]
            rows = live
            rhs = make_network_rhs([systems[k] for k in live])

    for k in live:
        results[k] = Trajectory(
            times=times, states=buf[k, :, :m, :], reference=buf[k, :, m, :]
        )
    return results


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricSeries:
    """Normalized tracking errors along a trajectory.

    ``sync_ratio`` measures dispersion around the node average,
    ``pin_ratio`` distance to the reference, both normalized to 1 at t = 0;
    either is None when its initial denominator vanishes (the ratio is
    undefined, not 0/0). ``lyapunov`` is V(t) = 0.5 sum_i w_i dx_i^T P dx_i
    with dx_i = x_i - s.

    ``sync_floor`` and ``pin_floor`` are the roundoff floors of the final
    ratios: at the last sample, sum_i |x_i - xbar| cannot be resolved below
    about m eps max_i |x_i|, nor sum_i |x_i - s| below about
    m eps (max_i |x_i| + |s|), each divided by its ratio's t = 0
    denominator. A final ratio under its floor is roundoff, not a measured
    level. Each is None where its ratio is.

    ``p`` is the diagonal of P that V was taken with.
    """

    times: np.ndarray
    sync_ratio: Optional[np.ndarray]
    pin_ratio: Optional[np.ndarray]
    lyapunov: np.ndarray
    sync_floor: Optional[float] = None
    pin_floor: Optional[float] = None
    p: Optional[np.ndarray] = None


def metrics(traj: Trajectory, weights=None, p=None) -> MetricSeries:
    """Sync ratio, pin ratio, the weighted quadratic error V(t), and the
    roundoff floors of the final ratios (see :class:`MetricSeries`).

    ``weights`` default to 1 per node (pass the left Perron vector for
    asymmetric coupling); ``p`` is the diagonal of P, default identity.
    Node norms are Euclidean.
    """
    x = traj.states
    s = traj.reference
    m, n = x.shape[1], x.shape[2]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    pd = np.ones(n) if p is None else np.asarray(p, dtype=float)
    if w.shape != (m,):
        raise ValueError(f"weights must have shape ({m},), got {w.shape}")
    if pd.shape != (n,):
        raise ValueError(f"p must have shape ({n},), got {pd.shape}")

    xbar = x.mean(axis=1)
    sync_dev = np.linalg.norm(x - xbar[:, None, :], axis=2).sum(axis=1)
    pin_dev = np.linalg.norm(x - s[:, None, :], axis=2).sum(axis=1)
    sync_ratio = pin_ratio = sync_floor = pin_floor = None
    roundoff = m * np.finfo(float).eps
    x_top = float(np.linalg.norm(x[-1], axis=1).max())
    s_top = float(np.linalg.norm(s[-1]))
    if sync_dev[0] > 0.0:
        sync_ratio = sync_dev / sync_dev[0]
        sync_floor = roundoff * x_top / float(sync_dev[0])
    if pin_dev[0] > 0.0:
        pin_ratio = pin_dev / pin_dev[0]
        pin_floor = roundoff * (x_top + s_top) / float(pin_dev[0])

    dx = x - s[:, None, :]
    lyap = 0.5 * np.einsum("tik,k,i->t", dx * dx, pd, w)
    return MetricSeries(
        times=traj.times,
        sync_ratio=sync_ratio,
        pin_ratio=pin_ratio,
        lyapunov=lyap,
        sync_floor=sync_floor,
        pin_floor=pin_floor,
        p=pd,
    )


def decay_rate_fit(series: MetricSeries, window: tuple[float, float]) -> float:
    """Exponential rate of the pinning error on a time window.

    Least-squares slope of log(pin_ratio) against time; negative means
    decay. The ratio must exist and be strictly positive on the window.
    """
    if series.pin_ratio is None:
        raise ValueError("pin ratio is undefined for this trajectory")
    t_a, t_b = window
    mask = (series.times >= t_a) & (series.times <= t_b)
    if int(mask.sum()) < 2:
        raise ValueError(f"window [{t_a}, {t_b}] contains fewer than two samples")
    vals = series.pin_ratio[mask]
    if np.any(vals <= 0.0):
        raise ValueError("pin ratio must be strictly positive on the fit window")
    return float(np.polyfit(series.times[mask], np.log(vals), 1)[0])


@dataclass(frozen=True)
class MonitorReport:
    """Outcome of the discrete Lyapunov-decrease check: violation count,
    first violation time (None when clean), the worst relative excess over
    the allowed per-step factor, and the required decay rate."""

    violations: int
    first_violation_time: Optional[float]
    worst_excess: float
    required_rate: float


def lyapunov_monitor(
    series: MetricSeries,
    cert: QuadCertificate,
    tol_rate: float = 1e-3,
) -> MonitorReport:
    """Check V(t+dt) <= V(t) exp(-(eta / min_k p_k - tol_rate) dt) stepwise.

    ``series`` is the run's :func:`metrics` taken with ``p=cert.p`` (and the
    run's node weights), so its V is the certificate's quadratic form; a
    series taken with another P is rejected. Report-only: violations are
    counted, never raised, since the bound is meaningful only when the
    matching global condition holds. ``tol_rate`` absorbs the O(dt^4)
    integration error. Steps whose V has underflowed below 1e-300 are
    skipped; the quadratic form is meaningless there.
    """
    if series.p is None or not np.array_equal(series.p, cert.p):
        raise ValueError(
            f"series V was taken with p={series.p}, the certificate has p={cert.p}"
        )
    v = series.lyapunov
    times = series.times
    rate = cert.eta / float(cert.p.min()) - tol_rate
    factor = float(np.exp(-rate * float(times[1] - times[0])))
    prev, nxt = v[:-1], v[1:]
    considered = prev >= _MONITOR_FLOOR
    bad = considered & (nxt > prev * factor)
    count = int(bad.sum())
    first = float(times[1:][bad][0]) if count else None
    if np.any(considered):
        excess = float(np.max(nxt[considered] / (prev[considered] * factor) - 1.0))
    else:
        excess = 0.0
    return MonitorReport(
        violations=count,
        first_violation_time=first,
        worst_excess=excess,
        required_rate=rate,
    )
