"""Fixed-step integration of the pinned network and its tracking metrics.

Classical RK4 advances all node states and the reference trajectory on one
uniform grid. The reference is integrated, never assumed: an equilibrium
start stays put only because the field maps it there. A norm guard converts
silent blowup into a :class:`DivergenceError` carrying the partial trajectory
and the time of the breach. Each step first takes one dot product, the
total ``y . y`` over all N entries of the batch: every node's norm^2 is at
most that total, so while it stays under ``DIVERGENCE_NORM^2`` shaved by
``4 (N + n + 2) eps`` (which covers the roundoff of both sums) no node can
breach and the per-node check is skipped. NaN and inf fail the comparison
and take the full check, so errors, blow-up times and partial trajectories
are exactly those of checking every node norm on every step. The filter is
looser than a per-node test: it falls back to the full check whenever the
total crosses the guard, which happens sooner for many nodes at large
amplitude, and then costs one extra reduction.

The step's arrays hold a few dozen doubles at the paper's sizes, so numpy's
per-call overhead, not arithmetic, sets its cost. The loop therefore forms
the stages in two buffers allocated once (again only when a member drops
out), updates ``y`` in place, and passes the step factors as 0-d float64
arrays: a Python-float operand is converted on every ufunc call. Each
operation rounds as in the plain expression
``y + dt/6 (k1 + 2 (k2 + k3) + k4)``, so the states are the same bit for bit.
The stages run on the flat ``(B (m + 1), n)`` view of the state, which the
right-hand side takes without a reshape and hands to ``np.dot``; samples are
stored through a ``(B, steps + 1, (m + 1) n)`` view of the trajectory buffer.

The state is the stacked array ``y = [x; s]`` and the field is
``f(y) + M g(y)`` (:func:`pinnet.model.make_network_rhs`). There is one
entry point: :func:`integrate_batch` runs B systems that share node count,
dynamics and coupling map on ``(B, m + 1, n)`` operands, one operator per
member, and :func:`integrate` is a batch of one that raises its member's
:class:`DivergenceError`. Members are independent: each one's trajectory is
bit-identical to its run in a batch of one, and a member that breaches the
guard leaves the batch with its own :class:`DivergenceError` while the
others run on.

Each step is the RK4 loop above or one matrix product. Where the dynamics
declare :class:`pinnet.model.PiecewiseAffine` pieces (Chua's three diode
regions, split at ``x1 = -1, 1``; one piece for the linear decay), the
coupling map is the identity and the flat state has at most
``_LINEAR_MAX_SIZE`` = 72 entries, the field is affine in each pattern of
pieces (one per row of the state), ``y' = K y + c``, and an RK4 step is
exactly ``y + B [y; 1]``, ``B`` the top rows of ``R(hL) - I`` for
``L = [[K, c], [0, 0]]``. Each member always has a pattern, the number of
breakpoints below each row's coordinate, and one matrix ``W`` for it: the
rows of ``B``, then for every row of the four stage states its coordinate
minus its piece's upper bound, and the lower bound minus the coordinate.
One ``matmul`` gives the increment and, with all those rows ``<= 0`` (the
bounds are inclusive: the field is continuous at a breakpoint), the proof
that every stage stayed on its pieces. A member that fails re-reads its
pattern; if it moved, its matrix is rebuilt and tested once more, and a
member that still fails takes the RK4 loop on that step. So the loop runs
only where the stages straddle a breakpoint (64 of fig2's 50,000 steps).
No pattern is cached: a chaotic network can visit very many. The choice
depends only on the member's own states, so batch members stay
bit-identical to their solo runs. An affine step costs about 5 us against
21-28 us for the loop, a rebuild 0.1-0.5 ms up to 93 entries (one BLAS
thread, 2-vCPU Xeon); on an uncontrolled chaotic ring the rebuilds cost
more than the affine steps save at m = 30, hence the cap. On the
built-ins at their shipped horizons the states move from the loop's by at
most 2.3e-13 relative per sample; the tests allow 1e-11.

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
from .model import NetworkSystem, PiecewiseAffine, make_network_rhs, network_operator

DIVERGENCE_NORM = 1e9
_GUARD2 = DIVERGENCE_NORM * DIVERGENCE_NORM
GRID_RTOL = 1e-9
_MONITOR_FLOOR = 1e-300
_MONITOR_TOL_RATE = 1e-3
# Largest flat state (m + 1) n stepped by the affine matrix, from the
# measured crossover of a chaotic run's rebuilds (module docstring)
_LINEAR_MAX_SIZE = 72


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


def _total_norm2_bound(size: int, n: int) -> float:
    """Largest computed ``dot(y, y)`` over ``size`` doubles that proves no
    computed node norm^2 (a sum of ``n`` squares) exceeds ``DIVERGENCE_NORM^2``.

    A node's exact norm^2 is at most the exact total; the shave covers the
    relative error of both computed sums (under ``(size + n) eps / 2``) and
    the rounding of this product.
    """
    return _GUARD2 * (1.0 - 4.0 * (size + n + 2) * np.finfo(float).eps)


def _affine_step_matrix(
    sys: NetworkSystem, affine: PiecewiseAffine, pattern: Sequence[int], dt: float
) -> np.ndarray:
    """The matrix ``W`` of one member's pattern (module docstring), on its
    flat ``(m + 1) n`` state with a trailing 1. A bound at infinity gives a
    zero test row; a field without breakpoints gets no test rows."""
    pattern = np.asarray(pattern)
    m, n = sys.coupling.m, sys.dynamics.dim
    size = (m + 1) * n
    hl = np.zeros((size + 1, size + 1))
    # K by (row, component) blocks: M kron I_n, plus J_k on the diagonal
    blocks = hl[:size, :size].reshape(m + 1, n, m + 1, n)
    blocks[:, range(n), :, range(n)] = network_operator(sys)
    for row, piece in enumerate(pattern):
        jac, offset = affine.pieces[piece]
        blocks[row, :, row, :] += jac
        hl[row * n : (row + 1) * n, size] = offset
    hl *= dt
    eye = np.eye(size + 1)
    # R(hL) - I = hL (I + hL/2 (I + hL/3 (I + hL/4))), without forming I + ...
    inc = (hl @ (eye + hl @ (eye + hl @ (eye + hl / 4.0) / 3.0) / 2.0))[:size]
    if not affine.breaks:
        return inc
    stage2 = eye + hl / 2.0
    stage3 = eye + hl @ stage2 / 2.0
    stage4 = eye + hl @ stage3
    sel = np.arange(m + 1) * n + affine.coord
    stages = np.vstack([eye[sel], stage2[sel], stage3[sel], stage4[sel]])
    ends = np.concatenate([[-np.inf], affine.breaks, [np.inf]])
    lower, upper = np.tile(ends[pattern], 4), np.tile(ends[pattern + 1], 4)
    above, below = stages.copy(), -stages
    above[:, size] -= upper
    below[:, size] += lower
    above[np.isinf(upper)] = 0.0
    below[np.isinf(lower)] = 0.0
    return np.vstack([inc, above, below])


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
    :class:`DivergenceError` that run would raise. Small networks step on
    their field's affine pieces with one matrix per member (see the module
    docstring). A member whose node norm
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
    # one row of (m + 1) n doubles per member and sample
    samples = buf.reshape(count, steps + 1, -1)
    live = np.arange(count)
    rows = slice(None)
    buf[rows, 0] = y
    results: list = [None] * count
    # 0-d operands and out= buffers: at a few dozen doubles per array the
    # per-call overhead of a ufunc, not its arithmetic, sets the step's cost
    half, full, sixth, two = (np.array(v) for v in (0.5 * dt, dt, dt / 6.0, 2.0))
    t_half = 0.5 * dt
    # flat views of y: (B (m + 1), n) rows for the field, one row per member
    # for the sample store, and the whole batch for the guard's dot
    y2, y_rows, flat = y.reshape(-1, n), y.reshape(count, -1), y.reshape(-1)
    stage, acc = np.empty_like(y2), np.empty_like(y2)
    safe2 = _total_norm2_bound(y.size, n)
    size = (m + 1) * n
    affine = systems[0].dynamics.affine
    if systems[0].gfun.kind != "identity" or size > _LINEAR_MAX_SIZE:
        affine = None
    if affine is not None:
        coord, breaks = affine.coord, np.asarray(affine.breaks, dtype=float)
        tested = bool(affine.breaks)

        def pieces(members):
            """Each member's pattern, as a list."""
            return (y[members, :, coord, None] > breaks).sum(axis=2).tolist()

        # each member's pattern, and the step matrix of that pattern
        patterns = pieces(slice(None))
        ws = np.stack(
            [_affine_step_matrix(systems[k], affine, p, dt) for k, p in zip(live, patterns)]
        )
        # [y; 1] per member, the operand of the step matrices
        ya = np.ones((count, size + 1, 1))
        z = np.empty(ws.shape[:2] + (1,))
        ya_rows, inc, signed = ya[:, :size, 0], z[:, :size, 0], z[:, size:, 0]

        def on_pieces():
            """True when every member's stages stay on its pieces, False when
            the one member's do not, else a mask over the members."""
            np.copyto(ya_rows, y_rows)
            np.matmul(ws, ya, out=z)
            if not tested or np.maximum.reduce(signed, axis=None) <= 0.0:
                return True
            if y_rows.shape[0] == 1:
                return False
            return np.maximum.reduce(signed, axis=1) <= 0.0

        def repattern(ok):
            """Re-read the pieces of the members that failed, rebuild the
            matrices of those whose pattern moved and test once more."""
            failed = np.arange(y.shape[0]) if ok is False else np.flatnonzero(~ok)
            moved = False
            for j, pattern in zip(failed, pieces(failed)):
                if pattern != patterns[j]:
                    patterns[j] = pattern
                    ws[j] = _affine_step_matrix(systems[live[j]], affine, pattern, dt)
                    moved = True
            return on_pieces() if moved else ok

    for i in range(steps):
        t = times[i]
        ok = False
        if affine is not None:
            ok = on_pieces()
            if ok is not True:
                ok = repattern(ok)
        if ok is True:
            # every member's four stages stay on its pieces: one add
            np.add(y_rows, inc, out=y_rows)
        else:
            if ok is not False:
                stepped = np.add(y_rows, inc)
            k1 = rhs(y2, t)
            np.add(y2, np.multiply(k1, half, out=stage), out=stage)
            k2 = rhs(stage, t + t_half)
            np.add(y2, np.multiply(k2, half, out=stage), out=stage)
            k3 = rhs(stage, t + t_half)
            np.add(y2, np.multiply(k3, full, out=stage), out=stage)
            k4 = rhs(stage, t + dt)
            # y + sixth (k1 + 2 (k2 + k3) + k4), rounded op for op as written
            np.add(k1, np.multiply(np.add(k2, k3, out=acc), two, out=acc), out=acc)
            np.add(y2, np.multiply(np.add(acc, k4, out=acc), sixth, out=acc), out=y2)
            if ok is not False:
                # the members that passed keep their affine step
                np.copyto(y_rows, stepped, where=ok[:, None])
        samples[rows, i + 1] = y_rows
        if np.dot(flat, flat) <= safe2:
            continue
        if not np.all(np.isfinite(y)):
            k = live[np.argmin(np.isfinite(y).all(axis=(1, 2)))]
            raise ValueError(
                f"right-hand side produced non-finite values in batch member "
                f"{k + 1} at t={times[i + 1]:g}"
            )
        norm2 = np.einsum("bij,bij->bi", y, y).max(axis=1)
        if norm2.max() > _GUARD2:
            keep = norm2 <= _GUARD2
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
            y2, y_rows, flat = y.reshape(-1, n), y.reshape(live.size, -1), y.reshape(-1)
            stage, acc = np.empty_like(y2), np.empty_like(y2)
            safe2 = _total_norm2_bound(y.size, n)
            if affine is not None:
                ws, ya = ws[keep], ya[keep]
                patterns = [p for p, kept in zip(patterns, keep) if kept]
                z = np.empty(ws.shape[:2] + (1,))
                ya_rows, inc, signed = ya[:, :size, 0], z[:, :size, 0], z[:, size:, 0]

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
    dx = x - s[:, None, :]
    pin_dev = np.linalg.norm(dx, axis=2).sum(axis=1)
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


def lyapunov_monitor(series: MetricSeries, cert: QuadCertificate) -> MonitorReport:
    """Check V(t+dt) <= V(t) exp(-(eta / min_k p_k - 1e-3) dt) stepwise.

    ``series`` is the run's :func:`metrics` taken with ``p=cert.p`` (and the
    run's node weights), so its V is the certificate's quadratic form; a
    series taken with another P is rejected. Report-only: violations are
    counted, never raised, since the bound is meaningful only when the
    matching global condition holds. The 1e-3 slack on the rate absorbs the
    O(dt^4) integration error. Steps whose V has underflowed below 1e-300 are
    skipped; the quadratic form is meaningless there.
    """
    if series.p is None or not np.array_equal(series.p, cert.p):
        raise ValueError(
            f"series V was taken with p={series.p}, the certificate has p={cert.p}"
        )
    v = series.lyapunov
    times = series.times
    rate = cert.eta / float(cert.p.min()) - _MONITOR_TOL_RATE
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
