"""Fixed-step integration of the pinned network and its tracking metrics.

Classical RK4 advances all node states and the reference trajectory on one
uniform grid. The reference is integrated, never assumed: an equilibrium
start stays put only because the field maps it there. A norm guard converts
silent blowup into a :class:`DivergenceError` carrying the partial trajectory
and the time of the breach. Each step first takes one dot product, the
total ``y . y`` over all N entries of the batch: every node's norm^2 is at
most that total, so while it stays under ``DIVERGENCE_NORM^2 (1 - 2^-10)``
no node can breach and the per-node check is skipped. The shave covers the
roundoff of both sums for any N < 2^40 (8 TiB of state): the computed total
is within N u / (1 - N u) of the exact one, and a computed node norm^2
within n u of its own, u = 2^-53. NaN and inf fail the comparison and take
the full check, so errors, blow-up times and partial trajectories are
exactly those of checking every node norm on every step. The filter is
looser than a per-node test: it falls back to the full check whenever the
total crosses that bound, which happens sooner for many nodes at large
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
dynamics and coupling map, one operator per member, and :func:`integrate`
is a batch of one that raises its member's :class:`DivergenceError`.
Members are independent: each one's trajectory is bit-identical to its run
in a batch of one, and a member that breaches the guard stops with its own
:class:`DivergenceError` while the others run on.

Where the dynamics declare :class:`pinnet.model.PiecewiseAffine` pieces
(Chua's three diode regions, split at ``x1 = -1, 1``; one piece for the
linear decay), the flat state has at most ``_LINEAR_MAX_SIZE`` = 72 entries
and the coupling map is linear on the state (``g(u) = slope u`` on
``|u| <= u0``, :attr:`pinnet.model.CouplingFunction.linear_near`: the
identity everywhere, the sine blend with slope 1.5 within 1e-8), the
field is affine in each pattern of pieces (one per row of the state),
``y' = K y + c`` with the operator ``slope M``, and an RK4 step is
exactly ``y + B [y; 1]`` for ``L = [[K, c], [0, 0]]``: with the stage
maps ``S2 = I + hL/2``, ``S3 = I + hL S2/2``, ``S4 = I + hL S3`` and
``K_i = hL S_i``, ``B`` is the top rows of ``(hL + 2 (K2 + K3) + K4) / 6``.
A member's pattern is the number of breakpoints below each row's
coordinate, and its matrix ``W`` holds the rows of ``B``, then for every
row of the four stage states its coordinate minus its piece's upper bound,
and the lower bound minus the coordinate: with all those rows ``<= 0``
(the bounds are inclusive: the field is continuous at a breakpoint) every
stage stayed on its pieces.

On an unchanged pattern, with ``A`` the augmented one-step map,
``y_j = y_0 + D_j [y_0; 1]`` for ``D_j`` the top rows of ``A^j - I``, and
the tests of step j are ``T A^(j-1)``, ``T`` the test rows of ``W``. So a
block matrix stacking those rows for S steps gives, in one ``matmul`` from
an anchor state, the next S states and all their tests; it is built by
doubling (:func:`_double_block`), never from ``A^j``. Such blocks run member
by member. A member accepts every step before its block's first failing
test, all with one ``add`` into the buffer, and anchors its next block at
the last. A step that fails from its own anchor re-reads the pattern: a
moved pattern gets its ``W`` (a block of one step, the one-matrix step bit
for bit) and one more test, and otherwise the RK4 loop takes the step, on
that member alone. So the loop runs only where the stages straddle a
breakpoint (64 of fig2's 50,000 steps). S starts at 1 on each pattern and
doubles after each full block, within ``_BLOCK_ENTRIES`` = 2^15 block
entries: 32 steps at the built-ins' 12-entry state, one at the 72-entry
cap; so a pattern that moves every few steps builds only short blocks. No
pattern is cached: a chaotic network can visit very many. The guard takes
one dot over a block's new samples while their total is under the bound,
else the full check of each in order, so blow-up times and partial
trajectories are those of checking every step.

Under the identity map every member starts on the affine path. Under a map
that is linear only within ``u0``, the RK4 loop runs until every coordinate
of a member, the reference row included, is within ``u0``; the member then
leaves the batch, as a breaching one does, and goes on by affine steps whose
``W`` also tests every coordinate of the four stage states against
``+-u0``. A step that fails there on an unchanged pattern is taken by the
RK4 loop with the real map. If that step's sample has left the region,
the loop takes every later step too, with no block product, until a
sample is back within ``u0``. A lone member tests its coordinates only
while its total dot is at most ``1.001 (m + 1) n u0^2``, which bounds it
whenever they are within ``u0``; a batch tests each member on every
step. A pinned network whose
reference rests at the origin thus ends on the affine path:
``nonlinear-pinned`` from t = 0.798.

Costs on a pinned 3-node ring (one BLAS thread, shared 2-vCPU Xeon): 0.45
to 0.7 us a step in blocks of 32, against about 5 us for the one-matrix
step and 32-34 us for the loop; a doubling costs 10-30 us, a rebuild 0.06
to 0.21 ms up to 72 entries. On an uncontrolled chaotic ring the rebuilds
cost more than the affine steps save at m = 30, hence the cap. On the
built-ins at their shipped horizons the states move from the loop's by at
most 5.7e-13 relative per sample where the sample's largest entry is a
normal double; the tests allow 1e-11. Below that (``nonlinear-pinned``
past t = 22.9) ``0.5 sin(u)`` of a subnormal rounds, and the loop's states
stop at subnormals while the affine path's reach 0.

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
from .linalg import finite_array, norm_sum, ordered_sum, positive_vector
from .model import (
    NetworkSystem,
    PiecewiseAffine,
    finite_number,
    make_network_rhs,
    network_operator,
    positive_number,
)

DIVERGENCE_NORM = 1e9
_GUARD2 = DIVERGENCE_NORM * DIVERGENCE_NORM
# Largest computed total dot(y, y) that proves every computed node norm^2
# within _GUARD2, for any state of fewer than 2^40 doubles (module docstring)
_SAFE2 = _GUARD2 * (1.0 - 2.0**-10)
GRID_RTOL = 1e-9
_MONITOR_FLOOR = 1e-300
_MONITOR_TOL_RATE = 1e-3
# Largest flat state (m + 1) n stepped by the affine matrix, from the
# measured crossover of a chaotic run's rebuilds (module docstring)
_LINEAR_MAX_SIZE = 72
# Most entries of one member's block matrix: blocks of 32 steps at the
# built-ins' 12-entry state, of one step at the 72-entry cap
_BLOCK_ENTRIES = 1 << 15
# a member's outcome when it stops early: over the guard, or not finite
_DIVERGED, _NON_FINITE = 1, 2
# a member that leaves the RK4 loop for the affine path
_SETTLED = 3


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

    Raises ``ValueError`` unless ``dt`` is a positive number, ``t_max`` a
    finite one at least ``dt``, and ``dt`` divides ``t_max`` within a relative
    ``GRID_RTOL``; the horizon is never silently shortened or stretched.
    """
    dt, t_max = positive_number(dt, "dt"), finite_number(t_max, "t_max")
    if not t_max >= dt:
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
    x0 = finite_array(x0, f"{label}x0")
    s0 = finite_array(s0, f"{label}s0")
    if x0.shape != (m, n):
        raise ValueError(f"{label}x0 must have shape ({m}, {n}), got {x0.shape}")
    if s0.shape != (n,):
        raise ValueError(f"{label}s0 must have shape ({n},), got {s0.shape}")
    return np.vstack([x0, s0[None, :]])


def _affine_step_matrix(
    sys: NetworkSystem, affine: PiecewiseAffine, pattern: Sequence[int], dt: float
) -> np.ndarray:
    """The matrix ``W`` of one member's pattern (module docstring), on its
    flat ``(m + 1) n`` state with a trailing 1. A bound at infinity gives a
    zero test row; a field without breakpoints gets no piece test rows.
    Under a coupling map that is ``slope u`` only on ``|u| <= u0``
    (``CouplingFunction.linear_near``) the operator is ``slope M``, and
    further rows put every coordinate of the four stage states within
    ``+-u0``."""
    u0, slope = sys.gfun.linear_near
    pattern = np.asarray(pattern)
    m, n = sys.coupling.m, sys.dynamics.dim
    size = (m + 1) * n
    rows = np.arange(m + 1)
    hl = np.zeros((size + 1, size + 1))
    # K by (row, component) blocks: slope M kron I_n, plus J_k on the diagonal
    blocks = hl[:size, :size].reshape(m + 1, n, m + 1, n)
    blocks[:, range(n), :, range(n)] = slope * network_operator(sys)
    blocks[rows, :, rows, :] += affine.jacobians[pattern]
    hl[:size, size] = affine.offsets[pattern].ravel()
    hl *= dt
    eye = np.eye(size + 1)
    # the stage maps S2 = I + hL/2, S3 = I + hL S2/2, S4 = I + hL S3, and
    # R(hL) - I = (hL + 2 (K2 + K3) + K4) / 6 with K_i = hL S_i
    stage2 = eye + hl / 2.0
    k2 = hl @ stage2
    stage3 = eye + k2 / 2.0
    k3 = hl @ stage3
    stage4 = eye + k3
    inc = ((hl + 2.0 * (k2 + k3) + hl @ stage4) / 6.0)[:size]
    stages = np.stack([eye, stage2, stage3, stage4])[:, :size]
    tests = [inc]
    if affine.breaks:
        sel = rows * n + affine.coord
        ends = np.concatenate([[-np.inf], affine.breaks, [np.inf]])
        # every stage row's coordinate minus its upper bound, then its lower
        # bound minus the coordinate; a zero row where that bound is infinite
        bounds = np.stack([ends[pattern + 1], -ends[pattern]])[:, None, :, None]
        signed = np.stack([stages[:, sel], -stages[:, sel]])
        signed[..., size:] -= bounds
        tests.append(np.where(np.isinf(bounds), 0.0, signed).reshape(-1, size + 1))
    if u0 < np.inf:
        # every stage coordinate minus u0, then -u0 minus the coordinate
        region = np.stack([stages, -stages])
        region[..., size] -= u0
        tests.append(region.reshape(-1, size + 1))
    return np.concatenate(tests)


def _double_block(block: np.ndarray, span: int, size: int) -> Optional[np.ndarray]:
    """The block matrix of ``2 span`` steps from that of ``span`` steps, or
    None where an entry overflows or passes 1e154.

    A block stacks one ``[D_j; T_j]`` per step j on ``[y; 1]``: ``D_j`` are
    the top rows of ``A^j - I`` for the augmented one-step map ``A``, so
    ``y_j = y_0 + D_j [y_0; 1]``, and ``T_j = T A^(j-1)`` are the signed
    stage rows of step j. The block of one step is ``W``. Since
    ``A^(S+j) = A^j A^S``, ``D_(S+j) = D_j + D_S + D_j D_S`` and
    ``T_(S+j) = T_j + T_j D_S``: one matmul, and ``A^j`` is never formed,
    whose identity would swamp the increment's digits.
    """
    rows = block.shape[0]
    last = block[rows - rows // span :][:size]
    doubled = np.empty((2 * rows, size + 1))
    doubled[:rows] = block
    ahead = doubled[rows:]
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(block[:, :size], last, out=ahead)
        np.add(ahead, block, out=ahead)
        incs = ahead.reshape(span, -1, size + 1)[:, :size]
        np.add(incs, last, out=incs)
        # inf or NaN for an entry that overflowed (or passed 1e154)
        squares = np.vdot(ahead, ahead)
    return doubled if squares < np.inf else None


def _rk4_stepper(systems: Sequence[NetworkSystem], dt: float):
    """Classical RK4 in place, ``step(y2, t)``, on the flat ``(B (m + 1), n)``
    states of ``systems`` (module docstring)."""
    rhs = make_network_rhs(systems)
    stage = np.empty((len(systems) * (systems[0].coupling.m + 1), systems[0].dynamics.dim))
    acc = np.empty_like(stage)
    # 0-d operands and out= buffers: at a few dozen doubles per array the
    # per-call overhead of a ufunc, not its arithmetic, sets the step's cost
    half, full, sixth, two = (np.array(v) for v in (0.5 * dt, dt, dt / 6.0, 2.0))
    t_half = 0.5 * dt

    def step(y2: np.ndarray, t: float) -> None:
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

    return step


def _breaches(y: np.ndarray) -> np.ndarray:
    """Each member's outcome at the states ``y`` ((B, m + 1, n)): 0 while
    they are finite and every node norm is within the guard, else
    ``_DIVERGED`` or ``_NON_FINITE``."""
    over = np.einsum("bij,bij->bi", y, y).max(axis=1) > _GUARD2
    return np.where(np.isfinite(y).all(axis=(1, 2)), over * _DIVERGED, _NON_FINITE)


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
    """Integrate B systems on one grid with classical RK4.

    The systems must share node count, dynamics and coupling map; they may
    differ in coupling matrix, pin plan and initial data (``x0s[k]`` is
    (m, n), ``s0s[k]`` is (n,)). Returns, in order, each member's
    :class:`Trajectory`, bit-identical to its run in a batch of one, or the
    :class:`DivergenceError` that run would raise. Small networks step on
    their field's affine pieces, member by member, wherever the coupling
    map is linear on their state; the RK4 loop runs the rest as one array
    program (see the module docstring). A member whose
    node norm breaches the guard stops with its partial trajectory, and the
    others run on. The trajectories are views into one shared buffer, so
    keeping any of them keeps all of it. Raises ``ValueError`` (naming the
    member or field) on mismatched systems or initial data, a ``dt`` that
    does not divide ``t_max``, a horizon whose buffer cannot be allocated,
    or non-finite values, for the member and time of the first.
    """
    systems = list(systems)
    if len(x0s) != len(systems) or len(s0s) != len(systems):
        raise ValueError(
            f"need one x0 and one s0 per system: {len(systems)} systems, "
            f"{len(x0s)} x0s, {len(s0s)} s0s"
        )
    # times and steps from the float, so an int dt still gives float64 times
    dt = positive_number(dt, "dt")
    steps = grid_steps(dt, t_max)
    # the batch's right-hand side also checks that the systems match
    step = _rk4_stepper(systems, dt)
    y = np.stack(
        [
            _stacked_state(sys, x0, s0, f"member {k + 1}: ")
            for k, (sys, x0, s0) in enumerate(zip(systems, x0s, s0s))
        ]
    )
    count, m, n = y.shape[0], y.shape[1] - 1, y.shape[2]
    try:
        times = np.arange(steps + 1) * dt
        # member-major, so each member's samples are one contiguous slab
        buf = np.empty((count, steps + 1, m + 1, n))
    except (MemoryError, ValueError) as err:
        raise ValueError(
            f"dt={dt:g}, t_max={t_max:g}: {steps:g} steps need a trajectory "
            f"buffer that cannot be allocated ({err})"
        ) from err
    buf[:, 0] = y
    # one row of (m + 1) n doubles per member and sample
    samples = buf.reshape(count, steps + 1, -1)
    # the bound on every coordinate within which a member takes affine steps:
    # inf under the identity map, None where the affine path never runs
    small = systems[0].dynamics.affine is not None and (m + 1) * n <= _LINEAR_MAX_SIZE
    u0 = systems[0].gfun.linear_near[0] if small else None
    if u0 == np.inf:
        ends = [_run_affine(sys, samples[k], times, dt, 0, u0) for k, sys in enumerate(systems)]
    else:
        ends = _run_loop(systems, step, y, samples, times, dt, u0)

    broken = [(end, k) for k, (end, outcome) in enumerate(ends) if outcome == _NON_FINITE]
    if broken:
        end, k = min(broken)
        raise ValueError(
            f"right-hand side produced non-finite values in batch member "
            f"{k + 1} at t={times[end]:g}"
        )
    results: list = []
    for k, (end, outcome) in enumerate(ends):
        if outcome == _DIVERGED:
            partial = Trajectory(
                times=times[: end + 1],
                states=buf[k, : end + 1, :m].copy(),
                reference=buf[k, : end + 1, m].copy(),
            )
            results.append(
                DivergenceError(
                    f"state norm exceeded {DIVERGENCE_NORM:g} at t={times[end]:g}",
                    partial,
                    float(times[end]),
                )
            )
        else:
            results.append(
                Trajectory(times=times, states=buf[k, :, :m], reference=buf[k, :, m])
            )
    return results


def _run_loop(systems, step, y, samples, times, dt, u0) -> list[tuple[int, int]]:
    """The RK4 loop over the batch: ``step`` advances ``y`` ((B, m + 1, n)) in
    place and each step goes into ``samples`` ((B, steps + 1, (m + 1) n)).
    Returns each member's last sample and outcome. A member leaves the batch
    at its first breach, or once every one of its coordinates is within
    ``u0`` (None: never), to go on by :func:`_run_affine`."""
    count, _, n = y.shape
    steps = len(times) - 1
    ends = [(steps, 0)] * count
    live, rows = np.arange(count), slice(None)
    # flat views of y: (B (m + 1), n) rows for the field, one row per member
    # for the sample store, and the whole batch for the guard's dot
    y2, y_rows, flat = y.reshape(-1, n), y.reshape(count, -1), y.reshape(-1)
    # members are tested for settling while the total is at most this: a
    # lone member's is below it whenever every coordinate is within u0 (the
    # factor covers the dot's roundoff), and a batch tests on every step
    near2 = -1.0 if u0 is None else np.inf if count > 1 else y_rows.size * u0 * u0 * 1.001
    for i in range(steps):
        step(y2, times[i])
        samples[rows, i + 1] = y_rows
        total = np.dot(flat, flat)
        settling = total <= near2
        if total <= _SAFE2 and not settling:
            continue
        outcomes = np.zeros_like(live) if total <= _SAFE2 else _breaches(y)
        if settling:
            outcomes[np.abs(y_rows).max(axis=1) <= u0] = _SETTLED
        if not outcomes.any():
            continue
        for k, outcome in zip(live, outcomes):
            if outcome == _SETTLED:
                ends[k] = _run_affine(systems[k], samples[k], times, dt, i + 1, u0)
            elif outcome:
                ends[k] = (i + 1, outcome)
        keep = outcomes == 0
        live = live[keep]
        if not live.size:
            break
        y = y[keep]
        rows = live
        step = _rk4_stepper([systems[k] for k in live], dt)
        y2, y_rows, flat = y.reshape(-1, n), y.reshape(live.size, -1), y.reshape(-1)
    return ends


def _run_affine(sys, traj, times, dt, start, u0) -> tuple[int, int]:
    """One member on its field's affine pieces (module docstring), from
    ``traj[start]``, one sample per row of ``traj`` ((steps + 1, (m + 1) n)),
    where the coupling map is linear on ``|u| <= u0``. Returns its last
    sample and outcome."""
    m1, n = sys.coupling.m + 1, sys.dynamics.dim
    size = m1 * n
    steps = len(times) - 1
    affine = sys.dynamics.affine
    coord, breaks = affine.coord, np.asarray(affine.breaks, dtype=float)

    def pattern(i):
        """The piece of each row of sample i, as a list."""
        return (traj[i].reshape(m1, n)[:, coord, None] > breaks).sum(axis=1).tolist()

    def views(block, span):
        """The product buffer of a block, and its increments and tests by step."""
        z = np.empty(block.shape[0])
        by_step = z.reshape(span, -1)
        return z, by_step[:, :size], by_step[:, size:]

    pat = pattern(start)
    block, span = _affine_step_matrix(sys, affine, pat, dt), 1
    z, incs, signed = views(block, span)
    tests = signed.shape[1]
    ya = np.ones(size + 1)
    step = _rk4_stepper([sys], dt)
    i, out = start, False
    while i < steps:
        # one product from the anchor gives the block's states and stage
        # tests; a test fails unless <= 0, so NaN fails. No product while the
        # last sample is outside +-u0
        take = 0 if out else min(span, steps - i)
        if take:
            ya[:size] = traj[i]
            np.dot(block, ya, out=z)
            if tests and not np.maximum.reduce(signed, axis=None) <= 0.0:
                take = min(take, int((signed <= 0.0).argmin()) // tests)
        new = traj[i + 1 : i + 1 + max(take, 1)]
        if take:
            np.add(traj[i : i + 1], incs[:take], out=new)
        elif not out and (now := pattern(i)) != pat:
            # step i leaves its pieces for others: their matrix, and a block
            # of one step tested once more
            pat, block, span = now, _affine_step_matrix(sys, affine, now, dt), 1
            z, incs, signed = views(block, span)
            continue
        else:
            # the RK4 loop takes the step; if its sample is outside +-u0, it
            # takes every later one too until a sample is back within
            new[0] = traj[i]
            step(new.reshape(m1, n), times[i])
            out = not np.abs(new).max() <= u0
        # the guard, on every new sample: one dot while all are far inside
        if not np.vdot(new, new) <= _SAFE2:
            outcomes = _breaches(new.reshape(-1, m1, n))
            if outcomes.any():
                first = int(np.flatnonzero(outcomes)[0])
                return i + 1 + first, int(outcomes[first])
        i += len(new)
        if take == span and 2 * block.size <= _BLOCK_ENTRIES:
            # a full block on one pattern: the next one is twice as long,
            # within the entry budget and while its entries stay finite
            doubled = _double_block(block, span, size)
            if doubled is not None:
                block, span = doubled, 2 * span
                z, incs, signed = views(block, span)
    return steps, 0


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
    Both are positive vectors (:func:`pinnet.linalg.positive_vector`), so V
    is positive definite in the errors. Node norms are Euclidean.

    The bits are those of the plain expressions,
    ``np.linalg.norm(x - x.mean(axis=1)[:, None], axis=2).sum(axis=1)``,
    its pin twin and the ``einsum`` of ``(x - s)**2``, but the work runs in
    one trajectory-sized buffer and along long axes. numpy reduces the short
    node and component axes with an inner loop of m or n values per sample;
    here each sum adds whole slices instead, in the order numpy takes their
    values (:func:`pinnet.linalg.ordered_sum`): in turn, and pairwise along an
    innermost axis of 8 or more. So the sync deviations lie node-major,
    ``(m, n, samples)``, and the pin deviations lie as the states do, since
    the order of ``einsum``'s sums follows its operand's layout.
    """
    x = traj.states
    s = traj.reference
    samples, m, n = x.shape
    w = np.ones(m) if weights is None else positive_vector(weights, "weights", m)
    pd = np.ones(n) if p is None else positive_vector(p, "p", n)

    d = x.transpose(1, 2, 0).copy()
    # x.mean(axis=1): the nodes are numpy's innermost axis only when n = 1
    d -= ordered_sum(d, n == 1) / m
    d *= d
    sync_dev = norm_sum(d.transpose(1, 0, 2))
    d = d.reshape(samples, m, n)
    d[...] = x
    d -= s[:, None]
    d *= d
    pin_dev = norm_sum(d.T)
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

    lyap = 0.5 * np.einsum("tik,k,i->t", d, pd, w)
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
    decay. Both ends of ``window`` are finite numbers, and the ratio must
    exist and be strictly positive on the window.
    """
    if series.pin_ratio is None:
        raise ValueError("pin ratio is undefined for this trajectory")
    t_a, t_b = (finite_number(t, "window") for t in window)
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
