"""Independent oracles used across the test suite.

These deliberately avoid the code paths they check: eigenvalues come from
the characteristic polynomial (quadratic formula, or companion-matrix roots
via numpy.roots for cubics) rather than the package's LAPACK ``eigvalsh``, and
left null vectors come from the SVD rather than a least-squares solve,
the minimal coupling strength is re-derived by bisection on the checker,
and the sampled QUAD falsifier is checked against its earlier whole-chunk
form. The RK4 loop, Chua's field and the network right-hand side are kept
in their earlier plain-expression form (Python-float operands, fresh
arrays each stage, a ``max|y|`` divergence prefilter), against which the
allocation-free loop must agree bit for bit; so are the run metrics, in
their ``np.linalg.norm`` form.
"""

import numpy as np

from pinnet.model import CHUA_K, CHUA_L, chua_region_jacobian, network_operator
from pinnet.simulate import (
    DIVERGENCE_NORM,
    DivergenceError,
    MetricSeries,
    Trajectory,
    _stacked_state,
    grid_steps,
)


def charpoly_eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a real symmetric 1x1, 2x2, or 3x3 matrix from its
    characteristic polynomial, sorted descending."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0]])
    if n == 2:
        tr = a[0, 0] + a[1, 1]
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        disc = np.sqrt(tr * tr - 4.0 * det)
        return np.sort(np.array([(tr + disc) / 2.0, (tr - disc) / 2.0]))[::-1]
    if n == 3:
        tr = float(np.trace(a))
        minors = 0.0
        for i in range(3):
            for j in range(i + 1, 3):
                minors += a[i, i] * a[j, j] - a[i, j] * a[j, i]
        det = float(np.linalg.det(a))
        roots = np.roots([1.0, -tr, minors, -det])
        return np.sort(roots.real)[::-1]
    raise ValueError("oracle covers sizes 1..3 only")


def svd_left_null_vector(a) -> np.ndarray:
    """Left null vector of a square matrix A from the SVD, not a linear
    solve: the last right-singular vector of A^T, normalized to sum 1."""
    xi = np.linalg.svd(np.asarray(a, dtype=float).T)[2][-1]
    return xi / xi.sum()


def bisect_min_c(margin_at, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Smallest c with margin_at(c) < 0, by bisection. Requires a sign
    change on [lo, hi]."""
    if not (margin_at(lo) >= 0 > margin_at(hi)):
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if margin_at(mid) < 0:
            hi = mid
        else:
            lo = mid
    return hi


def pairwise_quadratic_form(a, u, v) -> float:
    """Direct pair-sum evaluation of -sum_{j>i} a_ij (u_i-u_j)(v_i-v_j)."""
    a = np.asarray(a, dtype=float)
    total = 0.0
    m = a.shape[0]
    for i in range(m):
        for j in range(i + 1, m):
            total -= a[i, j] * (u[i] - u[j]) * (v[i] - v[j])
    return total


def quad_check_sampled_reference(dynamics, cert, box, samples, seed=0):
    """The sampled QUAD falsifier in its whole-chunk form, returning
    ``(min_quotient, minimizing_pair, holds, margin)``.

    Each 8192-pair chunk is drawn whole with ``rng.uniform``, x then y, the
    last one cut to the pairs asked for, and its quotients are evaluated at
    once with ``(N, n)`` broadcasts; coincident pairs are redrawn per chunk.
    It has no box limits and no non-finite check.
    """
    n = dynamics.dim
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
    p, delta = cert.p, cert.delta

    rng = np.random.default_rng(seed)
    best = np.inf
    best_pair = (None, None)
    chunk = 8192
    remaining = int(samples)
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        x = rng.uniform(lo, hi, size=(chunk, n))[:size]
        y = rng.uniform(lo, hi, size=(chunk, n))[:size]
        d = x - y
        nrm2 = np.einsum("ij,ij->i", d, d)
        while np.any(nrm2 == 0.0):
            idx = np.nonzero(nrm2 == 0.0)[0]
            y[idx] = rng.uniform(lo, hi, size=(idx.size, n))
            d[idx] = x[idx] - y[idx]
            nrm2[idx] = np.einsum("ij,ij->i", d[idx], d[idx])
        decrease = -(d * (p * (dynamics(x) - dynamics(y)) - (p * delta) * d)).sum(axis=1)
        quotients = decrease / nrm2
        k = int(np.argmin(quotients))
        if quotients[k] < best:
            best = float(quotients[k])
            best_pair = (x[k].copy(), y[k].copy())
    margin = cert.eta - best
    return best, best_pair, bool(best >= cert.eta), float(margin)


def chua_eval_reference(x, jt, gain):
    """``x @ J_outer^T + gain clip(x1, -1, 1) e1`` on float ``(..., 3)`` states."""
    out = x @ jt
    # np.clip goes through a Python wrapper; the two ufuncs are cheaper
    out[..., 0] += gain * np.minimum(np.maximum(x[..., 0], -1.0), 1.0)
    return out


def chua_field_reference(x, k=CHUA_K, l=CHUA_L):
    """Chua's field through :func:`chua_eval_reference`, Python-float gain."""
    jt = chua_region_jacobian("right", k, l).T.copy()
    return chua_eval_reference(np.asarray(x, dtype=float), jt, 3.0 * k / 7.0)


def _sine_blend_reference(u):
    return u + 0.5 * np.sin(u)


def network_rhs_reference(systems):
    """``f(y) + M g(y)`` over a batch, in its earlier form. Chua's field and
    the sine blend are the reference forms above; other fields and maps are
    the registered ones."""
    first = systems[0]
    op = np.stack([network_operator(s) for s in systems])
    if first.dynamics.kind == "chua":
        jt = chua_region_jacobian(
            "right",
            float(first.dynamics.params.get("k", CHUA_K)),
            float(first.dynamics.params.get("l", CHUA_L)),
        ).T.copy()
        gain = 3.0 * float(first.dynamics.params.get("k", CHUA_K)) / 7.0

        def field(x, t):
            return chua_eval_reference(x, jt, gain)
    else:
        field = first.dynamics.field_fn
    g = _sine_blend_reference if first.gfun.kind == "sine_blend" else first.gfun.map_fn

    def rhs(y, t):
        out = field(y.reshape(-1, y.shape[-1]), t).reshape(y.shape)
        out += op @ g(y)
        return out

    return rhs


def integrate_batch_reference(systems, x0s, s0s, dt, t_max):
    """Batched classical RK4 in its earlier form: every stage a fresh array,
    Python-float step factors, and the ``max|y|`` prefilter before the
    per-node guard. Returns the same list of trajectories and
    :class:`DivergenceError` as :func:`pinnet.simulate.integrate_batch`."""
    systems = list(systems)
    rhs = network_rhs_reference(systems)
    steps = grid_steps(dt, t_max)
    y = np.stack(
        [
            _stacked_state(sys, x0, s0, f"member {k + 1}: ")
            for k, (sys, x0, s0) in enumerate(zip(systems, x0s, s0s))
        ]
    )
    count, m, n = y.shape[0], y.shape[1] - 1, y.shape[2]
    times = np.arange(steps + 1) * dt
    buf = np.empty((count, steps + 1, m + 1, n))
    live = np.arange(count)
    rows = slice(None)
    buf[rows, 0] = y
    results = [None] * count
    half = 0.5 * dt
    sixth = dt / 6.0
    guard2 = DIVERGENCE_NORM * DIVERGENCE_NORM
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
            rhs = network_rhs_reference([systems[k] for k in live])

    for k in live:
        results[k] = Trajectory(
            times=times, states=buf[k, :, :m, :], reference=buf[k, :, m, :]
        )
    return results


def metrics_reference(traj, weights=None, p=None) -> MetricSeries:
    """:func:`pinnet.simulate.metrics` in its earlier form: node norms from
    ``np.linalg.norm``, one fresh array per deviation."""
    x = traj.states
    s = traj.reference
    m, n = x.shape[1], x.shape[2]
    w = np.ones(m) if weights is None else np.asarray(weights, dtype=float)
    pd = np.ones(n) if p is None else np.asarray(p, dtype=float)
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
