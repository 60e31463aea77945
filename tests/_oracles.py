"""Independent oracles used across the test suite.

These deliberately avoid the code paths they check: eigenvalues come from
the characteristic polynomial (quadratic formula, or companion-matrix roots
via numpy.roots for cubics) rather than the package's LAPACK eigensolver, and
the minimal coupling strength is re-derived by bisection on the checker,
and the sampled QUAD falsifier is checked against its earlier whole-chunk
form.
"""

import numpy as np


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

    Each 200,000-pair chunk is drawn with ``rng.uniform``, x then y, and its
    quotients are evaluated at once with ``(N, n)`` broadcasts; coincident
    pairs are redrawn per chunk. It has no box limits and no non-finite
    check.
    """
    n = dynamics.dim
    lo, hi = box
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n,)).copy()
    p, delta = cert.p, cert.delta

    rng = np.random.default_rng(seed)
    best = np.inf
    best_pair = (None, None)
    chunk = 200_000
    remaining = int(samples)
    while remaining > 0:
        size = min(chunk, remaining)
        remaining -= size
        x = rng.uniform(lo, hi, size=(size, n))
        y = rng.uniform(lo, hi, size=(size, n))
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
