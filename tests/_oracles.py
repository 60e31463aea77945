"""Independent oracles used across the test suite.

These deliberately avoid the code paths they check: eigenvalues come from
the characteristic polynomial (quadratic formula, or companion-matrix roots
via numpy.roots for cubics) rather than the package's LAPACK eigensolver, and
the minimal coupling strength is re-derived by bisection on the checker.
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
