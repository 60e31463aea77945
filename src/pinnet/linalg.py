"""Small dense linear algebra and graph structure analysis.

Symmetric eigenvalues come from LAPACK's ``eigvalsh`` (through numpy), left
null vectors from a direct least-squares solve, and reducibility is decided
by Tarjan's strongly-connected-components algorithm. Each array rule is one
function here, for every caller: :func:`finite_array`, :func:`positive_vector`,
``_as_square``, :func:`check_zero_row_sums` and :func:`is_symmetric`.

Functions accept plain arrays or anything with an ``entries`` attribute
(e.g. :class:`pinnet.model.CouplingMatrix`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_TOL = 1e-12
ROW_SUM_TOL = 1e-12
NULL_RESIDUAL_TOL = 1e-10


class SymmetryError(ValueError):
    """Input matrix is not symmetric within tolerance."""


class ReducibilityError(ValueError):
    """An operation requires a strongly connected (irreducible) coupling
    matrix; carries the offending condensation as ``condensation``."""

    def __init__(self, message: str, condensation: "Condensation"):
        super().__init__(message)
        self.condensation = condensation


def finite_array(value, where: str) -> np.ndarray:
    """``value`` as a new float array; a ``ValueError`` names ``where`` when it
    holds anything but numbers (strings and booleans included), is ragged, or
    has a non-finite entry (named 1-based, like node indices)."""
    try:
        arr = np.asarray(value)
    except ValueError as err:
        raise ValueError(f"{where} must be a regular array of numbers: {err}") from err
    numeric = arr.dtype.kind in "iuf"
    if numeric and not isinstance(value, np.ndarray):
        # numpy reads a bool among numbers as 0 or 1, so look at the elements
        numeric = not {bool, np.bool_} & set(map(type, np.asarray(value, dtype=object).ravel()))
    if not numeric:
        raise ValueError(f"{where} must hold numbers only, got {value!r}")
    arr = arr.astype(float)
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        entry = ",".join(str(i + 1) for i in bad[0])
        raise ValueError(f"{where} entry ({entry}) is not finite: {float(arr[tuple(bad[0])])}")
    return arr


def positive_vector(value, where: str, n: int) -> np.ndarray:
    """:func:`finite_array` of shape ``(n,)`` whose entries are all > 0; a
    ``ValueError`` names ``where`` and the first entry that is not (1-based)."""
    arr = finite_array(value, where)
    if arr.shape != (n,):
        raise ValueError(f"{where} must have shape ({n},), got {arr.shape}")
    if not np.all(arr > 0.0):
        i = int(np.argmin(arr > 0.0))
        raise ValueError(f"{where} entry ({i + 1}) must be > 0, got {arr[i]:g}")
    return arr


def _as_square(a, name: str = "matrix") -> np.ndarray:
    arr = finite_array(getattr(a, "entries", a), name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must have at least one row")
    return arr


def _absmax(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr)))


def is_symmetric(a: np.ndarray) -> bool:
    """``max |a - a^T| <= SYMMETRY_TOL max |a|``: symmetric up to the
    roundoff its largest entry can carry, at any scale."""
    return _absmax(a - a.T) <= SYMMETRY_TOL * _absmax(a)


def check_zero_row_sums(a: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first row (1-based) whose sum is not
    zero within ``ROW_SUM_TOL`` times the row's magnitude, the sum of its
    absolute entries: the roundoff a floating-point row sum can carry, at
    any scale."""
    sums = a.sum(axis=1)
    tol = ROW_SUM_TOL * np.abs(a).sum(axis=1)
    bad = np.flatnonzero(np.abs(sums) > tol)
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"row {i + 1} sums to {sums[i]:.6g}, expected 0 within {tol[i]:.3g}")


def sym_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^T) / 2`` over the last two axes, so also for a stack."""
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def sym_eigen(a) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending, by LAPACK
    (``numpy.linalg.eigvalsh``).

    Raises :class:`SymmetryError` if the input is asymmetric beyond
    tolerance (:func:`is_symmetric`); roundoff-level asymmetry is averaged
    away before solving.
    """
    arr = _as_square(a)
    if not is_symmetric(arr):
        raise SymmetryError(
            "matrix is not symmetric within tolerance; "
            "the weighted symmetrization path handles asymmetric coupling"
        )
    return np.linalg.eigvalsh(sym_part(arr))[::-1]  # eigvalsh ascends


def left_null_vector(a) -> np.ndarray:
    """Left null vector xi of a zero-row-sum matrix, normalized to sum 1.

    Solved as the least-squares system {xi^T A = 0, sum xi = 1} on A / max |a|,
    both blocks balanced at unit scale, so xi is unit-free. For an irreducible
    matrix this is the (strictly positive) left Perron vector. For a
    reducible one it is just some vector of the left null space, often
    with zero entries; callers that need the Perron vector check
    irreducibility first (:func:`scc_condensation`). Rows must sum to zero
    by the rule of :func:`check_zero_row_sums`.
    """
    arr = _as_square(a)
    m = arr.shape[0]
    check_zero_row_sums(arr)
    scale = _absmax(arr) or 1.0  # the all-zero matrix keeps unit scale
    system = np.vstack([arr.T / scale, np.ones((1, m))])
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    xi, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    xi = xi / xi.sum()
    residual = float(np.max(np.abs(xi @ arr)))
    if residual > NULL_RESIDUAL_TOL * scale:
        raise ValueError(f"left null vector residual {residual:.3g} exceeds tolerance")
    return xi


@dataclass(frozen=True)
class Condensation:
    """Strongly-connected-component structure of a coupling graph.

    ``blocks`` holds 1-based node indices, topologically sorted so that
    permuting rows and columns into block order leaves every positive
    off-diagonal entry on or below the diagonal blocks (the first block
    receives no cross-block input). ``block_edges`` lists (receiver_block,
    sender_block) pairs r > s of 1-based block positions with a positive
    connecting entry.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_edges: frozenset[tuple[int, int]]

    @property
    def irreducible(self) -> bool:
        return len(self.blocks) == 1


def scc_condensation(a) -> Condensation:
    """Condense the coupling graph into topologically sorted strong components.

    A strictly positive off-diagonal entry ``a[i, j]`` is the edge j -> i
    (node i receives from node j); zero-weight entries carry no connectivity.
    An irreducible matrix yields exactly one block.
    """
    arr = _as_square(a)
    m = arr.shape[0]
    # every edge j -> i, one scan: nonzero reads the transpose in row-major
    # order, so senders ascend and each sender's receivers ascend
    positive = arr.T > 0.0
    np.fill_diagonal(positive, False)
    senders, receivers = (side.tolist() for side in np.nonzero(positive))
    succ: list[list[int]] = [[] for _ in range(m)]
    for j, i in zip(senders, receivers):
        succ[j].append(i)

    index = [-1] * m
    low = [0] * m
    onstack = [False] * m
    stack: list[int] = []
    counter = 0
    comps: list[list[int]] = []

    for root in range(m):
        if index[root] != -1:
            continue
        work = [(root, iter(succ[root]))]
        while work:
            v, out = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                onstack[v] = True
            for u in out:
                if index[u] == -1:
                    work.append((u, iter(succ[u])))
                    break
                if onstack[u]:
                    low[v] = min(low[v], index[u])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        u = stack.pop()
                        onstack[u] = False
                        comp.append(u)
                        if u == v:
                            break
                    comps.append(sorted(comp))

    # Tarjan emits receivers first; reverse so sources (root blocks) lead and
    # cross-block entries land below the diagonal blocks.
    comps.reverse()
    blocks = tuple(tuple(i + 1 for i in comp) for comp in comps)
    label = {i: q for q, comp in enumerate(comps, start=1) for i in comp}
    edges = frozenset(
        (label[i], label[j]) for j, i in zip(senders, receivers) if label[i] != label[j]
    )
    return Condensation(blocks=blocks, block_edges=edges)


def symmetrize_weighted(a_tilde, xi) -> np.ndarray:
    """(diag(xi) A + A^T diag(xi)) / 2, symmetric by construction.

    With ``xi`` the left null vector of an unpinned coupling matrix this is
    the weighted form whose largest eigenvalue drives the asymmetric pinning
    condition; its row sums then vanish because xi^T A = 0.
    """
    arr = _as_square(a_tilde)
    w = positive_vector(xi, "xi", arr.shape[0])
    # diag(xi) @ A; A.T @ diag(xi) is its transpose
    return sym_part(w[:, None] * arr)
