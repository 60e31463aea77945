"""Executable sufficient conditions for pinning a coupled network to a target.

The checkers cover the whole decision chain: negativity of the pinned
coupling spectrum (:func:`proposition1_holds`), the QUAD one-sided-Lipschitz
certificate for the node dynamics (:func:`certified_quad_margin`, with
:func:`verify_certificate` for the verdicts that rely on it, and
:func:`quad_check_sampled`), local and global margins for symmetric coupling
(:func:`theorem1_margin`, :func:`theorem2_check`), nonlinear coupling
(:func:`theorem3_check`, of which theorem 2 is the alpha = 1 case),
asymmetric coupling through the weighted symmetrization
(:func:`weighted_spectrum`, :func:`spectral_negativity`,
:func:`theorem4_check`), the minimal coupling strength
(:func:`min_coupling_strength`), and the structural criterion for reducible
topologies (:func:`reducible_pinnability`).

All conditions are strict inequalities: a margin of exactly zero fails. The
negativity tolerance is ``margin < -1e-9 * scale``, with no absolute floor, so
the chain is unit-free: ``scale`` is the magnitude of the binding combination
(for spectral negativity, the largest eigenvalue magnitude), and the tolerance
is recorded as the verdict's ``detail["tolerance"]``. That one verdict also
decides whether a minimal coupling strength c* exists. The closed forms know
no dynamics kind: they read the Jacobians of the pieces a field declares on
``Dynamics.affine``, and a field that declares none is left to sampling. Every
condition reads eigenvalues only, never an eigenvector, so each symmetric
spectrum is LAPACK's ``eigvalsh``: one matrix through
:func:`pinnet.linalg.sym_eigen`, a stack of pieces directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    Condensation,
    ReducibilityError,
    SymmetryError,
    finite_array,
    left_null_vector,
    positive_vector,
    scc_condensation,
    sym_eigen,
    symmetrize_weighted,
)
from .model import (
    CouplingMatrix,
    Dynamics,
    PinPlan,
    finite_number,
    node_index,
    pinned_matrix,
    positive_number,
    validate_coupling,
    whole_number,
)

NEG_TOL = 1e-9
_MAX_TRIES = 500


@dataclass(frozen=True)
class QuadCertificate:
    """Diagonal certificate (P, Delta, eta) for the quadratic decrease bound

        (x - y)^T P (f(x) - Delta x - f(y) + Delta y) <= -eta ||x - y||^2.

    ``p`` and ``delta`` are the diagonals (length n), by the one diagonal
    rule; eta is a :func:`pinnet.model.positive_number`, stored as ``float``.
    """

    p: np.ndarray
    delta: np.ndarray
    eta: float

    def __post_init__(self):
        # the rule copies, so freezing the fields cannot leak back to caller arrays
        for name, diagonal in zip(("p", "delta"), _check_diagonals(self.p, self.delta)):
            diagonal.setflags(write=False)
            object.__setattr__(self, name, diagonal)
        object.__setattr__(self, "eta", positive_number(self.eta, "eta"))


@dataclass(frozen=True)
class SpectralReport:
    """Spectrum backing a verdict: eigenvalues sorted descending and
    (asymmetric case) the left Perron vector. Their top value and maximum
    are read from them, so a report cannot disagree with itself."""

    eigenvalues: np.ndarray
    xi: Optional[np.ndarray] = None

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def xi_max(self) -> Optional[float]:
        return None if self.xi is None else float(self.xi.max())


@dataclass(frozen=True)
class Verdict:
    """Outcome of one condition: ``margin`` is the most-binding slack
    (negative means satisfied), ``detail`` carries per-component values and
    which component binds."""

    holds: bool
    margin: float
    detail: dict


def _strict(margin: float, scale: float, detail: dict) -> Verdict:
    """``margin < -NEG_TOL |scale|``; the detail records that tolerance."""
    tolerance = NEG_TOL * abs(scale)
    return Verdict(holds=bool(margin < -tolerance), margin=float(margin),
                   detail={**detail, "tolerance": tolerance})


# ---------------------------------------------------------------------------
# spectral negativity


def spectral_negativity(report: SpectralReport) -> Verdict:
    """Every eigenvalue of the report is negative: the top one lies below the
    negativity tolerance relative to the largest eigenvalue magnitude."""
    scale = float(np.max(np.abs(report.eigenvalues)))
    return _strict(report.lambda1, scale, {})


def proposition1_holds(a_tilde) -> tuple[Verdict, SpectralReport]:
    """All eigenvalues of a pinned symmetric coupling matrix are negative.

    Holds when the largest eigenvalue is below the negativity tolerance
    (:func:`spectral_negativity`, the rule the asymmetric route uses); an
    unpinned zero-row-sum matrix always fails (eigenvalue 0 on the all-ones
    vector). Asymmetric input raises :class:`SymmetryError`; route those
    through :func:`theorem4_check`.
    """
    try:
        report = SpectralReport(sym_eigen(a_tilde))
    except SymmetryError:
        raise SymmetryError(
            "proposition1_holds needs symmetric coupling; "
            "use theorem4_check for asymmetric matrices"
        ) from None
    return spectral_negativity(report), report


# ---------------------------------------------------------------------------
# QUAD certificates


def _sym_part(m: np.ndarray) -> np.ndarray:
    return (m + np.swapaxes(m, -1, -2)) / 2.0


def _check_diagonals(p, delta, n: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """The (P, Delta) rule: ``delta`` a finite vector of ``n`` entries (any if
    None), ``p`` a positive vector as long; a number is a diagonal of one."""
    delta = np.atleast_1d(finite_array(delta, "delta"))
    n = len(delta) if n is None else n
    if delta.shape != (n,):
        raise ValueError(f"delta must have shape ({n},), got {delta.shape}")
    return positive_vector(np.atleast_1d(finite_array(p, "p")), "p", n), delta


def quad_margin_affine(p, delta, jacobian) -> float:
    """Exact QUAD margin for an affine field f(x) = J x + b:
    -lambda_max(sym(P (J - Delta))). Positive means certified."""
    jac = np.asarray(jacobian, dtype=float)
    p, delta = _check_diagonals(p, delta, jac.shape[0])
    m = _sym_part(p[:, None] * (jac - np.diag(delta)))
    return -float(sym_eigen(m)[0])


def certified_quad_margin(dynamics: Dynamics, p, delta) -> float:
    """Closed-form QUAD margin at diagonal P and Delta, from the pieces the
    field declares on ``dynamics.affine``. One piece is exact
    (:func:`quad_margin_affine`); with breakpoints it is the regional bound

        eta = min_k p_k Delta_k - max_pieces || sym(P J_piece) ||_2

    conservative for pairs straddling a breakpoint but valid everywhere
    (Chua's circuit at P = I, Delta = 10 I: 0.6218, the outer pieces bind).
    A nonpositive return means no certificate at this (P, Delta). A field
    without pieces raises: fall back on :func:`quad_check_sampled`.
    """
    if dynamics.affine is None:
        raise ValueError(
            f"no closed-form QUAD margin for dynamics kind {dynamics.kind!r}, which "
            "declares no affine pieces; use quad_check_sampled"
        )
    jacobians = dynamics.affine.jacobians
    if len(jacobians) == 1:
        return quad_margin_affine(p, delta, jacobians[0])
    p, delta = _check_diagonals(p, delta, dynamics.dim)
    # one eigvalsh over the stack; the symmetric parts are built exactly, so
    # no symmetry check is needed
    values = np.linalg.eigvalsh(_sym_part(p[:, None] * jacobians))
    return float((p * delta).min() - np.abs(values).max())


def verify_certificate(theorem: Verdict, dynamics: Dynamics, cert: QuadCertificate) -> Verdict:
    """``theorem``, a margin that relies on ``cert``, holding only if also
    ``cert.eta <= certified_quad_margin``; a field without pieces leaves the
    certificate unverified. The margin is kept; the detail adds
    ``certified_margin`` and ``certificate``, None or why it fails."""
    certified = problem = None
    if dynamics.affine is None:
        problem = f"unverified (dynamics {dynamics.kind!r} declares no affine pieces)"
    else:
        certified = certified_quad_margin(dynamics, cert.p, cert.delta)
        if not cert.eta <= certified:
            problem = f"eta {cert.eta:g} exceeds the certified margin {certified:g}"
    detail = {**theorem.detail, "certified_margin": certified, "certificate": problem}
    return Verdict(holds=theorem.holds and problem is None, margin=theorem.margin, detail=detail)


# pairs per block of the draw stream (all x of a block, then all y, then its
# redraws: this fixes which double each state gets), drawn and evaluated at
# once so a block's buffers and temporaries stay in cache
_QUAD_BLOCK = 8192


def _quad_box(box, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension ``(lo, hi)`` of a sampling box of finite arrays, rejected
    unless every width squares to a normal float and the squares sum to a finite one."""
    lo, hi = box
    lo = np.broadcast_to(finite_array(lo, "box lo"), (n,)).copy()
    hi = np.broadcast_to(finite_array(hi, "box hi"), (n,)).copy()
    if not np.all(hi > lo):
        raise ValueError(f"degenerate sampling box: lo={lo}, hi={hi}")
    with np.errstate(over="ignore", under="ignore"):
        width2 = (hi - lo) ** 2
    if not (np.all(width2 >= np.finfo(float).tiny) and np.isfinite(width2.sum())):
        raise ValueError(
            f"sampling box lo={lo}, hi={hi}: its squared widths {width2} "
            "underflow or overflow, so |x-y|^2 cannot be resolved"
        )
    return lo, hi


def _to_box(u: np.ndarray, lo_rows: np.ndarray, width_rows: np.ndarray) -> None:
    """Map uniform draws ``u`` (C-contiguous rows of states) in place to
    ``lo + width * u``, which is ``rng.uniform(lo, hi)`` bit for bit.
    ``lo_rows`` and ``width_rows`` are lo and width tiled over at least as
    many rows, so both products run on contiguous memory."""
    flat = u.reshape(-1)
    np.multiply(flat, width_rows[:flat.size], out=flat)
    np.add(flat, lo_rows[:flat.size], out=flat)


def quad_check_sampled(
    dynamics: Dynamics,
    cert: QuadCertificate,
    box,
    samples: int,
    seed: int = 0,
) -> Verdict:
    """Monte-Carlo falsifier for a QUAD certificate.

    Samples state pairs uniformly in the box and evaluates the decrease
    quotient -(x-y)^T P (f(x) - Delta x - f(y) + Delta y) / ||x-y||^2; the
    verdict holds when the minimum observed quotient is >= cert.eta, and
    the detail names the first pair that attains it. Sampling can only
    refute a certificate, never prove one. ``box`` is (lo, hi) scalars or
    per-dimension arrays; the detail records it per dimension.

    Draws: the stream of ``default_rng(seed)`` holds the pairs in blocks of
    8192: all x of a block, then all y, then its redraws. The last block is
    drawn whole and only its first pairs are used. Each state is
    ``lo + (hi - lo) u`` with u uniform on [0, 1). Coincident pairs
    (``||x-y||^2 == 0``) get a fresh y, in index order until none is left.
    So the first N pairs of a seed are the same whatever ``samples`` is, and
    ``min_quotient`` can only fall as ``samples`` grows. The one exception is
    a pair whose redraw coincides again, which needs a box about 2^-48 wide.
    Memory stays O(block) whatever ``samples`` is.

    Evaluation runs a block at a time, one column of states at a time.
    ``||x-y||^2`` is numpy's ``einsum``, and the n products
    ``(x-y)_k (p_k (f(x) - f(y))_k - p_k Delta_k (x-y)_k)`` are summed left
    to right from +0.0. That is ``.sum(axis=1)`` of the same products bit
    for bit while n <= 7; for n >= 8 numpy sums pairwise, and the two
    orders differ by at most 2 (n - 1) eps sum_k |product_k| per pair.

    Raises ``ValueError`` for ``samples`` that is not a whole number >= 1
    (a whole float such as ``1e6`` counts), for ``seed`` that is not a
    whole number >= 0, for a box whose widths square below the smallest
    normal float or sum beyond the largest (``||x-y||^2`` would underflow
    to 0 for every pair, or overflow), and for the first pair whose
    quotient is not finite: the field must be finite on the box.
    """
    samples = whole_number(samples, "samples", 1)
    seed = whole_number(seed, "seed", 0)
    n = dynamics.dim
    lo, hi = _quad_box(box, n)
    p, delta = cert.p, cert.delta
    if p.shape != (n,):
        raise ValueError(f"certificate dimension {p.shape[0]} != dynamics dim {n}")
    pd = p * delta

    rng = np.random.default_rng(seed)
    block = _QUAD_BLOCK
    x_buf, y_buf = np.empty((block, n)), np.empty((block, n))
    lo_rows, width_rows = np.tile(lo, block), np.tile(hi - lo, block)
    d_buf, nrm2_buf = np.empty((block, n)), np.empty(block)
    ratio_buf, term_buf, tmp_buf = np.empty(block), np.empty(block), np.empty(block)
    best = np.inf
    best_pair = (None, None)
    for start in range(0, samples, block):
        rows = min(block, samples - start)
        rng.random(out=x_buf)
        rng.random(out=y_buf)
        x, y = x_buf[:rows], y_buf[:rows]
        _to_box(x, lo_rows, width_rows)
        _to_box(y, lo_rows, width_rows)
        d, nrm2 = d_buf[:rows], nrm2_buf[:rows]
        ratio, term, tmp = ratio_buf[:rows], term_buf[:rows], tmp_buf[:rows]
        np.subtract(x, y, out=d)
        np.einsum("ij,ij->i", d, d, out=nrm2)
        while True:
            idx = np.flatnonzero(nrm2 == 0.0)
            if idx.size == 0:
                break
            fresh = rng.random((idx.size, n))
            _to_box(fresh, lo_rows, width_rows)
            y[idx] = fresh
            d[idx] = x[idx] - fresh
            nrm2[idx] = np.einsum("ij,ij->i", d[idx], d[idx])
        # an overflow or inf - inf here is caught by the finiteness check
        # below, which names the pair instead of warning about it
        with np.errstate(over="ignore", invalid="ignore"):
            df = dynamics(x) - dynamics(y)
            # ratio = sum_k d_k (p_k df_k - pd_k d_k) / |d|^2 is minus the
            # quotient, so its first argmax is the quotient's first argmin
            for k in range(n):
                acc = ratio if k == 0 else term
                np.multiply(df[:, k], p[k], out=acc)
                np.multiply(d[:, k], pd[k], out=tmp)
                acc -= tmp
                acc *= d[:, k]
                if k:
                    ratio += term
            ratio /= nrm2
        finite = np.isfinite(ratio)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(
                f"non-finite QUAD quotient at sample {start + i}: "
                f"x={x[i]}, y={y[i]} (the field is not finite there, "
                "or the quotient overflows)"
            )
        i = int(np.argmax(ratio))
        # numpy's sum starts from +0.0, so a zero sum is +0.0 and its
        # quotient -0.0; adding 0.0 keeps that sign
        quotient = float(-(ratio[i] + 0.0))
        if quotient < best:
            best = quotient
            best_pair = (x[i].copy(), y[i].copy())
    margin = cert.eta - best
    detail = {
        "min_quotient": best,
        "minimizing_pair": best_pair,
        "samples": samples,
        "seed": int(seed),
        "box": (lo, hi),
    }
    return Verdict(holds=bool(best >= cert.eta), margin=float(margin), detail=detail)


# ---------------------------------------------------------------------------
# margin checks


def theorem1_margin(sys, lambda1: float) -> Verdict:
    """Local pinning condition: mu_piece is the largest eigenvalue of the
    symmetrized Jacobian on each piece of ``sys.dynamics.affine``, and the
    condition holds when max_piece mu < -c lambda1, i.e.
    margin = max mu + c lambda1 < 0. The detail lists ``mu_by_piece`` in
    piece order. A field that declares no affine pieces raises ``ValueError``.
    """
    affine = sys.dynamics.affine
    if affine is None:
        raise ValueError(
            f"theorem1_margin needs the field's affine pieces; dynamics kind "
            f"{sys.dynamics.kind!r} declares none"
        )
    mus = tuple(np.linalg.eigvalsh(_sym_part(affine.jacobians))[:, -1].tolist())
    mu = max(mus)
    c = sys.pin.c
    margin = mu + c * lambda1
    scale = abs(mu) + abs(c * lambda1)
    return _strict(margin, scale, {"mu_by_piece": mus, "c_lambda1": c * lambda1})


def theorem2_check(cert: QuadCertificate, c: float, lambda1: float) -> Verdict:
    """Global pinning margin for symmetric coupling:
    max_k Delta_k + c lambda1 < 0, i.e. :func:`theorem3_check` at alpha = 1."""
    return theorem3_check(cert, c, lambda1, 1.0)


def theorem3_check(
    cert: QuadCertificate, c: float, lambda1: float, alpha: float, xi_max: float = 1.0
) -> Verdict:
    """Global pinning margin under a monotone coupling map with difference
    quotients >= alpha > 0: max_k Delta_k xi_max + alpha c lambda1 < 0, the
    family :func:`min_coupling_strength` solves. At alpha = 1 and
    xi_max = 1 this is :func:`theorem2_check` (the identity map); with the
    weighted spectrum it is :func:`theorem4_check`."""
    # c = 0 is allowed: the margin is defined there, max_k Delta_k xi_max
    finite_number(c, "c")
    finite_number(lambda1, "lambda1")
    positive_number(alpha, "alpha")
    positive_number(xi_max, "xi_max")
    terms = cert.delta * xi_max + alpha * (c * lambda1)
    scales = np.abs(cert.delta * xi_max) + abs(alpha * (c * lambda1))
    k = int(np.argmax(terms))
    detail = {"c": c, "lambda1": lambda1, "alpha": alpha, "xi_max": xi_max,
              "per_component": terms, "binding_k": k + 1}
    return _strict(float(terms[k]), float(scales[k]), detail)


def weighted_spectrum(a, pin: PinPlan) -> SpectralReport:
    """Spectrum behind the asymmetric conditions: xi, the left Perron vector
    of the unpinned matrix, and the eigenvalues of
    (diag(xi) A~ + A~^T diag(xi)) / 2 for the pinned matrix A~, whose top
    value is mu1. The input is validated, and reducible coupling, which has
    no Perron vector, raises :class:`ReducibilityError` with its condensation.
    """
    coupling = a if isinstance(a, CouplingMatrix) else validate_coupling(a)
    cond = scc_condensation(coupling)
    if not cond.irreducible:
        raise ReducibilityError(
            "weighted_spectrum needs an irreducible coupling matrix; "
            "judge its condensation with reducible_pinnability",
            cond,
        )
    xi = left_null_vector(coupling)
    return SpectralReport(sym_eigen(symmetrize_weighted(pinned_matrix(coupling, pin), xi)), xi)


def theorem4_check(
    a, pin: PinPlan, cert: QuadCertificate, alpha: float = 1.0
) -> tuple[Verdict, SpectralReport]:
    """Global pinning margin for irreducible asymmetric coupling.

    With xi and mu1 from :func:`weighted_spectrum`, the condition is
    max_k Delta_k max_i xi_i + alpha c mu1 < 0, i.e. :func:`theorem3_check`
    on the weighted spectrum; ``alpha`` is the coupling map's slope bound.
    Reducible input raises :class:`ReducibilityError` from
    :func:`weighted_spectrum`; judge its condensation with
    :func:`reducible_pinnability`.
    """
    report = weighted_spectrum(a, pin)
    return theorem3_check(cert, pin.c, report.lambda1, alpha, report.xi_max), report


def min_coupling_strength(
    cert: QuadCertificate, spectral: SpectralReport, alpha: float = 1.0
) -> float:
    """Smallest coupling strength making the global margin negative.

    Closed form for the family max_k Delta_k xi_max + alpha c lambda1 < 0,
    with lambda1 and xi_max (1 if absent) read from ``spectral``:
    c* = max_k Delta_k xi_max / (-alpha lambda1).
    It exists exactly when :func:`spectral_negativity` holds for the report,
    and ``ValueError`` says so otherwise; it is 0 when every Delta_k <= 0.
    """
    positive_number(alpha, "alpha")
    lambda1 = spectral.lambda1
    if not spectral_negativity(spectral).holds:
        raise ValueError(
            f"lambda1 = {lambda1:.6g} is not negative: no finite coupling strength exists"
        )
    xi_max = 1.0 if spectral.xi_max is None else spectral.xi_max
    top = float(np.max(cert.delta)) * xi_max
    if top <= 0.0:
        return 0.0
    return float(top / (-alpha * lambda1))


def reducible_pinnability(cond: Condensation, pin_node: int) -> Verdict:
    """Structural pinnability of a network, judged on its condensation (from
    :func:`scc_condensation`, or carried by a :class:`ReducibilityError`).

    Holds when the condensation has exactly one root block (a component
    receiving no cross-block input, so every other block is fed by an
    earlier one) and the pinned node lies inside it. The verdict margin is
    -1 when both requirements hold and counts the violations otherwise.
    """
    node_index(pin_node, "pin_node", sum(map(len, cond.blocks)))
    receivers = {r for r, _ in cond.block_edges}
    roots = [q for q in range(1, len(cond.blocks) + 1) if q not in receivers]
    pin_block = next(
        q for q, block in enumerate(cond.blocks, start=1) if pin_node in block
    )
    problems = []
    if len(roots) != 1:
        problems.append(f"{len(roots)} root blocks, need exactly 1")
    if pin_block not in roots:
        problems.append(f"pinned node {pin_node} sits in block {pin_block}, not a root")
    holds = not problems
    detail = {
        "blocks": cond.blocks,
        "root_blocks": roots,
        "pin_block": pin_block,
        "problems": problems,
    }
    return Verdict(holds=holds, margin=-1.0 if holds else float(len(problems)), detail=detail)


# ---------------------------------------------------------------------------
# random instances for property suites


def random_coupling_matrix(
    rng: np.random.Generator,
    m: int,
    symmetric: bool = True,
    edge_prob: float = 0.5,
    require_irreducible: bool = True,
) -> CouplingMatrix:
    """Random Erdos-Renyi coupling matrix with uniform (0, 1] edge weights.

    Off-diagonal entries are present independently with ``edge_prob``
    (mirrored when symmetric), the diagonal is set to minus the row sum, and
    draws are rejected until the graph is strongly connected when
    ``require_irreducible``, at most ``_MAX_TRIES`` times. Deterministic given
    the generator state; ``edge_prob`` is a number in [0, 1].
    """
    m = whole_number(m, "m", 1)
    edge_prob = finite_number(edge_prob, "edge_prob")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError(f"edge_prob must lie in [0, 1], got {edge_prob:g}")
    for _ in range(_MAX_TRIES):
        a = np.zeros((m, m))
        if m > 1:
            mask = rng.random((m, m)) < edge_prob
            weights = 1.0 - rng.random((m, m))  # uniform on (0, 1]
            np.fill_diagonal(mask, False)
            if symmetric:
                upper = np.triu(mask, 1)
                a[upper] = weights[upper]
                a = a + a.T
            else:
                a[mask] = weights[mask]
            np.fill_diagonal(a, -a.sum(axis=1))
        if not require_irreducible or scc_condensation(a).irreducible:
            return validate_coupling(a)
    raise RuntimeError(
        f"no strongly connected draw in {_MAX_TRIES} tries (m={m}, p={edge_prob})"
    )
