import copy
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import (
    BUILTIN_SCENARIOS,
    COUPLING_MATRICES,
    CouplingFunction,
    Dynamics,
    NetworkSystem,
    PinPlan,
    QuadCertificate,
    ReducibilityError,
    SpectralReport,
    SymmetryError,
    certified_quad_margin,
    check_scenario,
    chua_region_jacobian,
    make_dynamics,
    min_coupling_strength,
    parse_scenario,
    pinned_matrix,
    proposition1_holds,
    quad_check_sampled,
    quad_margin_affine,
    random_coupling_matrix,
    reducible_pinnability,
    scc_condensation,
    spectral_negativity,
    sym_eigen,
    theorem1_margin,
    theorem3_check,
    theorem4_check,
    validate_coupling,
    verify_certificate,
    weighted_spectrum,
)

from _oracles import bisect_min_c, charpoly_eigenvalues, quad_check_sampled_reference

SYM_3NODE = validate_coupling([[-5.1, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]])
ASYM_3NODE = validate_coupling([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
TWO_BLOCK = validate_coupling([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
# two pairs that never exchange input: two root blocks. Its left null space is
# 2-D, and left_null_vector still returns a strictly positive vector of it.
TWO_ROOTS = validate_coupling(
    [[-1.0, 1.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0], [0.0, 0.0, 2.0, -2.0]]
)

CERT_10 = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=0.6218)
CERT_SKEWED = QuadCertificate(
    p=np.array([1.0, 0.37, 2.5]), delta=np.array([3.0, 11.0, 0.5]), eta=1.2
)
QUAD_BOXES = {
    "cube": (-30.0, 30.0),
    "hull": (np.array([-1.5, -20.0, 0.3]), np.array([2.5, 7.0, 0.9])),
    # 17 doubles per coordinate: about 2 coincident pairs per 8192-pair block are redrawn
    "coarse": (1.0, 1.0 + 2.0**-48),
}


def _assert_same_falsifier(verdict, reference):
    best, pair, holds, margin = reference
    bits = lambda v: np.float64(v).tobytes()  # noqa: E731 - also tells -0.0 from 0.0
    assert bits(verdict.detail["min_quotient"]) == bits(best)
    assert bits(verdict.margin) == bits(margin)
    assert verdict.holds == holds
    for got, want in zip(verdict.detail["minimizing_pair"], pair):
        np.testing.assert_array_equal(got, want)


def _cert_10(n):
    return QuadCertificate(p=np.ones(n), delta=10.0 * np.ones(n), eta=0.6218)

# frozen from the pinned symmetric spectrum, cross-checked below by the
# characteristic-polynomial oracle
LAMBDA1_SYM = -1.0111445855819228
MU1_ASYM = -0.07179271112089718


def _spectrum(lambda1, xi=None):
    """A report whose whole spectrum is its top eigenvalue ``lambda1``."""
    return SpectralReport(eigenvalues=np.array([lambda1]), xi=xi)


class TestQuadCertificateType:
    def test_valid(self):
        cert = QuadCertificate(p=[1.0, 2.0], delta=[0.0, -1.0], eta=0.5)
        assert not cert.p.flags.writeable

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError, match=r"^p entry \(2\) must be > 0, got 0$"):
            QuadCertificate(p=[1.0, 0.0], delta=[0.0, 0.0], eta=0.5)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError, match="eta"):
            QuadCertificate(p=[1.0], delta=[0.0], eta=0.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            QuadCertificate(p=[1.0, 1.0], delta=[0.0], eta=0.5)

    @pytest.mark.parametrize(
        "eta, message",
        [(10**400, "eta is too large for a float"), (True, "eta must be a number"),
         (float("inf"), "eta must be finite")],
        ids=["huge", "bool", "inf"],
    )
    def test_eta_is_a_finite_number(self, eta, message):
        with pytest.raises(ValueError, match=message):
            QuadCertificate(p=[1.0], delta=[0.0], eta=eta)


class TestProposition1:
    def test_single_pinned_node(self):
        verdict, report = proposition1_holds(np.array([[-1.0]]))
        assert verdict.holds
        assert report.lambda1 == -1.0

    def test_builtin_pinned_matrix(self):
        atil = pinned_matrix(SYM_3NODE, PinPlan(1, 4.9, 10.0))
        verdict, report = proposition1_holds(atil)
        assert verdict.holds
        assert report.lambda1 == pytest.approx(LAMBDA1_SYM, abs=1e-10)
        oracle = charpoly_eigenvalues(atil)
        np.testing.assert_allclose(report.eigenvalues, oracle, atol=1e-9)

    def test_unpinned_matrix_fails(self):
        verdict, report = proposition1_holds(SYM_3NODE.entries)
        assert not verdict.holds
        assert report.lambda1 == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_routed_away(self):
        with pytest.raises(SymmetryError, match="theorem4"):
            proposition1_holds(ASYM_3NODE.entries)

    def test_borderline_spectrum_judged_like_the_asymmetric_route(self):
        # -k J + lam I: entries ~k, eigenvalues lam and lam - k m; lam sits
        # between the entry-scaled and the eigenvalue-scaled thresholds
        k, m, lam = 100.0, 10, -5e-7
        a = -k * np.ones((m, m)) + lam * np.eye(m)
        verdict, report = proposition1_holds(a)
        assert report.lambda1 == pytest.approx(lam, rel=1e-6)
        assert -1e-9 * k * m < report.lambda1 < -1e-9 * k
        assert verdict.holds == spectral_negativity(report).holds
        assert not verdict.holds

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_random_pinned_symmetric_always_negative(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 13))
        a = random_coupling_matrix(rng, m, symmetric=True)
        eps = float(rng.uniform(1e-3, 10.0))
        node = int(rng.integers(1, m + 1))
        verdict, report = proposition1_holds(pinned_matrix(a, PinPlan(node, eps, 1.0)))
        assert verdict.holds, f"lambda1={report.lambda1} for m={m}, eps={eps}"


class TestQuadCertificateChua:
    def test_reference_margin(self):
        eta = certified_quad_margin(make_dynamics("chua"), np.ones(3), 10.0 * np.ones(3))
        assert eta == pytest.approx(0.6218, abs=1e-3)
        assert eta == 0.621826504640163

    def test_regional_bound_bit_for_bit_on_a_seeded_grid(self):
        # the field's declared pieces give the bound over the circuit's two
        # diode slopes, built here from the regional Jacobians, to the bit
        rng = np.random.default_rng(18)
        for _ in range(300):
            k, l = rng.uniform(0.5, 20.0), rng.uniform(1.0, 30.0)
            p, delta = rng.uniform(0.1, 3.0, 3), rng.uniform(-5.0, 20.0, 3)
            want = _regional_bound(p, delta, k, l)
            dyn = make_dynamics("chua", params={"k": k, "l": l})
            assert certified_quad_margin(dyn, p, delta) == want, (k, l, p, delta)

    def test_binding_region_value(self):
        # eta = 10 - || sym(J_outer) ||_2; the outer slope binds here
        eta = certified_quad_margin(make_dynamics("chua"), np.ones(3), 10.0 * np.ones(3))
        outer = sym_eigen(
            (lambda j: (j + j.T) / 2.0)(
                np.array([[-18.0 / 7.0, 9.0, 0.0], [1.0, -1.0, 1.0], [0.0, -100.0 / 7.0, 0.0]])
            )
        )
        assert eta == pytest.approx(10.0 - max(abs(outer[0]), abs(outer[-1])), abs=1e-12)

    def test_linear_decay_exact_sanity_path(self):
        dyn = make_dynamics("linear_decay", dim=3, params={"rate": 1.0})
        assert certified_quad_margin(dyn, np.ones(3), np.zeros(3)) == pytest.approx(
            1.0, abs=1e-12
        )
        p, delta = np.array([1.0, 0.37, 2.5]), np.array([3.0, -11.0, 0.5])
        assert certified_quad_margin(dyn, p, delta) == quad_margin_affine(p, delta, -np.eye(3))
        assert quad_margin_affine(np.ones(3), np.zeros(3), -np.eye(3)) == 1.0

    def test_no_certificate_without_damping(self):
        # chaotic field is not globally stable: Delta = 0 yields no margin
        eta = certified_quad_margin(make_dynamics("chua"), np.ones(3), np.zeros(3))
        assert eta <= 0.0
        # sampling agrees: negative quotients exist in the middle region
        cert = QuadCertificate(p=np.ones(3), delta=np.zeros(3), eta=1e-9)
        verdict = quad_check_sampled(
            make_dynamics("chua"), cert, (-0.9, 0.9), 20_000, seed=5
        )
        assert not verdict.holds
        assert verdict.detail["min_quotient"] < 0.0

    def test_unknown_dynamics_rejected(self):
        dyn = _register_probe()
        with pytest.raises(ValueError, match="quad_check_sampled"):
            certified_quad_margin(dyn, np.ones(1), np.zeros(1))

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            certified_quad_margin(make_dynamics("chua"), np.array([1.0, -1.0, 1.0]), np.zeros(3))

    def test_rejects_diagonals_of_another_dimension(self):
        with pytest.raises(ValueError, match=r"^delta must have shape \(3,\), got \(2,\)$"):
            certified_quad_margin(make_dynamics("chua"), [1.0, 1.0], [1.0, 1.0])


def _regional_bound(p, delta, k, l):
    """min_k p_k Delta_k - max over the circuit's regions of
    ||sym(P J)||_2, one ``sym_eigen`` per region of
    :func:`chua_region_jacobian`."""
    norms = []
    for region in ("left", "middle", "right"):
        pj = p[:, None] * chua_region_jacobian(region, k, l)
        ev = sym_eigen((pj + pj.T) / 2.0)
        norms.append(float(max(abs(ev[0]), abs(ev[-1]))))
    return float(np.min(p * delta) - max(norms))


def _register_probe():
    from pinnet import register_dynamics

    register_dynamics("test_probe", lambda dim, params: lambda x, t: 0.0 * x)
    return make_dynamics("test_probe", dim=1)


class TestQuadCheckSampled:
    def test_rejects_a_certificate_of_another_dimension(self):
        cert = QuadCertificate(p=[1.0, 1.0], delta=[10.0, 10.0], eta=0.5)
        with pytest.raises(ValueError, match="^certificate dimension 2 != dynamics dim 3$"):
            quad_check_sampled(make_dynamics("chua"), cert, (-1.0, 1.0), 10)

    def test_reference_certificate_not_falsified(self):
        eta = certified_quad_margin(make_dynamics("chua"), np.ones(3), 10.0 * np.ones(3))
        cert = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=eta - 1e-6)
        verdict = quad_check_sampled(make_dynamics("chua"), cert, (-30.0, 30.0), 100_000, seed=2024)
        assert verdict.holds
        assert verdict.detail["min_quotient"] >= eta - 1e-6

    def test_overclaimed_margin_falsified_in_middle_region(self):
        # the true worst-case quotient is 10 - lambda_max(sym J_middle)
        # ~= 1.8925, approached densely for pairs inside |x1| <= 1; a claim
        # of 2.0 must be refuted there
        cert = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=2.0)
        verdict = quad_check_sampled(make_dynamics("chua"), cert, (-0.9, 0.9), 100_000, seed=777)
        assert not verdict.holds
        x, y = verdict.detail["minimizing_pair"]
        d = x - y
        quot = float(
            -(d @ (make_dynamics("chua")(x) - make_dynamics("chua")(y) - 10.0 * d))
            / (d @ d)
        )
        assert quot == pytest.approx(verdict.detail["min_quotient"], rel=1e-12)
        assert verdict.detail["min_quotient"] == pytest.approx(1.8925, abs=5e-3)

    def test_seeded_reproducibility(self):
        cert = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=0.6218)
        a = quad_check_sampled(make_dynamics("chua"), cert, (-30.0, 30.0), 10_000, seed=9)
        b = quad_check_sampled(make_dynamics("chua"), cert, (-30.0, 30.0), 10_000, seed=9)
        assert a.detail["min_quotient"] == b.detail["min_quotient"]

    def test_degenerate_box_rejected(self):
        cert = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=0.5)
        with pytest.raises(ValueError, match="degenerate"):
            quad_check_sampled(make_dynamics("chua"), cert, (1.0, 1.0), 10)

    def test_needs_positive_samples(self):
        with pytest.raises(ValueError):
            quad_check_sampled(make_dynamics("chua"), CERT_10, (-1.0, 1.0), 0)

    @pytest.mark.parametrize("samples, seed, name", [
        (2.7, 0, "samples"), (True, 0, "samples"), (float("nan"), 0, "samples"),
        ("5", 0, "samples"), (10, -1, "seed"), (10, 1.5, "seed"),
    ])
    def test_samples_and_seed_must_be_whole(self, samples, seed, name):
        # int() would truncate 2.7 to 2 samples, and numpy rejects a bad seed
        # without naming the argument
        with pytest.raises(ValueError, match=f"^{name} must be a whole number"):
            quad_check_sampled(make_dynamics("chua"), CERT_10, (-1.0, 1.0), samples, seed=seed)

    def test_whole_float_samples_accepted(self):
        got = quad_check_sampled(make_dynamics("chua"), CERT_10, (-1.0, 1.0), 1e4, seed=np.int64(2))
        want = quad_check_sampled(make_dynamics("chua"), CERT_10, (-1.0, 1.0), 10_000, seed=2)
        assert got.detail["samples"] == 10_000 and got.detail["seed"] == 2
        assert got.detail["min_quotient"] == want.detail["min_quotient"]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("box", ["cube", "coarse"])
    def test_more_samples_never_raise_the_minimum(self, box, seed):
        # pair i of a seed does not depend on samples, so asking for one more
        # pair can only lower the minimum: across a block edge and near 20,000
        for counts in (range(8190, 8196), range(19_995, 20_006)):
            minima = [
                quad_check_sampled(
                    make_dynamics("chua"), CERT_10, QUAD_BOXES[box], k, seed=seed
                ).detail["min_quotient"]
                for k in counts
            ]
            assert minima == sorted(minima, reverse=True), (counts, minima)

    @pytest.mark.parametrize("samples", [1, 7, 8191, 8192, 8193, 200_001, 450_000])
    @pytest.mark.parametrize("box", ["cube", "hull", "coarse"])
    def test_matches_the_whole_chunk_reference(self, samples, box):
        # same draws, same redraws, same quotient arithmetic: every result
        # bit for bit, across block and chunk edges, with non-uniform P and
        # Delta
        box = QUAD_BOXES[box]
        for seed in (0, 7):
            for cert in (CERT_10, CERT_SKEWED):
                got = quad_check_sampled(make_dynamics("chua"), cert, box, samples, seed=seed)
                _assert_same_falsifier(got, quad_check_sampled_reference(
                    make_dynamics("chua"), cert, box, samples, seed=seed
                ))

    @pytest.mark.parametrize("dim", [1, 2, 5, 7])
    @pytest.mark.parametrize("rate", [1.0, 0.0])
    def test_matches_the_reference_in_other_dimensions(self, dim, rate):
        # rate 0 with Delta = 0 makes every product a signed zero: the
        # quotient's zero sign must follow numpy's sum too
        dyn = make_dynamics("linear_decay", dim=dim, params={"rate": rate})
        rng = np.random.default_rng(dim)
        delta = rng.uniform(-1.0, 3.0, dim) if rate else np.zeros(dim)
        cert = QuadCertificate(p=rng.uniform(0.5, 2.0, dim), delta=delta, eta=0.3)
        got = quad_check_sampled(dyn, cert, (-2.0, 3.0), 20_000, seed=3)
        _assert_same_falsifier(
            got, quad_check_sampled_reference(dyn, cert, (-2.0, 3.0), 20_000, seed=3)
        )

    @staticmethod
    def _traced_peak(samples):
        tracemalloc.start()
        try:
            quad_check_sampled(make_dynamics("chua"), CERT_10, (-30.0, 30.0), samples, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_stays_bounded(self):
        # the whole-chunk form peaks at about 31 MiB on this check, and two
        # chunk-sized draw buffers at about 10.7 MiB
        assert self._traced_peak(1_000_000) < 4 * 2**20

    def test_memory_does_not_grow_with_samples(self):
        # the first call in a process also allocates numpy's lazy state
        self._traced_peak(10)
        assert self._traced_peak(1_000_000) <= self._traced_peak(100_000) + 256 * 2**10

    def test_narrow_box_rejected_before_drawing(self):
        # every |x-y|^2 would underflow to 0 and the redraw loop never end
        cert = QuadCertificate(p=np.ones(1), delta=np.ones(1), eta=0.5)
        with pytest.raises(ValueError, match="sampling box"):
            quad_check_sampled(make_dynamics("linear_decay", dim=1), cert, (0.0, 1e-200), 10)

    def test_huge_box_rejected_before_drawing(self):
        # |x-y|^2 overflows: every quotient would be NaN
        cert = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=100.0)
        with pytest.raises(ValueError, match="sampling box"):
            quad_check_sampled(make_dynamics("chua"), cert, (-1e160, 1e160), 10)

    def test_non_finite_quotient_fails_loudly(self):
        # the squared widths are finite here but the decrease overflows;
        # the whole-chunk form skipped NaN and passed eta = 100, which a
        # (-30, 30) box refutes
        cert = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=100.0)
        assert not quad_check_sampled(make_dynamics("chua"), cert, (-30.0, 30.0), 1000).holds
        # the error arrives alone: numpy's overflow warnings would be errors here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                quad_check_sampled(make_dynamics("chua"), cert, (-2.5e153, 2.5e153), 1000)

    def test_single_nan_names_its_pair(self):
        # a field that breaks the contract on part of the box: the first NaN
        # is reported instead of hiding the block's real minimum
        dyn = Dynamics(
            kind="nan_probe", dim=1, params={},
            field_fn=lambda x, t: np.where(x > 0.5, np.nan, -x),
        )
        cert = QuadCertificate(p=np.ones(1), delta=np.zeros(1), eta=0.5)
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=(2, 100, 1))
        first = int(np.flatnonzero((x[0] > 0.5) | (x[1] > 0.5))[0])
        with pytest.raises(ValueError, match=f"non-finite QUAD quotient at sample {first}:"):
            quad_check_sampled(dyn, cert, (-1.0, 1.0), 100, seed=4)


def _chua_system(pin):
    return NetworkSystem(
        coupling=SYM_3NODE,
        dynamics=make_dynamics("chua"),
        gfun=CouplingFunction("identity"),
        pin=pin,
    )


class TestTheorem1:
    # lambda_max of the symmetrized regional Jacobians, frozen from the
    # characteristic-polynomial oracle below
    MU_MIDDLE = 8.107516193958926
    MU_OUTER = 7.434270028889045

    def test_regional_mu_against_oracle(self):
        for region, expected in [("middle", self.MU_MIDDLE), ("right", self.MU_OUTER)]:
            from pinnet import chua_region_jacobian

            jac = chua_region_jacobian(region)
            sym = (jac + jac.T) / 2.0
            assert charpoly_eigenvalues(sym)[0] == pytest.approx(expected, abs=1e-9)

    def test_builtin_pinned_scenario_holds(self):
        verdict = theorem1_margin(_chua_system(PinPlan(1, 4.9, 10.0)), LAMBDA1_SYM)
        assert verdict.holds
        assert verdict.margin == pytest.approx(
            self.MU_MIDDLE + 10.0 * LAMBDA1_SYM, abs=1e-9
        )

    def test_vanishing_strength_fails(self):
        verdict = theorem1_margin(_chua_system(PinPlan(1, 4.9, 1e-12)), LAMBDA1_SYM)
        assert not verdict.holds
        assert verdict.margin == pytest.approx(self.MU_MIDDLE, abs=1e-9)

    def test_monotone_in_c(self):
        huge = theorem1_margin(_chua_system(PinPlan(1, 4.9, 1e6)), LAMBDA1_SYM)
        assert huge.holds
        assert huge.margin < -1e5

    def test_mu_by_piece(self):
        verdict = theorem1_margin(_chua_system(PinPlan(1, 4.9, 10.0)), LAMBDA1_SYM)
        np.testing.assert_allclose(
            verdict.detail["mu_by_piece"], [self.MU_OUTER, self.MU_MIDDLE, self.MU_OUTER],
            rtol=0.0, atol=1e-9,
        )

    def test_seeded_grid_matches_the_regional_jacobians(self):
        # mu over the declared pieces, one batched eigvalsh, is mu over the
        # circuit's regions, one sym_eigen each, bit for bit
        rng = np.random.default_rng(19)
        for _ in range(300):
            k, l = rng.uniform(0.5, 20.0), rng.uniform(1.0, 30.0)
            pin = PinPlan(1, 4.9, float(rng.uniform(0.1, 20.0)))
            sys_ = NetworkSystem(
                coupling=SYM_3NODE, dynamics=make_dynamics("chua", params={"k": k, "l": l}),
                pin=pin,
            )
            mus = tuple(
                float(sym_eigen((j + j.T) / 2.0)[0])
                for j in (chua_region_jacobian(r, k, l) for r in ("left", "middle", "right"))
            )
            verdict = theorem1_margin(sys_, LAMBDA1_SYM)
            assert verdict.detail["mu_by_piece"] == mus
            assert verdict.margin == max(mus) + pin.c * LAMBDA1_SYM

    def test_linear_decay_reads_its_one_piece(self):
        # mu = -rate everywhere, so the margin is -rate + c lambda1
        sys_ = NetworkSystem(
            coupling=SYM_3NODE,
            dynamics=make_dynamics("linear_decay", dim=3, params={"rate": 2.5}),
            pin=PinPlan(1, 1.0, 0.5),
        )
        verdict = theorem1_margin(sys_, -1.0)
        assert verdict.holds
        assert verdict.margin == -2.5 + 0.5 * -1.0
        assert verdict.detail["mu_by_piece"] == (-2.5,)

    def test_other_dynamics_unsupported(self):
        # a registered field declares no affine pieces, so theorem 1 cannot read mu
        sys_ = NetworkSystem(
            coupling=validate_coupling([[0.0]]), dynamics=_register_probe(),
            pin=PinPlan(1, 1.0, 1.0),
        )
        with pytest.raises(ValueError, match="'test_probe' declares none"):
            theorem1_margin(sys_, -1.0)


class TestVerifyCertificate:
    HOLDS = theorem3_check(CERT_10, 10.0, LAMBDA1_SYM, 1.0)

    def test_shipped_certificate_is_verified(self):
        verdict = verify_certificate(self.HOLDS, make_dynamics("chua"), CERT_10)
        assert verdict.holds and verdict.margin == self.HOLDS.margin
        assert verdict.detail["certificate"] is None
        assert verdict.detail["certified_margin"] == 0.621826504640163
        assert verdict.detail["binding_k"] == self.HOLDS.detail["binding_k"]

    @pytest.mark.parametrize("delta, eta", [(0.1, 5.0), (10.0, 0.7)])
    def test_overclaimed_eta_fails_with_its_margin_kept(self, delta, eta):
        cert = QuadCertificate(p=np.ones(3), delta=delta * np.ones(3), eta=eta)
        theorem = theorem3_check(cert, 10.0, LAMBDA1_SYM, 1.0)
        assert theorem.holds
        verdict = verify_certificate(theorem, make_dynamics("chua"), cert)
        certified = certified_quad_margin(make_dynamics("chua"), np.ones(3), delta * np.ones(3))
        assert not verdict.holds and verdict.margin == theorem.margin
        assert verdict.detail["certified_margin"] == certified
        assert verdict.detail["certificate"] == (
            f"eta {eta:g} exceeds the certified margin {certified:g}"
        )

    def test_eta_equal_to_the_certified_margin_is_verified(self):
        certified = certified_quad_margin(make_dynamics("chua"), np.ones(3), 10.0 * np.ones(3))
        cert = QuadCertificate(p=np.ones(3), delta=10.0 * np.ones(3), eta=certified)
        assert verify_certificate(self.HOLDS, make_dynamics("chua"), cert).holds

    def test_failing_theorem_stays_failed(self):
        theorem = theorem3_check(CERT_10, 1.0, LAMBDA1_SYM, 1.0)
        assert not verify_certificate(theorem, make_dynamics("chua"), CERT_10).holds

    def test_registered_field_is_unverified(self):
        cert = QuadCertificate(p=np.ones(1), delta=np.ones(1), eta=0.5)
        theorem = theorem3_check(cert, 10.0, LAMBDA1_SYM, 1.0)
        verdict = verify_certificate(theorem, _register_probe(), cert)
        assert not verdict.holds
        assert verdict.detail["certified_margin"] is None
        assert verdict.detail["certificate"] == (
            "unverified (dynamics 'test_probe' declares no affine pieces)"
        )


class TestTheorem2:
    def test_reference_margin(self):
        verdict = theorem3_check(CERT_10, 10.0, LAMBDA1_SYM, 1.0)
        assert verdict.holds
        assert verdict.margin == pytest.approx(-0.111446, abs=1e-6)

    def test_weak_coupling_fails(self):
        verdict = theorem3_check(CERT_10, 1.0, -1.011, 1.0)
        assert not verdict.holds
        assert verdict.margin == pytest.approx(8.989, abs=1e-12)

    def test_no_expansion_always_holds(self):
        cert = QuadCertificate(p=np.ones(3), delta=np.zeros(3), eta=1.0)
        assert theorem3_check(cert, 0.5, -0.1, 1.0).holds

    def test_zero_margin_fails(self):
        cert = QuadCertificate(p=np.ones(1), delta=np.ones(1), eta=1.0)
        verdict = theorem3_check(cert, 1.0, -1.0, 1.0)
        assert verdict.margin == 0.0
        assert not verdict.holds

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        cert = QuadCertificate(
            p=1.0 - rng.random(n), delta=rng.normal(size=n) * 10.0, eta=1.0
        )
        lam = -float(rng.uniform(0.1, 5.0))
        c = float(rng.uniform(0.1, 50.0))
        base = theorem3_check(cert, c, lam, 1.0).margin
        # strictly decreasing in c
        assert theorem3_check(cert, c * 1.5, lam, 1.0).margin < base
        # raising any component above the current max strictly increases
        bumped = cert.delta.copy()
        bumped[int(rng.integers(0, n))] = np.max(cert.delta) + 1.0
        cert2 = QuadCertificate(p=cert.p, delta=bumped, eta=1.0)
        assert theorem3_check(cert2, c, lam, 1.0).margin > base

    def test_binding_component_reported(self):
        cert = QuadCertificate(p=np.ones(3), delta=np.array([1.0, 5.0, 3.0]), eta=1.0)
        verdict = theorem3_check(cert, 1.0, -1.0, 1.0)
        assert verdict.detail["binding_k"] == 2


class TestTheorem3:
    def test_alpha_one_is_theorem2_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            cert = QuadCertificate(
                p=1.0 - rng.random(n), delta=rng.normal(size=n) * 5.0, eta=1.0
            )
            c = float(rng.uniform(0.01, 100.0))
            lam = float(rng.normal()) or -1.0
            t2 = theorem3_check(cert, c, lam, 1.0)
            t3 = theorem3_check(cert, c, lam, alpha=1.0)
            assert t3.margin == t2.margin
            assert t3.holds == t2.holds

    def test_halved_slope_doubles_required_strength(self):
        c_full = min_coupling_strength(CERT_10, _spectrum(LAMBDA1_SYM), alpha=1.0)
        c_half = min_coupling_strength(CERT_10, _spectrum(LAMBDA1_SYM), alpha=0.5)
        assert c_half == pytest.approx(2.0 * c_full, rel=1e-12)
        assert c_half == pytest.approx(19.78, abs=5e-3)

    def test_halved_slope_failure_arithmetic(self):
        verdict = theorem3_check(CERT_10, 10.0, -1.011, alpha=0.5)
        assert not verdict.holds
        assert verdict.margin == pytest.approx(4.945, abs=1e-12)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            theorem3_check(CERT_10, 1.0, -1.0, alpha=0.0)
        with pytest.raises(ValueError, match="xi_max"):
            theorem3_check(CERT_10, 1.0, -1.0, alpha=1.0, xi_max=0.0)

    def test_xi_max_scales_the_certificate_term(self):
        # max_k Delta_k xi_max + alpha c lambda1: 10 * 0.5 + 0.5 * 4 * (-2) = 1
        verdict = theorem3_check(CERT_10, 4.0, -2.0, alpha=0.5, xi_max=0.5)
        assert verdict.margin == 1.0 and not verdict.holds
        assert verdict.detail["xi_max"] == 0.5
        spectrum = _spectrum(-2.0, xi=np.array([0.5, 0.25, 0.25]))
        c_star = min_coupling_strength(CERT_10, spectrum, alpha=0.5)
        assert theorem3_check(CERT_10, c_star, -2.0, 0.5, 0.5).margin == pytest.approx(
            0.0, abs=1e-12
        )


class TestTheorem4:
    def test_reference_values(self):
        verdict, report = theorem4_check(ASYM_3NODE, PinPlan(1, 2.0, 72.0), CERT_10)
        assert report.lambda1 == pytest.approx(MU1_ASYM, abs=1e-12)
        assert report.lambda1 == pytest.approx(-0.0718, abs=1e-3)
        np.testing.assert_allclose(report.xi, [1 / 6, 2 / 6, 3 / 6], atol=1e-10)
        assert report.xi_max == pytest.approx(0.5, abs=1e-10)
        assert verdict.holds
        assert verdict.margin == pytest.approx(-0.169, abs=5e-3)

    def test_mu1_against_charpoly_oracle(self):
        from pinnet import left_null_vector, symmetrize_weighted

        xi = left_null_vector(ASYM_3NODE)
        weighted = symmetrize_weighted(
            pinned_matrix(ASYM_3NODE, PinPlan(1, 2.0, 72.0)), xi
        )
        assert charpoly_eigenvalues(weighted)[0] == pytest.approx(MU1_ASYM, abs=1e-9)

    def test_symmetric_input_matches_theorem2_scaled(self):
        # uniform xi = 1/m turns the weighted form into A~/m
        pin = PinPlan(1, 4.9, 10.0)
        verdict4, report = theorem4_check(SYM_3NODE, pin, CERT_10)
        verdict2 = theorem3_check(CERT_10, pin.c, LAMBDA1_SYM, 1.0)
        m = SYM_3NODE.m
        assert report.lambda1 == pytest.approx(LAMBDA1_SYM / m, rel=1e-9)
        assert verdict4.margin * m == pytest.approx(verdict2.margin, rel=1e-9)
        assert verdict4.holds == verdict2.holds

    def test_is_theorem3_on_the_weighted_spectrum(self):
        pin = PinPlan(1, 2.0, 72.0)
        for alpha in (1.0, 0.5):
            verdict, report = theorem4_check(ASYM_3NODE, pin, CERT_10, alpha)
            same = theorem3_check(CERT_10, pin.c, report.lambda1, alpha, report.xi_max)
            assert verdict.margin == same.margin and verdict.holds == same.holds
        # halving the slope bound halves the coupling term: 10 * 0.5 + 36 mu1
        assert not verdict.holds
        assert verdict.margin == pytest.approx(5.0 + 36.0 * MU1_ASYM, abs=1e-9)
        assert verdict.margin == pytest.approx(2.42, abs=5e-3)

    def test_reducible_rejected(self):
        with pytest.raises(ReducibilityError) as err:
            theorem4_check(TWO_BLOCK, PinPlan(1, 1.0, 1.0), CERT_10)
        assert err.value.condensation.blocks == ((1, 2), (3,))

    def test_weighted_spectrum_rejects_two_roots(self):
        # the positive xi gets past symmetrize_weighted; only the
        # irreducibility gate catches this input
        with pytest.raises(ReducibilityError, match="weighted_spectrum needs an irreducible") as err:
            weighted_spectrum(TWO_ROOTS, PinPlan(1, 1.0, 1.0))
        assert err.value.condensation.blocks == ((3, 4), (1, 2))

    def test_weighted_spectrum_validates_raw_input(self):
        with pytest.raises(ValueError, match=r"off-diagonal entry \(1,2\) is negative"):
            weighted_spectrum([[1.0, -1.0], [-1.0, 1.0]], PinPlan(1, 1.0, 1.0))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_irreducible_weighted_form_negative(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        a = random_coupling_matrix(rng, m, symmetric=False)
        eps = float(rng.uniform(0.1, 5.0))
        _, report = theorem4_check(a, PinPlan(1, eps, 1.0), _cert_10(3))
        assert report.lambda1 < 0.0


class TestMinCouplingStrength:
    def test_closed_form_matches_bisection_oracle(self):
        c_star = min_coupling_strength(CERT_10, _spectrum(LAMBDA1_SYM))
        assert c_star == pytest.approx(9.891, abs=1e-2)
        oracle = bisect_min_c(
            lambda c: theorem3_check(CERT_10, c, LAMBDA1_SYM, 1.0).margin, 0.0, 100.0
        )
        assert c_star == pytest.approx(oracle, rel=1e-8)

    def test_zero_for_nonpositive_delta(self):
        cert = QuadCertificate(p=np.ones(2), delta=np.array([0.0, -3.0]), eta=1.0)
        assert min_coupling_strength(cert, _spectrum(-1.0)) == 0.0

    def test_theorem4_inputs_near_shipped_strength(self):
        c_star = min_coupling_strength(
            CERT_10, weighted_spectrum(ASYM_3NODE, PinPlan(1, 2.0, 72.0))
        )
        assert c_star == pytest.approx(69.64, abs=5e-3)
        assert c_star < 72.0

    def test_nonnegative_lambda1_rejected(self):
        with pytest.raises(ValueError, match="not negative"):
            min_coupling_strength(CERT_10, _spectrum(0.0))
        with pytest.raises(ValueError):
            min_coupling_strength(CERT_10, _spectrum(1e-14))

    def test_exists_exactly_when_the_negativity_verdict_holds(self):
        # -3e-11 is within roundoff of 0 next to eigenvalues of magnitude 15:
        # not negative, so no finite strength is claimed
        report = SpectralReport(eigenvalues=np.array([-3e-11, -10.0, -15.0]))
        assert not spectral_negativity(report).holds
        with pytest.raises(ValueError, match="not negative"):
            min_coupling_strength(CERT_10, report)
        shifted = SpectralReport(eigenvalues=np.array([-1e-6, -10.0, -15.0]))
        assert spectral_negativity(shifted).holds
        assert min_coupling_strength(CERT_10, shifted) == pytest.approx(1e7, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_threshold_sharp(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        delta = rng.normal(size=n) * 5.0
        delta[int(rng.integers(0, n))] = abs(rng.normal()) + 0.5  # force max > 0
        cert = QuadCertificate(p=1.0 - rng.random(n), delta=delta, eta=1.0)
        lam = -float(rng.uniform(0.05, 5.0))
        alpha = float(rng.uniform(0.2, 2.0))
        c_star = min_coupling_strength(cert, _spectrum(lam), alpha=alpha)
        assert not theorem3_check(cert, c_star * (1 - 1e-3), lam, alpha).holds
        assert theorem3_check(cert, c_star * (1 + 1e-3), lam, alpha).holds


class TestReduciblePinnability:
    def test_irreducible_any_pin(self):
        for node in (1, 2, 3):
            cond = scc_condensation(ASYM_3NODE)
            verdict = reducible_pinnability(cond, node)
            assert verdict.holds
            assert cond.irreducible

    def test_two_block_root_pin_holds(self):
        cond = scc_condensation(TWO_BLOCK)
        verdict = reducible_pinnability(cond, 1)
        assert verdict.holds
        assert cond.blocks == ((1, 2), (3,))
        assert verdict.detail["pin_block"] == 1

    def test_two_block_slave_pin_fails(self):
        verdict = reducible_pinnability(scc_condensation(TWO_BLOCK), 3)
        assert not verdict.holds
        assert any("not a root" in p for p in verdict.detail["problems"])

    def test_two_roots_fail(self):
        # two disconnected pairs: no single controller can reach both
        a = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [1.0, -1.0, 0.0, 0.0],
                [0.0, 0.0, -1.0, 1.0],
                [0.0, 0.0, 1.0, -1.0],
            ]
        )
        verdict = reducible_pinnability(scc_condensation(a), 1)
        assert not verdict.holds
        assert verdict.detail["problems"] == ["2 root blocks, need exactly 1"]

    def test_second_root_is_one_defect(self):
        # node 1 sits in a root block; the only defect is the other root
        verdict = reducible_pinnability(scc_condensation(TWO_ROOTS), 1)
        assert not verdict.holds
        assert verdict.margin == 1.0
        assert verdict.detail["root_blocks"] == [1, 2]
        assert "unfed_blocks" not in verdict.detail

    def test_bad_pin_node(self):
        with pytest.raises(ValueError):
            reducible_pinnability(scc_condensation(TWO_BLOCK), 0)


class TestRandomCouplingMatrix:
    def test_reproducible(self):
        a = random_coupling_matrix(np.random.default_rng(123), 6, symmetric=False)
        b = random_coupling_matrix(np.random.default_rng(123), 6, symmetric=False)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_symmetric_flag(self):
        a = random_coupling_matrix(np.random.default_rng(1), 5, symmetric=True)
        assert a.symmetric
        b = random_coupling_matrix(np.random.default_rng(1), 5, symmetric=False)
        assert not b.symmetric

    def test_irreducible_when_required(self):
        from pinnet import scc_condensation

        for seed in range(20):
            a = random_coupling_matrix(np.random.default_rng(seed), 4, symmetric=False)
            assert scc_condensation(a).irreducible

    def test_single_node(self):
        a = random_coupling_matrix(np.random.default_rng(0), 1)
        np.testing.assert_array_equal(a.entries, [[0.0]])

    def test_no_strongly_connected_draw(self):
        with pytest.raises(RuntimeError, match=r"^no strongly connected draw in 500 tries \(m=3"):
            random_coupling_matrix(np.random.default_rng(0), 3, edge_prob=0.0)


def _rescaled_report(name: str, s: float):
    """check_scenario on a built-in with (A, epsilon, c) -> (sA, s epsilon, c/s)."""
    data = copy.deepcopy(BUILTIN_SCENARIOS[name])
    data["coupling"] = (s * np.array(COUPLING_MATRICES[data["coupling"]])).tolist()
    data["pin"]["epsilon"] *= s
    data["pin"]["c"] /= s
    return check_scenario(parse_scenario(data))


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_conditions_are_unit_free(name):
    """Every condition reads the spectrum of c (A - epsilon e_p e_p^T) only, so
    rescaling the coupling by s = 2^k moves no route or verdict, leaves the
    theorem margins and xi as they are, and scales the pinned spectrum by s
    and c* by 1/s. A margin that is a roundoff zero at s = 1 (the unpinned
    lambda1 of fig2) must stay within its tolerance."""
    base = _rescaled_report(name, 1.0)
    for k in range(-500, 501, 50):
        s = 2.0**k
        got = _rescaled_report(name, s)
        assert got.route == base.route, k
        for field, unit in (("proposition1", s), ("theorem", 1.0), ("reducibility", 1.0)):
            b, g = getattr(base, field), getattr(got, field)
            assert (b is None) == (g is None), (k, field)
            if b is None:
                continue
            assert g.holds == b.holds, (k, field)
            tolerance = b.detail.get("tolerance", 0.0)
            if abs(b.margin) <= tolerance:
                assert abs(g.margin / unit) <= tolerance, (k, field)
            else:
                assert g.margin / unit == pytest.approx(b.margin, rel=1e-12, abs=0), (k, field)
        assert (base.min_c is None) == (got.min_c is None), k
        if base.min_c is not None:
            assert got.min_c * s == pytest.approx(base.min_c, rel=1e-12, abs=0), k
        b_xi = None if base.spectral is None else base.spectral.xi
        g_xi = None if got.spectral is None else got.spectral.xi
        assert (b_xi is None) == (g_xi is None), k
        if b_xi is not None:
            np.testing.assert_allclose(g_xi, b_xi, rtol=1e-12, atol=0, err_msg=str(k))
