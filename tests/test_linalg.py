import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import (
    SymmetryError,
    left_null_vector,
    scc_condensation,
    sym_eigen,
    symmetrize_weighted,
)
from pinnet.conditions import random_coupling_matrix
from pinnet.linalg import norm_sum, ordered_sum

from _oracles import charpoly_eigenvalues, pairwise_quadratic_form, svd_left_null_vector

SYM_PINNED_3NODE = np.array([[-10.0, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]])
ASYM_3NODE = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])


class TestSymEigen:
    def test_single_entry(self):
        np.testing.assert_allclose(sym_eigen(np.array([[-1.0]])), [-1.0])

    def test_two_by_two_quadratic_formula(self):
        # char poly of [[-2,1],[1,-1]] is x^2 + 3x + 1, roots (-3 +- sqrt5)/2
        values = sym_eigen(np.array([[-2.0, 1.0], [1.0, -1.0]]))
        expected = np.array([(-3.0 + np.sqrt(5.0)) / 2.0, (-3.0 - np.sqrt(5.0)) / 2.0])
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_builtin_pinned_matrix_against_charpoly_oracle(self):
        values = sym_eigen(SYM_PINNED_3NODE)
        oracle = charpoly_eigenvalues(SYM_PINNED_3NODE)
        np.testing.assert_allclose(values, oracle, atol=1e-9)
        assert values[0] == pytest.approx(-1.011, abs=2e-3)

    def test_sorted_descending(self):
        assert np.all(np.diff(sym_eigen(SYM_PINNED_3NODE)) <= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            sym_eigen(ASYM_3NODE)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            sym_eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            sym_eigen(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^matrix must have at least one row$"):
            sym_eigen(np.zeros((0, 0)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_invariants_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 101))
        b = rng.normal(size=(n, n))
        a = (b + b.T) / 2.0
        values = sym_eigen(a)
        scale = 1.0 + np.max(np.abs(a))
        # the values of LAPACK's other symmetric driver, the one with vectors
        assert np.max(np.abs(values - np.linalg.eigh(a)[0][::-1])) <= 1e-9 * scale
        # trace and Frobenius norm
        assert abs(values.sum() - np.trace(a)) <= 1e-9 * n * scale
        assert abs((values**2).sum() - (a**2).sum()) <= 1e-9 * n * scale**2
        assert np.all(np.diff(values) <= 0)

    @pytest.mark.parametrize("m", [3, 10, 30, 100])
    def test_degenerate_star_laplacian(self, m):
        # the star's coupling matrix has eigenvalues 0, -1 (multiplicity
        # m - 2) and -m
        a = np.zeros((m, m))
        a[0, 1:] = a[1:, 0] = 1.0
        np.fill_diagonal(a, -a.sum(axis=1))
        values = sym_eigen(a)
        expected = np.array([0.0] + [-1.0] * (m - 2) + [-float(m)])
        np.testing.assert_allclose(values, expected, atol=1e-12 * m)
        assert np.all(np.diff(values) <= 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_zero_row_sum_spectrum(self, seed):
        # symmetric coupling matrices carry eigenvalue 0 on the ones vector;
        # everything else is nonpositive by diagonal dominance
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        a = random_coupling_matrix(rng, m, symmetric=True).entries
        values = sym_eigen(a)
        scale = 1.0 + np.max(np.abs(a))
        k = int(np.argmin(np.abs(values)))
        assert abs(values[k]) <= 1e-9 * scale
        others = np.delete(values, k)
        assert np.all(others <= 1e-9 * scale)


class TestLeftNullVector:
    def test_symmetric_two_node_uniform(self):
        xi = left_null_vector(np.array([[-1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(xi, [0.5, 0.5], atol=1e-12)

    def test_builtin_asymmetric_matrix(self):
        xi = left_null_vector(ASYM_3NODE)
        np.testing.assert_allclose(xi, [1 / 6, 2 / 6, 3 / 6], atol=1e-10)

    def test_directed_three_cycle(self):
        # xi^T A = 0, sum xi = 1 solved by hand: uniform thirds
        a = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]])
        xi = left_null_vector(a)
        np.testing.assert_allclose(xi, [1 / 3, 1 / 3, 1 / 3], atol=1e-10)

    @pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
    def test_scaling_invariance(self, gamma):
        xi = left_null_vector(ASYM_3NODE)
        xi_scaled = left_null_vector(gamma * ASYM_3NODE)
        np.testing.assert_allclose(xi_scaled, xi, atol=1e-10)

    def test_residual_and_positivity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(2, 10))
            a = random_coupling_matrix(rng, m, symmetric=False).entries
            xi = left_null_vector(a)
            assert np.max(np.abs(xi @ a)) <= 1e-10 * np.max(np.abs(a))
            assert xi.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(xi > 0)

    @pytest.mark.parametrize("k", [-500, -50, 0, 50, 500])
    @pytest.mark.parametrize("m", [3, 10, 30, 100])
    def test_matches_svd_oracle_at_any_scale(self, m, k):
        a = 2.0**k * random_coupling_matrix(np.random.default_rng(m), m, symmetric=False).entries
        xi = left_null_vector(a)
        np.testing.assert_allclose(xi, svd_left_null_vector(a), rtol=0, atol=1e-12)

    def test_builtin_asymmetric_matrix_far_below_unit_scale(self):
        xi = left_null_vector(1e-100 * ASYM_3NODE)
        np.testing.assert_allclose(xi, [1 / 6, 2 / 6, 3 / 6], rtol=0, atol=1e-12)

    def test_nonzero_row_sums_rejected(self):
        with pytest.raises(ValueError):
            left_null_vector(np.array([[-1.0, 0.5], [1.0, -1.0]]))


class TestSccCondensation:
    def test_irreducible_single_block(self):
        cond = scc_condensation(ASYM_3NODE)
        assert cond.blocks == ((1, 2, 3),)
        assert cond.block_edges == frozenset()
        assert cond.irreducible

    def test_two_block_example(self):
        # node 3 receives from 1 and 2 but sends nothing back
        a = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
        cond = scc_condensation(a)
        assert cond.blocks == ((1, 2), (3,))
        assert cond.block_edges == frozenset({(2, 1)})

    def test_single_node(self):
        cond = scc_condensation(np.array([[0.0]]))
        assert cond.blocks == ((1,),)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_an_independent_oracle(self, seed):
        # the edge j -> i is a positive off-diagonal a[i, j]; negative and
        # zero entries carry none, and sparse draws give many blocks
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        rng = np.random.default_rng(seed)
        for m in (1, 2, 5, 30, 120, 300):
            density = 10 ** rng.uniform(-3.0, -0.5)
            a = rng.normal(size=(m, m)) * (rng.random((m, m)) < density)
            cond = scc_condensation(a)
            positive = a > 0.0
            np.fill_diagonal(positive, False)
            count, labels = csgraph.connected_components(positive, connection="strong")
            assert len(cond.blocks) == count
            assert sorted(i for block in cond.blocks for i in block) == list(range(1, m + 1))
            for block in cond.blocks:
                assert len({labels[i - 1] for i in block}) == 1
            position = {i: q for q, block in enumerate(cond.blocks, start=1) for i in block}
            brute = {
                (position[i + 1], position[j + 1])
                for i, j in zip(*np.nonzero(positive))
                if position[i + 1] != position[j + 1]
            }
            assert cond.block_edges == brute
            assert all(r > s for r, s in cond.block_edges)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_block_lower_triangular_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        a = random_coupling_matrix(
            rng, m, symmetric=False, edge_prob=0.3, require_irreducible=False
        ).entries
        cond = scc_condensation(a)
        # 0-based node order of the blocks: block lower triangular
        perm = [i - 1 for block in cond.blocks for i in block]
        assert sorted(perm) == list(range(m))
        reordered = a[np.ix_(perm, perm)]
        sizes = [len(b) for b in cond.blocks]
        offsets = np.cumsum([0] + sizes)
        for bi in range(len(sizes)):
            for bj in range(bi + 1, len(sizes)):
                block = reordered[
                    offsets[bi] : offsets[bi + 1], offsets[bj] : offsets[bj + 1]
                ]
                assert not np.any(block > 0.0)
        # every recorded cross-block edge really connects
        for r, s in cond.block_edges:
            assert r > s
            rows = [i - 1 for i in cond.blocks[r - 1]]
            cols = [j - 1 for j in cond.blocks[s - 1]]
            assert np.any(a[np.ix_(rows, cols)] > 0.0)


class TestSymmetrizeWeighted:
    def test_uniform_weights_rescale(self):
        a = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
        out = symmetrize_weighted(a, np.full(3, 1 / 3))
        np.testing.assert_allclose(out, a / 3.0, atol=1e-15)

    def test_pinned_asymmetric_by_hand(self):
        # 3x3 arithmetic with xi = (1/6, 2/6, 3/6) worked out in fractions
        atil = np.array([[-4.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        out = symmetrize_weighted(atil, np.array([1 / 6, 2 / 6, 3 / 6]))
        expected = np.array(
            [
                [-2 / 3, 1 / 4, 1 / 12],
                [1 / 4, -2 / 3, 5 / 12],
                [1 / 12, 5 / 12, -1 / 2],
            ]
        )
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_zero_matrix(self):
        out = symmetrize_weighted(np.zeros((3, 3)), np.array([0.2, 0.3, 0.5]))
        np.testing.assert_allclose(out, np.zeros((3, 3)))

    def test_exactly_symmetric_output(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(5, 5))
        out = symmetrize_weighted(a, 1.0 - rng.random(5))
        assert np.array_equal(out, out.T)

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            symmetrize_weighted(np.zeros((2, 2)), np.array([1.0, 0.0]))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_zero_row_sums_with_perron_weights(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        a = random_coupling_matrix(rng, m, symmetric=False).entries
        xi = left_null_vector(a)
        out = symmetrize_weighted(a, xi)
        assert np.max(np.abs(out.sum(axis=1))) <= 1e-10


class TestQuadraticFormIdentity:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_pair_sum_identity(self, seed):
        # u^T A v = -sum_{j>i} a_ij (u_i - u_j)(v_i - v_j) for symmetric
        # zero-row-sum A; the printed plus-sign variant fails already on
        # A = [[-1,1],[1,-1]], u = v = (1,0)
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 10))
        a = random_coupling_matrix(rng, m, symmetric=True, require_irreducible=False).entries
        u = rng.normal(size=m)
        v = rng.normal(size=m)
        lhs = float(u @ a @ v)
        rhs = pairwise_quadratic_form(a, u, v)
        bound = 1e-9 * np.max(np.abs(a)) * np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(lhs - rhs) <= bound

    def test_sign_counterexample(self):
        # the specific pair that pins down the sign
        a = np.array([[-1.0, 1.0], [1.0, -1.0]])
        u = v = np.array([1.0, 0.0])
        assert float(u @ a @ v) == -1.0
        assert pairwise_quadratic_form(a, u, v) == -1.0


class TestOrderedSum:
    # the terms span 20 decades, so a change of order shows in the bits
    @staticmethod
    def _values(rows, k):
        rng = np.random.default_rng([20261020, k])
        return rng.normal(size=(rows, k)) * 10.0 ** rng.integers(-10, 10, (rows, k))

    def test_innermost_axis_is_numpys_pairwise_order(self):
        # past the 8-term blocks and the halving above 128 terms too
        for k in [*range(1, 40), 127, 128, 129, 136, 300, 1000]:
            a = self._values(5, k)
            got = ordered_sum(np.ascontiguousarray(a.T))
            assert np.array_equal(got.view(np.int64), np.add.reduce(a, axis=1).view(np.int64)), k

    def test_outer_axis_adds_in_turn(self):
        for k in (3, 8, 30, 100):
            a = self._values(k, 4)
            in_turn = a[0] + 0.0
            for row in a[1:]:
                in_turn += row
            got = ordered_sum(a, innermost=False)
            assert np.array_equal(got.view(np.int64), in_turn.view(np.int64)), k
            assert np.array_equal(got.view(np.int64), np.add.reduce(a, axis=0).view(np.int64)), k

    def test_norm_sum_is_the_sum_of_node_norms(self):
        for m, n in ((1, 1), (3, 3), (8, 2), (30, 9), (100, 3)):
            a = self._values(20, m * n).reshape(20, m, n) ** 2
            want = np.sqrt(a.sum(axis=-1)).sum(axis=-1)
            got = norm_sum(a.T)
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (m, n)
