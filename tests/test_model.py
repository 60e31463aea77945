import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import (
    UNCONTROLLED,
    CouplingError,
    CouplingFunction,
    CouplingMatrix,
    Dynamics,
    NetworkSystem,
    PinPlan,
    Trajectory,
    chua_region_jacobian,
    integrate_batch,
    make_dynamics,
    pinned_matrix,
    register_dynamics,
    validate_coupling,
)
from pinnet.model import (
    CHUA_K,
    CHUA_L,
    PiecewiseAffine,
    _COUPLING_FUNCTIONS,
    _chua_eval,
    make_network_rhs,
    network_operator,
)

from _oracles import chua_eval_reference, chua_field_reference, network_rhs_reference

SYM_3NODE = [[-5.1, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]]
ASYM_3NODE = [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]


class TestValidateCoupling:
    def test_builtin_sym_matrix_valid_and_symmetric(self):
        cm = validate_coupling(SYM_3NODE)
        assert cm.m == 3
        assert cm.symmetric
        assert not cm.entries.flags.writeable

    def test_asymmetric_flag(self):
        assert not validate_coupling(ASYM_3NODE).symmetric

    def test_isolated_node(self):
        cm = validate_coupling([[0.0]])
        assert cm.m == 1

    def test_bad_row_sum_names_row(self):
        with pytest.raises(CouplingError, match="row 1"):
            validate_coupling([[-1.0, 0.5], [1.0, -1.0]])

    def test_negative_off_diagonal_names_entry(self):
        with pytest.raises(CouplingError, match=r"\(1,2\)"):
            validate_coupling([[0.5, -0.5], [0.5, -0.5]])

    def test_nonsquare_rejected(self):
        with pytest.raises(CouplingError, match="square"):
            validate_coupling([[0.0, 0.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(CouplingError, match="finite"):
            validate_coupling([[np.inf, 0.0], [0.0, 0.0]])

    def test_the_class_checks_its_entries(self):
        assert validate_coupling is CouplingMatrix
        with pytest.raises(CouplingError, match=r"entry \(1,2\) is negative"):
            CouplingMatrix([[1.0, -1.0], [0.0, 0.0]])

    def test_symmetry_is_derived_not_given(self):
        with pytest.raises(TypeError, match="symmetric"):
            CouplingMatrix(np.array(SYM_3NODE), symmetric=False)
        cm = CouplingMatrix(SYM_3NODE)
        assert cm.symmetric
        assert not dataclasses.replace(cm, entries=ASYM_3NODE).symmetric
        assert dataclasses.replace(cm, entries=ASYM_3NODE).entries.tolist() == ASYM_3NODE

    def test_entries_are_a_read_only_copy(self):
        given = np.array(ASYM_3NODE)
        cm = CouplingMatrix(given)
        given[0] = [5.0, -5.0, 0.0]
        assert cm.entries.tolist() == ASYM_3NODE and not cm.symmetric
        with pytest.raises(ValueError, match="read-only"):
            cm.entries[0, 0] = 0.0

    def test_equal_entries_compare_and_hash_equal(self):
        a, b = CouplingMatrix(SYM_3NODE), CouplingMatrix(np.array(SYM_3NODE))
        assert a == b and hash(a) == hash(b)
        assert a != CouplingMatrix(ASYM_3NODE) and a != SYM_3NODE
        assert CouplingMatrix([[0.0]]) != CouplingMatrix(np.zeros((2, 2)))
        zero, minus_zero = CouplingMatrix([[0.0]]), CouplingMatrix([[-0.0]])
        assert zero == minus_zero and hash(zero) == hash(minus_zero)
        chua = make_dynamics("chua")
        assert NetworkSystem(a, chua) == NetworkSystem(b, chua)
        assert NetworkSystem(a, chua) != NetworkSystem(CouplingMatrix(ASYM_3NODE), chua)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 40),
        st.floats(-3.0, 6.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_sum_tolerance_scales_with_weights(self, seed, m, log_scale):
        # valid matrices at any weight scale pass; a row off by a relative 1e-9
        # of its magnitude fails
        rng = np.random.default_rng(seed)
        a = rng.random((m, m)) * (rng.random((m, m)) < 0.5) * 10.0**log_scale
        np.fill_diagonal(a, 0.0)
        np.fill_diagonal(a, -a.sum(axis=1))
        assert validate_coupling(a).m == m
        i = int(rng.integers(m))
        magnitude = np.abs(a[i]).sum()
        a[i, i] += 1e-9 * max(1.0, magnitude)
        with pytest.raises(CouplingError, match=f"row {i + 1} "):
            validate_coupling(a)


class TestPinPlan:
    def test_zero_gain_allowed(self):
        # epsilon = 0 expresses the coupled-but-uncontrolled baseline
        assert PinPlan(1, 0.0, 10.0).epsilon == 0.0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            PinPlan(1, -0.1, 1.0)

    def test_nonpositive_strength_rejected(self):
        with pytest.raises(ValueError):
            PinPlan(1, 1.0, 0.0)

    def test_zero_node_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            PinPlan(0, 1.0, 1.0)

    @pytest.mark.parametrize("node", [1.5, 2.0, True])
    def test_node_must_be_an_integer(self, node):
        # a fractional node used to fail later in network_operator, and True
        # used to pin node 1
        with pytest.raises(ValueError, match="pin_node must be an integer >= 1"):
            PinPlan(node, 4.9, 10.0)

    def test_numpy_integer_node_is_stored_as_int(self):
        # a numpy integer node used to stay np.int64, which json cannot write
        pin = PinPlan(np.int64(2), 4.9, 10.0)
        assert pin.pin_node == 2 and type(pin.pin_node) is int

    @pytest.mark.parametrize(
        "epsilon, c, message",
        [(10**400, 1.0, "feedback gain epsilon is too large for a float"),
         (1.0, 10**400, "coupling strength c is too large for a float"),
         ("1", 1.0, "feedback gain epsilon must be a number")],
        ids=["huge-epsilon", "huge-c", "string-epsilon"],
    )
    def test_gain_and_strength_are_finite_numbers(self, epsilon, c, message):
        with pytest.raises(ValueError, match=message):
            PinPlan(1, epsilon, c)


class TestPinnedMatrix:
    def test_builtin_symmetric_matrix(self):
        out = pinned_matrix(validate_coupling(SYM_3NODE), PinPlan(1, 4.9, 10.0))
        expected = np.array([[-10.0, 5.0, 0.1], [5.0, -11.0, 6.0], [0.1, 6.0, -6.1]])
        np.testing.assert_array_equal(out, expected)

    def test_builtin_asymmetric_matrix(self):
        out = pinned_matrix(validate_coupling(ASYM_3NODE), PinPlan(1, 2.0, 72.0))
        np.testing.assert_array_equal(
            out, [[-4.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]]
        )

    def test_zero_gain_is_identity(self):
        a = validate_coupling(SYM_3NODE)
        np.testing.assert_array_equal(pinned_matrix(a, PinPlan(2, 0.0, 1.0)), a.entries)

    def test_single_entry_shift_exact(self):
        # bitwise: only the pinned diagonal changes, by exactly a[i,i] - eps
        a = validate_coupling(ASYM_3NODE)
        eps = 2.7
        out = pinned_matrix(a, PinPlan(2, eps, 1.0))
        assert out[1, 1] == a.entries[1, 1] - eps
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        assert np.array_equal(out[mask], a.entries[mask])

    def test_row_sums(self):
        out = pinned_matrix(validate_coupling(SYM_3NODE), PinPlan(3, 1.25, 1.0))
        sums = out.sum(axis=1)
        assert sums[2] == pytest.approx(-1.25, abs=1e-12)
        np.testing.assert_allclose(sums[:2], 0.0, atol=1e-12)

    def test_out_of_range_node(self):
        with pytest.raises(CouplingError):
            pinned_matrix(validate_coupling(SYM_3NODE), PinPlan(4, 1.0, 1.0))


def chua(k=CHUA_K, l=CHUA_L):
    return make_dynamics("chua", params={"k": k, "l": l})


class TestChuaField:
    def test_origin_is_equilibrium(self):
        np.testing.assert_array_equal(chua()(np.zeros(3)), np.zeros(3))

    def test_hand_value_inner_region(self):
        # h(1) = 2/7 - (3/14)(2 - 0) = -1/7, so f = (9/7, 1, 0)
        out = chua(k=9.0, l=100.0 / 7.0)(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [9.0 / 7.0, 1.0, 0.0], atol=1e-15)

    def test_hand_value_outer_region(self):
        # h(2) = 4/7 - (3/14)(3 - 1) = 1/7, first component -9/7
        out = make_dynamics("chua", params={"k": 9.0})(np.array([2.0, 0.0, 0.0]))
        assert out[0] == pytest.approx(-9.0 / 7.0, abs=1e-15)

    def test_continuity_at_kinks_exact(self):
        # at x1 = +-1 the field is its outer piece's affine form to the bit
        # and the middle piece's to two ulps; f1 = -k h(+-1) = +-9/7
        dyn = chua(k=9.0, l=100.0 / 7.0)
        jacobians, offsets = dyn.affine.jacobians, dyn.affine.offsets
        for x1, piece in ((1.0, 2), (-1.0, 0)):
            x = np.array([x1, 0.0, 0.0])
            got = dyn(x)
            np.testing.assert_array_equal(got, jacobians[piece] @ x + offsets[piece])
            np.testing.assert_array_max_ulp(got, jacobians[1] @ x, maxulp=2)
            np.testing.assert_array_max_ulp(got, [x1 * 9.0 / 7.0, x1, 0.0], maxulp=2)

    def test_diode_keeps_the_middle_slope_near_zero(self):
        # |x+1| - |x-1| rounds to 0 here; f1 must still read -k h(x1) = k x1 / 7
        dyn = chua(k=9.0)
        for x in (1e-20, -1e-200, 5e-324):
            got = dyn(np.array([x, 0.0, 0.0]))[0]
            assert got == pytest.approx(9.0 * x / 7.0, rel=1e-15, abs=0.0), x

    def test_field_matches_the_regional_affine_form(self):
        # f(x) = J_region x + offset on each linear region: seeded states in
        # the outer regions, the middle, at x1 = +-1 exactly, and far below
        # |x1| = 1e-8 (scaled as a whole, so x1 is not swamped by x2, x3)
        k, l = 9.0, 100.0 / 7.0
        rng = np.random.default_rng(7)
        groups = []
        for x1 in (
            rng.uniform(-60.0, -1.0, 200),
            rng.uniform(-1.0, 1.0, 200),
            np.where(rng.random(200) < 0.5, -1.0, 1.0),
            rng.uniform(1.0, 60.0, 200),
        ):
            g = rng.uniform(-50.0, 50.0, (200, 3))
            g[:, 0] = x1
            groups.append(g)
        tiny = 10.0 ** rng.uniform(-300.0, -8.0, (200, 1))
        groups.append(rng.uniform(-1.0, 1.0, (200, 3)) * tiny)
        x = np.concatenate(groups)
        outer = np.sign(x[:, 0]) * (np.abs(x[:, 0]) > 1.0)
        jac = np.where(
            (outer == 0.0)[:, None, None],
            chua_region_jacobian("middle", k, l),
            chua_region_jacobian("right", k, l),
        )
        offset = np.zeros_like(x)
        offset[:, 0] = outer * 3.0 * k / 7.0
        expected = np.einsum("bij,bj->bi", jac, x) + offset
        scale = np.einsum("bij,bj->bi", np.abs(jac), np.abs(x)) + np.abs(offset)
        got = chua(k=k, l=l)(x)
        bad = np.argwhere(np.abs(got - expected) > 1e-14 * scale)
        assert not bad.size, f"{len(bad)} mismatches, first at x = {x[bad[0, 0]]}"

    def test_bit_identical_to_the_plain_expression_form(self):
        # 0-d operands and the in-place diode column round as the earlier
        # Python-float expression did: signed zeros, subnormals and the kinks
        tiny = np.nextafter(0.0, 1.0)
        special = [0.0, -0.0, tiny, -tiny, 2.2e-308, -2.2e-308, 1.0, -1.0,
                   np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
                   np.nextafter(-1.0, -2.0), np.nextafter(-1.0, 0.0), 3.7, -1e300]
        grid = np.array(np.meshgrid(special, [0.0, -0.0, tiny, -1.0], [-0.0, tiny, 2.5]))
        x = grid.reshape(3, -1).T.copy()
        for k, l in ((CHUA_K, CHUA_L), (15.6, 28.0)):
            dyn = chua(k=k, l=l)
            for case in (x, x[5], x.reshape(2, -1, 3)):
                want = chua_field_reference(case, k=k, l=l)
                got = dyn(case)
                assert got.shape == case.shape
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize(
        "shape", [(1, 3), (3, 3), (4, 3), (36, 3), (101, 3), (404, 3), (3,), (9, 4, 3)]
    )
    def test_eval_on_rows_matches_the_matmul_form(self, shape):
        # np.dot on (N, 3) rows, other ranks flattened to rows, against x @ jt
        x = np.random.default_rng(len(shape) + shape[0]).uniform(-4.0, 4.0, shape)
        jt = chua_region_jacobian("right").T.copy()
        got = _chua_eval(x, jt, np.array(3.0 * CHUA_K / 7.0))
        want = chua_eval_reference(x, jt, 3.0 * CHUA_K / 7.0)
        assert got.shape == shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_vectorized_over_nodes(self):
        x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out = chua()(x)
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out[0], [9.0 / 7.0, 1.0, 0.0], atol=1e-15)

    def test_wrong_dimension(self):
        for shape in ((2,), (4, 2), (3, 1)):
            with pytest.raises(ValueError, match="last dimension 3"):
                chua()(np.zeros(shape))


class TestChuaRegionJacobian:
    def test_middle_slope_entry(self):
        jac = chua_region_jacobian("middle", k=9.0)
        assert jac[0, 0] == pytest.approx(9.0 / 7.0, abs=1e-15)

    @pytest.mark.parametrize("region", ["left", "right"])
    def test_outer_slope_entry(self, region):
        jac = chua_region_jacobian(region, k=9.0)
        assert jac[0, 0] == pytest.approx(-18.0 / 7.0, abs=1e-15)

    def test_fixed_rows(self):
        jac = chua_region_jacobian("middle", k=9.0, l=100.0 / 7.0)
        np.testing.assert_array_equal(jac[1], [1.0, -1.0, 1.0])
        assert jac[2, 1] == -100.0 / 7.0
        np.testing.assert_array_equal(jac[2, [0, 2]], [0.0, 0.0])

    def test_unknown_region(self):
        with pytest.raises(ValueError):
            chua_region_jacobian("outer")


class TestCouplingFunction:
    def test_identity(self):
        g = CouplingFunction("identity")
        x = np.array([1.0, -2.0])
        np.testing.assert_array_equal(g(x), x)
        assert g.alpha_lower == 1.0

    def test_sine_blend_slope_bound(self):
        g = CouplingFunction("sine_blend")
        assert g.alpha_lower == 0.5
        rng = np.random.default_rng(42)
        u = rng.uniform(-50.0, 50.0, size=200_000)
        v = rng.uniform(-50.0, 50.0, size=200_000)
        keep = u != v
        quot = (g(u[keep]) - g(v[keep])) / (u[keep] - v[keep])
        assert np.min(quot) >= 0.5 - 1e-12
        # worst case approached near u, v -> pi where the slope bottoms out
        eps = 1e-6
        tight = (g(np.pi + eps) - g(np.pi - eps)) / (2 * eps)
        assert tight == pytest.approx(0.5, abs=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown coupling function"):
            CouplingFunction("cubic")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            CouplingFunction("identity", alpha_lower=0.0)
        with pytest.raises(ValueError):
            CouplingFunction("identity", alpha_lower=float("nan"))

    @pytest.mark.parametrize("kind, alpha", [("identity", 3.0), ("sine_blend", 5.0)])
    def test_alpha_above_certified_bound_rejected(self, kind, alpha):
        with pytest.raises(ValueError, match="exceeds the certified slope bound"):
            CouplingFunction(kind, alpha_lower=alpha)

    @pytest.mark.parametrize("alpha, message", [
        ("0.5", r"^alpha_lower must be a number, got '0.5'"),
        (10**400, r"^alpha_lower is too large for a float"),
    ], ids=["string", "huge-int"])
    def test_alpha_is_a_finite_number(self, alpha, message):
        with pytest.raises(ValueError, match=message):
            CouplingFunction("identity", alpha_lower=alpha)

    def test_alpha_may_lower_the_bound(self):
        assert CouplingFunction("identity", alpha_lower=0.5).alpha_lower == 0.5
        assert CouplingFunction("sine_blend", alpha_lower=0.5).alpha_lower == 0.5


    @pytest.mark.parametrize("kind", ["identity", "sine_blend"])
    def test_map_and_linear_region_are_those_of_the_kind(self, kind):
        # the kind is the one source of the map: there is no field to set it
        g = CouplingFunction(kind)
        assert [f.name for f in dataclasses.fields(g)] == ["kind", "alpha_lower"]
        map_fn, _, linear_near = _COUPLING_FUNCTIONS[kind]
        assert g.map_fn is map_fn and g.linear_near == linear_near
        with pytest.raises(AttributeError):
            g.map_fn = np.tanh


class TestDynamicsRegistry:
    def test_unknown_kind_lists_known(self):
        with pytest.raises(ValueError, match="chua"):
            make_dynamics("lorenz", dim=3)

    def test_chua_dimension_enforced(self):
        with pytest.raises(CouplingError, match="3-dimensional"):
            make_dynamics("chua", dim=2)

    @pytest.mark.parametrize("dim", [2.7, True, 0, -3, "3"])
    def test_dim_is_a_whole_number(self, dim):
        # int() would take 2.7 as 2 and True as 1
        with pytest.raises(ValueError, match=r"^dim must be a whole number >= 1"):
            make_dynamics("linear_decay", dim=dim)
        assert make_dynamics("linear_decay", dim=2.0).dim == 2

    def test_linear_decay_needs_dim(self):
        with pytest.raises(ValueError, match="dim"):
            make_dynamics("linear_decay")

    @pytest.mark.parametrize(
        "kind, dim, params, message",
        [
            ("chua", 3, {"K": 20}, r"params.K is not a parameter of chua \(known: k, l\)"),
            ("chua", 3, {"k": True}, r"params.k must be a number, got True"),
            ("chua", 3, {"l": "9"}, r"params.l must be a number, got '9'"),
            ("linear_decay", 2, {"k": 1.0}, r"params.k is not .* \(known: rate\)"),
            ("linear_decay", 2, {"rate": None}, r"params.rate must be a number"),
            ("chua", 3, {"k": float("inf")}, r"params.k must be finite, got inf"),
        ],
    )
    def test_builtin_params_are_checked(self, kind, dim, params, message):
        with pytest.raises(ValueError, match=message):
            make_dynamics(kind, dim=dim, params=params)

    def test_huge_integer_param_names_its_field(self):
        with pytest.raises(ValueError, match=r"dynamics.params.k is too large for a float"):
            make_dynamics("chua", params={"k": 10**400})

    def test_builtin_params_accept_any_real(self):
        assert make_dynamics("chua", params={"k": 9, "l": np.float64(14.0)}).params["k"] == 9
        make_dynamics("linear_decay", dim=1, params={"rate": np.int64(2)})

    def test_builtin_params_keep_the_checked_floats(self):
        given = {"k": np.float32(9), "l": 14}
        dyn = make_dynamics("chua", params=given)
        assert dyn.params == {"k": 9.0, "l": 14.0}
        assert all(type(value) is float for value in dyn.params.values())
        # the caller's dict is untouched, and a default is written in
        assert type(given["k"]) is np.float32 and type(given["l"]) is int
        assert make_dynamics("linear_decay", dim=1, params={}).params == {"rate": 1.0}

    def test_builtin_params_are_the_full_set(self):
        # one field, however it is spelled: a batch of them integrates
        spelled = [Dynamics("chua"), Dynamics("chua", params={"k": 9.0}),
                   Dynamics("chua", params={"l": 100.0 / 7.0, "k": 9})]
        assert all(dyn == spelled[0] for dyn in spelled)
        assert spelled[0].params == {"k": CHUA_K, "l": CHUA_L}
        a = validate_coupling([[-1.0, 1.0], [1.0, -1.0]])
        systems = [NetworkSystem(coupling=a, dynamics=dyn) for dyn in spelled]
        runs = integrate_batch(systems, [np.ones((2, 3))] * 3, [np.zeros(3)] * 3, dt=0.1, t_max=0.2)
        assert all(isinstance(run, Trajectory) for run in runs)

    @pytest.mark.parametrize("kind, dim, key", [("chua", 3, "k"), ("linear_decay", 2, "rate")])
    def test_params_are_read_only(self, kind, dim, key):
        dyn = make_dynamics(kind, dim=dim)
        before = dyn(np.ones(dim))
        with pytest.raises(TypeError, match="does not support item assignment"):
            dyn.params[key] = 5.0
        np.testing.assert_array_equal(dyn(np.ones(dim)), before)
        # nothing in it can change, so a deep copy is the instance itself
        assert copy.deepcopy(dyn) is dyn

    def test_registered_params_are_kept_as_given(self):
        register_dynamics("test_raw_params", lambda dim, params: lambda x, t: x * params["gain"])
        params = {"gain": np.float32(2), "note": "as given"}
        dyn = make_dynamics("test_raw_params", dim=1, params=params)
        assert dyn.params == params
        assert type(dyn.params["gain"]) is np.float32

    def test_user_registered_field(self):
        register_dynamics("test_shift", lambda dim, params: lambda x, t: x * 0.0 + 1.0)
        dyn = make_dynamics("test_shift", dim=2)
        np.testing.assert_array_equal(dyn(np.zeros(2)), [1.0, 1.0])
        assert dyn.affine is None

    @pytest.mark.parametrize("kind", [["chua"], {"kind": "chua"}, 3, None])
    def test_kind_must_be_a_string(self, kind):
        # a list or dict used to fail as "unhashable type"
        with pytest.raises(ValueError, match=r"^kind must be a string, got "):
            make_dynamics(kind, dim=3)
        with pytest.raises(ValueError, match=r"^kind must be a string, got "):
            CouplingFunction(kind)

    @pytest.mark.parametrize("kind", [["chua"], 3, None])
    def test_a_registered_kind_is_a_string(self, kind):
        with pytest.raises(ValueError, match=r"^kind must be a string, got "):
            register_dynamics(kind, lambda dim, params: lambda x, t: -x)

    def test_a_kind_is_registered_once(self):
        register_dynamics("test_once", lambda dim, params: lambda x, t: -x)
        for kind in ("chua", "linear_decay", "test_once"):
            with pytest.raises(ValueError, match=f"^dynamics kind '{kind}' is already registered$"):
                register_dynamics(kind, lambda dim, params: lambda x, t: -2.0 * x)
        np.testing.assert_array_equal(make_dynamics("test_once", dim=1)([3.0]), [-3.0])
        assert make_dynamics("chua").affine.jacobians.shape == (3, 3, 3)

    def test_the_field_is_derived_from_the_kind(self):
        assert make_dynamics is Dynamics
        dyn = Dynamics("linear_decay", dim=2, params={"rate": 1.0})
        for name in ("field_fn", "affine"):
            with pytest.raises(TypeError, match=name):
                Dynamics("linear_decay", dim=2, **{name: None})
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(dyn, **{name: None})
        faster = dataclasses.replace(dyn, params={"rate": 2.0})
        assert faster.params == {"rate": 2.0} and faster != dyn
        np.testing.assert_array_equal(faster.affine.jacobians, [-2.0 * np.eye(2)])
        np.testing.assert_array_equal(faster([1.0, -3.0]), [-2.0, 6.0])
        assert Dynamics("chua") == make_dynamics("chua", dim=3, params={})

    @pytest.mark.parametrize(
        "kind, dim, params",
        [
            ("chua", 3, {"k": 15.6, "l": 28.0}),
            ("chua", 3, {"k": 9.0, "l": 100.0 / 7.0}),
            ("linear_decay", 4, {"rate": -0.7}),
        ],
    )
    def test_linear_region_is_where_the_field_is_its_jacobian(self, kind, dim, params):
        # on each affine piece the field is J_k x + b_k: seeded states inside
        # the piece, its finite bounds included, and states off the piece,
        # where it is not
        dyn = make_dynamics(kind, dim=dim, params=params)
        affine = dyn.affine
        ends = np.concatenate([[-np.inf], affine.breaks, [np.inf]])
        assert affine.jacobians.shape == (len(ends) - 1, dim, dim)
        assert affine.offsets.shape == (len(ends) - 1, dim)
        assert (kind == "linear_decay") == (len(ends) == 2)
        rng = np.random.default_rng(5)
        x = rng.uniform(-3.0, 3.0, size=(2000, dim))
        x[:20, affine.coord] = rng.choice(ends[np.isfinite(ends)], 20) if affine.breaks else 0.0
        for k, (jac, offset) in enumerate(zip(affine.jacobians, affine.offsets)):
            on = (ends[k] <= x[:, affine.coord]) & (x[:, affine.coord] <= ends[k + 1])
            assert on.sum() > 500
            want = x @ jac.T + offset
            scale = np.abs(x @ jac.T).max(axis=1) + np.abs(offset).max() + np.abs(x).max(axis=1)
            err = np.abs(dyn(x) - want).max(axis=1) / scale
            assert err[on].max() <= 1e-15
            if not on.all():
                assert err[~on].max() > 1e-2

    def test_pieces_are_read_only_copies(self):
        jacobians, offsets = -np.eye(2)[None], np.zeros((1, 2))
        affine = PiecewiseAffine(0, (), jacobians, offsets)
        jacobians[0, 0, 0] = 5.0
        assert affine.jacobians[0, 0, 0] == -1.0
        for dyn in (make_dynamics("chua"), make_dynamics("linear_decay", dim=2)):
            for arr in (dyn.affine.jacobians, dyn.affine.offsets):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0.0


def _system(a, pin=None, gkind="identity", dynamics=None):
    return NetworkSystem(
        coupling=validate_coupling(a),
        dynamics=dynamics or make_dynamics("chua"),
        gfun=CouplingFunction(gkind),
        pin=pin,
    )


def _rhs(sys_, x, s, t=0.0):
    # node rows of the network field, evaluated as a batch of one on [x; s]
    y = np.vstack([x, np.asarray(s)[None, :]])[None]
    return make_network_rhs([sys_])(y, t)[0, :-1]


class TestSystemRhs:
    def test_decoupled_limit(self):
        # A = 0 and no pin: every node evolves under the bare dynamics
        sys_ = _system(np.zeros((2, 2)))
        state = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = _rhs(sys_, state, np.zeros(3))
        np.testing.assert_array_equal(out, chua()(state))

    @pytest.mark.parametrize("gkind", ["identity", "sine_blend"])
    @pytest.mark.parametrize("pin", [None, PinPlan(1, 4.9, 10.0)])
    def test_synchronized_manifold_invariant(self, gkind, pin):
        sys_ = _system(SYM_3NODE, pin=pin, gkind=gkind)
        s = np.array([1.5, -0.5, 2.0])
        state = np.tile(s, (3, 1))
        out = _rhs(sys_, state, s)
        expected = np.tile(chua()(s), (3, 1))
        # coupling cancels up to row-sum roundoff; controller cancels exactly
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_node_pure_controller(self):
        dyn = make_dynamics("linear_decay", dim=3, params={"rate": 0.0})
        sys_ = _system([[0.0]], pin=PinPlan(1, 2.0, 3.0), dynamics=dyn)
        state = np.array([[1.0, -1.0, 0.5]])
        out = _rhs(sys_, state, np.zeros(3))
        np.testing.assert_allclose(out, -6.0 * state, atol=1e-15)

    def test_nonlinear_controller_uses_g(self):
        # with g applied, the controller reads -c eps (g(x1) - g(s))
        dyn = make_dynamics("linear_decay", dim=1, params={"rate": 0.0})
        sys_ = _system([[0.0]], pin=PinPlan(1, 1.0, 2.0), gkind="sine_blend", dynamics=dyn)
        x = np.array([[2.0]])
        s = np.array([0.5])
        g = CouplingFunction("sine_blend")
        out = _rhs(sys_, x, s)
        expected = -2.0 * (g(np.array(2.0)) - g(np.array(0.5)))
        assert out[0, 0] == pytest.approx(float(expected), abs=1e-15)

    def test_operator_entries(self):
        sys_ = _system(SYM_3NODE, pin=PinPlan(2, 4.9, 10.0))
        op = network_operator(sys_)
        expected = np.zeros((4, 4))
        expected[:3, :3] = 10.0 * np.array(SYM_3NODE)
        expected[1, 1] -= 49.0
        expected[1, 3] += 49.0
        np.testing.assert_array_equal(op, expected)
        unpinned = network_operator(_system(SYM_3NODE))
        np.testing.assert_array_equal(unpinned[:3, :3], SYM_3NODE)
        assert not unpinned[3].any() and not unpinned[:, 3].any()

    def test_uncontrolled_operator_bits(self):
        # pin=None is read as UNCONTROLLED, whose operator is the bare
        # coupling: c = 1 and a zero gain leave every bit, -0.0 included
        a = [[-0.0, 0.0, 0.0], [0.0, -2.5, 2.5], [0.0, 2.5, -2.5]]
        expected = np.zeros((4, 4))
        expected[:3, :3] = np.array(a)
        for pin in (None, UNCONTROLLED):
            sys_ = _system(a, pin=pin)
            assert sys_.pin is UNCONTROLLED
            assert network_operator(sys_).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("gkind", ["identity", "sine_blend"])
    def test_operator_form_matches_explicit_terms(self, gkind):
        # f(y) + M g(y) equals f(x) + c A g(x) - c eps (g(x_p) - g(s)) per node
        sys_ = _system(SYM_3NODE, pin=PinPlan(3, 2.5, 7.0), gkind=gkind)
        g = CouplingFunction(gkind)
        rng = np.random.default_rng(4)
        x, s = rng.uniform(-3.0, 3.0, (3, 3)), rng.uniform(-3.0, 3.0, 3)
        expected = chua()(x) + 7.0 * (np.array(SYM_3NODE) @ g(x))
        expected[2] -= 7.0 * 2.5 * (g(x[2]) - g(s))
        np.testing.assert_allclose(_rhs(sys_, x, s), expected, rtol=1e-13, atol=1e-12)

    def test_batched_rhs_applies_each_operator(self):
        systems = [_system(SYM_3NODE, pin=PinPlan(1, 4.9, c)) for c in (6.0, 10.0, 14.0)]
        y = np.random.default_rng(5).uniform(-2.0, 2.0, (3, 4, 3))
        out = make_network_rhs(systems)(y, 0.0)
        for k, sys_ in enumerate(systems):
            np.testing.assert_array_equal(out[k], make_network_rhs([sys_])(y[k : k + 1], 0.0)[0])

    @pytest.mark.parametrize("gkind", ["identity", "sine_blend"])
    @pytest.mark.parametrize("count", [1, 9])
    def test_flat_and_stacked_states_give_the_same_bits(self, count, gkind):
        # (B, m + 1, n) and its flat (B (m + 1), n) view, against op @ g(y)
        systems = [_system(SYM_3NODE, pin=PinPlan(1, 4.9, 6.0 + c), gkind=gkind)
                   for c in range(count)]
        y = np.random.default_rng(count).uniform(-3.0, 3.0, (count, 4, 3))
        rhs = make_network_rhs(systems)
        stacked = rhs(y, 0.0)
        flat = rhs(y.reshape(-1, 3), 0.0)
        want = network_rhs_reference(systems)(y, 0.0)
        assert stacked.shape == y.shape and flat.shape == (4 * count, 3)
        np.testing.assert_array_equal(stacked.view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(flat.view(np.int64), want.reshape(-1, 3).view(np.int64))

    @pytest.mark.parametrize("count", [1, 3])
    def test_each_call_returns_a_fresh_array(self, count):
        systems = [_system(SYM_3NODE, pin=PinPlan(2, 4.9, 10.0))] * count
        rhs = make_network_rhs(systems)
        rng = np.random.default_rng(6)
        first = rhs(rng.uniform(-2.0, 2.0, (4 * count, 3)), 0.0)
        kept = first.copy()
        second = rhs(rng.uniform(-2.0, 2.0, (4 * count, 3)), 0.0)
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, kept)

    def test_batched_rhs_names_the_differing_field(self):
        base = _system(SYM_3NODE)
        with pytest.raises(CouplingError, match="node count"):
            make_network_rhs([base, _system(np.zeros((2, 2)))])
        decay = make_dynamics("linear_decay", dim=3)
        with pytest.raises(CouplingError, match="dynamics"):
            make_network_rhs([base, _system(SYM_3NODE, dynamics=decay)])
        with pytest.raises(CouplingError, match="coupling function"):
            make_network_rhs([base, _system(SYM_3NODE, gkind="sine_blend")])

    def test_pin_node_out_of_range_at_construction(self):
        with pytest.raises(CouplingError):
            _system(SYM_3NODE, pin=PinPlan(5, 1.0, 1.0))
