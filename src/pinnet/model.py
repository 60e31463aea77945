"""Network data model for diffusively coupled ODE nodes with a single controller.

Coupling matrices have nonnegative off-diagonal weights and zero row sums, so
the all-ones vector is always a right null vector and a fully synchronized
state feels no coupling. A :class:`PinPlan` describes the one controlled node:
feedback gain ``epsilon`` and overall coupling strength ``c``; folding the gain
into the pinned node's diagonal entry gives the "pinned" matrix whose spectrum
drives every stability check in :mod:`pinnet.conditions`. Every model object
checks itself: its constructor takes only the values a caller chooses,
checks them and derives the rest (:func:`make_dynamics` and
:func:`validate_coupling` are other names for two of the classes).

Node dynamics are looked up in a small registry (built-ins: Chua's circuit and
a linear decay field, whose builders reject unknown or non-numeric
parameters) that takes each kind once; coupling may pass through a
componentwise monotone map. A built-in field declares its linear pieces on
``Dynamics.affine``, the one place the simulator and the closed-form
conditions read its Jacobians. State layout is an ``(m, n)`` array, one row
per node. Node indices are 1-based in all public interfaces. Each value rule
is one function here, for every caller: :func:`finite_number`,
:func:`positive_number`, :func:`whole_number`, :func:`node_index` and
``_registered`` (a kind).

The simulated state stacks the m node rows over the reference row,
``y = [x; s]`` of shape ``(m + 1, n)``. Coupling and controller are both
linear in ``g(y)``, so the whole field is ``f(y) + M g(y)`` with one
``(m + 1, m + 1)`` operator ``M`` per system (:func:`network_operator`).
:func:`make_network_rhs` is the one right-hand side: it stacks the
operators of B systems on a leading axis and maps ``(B, m + 1, n)`` states,
or their flat ``(B (m + 1), n)`` view, one system being a batch of one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional

import numpy as np

from .linalg import _as_square, check_zero_row_sums, is_symmetric

CHUA_K = 9.0
CHUA_L = 100.0 / 7.0

FieldFn = Callable[[np.ndarray, float], np.ndarray]


class CouplingError(ValueError):
    """An array violates the coupling-matrix contract, or dimensions clash."""


@dataclass(frozen=True)
class CouplingMatrix:
    """m-by-m coupling matrix with zero row sums and nonnegative off-diagonals, held
    as a read-only float copy that derives ``symmetric`` and is compared and hashed.
    A :class:`CouplingError` names the offending row or entry (1-based) of the
    first violation found, judged by the rules of :mod:`pinnet.linalg`."""

    entries: np.ndarray
    symmetric: bool = field(init=False)

    def __post_init__(self):
        try:
            a = _as_square(self.entries, "coupling matrix")
            neg = np.argwhere((a < 0.0) & ~np.eye(len(a), dtype=bool))
            if neg.size:
                i, j = map(int, neg[0])
                raise ValueError(f"off-diagonal entry ({i + 1},{j + 1}) is negative: {a[i, j]!r}")
            check_zero_row_sums(a)
        except ValueError as err:
            raise CouplingError(str(err)) from None
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "symmetric", is_symmetric(a))

    def __eq__(self, other):
        return isinstance(other, CouplingMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.entries + 0.0).tobytes())  # + 0.0: -0.0 equals 0.0, so hashes alike

    @property
    def m(self) -> int:
        return self.entries.shape[0]


validate_coupling = CouplingMatrix


def finite_number(value, where: str) -> float:
    """``value`` as a float; a ``ValueError`` names ``where`` when it is a
    bool, not a real number, too large for a float, or not finite."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{where} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{where} is too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{where} must be finite, got {value!r}")
    return number


def positive_number(value, where: str) -> float:
    """:func:`finite_number` that is > 0; a ``ValueError`` names ``where``."""
    number = finite_number(value, where)
    if not number > 0:
        raise ValueError(f"{where} must be > 0, got {value}")
    return number


def whole_number(value, where: str, minimum: int) -> int:
    """``value`` as an int; a ``ValueError`` names ``where`` unless it is a
    whole number >= ``minimum`` (a bool is not; a whole float such as
    ``1e6`` is)."""
    try:
        whole = int(value)
        ok = whole == value and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok or whole < minimum:
        raise ValueError(f"{where} must be a whole number >= {minimum}, got {value!r}")
    return whole


def node_index(value, where: str, m: Optional[int] = None) -> int:
    """``value`` as a 1-based node index, an integer (not a bool) >= 1 and <= ``m``
    if given; a ``ValueError`` names ``where``, a :class:`CouplingError` past m."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{where} must be an integer >= 1 (1-based), got {value!r}")
    if m is not None and value > m:
        raise CouplingError(f"{where} {value} exceeds node count {m}")
    return int(value)


@dataclass(frozen=True)
class PinPlan:
    """Single-controller plan: pinned node (1-based), feedback gain, strength.

    ``epsilon == 0`` switches the controller off while keeping the coupling
    strength ``c``; that is how the uncontrolled baselines are expressed. The
    stability theorems themselves require ``epsilon > 0``. ``pin_node`` is an
    integer, not a bool, stored as ``int``; ``epsilon`` and ``c`` as ``float``.
    """

    pin_node: int
    epsilon: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "pin_node", node_index(self.pin_node, "pin_node"))
        object.__setattr__(self, "epsilon", finite_number(self.epsilon, "feedback gain epsilon"))
        if self.epsilon < 0:
            raise ValueError(f"feedback gain epsilon must be >= 0, got {self.epsilon}")
        object.__setattr__(self, "c", positive_number(self.c, "coupling strength c"))


#: No controller (gain 0) at unit strength: the plan of a system that names none.
UNCONTROLLED = PinPlan(1, 0.0, 1.0)


def pinned_matrix(a, pin: PinPlan) -> np.ndarray:
    """Coupling matrix with the feedback gain folded into the pinned diagonal.

    The output differs from ``a`` at exactly one entry: ``(p, p)`` is reduced
    by ``pin.epsilon``, so the pinned row sums to ``-epsilon`` and every other
    row still sums to zero.
    """
    out = _as_square(a, "coupling matrix")
    node_index(pin.pin_node, "pin_node", len(out))
    i = pin.pin_node - 1
    out[i, i] = out[i, i] - pin.epsilon
    return out


# ---------------------------------------------------------------------------
# node dynamics


# 0-d operands: a ufunc converts a Python float on every call, which costs
# more than the arithmetic on a network's few dozen doubles
_MINUS_ONE = np.array(-1.0)
_ONE = np.array(1.0)
_HALF = np.array(0.5)


def _chua_eval(x: np.ndarray, jt: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """``x @ J_outer^T + gain clip(x1, -1, 1) e1`` on float ``(..., 3)`` states,
    computed on ``(N, 3)`` rows with ``np.dot`` (see :func:`make_network_rhs`)."""
    if x.ndim != 2:
        return _chua_eval(x.reshape(-1, 3), jt, gain).reshape(x.shape)
    out = np.dot(x, jt)
    col = out[:, 0]
    # np.clip goes through a Python wrapper; the two ufuncs are cheaper
    np.add(col, np.multiply(np.minimum(np.maximum(x[:, 0], _MINUS_ONE), _ONE), gain), out=col)
    return out


CHUA_REGIONS = ("left", "middle", "right")


def chua_region_jacobian(region: str, k: float = CHUA_K, l: float = CHUA_L) -> np.ndarray:
    """Jacobian of the circuit field on one of its three linear regions.

    ``middle`` is |x1| <= 1 where the diode slope is -1/7; ``left`` and
    ``right`` are the outer regions with slope 2/7.
    """
    if region not in CHUA_REGIONS:
        raise ValueError(f"region must be one of {CHUA_REGIONS}, got {region!r}")
    slope = -1.0 / 7.0 if region == "middle" else 2.0 / 7.0
    return np.array(
        [
            [-k * slope, k, 0.0],
            [1.0, -1.0, 1.0],
            [0.0, -l, 0.0],
        ]
    )


@dataclass(frozen=True)
class PiecewiseAffine:
    """A node field that is ``J_k x + b_k`` on piece ``k``: ``breaks[k - 1]
    <= x[coord] <= breaks[k]``, inclusive, as the field is continuous there.
    No breakpoints: one piece, all of space. The pieces' ``J_k`` and ``b_k``
    are stacked in read-only ``(K, n, n)`` and ``(K, n)`` arrays."""

    coord: int
    breaks: tuple
    jacobians: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        for name in ("jacobians", "offsets"):
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class Dynamics:
    """The node field registered as ``kind`` on ``dim`` coordinates (only
    ``chua`` has a default, 3), with a read-only copy of ``params`` (a built-in
    kind keeps its full parameter set, defaults included, as the floats its
    parameter rule returns), from which the kind's builder derives
    ``field_fn`` and ``affine``: equal instances hold one field.
    ``field_fn(x, t)`` is vectorized over leading axes, maps ``(..., dim)`` to
    ``(..., dim)``, returns a fresh array, and must produce finite derivatives
    at finite states; calling the instance checks that last dimension.
    ``affine`` is the :class:`PiecewiseAffine` form of a built-in field (the
    circuit's three diode regions, or one piece for the linear decay) and
    None for registered fields.
    """

    kind: str
    dim: Optional[int] = None
    params: Optional[Mapping] = None
    field_fn: FieldFn = field(init=False, repr=False, compare=False)
    affine: Optional[PiecewiseAffine] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        build = _registered(_DYNAMICS_BUILDERS, self.kind, "dynamics")
        if self.dim is None and self.kind != "chua":
            raise ValueError(f"dynamics kind {self.kind!r} needs an explicit dim")
        dim = whole_number(3 if self.dim is None else self.dim, "dim", 1)
        params = dict(self.params or {})
        fn, affine = build(dim, params)
        params = MappingProxyType(params)
        for name, value in zip(("dim", "params", "field_fn", "affine"), (dim, params, fn, affine)):
            object.__setattr__(self, name, value)

    def __deepcopy__(self, memo):
        return self  # read-only params, and the field derived from them

    def __call__(self, x, t: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"{self.kind} states must have last dimension {self.dim}, "
                             f"got shape {x.shape}")
        return self.field_fn(x, t)


make_dynamics = Dynamics


def _real_params(kind: str, params: dict, defaults: Mapping[str, float]) -> list[float]:
    """``params`` over ``defaults``, in the order of ``defaults``; a
    ``ValueError`` names any key that is unknown or fails
    :func:`finite_number`, with the known keys. ``params`` then holds the
    checked floats of every key, defaults included."""
    known = ", ".join(defaults)
    for key in params:
        if key not in defaults:
            raise ValueError(f"dynamics.params.{key} is not a parameter of {kind} "
                             f"(known: {known})")
    try:
        values = {key: finite_number(params.get(key, default), f"dynamics.params.{key}")
                  for key, default in defaults.items()}
    except ValueError as err:
        raise ValueError(f"{err} (known: {known})") from None
    params.update(values)
    return list(values.values())


def _build_chua(dim: int, params: dict) -> tuple[FieldFn, PiecewiseAffine]:
    """Chua's circuit, ``dx1/dt = k (x2 - h(x1))``, ``dx2/dt = x1 - x2 + x3``,
    ``dx3/dt = -l x2``, with the diode ``h(x) = (2/7)x - (3/14)(|x+1| - |x-1|)``;
    at k = 9, l = 100/7 it carries the double-scroll attractor.

    The field is evaluated as ``x @ J_outer^T + (3k/7) clip(x1, -1, 1) e1``,
    through the identity ``|x+1| - |x-1| = 2 clip(x, -1, 1)``: the
    absolute-value form rounds to 0 for |x1| below about 1e-16 and so takes
    the outer slope there, while the clip keeps the middle slope down to the
    smallest subnormal.
    """
    if dim != 3:
        raise CouplingError(f"chua dynamics is 3-dimensional, got dim={dim}")
    k, l = _real_params("chua", params, {"k": CHUA_K, "l": CHUA_L})
    jacobians = [chua_region_jacobian(r, k, l) for r in CHUA_REGIONS]
    jt, gain = jacobians[2].T.copy(), np.array(3.0 * k / 7.0)

    def fn(x, t):
        return _chua_eval(x, jt, gain)

    # the diode adds -/+ 3k/7 to dx1/dt on the outer regions, 0 on the middle
    offsets = [[sign * 3.0 * k / 7.0, 0.0, 0.0] for sign in (-1.0, 0.0, 1.0)]
    return fn, PiecewiseAffine(0, (-1.0, 1.0), jacobians, offsets)


def _build_linear_decay(dim: int, params: dict) -> tuple[FieldFn, PiecewiseAffine]:
    (rate,) = _real_params("linear_decay", params, {"rate": 1.0})

    def fn(x, t):
        return -rate * x

    return fn, PiecewiseAffine(0, (), [-rate * np.eye(dim)], np.zeros((1, dim)))


_DYNAMICS_BUILDERS: dict[str, Callable[[int, Mapping], tuple[FieldFn, Optional[PiecewiseAffine]]]] = {
    "chua": _build_chua,
    "linear_decay": _build_linear_decay,
}


def register_dynamics(kind: str, builder: Callable[[int, Mapping], FieldFn]) -> None:
    """Register a vector-field builder under ``kind``, a string not yet
    registered (built-ins included): a kind names one field for the life of
    the process. A registered field declares no affine pieces."""
    if not isinstance(kind, str):
        raise ValueError(f"kind must be a string, got {kind!r}")
    if kind in _DYNAMICS_BUILDERS:
        raise ValueError(f"dynamics kind {kind!r} is already registered")
    _DYNAMICS_BUILDERS[kind] = lambda dim, params: (builder(dim, params), None)


def _registered(registry: Mapping, kind, what: str):
    """The entry of ``registry`` under ``kind``; a ``ValueError`` says why
    there is none: ``kind`` is not a string, or unknown (with the known)."""
    if not isinstance(kind, str):
        raise ValueError(f"kind must be a string, got {kind!r}")
    if kind not in registry:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown {what} kind {kind!r} (known: {known})")
    return registry[kind]


# ---------------------------------------------------------------------------
# coupling functions


@dataclass(frozen=True)
class CouplingFunction:
    """Registered componentwise monotone map ``kind`` applied to coupled states.

    ``alpha_lower`` is a certified lower bound on the difference quotients
    (g(u) - g(v)) / (u - v). It defaults to the kind's registered bound (1
    for the identity) and may lower it but never exceed it. The map and
    :attr:`linear_near` are the kind's registry entry.
    """

    kind: str = "identity"
    alpha_lower: Optional[float] = None

    def __post_init__(self):
        _, bound, _ = _registered(_COUPLING_FUNCTIONS, self.kind, "coupling function")
        alpha = bound if self.alpha_lower is None else positive_number(self.alpha_lower, "alpha_lower")
        if alpha > bound:
            raise ValueError(
                f"alpha_lower {alpha:g} exceeds the certified slope bound {bound:g} of {self.kind!r}"
            )
        object.__setattr__(self, "alpha_lower", alpha)

    def __call__(self, u) -> np.ndarray:
        return self.map_fn(np.asarray(u, dtype=float))

    @property
    def map_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """The registered map, on float arrays."""
        return _COUPLING_FUNCTIONS[self.kind][0]

    @property
    def linear_near(self) -> tuple[float, float]:
        """``(u0, slope)`` of the registered map: on ``|u| <= u0`` the
        computed ``g(u)`` is ``slope * u`` rounded, so there the coupling is
        linear (``u0`` is inf for the identity)."""
        return _COUPLING_FUNCTIONS[self.kind][2]


def _g_identity(u):
    return u


def _g_sine_blend(u):
    """``u + 0.5 sin(u)``, slope ``1 + 0.5 cos(u)`` in [0.5, 1.5].

    Linear near 0: ``|0.5 (sin u - u)| <= |u|^3 / 12``, which for
    ``|u| <= 1e-8`` is at most ``8.4e-18 |u|``, below half an ulp of
    ``1.5 u``. There a correctly rounded ``sin(u)`` is ``u`` itself, so for
    normal ``u`` the computed ``g(u)`` is ``1.5 u`` rounded (a subnormal's
    ``0.5 sin(u)`` may round).
    """
    return np.add(u, np.multiply(np.sin(u), _HALF))


# kind: (map, certified slope bound, linear_near)
_COUPLING_FUNCTIONS: dict[str, tuple[Callable, float, tuple[float, float]]] = {
    "identity": (_g_identity, 1.0, (math.inf, 1.0)),
    "sine_blend": (_g_sine_blend, 0.5, (1e-8, 1.5)),
}


# ---------------------------------------------------------------------------
# assembled system


@dataclass(frozen=True)
class NetworkSystem:
    """Coupling topology + node dynamics + coupling map + controller.

    The pin plan defaults to :data:`UNCONTROLLED` (no controller, coupling
    strength 1: fold any strength into the matrix), and ``pin=None`` is read
    as that plan. Instances are immutable and safe to share across threads.
    """

    coupling: CouplingMatrix
    dynamics: Dynamics
    gfun: CouplingFunction = field(default_factory=CouplingFunction)
    pin: PinPlan = UNCONTROLLED

    def __post_init__(self):
        if self.pin is None:
            object.__setattr__(self, "pin", UNCONTROLLED)
        node_index(self.pin.pin_node, "pin_node", self.coupling.m)


def network_operator(sys: NetworkSystem) -> np.ndarray:
    """The ``(m + 1, m + 1)`` operator ``M`` of the stacked field ``f(y) + M g(y)``.

    ``M[:m, :m] = c A`` couples the nodes; the controller adds ``-c epsilon``
    at ``(p, p)`` and ``+c epsilon`` at ``(p, m)``, so node p receives
    ``-c epsilon (g(x_p) - g(s))``. The reference row is zero: the reference
    evolves under the bare dynamics.
    """
    m = sys.coupling.m
    op = np.zeros((m + 1, m + 1))
    c = sys.pin.c
    p = sys.pin.pin_node - 1
    gain = c * sys.pin.epsilon
    op[:m, :m] = c * sys.coupling.entries
    op[p, p] -= gain
    op[p, m] += gain
    return op


def make_network_rhs(systems) -> Callable[[np.ndarray, float], np.ndarray]:
    """Right-hand side ``f(y) + M g(y)`` over a batch of stacked states.

    The B systems must share node count, dynamics and coupling map; a
    :class:`CouplingError` names the first field that differs. The closure
    maps ``(B, m + 1, n)`` states, or their flat ``(B (m + 1), n)`` view, to
    a fresh array of the same shape, with each system's operator on its own
    slice. Node fields act row by row, so the dynamics are evaluated once on
    the flat view.

    At the paper's sizes a numpy call costs its dispatch, not its
    arithmetic, and ``np.dot`` on 2-D operands costs about half of
    ``matmul``. So Chua's field and, for a batch of one, the operator
    product use ``np.dot``; a batch keeps ``matmul``. On C-contiguous
    float64 operands both reach the same ``dgemm``, so the bits are those
    of ``f(y) + op @ g(y)``. The product goes into a buffer the closure
    owns, so one closure must not be called from two threads at once.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("need at least one system")
    first = systems[0]
    for k, other in enumerate(systems[1:], start=2):
        for name, a, b in (
            ("node count m", first.coupling.m, other.coupling.m),
            ("dynamics", first.dynamics, other.dynamics),
            ("coupling function", first.gfun.kind, other.gfun.kind),
        ):
            if a != b:
                raise CouplingError(
                    f"system {k} differs from system 1 in {name}: {b!r} vs {a!r}"
                )
    op = np.stack([network_operator(s) for s in systems])
    # the integrator passes float arrays, so the raw maps skip the asarray
    # their callable wrappers apply
    field = first.dynamics.field_fn
    g = first.gfun.map_fn
    count, rows, n = op.shape[0], op.shape[1], first.dynamics.dim
    tmp = np.empty((count * rows, n))

    if count == 1:
        op1 = op[0]

        def product(y2):
            return np.dot(op1, g(y2), out=tmp)
    else:
        tmp3 = tmp.reshape(count, rows, n)

        def product(y2):
            np.matmul(op, g(y2).reshape(count, rows, n), out=tmp3)
            return tmp

    def rhs(y: np.ndarray, t: float) -> np.ndarray:
        y2 = y if y.ndim == 2 else y.reshape(-1, n)
        out = field(y2, t)
        np.add(out, product(y2), out=out)
        return out if y is y2 else out.reshape(y.shape)

    return rhs
