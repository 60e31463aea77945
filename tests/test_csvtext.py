"""csvtext's writers write exactly the text of ``"%.17g" % v``, on both of its
paths."""

import math
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinnet import csvtext
from pinnet.simulate import Trajectory


def _written(table) -> bytes:
    """The lines :func:`csvtext.write_table` writes for ``table``, without the
    header line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        csvtext.write_table(path, "header", table)
        return path.read_bytes().removeprefix(b"header\n")


def _expected(table) -> bytes:
    rows, cols = table.shape
    line = ",".join(["%.17g"] * cols) + "\n"
    return ((line * rows) % tuple(table.ravel().tolist())).encode()


def _assert_exact(values, cols=4):
    """Every value, written ``cols`` to a line, in slices of 2**16 values."""
    values = np.asarray(values, dtype=np.float64)
    values = np.concatenate([values, np.zeros(-len(values) % cols)])
    for start in range(0, len(values), 2**16):
        table = values[start : start + 2**16].reshape(-1, cols)
        assert _written(table) == _expected(table)


def _ties():
    """Doubles that lie exactly halfway between two 17-digit decimals.

    ``q * 2**(-1 - j)`` with q odd is ``q * 5**(j + 1) / 10**(j + 1)``; when
    ``q * 5**(j + 1)`` has 18 digits, ending in 5 since q is odd, the value's
    17-digit rounding is a tie.
    """
    ties = []
    for j in range(1, 24):
        five = 5 ** (j + 1)
        low, high = -(-10**17 // five), min((10**18 - 1) // five, 2**53 - 1)
        for q in np.linspace(low, high, 40).astype(np.int64).tolist():
            q |= 1
            if q <= high:
                ties.append(math.ldexp(q, -1 - j))
    return np.array(ties)


def _corpus() -> np.ndarray:
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    subnormal = rng.integers(1, 2**52, size=10**4, dtype=np.uint64).view(np.float64)
    log_uniform = 10.0 ** rng.uniform(-323, 308, size=10**5)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e17, 0.1, 1e-4, 1e-5]
    ties = _ties()
    return np.concatenate(
        [
            bits.view(np.float64),
            tens,
            np.nextafter(tens, 0.0),
            np.nextafter(tens, np.inf),
            subnormal,
            log_uniform,
            -log_uniform,
            special,
            ties,
            -ties,
        ]
    )


@pytest.fixture
def fresh_tables():
    """Tables rebuilt for this test, and again for the next."""
    csvtext._tables.cache_clear()
    yield
    csvtext._tables.cache_clear()


def test_ties_are_ties():
    ties = _ties()
    assert len(ties) > 500
    for x in ties.tolist():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5


@given(st.lists(st.floats(), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_floats_match_percent(values):
    values = np.array(values)
    for table in (values.reshape(1, -1), values.reshape(-1, 1)):
        assert _written(table) == _expected(table)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_bit_patterns_match_percent(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _written(values.reshape(-1, 1)) == _expected(values.reshape(-1, 1))


def test_corpus_matches_percent():
    _assert_exact(_corpus())


def test_corpus_matches_percent_without_fast_path(monkeypatch):
    # the path of a platform whose long double is no wider than a double
    monkeypatch.setattr(csvtext, "_tables", lambda: None)
    _assert_exact(_corpus())


@pytest.mark.parametrize("shape", [(0, 3), (1, 1), (3, 1025), (2049, 5)])
def test_every_shape_is_whole_lines(shape):
    table = np.sin(np.arange(math.prod(shape), dtype=np.float64)).reshape(shape) * 1e3
    assert _written(table) == _expected(table)


def test_cells_keep_the_shape_of_the_values():
    values = np.array([[0.5, -2.0], [0.1, np.nan]])
    text = csvtext.cells(values)
    assert text.shape == (2, 2, csvtext.WIDTH)
    assert bytes(text[1, 0]) == b"0.10000000000000001".ljust(csvtext.WIDTH)


needs_fast_path = pytest.mark.skipif(
    csvtext._tables() is None, reason="long double is no wider than a double"
)


def test_narrow_long_double_turns_fast_path_off(monkeypatch, fresh_tables):
    # where long double is a double (MSVC, arm64 macOS) no table is built
    finfo = np.finfo
    monkeypatch.setattr(np, "finfo", lambda t: finfo(np.float64 if t is np.longdouble else t))
    monkeypatch.setattr(csvtext, "_build_tables", None)
    assert csvtext._tables() is None
    _assert_exact(_corpus())


@needs_fast_path
def test_tables_pass_their_check(fresh_tables):
    assert csvtext._tables() is not None


@needs_fast_path
def test_corrupt_table_turns_fast_path_off(monkeypatch, fresh_tables):
    build = csvtext._build_tables

    def corrupt():
        # 10**16, the scale of [1, 10), off by 1e-10 of itself
        tables = build()
        scale = tables.scale.copy()
        scale[-csvtext._E_MIN] *= 1 + 1e-10
        return tables._replace(scale=scale)

    # on the fast path, the corrupt table writes wrong digits
    values = np.linspace(1.0, 9.0, 1000)
    assert not np.array_equal(csvtext._cells(values, corrupt()), csvtext._cells(values, None))
    values = values.reshape(-1, 4)
    monkeypatch.setattr(csvtext, "_build_tables", corrupt)
    assert csvtext._tables() is None
    assert _written(values) == _expected(values)


@needs_fast_path
def test_table_that_raises_turns_fast_path_off(monkeypatch, fresh_tables):
    build = csvtext._build_tables

    def overflowing():
        # an infinite scale: casting the mantissa to an integer is invalid
        tables = build()
        scale = tables.scale.copy()
        scale[-csvtext._E_MIN] = np.inf
        return tables._replace(scale=scale)

    monkeypatch.setattr(csvtext, "_build_tables", overflowing)
    assert csvtext._tables() is None
    values = np.linspace(1.0, 9.0, 8).reshape(-1, 4)
    assert _written(values) == _expected(values)


def _trajectory(samples, m, n, reference):
    rng = np.random.default_rng(20261020)
    states = rng.normal(size=(samples, m, n)) * 10.0 ** rng.integers(-6, 6, (samples, m, n))
    return Trajectory(
        times=np.arange(samples) * 0.001, states=states, reference=np.array(reference, dtype=float)
    )


def _trajectory_text(traj) -> bytes:
    """The rows :func:`csvtext.write_trajectory_csv` writes, without the
    header line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        csvtext.write_trajectory_csv(path, traj, csvtext.cells(traj.times))
        return path.read_bytes().split(b"\n", 1)[1]


def _trajectory_expected(traj) -> bytes:
    lines = []
    for t, s, x in zip(traj.times.tolist(), traj.reference.tolist(), traj.states.tolist()):
        for node, values in enumerate([s, *x]):
            lines.append(",".join("%.17g" % v for v in [t, node, *values]) + "\n")
    return "".join(lines).encode()


def _references(samples, n):
    """Reference samples by case: resting, resting at zero but for one -0.0,
    moving only in the last sample, and moving."""
    constant = np.tile(np.linspace(-2.5, 1 / 3, n), (samples, 1))
    signed_zero = np.zeros((samples, n))
    signed_zero[samples // 2, n - 1] = -0.0
    last_moves = constant.copy()
    last_moves[-1, 0] = np.nextafter(last_moves[-1, 0], np.inf)
    moving = np.sin(np.arange(samples * n, dtype=float)).reshape(samples, n)
    return {
        "constant": constant,
        "signed-zero": signed_zero,
        "last-moves": last_moves,
        "moving": moving,
    }


@pytest.fixture(params=["fast", "percent"])
def either_path(request, fresh_tables, monkeypatch):
    """The fast path where it is built, and every value through ``%``."""
    if request.param == "percent":
        monkeypatch.setattr(csvtext, "_tables", lambda: None)


@pytest.mark.parametrize("case", ["constant", "signed-zero", "last-moves", "moving"])
# the first shape's reference is checked in three passes, the second's
# samples each take more than CHUNK values
@pytest.mark.parametrize("shape", [(1000, 3, 3), (3, 40, 30)])
def test_trajectory_rows_match_percent(either_path, case, shape):
    samples, m, n = shape
    traj = _trajectory(samples, m, n, _references(samples, n)[case])
    assert _trajectory_text(traj) == _trajectory_expected(traj)


def test_resting_reference_is_formatted_once(monkeypatch):
    samples, m, n = 250, 3, 3
    traj = _trajectory(samples, m, n, _references(samples, n)["constant"])
    csvtext._tables()  # its self-check formats values too
    counted = []
    cells = csvtext._cells

    def counting(v, tables):
        counted.append(len(v))
        return cells(v, tables)

    monkeypatch.setattr(csvtext, "_cells", counting)
    assert _trajectory_text(traj) == _trajectory_expected(traj)
    # each time and state once, then the reference's n values and the m + 1
    # node numbers
    assert sum(counted) == samples * (m * n + 1) + n + (m + 1)
