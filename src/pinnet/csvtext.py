"""Every CSV pinnet writes, as exact ``"%.17g"`` text computed in numpy.

A file is a header line, then rows of ``"%.17g" % value`` fields (17 digits,
which read back to the same double; nan for an undefined ratio) joined by
commas, each line ended by ``\n``: :func:`write_trajectory_csv` (long form,
node 0 the reference), :func:`write_metrics_csv` and :func:`write_table`.
:func:`cells` formats at most ``CHUNK`` values a pass into space-padded byte
cells; a value repeated in every row is formatted once and its cell copied,
as is a resting reference, whose every sample has the bits of the first.
A run's time cells are formatted once, by :func:`pinnet.cli.run_scenario`
for its two CSVs and by :func:`pinnet.cli.run_sweep` for every point of
its grid, and the writers copy them; they hold ``WIDTH`` = 25 bytes per
sample while the run writes.

CPython formats each value with a correctly rounded dtoa; here a whole
block is formatted by a fixed sequence of array operations:

- the decimal exponent is ``e = floor(log10 |x|)``, and ``|x|`` is scaled by
  ``10**(16 - e)`` in ``np.longdouble`` to a mantissa ``m`` in
  ``[1e16, 1e17)``, then rounded to its nearest integer, 17 digits;
- its digits come from a table of the 10,000 four-digit groups, and the
  exponent's sign and digits from a table indexed by ``e``;
- each value's text is one gather from a row of source bytes (sign, ``0``,
  point, ``e``, exponent, digits). The gather's layout is chosen by the
  value's class: fixed notation for ``-4 <= e <= 16``, else ``e+XX`` or
  ``e+XXX``; the count of trailing zero digits, which ``%g`` strips; the
  sign; and zero;
- the padding after each value's text is removed when its row is joined.

**Error bound and fallback.** The power of ten is rounded once when its
table is built and the product once more, so the computed ``m`` is within
``2u m`` of the exact scaled value, with ``u = finfo(longdouble).epsneg``.
Its nearest integer is then the correctly rounded 17-digit mantissa unless
the exact value could lie on the other side of a rounding tie. The fast
path therefore takes a value only when the fraction of ``m`` is farther
than ``4u m``, twice the bound, from 1/2, when ``1e16 <= m`` and when the
rounded mantissa is below ``1e17``, so that ``e`` is the exponent of the
rounded value. Every other value (about 2% of random bit patterns, every
exact tie, a mantissa that rounds up to ``1e17``) is formatted by
``"%.17g" % v``, as are nan and +-inf. Where ``long double`` is no wider
than a double there are no tables, and every value takes ``%``.

The tables are built on the first call. A fixed list of hard values (each
power of ten and its two neighbours, the extreme doubles) then goes through
both paths; if any text differs, for instance under an x87 precision-control
mode that rounds ``long double`` products to double or with a ``strtold``
that misrounds the table, the fast path is off for the process.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional

import numpy as np

from .simulate import MetricSeries, Trajectory

CHUNK = 1024  # values per formatting pass, which holds about 350 bytes per value
WIDTH = 25  # bytes per cell: the longest text, "-2.2250738585072014e-308", and one more

_U = float(np.finfo(np.longdouble).epsneg)
_E_MIN, _E_MAX = -324, 308  # decimal exponents of the nonzero finite doubles

# Columns of a value's source row, in 4-byte words: "-0.e", the exponent's
# sign and three digits, the lead digit and a space, then the other 16
# digits. A layout gathers a value's text from them and pads it with spaces
# to WIDTH bytes.
_MINUS, _ZERO, _POINT, _E, _EXP_SIGN = range(5)
_EXP = 5
_LEAD, _PAD = 8, 9
_DIGITS = 12
_SOURCE = 28


def _digit(i: int) -> int:
    """Source column of significant digit ``i`` (0 is the lead digit)."""
    return _LEAD if i == 0 else _DIGITS + i - 1


# Layout classes: 17 trailing-zero counts for each fixed exponent -4..16,
# then for two- and three-digit exponents, then zero; a minus sign adds
# _SIGNED.
_FIXED = range(-4, 17)
_EXP2 = 17 * len(_FIXED)
_EXP3 = _EXP2 + 17
_ZERO_CLASS = _EXP3 + 17
_SIGNED = _ZERO_CLASS + 1


def _text_columns(e: int, tz: int) -> list:
    """Source columns of the unsigned ``%.17g`` text of a value with decimal
    exponent ``e`` whose 17-digit mantissa ends in ``tz`` zeros."""
    kept = [_digit(i) for i in range(17 - tz)]
    if -4 <= e < 0:
        return [_ZERO, _POINT] + [_ZERO] * (-e - 1) + kept
    if 0 <= e <= 16:
        whole = [_digit(i) for i in range(e + 1)]
        fraction = kept[e + 1 :]
        return whole + ([_POINT] + fraction if fraction else [])
    exponent = [_EXP + 1, _EXP + 2] if abs(e) < 100 else [_EXP, _EXP + 1, _EXP + 2]
    fraction = [_POINT] + kept[1:] if len(kept) > 1 else []
    return kept[:1] + fraction + [_E, _EXP_SIGN] + exponent


def _layouts() -> np.ndarray:
    """``(2 * _SIGNED, WIDTH)`` source columns of every layout class."""
    layouts = np.full((2 * _SIGNED, WIDTH), _PAD, dtype=np.uint8)
    kinds = [(e, tz) for e in (*_FIXED, 17, 100) for tz in range(17)]
    for cls, (e, tz) in enumerate(kinds):
        text = _text_columns(e, tz)
        layouts[cls, : len(text)] = text
        layouts[_SIGNED + cls, : len(text) + 1] = [_MINUS, *text]
    layouts[_ZERO_CLASS, 0] = _ZERO
    layouts[_SIGNED + _ZERO_CLASS, :2] = [_MINUS, _ZERO]
    return layouts


class _Tables(NamedTuple):
    prefix: np.uint32  # the word "-0.e"
    scale: np.ndarray  # longdouble 10**(16 - e), by e - _E_MIN
    exponent: np.ndarray  # the word "+XXX" or "-XXX", by e - _E_MIN
    base_class: np.ndarray  # layout class with no trailing zeros, by e - _E_MIN
    groups: np.ndarray  # the word of the four digits of each of 0..9999
    zeros: np.ndarray  # trailing zero digits of each of 0..9999 (4 for 0)
    layouts: np.ndarray  # (classes, WIDTH) source columns


def _words(text: str) -> np.ndarray:
    return np.frombuffer(text.encode(), np.uint32)


def _build_tables() -> _Tables:
    exponents = range(_E_MIN, _E_MAX + 1)
    base_class = [
        (e - _FIXED.start) * 17 if e in _FIXED else _EXP2 if abs(e) < 100 else _EXP3
        for e in exponents
    ]
    # the digits of 0000..9999 and their trailing zero counts, a hundred
    # groups at a time, so that few strings are alive at once
    digits, zeros = [], bytearray()
    for start in range(0, 10_000, 100):
        groups = [f"{g:04d}" for g in range(start, start + 100)]
        digits.append("".join(groups))
        zeros += bytes(4 - len(group.rstrip("0")) for group in groups)
    return _Tables(
        prefix=_words("-0.e")[0],
        scale=np.array([f"1e{16 - e}" for e in exponents], dtype=np.longdouble),
        exponent=_words("".join(f"{e:+04d}" for e in exponents)),
        base_class=np.array(base_class, dtype=np.int16),
        groups=_words("".join(digits)),
        zeros=np.frombuffer(bytes(zeros), np.uint8),
        layouts=_layouts(),
    )


def _hard_values() -> np.ndarray:
    """Every power of ten with both neighbours, and the extreme doubles."""
    tens = np.array([float(f"1e{k}") for k in range(_E_MIN + 1, _E_MAX + 1)])
    bits = tens.view(np.int64)
    extremes = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3, 0.1]
    neighbours = [(bits - 1).view(np.float64), (bits + 1).view(np.float64)]
    values = np.concatenate([tens, *neighbours, extremes])
    return np.concatenate([values, -values])


@functools.cache
def _tables() -> Optional[_Tables]:
    """The fast path's tables, or None where ``long double`` is no wider than
    a double or when they fail the self-check: a hard value whose text
    differs from ``%``'s, or a floating-point error."""
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        return None
    tables = _build_tables()
    values = _hard_values()
    # short passes: the first write, and so this check, comes while a run's
    # trajectory is in memory
    for start in range(0, len(values), 256):
        chunk = values[start : start + 256]
        try:
            if _cells(chunk, tables).tobytes() != _cells(chunk, None).tobytes():
                return None
        except FloatingPointError:
            return None
    return tables


def _cells(v: np.ndarray, tables: Optional[_Tables]) -> np.ndarray:
    """The ``(len(v), WIDTH)`` cells of at most ``CHUNK`` values: the fast
    path's text where it applies (``tables`` given), else ``%``'s."""
    if tables is None:
        out, slow = np.empty((len(v), WIDTH), dtype=np.uint8), np.arange(len(v))
    else:
        out, slow = _fast_cells(v, tables)
    if len(slow):
        text = ("%-25.17g" * len(slow)) % tuple(v[slow].tolist())
        out[slow] = np.frombuffer(text.encode(), np.uint8).reshape(-1, WIDTH)
    return out


def _fast_cells(v: np.ndarray, tables: _Tables):
    """The fast path's cells of ``v``, and the indices of the values it
    leaves to ``%``."""
    k = len(v)
    nonzero = v != 0
    with np.errstate(all="raise"):
        regular = np.isfinite(v) & nonzero
        a = np.where(regular, np.abs(v), 1.0)
        ei = np.log10(a)
        np.floor(ei, out=ei)
        ei = ei.astype(np.intp)
        ei -= _E_MIN
        m = a.astype(np.longdouble)
        m *= np.take(tables.scale, ei)
        n = m.astype(np.int64)  # floor(m)
        fast = n >= 10**16
        fraction = (m - n).astype(np.float64)
        n += fraction > 0.5
        fast &= n < 10**17
        fast &= np.abs(fraction - 0.5) > 4 * _U * m.astype(np.float64)
        fast &= regular
    src = np.empty((k, _SOURCE), dtype=np.uint8)
    words = src.view(np.uint32)
    words[:, 0] = tables.prefix
    words[:, 1] = np.take(tables.exponent, ei)
    top = n // 10**8
    n -= top * 10**8
    lead = top // 10**8
    top -= lead * 10**8
    src[:, _LEAD] = lead
    src[:, _LEAD] += ord("0")
    src[:, _PAD] = ord(" ")
    groups = np.empty((4, k), dtype=np.int64)
    groups[0] = top // 10**4
    groups[1] = top - groups[0] * 10**4
    groups[2] = n // 10**4
    groups[3] = n - groups[2] * 10**4
    words[:, 3:] = np.take(tables.groups, groups).T
    # trailing zero digits: a group's own, plus the next group's when it is
    # all zeros; a fast value's lead digit is never 0
    group_zeros = np.take(tables.zeros, groups)
    zeros = group_zeros[0]
    for z in group_zeros[1:]:
        zeros = z + (z == 4) * zeros
    cls = np.take(tables.base_class, ei)
    cls += zeros
    cls[~nonzero] = _ZERO_CLASS
    cls += (v.view(np.int64) < 0) * _SIGNED  # the sign bit, set for -0.0 too
    # 32-bit offsets, as a pass's source rows hold well under 2**31 bytes:
    # the narrower index is quicker to build and to gather by
    index = np.take(tables.layouts, cls, axis=0).astype(np.int32)
    index += np.arange(0, k * _SOURCE, _SOURCE, dtype=np.int32)[:, None]
    out = np.take(src.ravel(), index)
    return out, np.flatnonzero(~fast & nonzero)


def cells(values) -> np.ndarray:
    """``values.shape + (WIDTH,)`` bytes: the ``"%.17g"`` text of each value,
    padded with spaces."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    tables = _tables()
    out = np.empty((len(flat), WIDTH), dtype=np.uint8)
    for start in range(0, len(flat), CHUNK):
        out[start : start + CHUNK] = _cells(flat[start : start + CHUNK], tables)
    return out.reshape(values.shape + (WIDTH,))


def _write_blocks(path, header: str, blocks) -> None:
    """Write ``header`` and the CSV lines of each ``(rows, cols, WIDTH)``
    block of cells; the separators overwrite the last byte of each cell."""
    with open(path, "wb") as f:
        f.write(header.encode() + b"\n")
        for rows in blocks:
            rows[:, :, -1] = ord(",")
            rows[:, -1, -1] = ord("\n")
            text = rows.ravel()
            f.write(text[text != ord(" ")])


def _row_blocks(table, lead=None):
    """Cells of the rows of a 2-D table of numbers (a bool reads ``1`` or
    ``0``), in blocks of whole rows, each at most ``CHUNK`` values or one
    row. ``lead`` holds the cells of a first column, copied in front of the
    rows rather than formatted."""
    table = np.asarray(table, dtype=np.float64)
    step = max(1, CHUNK // table.shape[1])
    for start in range(0, len(table), step):
        text = cells(table[start : start + step])
        if lead is not None:
            text = np.concatenate([lead[start : start + step, None], text], axis=1)
        yield text


def write_table(path, header: str, table) -> None:
    """Write ``header`` and the rows of a 2-D table of numbers (a bool reads
    ``1`` or ``0``)."""
    _write_blocks(path, header, _row_blocks(table))


def write_metrics_csv(path, series: MetricSeries, time_cells=None) -> None:
    """``t,sync_ratio,pin_ratio,lyapunov`` rows at full double precision;
    undefined ratios are written as nan. ``time_cells``, the :func:`cells`
    of ``series.times``, are copied into the ``t`` column; without them the
    times are formatted here."""
    nan = np.full(len(series.times), np.nan)
    table = np.column_stack(
        [
            nan if series.sync_ratio is None else series.sync_ratio,
            nan if series.pin_ratio is None else series.pin_ratio,
            series.lyapunov,
        ]
    )
    if time_cells is None:
        time_cells = cells(series.times)
    _write_blocks(path, "t,sync_ratio,pin_ratio,lyapunov", _row_blocks(table, time_cells))


def _rests(reference: np.ndarray) -> bool:
    """Whether every sample of ``reference`` has the bits of sample 0 (so
    ``-0.0`` differs from ``0.0``), compared a pass at a time."""
    bits = np.asarray(reference, dtype=np.float64).view(np.int64)
    step = max(1, CHUNK // bits.shape[1])
    return all((bits[start : start + step] == bits[0]).all() for start in range(0, len(bits), step))


def _trajectory_blocks(traj: Trajectory, time_cells: np.ndarray):
    """Cells of the ``t, node, x1..xn`` rows, node 0 the reference, for runs
    of samples whose values fill one formatting pass. The time cells are
    given, each copied to the rows of its sample; each node number is
    formatted once and its cell copied to every row, and so is a resting
    reference (every sample the bits of the first)."""
    samples, m, n = traj.states.shape
    resting = _rests(traj.reference)
    per_block = max(1, CHUNK // (m * n if resting else (m + 1) * n))
    nodes = cells(np.arange(m + 1.0))
    rest = cells(traj.reference[0]) if resting else None
    for start in range(0, samples, per_block):
        rows = slice(start, start + per_block)
        states = traj.states[rows]
        count = len(states)
        if resting:
            text = cells(states.ravel())
        else:
            text = cells(np.concatenate([traj.reference[rows].ravel(), states.ravel()]))
        block = np.empty((count, m + 1, n + 2, WIDTH), dtype=np.uint8)
        block[:, :, 0] = time_cells[rows, None]
        block[:, :, 1] = nodes
        if resting:
            block[:, 0, 2:] = rest
        else:
            block[:, 0, 2:] = text[: count * n].reshape(count, n, -1)
        block[:, 1:, 2:] = text[len(text) - count * m * n :].reshape(count, m, n, -1)
        yield block.reshape(count * (m + 1), n + 2, -1)


def write_trajectory_csv(path, traj: Trajectory, time_cells=None) -> None:
    """Long-form ``t,node,x1..xn`` rows; the reference is node 0.
    ``time_cells``, the :func:`cells` of ``traj.times``, are copied into the
    ``t`` column; without them the times are formatted here."""
    n = traj.states.shape[2]
    header = "t,node," + ",".join(f"x{k + 1}" for k in range(n))
    if time_cells is None:
        time_cells = cells(traj.times)
    _write_blocks(path, header, _trajectory_blocks(traj, time_cells))
