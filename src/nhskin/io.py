"""CSV/SVG emitters, readers, and the plain-text run-configuration parser.

CSV uses 17-significant-digit decimals so that every float round-trips
bit-exactly.  Every CSV writer goes through one row writer and one float
formatter: an exact vectorized kernel for ``"%.17g" % v`` on Dekker's exact
product (Numer. Math. 18, 224 (1971)), which hands the rare value it cannot
prove to ``%``; zeros skip the kernel and are written as "0" or "-0".  The
kernel writes each float as one 32-byte row of four uint64 words, the digits
placed by word arithmetic rather than one slot per digit, as in the
fixed-precision printing of Ryu printf (Adams, PLDI 2019): a table gives the
ASCII of each 4-digit group, a shift of the row by one byte places the point
inside the digits, and one AND drops the trailing zeros.  Each column of a
block becomes NUL-padded byte rows (floats from the kernel, ASCII labels as
fixed-width strings), and the block is joined into the bytes ``csv.writer``
would give.  Columns written many times (a grid's outer values and inner
labels, the sweep's shared time grid, the phase diagram's axes) are
formatted once and packed to their widest field before they are repeated or
tiled.  Tables are written, and the kernel and the packing run, in blocks
of about 8k rows so memory stays flat.
Wavefield ``.npz`` files are stored uncompressed, because ``zlib`` saves
only about 3% on these complex arrays.
SVG output is generated directly (no plotting dependency); a heatmap's
colours are computed for the whole matrix in one array pass.
The configuration format is INI-like: ``[section]`` headers and
``key = value`` lines.  ``CONFIG_SCHEMA`` gives every key its converter and
its default, and each value is converted on the line that sets it; unknown
keys and values that do not convert are rejected with the offending line
number in the message.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import PATH1, PATH2
from .errors import ConfigError, NumericalError, ValidationError
from .gbz import GbzMethod
from .model import Family, LatticeModel, make_model

FLOAT_FMT = "%.17g"
#: Rows the writers format and write at a time, so that the bytes held
#: in memory stay bounded however large the array is.  A float is a 32-byte
#: row, so ``project --preset fig4a`` peaks at 52.8 MiB (VmHWM) with blocks
#: of 8192 rows, as with 4096; blocks of 16384 rows raise it to 56.0 MiB.
_BLOCK_ROWS = 8192


# ---------------------------------------------------------------- CSV core

def _fields(column, end: bytes) -> np.ndarray:
    """A column as uint8 rows, each field followed by ``end`` and NUL
    padding to drop: a float array through :func:`_format17`, a uint8
    matrix as it is (fields already formatted), any other column as ASCII
    strings."""
    if isinstance(column, np.ndarray) and column.dtype == np.uint8:
        return column
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return _format17(column, end)
    text = np.char.add(np.asarray(column, dtype="S"), end)
    return text.view(np.uint8).reshape(len(text), text.itemsize)


def _write_rows(fh, columns) -> None:
    """Write equal-length columns (see :func:`_fields`) as ``\\r\\n`` CSV
    rows.  Each block of up to ``_BLOCK_ROWS`` rows is joined by one
    ``np.concatenate`` and its NULs are dropped by one ``bytes.translate``."""
    ends = [b","] * (len(columns) - 1) + [b"\r\n"]
    for i in range(0, len(columns[0]), _BLOCK_ROWS):
        block = [_fields(c[i:i + _BLOCK_ROWS], end) for c, end in zip(columns, ends)]
        fh.write(np.concatenate(block, axis=1).tobytes().translate(None, b"\0"))


def _write_table(path, header, blocks) -> None:
    """Write the header (plain names, which need no quoting), then each
    block (a list of columns) in turn."""
    with Path(path).open("wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for columns in blocks:
            _write_rows(fh, columns)


def _packed(rows: np.ndarray) -> np.ndarray:
    """Byte rows (see :func:`_fields`) with their NULs dropped, left-aligned
    and NUL-padded to the longest, for a column written many times.  The
    masks are formed ``_BLOCK_ROWS`` rows at a time."""
    starts = range(0, len(rows), _BLOCK_ROWS)
    width = np.zeros(len(rows), np.intp)
    for i in starts:
        width[i:i + _BLOCK_ROWS] = np.count_nonzero(rows[i:i + _BLOCK_ROWS], axis=1)
    out = np.zeros((len(rows), width.max(initial=0)), np.uint8)
    for i in starts:
        block, w = rows[i:i + _BLOCK_ROWS], width[i:i + _BLOCK_ROWS, None]
        out[i:i + _BLOCK_ROWS][np.arange(out.shape[1]) < w] = block[block != 0]
    return out


def _column(values) -> np.ndarray:
    """A float array (any shape, C order) as one flat float column."""
    return np.asarray(values, dtype=float).ravel()


def _grid_blocks(outer, inner, *values):
    """Columns ``outer[i], inner[j], v[i, j] for v in values``, j fastest.

    The outer values and the inner labels (a column, see :func:`_fields`)
    are formatted and packed once; the outer rows are repeated and the inner
    ones tiled, and each block covers whole outer steps of about
    ``_BLOCK_ROWS`` rows (one step when ``inner`` alone is longer).
    """
    outer, inner = _packed(_format17(outer, b",")), _packed(_fields(inner, b","))
    step = max(1, _BLOCK_ROWS // max(1, len(inner)))
    for i in range(0, len(outer), step):
        head = outer[i:i + step]
        yield [np.repeat(head, len(inner), axis=0), np.tile(inner, (len(head), 1)),
               *(_column(v[i:i + step]) for v in values)]


#: Dekker's splitter 2^27 + 1, and the smallest and largest decimal exponent
#: k of the tables indexed by k (at ``k - _K0``)
_SPLIT, _K0, _K1 = 134217729.0, -248, 248


@functools.cache
def _pow10() -> np.ndarray:
    """10^(16-k) = hi + lo for every k of the tables (int / int rounds
    correctly), as rows (hi, hi's Dekker halves, lo)."""
    pows = [(10 ** max(j, 0), 10 ** max(-j, 0)) for j in range(16 - _K0, 15 - _K1, -1)]
    hi = np.array([num / den for num, den in pows])
    lo = np.array([(num * d - n * den) / (den * d)
                   for (num, den), (n, d) in zip(pows, map(float.as_integer_ratio, hi))])
    hh = _SPLIT * hi - (_SPLIT * hi - hi)
    return np.stack([hi, hh, hi - hh, lo], axis=1)


@functools.cache
def _row_tables():
    """The tables of a :func:`_nonzero17` row, built by array operations.

    By 4-digit group: its ASCII digits as a uint64, and the position 1-4 of
    its last nonzero digit, or -12 for the group 0000.  By 17 s + m, for the
    row layout s and the last nonzero digit m of d1..d16 (0 when there is
    none), 4 words each of: the bytes kept in place (255), the bytes taken
    from the row shifted down one byte (255), and the point.  The layout s
    is k where fixed notation moves digits ahead of the point
    (1 <= k <= 16), and 0 elsewhere.
    """
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)    # of 0000..9999
    ascii4 = np.ascontiguousarray((digits + ord("0")).T).view("<u4").ravel().astype(np.uint64)
    last4 = (np.arange(1, 5, dtype=np.int8)[:, None] * (digits != 0)).max(axis=0)
    last4[last4 == 0] = -12
    s, m, j = np.ogrid[:17, :17, :32]    # layout, last nonzero digit, byte of the row
    kept = (j <= 6) | (s == 0) & (j == 7) & (m >= 1) | (j >= 8 + s) & (j <= 7 + m) | (j >= 24)
    moved = (s >= 1) & (j >= 7) & (j <= 6 + s)
    point = (s >= 1) & (m > s) & (j == 7 + s)
    return ascii4, last4, *(
        np.broadcast_to(mask, (17, 17, 32)).astype(np.uint8).reshape(289, 32).view("<u8")
        for mask in (kept * 255, moved * 255, point * ord(".")))


@functools.cache
def _row_templates(end: bytes) -> np.ndarray:
    """By k, the 4 words of a :func:`_nonzero17` row before its sign and
    digits: the "0.000" prefix of fixed notation with k < 0, or else the
    point slot after d0; in bytes 24-28, "e+XX" or "e-XXX" where exponential
    notation is used (k < -4 or k > 16); and ``end`` (at most 2 bytes) in
    bytes 29-30."""
    k = np.arange(_K0, _K1 + 1)
    row = np.zeros((len(k), 32), np.uint8)
    at = np.arange(1, 6) - 5 - k[:, None]    # the byte of "0.000" in bytes 1-5
    prefixed = ((k >= -4) & (k < 0))[:, None] & (at >= 0)
    row[:, 1:6] = np.where(prefixed, np.frombuffer(b"0.000", np.uint8)[at.clip(0, 4)], 0)
    row[(k >= 0) | (k < -4), 7] = ord(".")
    exponential = (k < -4) | (k > 16)
    row[exponential, 24] = ord("e")
    row[exponential, 25] = np.where(k < 0, ord("-"), ord("+"))[exponential]
    row[exponential, 26:29] = (np.abs(k)[:, None] // [100, 10, 1] % 10 + ord("0"))[exponential]
    row[exponential & (np.abs(k) < 100), 26] = 0
    row[:, 29:29 + len(end)] = list(end)
    return row.view("<u8")


def _digits17(v: np.ndarray):
    """``(D, k, proven)``: |v| * 10^(16-k), rounded half-even to an integer D
    in [10^16, 10^17), from a double-double by Dekker's exact product, and
    whether D is proven.  It is not for values that are not finite and normal
    within 1e+-240.  Where 10^(16-k) is exact (k in [-6, 16]) the product is
    exact, so a low part of exactly +-0.5 is a true tie and ``rint`` rounds it
    half to even, as ``%`` does; at the other k, D is not proven where the
    low part is within 1e-6 of a half-integer."""
    pow10 = _pow10()
    a = np.abs(v)
    proven = (a >= 1e-240) & (a < 1e240)
    a = np.where(proven, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)

    def scaled(a, k):
        hi, hh, hl, lo = np.take(pow10, k - _K0, axis=0, mode="wrap").T
        ah = _SPLIT * a
        ah -= ah - a
        al = a - ah
        p = a * hi
        e = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
        s = p + e    # above 2^53 an even integer, so ties of rint(e) go to even
        e -= s - p
        r = np.rint(e)
        return s.astype(np.int64) + r.astype(np.int64), e - r

    D, f = scaled(a, k)
    for _ in range(2):    # log10 can miss k by one next to a power of ten
        step = (D > 10**17).astype(np.int64) - ((D < 10**16) | (D == 10**16) & (f < 0))
        fix = np.flatnonzero(step)
        if not len(fix):
            break
        k[fix] += step[fix]
        D[fix], f[fix] = scaled(a[fix], k[fix])
    proven &= (np.abs(np.abs(f) - 0.5) >= 1e-6) | (k >= -6) & (k <= 16)
    carry = D == 10**17    # rounded up to the next power of ten
    D, k = np.where(carry, 10**16, D), k + carry
    proven &= (D >= 10**16) & (D < 10**17)
    return D, k, proven


def _format17(values, end: bytes) -> np.ndarray:
    """Each float as the bytes of ``"%.17g" % v`` and ``end``, one 32-byte
    uint8 row per value with NUL in the bytes to drop (see
    :func:`_nonzero17`).  Zeros are written here as "0" or "-0"; only the
    other values go through the kernel, ``_BLOCK_ROWS`` at a time, so that
    its working set stays bounded however many values there are."""
    v = np.asarray(values, dtype=float).ravel()
    if len(v) > _BLOCK_ROWS:
        return np.concatenate([_format17(v[i:i + _BLOCK_ROWS], end)
                               for i in range(0, len(v), _BLOCK_ROWS)])
    zero = v == 0
    if not zero.any():
        return _nonzero17(v, end).view(np.uint8)
    zeros = np.zeros((2, 32), np.uint8)    # "0" and "-0"
    zeros[:, 1], zeros[1, 0], zeros[:, 24:24 + len(end)] = ord("0"), ord("-"), list(end)
    rows = np.concatenate([zeros.view("<u8"), _nonzero17(v[~zero], end)])
    at = np.where(zero, np.signbit(v), np.cumsum(~zero) + 1)
    return np.take(rows, at, axis=0).view(np.uint8)


def _nonzero17(v: np.ndarray, end: bytes) -> np.ndarray:
    """:func:`_format17` of nonzero floats, as 4 little-endian uint64 words
    per value: word 0 holds the sign, the "0.000" prefix of fixed notation
    with k < 0, d0 and a point slot; words 1-2 the digits d1..d16 of
    :func:`_digits17`; word 3 the exponent and ``end`` (see
    :func:`_row_templates`).  One AND drops the trailing zeros of the digits
    and a point slot that no digit follows.  Fixed notation with
    1 <= k <= 16 moves d1..dk down one byte, into the point slot, and puts
    the point after dk.  A value that the kernel cannot prove is handed to
    ``%``."""
    D, k, proven = _digits17(v)
    ascii4, last4, kept, moved, point = _row_tables()
    top = D // 10**8
    low = (D - top * 10**8).astype(np.int32)    # d9..d16
    top = top.astype(np.int32)    # d0..d8, as int32, which divides several times faster
    lead = top // 10**8
    high = top - lead * 10**8
    groups = np.empty((4, len(v)), np.int32)    # d1..d16 as four 4-digit groups
    np.floor_divide(high, 10**4, out=groups[0])
    np.floor_divide(low, 10**4, out=groups[2])
    np.subtract(high, groups[0] * 10**4, out=groups[1])
    np.subtract(low, groups[2] * 10**4, out=groups[3])
    groups = groups.astype(np.intp)
    # m is the largest 4 j + the position of the last nonzero digit in group
    # j; a group 0000 counts 4 j - 12 <= 0, so m = 0 when every group is 0000
    last = np.take(last4, groups, mode="wrap") + np.array([[0], [4], [8], [12]], np.int8)
    m = np.maximum(np.maximum(last[0], last[1]), np.maximum(last[2], last[3])).astype(np.intp)
    digits = np.take(ascii4, groups, mode="wrap")
    digits[1::2] <<= 32
    row = np.take(_row_templates(end), k - _K0, axis=0, mode="wrap")
    row[:, 0] |= (lead + ord("0")).astype(np.uint64) << 48 | np.signbit(v) * np.uint64(ord("-"))
    row[:, 1] = digits[0] | digits[1]
    row[:, 2] = digits[2] | digits[3]
    fixed = np.flatnonzero((k >= 1) & (k <= 16))
    w = np.take(row, fixed, axis=0)    # before the AND, whose masks are those of s = 0
    row &= np.take(kept, m, axis=0, mode="wrap")
    if len(fixed):
        i = 17 * np.take(k, fixed) + np.take(m, fixed)
        down = w >> 8    # the row one byte down, as one 256-bit integer
        down[:, :3] |= w[:, 1:] << 56
        down &= np.take(moved, i, axis=0, mode="wrap")
        w &= np.take(kept, i, axis=0, mode="wrap")
        w |= down
        w |= np.take(point, i, axis=0, mode="wrap")
        row[fixed] = w
    text = row.view(np.uint8)
    for i in np.flatnonzero(~proven):
        text[i] = np.frombuffer((FLOAT_FMT % v[i]).encode().ljust(24, b"\0")
                                + end.ljust(8, b"\0"), np.uint8)
    return row


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        return header, [row for row in r]


# ------------------------------------------------------------- exporters

def write_spectrum_csv(path, eigenvalues) -> None:
    E = np.asarray(eigenvalues)
    _write_table(path, ["index", "Re_E", "Im_E"],
                 [[list(map(str, range(len(E)))), _column(E.real), _column(E.imag)]])


def write_gbz_csv(path, gbz) -> None:
    _write_table(path, ["band_pair", "Re_beta", "Im_beta", "Re_E", "Im_E"],
                 [[[str(int(p)) for p in gbz.band_pair],
                   _column(gbz.betas.real), _column(gbz.betas.imag),
                   _column(gbz.energies.real), _column(gbz.energies.imag)]])


def write_wavefield_csv(path, field) -> None:
    A = field.amplitudes
    sites = list(map(str, range(1, A.shape[1] + 1)))
    _write_table(path, ["time", "site", "Re_psi", "Im_psi"],
                 _grid_blocks(field.times, sites, A.real, A.imag))


def write_wavefield_npz(path, field) -> None:
    """Binary columnar dump for large runs (stored, not compressed)."""
    np.savez(path, times=field.times, amplitudes=field.amplitudes)


def read_wavefield_npz(path):
    with np.load(path) as z:
        return z["times"], z["amplitudes"]


def write_energy_csv(path, trace) -> None:
    _write_table(path, ["time", "P"], [[_column(trace.times), _column(trace.P)]])


def sweep_energy_names(m_values) -> list[str]:
    """The ``energy_m<m>.csv`` file name of each sweep sample.

    Raises :class:`ConfigError` when two samples round to one name, because
    the later trace would overwrite the earlier one."""
    names = [f"energy_m{m:.3f}.csv" for m in m_values]
    first = {}
    for m, name in zip(m_values, names):
        if name in first:
            raise ConfigError(f"sweep samples m = {first[name]:.6g} and m = {m:.6g} "
                              f"share the energy file {name}; use fewer samples")
        first[name] = m
    return names


def write_sweep_csv(out, sweep) -> None:
    """``sweep.csv`` and one ``energy_m<m>.csv`` per sample into directory
    ``out``; the samples share one time grid, so its column is formatted and
    packed once."""
    names = sweep_energy_names(sweep.m_values)
    ms = _column(sweep.m_values)
    _write_table(Path(out) / "sweep.csv", ["m", "t3", "t4", "lambda"],
                 [[ms, *sweep.path.hoppings(ms), _column(sweep.growth_rates)]])
    times = _packed(_format17(sweep.traces[0].times, b","))
    for name, trace in zip(names, sweep.traces):
        _write_table(Path(out) / name, ["time", "P"], [[times, _column(trace.P)]])


def write_spectrogram_csv(path, spectrogram) -> None:
    _write_table(path, ["frequency", "time", "magnitude"],
                 _grid_blocks(spectrogram.frequencies, _column(spectrogram.times),
                              spectrogram.magnitudes))


def write_phase_diagram_csv(path, diagram) -> None:
    t3, t4 = (_packed(_format17(grid, b",")) for grid in (diagram.t3_grid, diagram.t4_grid))
    _write_table(path, ["t3", "t4", "label", "max_im"],
                 [[np.tile(t3, (len(t4), 1)), np.repeat(t4, len(t3), axis=0),
                   [lab.label.value for lab in diagram.labels.ravel()],
                   _column(diagram.im_magnitude)]])


def write_coefficients_csv(path, times, coefficients) -> None:
    """Projection/decomposition coefficients as (time, index, Re, Im)."""
    flat = np.asarray(coefficients).reshape(len(times), -1)
    index = list(map(str, range(flat.shape[1])))
    _write_table(path, ["time", "index", "Re", "Im"],
                 _grid_blocks(times, index, flat.real, flat.imag))


# ------------------------------------------------------------- SVG output

def _svg_document(width, height, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"])


#: the fixed stops of a small approximation of a perceptual colormap
_VIRIDIS = np.array([(0.267, 0.005, 0.329), (0.283, 0.141, 0.458),
                     (0.254, 0.265, 0.530), (0.207, 0.372, 0.553),
                     (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
                     (0.135, 0.659, 0.518), (0.267, 0.749, 0.441),
                     (0.478, 0.821, 0.318), (0.741, 0.873, 0.150),
                     (0.993, 0.906, 0.144)])


def _viridis(u: np.ndarray) -> list[str]:
    """The ``#rrggbb`` colour of each u (clipped to [0, 1]), linear between
    the stops; channels are rounded half to even, as ``round`` does."""
    u = np.clip(u, 0.0, 1.0).ravel() * (len(_VIRIDIS) - 1)
    i = np.minimum(u.astype(np.int64), len(_VIRIDIS) - 2)
    f = (u - i)[:, None]
    rgb = np.rint(255 * ((1 - f) * _VIRIDIS[i] + f * _VIRIDIS[i + 1])).astype(np.int64)
    return ["#%06x" % c for c in (rgb[:, 0] << 16 | rgb[:, 1] << 8 | rgb[:, 2]).tolist()]


def write_svg_heatmap(path, values: np.ndarray, title: str = "",
                      cell: int = 12) -> None:
    """Render a matrix as a colored-cell heatmap (row 0 at the bottom).

    Raises :class:`NumericalError` when a cell is not finite, since it has
    no colour."""
    V = np.asarray(values, dtype=float)
    if V.ndim != 2:
        raise ValidationError("heatmap expects a 2-D array")
    bad = V.size - np.count_nonzero(np.isfinite(V))
    if bad:
        raise NumericalError(f"heatmap {title!r}: {bad} of {V.size} cells are not finite")
    lo, hi = float(V.min()), float(V.max())
    span = hi - lo if hi > lo else 1.0
    ny, nx = V.shape
    margin = 20
    body = []
    if title:
        body.append(f'<text x="{margin}" y="14" font-size="12">{title}</text>')
    colours = _viridis((V - lo) / span)
    for iy in range(ny):
        y = margin + (ny - 1 - iy) * cell
        for ix in range(nx):
            body.append(f'<rect x="{margin + ix * cell}" y="{y}" width="{cell}" '
                        f'height="{cell}" fill="{colours[iy * nx + ix]}"/>')
    doc = _svg_document(2 * margin + nx * cell, 2 * margin + ny * cell, body)
    Path(path).write_text(doc + "\n")


def write_svg_scatter(path, x, y, title: str = "") -> None:
    """Scatter plot with auto-scaled axes and a unit-circle reference."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValidationError("x and y must have the same shape")
    lim = max(1.0, np.max(np.abs(x), initial=0), np.max(np.abs(y), initial=0)) * 1.1
    size = 420
    half = size / 2

    def sx(v):
        return half + v / lim * (half - 10)

    def sy(v):
        return half - v / lim * (half - 10)

    body = [f'<line x1="{sx(-lim)}" y1="{sy(0)}" x2="{sx(lim)}" y2="{sy(0)}" '
            'stroke="#999" stroke-width="1"/>',
            f'<line x1="{sx(0)}" y1="{sy(-lim)}" x2="{sx(0)}" y2="{sy(lim)}" '
            'stroke="#999" stroke-width="1"/>',
            f'<circle cx="{sx(0)}" cy="{sy(0)}" r="{(half - 10) / lim}" '
            'fill="none" stroke="#ccc" stroke-dasharray="4 3"/>']
    if title:
        body.append(f'<text x="10" y="14" font-size="12">{title}</text>')
    for xi, yi in zip(x.ravel(), y.ravel()):
        body.append(f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="2.2" '
                    'fill="#1f77b4"/>')
    Path(path).write_text(_svg_document(size, size, body) + "\n")


# ------------------------------------------------------- config file parser

#: the default of a key that must be set wherever a command reads it
REQUIRED = object()


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


def _nonnegative(text: str) -> float:
    value = float(text)
    if not 0 <= value < np.inf:
        raise ValueError(text)
    return value


def _positive(text: str) -> float:
    value = _nonnegative(text)
    if value == 0:
        raise ValueError(text)
    return value


@dataclass(frozen=True)
class _AtLeast:
    """Converter of an integer >= ``low``."""

    low: int

    def __call__(self, text: str) -> int:
        value = int(text)
        if value < self.low:
            raise ValueError(text)
        return value


#: what a value that a converter rejects should have been
_EXPECTED = {float: "a number", int: "an integer", _bool: "true or false",
             _nonnegative: "a finite number >= 0", _positive: "a finite number > 0",
             **{_AtLeast(k): f"an integer >= {k}" for k in (1, 2, 4)}}

#: every key per section as (type, default); a type is a converter of the
#: key's text or a dict of its options.  The [model] and [gbz] keys are the
#: parameter names of make_model and gbz_compute.
CONFIG_SCHEMA = {
    "model": {"family": ({f.value: f for f in Family}, REQUIRED),
              "t1": (float, REQUIRED), "t2": (float, REQUIRED),
              "t3": (float, REQUIRED), "t4": (float, REQUIRED),
              "omega0": (float, 0.0), "gamma": (float, 0.0), "n_cells": (_AtLeast(1), 10),
              "nhssh_delta": (float, None)},
    "evolve": {"horizon": (_nonnegative, 20.0), "fs": (_positive, 500.0),
               "poke_site": (int, 20)},
    "gbz": {"method": ({m.value: m for m in GbzMethod}, GbzMethod.OBC_FIT),
            "n_sites": (int, 160), "cross_check": (_bool, False),
            "cross_tol": (_positive, 1e-3)},
    "stft": {"window_s": (_positive, 2.0), "hop_s": (_positive, 0.1)},
    "phase_diagram": {"t3_min": (float, REQUIRED), "t3_max": (float, REQUIRED),
                      "t4_min": (float, REQUIRED), "t4_max": (float, REQUIRED),
                      "resolution": (_AtLeast(2), REQUIRED),
                      # each label fits the GBZ of its chain, which needs 4 cells
                      "n_cells": (_AtLeast(4), 25)},
    "sweep": {"path": ({"1": PATH1, "2": PATH2}, PATH1), "samples": (_AtLeast(2), 13),
              "horizon": (_positive, 80.0)},
}


class Section(dict):
    """The typed values of one config section.  ``where`` is what set the
    section last, the ``file:line`` of its header or a preset, or None when
    nothing did, and ``set_by`` maps each key that a layer set to that
    layer's ``where``; reading an unset key raises :class:`ConfigError`
    naming it."""

    def __init__(self, name: str, where: str | None, values=()):
        super().__init__(values)
        self.name = name
        self.where = where
        self.set_by: dict[str, str] = {}

    def __missing__(self, key):
        missing = ", ".join([k for k, (_, default) in CONFIG_SCHEMA[self.name].items()
                             if default is REQUIRED and k not in self] or [key])
        if self.where is None:
            raise ConfigError(f"config has no [{self.name}] section; it needs {missing}")
        raise ConfigError(f"{self.where}: [{self.name}] is missing keys: {missing}")


def merge_config(*layers) -> dict[str, Section]:
    """Every section holding the default of each key that has one, then
    updated key by key by each layer of sections in turn."""
    cfg = {name: Section(name, None, {k: default for k, (_, default) in keys.items()
                                      if default is not REQUIRED})
           for name, keys in CONFIG_SCHEMA.items()}
    for layer in layers:
        for name, section in layer.items():
            where = getattr(section, "where", "config")
            cfg[name].update(section)
            cfg[name].where = where
            cfg[name].set_by.update(dict.fromkeys(section, where))
    return cfg


def _convert(section: str, key: str, text: str, where: str):
    if key not in CONFIG_SCHEMA[section]:
        raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
    kind = CONFIG_SCHEMA[section][key][0]
    try:
        return kind[text] if isinstance(kind, dict) else kind(text)
    except (KeyError, ValueError):
        expected = ("one of " + ", ".join(kind) if isinstance(kind, dict)
                    else _EXPECTED[kind])
        raise ConfigError(f"{where}: [{section}] {key} = {text!r} is not {expected}") from None


def typed_config(blocks: dict[str, dict[str, str]], where: str) -> dict[str, Section]:
    """{section: {key: text}}, each value converted as :func:`parse_config` does."""
    return {name: Section(name, where, {key: _convert(name, key, text, where)
                                        for key, text in values.items()})
            for name, values in blocks.items()}


def parse_config(text: str, source: str = "<config>") -> dict[str, Section]:
    """Parse an INI-like config into {section: Section} of typed values.

    Each value is converted by its key's schema entry on the line that sets
    it.  Raises :class:`ConfigError` naming ``source:line`` for syntax
    errors, unknown sections and keys, duplicates, and values that do not
    convert.
    """
    sections: dict[str, Section] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        where = f"{source}:{lineno}"
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in CONFIG_SCHEMA:
                raise ConfigError(f"{where}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{where}: duplicate section [{name}]")
            current = sections[name] = Section(name, where)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{where}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in current:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        current[key] = _convert(current.name, key, value.strip(), where)
    return sections


def load_config(path) -> dict[str, Section]:
    path = Path(path)
    return parse_config(path.read_text(), source=str(path))


def model_from_config(cfg: dict) -> LatticeModel:
    """Build a model from the [model] section; each key it omits takes its
    default."""
    block = merge_config(cfg)["model"]
    return make_model(**{key: block[key] for key in CONFIG_SCHEMA["model"]})
