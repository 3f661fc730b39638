"""CSV/SVG emitters, readers, and the plain-text run-configuration parser.

CSV uses 17-significant-digit decimals so that every float round-trips
bit-exactly.  Every CSV writer goes through one column core: a block of
rows is formatted by one ``%`` on the row template repeated once per row,
with the 17-digit format for float columns and ``%s`` for string ones,
giving the bytes ``csv.writer`` would.  Grid-shaped outputs (wavefields,
coefficients, spectrograms) format their outer value once and tile their
inner labels.  Every table is formatted and written in blocks of about
16k rows so memory stays flat.
Wavefield ``.npz`` files are stored uncompressed, because ``zlib`` saves
only about 3% on these complex arrays.
SVG output is generated directly (no plotting dependency).
The configuration format is INI-like: ``[section]`` headers and
``key = value`` lines; unknown keys are rejected with the offending line
number in the message.
"""

from __future__ import annotations

import csv
import io as _io
from pathlib import Path

import numpy as np

from .errors import ConfigError, ValidationError
from .model import BC, Family, LatticeModel, make_model

FLOAT_FMT = "%.17g"
#: Rows the writers format and write at a time, so that the strings held
#: in memory stay bounded however large the array is.
_BLOCK_ROWS = 16384


# ---------------------------------------------------------------- CSV core

def _floats(values) -> list[str]:
    """A float array (any shape, C order) as 17-digit field strings."""
    return list(map(FLOAT_FMT.__mod__,
                    np.asarray(values, dtype=float).ravel().tolist()))


def _text(value) -> str:
    """One non-float field, quoted as csv.writer's minimal quoting does."""
    s = "" if value is None else str(value)
    if any(c in s for c in ',"\r\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def _repeat(fields: list[str], n: int) -> list[str]:
    """Each field ``n`` times in a row: the outer column of a grid."""
    return [s for s in fields for _ in range(n)]


def _write_rows(fh, columns) -> None:
    """Write equal-length columns as ``\\r\\n`` CSV rows.

    A float ``ndarray`` column takes the 17-digit format; any other column
    is a list of field strings.  Each block of up to ``_BLOCK_ROWS`` rows is
    formatted by one ``%`` on the row template repeated once per row."""
    row = ",".join(FLOAT_FMT if isinstance(c, np.ndarray) else "%s"
                   for c in columns) + "\r\n"
    n = len(columns[0])
    for i in range(0, n, _BLOCK_ROWS):
        k = min(_BLOCK_ROWS, n - i)
        fields = np.empty((k, len(columns)), dtype=object)
        for j, c in enumerate(columns):
            fields[:, j] = c[i:i + k]
        fh.write((row * k) % tuple(fields.ravel().tolist()))


def _write_table(path, header, blocks) -> None:
    """Write the header, then each block (a list of columns) in turn."""
    with Path(path).open("w", newline="") as fh:
        _write_rows(fh, [[_text(h)] for h in header])
        for columns in blocks:
            _write_rows(fh, columns)


def _column(values) -> np.ndarray:
    """A float array (any shape, C order) as one flat float column."""
    return np.asarray(values, dtype=float).ravel()


def _grid_blocks(outer, inner: list[str], *values):
    """Columns ``outer[i], inner[j], v[i, j] for v in values``, j fastest.

    The outer values are formatted once and repeated, the inner labels are
    tiled, and each block covers whole outer steps of about ``_BLOCK_ROWS``
    rows (one step when ``inner`` alone is longer).
    """
    outer = _floats(outer)
    step = max(1, _BLOCK_ROWS // max(1, len(inner)))
    for i in range(0, len(outer), step):
        head = outer[i:i + step]
        yield [_repeat(head, len(inner)), inner * len(head),
               *(_column(v[i:i + step]) for v in values)]


def write_csv(path, header: list[str], rows) -> None:
    """Write equal-length rows of numbers/strings; floats use the 17-digit format."""
    columns = [[FLOAT_FMT % v if isinstance(v, float) else _text(v) for v in col]
               for col in zip(*rows)]
    _write_table(path, header, [columns])


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with Path(path).open(newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        return header, [row for row in r]


# ------------------------------------------------------------- exporters

def write_spectrum_csv(path, spectrum) -> None:
    E = spectrum.eigenvalues
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


def write_spectrogram_csv(path, spectrogram) -> None:
    _write_table(path, ["frequency", "time", "magnitude"],
                 _grid_blocks(spectrogram.frequencies, _floats(spectrogram.times),
                              spectrogram.magnitudes))


def write_phase_diagram_csv(path, diagram) -> None:
    t3, t4 = _floats(diagram.t3_grid), _floats(diagram.t4_grid)
    _write_table(path, ["t3", "t4", "label", "max_im"],
                 [[t3 * len(t4), _repeat(t4, len(t3)),
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


def _viridis(u: float) -> str:
    """Small fixed-stop approximation of a perceptual colormap."""
    stops = [(0.267, 0.005, 0.329), (0.283, 0.141, 0.458),
             (0.254, 0.265, 0.530), (0.207, 0.372, 0.553),
             (0.164, 0.471, 0.558), (0.128, 0.567, 0.551),
             (0.135, 0.659, 0.518), (0.267, 0.749, 0.441),
             (0.478, 0.821, 0.318), (0.741, 0.873, 0.150),
             (0.993, 0.906, 0.144)]
    u = min(max(float(u), 0.0), 1.0) * (len(stops) - 1)
    i = min(int(u), len(stops) - 2)
    f = u - i
    rgb = [(1 - f) * a + f * b for a, b in zip(stops[i], stops[i + 1])]
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in rgb)


def write_svg_heatmap(path, values: np.ndarray, title: str = "",
                      cell: int = 12) -> None:
    """Render a matrix as a colored-cell heatmap (row 0 at the bottom)."""
    V = np.asarray(values, dtype=float)
    if V.ndim != 2:
        raise ValidationError("heatmap expects a 2-D array")
    lo, hi = float(np.nanmin(V)), float(np.nanmax(V))
    span = hi - lo if hi > lo else 1.0
    ny, nx = V.shape
    margin = 20
    body = []
    if title:
        body.append(f'<text x="{margin}" y="14" font-size="12">{title}</text>')
    for iy in range(ny):
        for ix in range(nx):
            c = _viridis((V[iy, ix] - lo) / span)
            x = margin + ix * cell
            y = margin + (ny - 1 - iy) * cell
            body.append(f'<rect x="{x}" y="{y}" width="{cell}" '
                        f'height="{cell}" fill="{c}"/>')
    doc = _svg_document(2 * margin + nx * cell, 2 * margin + ny * cell, body)
    Path(path).write_text(doc + "\n")


def write_svg_scatter(path, x, y, title: str = "", unit_circle: bool = True) -> None:
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
            'stroke="#999" stroke-width="1"/>']
    if unit_circle:
        body.append(f'<circle cx="{sx(0)}" cy="{sy(0)}" r="{(half - 10) / lim}" '
                    'fill="none" stroke="#ccc" stroke-dasharray="4 3"/>')
    if title:
        body.append(f'<text x="10" y="14" font-size="12">{title}</text>')
    for xi, yi in zip(x.ravel(), y.ravel()):
        body.append(f'<circle cx="{sx(xi):.2f}" cy="{sy(yi):.2f}" r="2.2" '
                    'fill="#1f77b4"/>')
    Path(path).write_text(_svg_document(size, size, body) + "\n")


# ------------------------------------------------------- config file parser

#: allowed keys per section; the model block mirrors the LatticeModel schema
CONFIG_SCHEMA = {
    "model": {"family", "t1", "t2", "t3", "t4", "omega0", "gamma",
              "n_cells", "bc", "nhssh_delta"},
    "evolve": {"horizon", "fs", "poke_site"},
    "gbz": {"method", "n_sites", "cross_check", "cross_tol"},
    "stft": {"window_s", "hop_s"},
    "phase_diagram": {"t3_min", "t3_max", "t4_min", "t4_max",
                      "resolution", "n_cells"},
    "sweep": {"path", "samples", "horizon", "n_cells"},
}

_MODEL_DEFAULTS = {"omega0": "0", "gamma": "0", "n_cells": "10", "bc": "OBC"}


def parse_config(text: str, source: str = "<config>") -> dict[str, dict[str, str]]:
    """Parse an INI-like config into {section: {key: value}}.

    Raises :class:`ConfigError` with the line number for syntax errors,
    unknown sections, unknown keys, and duplicate keys.
    """
    sections: dict[str, dict[str, str]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in CONFIG_SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{source}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA[current]:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        sections[current][key] = value
    return sections


def load_config(path) -> dict[str, dict[str, str]]:
    path = Path(path)
    return parse_config(path.read_text(), source=str(path))


def model_from_config(cfg: dict[str, dict[str, str]]) -> LatticeModel:
    """Build a model from the [model] section, with documented defaults."""
    if "model" not in cfg:
        raise ConfigError("config has no [model] section")
    block = dict(_MODEL_DEFAULTS)
    block.update(cfg["model"])
    missing = {"family", "t1", "t2", "t3", "t4"} - set(block)
    if missing:
        raise ConfigError(f"[model] is missing keys: {', '.join(sorted(missing))}")
    try:
        delta = block.get("nhssh_delta")
        return make_model(block["family"], float(block["t1"]), float(block["t2"]),
                          float(block["t3"]), float(block["t4"]),
                          omega0=float(block["omega0"]), gamma=float(block["gamma"]),
                          n_cells=int(block["n_cells"]), bc=block["bc"],
                          nhssh_delta=None if delta is None else float(delta))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"[model] has an invalid value: {exc}") from exc


def model_to_config(model: LatticeModel) -> str:
    """Serialize a model back to the [model] block."""
    lines = ["[model]",
             f"family = {model.family.value}",
             f"t1 = {FLOAT_FMT % model.t1}",
             f"t2 = {FLOAT_FMT % model.t2}",
             f"t3 = {FLOAT_FMT % model.t3}",
             f"t4 = {FLOAT_FMT % model.t4}",
             f"omega0 = {FLOAT_FMT % model.omega0}",
             f"gamma = {FLOAT_FMT % model.gamma}",
             f"n_cells = {model.n_cells}",
             f"bc = {model.bc.value}"]
    if model.nhssh_delta is not None:
        lines.append(f"nhssh_delta = {FLOAT_FMT % model.nhssh_delta}")
    return "\n".join(lines) + "\n"
