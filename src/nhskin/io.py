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
``key = value`` lines.  ``CONFIG_SCHEMA`` gives every key its converter and
its default, and each value is converted on the line that sets it; unknown
keys and values that do not convert are rejected with the offending line
number in the message.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .analysis import PATH1, PATH2
from .errors import ConfigError, ValidationError
from .gbz import GbzMethod
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


#: what a value that a converter rejects should have been
_EXPECTED = {float: "a number", int: "an integer", _bool: "true or false",
             _nonnegative: "a finite number >= 0", _positive: "a finite number > 0"}

#: every key per section as (type, default); a type is a converter of the
#: key's text or a dict of its options.  The [model] and [gbz] keys are the
#: parameter names of make_model and gbz_compute.
CONFIG_SCHEMA = {
    "model": {"family": ({f.value: f for f in Family}, REQUIRED),
              "t1": (float, REQUIRED), "t2": (float, REQUIRED),
              "t3": (float, REQUIRED), "t4": (float, REQUIRED),
              "omega0": (float, 0.0), "gamma": (float, 0.0), "n_cells": (int, 10),
              "bc": ({b.value: b for b in BC}, BC.OBC), "nhssh_delta": (float, None)},
    "evolve": {"horizon": (_nonnegative, 20.0), "fs": (_positive, 500.0),
               "poke_site": (int, 20)},
    "gbz": {"method": ({m.value: m for m in GbzMethod}, GbzMethod.OBC_FIT),
            "n_sites": (int, 160), "cross_check": (_bool, False),
            "cross_tol": (_positive, 1e-3)},
    "stft": {"window_s": (_positive, 2.0), "hop_s": (_positive, 0.1)},
    "phase_diagram": {"t3_min": (float, REQUIRED), "t3_max": (float, REQUIRED),
                      "t4_min": (float, REQUIRED), "t4_max": (float, REQUIRED),
                      "resolution": (int, REQUIRED), "n_cells": (int, 25)},
    "sweep": {"path": ({"1": PATH1, "2": PATH2}, PATH1), "samples": (int, 13),
              "horizon": (_positive, 80.0), "n_cells": (int, 10)},
}


class Section(dict):
    """The typed values of one config section.  ``where`` is what set them
    last, the ``file:line`` of the section header or a preset, or None when
    nothing did; reading an unset key raises :class:`ConfigError` naming it."""

    def __init__(self, name: str, where: str | None, values=()):
        super().__init__(values)
        self.name = name
        self.where = where

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
            cfg[name].update(section)
            cfg[name].where = getattr(section, "where", "config")
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


def model_to_config(model: LatticeModel) -> str:
    """Serialize a model back to the [model] block, leaving out unset keys."""
    lines = ["[model]"]
    for key in CONFIG_SCHEMA["model"]:
        value = getattr(model, key)
        if isinstance(value, float):
            lines.append(f"{key} = {FLOAT_FMT % value}")
        elif value is not None:
            lines.append(f"{key} = {getattr(value, 'value', value)}")
    return "\n".join(lines) + "\n"
