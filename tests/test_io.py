import csv
import importlib.util
import io
import re
import xml.etree.ElementTree as ET
import zipfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhskin import (ConfigError, Family, GbzMethod, NumericalError, ValidationError,
                    make_model, obc_spectrum)
from nhskin import io as nio
from nhskin.analysis import PATH1, Phase
from nhskin.cli import main
from nhskin.io import (CONFIG_SCHEMA, FLOAT_FMT, REQUIRED, load_config,
                       model_from_config, parse_config, read_csv,
                       read_wavefield_npz, typed_config, write_coefficients_csv,
                       write_energy_csv, write_gbz_csv, write_phase_diagram_csv,
                       write_spectrogram_csv, write_spectrum_csv,
                       write_svg_heatmap, write_svg_scatter,
                       write_wavefield_csv, write_wavefield_npz)

finite_floats = st.floats(allow_nan=False, allow_infinity=False,
                          width=64)


@given(values=st.lists(finite_floats, min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_csv_roundtrip_is_exact(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "vals.csv"
    write_energy_csv(path, SimpleNamespace(times=np.array(values), P=-np.array(values)))
    _, rows = read_csv(path)
    # bit-exact, not approximately equal
    assert [float(r[0]) for r in rows] == values
    assert [float(r[1]) for r in rows] == [-v for v in values]


def test_spectrum_csv_roundtrip(tmp_path, model_a):
    w = obc_spectrum(model_a).eigenvalues
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, w)
    header, rows = read_csv(path)
    assert header == ["index", "Re_E", "Im_E"]
    back = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    assert np.array_equal(back, w)


def test_gbz_csv_columns(tmp_path, model_a):
    from nhskin import gbz_compute
    g = gbz_compute(model_a.with_(gamma=0.0, n_cells=40))
    path = tmp_path / "gbz.csv"
    write_gbz_csv(path, g)
    header, rows = read_csv(path)
    assert header == ["band_pair", "Re_beta", "Im_beta", "Re_E", "Im_E"]
    assert len(rows) == len(g.betas)
    back = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    assert np.array_equal(back, g.betas)


def _oracle_csv(header, rows) -> bytes:
    """Reference bytes: the row-by-row csv.writer loop the writers replaced."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([FLOAT_FMT % v if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def _awkward_floats(rng, shape):
    """Random floats over many magnitudes, with signed zeros, extremes and
    non-finite values."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    flat = x.reshape(-1)
    flat[::7] = -0.0
    flat[3::11] = 1.0 / 3.0
    flat[5::13] = np.finfo(float).tiny
    flat[6::17] = np.nan
    flat[8::19] = -np.inf
    flat[9::23] = np.inf
    return x


def _awkward_complex(rng, shape):
    """Complex values with awkward real and imaginary parts (built without
    arithmetic, which would turn an infinite part into NaNs)."""
    z = np.empty(shape, dtype=complex)
    z.real = _awkward_floats(rng, shape)
    z.imag = _awkward_floats(rng, shape)
    return z


@pytest.mark.parametrize("n_outer, n_inner, block, gauge_zeros", [
    # a single row
    pytest.param(1, 1, None, False, id="1-1-None"),
    # rows not a multiple of the block
    pytest.param(3, 5, 7, False, id="3-5-7"),
    # inner length longer than the block
    pytest.param(4, 10, 7, False, id="4-10-7"),
    # several default-size blocks, the last one partial
    pytest.param(1100, 17, None, False, id="1100-17-None"),
    # a real-gauge wavefield: Im = +0 on odd sites, Re = +0 on even ones
    pytest.param(300, 40, None, True, id="300-40-None-gauge-zeros"),
])
def test_grid_writers_match_row_oracle(tmp_path, monkeypatch, n_outer,
                                       n_inner, block, gauge_zeros):
    if block is not None:
        monkeypatch.setattr(nio, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(n_outer * 100 + n_inner)
    outer = _awkward_floats(rng, n_outer)
    inner = _awkward_floats(rng, n_inner)
    A = _awkward_complex(rng, (n_outer, n_inner))
    if gauge_zeros:
        A.imag[:, 0::2] = 0.0
        A.real[:, 1::2] = 0.0

    write_wavefield_csv(tmp_path / "w.csv",
                        SimpleNamespace(times=outer, amplitudes=A))
    assert (tmp_path / "w.csv").read_bytes() == _oracle_csv(
        ["time", "site", "Re_psi", "Im_psi"],
        ((float(t), ix + 1, float(A[it, ix].real), float(A[it, ix].imag))
         for it, t in enumerate(outer) for ix in range(n_inner)))

    C = A.reshape(n_outer, 1, n_inner)   # writer flattens trailing axes
    write_coefficients_csv(tmp_path / "c.csv", outer, C)
    assert (tmp_path / "c.csv").read_bytes() == _oracle_csv(
        ["time", "index", "Re", "Im"],
        ((float(t), j, float(A[it, j].real), float(A[it, j].imag))
         for it, t in enumerate(outer) for j in range(n_inner)))

    M = np.abs(A)
    write_spectrogram_csv(tmp_path / "s.csv", SimpleNamespace(
        frequencies=outer, times=inner, magnitudes=M))
    assert (tmp_path / "s.csv").read_bytes() == _oracle_csv(
        ["frequency", "time", "magnitude"],
        ((float(f), float(t), float(M[i, j]))
         for i, f in enumerate(outer) for j, t in enumerate(inner)))


def _check_flat_writers(tmp_path, rng):
    n = 23
    z = _awkward_complex(rng, n)
    w = _awkward_complex(rng, n)

    write_spectrum_csv(tmp_path / "spectrum.csv", z)
    assert (tmp_path / "spectrum.csv").read_bytes() == _oracle_csv(
        ["index", "Re_E", "Im_E"],
        ((i, float(E.real), float(E.imag)) for i, E in enumerate(z)))

    pairs = rng.integers(0, 2, n)
    write_gbz_csv(tmp_path / "gbz.csv",
                  SimpleNamespace(band_pair=pairs, betas=z, energies=w))
    assert (tmp_path / "gbz.csv").read_bytes() == _oracle_csv(
        ["band_pair", "Re_beta", "Im_beta", "Re_E", "Im_E"],
        ((int(p), float(b.real), float(b.imag), float(E.real), float(E.imag))
         for p, b, E in zip(pairs, z, w)))

    write_energy_csv(tmp_path / "energy.csv",
                     SimpleNamespace(times=z.real, P=w.real))
    assert (tmp_path / "energy.csv").read_bytes() == _oracle_csv(
        ["time", "P"], ((float(t), float(p)) for t, p in zip(z.real, w.real)))

    t3, t4 = _awkward_floats(rng, 4), _awkward_floats(rng, 3)
    phases = list(Phase)
    labels = np.empty((3, 4), dtype=object)
    for k in range(labels.size):
        labels.flat[k] = SimpleNamespace(label=phases[k % len(phases)])
    im = _awkward_floats(rng, (3, 4))
    write_phase_diagram_csv(tmp_path / "pd.csv", SimpleNamespace(
        t3_grid=t3, t4_grid=t4, labels=labels, im_magnitude=im))
    assert (tmp_path / "pd.csv").read_bytes() == _oracle_csv(
        ["t3", "t4", "label", "max_im"],
        ((float(a), float(b), labels[i4, i3].label.value, float(im[i4, i3]))
         for i4, b in enumerate(t4) for i3, a in enumerate(t3)))


def test_flat_writers_match_row_oracle(tmp_path, monkeypatch):
    # one block per table, then rows split over several blocks
    for block in (nio._BLOCK_ROWS, 5):
        monkeypatch.setattr(nio, "_BLOCK_ROWS", block)
        _check_flat_writers(tmp_path, np.random.default_rng(7))


def test_sweep_writer_matches_the_energy_writer(tmp_path, monkeypatch):
    """The sweep writer formats the shared time column once; each energy
    file must equal write_energy_csv's bytes, and sweep.csv the row oracle's."""
    rng = np.random.default_rng(11)
    times = _awkward_floats(rng, 23)
    traces = [SimpleNamespace(times=times, P=_awkward_floats(rng, 23)) for _ in range(2)]
    ms, lam = np.array([0.0, 0.725]), _awkward_floats(rng, 2)
    sweep = SimpleNamespace(path=PATH1, m_values=ms, traces=traces, growth_rates=lam)
    for block in (nio._BLOCK_ROWS, 5):
        monkeypatch.setattr(nio, "_BLOCK_ROWS", block)
        nio.write_sweep_csv(tmp_path, sweep)
        for m, trace in zip(ms, traces):
            write_energy_csv(tmp_path / "energy.csv", trace)
            assert ((tmp_path / f"energy_m{m:.3f}.csv").read_bytes()
                    == (tmp_path / "energy.csv").read_bytes())
        assert (tmp_path / "sweep.csv").read_bytes() == _oracle_csv(
            ["m", "t3", "t4", "lambda"],
            ((float(m), *map(float, PATH1.hoppings(m)), float(l))
             for m, l in zip(ms, lam)))


def test_sweep_energy_names_reject_samples_that_share_a_file():
    """Path 1 (m_max = 1.45) has distinct 3-decimal names up to 1451 samples."""
    names = nio.sweep_energy_names(PATH1.samples(1451))
    assert len(set(names)) == 1451 and names[-1] == "energy_m1.450.csv"
    with pytest.raises(ConfigError, match=r"share the energy file energy_m\d\.\d{3}\.csv"):
        nio.sweep_energy_names(PATH1.samples(1452))


def _percent17(v) -> bytes:
    return "".join(FLOAT_FMT % x + "\n" for x in np.asarray(v, dtype=float).tolist()).encode()


def _kernel17(v) -> bytes:
    return nio._format17(v, b"\n").tobytes().translate(None, b"\0")


def test_format17_matches_percent_on_every_class():
    """The vectorized kernel writes the bytes of %.17g: random bit patterns,
    values exponent-uniform over 1e+-300, integers below 1e17, every power
    of ten and its neighbours one ulp away, 2^53 +- 2, the neighbours of 1e16
    and 1e17, negatives, signed zeros, subnormals, infinities and NaN."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2 ** 64, 150_000, dtype=np.uint64).view(float)
    spread = 10.0 ** rng.uniform(-300, 300, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    ints = rng.integers(0, 10 ** 17, 50_000).astype(float)
    p10 = 10.0 ** np.arange(-300, 301)
    edges = np.array([2.0 ** 53 - 2, 2.0 ** 53, 2.0 ** 53 + 2, 1e16, 1e17, 0.0, -0.0,
                      5e-324, 2.2e-308, np.finfo(float).tiny, np.inf, -np.inf, np.nan])
    v = np.concatenate([bits, spread, ints, edges,
                        *(np.nextafter(x, y) for x in (p10, np.array([1e16, 1e17]))
                          for y in (0.0, np.inf)), p10])
    v = np.concatenate([v, -v])
    assert len(v) >= 300_000
    assert _kernel17(v) == _percent17(v)


def _ties(exponents, count):
    """Odd m / 2^(17 - k) in [10^k, 10^(k+1)): a half-integer times 10^(k-16),
    so a tie of the 17-digit rounding, for the first ``count`` odd m."""
    ties = np.array([(m + 2 * j) / 2.0 ** (17 - k) for k in exponents
                     for m in [(int(10.0 ** k * 2 ** (17 - k)) + 1) | 1]
                     for j in range(count)])
    k = np.floor(np.log10(ties))
    assert np.array_equal(k, np.repeat(exponents, count))
    return ties


#: ties where 10^(16-k) is not a double, so Dekker's product is not exact
_INEXACT_TIES = _ties([-8, -7], 2)


@pytest.mark.parametrize("values", [
    [np.nan, np.inf, -np.inf], [0.0, -0.0], [5e-324, -1e-310, 2.0e-308],
    [1e-250, -1e250, 1e300, -1e-300], _INEXACT_TIES, -_INEXACT_TIES])
def test_format17_hands_what_it_cannot_prove_to_percent(values):
    """Non-finite values, zeros, subnormals, magnitudes outside 1e+-240 and
    ties at a k where 10^(16-k) is inexact are not proven, and are written
    with the bytes of %."""
    v = np.asarray(values, dtype=float)
    assert not np.any(nio._digits17(v)[2])
    assert _kernel17(v) == _percent17(v)


def test_format17_proves_ties_where_the_power_of_ten_is_exact():
    """For k in [-6, 15], 10^(16-k) is a double, the product is exact and a
    tie is a tie: rint rounds it half to even, as % does.  (At k = 16 a tie
    is a half-integer above 10^16, where every double is an integer.)"""
    ties = _ties(range(-6, 16), 3)
    v = np.concatenate([ties, -ties])
    assert nio._digits17(v)[2].all()
    assert _kernel17(v) == _percent17(v)


def _layout_values():
    """m * 10^(k+1-c) for every decimal exponent k in [-8, 20] and digit count
    c in 1..17: every c-digit m not ending in 0 for c <= 2, and 200 random
    ones above."""
    rng = np.random.default_rng(40)
    values = []
    for k in range(-8, 21):
        for c in range(1, 18):
            m = (np.arange(10 ** (c - 1), 10 ** c) if c <= 2
                 else rng.integers(10 ** (c - 1), 10 ** c, 200))
            values += [float(f"{x}e{k + 1 - c}") for x in m.tolist() if x % 10]
    return np.array(values)


def test_format17_matches_percent_in_every_row_layout():
    """Every decimal exponent k in [-8, 20], which spans the exponential,
    "0.000" prefix, point-after-d0 and shifted-point layouts, with every
    count of kept digits 1..17, both signs and each end a writer uses."""
    v = _layout_values()
    kept = set()
    for x in v.tolist():
        mantissa, exponent = ("%.16e" % x).split("e")
        kept.add((int(exponent), len(mantissa.replace(".", "").rstrip("0"))))
    # d * 10^k for k in -7..-5 has no double within half a unit of its 17th
    # digit, for any of the nine d, so no double has 1 digit there
    unreachable = {(-7, 1), (-6, 1), (-5, 1)}
    cells = {(k, c) for k in range(-8, 21) for c in range(1, 18)}
    assert kept & cells == cells - unreachable
    assert nio._digits17(v)[2].all()
    for end in (",", "\r\n", "\n"):
        for signed in (v, -v):
            want = "".join(FLOAT_FMT % x + end for x in signed.tolist()).encode()
            assert nio._format17(signed, end.encode()).tobytes().translate(None, b"\0") == want


def test_format17_runs_its_kernel_block_by_block(monkeypatch):
    """A column longer than ``_BLOCK_ROWS`` reaches the kernel at most
    ``_BLOCK_ROWS`` values at a time, and its bytes still equal those of %
    across the block boundaries, with zeros on both sides of them."""
    n = nio._BLOCK_ROWS
    v = _awkward_floats(np.random.default_rng(41), 2 * n + 3)
    v[[n - 1, n, 2 * n - 1, 2 * n]] = [-0.0, 0.0, 1e-300, -0.0]
    sizes, kernel = [], nio._nonzero17
    monkeypatch.setattr(nio, "_nonzero17", lambda x, end: sizes.append(len(x)) or kernel(x, end))
    assert _kernel17(v) == _percent17(v)
    assert max(sizes) <= n and sum(sizes) == np.count_nonzero(v)


def test_format17_oracle_script_finds_no_mismatch(capsys):
    """``scripts/format17_oracle.py`` at N = 10^5 values per class exits 0,
    with 0 mismatches in each of its 9 classes."""
    path = Path(__file__).parents[1] / "scripts" / "format17_oracle.py"
    spec = importlib.util.spec_from_file_location("format17_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert oracle.main(["--n", "100000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9 and all(" 0 mismatches " in line for line in lines)


def test_format17_writes_signed_zeros_itself(monkeypatch):
    """0.0 and -0.0 never reach %: with the % format replaced by a sentinel
    they still read 0 and -0, while inf, which does reach %, takes it."""
    monkeypatch.setattr(nio, "FLOAT_FMT", "<%s>")
    assert _kernel17([0.0, -0.0, 1.5, -0.0, np.inf]) == b"0\n-0\n1.5\n-0\n<inf>\n"


#: the zero path of _format17: blocks with no zeros, only zeros of both
#: signs, one nonzero among zeros, and zeros at the first and last positions
_ZERO_CASES = {
    "no-zeros": np.r_[1.5, -2.25e-7, np.nan, 1e300, -np.inf, 5e-324, 0.1],
    "only-zeros": np.r_[0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0],
    "one-nonzero": np.r_[0.0, -0.0, 0.0, -1.0 / 3.0, -0.0, 0.0, 0.0],
    "zeros-at-ends": np.r_[-0.0, 2.5, np.inf, -1e-300, 7e22, np.nan, 0.0],
}


@pytest.mark.parametrize("values", _ZERO_CASES.values(), ids=_ZERO_CASES.keys())
def test_format17_zero_path_matches_percent(tmp_path, monkeypatch, values):
    assert _kernel17(values) == _percent17(values)
    monkeypatch.setattr(nio, "_BLOCK_ROWS", 5)
    A = np.empty((len(values), 2), dtype=complex)
    A.real, A.imag = values[:, None], values[::-1, None]
    write_wavefield_csv(tmp_path / "w.csv", SimpleNamespace(times=values, amplitudes=A))
    assert (tmp_path / "w.csv").read_bytes() == _oracle_csv(
        ["time", "site", "Re_psi", "Im_psi"],
        ((float(t), ix + 1, float(A[it, ix].real), float(A[it, ix].imag))
         for it, t in enumerate(values) for ix in range(2)))


def test_format17_proves_ordinary_values():
    rng = np.random.default_rng(5)
    v = 10.0 ** rng.uniform(-200, 200, 10_000)
    assert np.mean(nio._digits17(v)[2]) > 0.999


@given(values=st.lists(st.floats(width=64), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_energy_writer_in_small_blocks_matches_the_row_oracle(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("csv") / "energy.csv"
    with mock.patch.object(nio, "_BLOCK_ROWS", 5):
        write_energy_csv(path, SimpleNamespace(times=np.array(values), P=-np.array(values)))
    assert path.read_bytes() == _oracle_csv(["time", "P"], ((v, -v) for v in values))


def test_wavefield_npz_roundtrip_is_exact_and_stored(tmp_path):
    rng = np.random.default_rng(3)
    field = SimpleNamespace(times=np.linspace(0.0, 1.0, 11),
                            amplitudes=_awkward_complex(rng, (11, 8)))
    path = tmp_path / "wavefield.npz"
    write_wavefield_npz(path, field)
    times, amps = read_wavefield_npz(path)
    for back, orig in ((times, field.times), (amps, field.amplitudes)):
        assert back.dtype == orig.dtype and back.shape == orig.shape
        assert back.tobytes() == orig.tobytes()   # bit-identical
    with zipfile.ZipFile(path) as zf:
        assert {i.compress_type for i in zf.infolist()} == {zipfile.ZIP_STORED}


def test_svg_heatmap_is_valid_xml(tmp_path):
    path = tmp_path / "h.svg"
    write_svg_heatmap(path, np.arange(12.0).reshape(3, 4), title="demo")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == 12


def _oracle_viridis(u: float) -> str:
    """The per-cell colour of the heatmap writer before it was vectorized."""
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


def _oracle_heatmap(V, title, cell) -> bytes:
    """The heatmap writer's bytes, one cell at a time."""
    lo, hi = float(np.nanmin(V)), float(np.nanmax(V))
    span = hi - lo if hi > lo else 1.0
    ny, nx = V.shape
    margin = 20
    body = [f'<text x="{margin}" y="14" font-size="12">{title}</text>'] if title else []
    for iy in range(ny):
        for ix in range(nx):
            c = _oracle_viridis((V[iy, ix] - lo) / span)
            body.append(f'<rect x="{margin + ix * cell}" y="{margin + (ny - 1 - iy) * cell}" '
                        f'width="{cell}" height="{cell}" fill="{c}"/>')
    w, h = 2 * margin + nx * cell, 2 * margin + ny * cell
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
            f'height="{h}" viewBox="0 0 {w} {h}">')
    return ("\n".join([head, *body, "</svg>"]) + "\n").encode()


_rng = np.random.default_rng(23)
_HEATMAPS = {
    "random": _rng.random((17, 29)),
    "random-wide-range": _rng.standard_normal((9, 40)) * 10.0 ** _rng.integers(-5, 5, (9, 40)),
    # u = i / 10 exactly, and (V - lo) / span on the stops of a 0..10 range
    "on-the-stops": np.c_[np.arange(11) / 10, np.arange(11)[::-1] / 10],
    "on-the-stops-0-10": np.arange(11.0).reshape(1, 11),
    "constant": np.full((3, 5), 2.5),
    "negative": -_rng.random((6, 7)) - 3.0,
}


@pytest.mark.parametrize("V", _HEATMAPS.values(), ids=_HEATMAPS.keys())
def test_svg_heatmap_matches_the_per_cell_oracle(tmp_path, V):
    write_svg_heatmap(tmp_path / "h.svg", V, title="t", cell=3)
    assert (tmp_path / "h.svg").read_bytes() == _oracle_heatmap(V, "t", 3)
    write_svg_heatmap(tmp_path / "h.svg", V)
    assert (tmp_path / "h.svg").read_bytes() == _oracle_heatmap(V, "", 12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svg_heatmap_rejects_cells_that_are_not_finite(tmp_path, bad):
    """A cell that is not finite has no colour: the writer raises
    NumericalError (exit 3 from the CLI) naming how many there are."""
    with pytest.raises(NumericalError, match="heatmap 'x': 1 of 4 cells are not finite"):
        write_svg_heatmap(tmp_path / "h.svg", [[1.0, bad], [2.0, 3.0]], title="x")
    with pytest.raises(NumericalError, match="2 of 4 cells"):
        write_svg_heatmap(tmp_path / "h.svg", [[bad, bad], [2.0, 3.0]])
    assert not (tmp_path / "h.svg").exists()


def test_svg_heatmap_rejects_1d(tmp_path):
    with pytest.raises(ValidationError):
        write_svg_heatmap(tmp_path / "h.svg", np.arange(5.0))


def test_svg_scatter_is_valid_xml(tmp_path):
    path = tmp_path / "s.svg"
    write_svg_scatter(path, [0.1, -0.5], [0.2, 0.3])
    root = ET.parse(path).getroot()
    circles = [e for e in root.iter() if e.tag.endswith("circle")]
    assert len(circles) == 3   # unit circle + 2 points


def test_parse_config_happy_path():
    cfg = parse_config("""
# comment
[model]
family = GT
t1 = 1
t2 = 2
t3 = 3
t4 = 4

[evolve]
horizon = 5
""")
    assert cfg["model"]["family"] is Family.GT
    assert cfg["model"]["t3"] == 3.0 and type(cfg["model"]["t3"]) is float
    assert cfg["evolve"]["horizon"] == 5.0 and type(cfg["evolve"]["horizon"]) is float


def test_parse_config_converts_each_type():
    cfg = parse_config("[gbz]\nmethod = charpoly\nn_sites = 80\n"
                       "cross_check = TRUE\ncross_tol = 1e-4\n")
    assert cfg["gbz"] == {"method": GbzMethod.CHARPOLY, "n_sites": 80,
                          "cross_check": True, "cross_tol": 1e-4}
    with pytest.raises(ConfigError, match=r"<config>:2: \[model\] n_cells = '2.5' "
                       "is not an integer"):
        parse_config("[model]\nn_cells = 2.5\n")
    with pytest.raises(ConfigError, match=r":3: \[model\] family = 'gt' is not one of "
                       "GT, HatanoNelson, NHSSH"):
        parse_config("[model]\nt1 = 1\nfamily = gt\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_parses(tmp_path):
    example = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    cfg = parse_config(example, source="README.md")
    assert set(cfg) == set(CONFIG_SCHEMA)
    assert model_from_config(cfg) == make_model(Family.GT, 2.1, 14.9, 11.2, 3.7,
                                                omega0=86.5, gamma=2.8)
    path = tmp_path / "readme.cfg"
    path.write_text(example)
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path)]) == 0


def test_readme_key_table_matches_schema():
    """Each row of the README's key table names a schema key and its default."""
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| [^|]+ \| ([^|]+) \|",
                      README.read_text(), re.M)
    table = {(section, key): default.strip() for section, key, default in rows}
    assert set(table) == {(section, key) for section, keys in CONFIG_SCHEMA.items()
                          for key in keys}
    for (section, key), text in table.items():
        default = CONFIG_SCHEMA[section][key][1]
        if text == "required":
            assert default is REQUIRED, key
        elif text == "unset":
            assert default is None, key
        else:
            value = typed_config({section: {key: text.strip("`")}}, "README.md")[section][key]
            assert value == default, key


def test_parse_config_unknown_key_is_line_anchored():
    text = "[model]\nfamily = GT\nbogus = 1\n"
    with pytest.raises(ConfigError, match=r"<config>:3: unknown key 'bogus'"):
        parse_config(text)
    # evolve has one propagator, so there is no method to choose
    with pytest.raises(ConfigError, match=r"<config>:2: unknown key 'method'"):
        parse_config("[evolve]\nmethod = auto\n")


def test_parse_config_unknown_section():
    with pytest.raises(ConfigError, match=r":1: unknown section"):
        parse_config("[nope]\n")
    with pytest.raises(ConfigError, match=r":1: unknown section \[run\]"):
        parse_config("[run]\nseed = 1\n")


def test_parse_config_key_outside_section():
    with pytest.raises(ConfigError, match=r":1: key outside"):
        parse_config("t1 = 1\n")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match=r":3: duplicate key"):
        parse_config("[model]\nt1 = 1\nt1 = 2\n")


def test_parse_config_missing_equals():
    with pytest.raises(ConfigError, match=r":2: expected"):
        parse_config("[model]\njust words\n")


def test_model_from_config_requires_model_section():
    with pytest.raises(ConfigError, match="no \\[model\\]"):
        model_from_config({})


def test_model_from_config_missing_keys():
    with pytest.raises(ConfigError, match="missing keys"):
        model_from_config(parse_config("[model]\nfamily = GT\n"))


def test_load_config_uses_filename_in_errors(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("[model]\nwhat = 1\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2"):
        load_config(p)
