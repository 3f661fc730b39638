import csv
import io
import re
import xml.etree.ElementTree as ET
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhskin import ConfigError, Family, GbzMethod, ValidationError, make_model, obc_spectrum
from nhskin import io as nio
from nhskin.analysis import Phase
from nhskin.cli import main
from nhskin.io import (CONFIG_SCHEMA, FLOAT_FMT, REQUIRED, load_config,
                       model_from_config, model_to_config, parse_config, read_csv,
                       read_wavefield_npz, typed_config, write_coefficients_csv, write_csv,
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
    write_csv(path, ["v"], ((float(v),) for v in values))
    _, rows = read_csv(path)
    back = [float(r[0]) for r in rows]
    assert back == values   # bit-exact, not approximately equal


def test_spectrum_csv_roundtrip(tmp_path, model_a):
    spec = obc_spectrum(model_a)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spec)
    header, rows = read_csv(path)
    assert header == ["index", "Re_E", "Im_E"]
    back = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    assert np.array_equal(back, spec.eigenvalues)


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


@pytest.mark.parametrize("n_outer, n_inner, block", [
    (1, 1, None),      # a single row
    (3, 5, 7),         # rows not a multiple of the block
    (4, 10, 7),        # inner length longer than the block
    (1100, 17, None),  # several default-size blocks, the last one partial
])
def test_grid_writers_match_row_oracle(tmp_path, monkeypatch, n_outer,
                                       n_inner, block):
    if block is not None:
        monkeypatch.setattr(nio, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(n_outer * 100 + n_inner)
    outer = _awkward_floats(rng, n_outer)
    inner = _awkward_floats(rng, n_inner)
    A = _awkward_complex(rng, (n_outer, n_inner))

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

    write_spectrum_csv(tmp_path / "spectrum.csv", SimpleNamespace(eigenvalues=z))
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


def test_write_csv_mixed_fields_match_row_oracle(tmp_path):
    rows = [(np.float64(0.1), 3, "plain", None),
            (-0.0, np.int64(-2), 'has "quotes"', "a,b"),
            (1e300, True, "two\nlines", ""),
            (np.nan, -np.inf, "%s %d", "100%")]
    header = ["x", "n, count", 'say "text"', "note"]
    write_csv(tmp_path / "mixed.csv", header, rows)
    assert (tmp_path / "mixed.csv").read_bytes() == _oracle_csv(header, rows)


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
    with pytest.raises(ConfigError, match=r":3: \[model\] bc = 'obc' is not one of OBC, PBC"):
        parse_config("[model]\nfamily = GT\nbc = obc\n")


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


def test_model_config_roundtrip(model_b):
    text = model_to_config(model_b)
    back = model_from_config(parse_config(text))
    assert back == model_b


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
