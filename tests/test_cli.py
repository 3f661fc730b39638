import numpy as np
import pytest

from nhskin import obc_spectrum
from nhskin.cli import PRESETS, main
from nhskin.io import model_from_config, parse_config, read_csv

FIG4A_MODEL = """\
[model]
family = GT
t1 = 2.1
t2 = 14.9
t3 = 11.2
t4 = 3.7
omega0 = 86.5
gamma = 2.8
n_cells = 10
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_spectrum_preset_roundtrip(tmp_path, capsys):
    assert main(["spectrum", "--preset", "fig4a", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    _, rows = read_csv(tmp_path / "spectrum.csv")
    back = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    model = model_from_config(PRESETS["fig4a"])
    w = obc_spectrum(model).eigenvalues
    assert np.array_equal(back, w)
    # the damped fig4a spectrum has a negative largest Im E, not a modulus
    assert out.startswith("spectrum: 40 modes, max Im E = -0.295493 rad/s, ")
    assert f"max Im E = {w.imag.max():.6g} rad/s" in out


def test_gbz_preset_both_formats(tmp_path, capsys):
    assert main(["gbz", "--preset", "fig4a", "--out", str(tmp_path),
                 "--format", "both"]) == 0
    assert "direction = Left" in capsys.readouterr().out
    assert (tmp_path / "gbz.csv").exists()
    assert (tmp_path / "gbz.svg").exists()


def test_gbz_charpoly_summary_line(tmp_path, capsys):
    cfg = _write(tmp_path, "cp.cfg", "[gbz]\nmethod = charpoly\n")
    assert main(["gbz", "--preset", "fig4e", "--config", cfg,
                 "--out", str(tmp_path / "cp")]) == 0
    assert capsys.readouterr().out == (
        "gbz: 480 points, direction = Left, mean log|beta| = -0.4178, "
        "touching point beta = -0.721256+0j\n")


def test_evolve_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, "run.cfg",
                 FIG4A_MODEL + "\n[evolve]\nhorizon = 2\nfs = 100\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("wavefield.csv", "wavefield.npz", "energy.csv",
                 "spectrogram_site1.csv"):
        assert (out / name).exists(), name


def test_evolve_zero_horizon_equals_initial_state(tmp_path):
    cfg = _write(tmp_path, "run.cfg",
                 FIG4A_MODEL + "\n[evolve]\nhorizon = 0\npoke_site = 7\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "wavefield.csv")
    assert len(rows) == 40          # one instant, every site
    psi = np.array([complex(float(r[2]), float(r[3])) for r in rows])
    expected = np.zeros(40, dtype=complex)
    expected[6] = 1.0
    assert np.array_equal(psi, expected)
    assert all(float(r[0]) == 0.0 for r in rows)


def _time_column(path):
    _, rows = read_csv(path)
    return sorted({float(r[0]) for r in rows})


def test_project_writes_coefficients(tmp_path, capsys):
    # 404 samples: decimated by 2, with the last one appended
    cfg = _write(tmp_path, "run.cfg",
                 FIG4A_MODEL + "\n[evolve]\nhorizon = 4.03\nfs = 100\n")
    out = tmp_path / "out"
    assert main(["project", "--config", cfg, "--out", str(out)]) == 0
    assert "dominant late mode" in capsys.readouterr().out
    for name in ("gbz_projection.csv", "mode_decomposition.csv", "gbz.csv"):
        assert (out / name).exists(), name
    times = _time_column(out / "gbz_projection.csv")
    assert _time_column(out / "mode_decomposition.csv") == times
    assert len(times) == 203
    assert times[-1] == pytest.approx(4.03)


def test_project_dominant_mode_is_first_of_symmetry_pair(tmp_path, capsys):
    """On fig4a the pair (E, -conj(E)) carries equal late weight up to
    rounding; the reported mode is the first of the pair in spectrum order."""
    cfg = _write(tmp_path, "run.cfg", "[evolve]\nhorizon = 10\n")
    assert main(["project", "--preset", "fig4a", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    assert "dominant late mode E = -10.5013-0.295493j rad/s" in capsys.readouterr().out


def test_phase_diagram_csv_symmetry(tmp_path):
    cfg = _write(tmp_path, "run.cfg", """\
[model]
family = GT
t1 = 1
t2 = 2
t3 = 3
t4 = 3

[phase_diagram]
t3_min = 1
t3_max = 5
t4_min = 1
t4_max = 5
resolution = 4
n_cells = 8
""")
    out = tmp_path / "out"
    assert main(["phase-diagram", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "phase_diagram.csv")
    assert len(rows) == 16
    labels = {(r[0], r[1]): r[2] for r in rows}
    swap = {"A": "Aprime", "Aprime": "A", "B": "Bprime", "Bprime": "B",
            "C": "Cprime", "Cprime": "C"}
    for (t3, t4), lab in labels.items():
        assert labels[(t4, t3)] == swap.get(lab, lab)


def test_sweep_writes_lambda_table(tmp_path):
    cfg = _write(tmp_path, "run.cfg", """\
[model]
family = GT
t1 = 1
t2 = 2
t3 = 4
t4 = 1

[sweep]
path = 1
samples = 3
horizon = 20
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["m", "t3", "t4", "lambda"]
    assert len(rows) == 3
    assert float(rows[0][1]) == 4.0 and float(rows[0][2]) == 1.0


def test_unknown_preset_is_config_error(tmp_path, capsys):
    assert main(["spectrum", "--preset", "nope", "--out", str(tmp_path)]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_malformed_config_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "[model]\nbogus = 1\n")
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, where", [
    ("gbz", "[gbz]\nn_sites = abc\n", "bad.cfg:2: "),
    ("gbz", "[gbz]\nmethod = foo\n", "bad.cfg:2: "),
    ("gbz", "[gbz]\ncross_check = yes\n", "bad.cfg:2: "),
    ("evolve", "[evolve]\nhorizon = 1\nfs = x\n", "bad.cfg:3: "),
    ("phase-diagram", "# no t3_min\n[phase_diagram]\nt3_max = 6\nt4_min = 0.2\n"
                      "t4_max = 6\nresolution = 4\n", "bad.cfg:2: "),
    ("evolve", "[evolve]\nhorizon = -5\n", "bad.cfg:2: "),
    ("evolve", "[evolve]\nhorizon = nan\n", "bad.cfg:2: "),
    ("evolve", "[evolve]\nhorizon = 1\nfs = 0\n", "bad.cfg:3: "),
    ("gbz", "[gbz]\ncross_check = true\ncross_tol = -1\n", "bad.cfg:3: "),
    # two keys set the window length, so no single line is at fault
    ("evolve", "[evolve]\nhorizon = 1\nfs = 100\n[stft]\nwindow_s = 0.001\n",
     "window (0 samples) must be >= 1 sample"),
    ("evolve", "[evolve]\nhorizon = 3\nfs = 100\n[stft]\nwindow_s = 1\nhop_s = 0.001\n",
     "hop (0 samples) must be >= 1 sample"),
], ids=["n_sites", "method", "cross_check", "fs", "no_t3_min", "horizon_negative",
        "horizon_nan", "fs_zero", "cross_tol_negative", "window_below_one_sample",
        "hop_below_one_sample"])
def test_bad_config_value_is_line_anchored_config_error(tmp_path, capsys, command,
                                                        text, where):
    cfg = _write(tmp_path, "bad.cfg", text)
    assert main([command, "--preset", "fig4a", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 2
    assert where in capsys.readouterr().err


def test_project_runs_the_gbz_cross_check(tmp_path, capsys):
    """project reads every [gbz] key: a tolerance far below the fig4a
    mismatch of the two GBZ methods must fail the cross-check."""
    cfg = _write(tmp_path, "run.cfg", "[evolve]\nhorizon = 1\nfs = 50\n\n"
                 "[gbz]\ncross_check = true\ncross_tol = 1e-9\n")
    assert main(["project", "--preset", "fig4a", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 3
    assert "GBZ methods disagree" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["spectrum", "--out", str(tmp_path)]) == 2
    assert "no configuration" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # undamped gapless-phase growth overflows double precision well before
    # the requested horizon, which must surface as a numerical failure
    cfg = _write(tmp_path, "run.cfg",
                 "[model]\ngamma = 0\n\n[evolve]\nhorizon = 250\nfs = 10\n")
    assert main(["evolve", "--preset", "fig4e", "--config", cfg,
                 "--out", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err
