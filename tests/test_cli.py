import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nhskin import (chain_eigenvalues, default_time_grid, evolve, gap_report, gbz_compute,
                    obc_decomposition, pair_with_negated_conjugate, poke_state,
                    scan_phase_diagram, stft, synthesize_signal, transition_sweep)
from nhskin.cli import PRESETS, main
from nhskin.io import model_from_config, parse_config, read_csv, write_spectrogram_csv

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


def _run_python(code, *args):
    """Run ``code`` in a fresh interpreter that imports nhskin from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_cli_import_does_not_load_scipy():
    # scipy.linalg and scipy.optimize took about 0.55 s and 48 MB of every
    # CLI start-up, scipy.signal about 0.7 s more
    loaded = _run_python("import sys; import nhskin.cli; print(' '.join(sorted("
                         "m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert loaded.split() == [], f"import nhskin.cli loads {loaded.strip()}"


_NO_SCIPY_RUN = """\
import contextlib, io, sys
from pathlib import Path
sys.modules["scipy"] = None    # any import of scipy, also a lazy one, fails
from nhskin.cli import main
out = Path(sys.argv[1])
configs = {
    "gbz": "[gbz]\\nmethod = charpoly\\ncross_check = true\\n",
    "evolve": "[evolve]\\nhorizon = 2\\n",
    "project": "[evolve]\\nhorizon = 2\\n",
    "phase-diagram": "[phase_diagram]\\nresolution = 4\\nn_cells = 5\\n",
    "sweep": "[sweep]\\nsamples = 3\\nhorizon = 5\\n",
}
presets = {"phase-diagram": "fig3d", "sweep": "fig5i"}
for command in ("spectrum", "gbz", "evolve", "project", "phase-diagram", "sweep"):
    cfg = out / f"{command}.cfg"
    cfg.write_text(configs.get(command, ""))
    argv = [command, "--preset", presets.get(command, "fig4a"), "--config", str(cfg),
            "--out", str(out / command), "--format", "both"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(" ".join(m for m in ("numpy.ma", "numpy.random") if m in sys.modules))
"""


def test_every_command_runs_without_scipy(tmp_path):
    """With scipy made unimportable, each subcommand runs; the GBZ runs
    charpoly with the cross-check.  NumPy's lazily loaded numpy.ma and
    numpy.random (about 15 and 13 ms) stay unloaded: SciPy used to import
    them at start-up, so a run that needs them pays for them inside an
    operation."""
    loaded = _run_python(_NO_SCIPY_RUN, str(tmp_path))
    assert loaded.split() == []
    for name in ("spectrum/spectrum.csv", "gbz/gbz.csv", "evolve/wavefield.npz",
                 "project/gbz_projection.csv", "phase-diagram/phase_diagram.csv",
                 "sweep/sweep.csv"):
        assert (tmp_path / name).exists(), name


def test_spectrum_preset_roundtrip(tmp_path, capsys):
    assert main(["spectrum", "--preset", "fig4a", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    _, rows = read_csv(tmp_path / "spectrum.csv")
    back = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    model = model_from_config(PRESETS["fig4a"])
    w = np.sort_complex(chain_eigenvalues(model) - 1j * model.gamma)
    assert np.array_equal(back, w)
    # the damped fig4a spectrum has a negative largest Im E, not a modulus
    assert out.startswith("spectrum: 40 modes, max Im E = -0.295493 rad/s, ")
    assert f"max Im E = {w.imag.max():.6g} rad/s" in out


@pytest.mark.parametrize("preset,tail", [
    ("fig4a", "leading-pair beat = 3.343 Hz"),
    # a single leading mode at Re E = 0
    ("fig4e", "leading-pair beat = 0 Hz"),
    # all 40 modes share Im E = -gamma up to rounding
    ("fig4i", "no single leading pair (40 modes share max Im E)"),
])
def test_spectrum_summary_names_the_leading_modes(tmp_path, capsys, preset, tail):
    assert main(["spectrum", "--preset", preset, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith(", " + tail)


HATANO_NELSON_240 = """\
[model]
family = HatanoNelson
t1 = 2.5
t2 = 0.9
t3 = 1
t4 = 1
n_cells = 240
"""


@pytest.mark.parametrize("preset,text,gamma", [
    ("fig4a", "[model]\nn_cells = 40\n", 2.8),
    ("fig4i", "[model]\nn_cells = 40\n", 2.5),
    (None, HATANO_NELSON_240, 0.0),
], ids=["fig4a-160", "fig4i-160", "hatano_nelson-240"])
def test_spectrum_of_a_long_chain_keeps_its_symmetry(tmp_path, capsys, preset, text, gamma):
    """On long chains the written spectrum keeps the E <-> -E* mirror of the
    undamped chain, and the undamped Hatano-Nelson chain, similar to a
    Hermitian one, is exactly real.  The run warns of no near-exceptional
    basis (the suite turns warnings into errors)."""
    cfg = _write(tmp_path, "long.cfg", text)
    argv = ["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]
    assert main(argv + ["--preset", preset] if preset else argv) == 0
    _, rows = read_csv(tmp_path / "out" / "spectrum.csv")
    w = np.array([complex(float(r[1]), float(r[2])) for r in rows]) + 1j * gamma
    assert pair_with_negated_conjugate(w, rtol=1e-8)
    out = capsys.readouterr().out
    if preset == "fig4i":
        assert out.rstrip("\n").endswith(", leading-pair beat = 2.201 Hz")
    if preset is None:
        assert np.all(w.imag == 0)


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
        "touching point beta = -0.721256+0j, line gap = 0 rad/s\n")


@pytest.mark.parametrize("preset, gap", [("fig4a", "20.9015"), ("fig4e", "0"),
                                         ("fig4i", "13.8275")])
@pytest.mark.parametrize("method", ["obc_fit", "charpoly"])
def test_gbz_summary_reports_the_line_gap(tmp_path, capsys, preset, gap, method):
    """The line gap of the GBZ the run computed, as gap_report gives it;
    fig4e is the gapless set."""
    cfg = _write(tmp_path, "m.cfg", f"[gbz]\nmethod = {method}\n")
    assert main(["gbz", "--preset", preset, "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    model = model_from_config(PRESETS[preset])
    width = gap_report(gbz_compute(model, method), chain_eigenvalues(model)).line_gap_width
    line = capsys.readouterr().out
    assert line.endswith(f", line gap = {width:.6g} rad/s\n")
    if method == "obc_fit":
        assert line.endswith(f", line gap = {gap} rad/s\n")


def test_evolve_writes_artifacts(tmp_path):
    cfg = _write(tmp_path, "run.cfg",
                 FIG4A_MODEL + "\n[evolve]\nhorizon = 2\nfs = 100\n")
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    for name in ("wavefield.csv", "wavefield.npz", "energy.csv",
                 "spectrogram_site1.csv"):
        assert (out / name).exists(), name


def test_evolve_spectrogram_is_the_site1_synthesized_signal(tmp_path):
    cfg = _write(tmp_path, "run.cfg", "[evolve]\nhorizon = 5\npoke_site = 3\n")
    out = tmp_path / "out"
    assert main(["evolve", "--preset", "fig4a", "--config", cfg, "--out", str(out)]) == 0
    m = model_from_config(parse_config(FIG4A_MODEL))
    field = evolve(m, poke_state(m, 3), default_time_grid(5.0))
    write_spectrogram_csv(tmp_path / "ref.csv", stft(synthesize_signal(field)[:, 0]))
    assert (out / "spectrogram_site1.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


def test_project_prints_an_exact_zero_part_as_zero(tmp_path, capsys):
    """fig4e's dominant late mode has Re E = 0 exactly; the eigensolver
    returns rounding noise of order 1e-15 there."""
    assert main(["project", "--preset", "fig4e", "--out", str(tmp_path / "out")]) == 0
    assert "dominant late mode E = 0-1.55264j rad/s" in capsys.readouterr().out


@pytest.mark.parametrize("preset", ["fig4a", "fig4e", "fig4i"])
def test_spectrum_rows_are_the_modes_of_project(tmp_path, preset):
    """Row j of spectrum.csv is mode j of mode_decomposition.csv: both take
    one mode order, in which a Re E of rounding noise counts as 0 (fig4e has
    three modes there)."""
    assert main(["spectrum", "--preset", preset, "--out", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    w = np.array([complex(float(r[1]), float(r[2])) for r in rows])
    model = model_from_config(PRESETS[preset])
    field = evolve(model, poke_state(model, 20), default_time_grid(0.1))
    modes = obc_decomposition(field).spectrum.eigenvalues
    assert np.max(np.abs(w - modes)) <= 1e-12 * np.max(np.abs(modes))


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


def test_sweep_with_colliding_energy_files_is_rejected(tmp_path, capsys, monkeypatch):
    """2000 samples on path 1 lie 7.3e-4 apart, closer than the 1e-3 of the
    energy_m<m>.csv names: the run exits 2 before it propagates or writes."""
    def no_propagation(*args, **kwargs):
        raise AssertionError("the sweep propagated")

    monkeypatch.setattr("nhskin.cli.transition_sweep", no_propagation)
    cfg = _write(tmp_path, "run.cfg", "[sweep]\npath = 1\nsamples = 2000\n")
    out = tmp_path / "out"
    assert main(["sweep", "--preset", "fig5h", "--config", cfg, "--out", str(out)]) == 2
    assert "share the energy file" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_sweep_chains_have_the_model_n_cells(tmp_path, monkeypatch):
    """[model] n_cells sets the length of every chain the sweep propagates."""
    seen, sweep = [], transition_sweep
    monkeypatch.setattr("nhskin.cli.transition_sweep", lambda *args, n_cells, **kwargs:
                        seen.append(n_cells) or sweep(*args, n_cells=n_cells, **kwargs))
    cfg = _write(tmp_path, "run.cfg", "[model]\nn_cells = 5\n[sweep]\nsamples = 2\nhorizon = 2\n")
    assert main(["sweep", "--preset", "fig5h", "--config", cfg,
                 "--out", str(tmp_path / "out")]) == 0
    assert seen == [5]


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
    # every command solves the open chain, so a boundary key would be unread
    ("spectrum", "[model]\nbc = PBC\n", "bad.cfg:2: unknown key 'bc' in section [model]"),
    # a phase label fits the GBZ of the chain, which needs 4 cells
    ("phase-diagram", "[phase_diagram]\nresolution = 4\nn_cells = 3\n",
     "bad.cfg:3: [phase_diagram] n_cells = '3' is not an integer >= 4"),
    ("spectrum", "[model]\nn_cells = 0\n",
     "bad.cfg:2: [model] n_cells = '0' is not an integer >= 1"),
    # the sweep's chains have [model] n_cells
    ("sweep", "[sweep]\nsamples = 3\nn_cells = 0\n",
     "bad.cfg:3: unknown key 'n_cells' in section [sweep]"),
    ("phase-diagram", "[phase_diagram]\nresolution = 1\n",
     "bad.cfg:2: [phase_diagram] resolution = '1' is not an integer >= 2"),
    ("sweep", "[sweep]\nsamples = 1\n",
     "bad.cfg:2: [sweep] samples = '1' is not an integer >= 2"),
    # the bound depends on the family's sites per cell; project checks it
    # before it propagates the poke
    ("gbz", "[gbz]\nn_sites = 12\n",
     "bad.cfg:1: [gbz] n_sites = 12 must be a multiple of 4 and >= 16"),
    ("project", "[gbz]\nn_sites = 12\n",
     "bad.cfg:1: [gbz] n_sites = 12 must be a multiple of 4 and >= 16"),
    # the bound is the chain's site count; unset, the default 20 is named
    ("evolve", "[evolve]\npoke_site = 41\n",
     "bad.cfg:1: [evolve] poke_site = 41 is outside 1..40"),
    ("project", "[evolve]\npoke_site = 41\n",
     "bad.cfg:1: [evolve] poke_site = 41 is outside 1..40"),
    ("evolve", "[model]\nfamily = HatanoNelson\n",
     "config error: [evolve] poke_site = 20 (the default) is outside 1..10"),
    # an [evolve] section that does not set the key does not take the blame
    ("evolve", "[model]\nfamily = HatanoNelson\n\n[evolve]\nhorizon = 1\n",
     "config error: [evolve] poke_site = 20 (the default) is outside 1..10"),
    # 2 samples at 500 Hz leave 1 in the growth-rate fit window
    ("sweep", "[sweep]\nhorizon = 0.003\nsamples = 2\n",
     "growth-rate fit needs 2 samples in the last quarter of the time grid, "
     "which has 1 of 2"),
], ids=["n_sites", "method", "cross_check", "fs", "no_t3_min", "horizon_negative",
        "horizon_nan", "fs_zero", "cross_tol_negative", "window_below_one_sample",
        "hop_below_one_sample", "bc", "phase_diagram_n_cells_below_4",
        "model_n_cells_0", "sweep_n_cells_0", "resolution_1", "sweep_samples_1",
        "gbz_n_sites_12", "project_n_sites_12", "evolve_poke_site_41",
        "project_poke_site_41", "evolve_default_poke_site",
        "evolve_default_poke_site_in_set_section", "sweep_fit_window_1"])
def test_bad_config_value_is_line_anchored_config_error(tmp_path, capsys, monkeypatch,
                                                        command, text, where):
    solves = []
    monkeypatch.setattr("nhskin.cli.gbz_compute", lambda *args, **kwargs: solves.append(args))
    cfg = _write(tmp_path, "bad.cfg", text)
    out = tmp_path / "out"
    assert main([command, "--preset", "fig4a", "--config", cfg, "--out", str(out)]) == 2
    assert where in capsys.readouterr().err
    # the run is rejected before it writes any artifact or solves a GBZ
    assert not out.exists() or not any(out.iterdir())
    assert solves == []


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


def test_heatmap_of_a_cell_that_is_not_finite_exits_3(tmp_path, capsys, monkeypatch):
    """A NaN cell in the phase-diagram heatmap is a numerical failure."""
    scan = scan_phase_diagram

    def nan_cell(*args, **kwargs):
        diagram = scan(*args, **kwargs)
        diagram.im_magnitude[0, 1] = np.nan
        return diagram

    monkeypatch.setattr("nhskin.cli.scan_phase_diagram", nan_cell)
    cfg = _write(tmp_path, "run.cfg", "[phase_diagram]\nresolution = 2\nn_cells = 4\n")
    assert main(["phase-diagram", "--preset", "fig3d", "--config", cfg, "--format", "svg",
                 "--out", str(tmp_path / "out")]) == 3
    assert "1 of 4 cells are not finite" in capsys.readouterr().err


def test_projection_that_overflows_exits_3_and_writes_nothing(tmp_path, capsys):
    """t2/t1 = 1e-6 puts the GBZ at |beta| = 1e-3, so beta^-x overflows on a
    103-cell chain; project used to write 64,320 NaN coefficients."""
    cfg = _write(tmp_path, "run.cfg", "[model]\nfamily = HatanoNelson\nt1 = 1\nt2 = 1e-6\n"
                 "t3 = 1\nt4 = 1\nn_cells = 103\n\n[evolve]\nhorizon = 1\n")
    out = tmp_path / "out"
    assert main(["project", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "103-cell chain is not finite" in err and "min|beta| = 0.001" in err
    assert not (out / "gbz_projection.csv").exists()
