"""Self-tests of the benchmark: every correctness check accepts what the
CLI writes and rejects a deliberately corrupted copy, the tracer counts
what it wraps, and BENCHMARK.json lists the metrics run.py prints.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Run from the root of a source checkout; takes about 20 s.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from nhskin import cli  # noqa: E402

FIG4A = workloads.FIG4["fig4a"]
SITE = 7
HORIZON = 5.0
FS = workloads.FS
PD = {"t1": 1.0, "t2": 2.0, "t_range": (0.2, 6.0), "resolution": 6, "n_cells": 10}
PD_ALL = [(i4, i3) for i4 in range(6) for i3 in range(6)]
SWEEP_SAMPLES = 4
PATH1, PATH1_MAX, _ = workloads.SWEEPS["fig5h"]


def _cli(tmp, name, argv, config=""):
    out = Path(tmp) / name
    if config:
        cfg = Path(tmp) / f"{name}.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out)])
    assert rc == 0, (argv, rc)
    return buf.getvalue()


def _write_numeric(path, header, data):
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header, comments="")


class ChecksRejectCorruption(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.mkdtemp()
        evolve_cfg = f"[evolve]\nhorizon = {HORIZON:g}\npoke_site = {SITE}\n"
        cls.stdout = {
            "spectrum": _cli(cls.tmp, "spectrum", ["spectrum", "--preset", "fig4a"]),
            "gbz": _cli(cls.tmp, "gbz", ["gbz", "--preset", "fig4a"]),
            "evolve": _cli(cls.tmp, "evolve", ["evolve", "--preset", "fig4a"], evolve_cfg),
            "project": _cli(cls.tmp, "project", ["project", "--preset", "fig4a"],
                            evolve_cfg),
            "pd": _cli(cls.tmp, "pd", ["phase-diagram", "--preset", "fig3d"],
                       f"[phase_diagram]\nresolution = {PD['resolution']}\n"
                       f"n_cells = {PD['n_cells']}\n"),
            "sweep": _cli(cls.tmp, "sweep", ["sweep", "--preset", "fig5h"],
                          f"[sweep]\nsamples = {SWEEP_SAMPLES}\n"),
        }

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def copy(self, name):
        dst = Path(tempfile.mkdtemp(dir=self.tmp)) / name
        shutil.copytree(Path(self.tmp) / name, dst)
        return dst

    # ------------------------------------------------------------ checks

    def check_spectrum(self, out, stdout=None):
        checks.check_spectrum(out, FIG4A, stdout or self.stdout["spectrum"])

    def check_gbz(self, out, stdout=None):
        checks.check_gbz(out, FIG4A, "obc_fit", stdout or self.stdout["gbz"])

    def check_evolve(self, out, stdout=None):
        checks.check_evolve(out, FIG4A, 10, SITE, HORIZON, FS, [100, 400],
                            stdout or self.stdout["evolve"], True)

    def check_project(self, out, stdout=None):
        checks.check_projection(out, FIG4A, stdout or self.stdout["project"])

    def check_pd(self, out):
        checks.check_phase_diagram(out, PD["t1"], PD["t2"], PD["t_range"],
                                   PD["resolution"], PD["n_cells"], PD_ALL)

    def check_sweep(self, out, times=(12.5, 70.0)):
        checks.check_sweep(out, 1.0, 2.0, PATH1, PATH1_MAX, SWEEP_SAMPLES,
                           workloads.SWEEP_HORIZON, 10, times)

    def test_untouched_artifacts_pass(self):
        self.check_spectrum(self.copy("spectrum"))
        self.check_gbz(self.copy("gbz"))
        self.check_evolve(self.copy("evolve"))
        self.check_project(self.copy("project"))
        self.check_pd(self.copy("pd"))
        self.check_sweep(self.copy("sweep"))

    # ---------------------------------------------------------- spectrum

    def test_spectrum_moved_eigenvalue(self):
        out = self.copy("spectrum")
        data = checks.read_numeric(out / "spectrum.csv", 3)
        data[5, 1] += 1e-3
        _write_numeric(out / "spectrum.csv", "index,Re_E,Im_E", data)
        with self.assertRaises(CheckError):
            self.check_spectrum(out)

    def test_spectrum_summary_mode_count(self):
        out = self.copy("spectrum")
        with self.assertRaises(CheckError):
            self.check_spectrum(out, self.stdout["spectrum"].replace("40 modes", "39 modes"))

    # --------------------------------------------------------------- GBZ

    def _gbz_rows(self, out):
        return checks.read_numeric(out / "gbz.csv", 5)

    def test_gbz_point_off_middle_root_pair(self):
        out = self.copy("gbz")
        data = self._gbz_rows(out)
        E = data[3, 3] + 1j * data[3, 4]
        outer = checks.beta_polynomial_roots(FIG4A, E)[0]   # still det(H - E) = 0
        data[3, 1:3] = outer.real, outer.imag
        _write_numeric(out / "gbz.csv", "band_pair,Re_beta,Im_beta,Re_E,Im_E", data)
        with self.assertRaisesRegex(CheckError, "middle root"):
            self.check_gbz(out)

    def test_gbz_point_off_characteristic_equation(self):
        out = self.copy("gbz")
        data = self._gbz_rows(out)
        data[10, 3] += 1e-3
        _write_numeric(out / "gbz.csv", "band_pair,Re_beta,Im_beta,Re_E,Im_E", data)
        with self.assertRaisesRegex(CheckError, "det"):
            self.check_gbz(out)

    def test_gbz_summary_mean_log_modulus(self):
        out = self.copy("gbz")
        stdout = self.stdout["gbz"].replace("mean log|beta| = -", "mean log|beta| = -1")
        with self.assertRaises(CheckError):
            self.check_gbz(out, stdout)

    # -------------------------------------------------------- wavefields

    def _rewrite_wavefield(self, out, amps):
        with np.load(out / "wavefield.npz") as z:
            times = z["times"]
        np.savez_compressed(out / "wavefield.npz", times=times, amplitudes=amps)
        n = amps.shape[1]
        rows = np.column_stack([np.repeat(times, n), np.tile(np.arange(1, n + 1), len(times)),
                                amps.real.ravel(), amps.imag.ravel()])
        _write_numeric(out / "wavefield.csv", "time,site,Re_psi,Im_psi", rows)
        P = np.sum(np.abs(amps) ** 2, axis=1)
        _write_numeric(out / "energy.csv", "time,P", np.column_stack([times, P]))

    def test_wavefield_row_scaled(self):
        out = self.copy("evolve")
        _, amps = checks.read_wavefield_npz(out / "wavefield.npz")
        amps[250] *= 1.001
        self._rewrite_wavefield(out, amps)
        with self.assertRaisesRegex(CheckError, "one-step"):
            self.check_evolve(out)

    def test_wavefield_wrong_poke(self):
        out = self.copy("evolve")
        with self.assertRaises(CheckError):
            checks.check_evolve(out, FIG4A, 10, SITE + 1, HORIZON, FS, [100],
                                self.stdout["evolve"], True)

    def test_wavefield_csv_differs_from_npz(self):
        out = self.copy("evolve")
        data = checks.read_numeric(out / "wavefield.csv", 4)
        data[1234, 2] *= 1 + 1e-12
        _write_numeric(out / "wavefield.csv", "time,site,Re_psi,Im_psi", data)
        with self.assertRaisesRegex(CheckError, "disagree"):
            self.check_evolve(out)

    def test_energy_value_changed(self):
        out = self.copy("evolve")
        data = checks.read_numeric(out / "energy.csv", 2)
        data[77, 1] *= 1.0001
        _write_numeric(out / "energy.csv", "time,P", data)
        with self.assertRaisesRegex(CheckError, "energy.csv"):
            self.check_evolve(out)

    # -------------------------------------------------------- projection

    def test_projection_not_normalized(self):
        out = self.copy("project")
        data = checks.read_numeric(out / "gbz_projection.csv", 4)
        first = data[:, 0] == data[0, 0]
        data[first, 2:] *= 0.9
        _write_numeric(out / "gbz_projection.csv", "time,index,Re,Im", data)
        with self.assertRaisesRegex(CheckError, "max"):
            self.check_project(out)

    def test_dominant_mode_not_the_fastest_growing(self):
        out = self.copy("project")
        w = checks.chain_eigenvalues(FIG4A, 10, FIG4A["gamma"])
        slow = w[np.argmin(w.imag)]
        head = self.stdout["project"].split("E = ")[0]
        stdout = f"{head}E = {slow.real:.6g}{slow.imag:+.6g}j rad/s\n"
        with self.assertRaisesRegex(CheckError, "Im E"):
            self.check_project(out, stdout)

    # ----------------------------------------------------- phase diagram

    def _rewrite_labels(self, out, change):
        path = out / "phase_diagram.csv"
        header, rows = checks.read_rows(path)
        for i, new in change.items():
            rows[i][2] = new
        path.write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
        return rows

    def _find(self, out, label):
        n = PD["resolution"]
        _, rows = checks.read_rows(out / "phase_diagram.csv")
        k = next(k for k, r in enumerate(rows) if r[2] == label)
        i4, i3 = divmod(k, n)
        return k, i3 * n + i4

    def test_phase_label_flipped(self):
        out = self.copy("pd")
        k, _ = self._find(out, "A")
        self._rewrite_labels(out, {k: "Aprime"})
        with self.assertRaisesRegex(CheckError, "mirrored"):
            self.check_pd(out)

    def test_phase_diagonal_not_hermitian(self):
        out = self.copy("pd")
        self._rewrite_labels(out, {0: "A"})
        with self.assertRaisesRegex(CheckError, "diagonal"):
            self.check_pd(out)

    def test_phase_real_label_on_complex_spectrum(self):
        out = self.copy("pd")
        k, mirror = self._find(out, "A")
        self._rewrite_labels(out, {k: "C", mirror: "Cprime"})
        with self.assertRaisesRegex(CheckError, "max\\|Im E\\|"):
            self.check_pd(out)

    # ------------------------------------------------------------ sweeps

    def _sweep(self, out):
        return checks.read_numeric(out / "sweep.csv", 4)

    def test_sweep_rate_not_the_log_slope(self):
        out = self.copy("sweep")
        data = self._sweep(out)
        data[1, 3] += 0.01
        _write_numeric(out / "sweep.csv", "m,t3,t4,lambda", data)
        with self.assertRaisesRegex(CheckError, "refits"):
            self.check_sweep(out)

    def test_sweep_energy_off_the_propagator(self):
        out = self.copy("sweep")
        m = self._sweep(out)[2, 0]
        path = out / f"energy_m{m:.3f}.csv"
        e = checks.read_numeric(path, 2)
        e[int(12.5 * FS), 1] *= 1.001
        _write_numeric(path, "time,P", e)
        with self.assertRaisesRegex(CheckError, "expm"):
            self.check_sweep(out)

    def test_sweep_rate_off_the_spectrum(self):
        out = self.copy("sweep")
        data = self._sweep(out)
        path = out / f"energy_m{data[0, 0]:.3f}.csv"
        e = checks.read_numeric(path, 2)
        e[:, 1] *= np.exp(-0.5 * e[:, 0])       # consistent trace, slower growth
        _write_numeric(path, "time,P", e)
        data[0, 3] = checks.fitted_growth(e[:, 0], e[:, 1])
        _write_numeric(out / "sweep.csv", "m,t3,t4,lambda", data)
        with self.assertRaisesRegex(CheckError, "2 max Im"):
            self.check_sweep(out, times=())


class TracerCounts(unittest.TestCase):
    def test_spectrum_spans(self):
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "spec.json"
            spec.write_text(json.dumps({"argv": [
                ["spectrum", "--preset", "fig4a", "--out", str(Path(tmp) / "o")]]}))
            result, spans = Path(tmp) / "result.json", Path(tmp) / "spans.npz"
            proc = subprocess.run(
                [sys.executable, str(HERE / "passrun.py"), str(run.SRC), str(spec),
                 str(result), str(spans)],
                env=run._child_env(), capture_output=True, text=True, timeout=120)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            res = json.loads(result.read_text())
            summary = res["trace"]
            self.assertEqual(res["ops"][0]["rc"], 0)
            for span in ("cli.main", "cli.spectrum", "spectral.obc_spectrum",
                         "spectral.eig_biorthogonal", "lapack.chain_eig",
                         "model.real_space_hamiltonian", "io.spectrum_csv"):
                self.assertEqual(summary[span]["calls"], 1, span)
            # _hopping_blocks samples the Bloch matrix at three k
            self.assertEqual(summary["model.non_bloch_hamiltonian"]["calls"], 3)
            self.assertGreater(summary["io.spectrum_csv"]["bytes"], 0)
            with np.load(spans) as z:
                dur = z["end"] - z["start"]
                roots = z["parent"] < 0
            total_self = sum(v["self_s"] for k, v in summary.items() if k.count(".") >= 1)
            self.assertAlmostEqual(total_self, dur[roots].sum(), places=9)


class BenchmarkDescription(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        desc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in desc["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in desc["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in desc["workloads"]),
                         sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
