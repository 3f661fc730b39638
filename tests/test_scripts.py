"""Smoke tests of the scripts under ``scripts/``: each runs as a subprocess
with small arguments, exits 0 and writes the files it names."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def _outputs(out):
    return {p.name for p in Path(out).iterdir()}


def test_run_spectra(tmp_path):
    res = _run("run_spectra.py", "--out", str(tmp_path), "--gbz-sites", "40")
    assert res.returncode == 0, res.stderr
    tags = ("gapped", "gapless", "real")
    assert _outputs(tmp_path) == {f"{kind}_{tag}.{ext}" for kind in ("spectrum", "gbz")
                                  for tag in tags for ext in ("csv", "svg")}
    assert [line.split(":")[0] for line in res.stdout.splitlines()] == list(tags)


def test_run_transition_paths(tmp_path):
    res = _run("run_transition_paths.py", "--out", str(tmp_path), "--samples", "2",
               "--horizon", "4", "--fs", "20", "--energy-traces")
    assert res.returncode == 0, res.stderr
    assert _outputs(tmp_path) == {
        "sweep_path1.csv", "sweep_path2.csv",
        "energy_path1_m0.000.csv", "energy_path1_m1.450.csv",
        "energy_path2_m0.000.csv", "energy_path2_m2.900.csv"}
