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

