"""Benchmark of the nhskin CLI pipelines.

    python3 perfbench/run.py --workload experiments --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout.  The load is a closed loop with
one client: a pass starts a fresh interpreter that imports ``nhskin.cli``
from ``src/`` and calls ``nhskin.cli.main`` once per operation of the
workload, one after another, each into a fresh output directory.  Passes
repeat until ``--seconds`` have elapsed (at least one).  After each pass
the artifacts of every operation are checked against independent
computations (``checks.py``); an operation fails when it exits non-zero or
fails a check.  With ``--trace 1`` one more pass runs with the functions
of nhskin wrapped (``tracer.py``) and the per-layer metrics come from it;
end-to-end metrics always come from untraced passes.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: every run ends before this many seconds
RUN_LIMIT_S = 175.0
#: fresh-interpreter set-up samples per run; passes count as samples
SETUP_SAMPLES = 3

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]

_WRITERS = ("wavefield_csv", "wavefield_npz", "energy_csv", "coefficients_csv",
            "spectrogram_csv", "gbz_csv", "phase_diagram_csv", "svg")
_COMMANDS = ("spectrum", "gbz", "evolve", "project", "phase_diagram", "sweep")
_LAYERS = ("model", "spectral", "gbz", "dynamics", "analysis", "io", "cli", "lapack")

#: per-layer metrics from the traced pass: "<span>.<key>" reads key
#: (calls, self_s, or a work count) of that span in the trace summary,
#: "<layer>.self_s" the layer total
PER_LAYER = [
    ("model.non_bloch_hamiltonian.calls", "count"),
    ("model.non_bloch_hamiltonian.self_s", "s"),
    ("model.real_space_hamiltonian.calls", "count"),
    ("model.real_space_hamiltonian.self_s", "s"),
    ("lapack.small_eig.matrices", "count"),
    ("lapack.small_eig.self_s", "s"),
    ("lapack.chain_eig.calls", "count"),
    ("lapack.chain_eig.self_s", "s"),
    ("gbz.charpoly_coefficients.calls", "count"),
    ("gbz.charpoly_coefficients.polys", "count"),
    ("gbz.charpoly_coefficients.self_s", "s"),
    ("gbz.gbz_compute.charpoly.calls", "count"),
    ("gbz.gbz_compute.charpoly.self_s", "s"),
    ("gbz.gbz_compute.obc_fit.calls", "count"),
    ("gbz.gbz_compute.obc_fit.self_s", "s"),
    ("gbz.gbz_touching_point.self_s", "s"),
    ("gbz.gap_report.calls", "count"),
    ("gbz.gap_report.self_s", "s"),
    ("spectral.eig_biorthogonal.calls", "count"),
    ("spectral.eig_biorthogonal.self_s", "s"),
    ("dynamics.evolve.calls", "count"),
    ("dynamics.evolve.self_s", "s"),
    ("dynamics.evolve.samples", "count"),
    ("dynamics.integrator.calls", "count"),
    ("dynamics.integrator.self_s", "s"),
    ("dynamics.energy_trace.self_s", "s"),
    ("dynamics.stft.self_s", "s"),
    ("dynamics.synthesize_signal.self_s", "s"),
    ("analysis.laplace_projection.self_s", "s"),
    ("analysis.obc_decomposition.self_s", "s"),
    ("analysis.classify_phase.calls", "count"),
    ("analysis.classify_phase.self_s", "s"),
    ("analysis.transition_sweep.self_s", "s"),
    *[(f"io.{w}.{key}", unit) for w in _WRITERS
      for key, unit in (("self_s", "s"), ("bytes", "bytes"))],
    *[(f"cli.{c}.self_s", "s") for c in _COMMANDS],
    *[(f"{layer}.self_s", "s") for layer in _LAYERS],
    ("trace.overhead_s", "s"),
]


class BenchError(Exception):
    """The benchmark itself could not run (no result is printed)."""


@dataclass
class PassResult:
    setup_s: float
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    command_s: dict
    bytes_written: int
    lines: list
    failures: list = field(default_factory=list)
    wrong: int = 0
    trace: dict | None = None


#: the load runs nothing in parallel, BLAS included: on a 2-CPU machine a
#: second BLAS thread only adds contention to the dense eigenproblems
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def _child_env():
    env = dict(os.environ, **SINGLE_THREAD)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _spawn(args, deadline):
    """Run passrun.py; return (set-up seconds, stdout after ``ready``)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "passrun.py"), str(SRC), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=_child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("pass did not finish inside the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"pass process failed (exit {proc.returncode}): "
                         f"{err.strip()[-2000:]}")
    return setup


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def run_pass(ops, argvs, work, deadline, spans=None):
    work.mkdir(parents=True)
    spec = work / "spec.json"
    spec.write_text(json.dumps({"argv": argvs}))
    result_path = work / "result.json"
    setup = _spawn([str(spec), str(result_path)] + ([str(spans)] if spans else []),
                   deadline)
    result = json.loads(result_path.read_text())
    out = PassResult(setup, 0.0, result["cpu_s"], result["peak_rss_mb"], {}, 0, [],
                     trace=result.get("trace"))
    records = result["ops"]
    out.wall_s = records[-1]["end"] - records[0]["start"]
    for i, (op, rec) in enumerate(zip(ops, records)):
        seconds = rec["end"] - rec["start"]
        key = op.command.replace("-", "_") + "_s"
        out.command_s[key] = out.command_s.get(key, 0.0) + seconds
        op_dir = work / f"op{i}"
        status = "ok"
        if rec["rc"] != 0:
            message = (rec["stderr"].strip().splitlines() or ["(no message)"])[-1]
            out.failures.append(f"{op.label}: exit {rec['rc']}: {message}")
            status = f"FAILED exit {rec['rc']}"
        else:
            try:
                op.check(op_dir, rec["stdout"])
            except (checks.CheckError, ValueError, IndexError, KeyError, OSError) as exc:
                out.failures.append(f"{op.label}: check failed: {exc}")
                out.wrong += 1
                status = "WRONG"
        if op_dir.exists():
            out.bytes_written += _dir_bytes(op_dir)
        out.lines.append(f"  {op.label:<36} {seconds:9.3f} s  {status}")
    shutil.rmtree(work)
    return out


def _argvs(ops, work):
    """Full CLI argument lists; config files are written once per run."""
    argvs = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.config:
            cfg = work / f"op{i}.cfg"
            cfg.write_text(op.config)
            argv += ["--config", str(cfg)]
        argvs.append(argv)
    return argvs


def _layer_metric(summary, name):
    span, key = name.rsplit(".", 1)
    return summary.get(span, {}).get(key, 0.0 if key.endswith("_s") else 0)


def run(workload, seed, seconds, trace):
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_LIMIT_S
    ops = workloads.operations(workload, seed)
    work = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cfg").mkdir(parents=True)
    try:
        argvs = _argvs(ops, work / "cfg")
        passes = []
        while not passes or time.perf_counter() - t_begin < seconds:
            k = len(passes)
            passes.append(run_pass(
                ops, [a + ["--out", str(work / f"pass{k}" / f"op{i}")]
                      for i, a in enumerate(argvs)], work / f"pass{k}", deadline))
        traced = None
        if trace:
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            spans = traces / f"{workload}-seed{seed}.npz"
            traced = run_pass(
                ops, [a + ["--out", str(work / "traced" / f"op{i}")]
                      for i, a in enumerate(argvs)], work / "traced", deadline, spans)
        setups = [p.setup_s for p in passes]
        while not trace and len(setups) < SETUP_SAMPLES:
            setups.append(_spawn([], deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    every = passes + ([traced] if traced else [])
    attempted = len(ops) * len(every)
    failed = sum(len(p.failures) for p in every)
    wrong = sum(p.wrong for p in every)
    print(f"machine: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
          f"NumPy {np.__version__}, SciPy {scipy.__version__}, BLAS threads "
          f"{SINGLE_THREAD['OPENBLAS_NUM_THREADS']}")
    print(f"perfbench {workload} seed {seed}: {len(passes)} untraced pass(es)"
          f"{', 1 traced pass' if traced else ''}; {attempted} operations attempted, "
          f"{failed} failed")
    for k, p in enumerate(every):
        print(f" pass {k + 1}{' (traced)' if p is traced else ''}: "
              f"wall {p.wall_s:.3f} s, set-up {p.setup_s:.3f} s")
        print("\n".join(p.lines))
        for f in p.failures:
            print(f"  failure: {f}")

    median = statistics.median
    e2e = {"setup_s": median(setups), "wall_s": median(p.wall_s for p in passes),
           "cpu_s": median(p.cpu_s for p in passes),
           "peak_rss_mb": median(p.peak_rss_mb for p in passes)}
    report = dict(e2e)
    if workload in workloads.BYTES_REPORTED:
        report["bytes_written"] = median(p.bytes_written for p in passes)
    for key in passes[0].command_s:
        report[key] = median(p.command_s[key] for p in passes)
    units = {"peak_rss_mb": "MB", "bytes_written": "bytes"}
    for name, value in report.items():
        print(f"  {name:<20} {value:14.6g} {units.get(name, 's')}")

    if traced:
        summary = dict(traced.trace)
        summary["trace"] = {"overhead_s": traced.wall_s - e2e["wall_s"]}
        metrics = {name: {"value": _layer_metric(summary, name), "unit": unit}
                   for name, unit in PER_LAYER}
        (WORK / "traces" / f"{workload}-seed{seed}.json").write_text(
            json.dumps({"workload": workload, "seed": seed,
                        "untraced_wall_s": e2e["wall_s"],
                        "traced_wall_s": traced.wall_s, "spans": summary}, indent=1))
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "nhskin" / "cli.py").is_file():
        print(f"perfbench: no nhskin sources under {SRC}", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
