"""The benchmark's workloads: their operations, the config files those
operations pass with ``--config``, and the inputs the seed picks.

Each operation is one ``nhskin`` CLI invocation, written as the argument
list a user would type minus ``--out`` and ``--config``, which the runner
adds.  Its check receives the output directory and the captured stdout.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import checks

#: the parameter sets the CLI presets name, as quoted in the source
#: experiments (rad/s); the checks rebuild their reference models from these
FIG4 = {
    "fig4a": {"t1": 2.1, "t2": 14.9, "t3": 11.2, "t4": 3.7, "gamma": 2.8, "n_cells": 10},
    "fig4e": {"t1": 3.2, "t2": 6.7, "t3": 22.6, "t4": 8.4, "gamma": 4.4, "n_cells": 10},
    "fig4i": {"t1": 2.1, "t2": 14.9, "t3": 12.6, "t4": 8.9, "gamma": 2.5, "n_cells": 10},
}
#: fig3d scan: t1 = 1, t2 = 2, (t3, t4) over [0.2, 6]^2 on 25-cell chains
FIG3D = {"t1": 1.0, "t2": 2.0, "t_range": (0.2, 6.0), "n_cells": 25}
#: transition paths of fig5h / fig5i: (t3, t4) as a function of m, m_max,
#: number of samples; t1 = 1, t2 = 2, 10 cells, horizon 80 s.  fig5i's
#: preset takes 25 samples; the [sweep] config cuts it to 13, like fig5h.
SWEEPS = {"fig5h": (lambda m: (4.0 - m, 1.0 + m), 1.45, 13),
          "fig5i": (lambda m: (4.0, 1.0 + m), 2.9, 13)}
SWEEP_HORIZON = 80.0
FS = 500.0

#: evolve/project horizon (s) written to the [evolve] config; the presets'
#: default is 20 s.  Half of it keeps a pass of every workload inside the
#: benchmark's time budget while the writers still dominate.
EVOLVE_HORIZON = 10.0
#: phase-diagram grid written to the [phase_diagram] config (preset: 24)
PD_RESOLUTION = 16
#: presets whose charpoly GBZ gbz-continuum computes: the gapped (A) and
#: gapless (B) sets; each takes about 12 s, so the real-spectrum set fig4i
#: is left to the cross-check
CHARPOLY_PRESETS = ("fig4a", "fig4e")
#: grid points whose spectrum the phase-diagram check recomputes
PD_SAMPLES = 12

#: workloads whose artifact size is a cost; in gbz-continuum it counts GBZ
#: points, which is a question of correctness
BYTES_REPORTED = ("experiments", "scan")


@dataclass
class Op:
    label: str
    argv: list
    check: Callable
    config: str = ""

    @property
    def command(self):
        return self.argv[0]


def experiments(rng):
    ops = []
    steps = int(round(EVOLVE_HORIZON * FS)) + 1
    for name, p in FIG4.items():
        site = rng.randint(1, 4 * p["n_cells"])
        sample = sorted(rng.sample(range(1, steps), 3))
        cfg = f"[evolve]\nhorizon = {EVOLVE_HORIZON:g}\npoke_site = {site}\n"
        ops += [
            Op(f"spectrum {name}", ["spectrum", "--preset", name, "--format", "csv"],
               lambda out, so, p=p: checks.check_spectrum(out, p, so)),
            Op(f"gbz {name}", ["gbz", "--preset", name, "--format", "csv"],
               lambda out, so, p=p: checks.check_gbz(out, p, "obc_fit", so)),
            Op(f"evolve {name} site {site}",
               ["evolve", "--preset", name, "--format", "csv"],
               lambda out, so, p=p, site=site, sample=sample: checks.check_evolve(
                   out, p, p["n_cells"], site, EVOLVE_HORIZON, FS, sample, so, True),
               cfg),
            Op(f"project {name} site {site}",
               ["project", "--preset", name, "--format", "csv"],
               lambda out, so, p=p: checks.check_projection(out, p, so), cfg),
        ]
    # 160 sites: the eigenvector basis is near-exceptional, so evolve takes
    # the DOP853 fallback; SVG output writes no CSV
    p = FIG4["fig4a"]
    site = rng.randint(1, 160)
    sample = sorted(rng.sample(range(1, steps), 2))
    ops.append(Op(
        f"evolve fig4a 160 sites site {site}",
        ["evolve", "--preset", "fig4a", "--format", "svg"],
        lambda out, so: checks.check_evolve(out, p, 40, site, EVOLVE_HORIZON, FS,
                                            sample, so, False),
        f"[model]\nn_cells = 40\n[evolve]\nhorizon = {EVOLVE_HORIZON:g}\n"
        f"poke_site = {site}\n"))
    return ops


def gbz_continuum(rng):
    ops = []
    for name in CHARPOLY_PRESETS:
        p = FIG4[name]
        ops.append(Op(f"gbz {name} charpoly",
                      ["gbz", "--preset", name, "--format", "csv"],
                      lambda out, so, p=p: checks.check_gbz(out, p, "charpoly", so),
                      "[gbz]\nmethod = charpoly\n"))
    for name, p in FIG4.items():
        ops.append(Op(f"gbz {name} cross_check",
                      ["gbz", "--preset", name, "--format", "csv"],
                      lambda out, so, p=p: checks.check_gbz(out, p, "obc_fit", so),
                      "[gbz]\ncross_check = true\n"))
    return ops


def scan(rng):
    n = PD_RESOLUTION
    off_diagonal = [(i4, i3) for i4 in range(n) for i3 in range(n) if i3 != i4]
    sample = rng.sample(off_diagonal, PD_SAMPLES)
    ops = [Op("phase-diagram fig3d",
              ["phase-diagram", "--preset", "fig3d", "--format", "csv"],
              lambda out, so: checks.check_phase_diagram(
                  out, FIG3D["t1"], FIG3D["t2"], FIG3D["t_range"], n,
                  FIG3D["n_cells"], sample),
              f"[phase_diagram]\nresolution = {n}\n")]
    for name, (hoppings, m_max, samples) in SWEEPS.items():
        times = sorted(round(rng.uniform(0.0, SWEEP_HORIZON) * FS) / FS for _ in range(2))
        ops.append(Op(f"sweep {name}", ["sweep", "--preset", name, "--format", "csv"],
                      lambda out, so, h=hoppings, mm=m_max, s=samples, t=times:
                      checks.check_sweep(out, 1.0, 2.0, h, mm, s, SWEEP_HORIZON, 10, t),
                      f"[sweep]\nsamples = {samples}\n"))
    return ops


WORKLOADS = {"experiments": experiments, "gbz-continuum": gbz_continuum, "scan": scan}


def operations(workload, seed):
    return WORKLOADS[workload](random.Random(seed))
