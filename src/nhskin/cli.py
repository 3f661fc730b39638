"""Command-line front end: figure-style experiment recipes and exporters.

Each subcommand wraps one pipeline and writes CSV (and optionally SVG)
artifacts into the output directory, printing a one-line summary.  Exit
codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as nio
from .analysis import (laplace_projection, obc_decomposition, scan_phase_diagram,
                       transition_sweep)
from .dynamics import (WaveField, default_time_grid, energy_trace, evolve,
                       poke_state, stft)
from .errors import ConfigError, NhskinError, NumericalError, ValidationError
from .gbz import (_check_n_sites, chain_eigenvalues, gap_report, gbz_compute,
                  gbz_touching_point, skin_direction)
from .spectral import mode_order

# Parameter sets quoted from the source experiments (rad/s; 10 unit cells).
PRESETS = {
    "fig4a": {"model": {"family": "GT", "t1": "2.1", "t2": "14.9", "t3": "11.2",
                        "t4": "3.7", "omega0": "86.5", "gamma": "2.8",
                        "n_cells": "10"}},
    "fig4e": {"model": {"family": "GT", "t1": "3.2", "t2": "6.7", "t3": "22.6",
                        "t4": "8.4", "omega0": "80.9", "gamma": "4.4",
                        "n_cells": "10"}},
    "fig4i": {"model": {"family": "GT", "t1": "2.1", "t2": "14.9", "t3": "12.6",
                        "t4": "8.9", "omega0": "89.8", "gamma": "2.5",
                        "n_cells": "10"}},
    "fig3d": {"model": {"family": "GT", "t1": "1", "t2": "2", "t3": "3",
                        "t4": "3", "n_cells": "25"},
              "phase_diagram": {"t3_min": "0.2", "t3_max": "6", "t4_min": "0.2",
                                "t4_max": "6", "resolution": "24",
                                "n_cells": "25"}},
    "fig5h": {"model": {"family": "GT", "t1": "1", "t2": "2", "t3": "4",
                        "t4": "1", "n_cells": "10"},
              "sweep": {"path": "1", "samples": "13", "horizon": "80"}},
    "fig5i": {"model": {"family": "GT", "t1": "1", "t2": "2", "t3": "4",
                        "t4": "1", "n_cells": "10"},
              "sweep": {"path": "2", "samples": "25", "horizon": "80"}},
}


def _merge_config(args) -> dict:
    """Every section's defaults, overridden key by key by the preset and
    then by the config file, all typed by ``nio.CONFIG_SCHEMA``."""
    layers = []
    if args.preset:
        if args.preset not in PRESETS:
            raise ConfigError(f"unknown preset {args.preset!r}; "
                              f"choose from {', '.join(sorted(PRESETS))}")
        layers.append(nio.typed_config(PRESETS[args.preset], f"preset {args.preset}"))
    if args.config:
        layers.append(nio.load_config(args.config))
    if not layers:
        raise ConfigError("no configuration: pass --preset and/or --config")
    return nio.merge_config(*layers)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_spectrum(args, cfg) -> int:
    model = nio.model_from_config(cfg)
    w = chain_eigenvalues(model)    # row j is mode j of project
    w = w[mode_order(w)] - 1j * model.gamma
    out = _outdir(args)
    if args.format in ("csv", "both"):
        nio.write_spectrum_csv(out / "spectrum.csv", w)
    if args.format in ("svg", "both"):
        nio.write_svg_scatter(out / "spectrum.svg", w.real, w.imag, title="OBC spectrum")
    # the leading modes share max Im E up to rounding; a beat is defined
    # only when they are one mode or one symmetry pair
    lead = w[w.imag >= w.imag.max() - 1e-9 * np.abs(w).max()]
    if len(lead) <= 2:
        pair = f"leading-pair beat = {np.ptp(lead.real) / (2 * np.pi):.4g} Hz"
    else:
        pair = f"no single leading pair ({len(lead)} modes share max Im E)"
    print(f"spectrum: {len(w)} modes, max Im E = {w.imag.max():.6g} rad/s, {pair}")
    return 0


def _gbz_from_config(cfg, model):
    """The GBZ that the [gbz] section asks for.  A chain length that the
    model's family cannot fit is rejected first, naming what set [gbz]."""
    block = cfg["gbz"]
    try:
        _check_n_sites(model, block["n_sites"])
    except ValidationError as exc:
        raise ConfigError(f"{block.where}: [gbz] {exc}") from None
    return gbz_compute(model, **block)


def cmd_gbz(args, cfg) -> int:
    model = nio.model_from_config(cfg)
    g = _gbz_from_config(cfg, model)
    out = _outdir(args)
    if args.format in ("csv", "both"):
        nio.write_gbz_csv(out / "gbz.csv", g)
    if args.format in ("svg", "both"):
        nio.write_svg_scatter(out / "gbz.svg", g.betas.real, g.betas.imag,
                              title="GBZ")
    sd = skin_direction(g)
    try:
        touch = gbz_touching_point(g)
        touch_txt = f"touching point beta = {touch.real:.6g}{touch.imag:+.3g}j"
    except NumericalError:
        touch_txt = "no touching point"
    gap = gap_report(g, chain_eigenvalues(model)).line_gap_width
    print(f"gbz: {len(g.betas)} points, direction = {sd.direction.value}, "
          f"mean log|beta| = {sd.mean_log_modulus:.4g}, {touch_txt}, "
          f"line gap = {gap:.6g} rad/s")
    return 0


def _evolve_from_config(cfg, model):
    block = cfg["evolve"]
    t = default_time_grid(block["horizon"], block["fs"])
    return evolve(model, poke_state(model, block["poke_site"]), t)


def cmd_evolve(args, cfg) -> int:
    model = nio.model_from_config(cfg)
    field = _evolve_from_config(cfg, model)
    # site-1 spectrogram of the synthesized carrier signal, computed before
    # any write so that a rejected window or hop leaves no artifact behind
    fs = cfg["evolve"]["fs"]
    window = int(round(cfg["stft"]["window_s"] * fs))
    hop = int(round(cfg["stft"]["hop_s"] * fs))
    sg = None
    if len(field.times) >= window:
        site1 = np.real(field.amplitudes[:, 0] * np.exp(-1j * model.omega0 * field.times))
        sg = stft(site1, fs=fs, window_len=window, hop=hop)
    out = _outdir(args)
    trace = energy_trace(field)
    if args.format in ("csv", "both"):
        nio.write_wavefield_csv(out / "wavefield.csv", field)
        nio.write_energy_csv(out / "energy.csv", trace)
    nio.write_wavefield_npz(out / "wavefield.npz", field)
    if sg is not None:
        if args.format in ("csv", "both"):
            nio.write_spectrogram_csv(out / "spectrogram_site1.csv", sg)
        if args.format in ("svg", "both"):
            keep = sg.frequencies <= 40.0
            nio.write_svg_heatmap(out / "spectrogram_site1.svg",
                                  sg.magnitudes[keep], title="site-1 STFT",
                                  cell=4)
    P = trace.P
    print(f"evolve: {len(field.times)} steps on {model.n_sites} sites, "
          f"P(end)/P(0) = {P[-1] / P[0]:.6g}")
    return 0


def cmd_project(args, cfg) -> int:
    model = nio.model_from_config(cfg)
    g = _gbz_from_config(cfg, model)    # first: a rejected [gbz] wastes no propagation
    field = _evolve_from_config(cfg, model)
    # decimate both coefficient sets to about 200 output times, keeping the
    # last one, which picks the dominant late mode
    last = len(field.times) - 1
    keep = np.r_[0:last:max(1, last // 200), last]
    sub = WaveField(field.times[keep], field.amplitudes[keep], model)
    proj = laplace_projection(sub, g)
    dec = obc_decomposition(sub)
    out = _outdir(args)
    if args.format in ("csv", "both"):
        nio.write_coefficients_csv(out / "gbz_projection.csv", proj.times,
                                   proj.coefficients)
        nio.write_coefficients_csv(out / "mode_decomposition.csv", dec.times,
                                   dec.coefficients)
        nio.write_gbz_csv(out / "gbz.csv", g)
    if args.format in ("svg", "both"):
        nio.write_svg_heatmap(out / "gbz_projection.svg",
                              proj.band_pair_magnitude().T,
                              title="|C(t)| per GBZ point", cell=3)
    # the symmetry pair (E, -conj(E)) carries equal weight up to rounding:
    # report the first near-maximal mode in mode order (ascending Re)
    late = np.abs(dec.coefficients[-1])
    j = int(np.argmax(late >= (1 - 1e-9) * late.max()))
    # a part below 1e-9 |E| is rounding noise of an exact zero (fig4e's Re E)
    E = dec.spectrum.eigenvalues[j]
    re, im = (x if abs(x) > 1e-9 * abs(E) else 0.0 for x in (E.real, E.imag))
    print(f"project: {len(g.betas)} GBZ points, dominant late mode "
          f"E = {re:.6g}{im:+.6g}j rad/s")
    return 0


def cmd_phase_diagram(args, cfg) -> int:
    block = cfg["phase_diagram"]
    diagram = scan_phase_diagram(
        cfg["model"]["t1"], cfg["model"]["t2"],
        t3_range=(block["t3_min"], block["t3_max"]),
        t4_range=(block["t4_min"], block["t4_max"]),
        resolution=block["resolution"], n_cells=block["n_cells"])
    out = _outdir(args)
    if args.format in ("csv", "both"):
        nio.write_phase_diagram_csv(out / "phase_diagram.csv", diagram)
    if args.format in ("svg", "both"):
        nio.write_svg_heatmap(out / "phase_diagram.svg", diagram.im_magnitude,
                              title="max |Im E_OBC|")
    counts = {}
    for lab in diagram.labels.ravel():
        counts[lab.label.value] = counts.get(lab.label.value, 0) + 1
    summary = ", ".join(f"{k}:{v}" for k, v in sorted(counts.items()))
    print(f"phase-diagram: {diagram.labels.size} points ({summary})")
    return 0


def cmd_sweep(args, cfg) -> int:
    block = cfg["sweep"]
    ms = block["path"].samples(block["samples"])
    if args.format in ("csv", "both"):
        # before any propagation: samples that share an energy file name
        nio.sweep_energy_names(ms)
    sweep = transition_sweep(block["path"], ms,
                             t_grid=default_time_grid(block["horizon"]),
                             n_cells=cfg["model"]["n_cells"])
    out = _outdir(args)
    if args.format in ("csv", "both"):
        nio.write_sweep_csv(out, sweep)
    lam = sweep.growth_rates
    print(f"sweep: path with {len(lam)} samples, lambda from {lam[0]:.4g} "
          f"to {lam[-1]:.4g} 1/s")
    return 0


COMMANDS = {
    "spectrum": cmd_spectrum,
    "gbz": cmd_gbz,
    "evolve": cmd_evolve,
    "project": cmd_project,
    "phase-diagram": cmd_phase_diagram,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nhskin",
        description="Non-Hermitian skin-effect dynamics toolkit")
    p.add_argument("command", choices=sorted(COMMANDS))
    p.add_argument("--config", help="path to an INI-style run configuration")
    p.add_argument("--preset", help="named parameter preset "
                   f"({', '.join(sorted(PRESETS))})")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--format", choices=["csv", "svg", "both"], default="csv")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, _merge_config(args))
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, NhskinError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
