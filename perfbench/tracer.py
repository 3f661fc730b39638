"""Span and count recorder wrapped around the public functions of nhskin.

:meth:`Tracer.install` replaces each listed function in every nhskin
module namespace that binds it (the CLI imports names directly, and keeps
its subcommands in a dict), and wraps the three numerical entry points
nhskin calls through module attributes: ``numpy.linalg.eigvals``,
``scipy.linalg.eig`` and ``scipy.integrate.solve_ivp``.  Spans carry a
name, start, end and parent; they are kept in flat arrays in memory and
written out by :meth:`Tracer.save`.  Nothing inside ``src/nhskin`` changes.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

#: public functions per layer that the CLI reaches, as {function name: span name}
LAYERS = {
    "model": {f: f for f in ("bloch_hamiltonian", "non_bloch_hamiltonian",
                             "real_space_hamiltonian")},
    "spectral": {f: f for f in ("eig_biorthogonal", "obc_spectrum")},
    "gbz": {f: f for f in ("charpoly_coefficients", "charpoly_beta_roots",
                           "gbz_compute", "gbz_touching_point", "skin_direction",
                           "gap_report")},
    "dynamics": {f: f for f in ("evolve", "energy_trace", "stft",
                                "synthesize_signal")},
    "analysis": {f: f for f in ("laplace_projection", "obc_decomposition",
                                "classify_phase", "scan_phase_diagram",
                                "transition_sweep", "growth_rate")},
    "io": {"write_spectrum_csv": "spectrum_csv", "write_gbz_csv": "gbz_csv",
           "write_wavefield_csv": "wavefield_csv",
           "write_wavefield_npz": "wavefield_npz",
           "write_energy_csv": "energy_csv",
           "write_spectrogram_csv": "spectrogram_csv",
           "write_phase_diagram_csv": "phase_diagram_csv",
           "write_coefficients_csv": "coefficients_csv",
           "write_svg_heatmap": "svg", "write_svg_scatter": "svg",
           "load_config": "load_config"},
    "cli": {"main": "main", "cmd_spectrum": "spectrum", "cmd_gbz": "gbz",
            "cmd_evolve": "evolve", "cmd_project": "project",
            "cmd_phase_diagram": "phase_diagram", "cmd_sweep": "sweep"},
}

#: largest matrix dimension counted as a cell-size (small) eigenproblem
SMALL_EIG_DIM = 8


def _eig_span(args, kwargs):
    a = np.asarray(args[0] if args else kwargs["a"])
    small = a.shape[-1] <= SMALL_EIG_DIM
    return "lapack.small_eig" if small else "lapack.chain_eig"


def _eig_count(args, kwargs, result):
    a = np.asarray(args[0] if args else kwargs["a"])
    return "matrices", int(np.prod(a.shape[:-2], dtype=int))


def _gbz_span(args, kwargs):
    method = kwargs.get("method", args[1] if len(args) > 1 else "obc_fit")
    return "gbz.gbz_compute." + str(getattr(method, "value", method))


def _polys(args, kwargs, result):
    return "polys", len(result)


def _samples(args, kwargs, result):
    return "samples", int(result.amplitudes.size)


def _bytes(args, kwargs, result):
    return "bytes", os.path.getsize(args[0])


#: extra work counts per span name: f(args, kwargs, result) -> (key, amount)
COUNTS = {"lapack.small_eig": _eig_count, "lapack.chain_eig": _eig_count,
          "gbz.charpoly_coefficients": _polys, "dynamics.evolve": _samples}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, str], int] = {}
        self._stack: list[int] = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, count=None):
        """``name``: a span name, or f(args, kwargs) -> span name."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            idx = len(tracer.start)
            tracer.name_id.append(tracer._id(span))
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            counter = count or COUNTS.get(span)
            if counter is not None:
                key, amount = counter(args, kwargs, result)
                tracer.counts[span, key] = tracer.counts.get((span, key), 0) + amount
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "nhskin" or n.startswith("nhskin.")]
        for layer, funcs in LAYERS.items():
            home = sys.modules["nhskin." + layer]
            for fname, short in funcs.items():
                span = f"{layer}.{short}"
                if fname == "gbz_compute":
                    span = _gbz_span
                orig = getattr(home, fname)
                wrapped = self.wrap(orig, span, _bytes if layer == "io" and
                                    fname.startswith("write_") else None)
                for mod in modules:
                    _rebind(vars(mod), orig, wrapped)
        import scipy.integrate
        import scipy.linalg
        np.linalg.eigvals = self.wrap(np.linalg.eigvals, _eig_span)
        scipy.linalg.eig = self.wrap(scipy.linalg.eig, _eig_span)
        scipy.integrate.solve_ivp = self.wrap(scipy.integrate.solve_ivp,
                                              "dynamics.integrator")

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return name_id, parent, dur

    def summary(self) -> dict:
        """{span name: {"calls", "self_s", extra counts}} plus layer totals
        under {layer: {"self_s"}}.  Self time is a span's duration minus the
        durations of its direct children."""
        name_id, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=own, minlength=len(self.names))
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
            layer = name.split(".")[0]
            out.setdefault(layer, {"self_s": 0.0})["self_s"] += float(self_s[i])
        for (span, key), amount in self.counts.items():
            out[span][key] = amount
        return out

    def save(self, path):
        name_id, parent, _ = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=np.frombuffer(self.start),
                            end=np.frombuffer(self.end))


def _rebind(namespace, orig, wrapped):
    """Point every binding of ``orig`` in a module namespace, and in the
    dicts it holds, at ``wrapped``."""
    for key, value in list(namespace.items()):
        if value is orig:
            namespace[key] = wrapped
        elif isinstance(value, dict):
            for k, v in value.items():
                if v is orig:
                    value[k] = wrapped
