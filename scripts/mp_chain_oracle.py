"""Extended-precision oracle for ``nhskin.chain_eigenvalues``.

Solves the undamped open double chain with mpmath's dense eigensolver and
prints, per chain, its label, which path ``chain_eigenvalues`` took and the
largest deviation of its eigenvalues (optimal one-to-one matching) relative
to max|E|.  The plain complex ``numpy.linalg.eigvals`` of the ungauged chain
is printed alongside.  A 100-site chain takes about a minute at 60 digits
(49-69 s on a 2-vCPU VM); the time grows as the cube of the length.  The run
is not part of the tests.

    PYTHONPATH=src python scripts/mp_chain_oracle.py [--dps D] [CHAIN ...]

A CHAIN is ``i4,i3``, a point of the fig3d grid (t1 = 1, t2 = 2, (t3, t4)
on the 24-point linspace over [0.2, 6], 25 cells), or ``PRESET:N_CELLS``,
the hoppings of a CLI preset on a chain of N_CELLS cells (``fig4e:40``).
The default chains are (8, 14), an A point the half-size solve resolves;
(3, 9), an A point whose edge modes send it to the full solve; and
(14, 18), a C point (real spectrum).
"""

from __future__ import annotations

import argparse
import time

import mpmath
import numpy as np
from scipy.optimize import linear_sum_assignment

from nhskin import Family, chain_eigenvalues, classify_phase, make_model, real_space_hamiltonian
from nhskin.cli import PRESETS

GRID = np.linspace(0.2, 6.0, 24)
DEFAULT_CHAINS = ("8,14", "3,9", "14,18")


def chain_model(spec: str):
    if ":" in spec:
        preset, n_cells = spec.split(":")
        p = PRESETS[preset]["model"]
        hops = (float(p[k]) for k in ("t1", "t2", "t3", "t4"))
        return spec, make_model(Family.GT, *hops, n_cells=int(n_cells))
    i4, i3 = (int(k) for k in spec.split(","))
    return (f"(i4, i3) = ({i4}, {i3}), (t3, t4) = ({GRID[i3]:.4f}, {GRID[i4]:.4f})",
            make_model(Family.GT, 1.0, 2.0, GRID[i3], GRID[i4], n_cells=25))


def matched_error(a: np.ndarray, b: np.ndarray) -> float:
    d = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def oracle_eigenvalues(H: np.ndarray, dps: int) -> np.ndarray:
    with mpmath.workdps(dps):
        w = mpmath.eig(mpmath.matrix(H.real.tolist()), left=False, right=False)
        return np.array([complex(x) for x in w])


def solved_path(model) -> tuple[np.ndarray, str]:
    """``chain_eigenvalues(model)`` and the path it took, read from the
    sizes of the eigenproblems it solved."""
    eigvals, sizes = np.linalg.eigvals, []

    def counted(a):
        sizes.append(len(a))
        return eigvals(a)

    np.linalg.eigvals = counted
    try:
        w = chain_eigenvalues(model)
    finally:
        np.linalg.eigvals = eigvals
    names = {(model.n_sites // 2,): "half-size", (model.n_sites,): "full",
             (model.n_sites // 2, model.n_sites): "half-size, then full"}
    return w, names[tuple(sizes)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dps", type=int, default=60, help="mpmath digits (default 60)")
    parser.add_argument("chains", nargs="*", default=DEFAULT_CHAINS)
    args = parser.parse_args()
    for spec in args.chains:
        name, m = chain_model(spec)
        H = real_space_hamiltonian(m)
        t0 = time.perf_counter()
        ref = oracle_eigenvalues(H, args.dps)
        seconds = time.perf_counter() - t0
        w, path = solved_path(m)
        scale = np.max(np.abs(ref))
        print(f"{name}, {m.n_sites} sites: label {classify_phase(m).label.value}, "
              f"min|E|/max|E| = {np.abs(ref).min() / scale:.2g}, path {path}; "
              f"chain_eigenvalues {matched_error(w, ref) / scale:.2g}, "
              f"ungauged complex eigvals {matched_error(np.linalg.eigvals(H), ref) / scale:.2g} "
              f"(relative to max|E|; oracle {seconds:.0f} s at {args.dps} digits)", flush=True)


if __name__ == "__main__":
    main()
