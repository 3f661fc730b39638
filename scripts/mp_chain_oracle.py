"""Extended-precision oracle for ``nhskin.chain_eigenvalues`` and
``nhskin.obc_decomposition``.

Solves the undamped open double chain with mpmath's dense eigensolver and
prints, per chain, its label, which path ``chain_eigenvalues`` took and the
largest deviation of its eigenvalues (optimal one-to-one matching) relative
to max|E|.  The plain complex ``numpy.linalg.eigvals`` of the ungauged chain
is printed alongside.  A 100-site chain takes about a minute at 60 digits
(49-69 s on a 2-vCPU VM); the time grows as the cube of the length.  The run
is not part of the tests.

With ``--vectors`` it also solves for the eigenvectors and prints, per
chain, the largest error of |D| from ``nhskin.obc_decomposition`` against
the oracle's D = R^-1 psi (R with unit columns), relative to max|D| at each
time, on the field of ``nhskin project``: a poke at site 20, 20 s at
500 Hz, decimated to about 200 times.  Modes are matched by eigenvalue.
The eigenvectors take longer: about 100 s for an 80-site chain at 40 digits
and 180 s for a 100-site one (2-vCPU VM).

    PYTHONPATH=src python scripts/mp_chain_oracle.py [--dps D] [--vectors] [CHAIN ...]

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

from nhskin import (Family, WaveField, chain_eigenvalues, classify_phase, default_time_grid,
                    evolve, make_model, obc_decomposition, poke_state, real_space_hamiltonian)
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


def matching(a: np.ndarray, b: np.ndarray):
    """Optimal one-to-one matching of b to a: the permutation of b and the
    largest pairing error."""
    d = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(d)
    return cols[np.argsort(rows)], float(d[rows, cols].max())


def oracle_eigenvalues(H: np.ndarray, dps: int) -> np.ndarray:
    with mpmath.workdps(dps):
        w = mpmath.eig(mpmath.matrix(H.real.tolist()), left=False, right=False)
        return np.array([complex(x) for x in w])


def oracle_coefficients(H: np.ndarray, psi: np.ndarray, dps: int):
    """Eigenvalues and D = R^-1 psi (rows of psi are times), R the right
    eigenvectors of H scaled to unit norm, solved at ``dps`` digits."""
    with mpmath.workdps(dps):
        w, R = mpmath.eig(mpmath.matrix(H.real.tolist()))
        for j in range(R.cols):
            norm = mpmath.norm(R[:, j])
            for i in range(R.rows):
                R[i, j] /= norm
        D = mpmath.inverse(R) * mpmath.matrix(psi.T.tolist())
        return (np.array([complex(x) for x in w]),
                np.array(D.tolist(), dtype=complex).T)


def project_field(model) -> WaveField:
    """The field ``nhskin project`` decomposes, at its default [evolve]."""
    t = default_time_grid(20.0, 500.0)
    field = evolve(model, poke_state(model, 20), t)
    last = len(t) - 1
    keep = np.r_[0:last:max(1, last // 200), last]
    return WaveField(t[keep], field.amplitudes[keep], model)


def coefficient_error(field: WaveField, w: np.ndarray, D: np.ndarray) -> float:
    """Largest error of |D| from ``obc_decomposition`` against the oracle's
    eigenvalues ``w`` and coefficients ``D``, relative to max|D| at each
    time."""
    dec = obc_decomposition(field)
    perm, _ = matching(w, dec.spectrum.eigenvalues)
    err = np.abs(np.abs(dec.coefficients[:, perm]) - np.abs(D))
    return float(np.max(err / np.abs(D).max(axis=1, keepdims=True)))


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
    parser.add_argument("--vectors", action="store_true",
                        help="also report the |D| error of obc_decomposition")
    parser.add_argument("chains", nargs="*", default=DEFAULT_CHAINS)
    args = parser.parse_args()
    for spec in args.chains:
        name, m = chain_model(spec)
        H = real_space_hamiltonian(m)
        t0 = time.perf_counter()
        if args.vectors:
            field = project_field(m)
            ref, D = oracle_coefficients(H, field.amplitudes, args.dps)
        else:
            ref = oracle_eigenvalues(H, args.dps)
        seconds = time.perf_counter() - t0
        w, path = solved_path(m)
        scale = np.max(np.abs(ref))
        print(f"{name}, {m.n_sites} sites: label {classify_phase(m).label.value}, "
              f"min|E|/max|E| = {np.abs(ref).min() / scale:.2g}, path {path}; "
              f"chain_eigenvalues {matching(ref, w)[1] / scale:.2g}, "
              f"ungauged complex eigvals {matching(ref, np.linalg.eigvals(H))[1] / scale:.2g} "
              f"(relative to max|E|; oracle {seconds:.0f} s at {args.dps} digits)", flush=True)
        if args.vectors:
            print(f"{name}: obc_decomposition |D| error {coefficient_error(field, ref, D):.2g} "
                  f"(relative to max|D| at each time)", flush=True)


if __name__ == "__main__":
    main()
