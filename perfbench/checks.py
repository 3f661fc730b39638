"""Correctness checks for the artifacts the nhskin CLI writes.

Nothing here imports nhskin.  The reference Hamiltonians, spectra and
propagators are rebuilt from the hopping parameters with NumPy and SciPy,
and the other checks test properties the methods must have.  No check
compares against stored copies of earlier outputs: a change that moves the
last digits of a CSV passes, a change that breaks the physics does not.
Every check raises :class:`CheckError` naming the artifact and the size of
the violation.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.optimize


class CheckError(Exception):
    """An artifact disagrees with the independent reference."""


def _require(ok, message):
    if not ok:
        raise CheckError(message)


# ------------------------------------------------------------ reference model

def cell_hamiltonian(p, beta):
    """4x4 cell Hamiltonian of the double chain at complex ``beta``, undamped.

    Row/column order is the intra-cell site order of the Bloch Hamiltonian
    in the source paper; ``beta = exp(ik)`` gives the Bloch matrix."""
    t1, t2, t3, t4 = p["t1"], p["t2"], p["t3"], p["t4"]
    return np.array([[0, t4, t2 + t1 / beta, 0],
                     [t3, 0, 0, t1 + t2 / beta],
                     [t2 + t1 * beta, 0, 0, t3],
                     [0, t1 + t2 * beta, t4, 0]], dtype=complex)


def chain_hamiltonian(p, n_cells, gamma=0.0):
    """Dense open-chain Hamiltonian on ``n_cells`` cells.

    Cell x couples to x+1 through the coefficient of beta in the cell
    Hamiltonian and to x-1 through the coefficient of 1/beta; damping is
    -i*gamma on the diagonal."""
    t1, t2, t3, t4 = p["t1"], p["t2"], p["t3"], p["t4"]
    onsite = np.array([[0, t4, t2, 0], [t3, 0, 0, t1],
                       [t2, 0, 0, t3], [0, t1, t4, 0]], dtype=complex)
    to_right = np.zeros((4, 4))
    to_right[2, 0], to_right[3, 1] = t1, t2
    to_left = np.zeros((4, 4))
    to_left[0, 2], to_left[1, 3] = t1, t2
    H = (np.kron(np.eye(n_cells), onsite)
         + np.kron(np.eye(n_cells, k=1), to_right)
         + np.kron(np.eye(n_cells, k=-1), to_left))
    return H - 1j * gamma * np.eye(4 * n_cells)


def chain_eigenvalues(p, n_cells, gamma=0.0):
    return scipy.linalg.eigvals(chain_hamiltonian(p, n_cells, gamma))


def beta_polynomial_roots(p, E):
    """Roots of beta^2 det(H(beta) - E) in beta, ascending modulus.

    The quartic's coefficients come from a Vandermonde solve on five points
    of the unit circle, then ``numpy.roots``."""
    z = np.exp(2j * np.pi * np.arange(5) / 5)
    f = np.array([zk ** 2 * np.linalg.det(cell_hamiltonian(p, zk) - E * np.eye(4))
                  for zk in z])
    coeffs = np.linalg.solve(np.vander(z, 5, increasing=True), f)
    roots = np.roots(coeffs[::-1])
    return roots[np.argsort(np.abs(roots))]


def matching_error(a, b):
    """Largest pairing error of the best one-to-one matching of two
    equal-size complex multisets."""
    a, b = np.ravel(a), np.ravel(b)
    _require(a.shape == b.shape, f"multiset sizes differ: {a.size} vs {b.size}")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


# ------------------------------------------------------------------ readers

def read_numeric(path, ncols):
    """All rows of a numeric CSV with a header line, as a 2-D array."""
    path = Path(path)
    _require(path.is_file(), f"{path.name} is missing")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(data.shape[1] == ncols,
             f"{path.name}: expected {ncols} columns, got {data.shape[1]}")
    return data


def read_rows(path):
    path = Path(path)
    _require(path.is_file(), f"{path.name} is missing")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _summary_number(stdout, pattern, what):
    m = re.search(pattern, stdout)
    _require(m is not None, f"summary line has no {what}: {stdout.strip()!r}")
    return m


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------- spectrum

#: eigenvalue agreement relative to the spectral radius (measured: 1e-14)
SPECTRUM_TOL = 1e-9


def check_spectrum(out, p, stdout):
    data = read_numeric(Path(out) / "spectrum.csv", 3)
    n = 4 * p["n_cells"]
    _require(data.shape[0] == n, f"spectrum.csv has {data.shape[0]} rows, want {n}")
    _require(np.array_equal(data[:, 0], np.arange(n)), "spectrum.csv index column")
    ref = chain_eigenvalues(p, p["n_cells"], p["gamma"])
    err = matching_error(data[:, 1] + 1j * data[:, 2], ref)
    radius = np.max(np.abs(ref))
    _require(err <= SPECTRUM_TOL * radius,
             f"spectrum.csv eigenvalues off the reference by {err:.3g} "
             f"(radius {radius:.3g})")
    m = _summary_number(stdout, r"spectrum: (\d+) modes", "mode count")
    _require(int(m.group(1)) == n, f"summary reports {m.group(1)} modes, want {n}")


# ---------------------------------------------------------------------- GBZ

#: per-method tolerances of the middle-root condition: relative modulus
#: mismatch of the middle pair, and relative distance of beta from the pair.
#: obc_fit keeps pairs within its pair_tol of 1e-2 (measured up to 8e-3);
#: charpoly bisects to 1e-6 (measured 1e-7).
GBZ_PAIR_TOL = {"obc_fit": (1e-2, 1e-7), "charpoly": (1e-6, 1e-5)}
#: smallest singular value of H(beta) - E relative to its norm
GBZ_DET_TOL = 1e-8


def gbz_point_errors(p, betas, energies):
    """Per point: (sigma_min ratio of H(beta) - E, middle-pair modulus
    mismatch, distance of beta from the nearer middle root), all relative."""
    out = np.empty((len(betas), 3))
    for k, (b, E) in enumerate(zip(betas, energies)):
        A = cell_hamiltonian(p, b) - E * np.eye(4)
        s = np.linalg.svd(A, compute_uv=False)
        roots = beta_polynomial_roots(p, E)
        r1, r2 = roots[1], roots[2]
        out[k] = (s[-1] / max(s[0], 1e-300),
                  abs(abs(r1) - abs(r2)) / abs(b),
                  min(abs(r1 - b), abs(r2 - b)) / abs(b))
    return out


def check_gbz_csv(path, p, method):
    data = read_numeric(path, 5)
    _require(len(data) > 0, f"{Path(path).name} has no points")
    _require(np.all(np.isin(data[:, 0], (0, 1))), "band_pair outside {0, 1}")
    betas = data[:, 1] + 1j * data[:, 2]
    energies = data[:, 3] + 1j * data[:, 4]
    errs = gbz_point_errors(p, betas, energies)
    pair_tol, member_tol = GBZ_PAIR_TOL[method]
    worst = np.argmax(errs, axis=0)
    _require(errs[:, 0].max() <= GBZ_DET_TOL,
             f"GBZ point {worst[0]} is off det(H(beta)-E) = 0 "
             f"(sigma_min ratio {errs[worst[0], 0]:.3g})")
    _require(errs[:, 1].max() <= pair_tol,
             f"GBZ point {worst[1]}: middle roots differ in modulus by "
             f"{errs[worst[1], 1]:.3g} (tolerance {pair_tol:g})")
    _require(errs[:, 2].max() <= member_tol,
             f"GBZ point {worst[2]}: beta is {errs[worst[2], 2]:.3g} away from "
             f"the middle root pair (tolerance {member_tol:g})")
    return betas


def check_gbz(out, p, method, stdout):
    betas = check_gbz_csv(Path(out) / "gbz.csv", p, method)
    m = _summary_number(stdout, r"gbz: (\d+) points, direction = (\w+), "
                        r"mean log\|beta\| = (\S+),", "GBZ summary")
    _require(int(m.group(1)) == len(betas),
             f"summary reports {m.group(1)} points, gbz.csv has {len(betas)}")
    mean_log = float(np.mean(np.log(np.abs(betas))))
    _require(_close(float(m.group(3)), mean_log, 1e-3),
             f"summary mean log|beta| {m.group(3)} vs {mean_log:.6g} from gbz.csv")
    want = "Left" if mean_log < -1e-3 else "Right" if mean_log > 1e-3 else "None"
    _require(m.group(2) == want, f"summary direction {m.group(2)}, want {want}")


# --------------------------------------------------------------- wavefields

#: relative error of sampled rows against expm(-iHt) psi0 (measured: 2e-13
#: at 40 sites on the spectral path, larger on the integrator path)
WAVEFIELD_TOL = 1e-6
#: relative residual of every row against one exact step from the previous
STEP_TOL = 1e-6


def check_wavefield_arrays(times, amps, p, n_cells, site, horizon, fs, sample):
    """``sample``: row indices compared against the matrix exponential."""
    n = 4 * n_cells
    T = int(round(horizon * fs)) + 1
    _require(amps.shape == (T, n), f"wavefield shape {amps.shape}, want {(T, n)}")
    _require(np.allclose(times, np.arange(T) / fs, rtol=0, atol=1e-9 * horizon),
             "wavefield time grid is not uniform from 0 at fs")
    psi0 = np.zeros(n, dtype=complex)
    psi0[site - 1] = 1.0
    _require(np.array_equal(amps[0], psi0), f"row t=0 is not the poke at site {site}")
    H0 = chain_hamiltonian(p, n_cells)
    g = p["gamma"]
    for k in sample:
        ref = scipy.linalg.expm(-1j * H0 * times[k]) @ psi0 * np.exp(-g * times[k])
        err = np.max(np.abs(amps[k] - ref)) / np.max(np.abs(ref))
        _require(err <= WAVEFIELD_TOL,
                 f"wavefield at t = {times[k]:g} is off expm(-iHt)psi0 by {err:.3g}")
    dt = 1.0 / fs
    U = scipy.linalg.expm(-1j * H0 * dt) * np.exp(-g * dt)
    resid = (np.linalg.norm(amps[1:] - amps[:-1] @ U.T, axis=1)
             / np.linalg.norm(amps[1:], axis=1))
    k = int(np.argmax(resid))
    _require(resid[k] <= STEP_TOL,
             f"wavefield row t = {times[k + 1]:g} breaks the one-step propagator "
             f"relation by {resid[k]:.3g}")


def read_wavefield_csv(path, n_sites):
    data = read_numeric(path, 4)
    _require(len(data) % n_sites == 0, "wavefield.csv rows are not whole time steps")
    data = data.reshape(-1, n_sites, 4)
    _require(np.all(data[:, :, 1] == np.arange(1, n_sites + 1)),
             "wavefield.csv site column is not 1..N at every time")
    _require(np.all(data[:, :, 0] == data[:, :1, 0]),
             "wavefield.csv time column changes within a time step")
    return data[:, 0, 0], data[:, :, 2] + 1j * data[:, :, 3]


def read_wavefield_npz(path):
    path = Path(path)
    _require(path.is_file(), f"{path.name} is missing")
    with np.load(path) as z:
        return z["times"], z["amplitudes"]


def check_energy(out, times, amps):
    data = read_numeric(Path(out) / "energy.csv", 2)
    _require(np.array_equal(data[:, 0], times), "energy.csv times differ from wavefield")
    P = np.sum(np.abs(amps) ** 2, axis=1)
    err = np.max(np.abs(data[:, 1] - P) / P)
    _require(err <= 1e-12, f"energy.csv differs from sum |psi|^2 by {err:.3g} (relative)")
    return data[:, 1]


def check_evolve(out, p, n_cells, site, horizon, fs, sample, stdout, csv_written):
    out = Path(out)
    times, amps = read_wavefield_npz(out / "wavefield.npz")
    check_wavefield_arrays(times, amps, p, n_cells, site, horizon, fs, sample)
    if csv_written:
        t_csv, a_csv = read_wavefield_csv(out / "wavefield.csv", 4 * n_cells)
        _require(np.array_equal(t_csv, times) and np.array_equal(a_csv, amps),
                 "wavefield.csv and wavefield.npz disagree")
        P = check_energy(out, times, amps)
        m = _summary_number(stdout, r"P\(end\)/P\(0\) = (\S+)", "energy ratio")
        _require(_close(float(m.group(1)), P[-1] / P[0], 1e-5),
                 f"summary P(end)/P(0) {m.group(1)} vs {P[-1] / P[0]:.6g}")
        _require((out / "spectrogram_site1.csv").is_file(),
                 "spectrogram_site1.csv is missing")
    else:
        _require((out / "spectrogram_site1.svg").is_file(),
                 "spectrogram_site1.svg is missing")
    m = _summary_number(stdout, r"evolve: (\d+) steps on (\d+) sites", "step count")
    _require((int(m.group(1)), int(m.group(2))) == (len(times), 4 * n_cells),
             f"summary reports {m.group(0)!r}")


# --------------------------------------------------------------- projection

def check_projection(out, p, stdout):
    out = Path(out)
    betas = check_gbz_csv(out / "gbz.csv", p, "obc_fit")
    data = read_numeric(out / "gbz_projection.csv", 4)
    per_time = 4 * len(betas)
    _require(len(data) % per_time == 0,
             "gbz_projection.csv rows are not whole (point, mode) sets")
    C = np.abs(data[:, 2] + 1j * data[:, 3]).reshape(-1, per_time)
    err = np.max(np.abs(C.max(axis=1) - 1.0))
    _require(err <= 1e-12, f"GBZ projection max|C| differs from 1 by {err:.3g}")
    _require((out / "mode_decomposition.csv").is_file(),
             "mode_decomposition.csv is missing")
    m = _summary_number(stdout, r"dominant late mode E = (\S+)j rad/s", "late mode")
    E = complex(m.group(1) + "j")
    ref = chain_eigenvalues(p, p["n_cells"], p["gamma"])
    scale = np.max(np.abs(ref))
    near = np.min(np.abs(ref - E))
    _require(near <= 1e-5 * scale,
             f"dominant late mode {E:.6g} is no eigenvalue (nearest {near:.3g} away)")
    top = np.max(ref.imag)
    _require(E.imag >= top - 1e-5 * scale,
             f"dominant late mode has Im E = {E.imag:.6g}, the largest is {top:.6g}")


# ------------------------------------------------------------- phase diagram

#: max|Im E| relative to the spectral radius below which a spectrum is real,
#: as the classifier defines it; sampled points inside the factor-10 band
#: around it are too close to call and are skipped
REAL_TOL = 1e-6


def check_phase_diagram(out, t1, t2, t_range, resolution, n_cells, sample):
    """``sample``: (i4, i3) grid points whose spectrum is recomputed."""
    header, rows = read_rows(Path(out) / "phase_diagram.csv")
    _require(header == ["t3", "t4", "label", "max_im"],
             f"phase_diagram.csv header {header}")
    n = resolution
    _require(len(rows) == n * n, f"phase_diagram.csv has {len(rows)} rows, want {n * n}")
    grid = np.linspace(*t_range, n)
    t3 = np.array([float(r[0]) for r in rows]).reshape(n, n)
    t4 = np.array([float(r[1]) for r in rows]).reshape(n, n)
    _require(np.array_equal(t3, np.tile(grid, (n, 1)))
             and np.array_equal(t4, np.tile(grid[:, None], (1, n))),
             "phase_diagram.csv grid is not the (t4, t3) linspace")
    labels = np.array([r[2] for r in rows], dtype=object).reshape(n, n)
    max_im = np.array([float(r[3]) for r in rows]).reshape(n, n)
    diag = set(labels[np.arange(n), np.arange(n)])
    _require(diag == {"HermitianLine"}, f"t3 = t4 diagonal carries labels {diag}")
    swap = {"A": "Aprime", "Aprime": "A", "B": "Bprime", "Bprime": "B",
            "C": "Cprime", "Cprime": "C", "HermitianLine": "HermitianLine",
            "Boundary": "Boundary"}
    for i4 in range(n):
        for i3 in range(n):
            lab, mirror = labels[i4, i3], labels[i3, i4]
            _require(swap.get(lab) == mirror,
                     f"label {lab} at (t3, t4) = ({grid[i3]:.4g}, {grid[i4]:.4g}) "
                     f"but {mirror} at the mirrored point")
    p = {"t1": t1, "t2": t2}
    for i4, i3 in sample:
        lab = labels[i4, i3]
        p.update(t3=grid[i3], t4=grid[i4])
        w = chain_eigenvalues(p, n_cells)
        radius = np.max(np.abs(w))
        im = float(np.max(np.abs(w.imag)))
        _require(abs(max_im[i4, i3] - im) <= 1e-6 * radius + 1e-3 * im,
                 f"max_im {max_im[i4, i3]:.6g} vs {im:.6g} at ({grid[i3]:.4g}, {grid[i4]:.4g})")
        if 0.1 * REAL_TOL * radius < im < 10 * REAL_TOL * radius:
            continue
        if lab in ("C", "Cprime"):
            _require(im < REAL_TOL * radius,
                     f"label {lab} but max|Im E| = {im:.3g} at "
                     f"({grid[i3]:.4g}, {grid[i4]:.4g})")
        elif lab in ("A", "Aprime", "B", "Bprime"):
            _require(im > REAL_TOL * radius,
                     f"label {lab} but the spectrum is real at "
                     f"({grid[i3]:.4g}, {grid[i4]:.4g})")



# -------------------------------------------------------------------- sweeps

#: lambda(m) is compared with 2 max Im E_OBC where the latter exceeds this
#: rate (1/s) and the fit window spans at least two beats of the leading
#: mode pair (E, -conj E); closer to a transition, or with slower beats,
#: the finite window biases the fit (measured: up to 37% on path 2)
GROWTH_FLOOR = 0.2
#: measured: at most 0.6% where the comparison applies
GROWTH_TOL = 0.02


def fitted_growth(times, P, fit_fraction=0.25):
    """Least-squares slope of log P over the last ``fit_fraction`` of samples."""
    start = int(np.floor(len(times) * (1 - fit_fraction)))
    t, y = times[start:], np.log(P[start:])
    tc = t - t.mean()
    return float(np.dot(tc, y - y.mean()) / np.dot(tc, tc))


def leading_rate_applies(w, window):
    """Whether 2 max Im E should match a log P slope fitted over ``window``."""
    radius = np.max(np.abs(w))
    top = np.max(w.imag)
    if 2 * top <= GROWTH_FLOOR:
        return False
    beat = np.max(np.abs(w.real[w.imag > top - 1e-6 * radius]))
    return beat <= 1e-6 * radius or np.pi / beat <= window / 2


def check_sweep(out, t1, t2, hoppings, m_max, samples, horizon, n_cells, sample_times):
    """``hoppings(m)`` gives (t3, t4) along the path; the energy at
    ``sample_times`` is recomputed by the matrix exponential."""
    out = Path(out)
    data = read_numeric(out / "sweep.csv", 4)
    ms = np.linspace(0.0, m_max, samples)
    _require(data.shape[0] == samples, f"sweep.csv has {data.shape[0]} rows, want {samples}")
    _require(np.allclose(data[:, 0], ms, rtol=0, atol=1e-12), "sweep.csv m column")
    path = np.array([hoppings(m) for m in ms])
    _require(np.allclose(data[:, 1:3], path, rtol=0, atol=1e-12),
             "sweep.csv (t3, t4) are off the path")
    fs = 500.0
    T = int(round(horizon * fs)) + 1
    psi0 = np.zeros(4 * n_cells)
    psi0[2 * n_cells - 1] = 1.0
    for m, t3, t4, lam in data:
        name = f"energy_m{m:.3f}.csv"
        e = read_numeric(out / name, 2)
        _require(len(e) == T, f"{name} has {len(e)} rows, want {T}")
        _require(np.allclose(e[:, 0], np.arange(T) / fs, rtol=0, atol=1e-9 * horizon),
                 f"{name} time grid is not uniform from 0 at fs")
        _require(np.all(e[:, 1] > 0), f"{name} has P <= 0")
        H = chain_hamiltonian({"t1": t1, "t2": t2, "t3": t3, "t4": t4}, n_cells)
        for t in sample_times:
            k = int(round(t * fs))
            ref = np.linalg.norm(scipy.linalg.expm(-1j * H * e[k, 0]) @ psi0) ** 2
            _require(_close(e[k, 1], ref, 1e-6),
                     f"{name}: P({e[k, 0]:g}) = {e[k, 1]:.6g}, expm gives {ref:.6g}")
        refit = fitted_growth(e[:, 0], e[:, 1])
        _require(abs(refit - lam) <= 1e-8 * max(1.0, abs(lam)),
                 f"lambda({m:.3f}) = {lam:.6g} but log P refits to {refit:.6g}")
        w = scipy.linalg.eigvals(H)
        rate = 2 * float(np.max(w.imag))
        if leading_rate_applies(w, horizon / 4):
            _require(abs(lam - rate) <= GROWTH_TOL * rate,
                     f"lambda({m:.3f}) = {lam:.6g} vs 2 max Im E_OBC = {rate:.6g}")
