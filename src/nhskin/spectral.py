"""Biorthogonal eigensystems and OBC/PBC spectra.

Left eigenvectors are taken as the rows of the inverse right-eigenvector
matrix, so the biorthogonality <phi_L,i | phi_R,j> = delta_ij holds to the
accuracy of one linear solve.  Near-exceptional matrices (ill-conditioned
eigenvector basis) are flagged rather than rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import ValidationError
from .model import BC, LatticeModel, real_space_hamiltonian, bloch_hamiltonian

#: eigenvector-matrix condition number above which a spectrum is flagged
NEAR_EXCEPTIONAL_COND = 1e8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with paired right/left eigenvectors (columns).

    ``left_vectors[:, i].conj() @ right_vectors[:, j] == delta_ij`` after
    normalization.  Eigenvalues are sorted by ascending Re, ties by Im.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_number: float
    near_exceptional: bool

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)


def eig_biorthogonal(H: np.ndarray) -> Spectrum:
    """Dense biorthogonal eigendecomposition of a general complex matrix."""
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationError(f"H must be square, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValidationError("H has non-finite entries")
    w, vr = scipy.linalg.eig(H)
    order = np.lexsort((w.imag, w.real))
    w = w[order]
    vr = vr[:, order]
    cond = np.linalg.cond(vr)
    near_exc = bool(cond > NEAR_EXCEPTIONAL_COND)
    if near_exc:
        warnings.warn(
            f"near-exceptional spectrum: eigenvector condition number {cond:.3g}; "
            "biorthogonal quantities have degraded accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    # rows of inv(vr) are the (bra) left eigenvectors; store them as kets
    vl = np.linalg.inv(vr).conj().T
    return Spectrum(w, vr, vl, float(cond), near_exc)


def obc_spectrum(model: LatticeModel) -> Spectrum:
    """Eigensystem of the open chain (bc forced to OBC)."""
    H = real_space_hamiltonian(model.with_(bc=BC.OBC))
    return eig_biorthogonal(H)


def pbc_spectrum(model: LatticeModel, n_k: int = 50) -> Spectrum:
    """Union of Bloch eigenvalues over k = 2*pi*m/n_k, shifted by -i*gamma.

    Eigenvectors are the full-lattice Bloch waves on n_k cells, which keeps
    the biorthogonality contract across the whole set.
    """
    if n_k < 1:
        raise ValidationError("n_k must be >= 1")
    s = model.sites_per_cell
    ws, vrs, vls = [], [], []
    for m in range(n_k):
        k = 2 * np.pi * m / n_k
        cell = eig_biorthogonal(bloch_hamiltonian(model, k))
        phase = np.exp(1j * k * np.arange(n_k)) / np.sqrt(n_k)
        ws.append(cell.eigenvalues - 1j * model.gamma)
        vrs.append(np.kron(phase[:, None], cell.right_vectors))
        vls.append(np.kron(phase[:, None], cell.left_vectors))
    w = np.concatenate(ws)
    vr = np.concatenate(vrs, axis=1)
    vl = np.concatenate(vls, axis=1)
    order = np.lexsort((w.imag, w.real))
    return Spectrum(w[order], vr[:, order], vl[:, order],
                    float(np.linalg.cond(vr)), False)


def spectral_radius(spec: Spectrum) -> float:
    return float(np.max(np.abs(spec.eigenvalues))) if spec.dim else 0.0


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pairing error of an optimal one-to-one matching of two
    equal-size complex multisets.  Robust to ordering ties, unlike a sort."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValidationError("multisets must have the same size")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def pair_with_negated_conjugate(eigenvalues: np.ndarray, rtol: float = 1e-8) -> bool:
    """Check the multiset {E} == {-conj(E)} (spectrum mirror about Re = 0)."""
    w = np.asarray(eigenvalues)
    scale = max(np.max(np.abs(w)), 1e-300)
    return multiset_distance(w, -w.conj()) < rtol * scale
