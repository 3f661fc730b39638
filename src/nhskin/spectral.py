"""Biorthogonal eigensystems and OBC/PBC spectra.

One matrix or a stack (..., n, n) is solved in one batched call, in real
arithmetic when it has no imaginary part.  Left eigenvectors are the rows of
the inverse right-eigenvector matrix, so <phi_L,i | phi_R,j> = delta_ij holds
to the accuracy of one linear solve.  Near-exceptional matrices
(ill-conditioned eigenvector basis) are flagged rather than rejected.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import ValidationError
from .model import BC, LatticeModel, non_bloch_hamiltonians, real_space_hamiltonian

#: eigenvector-matrix condition number above which a spectrum is flagged
NEAR_EXCEPTIONAL_COND = 1e8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with paired right/left eigenvectors (columns).

    ``left_vectors[:, i].conj() @ right_vectors[:, j] == delta_ij`` after
    normalization.  Eigenvalues are sorted by ascending Re, ties by Im.  A
    stack of matrices adds its leading axes, also to the condition number.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_number: float | np.ndarray

    @property
    def near_exceptional(self):
        return self.condition_number > NEAR_EXCEPTIONAL_COND

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]


def real_if_exact(H: np.ndarray) -> np.ndarray:
    """``H.real`` when H has no imaginary part, else H: LAPACK's real solver
    is faster than the complex one and returns real eigenvalues as exactly real."""
    return H if np.any(H.imag) else H.real


def eig_biorthogonal(H: np.ndarray) -> Spectrum:
    """Dense biorthogonal eigendecomposition of a general complex matrix or of
    a stack (..., n, n) of them; warns once, with the largest condition
    number, if any of them is near-exceptional."""
    H = np.asarray(H, dtype=complex)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValidationError(f"H must be square, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValidationError("H has non-finite entries")
    w, vr = scipy.linalg.eig(real_if_exact(H))
    order = np.lexsort((w.imag, w.real), axis=-1)
    w = np.take_along_axis(w, order, axis=-1)
    vr = np.take_along_axis(vr, order[..., None, :], axis=-1).astype(complex, copy=False)
    cond = np.linalg.cond(vr)
    worst = np.max(cond, initial=0.0)
    if worst > NEAR_EXCEPTIONAL_COND:
        warnings.warn(f"near-exceptional spectrum: eigenvector condition number "
                      f"{worst:.3g}; biorthogonal quantities have degraded accuracy",
                      RuntimeWarning, stacklevel=2)
    # rows of inv(vr) are the (bra) left eigenvectors; store them as kets
    vl = np.linalg.inv(vr).conj().swapaxes(-1, -2)
    return Spectrum(w, vr, vl, cond)


def obc_spectrum(model: LatticeModel) -> Spectrum:
    """Eigensystem of the open chain (bc forced to OBC)."""
    return eig_biorthogonal(real_space_hamiltonian(model.with_(bc=BC.OBC)))


def pbc_spectrum(model: LatticeModel, n_k: int = 50) -> Spectrum:
    """Union of Bloch eigenvalues over k = 2*pi*m/n_k, shifted by -i*gamma.

    Eigenvectors are the full-lattice Bloch waves on n_k cells, which keeps
    the biorthogonality contract across the whole set.  Their matrix is a
    unitary Fourier factor times the block diagonal of the cell eigenvector
    matrices, so it has the singular values of all the cells.
    """
    if n_k < 1:
        raise ValidationError("n_k must be >= 1")
    k = 2 * np.pi * np.arange(n_k) / n_k
    cells = eig_biorthogonal(non_bloch_hamiltonians(model, np.exp(1j * k)))
    w = (cells.eigenvalues - 1j * model.gamma).ravel()
    waves = np.exp(1j * np.outer(np.arange(n_k), k)) / np.sqrt(n_k)
    # column (m, j) is the Bloch wave of cell eigenvector j at k_m
    vr, vl = np.einsum("xm,vmaj->vxamj", waves, np.stack(
        [cells.right_vectors, cells.left_vectors])).reshape(2, w.size, w.size)
    sv = np.linalg.svd(cells.right_vectors, compute_uv=False)
    order = np.lexsort((w.imag, w.real))
    return Spectrum(w[order], vr[:, order], vl[:, order], sv.max() / sv.min())


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
