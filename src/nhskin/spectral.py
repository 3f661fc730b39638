"""Biorthogonal eigensystems, the OBC spectrum, and PBC eigenvalues.

One matrix or a stack (..., n, n) is solved in one batched call, in the
arithmetic of its own dtype.  Left eigenvectors are the rows of the inverse
right-eigenvector matrix, so <phi_L,i | phi_R,j> = delta_ij holds to the
accuracy of one linear solve.  Near-exceptional matrices (ill-conditioned
eigenvector basis) are flagged rather than rejected.  The open chain is
solved real and undamped, and its damping shifts the eigenvalues by
-i*gamma.  The periodic spectrum is the Bloch eigenvalues alone, from one
stacked ``eigvals`` over the cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .model import LatticeModel, _hopping_blocks, _open_chain, non_bloch_hamiltonians

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


def eig_biorthogonal(H: np.ndarray) -> Spectrum:
    """Dense biorthogonal eigendecomposition of a general real or complex
    matrix or of a stack (..., n, n) of them, solved in H's own dtype; warns
    once, with the largest condition number, if any of them is
    near-exceptional."""
    H = np.asarray(H)
    if H.ndim < 2 or H.shape[-1] != H.shape[-2]:
        raise ValidationError(f"H must be square, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        raise ValidationError("H has non-finite entries")
    w, vr = np.linalg.eig(H)
    order = np.lexsort((w.imag, w.real), axis=-1)
    # NumPy returns a stack with only real eigenvalues in real arithmetic
    w = np.take_along_axis(w, order, axis=-1).astype(complex, copy=False)
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
    """Eigensystem of the open chain: the undamped chain, solved in real
    arithmetic, with every eigenvalue shifted by -i*gamma (a uniform damping
    leaves the eigenvectors as they are)."""
    spec = eig_biorthogonal(_open_chain(*_hopping_blocks(model), model.n_cells))
    return replace(spec, eigenvalues=spec.eigenvalues - 1j * model.gamma)


def pbc_spectrum(model: LatticeModel, n_k: int = 50) -> np.ndarray:
    """Union of Bloch eigenvalues over k = 2*pi*m/n_k, shifted by -i*gamma,
    sorted by ascending Re, ties by Im."""
    if n_k < 1:
        raise ValidationError("n_k must be >= 1")
    k = 2 * np.pi * np.arange(n_k) / n_k
    H = non_bloch_hamiltonians(model, np.exp(1j * k))
    w = np.linalg.eigvals(H).ravel() - 1j * model.gamma
    return w[np.lexsort((w.imag, w.real))]


def spectral_radius(spec: Spectrum) -> float:
    return float(np.max(np.abs(spec.eigenvalues))) if spec.dim else 0.0


def multiset_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Largest pairing error of an optimal one-to-one matching of two
    equal-size complex multisets.  Robust to ordering ties, unlike a sort."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ValidationError("multisets must have the same size")
    # SciPy is imported here, not with the module: no CLI path calls this
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def pair_with_negated_conjugate(eigenvalues: np.ndarray, rtol: float = 1e-8) -> bool:
    """Check the multiset {E} == {-conj(E)} (spectrum mirror about Re = 0)."""
    w = np.asarray(eigenvalues)
    scale = max(np.max(np.abs(w)), 1e-300)
    return multiset_distance(w, -w.conj()) < rtol * scale
