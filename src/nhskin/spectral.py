"""Biorthogonal eigensystems, the OBC spectrum, and PBC eigenvalues.

One matrix or a stack (..., n, n) is solved in one batched call, in the
arithmetic of its own dtype.  Left eigenvectors solve R^H L = I, R the
right ones, so <phi_L,i | phi_R,j> = delta_ij holds to the accuracy of that
one solve.  Near-exceptional matrices (ill-conditioned eigenvector basis)
are flagged rather than rejected.  The open chain is solved real and
undamped in the gauge of ``gbz.chain_eigenvalues``; the periodic spectrum
is the closed-form cell energies of ``gbz._cell_energy_sets`` on the unit
circle, with no eigensolve.  Every spectrum is in :func:`mode_order`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .gbz import _cell_energy_sets, _gauge_radius
from .model import LatticeModel, _open_chain

#: eigenvector-matrix condition number above which a spectrum is flagged
NEAR_EXCEPTIONAL_COND = 1e8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with paired right/left eigenvectors (columns).

    ``left_vectors[:, i].conj() @ right_vectors[:, j] == delta_ij`` after
    normalization.  Eigenvalues are in :func:`mode_order`.  A stack of
    matrices adds its leading axes, also to the condition number.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    condition_number: float | np.ndarray

    @property
    def near_exceptional(self):
        return self.condition_number > NEAR_EXCEPTIONAL_COND


def mode_order(w: np.ndarray) -> np.ndarray:
    """Indices sorting the last axis by Re, then Im, a Re below 1e-9 max|E| as 0."""
    small = np.abs(w.real) < 1e-9 * np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)
    return np.lexsort((w.imag, np.where(small, 0.0, w.real)), axis=-1)


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
    order = mode_order(w)
    # NumPy returns a stack with only real eigenvalues in real arithmetic
    w = np.take_along_axis(w, order, axis=-1).astype(complex, copy=False)
    vr = np.take_along_axis(vr, order[..., None, :], axis=-1).astype(complex, copy=False)
    cond = np.linalg.cond(vr)
    worst = np.max(cond, initial=0.0)
    if worst > NEAR_EXCEPTIONAL_COND:
        warnings.warn(f"near-exceptional spectrum: eigenvector condition number "
                      f"{worst:.3g}; biorthogonal quantities have degraded accuracy",
                      RuntimeWarning, stacklevel=2)
    # left eigenvectors as kets, with L^H R - I the residual of this solve
    vl = np.linalg.inv(vr.conj().swapaxes(-1, -2))
    return Spectrum(w, vr, vl, cond)


def obc_spectrum(model: LatticeModel) -> Spectrum:
    """Eigensystem of the open chain, from the undamped gauged chain S^-1 H S,
    S = diag(r^x), of ``gbz.chain_eigenvalues`` (``_open_chain(model, r)``)
    in real arithmetic: right vectors S v scaled to unit norm, left vectors
    S^-1 u times those norms, eigenvalues shifted by -i*gamma.
    ``condition_number`` is the gauged basis'.  Raises
    :class:`NumericalError` if r^x leaves the float range."""
    r = _gauge_radius(model)
    x = np.arange(model.n_cells) * np.log(r)     # log r^x, cell by cell
    if np.ptp(x) > -np.log(np.finfo(float).tiny):
        raise NumericalError(f"gauge r^x, r = {r:.3g}, leaves the float range on {len(x)} cells")
    s = np.repeat(np.exp(x - x.max()), model.sites_per_cell)[:, None]
    g = eig_biorthogonal(_open_chain(model, r))
    n = np.linalg.norm(s * g.right_vectors, axis=0)
    return replace(g, eigenvalues=g.eigenvalues - 1j * model.gamma,
                   right_vectors=s * g.right_vectors / n, left_vectors=g.left_vectors / s * n)


def pbc_spectrum(model: LatticeModel, n_k: int = 50) -> np.ndarray:
    """Union of Bloch eigenvalues over k = 2*pi*m/n_k, shifted by -i*gamma, in
    mode order: the closed-form cell energies at beta = e^{ik}."""
    if n_k < 1:
        raise ValidationError("n_k must be >= 1")
    k = 2 * np.pi * np.arange(n_k) / n_k
    w = _cell_energy_sets(model, np.exp(1j * k)).ravel() - 1j * model.gamma
    return w[mode_order(w)]


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
