"""Lattice models and Hamiltonian builders.

The main model is a 1D nonreciprocal double chain with four sites per unit
cell.  Horizontal (along-chain) hoppings t1, t2 are reciprocal; the vertical
inter-chain hoppings t3, t4 are directed, which is the only source of
non-Hermiticity.  Two reference models, a single-band nonreciprocal chain
(Hatano-Nelson) and a two-band nonreciprocal SSH chain, share the same
parameter container.  Every family is a banded block-Toeplitz chain, defined
once by its real blocks (H0, Hp, Hm) in ``_hopping_blocks``; the cell and
Bloch Hamiltonians and ``_open_chain``, the one open-chain assembler, are all
built from those blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import ValidationError


class Family(str, Enum):
    GT = "GT"
    HATANO_NELSON = "HatanoNelson"
    NH_SSH = "NHSSH"


class SymmetryOp(str, Enum):
    MX = "Mx"
    MY = "My"
    P = "P"
    G = "G"


SITES_PER_CELL = {Family.GT: 4, Family.HATANO_NELSON: 1, Family.NH_SSH: 2}


@dataclass(frozen=True)
class LatticeModel:
    """Immutable parameter set for one lattice realization.

    All hopping rates are in rad/s and strictly positive.  ``gamma`` is a
    uniform damping rate entering as -i*gamma on every onsite term of the
    real-space Hamiltonian.  ``omega0`` is the carrier angular frequency and
    is applied only at signal synthesis, never inside the Hamiltonian.
    """

    family: Family
    t1: float
    t2: float
    t3: float
    t4: float
    omega0: float
    gamma: float
    n_cells: int
    nhssh_delta: float | None = None

    def __post_init__(self):
        for name in ("t1", "t2", "t3", "t4"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValidationError(f"{name} must be finite and > 0, got {v}")
        if not np.isfinite(self.omega0) or self.omega0 < 0:
            raise ValidationError(f"omega0 must be >= 0, got {self.omega0}")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValidationError(f"gamma must be >= 0, got {self.gamma}")
        if int(self.n_cells) != self.n_cells or self.n_cells < 1:
            raise ValidationError(f"n_cells must be a positive integer, got {self.n_cells}")

    @property
    def sites_per_cell(self) -> int:
        return SITES_PER_CELL[self.family]

    @property
    def n_sites(self) -> int:
        return self.sites_per_cell * self.n_cells

    @property
    def delta(self) -> float:
        """Nonreciprocity of the NH-SSH intra-cell bond (defaults to min(t1,t2)/2)."""
        if self.nhssh_delta is not None:
            return self.nhssh_delta
        return 0.5 * min(self.t1, self.t2)

    @property
    def is_hermitian(self) -> bool:
        """H0 is symmetric and Hp is the transpose of Hm (all blocks are real)."""
        h0, hp, hm = _hopping_blocks(self)
        return bool(np.array_equal(h0, h0.T) and np.array_equal(hp, hm.T))

    def with_(self, **kw) -> "LatticeModel":
        return replace(self, **kw)


def make_model(family, t1, t2, t3, t4, omega0=0.0, gamma=0.0, n_cells=10,
               nhssh_delta=None) -> LatticeModel:
    """Validate and build a :class:`LatticeModel`."""
    return LatticeModel(Family(family), float(t1), float(t2), float(t3), float(t4),
                        float(omega0), float(gamma), int(n_cells), nhssh_delta)


def _hopping_blocks(model: LatticeModel):
    """The real blocks of H(beta) = H0 + Hp*beta + Hm/beta, the only
    definition of each family.

    Hp couples cell x to cell x+1 (amplitude for motion to the left), Hm
    couples cell x to cell x-1.
    """
    t1, t2, t3, t4 = model.t1, model.t2, model.t3, model.t4
    if model.family is Family.GT:
        h0 = [[0, t4, t2, 0], [t3, 0, 0, t1], [t2, 0, 0, t3], [0, t1, t4, 0]]
        hp = [[0, 0, 0, 0], [0, 0, 0, 0], [t1, 0, 0, 0], [0, t2, 0, 0]]
        hm = [[0, 0, t1, 0], [0, 0, 0, t2], [0, 0, 0, 0], [0, 0, 0, 0]]
    elif model.family is Family.HATANO_NELSON:
        # t1 carries amplitude to the left, t2 to the right
        h0, hp, hm = [[0]], [[t1]], [[t2]]
    else:
        d = model.delta
        h0, hp, hm = [[0, t1 + d], [t1 - d, 0]], [[0, 0], [t2, 0]], [[0, t2], [0, 0]]
    return tuple(np.array(block, dtype=float) for block in (h0, hp, hm))


#: (period, sites) of sublattice A of each family: every hopping joins a
#: site of A to one of B, GT {1, 4} | {2, 3} of a cell, NH-SSH {1} | {2}
#: and Hatano-Nelson even | odd sites
_SUBLATTICE = {Family.GT: (4, (0, 3)), Family.NH_SSH: (2, (0,)),
               Family.HATANO_NELSON: (2, (0,))}


def _sublattice_a(model: LatticeModel) -> np.ndarray:
    """Boolean mask of the open chain's sites on sublattice A."""
    period, sites = _SUBLATTICE[model.family]
    return np.isin(np.arange(model.n_sites) % period, sites)


def bloch_hamiltonian(model: LatticeModel, k: float) -> np.ndarray:
    """Cell-periodic Bloch Hamiltonian at real wavenumber ``k``.

    4x4 for the double chain, 1x1 for Hatano-Nelson, 2x2 for NH-SSH.
    The uniform damping gamma is not included here.
    """
    return non_bloch_hamiltonian(model, np.exp(1j * float(k)))


def non_bloch_hamiltonian(model: LatticeModel, beta: complex) -> np.ndarray:
    """Cell Hamiltonian continued to a complex generalized wavevector ``beta``.

    ``beta = exp(i k)`` with real ``k`` recovers the Bloch Hamiltonian.
    """
    return non_bloch_hamiltonians(model, [complex(beta)])[0]


def non_bloch_hamiltonians(model: LatticeModel, betas) -> np.ndarray:
    """Stack of cell Hamiltonians H0 + Hp*beta + Hm/beta, shape (n, s, s),
    one per beta; :func:`non_bloch_hamiltonian` returns element 0 of it."""
    b = np.atleast_1d(np.asarray(betas, dtype=complex))
    if np.any(b == 0):
        raise ValidationError("beta must be nonzero (1/beta pole)")
    h0, hp, hm = _hopping_blocks(model)
    b = b[:, None, None]
    return h0 + hp * b + hm / b


def _open_chain(model: LatticeModel, r: float = 1.0) -> np.ndarray:
    """The undamped open chain S^-1 H S, S = diag(r^x), in float64: H0 on
    the diagonal cells, r Hp above and Hm / r below (no power of r)."""
    h0, hp, hm = _hopping_blocks(model)
    n, s = model.n_cells, len(h0)
    x = np.arange(n)
    H = np.zeros((n, s, n, s))
    H[x, :, x, :] = h0
    H[x[:-1], :, x[1:], :] = r * hp
    H[x[1:], :, x[:-1], :] = hm / r
    return H.reshape(n * s, n * s)


def real_space_hamiltonian(model: LatticeModel) -> np.ndarray:
    """Full dense Hamiltonian of the open chain of ``n_cells`` cells:
    H0 - i*gamma on the diagonal cells, Hp above and Hm below.  omega0 is
    excluded (it only rotates the global phase)."""
    return _open_chain(model) - 1j * model.gamma * np.eye(model.n_sites)


_SWAPS = {
    SymmetryOp.MX: (("t3", "t4"),),
    SymmetryOp.MY: (("t3", "t4"), ("t1", "t2")),
    SymmetryOp.P: (("t1", "t2"),),
    SymmetryOp.G: (),
}


def apply_symmetry(model: LatticeModel, op: SymmetryOp) -> LatticeModel:
    """Apply a spatial transform to the parameters.

    Mx swaps t3<->t4, My swaps both pairs, P swaps t1<->t2, and the glide G
    leaves every parameter invariant.
    """
    op = SymmetryOp(op)
    kw = {}
    for a, b in _SWAPS[op]:
        kw[a] = getattr(model, b)
        kw[b] = getattr(model, a)
    return model.with_(**kw) if kw else model
