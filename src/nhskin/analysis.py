"""Wavefield decompositions, phase classification, and parameter sweeps.

Two complementary decompositions of the dynamics are provided: a Laplace
transform onto the generalized Brillouin zone (which exposes which complex
wavevectors carry the field) and a biorthogonal projection onto the
open-chain eigenmodes (which exposes which eigenfrequencies dominate).
On top of these sit the dynamic-phase classifier, the (t3, t4) phase
diagram scan, and energy sweeps along parameter paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dynamics import EnergyTrace, WaveField, _blocks, poke_state
from .errors import NumericalError, ValidationError
from .gbz import GBZ, Direction, GbzMethod, gap_report, gbz_compute, skin_direction
from .model import Family, LatticeModel, make_model, non_bloch_hamiltonians
from .spectral import Spectrum, eig_biorthogonal, obc_spectrum


class Phase(str, Enum):
    A = "A"
    APRIME = "Aprime"
    B = "B"
    BPRIME = "Bprime"
    C = "C"
    CPRIME = "Cprime"
    HERMITIAN_LINE = "HermitianLine"
    BOUNDARY = "Boundary"


@dataclass(frozen=True)
class PhaseLabel:
    """Classification of one parameter point: the label and the largest
    |Im E| of its open chain (0 on the Hermitian line, NaN at a Boundary
    point next to it), the two values the phase diagram writes."""

    label: Phase
    max_abs_im: float


@dataclass(frozen=True)
class GbzProjection:
    """Laplace-transform coefficients C[time, gbz_point, mode], scaled to a
    peak |C| of 1 at every time, with the cell energies E[gbz_point, mode]
    of the modes in the same column order."""

    times: np.ndarray
    coefficients: np.ndarray
    gbz: GBZ
    cell_energies: np.ndarray

    def band_pair_magnitude(self) -> np.ndarray:
        """One magnitude per GBZ point: root-sum-square of |C| over the mode
        of the point's energy E and the mode nearest -conj(E), its partner
        in the symmetry pair."""
        E = self.gbz.energies[:, None]
        w = self.cell_energies
        pick = np.zeros(w.shape, dtype=bool)
        for target in (E, -np.conj(E)):
            pick[np.arange(len(w)), np.argmin(np.abs(w - target), axis=1)] = True
        return np.sqrt(np.sum(np.abs(self.coefficients) ** 2 * pick, axis=2))


@dataclass(frozen=True)
class ModeDecomposition:
    """Open-chain eigenmode coefficients D[time, mode]."""

    times: np.ndarray
    coefficients: np.ndarray
    spectrum: Spectrum

    def reconstruct(self) -> np.ndarray:
        return self.coefficients @ self.spectrum.right_vectors.T


@dataclass(frozen=True)
class PhaseDiagram:
    t3_grid: np.ndarray
    t4_grid: np.ndarray
    labels: np.ndarray          # object array of PhaseLabel, shape (n4, n3)
    im_magnitude: np.ndarray    # max |Im E_OBC|, shape (n4, n3)


@dataclass(frozen=True)
class PathSpec:
    """Straight-line path (t3(m), t4(m)) = intercept + slope * m."""

    t1: float
    t2: float
    t3_intercept: float
    t3_slope: float
    t4_intercept: float
    t4_slope: float
    m_max: float

    def hoppings(self, m: float) -> tuple[float, float]:
        return (self.t3_intercept + self.t3_slope * m,
                self.t4_intercept + self.t4_slope * m)

    def samples(self, n: int) -> np.ndarray:
        """``n`` evenly spaced values of m from 0 to ``m_max``."""
        if n < 2:
            raise ValidationError("need at least 2 path samples")
        return np.linspace(0.0, self.m_max, int(n))

    def model_at(self, m: float, n_cells: int = 10) -> LatticeModel:
        if not 0 <= m <= self.m_max:
            raise ValidationError(f"m = {m} outside [0, {self.m_max}]")
        t3, t4 = self.hoppings(m)
        return make_model(Family.GT, self.t1, self.t2, t3, t4, n_cells=n_cells)


#: paths through the (t3, t4) plane at t1 = 1, t2 = 2 used in the
#: transition study; both start from the gapless point (t3, t4) = (4, 1)
PATH1 = PathSpec(1.0, 2.0, 4.0, -1.0, 1.0, +1.0, m_max=1.45)
PATH2 = PathSpec(1.0, 2.0, 4.0, 0.0, 1.0, +1.0, m_max=2.9)


@dataclass(frozen=True)
class TransitionSweep:
    path: PathSpec
    m_values: np.ndarray
    traces: list
    growth_rates: np.ndarray


def laplace_projection(field: WaveField, gbz: GBZ) -> GbzProjection:
    """Project a wavefield onto the GBZ via a discrete Laplace transform.

    For each beta on the GBZ, Psi_a(t, beta) = sum_{x=1..N} psi_a(t, x) beta^{-x}
    over unit cells x, component-wise in the sublattice index a; the
    coefficients are C_j(t, beta) = <phi_L,j(beta) | Psi(t, beta)> with the
    left eigenvectors of the cell Hamiltonian at beta, all cells solved as one
    stack.  The maximum |C| over (point, mode) is scaled to 1 at every time.
    Raises :class:`NumericalError` where beta^-x overflows the coefficients.
    """
    if field.model.with_(gamma=0.0) != gbz.model.with_(gamma=0.0, n_cells=field.model.n_cells):
        raise ValidationError("field and GBZ come from different models")
    N = field.model.n_cells
    psi = field.amplitudes.reshape(len(field.times), N, field.model.sites_per_cell)
    cells = eig_biorthogonal(non_bloch_hamiltonians(gbz.model, gbz.betas))
    with np.errstate(over="ignore", invalid="ignore"):    # caught below
        weights = gbz.betas[None, :] ** -np.arange(1.0, N + 1)[:, None]   # (N, P)
        Psi = np.tensordot(weights, psi, axes=([0], [1]))                 # (P, T, s)
        C = (Psi @ cells.left_vectors.conj()).swapaxes(0, 1)
        peak = np.max(np.abs(C), axis=(1, 2), keepdims=True)
        C = C / np.where(peak > 0, peak, 1.0)
    if not np.all(np.isfinite(C)):
        raise NumericalError(f"GBZ projection of the {N}-cell chain is not finite: beta^-x "
                             f"overflows at min|beta| = {np.min(np.abs(gbz.betas)):.3g}")
    return GbzProjection(field.times, C, gbz, cells.eigenvalues)


def obc_decomposition(field: WaveField) -> ModeDecomposition:
    """Biorthogonal coefficients D_j(t) = <phi_L,j | psi(t)> on the eigenmodes
    of the field's open chain."""
    spectrum = obc_spectrum(field.model)
    D = field.amplitudes @ spectrum.left_vectors.conj()
    return ModeDecomposition(field.times, D, spectrum)


def _mx_label(phase: Phase) -> Phase:
    """The label of a point's Mx image (t3 <-> t4): the skin direction
    flips, so a label and its primed partner swap."""
    if phase in (Phase.HERMITIAN_LINE, Phase.BOUNDARY):
        return phase
    if phase.value.endswith("prime"):
        return Phase(phase.value.removesuffix("prime"))
    return Phase(phase.value + "prime")


def classify_phase(model: LatticeModel, boundary_tol: float = 0.0) -> PhaseLabel:
    """Dynamic-phase label of a double-chain model at zero damping.

    The GBZ is fitted on the model's own open chain, whose eigenvalues also
    decide realness.  Classification ignores gamma (a uniform damping only
    shifts the spectrum).  C/C': real spectrum; A/A': complex spectrum with
    a real line gap; B/B': complex and gapless; primed means right-directed
    skin.
    """
    if model.family is not Family.GT:
        raise ValidationError("phase classification is defined for the double chain")
    if model.is_hermitian:
        return PhaseLabel(Phase.HERMITIAN_LINE, 0.0)
    if abs(model.t3 - model.t4) < boundary_tol:
        return PhaseLabel(Phase.BOUNDARY, np.nan)
    g = gbz_compute(model, GbzMethod.OBC_FIT, n_sites=model.n_sites)
    report = gap_report(g, g.chain_eigenvalues)
    sd = skin_direction(g)
    if sd.direction is Direction.NONE:
        # no skin direction despite non-Hermiticity
        return PhaseLabel(Phase.BOUNDARY, report.max_abs_im)
    if report.is_real_spectrum:
        base = Phase.C
    elif report.line_gap_width > 0:
        base = Phase.A
    else:
        base = Phase.B
    if sd.direction is Direction.RIGHT:
        base = _mx_label(base)
    return PhaseLabel(base, report.max_abs_im)


def scan_phase_diagram(t1: float, t2: float, t3_range=(0.2, 6.0),
                       t4_range=(0.2, 6.0), resolution: int = 24,
                       n_cells: int = 25) -> PhaseDiagram:
    """Classify every point of a (t3, t4) grid.

    Points closer to the Hermitian line than half a grid step are labeled
    Boundary.  Mx (t3 <-> t4) leaves the open-chain spectrum unchanged and
    swaps the primed labels, so each Mx pair is solved once: the first
    point of a pair in scan order is classified, and its partner (t4, t3),
    wherever the grid holds exactly those values, takes the swapped label
    and the same max|Im E|.
    """
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    t3s = np.linspace(*t3_range, resolution)
    t4s = np.linspace(*t4_range, resolution)
    step = max(abs(t3s[1] - t3s[0]), abs(t4s[1] - t4s[0]))
    column = {t: i3 for i3, t in enumerate(t3s.tolist())}
    row = {t: i4 for i4, t in enumerate(t4s.tolist())}
    labels = np.empty((resolution, resolution), dtype=object)

    for i4 in range(resolution):
        for i3 in range(resolution):
            if labels[i4, i3] is not None:
                continue
            m = make_model(Family.GT, t1, t2, t3s[i3], t4s[i4], n_cells=n_cells)
            lab = classify_phase(m, boundary_tol=step / 2)
            labels[i4, i3] = lab
            j4, j3 = row.get(t3s[i3]), column.get(t4s[i4])
            if j4 is not None and j3 is not None and labels[j4, j3] is None:
                labels[j4, j3] = PhaseLabel(_mx_label(lab.label), lab.max_abs_im)
    im_mag = np.array([lab.max_abs_im for lab in labels.ravel()]).reshape(labels.shape)
    return PhaseDiagram(t3s, t4s, labels, np.where(np.isfinite(im_mag), im_mag, 0.0))


def growth_rate(trace: EnergyTrace) -> float:
    """Least-squares slope of log P over the last quarter of the samples,
    which must hold at least 2 of them."""
    n = len(trace.times)
    start = int(np.floor(n * 0.75))
    if n - start < 2:
        raise ValidationError(f"growth-rate fit needs 2 samples in the last quarter "
                              f"of the time grid, which has {n - start} of {n}")
    t = trace.times[start:]
    P = trace.P[start:]
    if np.any(P <= 0):
        raise ValidationError("energy trace vanished inside the fit window")
    return float(np.polyfit(t, np.log(P), 1)[0])


def transition_sweep(path: PathSpec, m_samples, t_grid: np.ndarray,
                     n_cells: int = 10) -> TransitionSweep:
    """Poke the middle site of the undamped model at each path parameter m
    of the array ``m_samples`` (for instance ``path.samples(n)``).

    Returns the energy traces P(t) and the fitted late-time growth rates
    lambda(m) (slope of log P over the last quarter of the horizon).
    """
    ms = np.asarray(m_samples, dtype=float)
    t = np.asarray(t_grid, dtype=float)
    traces = []
    for m in ms:
        model = path.model_at(m, n_cells=n_cells)
        # each block reduced by energy_trace's row sum; the field is never held
        blocks = _blocks(model, poke_state(model, model.n_sites // 2), t)
        traces.append(EnergyTrace(t, np.concatenate(
            [np.sum(magnitude ** 2, axis=1) for _, _, magnitude, _ in blocks])))
    return TransitionSweep(path, ms, traces, np.array([growth_rate(tr) for tr in traces]))
