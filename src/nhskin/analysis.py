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

from .dynamics import EnergyTrace, WaveField, energy_trace, evolve, poke_state
from .errors import ValidationError
from .gbz import (GBZ, Direction, GapReport, GbzMethod, SkinDirection,
                  gap_report, gbz_compute, skin_direction)
from .model import BC, Family, LatticeModel, make_model, non_bloch_hamiltonians
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


_PRIMED_SWAP = {
    Phase.A: Phase.APRIME, Phase.APRIME: Phase.A,
    Phase.B: Phase.BPRIME, Phase.BPRIME: Phase.B,
    Phase.C: Phase.CPRIME, Phase.CPRIME: Phase.C,
    Phase.HERMITIAN_LINE: Phase.HERMITIAN_LINE,
    Phase.BOUNDARY: Phase.BOUNDARY,
}


@dataclass(frozen=True)
class PhaseLabel:
    """Classification of one parameter point with its evidence."""

    label: Phase
    max_abs_im: float
    line_gap: float
    direction: SkinDirection | None


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
    """
    if field.model.with_(bc=BC.OBC, gamma=0.0) != gbz.model.with_(
            bc=BC.OBC, gamma=0.0, n_cells=field.model.n_cells):
        raise ValidationError("field and GBZ come from different models")
    N = field.model.n_cells
    psi = field.amplitudes.reshape(len(field.times), N, field.model.sites_per_cell)
    weights = gbz.betas[None, :] ** -np.arange(1.0, N + 1)[:, None]   # (N, P)
    cells = eig_biorthogonal(non_bloch_hamiltonians(gbz.model, gbz.betas))
    Psi = np.tensordot(weights, psi, axes=([0], [1]))                 # (P, T, s)
    C = (Psi @ cells.left_vectors.conj()).swapaxes(0, 1)
    peak = np.max(np.abs(C), axis=(1, 2), keepdims=True)
    C = C / np.where(peak > 0, peak, 1.0)
    return GbzProjection(field.times, C, gbz, cells.eigenvalues)


def obc_decomposition(field: WaveField, spectrum: Spectrum | None = None) -> ModeDecomposition:
    """Biorthogonal coefficients D_j(t) = <phi_L,j | psi(t)> on OBC eigenmodes."""
    if spectrum is None:
        spectrum = obc_spectrum(field.model)
    if spectrum.dim != field.model.n_sites:
        raise ValidationError(
            f"spectrum dimension {spectrum.dim} does not match field "
            f"({field.model.n_sites} sites)")
    D = field.amplitudes @ spectrum.left_vectors.conj()
    return ModeDecomposition(field.times, D, spectrum)


def classify_phase(model: LatticeModel, boundary_tol: float = 0.0,
                   gbz_sites: int = 160) -> PhaseLabel:
    """Dynamic-phase label of a double-chain model at zero damping.

    Classification ignores gamma (a uniform damping only shifts the
    spectrum).  C/C': real spectrum; A/A': complex spectrum with a real
    line gap; B/B': complex and gapless; primed means right-directed skin.
    """
    if model.family is not Family.GT:
        raise ValidationError("phase classification is defined for the double chain")
    m0 = model.with_(gamma=0.0)
    if m0.t3 == m0.t4:
        return PhaseLabel(Phase.HERMITIAN_LINE, 0.0, _hermitian_gap(m0), None)
    if abs(m0.t3 - m0.t4) < boundary_tol:
        return PhaseLabel(Phase.BOUNDARY, np.nan, np.nan, None)
    g = gbz_compute(m0, GbzMethod.OBC_FIT, n_sites=gbz_sites)
    report = gap_report(m0, gbz_sites=gbz_sites, gbz=g)
    sd = skin_direction(g)
    if sd.direction is Direction.NONE:
        # no skin direction despite non-Hermiticity
        return PhaseLabel(Phase.BOUNDARY, report.max_abs_im,
                          report.line_gap_width, sd)
    if report.is_real_spectrum:
        base = Phase.C
    elif report.line_gap_width > 0:
        base = Phase.A
    else:
        base = Phase.B
    if sd.direction is Direction.RIGHT:
        base = _PRIMED_SWAP[base]
    return PhaseLabel(base, report.max_abs_im, report.line_gap_width, sd)


def _hermitian_gap(model: LatticeModel) -> float:
    """Line gap of a Hermitian model from a dense Bloch sweep."""
    ks = np.linspace(-np.pi, np.pi, 401)
    e = np.linalg.eigvalsh(non_bloch_hamiltonians(model, np.exp(1j * ks)))
    return 2 * float(np.min(np.abs(e)))


def scan_phase_diagram(t1: float, t2: float, t3_range=(0.2, 6.0),
                       t4_range=(0.2, 6.0), resolution: int = 24,
                       n_cells: int = 25) -> PhaseDiagram:
    """Classify every point of a (t3, t4) grid.

    Points closer to the Hermitian line than half a grid step are labeled
    Boundary.
    """
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    t3s = np.linspace(*t3_range, resolution)
    t4s = np.linspace(*t4_range, resolution)
    step = max(t3s[1] - t3s[0], t4s[1] - t4s[0])
    labels = np.empty((resolution, resolution), dtype=object)
    im_mag = np.zeros((resolution, resolution))

    for i4 in range(resolution):
        for i3 in range(resolution):
            m = make_model(Family.GT, t1, t2, t3s[i3], t4s[i4], n_cells=n_cells)
            lab = classify_phase(m, boundary_tol=step / 2, gbz_sites=m.n_sites)
            labels[i4, i3] = lab
            im_mag[i4, i3] = lab.max_abs_im if np.isfinite(lab.max_abs_im) else 0.0
    return PhaseDiagram(t3s, t4s, labels, im_mag)


def hn_direction(t1: float, t2: float) -> Direction:
    """Skin direction of the single-band nonreciprocal chain.

    The GBZ is a circle of radius sqrt(t2/t1) with the convention that t1
    carries amplitude leftward, so t1 > t2 piles states up on the left.
    """
    if t1 > t2:
        return Direction.LEFT
    if t1 < t2:
        return Direction.RIGHT
    return Direction.NONE


def growth_rate(trace: EnergyTrace, fit_fraction: float = 0.25) -> float:
    """Least-squares slope of log P over the last ``fit_fraction`` of time."""
    if not 0 < fit_fraction <= 1:
        raise ValidationError("fit_fraction must be in (0, 1]")
    n = len(trace.times)
    start = int(np.floor(n * (1 - fit_fraction)))
    t = trace.times[start:]
    P = trace.P[start:]
    if np.any(P <= 0):
        raise ValidationError("energy trace vanished inside the fit window")
    return float(np.polyfit(t, np.log(P), 1)[0])


def transition_sweep(path: PathSpec, m_samples, t_grid: np.ndarray,
                     n_cells: int = 10) -> TransitionSweep:
    """Poke the middle site of each undamped model along a parameter path.

    Returns the energy traces P(t) and the fitted late-time growth rates
    lambda(m) (slope of log P over the last quarter of the horizon).
    """
    if np.isscalar(m_samples):
        if m_samples < 2:
            raise ValidationError("need at least 2 path samples")
        ms = np.linspace(0.0, path.m_max, int(m_samples))
    else:
        ms = np.asarray(m_samples, dtype=float)
    traces = []
    rates = []
    for m in ms:
        model = path.model_at(m, n_cells=n_cells)
        tr = energy_trace(evolve(model, poke_state(model, model.n_sites // 2), t_grid))
        traces.append(tr)
        rates.append(growth_rate(tr))
    return TransitionSweep(path, ms, traces, np.array(rates))
