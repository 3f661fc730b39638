"""Numerical toolkit for dynamic non-Hermitian skin effects in a
nonreciprocal double-chain lattice: spectra, generalized Brillouin zones,
time-domain skin dynamics, biorthogonal decompositions, phase diagrams,
and transition sweeps."""

from .analysis import (PATH1, PATH2, GbzProjection, ModeDecomposition,
                       PathSpec, Phase, PhaseDiagram, PhaseLabel,
                       classify_phase, growth_rate, laplace_projection,
                       obc_decomposition, scan_phase_diagram,
                       transition_sweep)
from .dynamics import (EnergyTrace, Spectrogram, WaveField, default_time_grid,
                       energy_trace, evolve, packet_center, poke_state, stft,
                       synthesize_signal)
from .errors import (ConfigError, CrossValidationError, DegreeCollapseError,
                     HorizonTruncationError, NhskinError, NoTouchingPointError,
                     NumericalError, ValidationError)
from .gbz import (GBZ, Direction, GapReport, GbzMethod, SkinDirection,
                  chain_eigenvalues, charpoly_beta_roots, gap_report, gbz_compute,
                  gbz_touching_point, skin_direction)
from .model import (Family, LatticeModel, SymmetryOp,
                    apply_symmetry, bloch_hamiltonian, make_model,
                    non_bloch_hamiltonian, real_space_hamiltonian)
from .spectral import (Spectrum, eig_biorthogonal, obc_spectrum,
                       pair_with_negated_conjugate, pbc_spectrum)

__version__ = "0.1.0"
