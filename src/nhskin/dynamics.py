"""Time evolution under the effective first-order equation i dpsi/dt = H psi.

Propagation steps a uniform time grid with the matrix exponential
U = expm(-i H dt) of the open chain, so its accuracy does not depend on
how well conditioned the chain's eigenvector basis is (strongly
non-normal chains reach condition numbers of 1e14-1e17).  The uniform
damping gamma is a scalar shift of the Hamiltonian and is factored out as
an exact exp(-gamma*t) envelope, which keeps the damping-factorization
identity exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.signal

from .errors import HorizonTruncationError, ValidationError
from .model import BC, LatticeModel, real_space_hamiltonian

#: amplitude magnitude beyond which evolution is truncated
OVERFLOW_GUARD = 1e120
#: entries of the stacked propagator powers [U; U^2; ...; U^B]; the block
#: size B follows from the chain size (40 at 40 sites, 2 at 160 sites)
_STACK_ENTRIES = 2 ** 16


@dataclass(frozen=True)
class WaveField:
    """Complex amplitudes on a time grid; rows are times, columns sites."""

    times: np.ndarray
    amplitudes: np.ndarray
    model: LatticeModel

    def __post_init__(self):
        if self.amplitudes.shape != (len(self.times), self.model.n_sites):
            raise ValidationError(
                f"amplitude shape {self.amplitudes.shape} does not match "
                f"{len(self.times)} times x {self.model.n_sites} sites")


@dataclass(frozen=True)
class EnergyTrace:
    times: np.ndarray
    P: np.ndarray


@dataclass(frozen=True)
class Spectrogram:
    times: np.ndarray
    frequencies: np.ndarray
    magnitudes: np.ndarray


def poke_state(model: LatticeModel, site: int) -> np.ndarray:
    """Unit amplitude on one site (1-based global index), zero elsewhere."""
    if not 1 <= site <= model.n_sites:
        raise ValidationError(
            f"site {site} outside 1..{model.n_sites}")
    psi = np.zeros(model.n_sites, dtype=complex)
    psi[site - 1] = 1.0
    return psi


def default_time_grid(horizon: float = 20.0, fs: float = 500.0) -> np.ndarray:
    return np.arange(0.0, horizon + 0.5 / fs, 1.0 / fs)


def evolve(model: LatticeModel, psi0: np.ndarray, t_grid: np.ndarray) -> WaveField:
    """Propagate ``psi0`` over a uniform ``t_grid`` under the open-chain
    Hamiltonian.

    The undamped step U = expm(-i H dt) is computed once; the field then
    advances in blocks of B steps, each one product of the stacked powers
    [U; U^2; ...; U^B] with the last computed row.  Raises
    :class:`HorizonTruncationError` when the amplified field leaves the
    representable range, naming the last valid time.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    t = np.asarray(t_grid, dtype=float)
    n = model.n_sites
    if psi0.shape != (n,):
        raise ValidationError(f"psi0 must have length {n}")
    if len(t) == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValidationError("t_grid must be strictly increasing from 0")
    amps = np.empty((len(t), n), dtype=complex)
    amps[0] = psi0    # the identity propagator is exact at t = 0
    if len(t) > 1:
        dt = t[1]
        if np.any(np.abs(np.diff(t) - dt) > 1e-9 * dt):
            raise ValidationError("t_grid must be uniformly spaced")
        H = real_space_hamiltonian(model.with_(gamma=0.0, bc=BC.OBC))
        B = min(max(1, _STACK_ENTRIES // n ** 2), len(t) - 1)
        powers = np.empty((B, n, n), dtype=complex)
        powers[0] = scipy.linalg.expm(-1j * dt * H)
        for k in range(1, B):
            powers[k] = powers[0] @ powers[k - 1]
        stack = powers.reshape(B * n, n)
        for i in range(1, len(t), B):
            k = min(B, len(t) - i)
            block = (stack[:k * n] @ amps[i - 1]).reshape(k, n)
            # NaN fails the comparison as well, so non-finite rows are caught
            bad = ~(np.abs(block).max(axis=1) <= OVERFLOW_GUARD)
            if np.any(bad):
                raise HorizonTruncationError(float(t[i - 1 + int(np.argmax(bad))]))
            amps[i:i + k] = block
    amps *= np.exp(-model.gamma * t)[:, None]    # exactly 1 at t = 0
    return WaveField(t, amps, model)


def energy_trace(field: WaveField) -> EnergyTrace:
    """Total wave energy P(t) = sum over sites of |psi|^2."""
    return EnergyTrace(field.times, np.sum(np.abs(field.amplitudes) ** 2, axis=1))


def packet_center(field: WaveField) -> np.ndarray:
    """Energy-weighted mean unit-cell coordinate x_c(t)."""
    s = field.model.sites_per_cell
    w = np.abs(field.amplitudes) ** 2
    cells = w.reshape(len(field.times), field.model.n_cells, s).sum(axis=2)
    x = np.arange(1, field.model.n_cells + 1)
    P = cells.sum(axis=1)
    return (cells @ x) / np.where(P > 0, P, 1.0)


def synthesize_signal(field: WaveField, omega0: float | None = None) -> np.ndarray:
    """Per-site real signal theta_n(t) = Re[psi_n(t) exp(-i omega0 t)]."""
    if omega0 is None:
        omega0 = field.model.omega0
    if omega0 < 0:
        raise ValidationError("omega0 must be >= 0")
    carrier = np.exp(-1j * omega0 * field.times)[:, None]
    return np.real(field.amplitudes * carrier)


def stft(signal: np.ndarray, fs: float = 500.0, window_len: int = 1000,
         hop: int = 50) -> Spectrogram:
    """Magnitude spectrogram of a real signal with a Hann window.

    Defaults correspond to a 2 s window and 0.1 s hop at 500 Hz sampling.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise ValidationError("signal must be one-dimensional")
    if window_len < 1:
        raise ValidationError(f"window ({window_len} samples) must be >= 1 sample")
    if window_len > len(signal):
        raise ValidationError(
            f"window ({window_len}) longer than signal ({len(signal)})")
    if hop < 1:
        raise ValidationError(f"hop ({hop} samples) must be >= 1 sample")
    win = scipy.signal.windows.hann(window_len, sym=False)
    sft = scipy.signal.ShortTimeFFT(win, hop=hop, fs=fs, scale_to="magnitude")
    S = sft.stft(signal)
    return Spectrogram(sft.t(len(signal)), sft.f, np.abs(S))
