"""Time evolution under the effective first-order equation i dpsi/dt = H psi.

Every open chain is bipartite, its hoppings joining sublattice A only to
B, so it propagates T psi, T = diag(1 on A, i on B), under the real
K = -i T H T^-1.  Propagation steps a uniform time grid with the matrix
exponential U = expm(dt K), a NumPy [13/13] Pade approximant with
scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)),
so its accuracy does not depend on how well conditioned the chain's
eigenvector basis is (strongly non-normal chains reach condition numbers
of 1e14-1e17).  The states come
in blocks of B rows: the first is built by doubling with U, U^2, U^4, ...,
and each later one is the previous block times U^B, so a poke is one real
product per block.  The uniform
damping gamma is a scalar shift of the Hamiltonian and is factored out as
an exact exp(-gamma*t) envelope, which keeps the damping-factorization
identity exact.  The spectrogram is a NumPy STFT: a periodic Hann window
slid over the zero-padded signal on the slice grid of SciPy's ShortTimeFFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import HorizonTruncationError, ValidationError
from .model import LatticeModel, _open_chain, _sublattice_a

#: amplitude magnitude beyond which evolution is truncated
OVERFLOW_GUARD = 1e120
#: largest number of amplitudes in one propagated block; the block size B
#: is the largest power of two within it (1024 at 40 sites, 256 at 160)
_BLOCK_ENTRIES = 2 ** 16


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


#: numerator coefficients b_0..b_13 of the [13/13] Pade approximant of exp
_PADE13 = (64764752532480000., 32382376266240000., 7771770303897600.,
           1187353796428800., 129060195264000., 10559470521600., 670442572800.,
           33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.)
#: largest 1-norm at which the [13/13] approximant has a backward error below
#: the unit roundoff
_THETA13 = 5.371920351148152


def _expm(A: np.ndarray) -> np.ndarray:
    """exp(A) by the [13/13] Pade approximant of A / 2^s, squared s times,
    with s the least power that brings the 1-norm of A within theta_13."""
    norm = np.linalg.norm(A, 1)
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm > 0 else 0
    A = A / 2.0 ** s
    b = _PADE13
    eye = np.eye(len(A), dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    # (V - U)^-1 (V + U), written so that the identity is added exactly
    R = eye + 2 * np.linalg.solve(V - U, U)
    for _ in range(s):
        R = R @ R
    return R


def _blocks(model: LatticeModel, psi0: np.ndarray, t: np.ndarray):
    """Check ``psi0`` and the time grid, then yield ``(i, block, magnitude,
    back)``: the undamped open-chain states phi at ``t[i:i + len(block)]``,
    their moduli, which the overflow guard has already taken, and psi = back
    * phi.  The chain propagates phi = T psi / c, T = diag(1 on A, i on B),
    c the phase of its largest entry at t = 0, by the real K = -i T H T^-1
    (H = ``_open_chain(model)`` joins A only to B), in real arithmetic when
    phi is real."""
    psi0 = np.asarray(psi0, dtype=complex)
    n = model.n_sites
    if psi0.shape != (n,):
        raise ValidationError(f"psi0 must have length {n}")
    if len(t) == 0 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
        raise ValidationError("t_grid must be strictly increasing from 0")
    dt = t[1] if len(t) > 1 else 0.0
    if np.any(np.abs(np.diff(t) - dt) > 1e-9 * dt):
        raise ValidationError("t_grid must be uniformly spaced")
    B = min(1 << (max(1, _BLOCK_ENTRIES // n).bit_length() - 1), len(t))
    H = _open_chain(model)
    on_b = ~_sublattice_a(model)
    G = dt * H * (on_b[:, None] * 1.0 - on_b[None, :])    # -H from A to B, H from B to A
    phi = np.where(on_b, 1j, 1) * psi0
    big = phi[np.argmax(np.abs(phi))]
    c = big / abs(big) if big else 1.0
    block, back = phi[None, :] / c, np.where(on_b, -1j, 1) * c
    block = block if np.any(block.imag) else block.real
    W = _expm(G).T    # rows are states: they advance by U^T, U = expm(dt K)
    for i in range(0, len(t), B):
        with np.errstate(over="ignore", invalid="ignore"):    # the guard catches overflow
            while i == 0 and len(block) < B:    # doubling: W = (U^len(block))^T
                block = np.concatenate([block, block[:B - len(block)] @ W])
                W = W @ W
            if i:
                block = block[:len(t) - i] @ W    # W = (U^B)^T
        magnitude = np.abs(block)
        # NaN fails the comparison as well; rows are searched once the maximum fails
        if not magnitude.max() <= OVERFLOW_GUARD:
            bad = ~(magnitude.max(axis=1) <= OVERFLOW_GUARD)
            raise HorizonTruncationError(float(t[max(i + int(np.argmax(bad)) - 1, 0)]))
        yield i, block, magnitude, back


def evolve(model: LatticeModel, psi0: np.ndarray, t_grid: np.ndarray) -> WaveField:
    """Propagate ``psi0`` over a uniform ``t_grid`` under the open-chain
    Hamiltonian.  Raises :class:`HorizonTruncationError` when the amplified
    field leaves the representable range, naming the last valid time."""
    t = np.asarray(t_grid, dtype=float)
    amps = np.empty((len(t), model.n_sites), dtype=complex)
    for i, block, _, back in _blocks(model, psi0, t):
        # adding 0 turns the -0 of a product into the +0 that propagating psi
        # itself by expm(-i H dt), the tests' oracle, keeps
        amps[i:i + len(block)] = back * block + 0.0
    if model.gamma:
        amps *= np.exp(-model.gamma * t)[:, None]
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
    m, n = window_len, len(signal)
    win = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(m) / m) if m > 1 else np.ones(1)
    # slice p is centred on sample p * hop; keep those whose nonzero samples touch the signal
    mid, first = m // 2, int(m > 1)
    p_min, p_max = -((m - 1 - mid) // hop), max(n // hop + 1, (n - 1 + mid - first) // hop + 1)
    k0, k1 = p_min * hop - mid, (p_max - 1) * hop - mid + m
    padded = np.pad(signal[:k1], (-k0, max(k1 - n, 0)))
    frames = sliding_window_view(padded, m)[::hop]
    return Spectrogram(np.arange(p_min, p_max) * (hop * (1 / fs)), np.fft.rfftfreq(m, 1 / fs),
                       np.abs(np.fft.rfft(frames * (win / win.sum()), axis=1)).T)
