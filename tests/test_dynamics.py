import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

from nhskin import (Family, HorizonTruncationError, ValidationError,
                    default_time_grid, eig_biorthogonal, energy_trace, evolve, make_model,
                    packet_center, poke_state, real_space_hamiltonian, stft,
                    synthesize_signal)
from nhskin.dynamics import _expm

hopping = st.floats(min_value=0.2, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


def test_poke_state_basics(model_a):
    psi = poke_state(model_a, 20)
    assert psi[19] == 1.0
    assert np.linalg.norm(psi) == 1.0
    with pytest.raises(ValidationError):
        poke_state(model_a, 41)
    with pytest.raises(ValidationError):
        poke_state(model_a, 0)


def test_time_zero_is_identity(model_a):
    psi0 = poke_state(model_a, 20)
    field = evolve(model_a, psi0, np.array([0.0]))
    assert np.array_equal(field.amplitudes[0], psi0)


def test_hermitian_norm_conserved(model_hermitian):
    t = default_time_grid()
    field = evolve(model_hermitian, poke_state(model_hermitian, 20), t)
    P = energy_trace(field).P
    assert np.max(np.abs(P - 1.0)) < 1e-6


def test_semigroup_property(model_a):
    psi0 = poke_state(model_a, 20)
    t = np.linspace(0.0, 4.0, 41)
    whole = evolve(model_a, psi0, t)
    first = evolve(model_a, psi0, np.linspace(0.0, 2.0, 21))
    second = evolve(model_a, first.amplitudes[-1], np.linspace(0.0, 2.0, 21))
    scale = np.max(np.abs(whole.amplitudes[-1]))
    assert np.max(np.abs(second.amplitudes[-1] - whole.amplitudes[-1])) < 1e-8 * scale


@given(t1=hopping, t2=hopping, t3=hopping, t4=hopping,
       gamma=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=15, deadline=None)
def test_damping_factorization(t1, t2, t3, t4, gamma):
    m = make_model(Family.GT, t1, t2, t3, t4, gamma=gamma, n_cells=5)
    t = np.linspace(0.0, 5.0, 26)
    psi0 = poke_state(m, 10)
    damped = evolve(m, psi0, t).amplitudes
    free = evolve(m.with_(gamma=0.0), psi0, t).amplitudes
    assert np.max(np.abs(damped - free * np.exp(-gamma * t)[:, None])) < 1e-10


def test_spectral_vs_integrator(model_a, dop853):
    t = default_time_grid(10.0, fs=50.0)
    psi0 = poke_state(model_a, 20)
    a = evolve(model_a, psi0, t).amplitudes
    b = dop853(model_a, psi0, t)
    assert np.max(np.abs(a - b)) < 1e-6 * np.max(np.abs(a))


def _expm_error(A):
    """Largest entry error of _expm against scipy.linalg.expm, relative to
    the largest entry of the exponential."""
    ref = scipy.linalg.expm(A)
    return np.max(np.abs(_expm(A) - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("phase", ["model_a", "model_b", "model_c"])
@pytest.mark.parametrize("n_cells", [10, 40])
@pytest.mark.parametrize("dt", [1 / 500, 1 / 100, 1 / 20, 1 / 5, 1 / 2])
def test_expm_matches_scipy_on_the_presets(phase, n_cells, dt, request):
    """The propagator of each preset chain at 40 and 160 sites over the
    time steps of a run, from no squaring (dt = 1/500: 1-norm <= 0.06) to
    two (dt = 1/2)."""
    m = request.getfixturevalue(phase).with_(n_cells=n_cells, gamma=0.0)
    assert _expm_error(-1j * dt * real_space_hamiltonian(m)) < 1e-14


@pytest.mark.parametrize("phase", ["model_a", "model_b", "model_c"])
@pytest.mark.parametrize("dt, squarings, tol", [(5.0, 5, 1e-13), (50.0, 9, 1e-11)])
def test_expm_matches_scipy_after_many_squarings(phase, dt, squarings, tol, request):
    """At |H dt|_1 of 140-1600 the approximant is squared 5 and 9 times; the
    rounding of each squaring is amplified by the later ones, in SciPy's
    scaling and squaring as well."""
    H = real_space_hamiltonian(request.getfixturevalue(phase).with_(gamma=0.0))
    A = -1j * dt * H
    assert np.ceil(np.log2(np.linalg.norm(A, 1) / 5.371920351148152)) == squarings
    assert _expm_error(A) < tol


def test_expm_matches_scipy_on_a_near_exceptional_chain(model_a):
    """Phase A at 160 sites: the eigenvector basis is numerically singular,
    which a Pade approximant never uses."""
    m = model_a.with_(n_cells=40, gamma=0.0)
    H = real_space_hamiltonian(m)
    with pytest.warns(RuntimeWarning, match="near-exceptional"):
        assert eig_biorthogonal(H).condition_number >= 1e14
    for dt in (1 / 500, 1 / 7, 3.0):
        assert _expm_error(-1j * dt * H) < 1e-13, dt


def test_expm_matches_scipy_on_random_chains():
    rng = np.random.default_rng(20)
    for _ in range(100):
        m = make_model(Family.GT, *rng.uniform(0.2, 15.0, 4),
                       n_cells=int(rng.integers(2, 30)))
        dt = 10 ** rng.uniform(-3, 0.5)
        assert _expm_error(-1j * dt * real_space_hamiltonian(m)) < 1e-14, (m, dt)


def test_expm_of_zero_is_the_identity():
    assert np.array_equal(_expm(np.zeros((4, 4), dtype=complex)), np.eye(4))


def test_near_exceptional_chain_matches_matrix_exponential(model_a):
    """At 160 sites the eigenvector condition number of phase A is ~1e17;
    the field must still match expm(-iHt) psi0 e^(-gamma t) row by row."""
    m = model_a.with_(n_cells=40)
    t = default_time_grid(10.0)
    psi0 = poke_state(m, 20)
    field = evolve(m, psi0, t)
    H = real_space_hamiltonian(m.with_(gamma=0.0))
    for k in (1, 2, 3, 41, 1234, 2500, len(t) - 1):
        ref = scipy.linalg.expm(-1j * t[k] * H) @ psi0 * np.exp(-m.gamma * t[k])
        err = np.max(np.abs(field.amplitudes[k] - ref))
        assert err < 1e-10 * np.max(np.abs(ref)), (k, err)


@pytest.mark.parametrize("n_cells, B", [(10, 1024), (40, 256)])
@pytest.mark.parametrize("blocks, extra", [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 3)])
def test_evolve_matches_stepwise_propagation(model_a, n_cells, B, blocks, extra):
    """Grids of 1, 2, 3, B, B+1 and 2B+3 times, B being the largest power of
    two with B * n_sites <= 2**16, cover the doubling that builds the first
    block and a partial last block; every row must match the step-by-step
    product with U = expm(-i H dt)."""
    m = model_a.with_(n_cells=n_cells)
    t = np.arange(blocks * B + extra) / 500.0
    psi0 = poke_state(m, 7)
    amps = evolve(m, psi0, t).amplitudes
    assert amps.shape == (len(t), m.n_sites)
    U = scipy.linalg.expm(-1j / 500.0 * real_space_hamiltonian(m.with_(gamma=0.0)))
    psi = psi0
    for k in range(len(t)):
        ref = psi * np.exp(-m.gamma * t[k])
        assert np.max(np.abs(amps[k] - ref)) <= 1e-11 * np.max(np.abs(ref)), k
        psi = U @ psi


def test_growth_rate_matches_spectrum(model_b):
    from nhskin import growth_rate, obc_spectrum
    m = model_b.with_(gamma=0.0)
    t = default_time_grid(80.0, fs=50.0)
    tr = energy_trace(evolve(m, poke_state(m, 20), t))
    lam = growth_rate(tr)
    target = 2 * obc_spectrum(m).eigenvalues.imag.max()
    assert lam == pytest.approx(target, rel=0.02)


def test_overflow_raises_horizon_truncation(model_b):
    m = model_b.with_(gamma=0.0)
    t = default_time_grid(250.0, fs=10.0)
    with pytest.raises(HorizonTruncationError) as exc:
        evolve(m, poke_state(m, 20), t)
    assert 0.0 < exc.value.last_valid_time < 250.0


@pytest.mark.parametrize("fs", [2.0, 10.0, 50.0])
def test_truncation_names_the_time_before_the_first_overflowing_row(model_b, fs):
    """The first overflowing row lies inside the doubled first block at
    fs = 2 and 10, and in a later block at fs = 50."""
    m = model_b.with_(gamma=0.0)
    t = default_time_grid(250.0, fs=fs)
    U = scipy.linalg.expm(-1j * t[1] * real_space_hamiltonian(m))
    psi = poke_state(m, 20)
    k = 0
    while np.max(np.abs(psi)) <= 1e120:
        psi = U @ psi
        k += 1
    with pytest.raises(HorizonTruncationError) as exc:
        evolve(m, poke_state(m, 20), t)
    assert exc.value.last_valid_time == t[k - 1]


def test_packet_center_drifts_left(model_a):
    """In the left-skin phase a bulk poke drifts toward cell 1 before the
    boundary echo comes back."""
    m = model_a.with_(n_cells=40)
    t = default_time_grid(4.0)
    field = evolve(m, poke_state(m, 80), t)   # poke in cell 20
    xc = packet_center(field)
    coarse = xc[::200]
    assert coarse[-1] < coarse[0] - 5
    assert np.all(np.diff(coarse) < 0.3)   # monotone drift, small tolerance


def test_time_grid_validation(model_a):
    psi0 = poke_state(model_a, 1)
    with pytest.raises(ValidationError):
        evolve(model_a, psi0, np.array([1.0, 2.0]))   # must start at 0
    with pytest.raises(ValidationError):
        evolve(model_a, psi0, np.array([0.0, 0.0]))
    with pytest.raises(ValidationError, match="uniform"):
        evolve(model_a, psi0, np.array([0.0, 0.1, 0.3]))


def test_synthesize_signal_is_carrier_cosine(model_a):
    t = np.linspace(0.0, 2.0, 1001)
    field = evolve(model_a.with_(gamma=0.0), poke_state(model_a, 20), np.array([0.0]))
    # constant unit amplitude at one site, carrier at 1 Hz
    from nhskin import WaveField
    amps = np.ones((len(t), 1), dtype=complex)
    one_site = make_model(Family.GT, 1, 1, 1, 1, n_cells=1)
    f = WaveField(t, np.tile(amps, (1, 4)) * [1, 0, 0, 0], one_site)
    sig = synthesize_signal(f, omega0=2 * np.pi)
    assert np.max(np.abs(sig[:, 0] - np.cos(2 * np.pi * t))) < 1e-12


def test_stft_pure_tone_ridge():
    fs, f0 = 500.0, 10.0
    t = np.arange(0, 20, 1 / fs)
    sg = stft(np.cos(2 * np.pi * f0 * t), fs=fs)
    mid = sg.magnitudes[:, sg.magnitudes.shape[1] // 2]
    ridge = sg.frequencies[np.argmax(mid)]
    df = sg.frequencies[1] - sg.frequencies[0]
    assert abs(ridge - f0) <= df
    assert sg.frequencies[0] == 0.0 and sg.frequencies[-1] == pytest.approx(fs / 2)
    assert np.all(sg.magnitudes >= 0)


def test_stft_resolves_beat_tones():
    fs, f0, split = 500.0, 12.9, 3.3
    t = np.arange(0, 20, 1 / fs)
    sig = np.cos(2 * np.pi * (f0 - split / 2) * t) + np.cos(2 * np.pi * (f0 + split / 2) * t)
    sg = stft(sig, fs=fs)
    mid = sg.magnitudes[:, sg.magnitudes.shape[1] // 2]
    # two local maxima separated by the tone splitting
    peaks = [i for i in range(1, len(mid) - 1)
             if mid[i] > mid[i - 1] and mid[i] > mid[i + 1]
             and mid[i] > 0.25 * mid.max()]
    assert len(peaks) == 2
    gap = sg.frequencies[peaks[1]] - sg.frequencies[peaks[0]]
    assert gap == pytest.approx(split, abs=2 * (sg.frequencies[1] - sg.frequencies[0]))


STFT_CASES = [(n, m, hop) for n, m in [(1, 1), (7, 1), (7, 2), (12, 2), (11, 3), (50, 3),
                                         (101, 9), (101, 10), (100, 33), (64, 64),
                                         (65, 65), (1001, 100)]
              for hop in sorted({1, 2, 3, 5, m, m + 1, 2 * m + 3})]


@pytest.mark.parametrize("n, m, hop", STFT_CASES)
def test_stft_matches_scipy_short_time_fft(n, m, hop):
    # oracle: SciPy's ShortTimeFFT with the periodic Hann window; window
    # lengths 1, 2, 3, odd, even and the full signal, hops of 1, beyond the
    # window and not dividing the signal length
    x = np.random.default_rng(n * 1000 + hop).normal(size=n)
    fs = 500.0 if n > 100 else 3.7
    sg = stft(x, fs=fs, window_len=m, hop=hop)
    sft = scipy.signal.ShortTimeFFT(scipy.signal.windows.hann(m, sym=False), hop=hop,
                                    fs=fs, scale_to="magnitude")
    ref = np.abs(sft.stft(x))
    assert np.array_equal(sg.times, sft.t(n))
    assert np.array_equal(sg.frequencies, sft.f)
    assert sg.magnitudes.shape == ref.shape
    assert np.max(np.abs(sg.magnitudes - ref)) <= 1e-13 * np.max(ref)


def test_stft_window_validation():
    with pytest.raises(ValidationError):
        stft(np.zeros(100), window_len=200)
    with pytest.raises(ValidationError):
        stft(np.zeros(2000), hop=0)
