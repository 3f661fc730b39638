import numpy as np
import pytest

from nhskin import (PATH1, PATH2, Direction, Family, Phase, SymmetryOp,
                    ValidationError, apply_symmetry, classify_phase,
                    default_time_grid, energy_trace, evolve, gap_report,
                    gbz_compute, growth_rate, hn_direction, laplace_projection,
                    make_model, non_bloch_hamiltonian, obc_decomposition,
                    obc_spectrum, poke_state, scan_phase_diagram,
                    transition_sweep)
from nhskin.dynamics import WaveField
from nhskin.spectral import eig_biorthogonal


@pytest.fixture(scope="module")
def gbz_a(model_a):
    return gbz_compute(model_a.with_(gamma=0.0, n_cells=40))


@pytest.fixture(scope="module")
def field_a(model_a):
    # dynamics on the experiment-sized 10-cell chain
    t = default_time_grid(10.0, fs=50.0)
    return evolve(model_a, poke_state(model_a, 20), t)


def test_projection_peaks_on_synthetic_bloch_state(model_a, gbz_a):
    """A pure beta0^x eigen-profile projects onto its own GBZ point.

    The finite Laplace sum grows like (|beta0|/|beta|)^N for |beta| <
    |beta0|, so the test state is built from the smallest-modulus point,
    where no other point can outgrow it."""
    m = model_a.with_(gamma=0.0, n_cells=40)
    k = int(np.argmin(np.abs(gbz_a.betas)))
    beta0 = gbz_a.betas[k]
    cell = eig_biorthogonal(non_bloch_hamiltonian(m, beta0))
    v = cell.right_vectors[:, 0]
    x = np.arange(1, m.n_cells + 1)
    psi = (beta0 ** x[:, None] * v[None, :]).ravel()
    field = WaveField(np.array([0.0]), psi[None, :], m)
    proj = laplace_projection(field, gbz_a)
    mag = np.max(np.abs(proj.coefficients[0]), axis=1)
    peak_beta = gbz_a.betas[int(np.argmax(mag))]
    assert abs(peak_beta - beta0) < 0.05 * abs(beta0)
    assert mag[k] / np.median(mag) > 10


def test_projection_normalization(field_a, gbz_a):
    proj = laplace_projection(field_a, gbz_a)
    peaks = np.max(np.abs(proj.coefficients), axis=(1, 2))
    assert np.allclose(peaks, 1.0, atol=1e-12)


def test_projection_weight_sits_at_small_beta(field_a, gbz_a):
    """Left-skin dynamics keep the GBZ weight at small modulus.

    The delta poke already enters the finite Laplace sum with a small-beta
    bias, so the robust statement is that the late-time weighted mean
    modulus stays below the unweighted GBZ mean (and inside the BZ)."""
    proj = laplace_projection(field_a, gbz_a)
    mods = np.abs(gbz_a.betas)
    w = proj.band_pair_magnitude()
    mean_mod = (w * mods[None, :]).sum(axis=1) / w.sum(axis=1)
    assert mean_mod[-1] < mods.mean()
    assert mean_mod[-1] < 1.0


def _band_pair_magnitude_per_point(proj):
    """Oracle: one cell eigensolve per GBZ point, whose eigenvalues come in
    the column order of the coefficients."""
    T, P, s = proj.coefficients.shape
    out = np.zeros((T, P))
    for p in range(P):
        E = proj.gbz.energies[p]
        w = eig_biorthogonal(non_bloch_hamiltonian(proj.gbz.model, proj.gbz.betas[p])).eigenvalues
        j1 = int(np.argmin(np.abs(w - E)))
        j2 = int(np.argmin(np.abs(w - (-np.conj(E)))))
        idx = [j1, j2] if j1 != j2 else [j1]
        out[:, p] = np.sqrt(np.sum(np.abs(proj.coefficients[:, p, idx]) ** 2, axis=1))
    return out


def test_band_pair_magnitude_matches_per_point_eigensolves(field_a, gbz_a):
    proj = laplace_projection(field_a, gbz_a)
    np.testing.assert_allclose(proj.band_pair_magnitude(),
                               _band_pair_magnitude_per_point(proj), rtol=1e-14, atol=0)


def test_band_pair_magnitude_holds_the_mode_of_the_point_energy(model_a, gbz_a):
    # a Bloch profile of the mode with the point's own energy projects onto
    # that mode alone, so the pair magnitude must carry all of its weight
    m = model_a.with_(gamma=0.0, n_cells=40)
    x = np.arange(1, m.n_cells + 1)
    for k in np.argsort(np.abs(gbz_a.betas))[:5]:
        beta0 = gbz_a.betas[k]
        cell = eig_biorthogonal(non_bloch_hamiltonian(m, beta0))
        v = cell.right_vectors[:, np.argmin(np.abs(cell.eigenvalues - gbz_a.energies[k]))]
        psi = (beta0 ** x[:, None] * v[None, :]).ravel()
        proj = laplace_projection(WaveField(np.array([0.0]), psi[None, :], m), gbz_a)
        whole = np.linalg.norm(proj.coefficients[0, k])
        assert proj.band_pair_magnitude()[0, k] == pytest.approx(whole, rel=1e-9)


def test_projection_model_mismatch(field_a, model_b):
    g = gbz_compute(model_b.with_(gamma=0.0, n_cells=40))
    with pytest.raises(ValidationError):
        laplace_projection(field_a, g)


def test_decomposition_of_single_eigenmode(model_a):
    spec = obc_spectrum(model_a)
    j = 7
    t = np.linspace(0.0, 3.0, 31)
    field = evolve(model_a, spec.right_vectors[:, j], t)
    dec = obc_decomposition(field, spec)
    expected = np.exp(-1j * spec.eigenvalues[j] * t)
    assert np.max(np.abs(dec.coefficients[:, j] - expected)) < 1e-8
    others = np.delete(np.abs(dec.coefficients), j, axis=1)
    assert np.max(others) < 1e-8 * np.max(np.abs(expected))


def test_decomposition_reconstruction_roundtrip(field_a):
    dec = obc_decomposition(field_a)
    recon = dec.reconstruct()
    scale = np.max(np.abs(field_a.amplitudes), axis=1, keepdims=True)
    assert np.max(np.abs(recon - field_a.amplitudes) / scale) < 1e-8


def test_decomposition_modulus_evolution_law(field_a):
    dec = obc_decomposition(field_a)
    w = dec.spectrum.eigenvalues
    t = dec.times
    mag0 = np.abs(dec.coefficients[0])
    keep = mag0 > 1e-6 * mag0.max()
    expected = mag0[None, keep] * np.exp(w.imag[None, keep] * t[:, None])
    got = np.abs(dec.coefficients[:, keep])
    assert np.max(np.abs(got - expected) / np.max(expected)) < 1e-6


def test_classify_fig4_parameter_points(model_a, model_b, model_c):
    assert classify_phase(model_a).label is Phase.A
    assert classify_phase(model_b).label is Phase.B
    assert classify_phase(model_c).label is Phase.C


def test_classify_hermitian_line():
    m = make_model(Family.GT, 1, 2, 3, 3)
    assert classify_phase(m).label is Phase.HERMITIAN_LINE


def test_classify_gamma_invariant(model_a):
    for g in (0.0, 2.8):
        assert classify_phase(model_a.with_(gamma=g)).label is Phase.A


def test_classify_mx_swaps_primed(model_a, model_b, model_c):
    swaps = {Phase.A: Phase.APRIME, Phase.B: Phase.BPRIME, Phase.C: Phase.CPRIME}
    for m in (model_a, model_b, model_c):
        base = classify_phase(m).label
        mirrored = classify_phase(apply_symmetry(m, SymmetryOp.MX)).label
        assert mirrored is swaps[base]


def test_classify_rejects_other_families():
    m = make_model(Family.HATANO_NELSON, 1, 2, 1, 1)
    with pytest.raises(ValidationError):
        classify_phase(m)


def test_hn_direction_rule():
    assert hn_direction(2.0, 1.0) is Direction.LEFT
    assert hn_direction(1.0, 2.0) is Direction.RIGHT
    assert hn_direction(1.0, 1.0) is Direction.NONE


def test_scan_small_grid_symmetry():
    d = scan_phase_diagram(1, 2, (1.0, 5.0), (1.0, 5.0), resolution=5, n_cells=10)
    swaps = {Phase.A: Phase.APRIME, Phase.APRIME: Phase.A,
             Phase.B: Phase.BPRIME, Phase.BPRIME: Phase.B,
             Phase.C: Phase.CPRIME, Phase.CPRIME: Phase.C,
             Phase.HERMITIAN_LINE: Phase.HERMITIAN_LINE,
             Phase.BOUNDARY: Phase.BOUNDARY}
    for i4 in range(5):
        for i3 in range(5):
            assert d.labels[i4, i3].label is swaps[d.labels[i3, i4].label]


def test_scan_diagonalizes_each_chain_once(monkeypatch):
    """The GBZ fit and the gap report of a phase point share one eigensolve
    of the open chain, and the shared eigenvalues give the labels and
    magnitudes the report computes on its own, bit for bit."""
    eigvals = np.linalg.eigvals
    chain_calls = []

    def counting(a):
        if np.shape(a)[-1] == 32:
            chain_calls.append(1)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    d = scan_phase_diagram(1, 2, (1.0, 5.0), (1.0, 5.0), resolution=4, n_cells=8)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    off_diagonal = [(i4, i3) for i4 in range(4) for i3 in range(4) if i3 != i4]
    assert len(chain_calls) == len(off_diagonal)
    for i4, i3 in off_diagonal:
        m = make_model(Family.GT, 1, 2, d.t3_grid[i3], d.t4_grid[i4], n_cells=8)
        rep = gap_report(m, gbz_sites=m.n_sites)
        assert d.labels[i4, i3].max_abs_im == rep.max_abs_im
        assert d.labels[i4, i3].line_gap == rep.line_gap_width
        assert d.im_magnitude[i4, i3] == rep.max_abs_im


def test_paths_share_origin():
    assert PATH1.hoppings(0.0) == (4.0, 1.0)
    assert PATH2.hoppings(0.0) == (4.0, 1.0)
    t = default_time_grid(5.0, fs=100.0)
    s1 = transition_sweep(PATH1, np.array([0.0, 0.5]), t_grid=t)
    s2 = transition_sweep(PATH2, np.array([0.0, 0.5]), t_grid=t)
    assert np.array_equal(s1.traces[0].P, s2.traces[0].P)


def test_path_domain_validation():
    with pytest.raises(ValidationError):
        PATH1.model_at(PATH1.m_max + 1)


def test_sweep_growth_rate_tracks_spectrum():
    ms = np.linspace(0.0, 1.0, 5)
    sweep = transition_sweep(PATH1, ms, t_grid=default_time_grid(80.0, fs=50.0))
    for m, lam in zip(ms, sweep.growth_rates):
        target = 2 * obc_spectrum(PATH1.model_at(m)).eigenvalues.imag.max()
        assert lam == pytest.approx(target, rel=0.02)


@pytest.mark.xfail(reason=(
    "growth_rate fits the slope of log P over the last 20 s; the beat of the "
    "leading mode pair (E, -E*), with a period of 18-48 s on fig5i, biases "
    "it: lambda(1.571) = 0.415 against 2 max Im E_OBC = 0.656"))
def test_growth_rate_tracks_spectrum_on_fig5i_beat():
    m = 1.571
    sweep = transition_sweep(PATH2, np.array([m]), t_grid=default_time_grid(80.0, fs=50.0))
    target = 2 * obc_spectrum(PATH2.model_at(m)).eigenvalues.imag.max()
    assert sweep.growth_rates[0] == pytest.approx(target, rel=0.02)


def test_growth_rate_rejects_bad_window(field_a):
    tr = energy_trace(field_a)
    with pytest.raises(ValidationError):
        growth_rate(tr, fit_fraction=0.0)


def test_hermitian_gap_matches_per_k_sweep():
    from nhskin import bloch_hamiltonian
    from nhskin.analysis import _hermitian_gap
    m = make_model(Family.GT, 1.0, 2.0, 3.0, 3.0, n_cells=25)
    ks = np.linspace(-np.pi, np.pi, 401)
    e0 = min(np.min(np.abs(np.linalg.eigvalsh(bloch_hamiltonian(m, k)))) for k in ks)
    assert _hermitian_gap(m) == 2 * float(e0)
