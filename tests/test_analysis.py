import tracemalloc

import numpy as np
import pytest

from nhskin import (PATH1, PATH2, Direction, Family, Phase, SymmetryOp,
                    ValidationError, apply_symmetry, chain_eigenvalues, classify_phase,
                    default_time_grid, energy_trace, evolve, gap_report,
                    GbzMethod, gbz_compute, growth_rate, laplace_projection,
                    make_model, non_bloch_hamiltonian, obc_decomposition,
                    obc_spectrum, poke_state, scan_phase_diagram,
                    skin_direction, transition_sweep)
from nhskin import analysis
from nhskin.dynamics import EnergyTrace, WaveField
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
    dec = obc_decomposition(field)
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


def test_classify_matches_the_scan_at_a_fig3d_grid_point():
    # the scan labels each point by the GBZ of the model's own 25-cell
    # chain; a direct call must fit that same chain, not a longer one
    grid = np.linspace(0.2, 6.0, 24)
    m = make_model(Family.GT, 1, 2, grid[14], grid[1], n_cells=25)
    assert classify_phase(m).label is Phase.A


def test_classify_hermitian_line():
    m = make_model(Family.GT, 1, 2, 3, 3)
    assert classify_phase(m).label is Phase.HERMITIAN_LINE


def test_classify_gamma_invariant(model_a):
    """A uniform damping only shifts the spectrum: the whole label, with its
    evidence, is that of the undamped model."""
    undamped = classify_phase(model_a.with_(gamma=0.0))
    assert undamped.label is Phase.A
    for g in (1.5, 2.8):
        assert classify_phase(model_a.with_(gamma=g)) == undamped


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
    """The Hatano-Nelson GBZ is the circle |beta| = sqrt(t2/t1), and t1
    carries amplitude leftward, so t1 > t2 piles states up on the left."""
    for (t1, t2), direction, mean in (((2.0, 1.0), Direction.LEFT, -np.log(2) / 2),
                                      ((1.0, 2.0), Direction.RIGHT, np.log(2) / 2),
                                      ((1.0, 1.0), Direction.NONE, 0.0)):
        m = make_model(Family.HATANO_NELSON, t1, t2, 1, 1)
        for method in GbzMethod:
            sd = skin_direction(gbz_compute(m, method))
            assert sd.direction is direction, method
            assert sd.mean_log_modulus == pytest.approx(mean, abs=1e-12), method


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
    """Each Mx pair of off-diagonal points is solved once, at the point
    first in scan order: a real half-size eigensolve of C D, then a real
    half-size one of D^-1 C^-1 only where some E^2 = lambda lies below
    sqrt(eps) max|lambda|.  The solved point has the label and magnitude that a direct
    classification and the gap report compute on their own, bit for bit,
    and its partner (t4, t3) holds the swapped label and the same
    magnitude."""
    eigvals = np.linalg.eigvals
    solves = []

    def recording(a):
        w = eigvals(a)
        solves.append((a, w))
        return w

    monkeypatch.setattr(np.linalg, "eigvals", recording)
    d = scan_phase_diagram(1, 2, (1.0, 5.0), (1.0, 5.0), resolution=4, n_cells=8)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    solved = [(i4, i3) for i4 in range(4) for i3 in range(i4 + 1, 4)]
    expected, products, pending = [], 0, iter(solves)
    for a, w in pending:
        # a C D solve, followed by the inverse one where it needs it
        products += 1
        expected.append(16)
        if np.abs(w).min() < np.sqrt(np.finfo(float).eps) * np.abs(w).max():
            expected.append(16)
            next(pending, None)
    assert [len(a) for a, _ in solves] == expected
    assert all(np.isrealobj(a) for a, _ in solves)
    assert products == len(solved) == 6
    swaps = {Phase.A: Phase.APRIME, Phase.B: Phase.BPRIME, Phase.C: Phase.CPRIME}
    swaps.update({v: k for k, v in swaps.items()})
    step = max(d.t3_grid[1] - d.t3_grid[0], d.t4_grid[1] - d.t4_grid[0])
    for i4, i3 in solved:
        m = make_model(Family.GT, 1, 2, d.t3_grid[i3], d.t4_grid[i4], n_cells=8)
        g = gbz_compute(m, n_sites=m.n_sites)
        rep = gap_report(g, g.chain_eigenvalues)
        assert d.labels[i4, i3].max_abs_im == rep.max_abs_im
        assert d.labels[i4, i3] == classify_phase(m, boundary_tol=step / 2)
        assert d.im_magnitude[i4, i3] == rep.max_abs_im
        mirrored = d.labels[i3, i4]
        assert mirrored.label is swaps[d.labels[i4, i3].label]
        assert mirrored.max_abs_im == rep.max_abs_im
        assert d.im_magnitude[i3, i4] == rep.max_abs_im


def test_scan_without_mirror_partners_classifies_every_point(monkeypatch):
    """On a grid whose axes share no value no point finds its Mx partner:
    every point is classified on its own, as a direct call classifies it."""
    classify = analysis.classify_phase
    points = []

    def recording(m, boundary_tol=0.0):
        points.append((m.t3, m.t4))
        return classify(m, boundary_tol)

    monkeypatch.setattr(analysis, "classify_phase", recording)
    d = scan_phase_diagram(1, 2, (1.0, 5.0), (1.1, 5.1), resolution=4, n_cells=8)
    monkeypatch.setattr(analysis, "classify_phase", classify)
    assert sorted(points) == sorted((t3, t4) for t4 in d.t4_grid for t3 in d.t3_grid)
    step = max(d.t3_grid[1] - d.t3_grid[0], d.t4_grid[1] - d.t4_grid[0])
    for i4 in range(4):
        for i3 in range(4):
            m = make_model(Family.GT, 1, 2, d.t3_grid[i3], d.t4_grid[i4], n_cells=8)
            direct = classify_phase(m, boundary_tol=step / 2)
            lab = d.labels[i4, i3]
            np.testing.assert_equal((lab.label, lab.max_abs_im),
                                    (direct.label, direct.max_abs_im))


def test_scan_descending_grid_gives_the_reversed_labels():
    """A grid scanned high to low keeps its Boundary band next to t3 = t4:
    the band's half-width is half a grid step, a distance."""
    d = scan_phase_diagram(1, 2, (1.0, 5.0), (1.1, 5.1), resolution=9, n_cells=10)
    r = scan_phase_diagram(1, 2, (5.0, 1.0), (5.1, 1.1), resolution=9, n_cells=10)
    labels = [[lab.label for lab in row] for row in d.labels]
    assert sum(row.count(Phase.BOUNDARY) for row in labels) == 9
    assert [[lab.label for lab in row[::-1]] for row in r.labels[::-1]] == labels


def test_classify_phase_mirrors_on_the_scan_grid():
    """The evidence for the scan's mirrored half: classified directly at
    (t3, t4) and at (t4, t3), every off-diagonal point of the 16 x 16 fig3d
    grid at 25 cells swaps its label exactly, and max|Im E| agrees within
    1e-9 max|E| (measured: at most 2.2e-11 max|E|, the conditioning of the
    non-normal solve)."""
    swaps = {Phase.A: Phase.APRIME, Phase.B: Phase.BPRIME, Phase.C: Phase.CPRIME,
             Phase.BOUNDARY: Phase.BOUNDARY}
    swaps.update({v: k for k, v in swaps.items()})
    grid = np.linspace(0.2, 6.0, 16)
    for i4 in range(16):
        for i3 in range(i4 + 1, 16):
            m = make_model(Family.GT, 1, 2, grid[i3], grid[i4], n_cells=25)
            lab = classify_phase(m)
            mirrored = classify_phase(apply_symmetry(m, SymmetryOp.MX))
            assert mirrored.label is swaps[lab.label], (grid[i3], grid[i4])
            scale = np.abs(chain_eigenvalues(m)).max()
            assert abs(mirrored.max_abs_im - lab.max_abs_im) <= 1e-9 * scale


#: the fig3d grid points (i4, i3) whose 50-cell labels broke the mirror
#: relation when the open chain was solved without the imaginary gauge
FIG3D_MIRROR_PAIRS = [(2, 19), (6, 16), (7, 15), (7, 16), (7, 19), (7, 20), (8, 14),
                      (8, 15), (8, 16), (9, 14), (9, 15), (10, 17), (10, 20)]


def test_labels_mirror_at_50_cells():
    """label(t3, t4) is the primed label(t4, t3) on the fig3d grid at 50
    cells, where the solve of the open chain decides it."""
    swaps = {Phase.A: Phase.APRIME, Phase.B: Phase.BPRIME, Phase.C: Phase.CPRIME}
    swaps.update({v: k for k, v in swaps.items()})
    grid = np.linspace(0.2, 6.0, 24)
    for i4, i3 in FIG3D_MIRROR_PAIRS:
        t3, t4 = grid[i3], grid[i4]
        label = classify_phase(make_model(Family.GT, 1, 2, t3, t4, n_cells=50)).label
        mirrored = classify_phase(make_model(Family.GT, 1, 2, t4, t3, n_cells=50)).label
        assert mirrored is swaps[label], (t3, t4, label, mirrored)


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


@pytest.mark.parametrize("path, m", [(PATH1, 0.7), (PATH2, 1.571)])
def test_sweep_energy_is_the_energy_trace_of_evolve(path, m):
    t = default_time_grid(10.0)
    sweep = transition_sweep(path, np.array([m]), t_grid=t)
    model = path.model_at(m)
    field = evolve(model, poke_state(model, model.n_sites // 2), t)
    assert np.array_equal(sweep.traces[0].times, t)
    assert np.array_equal(sweep.traces[0].P, energy_trace(field).P)


def test_sweep_does_not_hold_the_field():
    """One 80-s, 40-site sample at 500 Hz, whose (T, N) complex field would
    take 25.6 MB."""
    t = default_time_grid(80.0)
    transition_sweep(PATH2, np.array([1.571]), t_grid=t)    # warm lazy imports
    tracemalloc.start()
    try:
        transition_sweep(PATH2, np.array([1.571]), t_grid=t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(t) * 40 * 16 / 5


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


def test_growth_rate_rejects_bad_window():
    """The last quarter of 4 or fewer samples is one sample: no line to fit.
    5 samples leave 2, and a constant trace has slope 0."""
    for n in (1, 2, 4):
        with pytest.raises(ValidationError, match=f"which has 1 of {n}"):
            growth_rate(EnergyTrace(np.arange(n) / 500.0, np.ones(n)))
    assert growth_rate(EnergyTrace(np.arange(5) / 500.0, np.ones(5))) == 0.0
