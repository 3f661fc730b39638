import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nhskin.spectral as spectral_mod
from nhskin import (Family, NumericalError, Phase, ValidationError, classify_phase,
                    eig_biorthogonal, gbz_compute, make_model, obc_spectrum,
                    pair_with_negated_conjugate, pbc_spectrum, real_space_hamiltonian)
from nhskin.gbz import chain_eigenvalues
from nhskin.model import _hopping_blocks, non_bloch_hamiltonians
from nhskin.spectral import NEAR_EXCEPTIONAL_COND, multiset_distance

hopping = st.floats(min_value=0.1, max_value=20.0,
                    allow_nan=False, allow_infinity=False)


def _biorthogonality_residual(spec):
    G = spec.left_vectors.conj().T @ spec.right_vectors
    return np.max(np.abs(G - np.eye(len(G))))


def test_rejects_nonsquare():
    with pytest.raises(ValidationError):
        eig_biorthogonal(np.zeros((3, 4)))


def test_eigenvalues_sorted(model_a):
    for w in (obc_spectrum(model_a).eigenvalues, pbc_spectrum(model_a, n_k=24)):
        key = list(zip(w.real, w.imag))
        assert key == sorted(key)


def test_right_vectors_are_eigenvectors(model_a):
    H = real_space_hamiltonian(model_a)
    spec = eig_biorthogonal(H)
    res = H @ spec.right_vectors - spec.right_vectors * spec.eigenvalues
    assert np.max(np.abs(res)) < 1e-10 * np.max(np.abs(spec.eigenvalues))


def test_left_vectors_are_left_eigenvectors(model_a):
    H = real_space_hamiltonian(model_a)
    spec = eig_biorthogonal(H)
    res = spec.left_vectors.conj().T @ H - \
        spec.eigenvalues[:, None] * spec.left_vectors.conj().T
    assert np.max(np.abs(res)) < 1e-8 * np.max(np.abs(spec.eigenvalues))


# hoppings a factor 100 apart make the 6-cell chain near-exceptional
# (condition number 1.2e8 at t = (2, 0.125, 16, 0.25)); the basis must
# stay biorthogonal there too
@pytest.mark.filterwarnings("ignore:near-exceptional spectrum:RuntimeWarning")
@given(t1=hopping, t2=hopping, t3=hopping, t4=hopping)
@settings(max_examples=30, deadline=None)
def test_biorthogonality_property(t1, t2, t3, t4):
    m = make_model(Family.GT, t1, t2, t3, t4, n_cells=6)
    spec = obc_spectrum(m)
    assert _biorthogonality_residual(spec) < 1e-8


def test_hatano_nelson_obc_similarity_oracle():
    """The open nonreciprocal single chain is similar to a Hermitian chain:
    its spectrum is 2*sqrt(t1*t2)*cos(n*pi/(L+1)), n = 1..L."""
    t1, t2, L = 1.7, 0.4, 12
    m = make_model(Family.HATANO_NELSON, t1, t2, 1, 1, n_cells=L)
    spec = obc_spectrum(m)
    expected = np.sort(2 * np.sqrt(t1 * t2) * np.cos(np.arange(1, L + 1) * np.pi / (L + 1)))
    assert np.max(np.abs(spec.eigenvalues.real - expected)) < 1e-10
    assert np.max(np.abs(spec.eigenvalues.imag)) < 1e-10


def test_pbc_spectrum_matches_real_space(model_b):
    n_k = model_b.n_cells
    spec = pbc_spectrum(model_b, n_k=n_k)
    _, hp, hm = _hopping_blocks(model_b)
    ring = np.eye(n_k, k=1 - n_k)    # the closing bond, cell N to cell 1
    H = real_space_hamiltonian(model_b) + np.kron(ring, hp) + np.kron(ring.T, hm)
    brute = np.linalg.eigvals(H)
    assert multiset_distance(spec, brute) < 1e-9 * np.max(np.abs(brute))


@pytest.mark.parametrize("n_k", [1, 24, 256])
@pytest.mark.parametrize("model", [
    make_model(Family.GT, 2.1, 14.9, 11.2, 3.7, gamma=2.8),
    make_model(Family.GT, 3.2, 6.7, 22.6, 8.4, gamma=4.4),
    make_model(Family.GT, 2.1, 14.9, 12.6, 8.9, gamma=2.5),
    make_model(Family.HATANO_NELSON, 1.7, 0.4, 1, 1, gamma=0.3),
    make_model(Family.NH_SSH, 1.0, 2.0, 1, 1),
    make_model(Family.GT, 1.0, 2.0, 3.0, 3.0)],
    ids=["fig4a", "fig4e", "fig4i", "hn", "nhssh", "hermitian"])
def test_pbc_spectrum_is_the_union_of_the_cell_spectra(model, n_k):
    """The eigenvalues of every Bloch cell, each solved on its own, shifted
    by -i*gamma."""
    k = 2 * np.pi * np.arange(n_k) / n_k
    cells = [eig_biorthogonal(non_bloch_hamiltonians(model, np.exp(1j * kk))).eigenvalues
             for kk in k]
    expected = np.ravel(cells) - 1j * model.gamma
    assert multiset_distance(pbc_spectrum(model, n_k=n_k), expected) <= 1e-12 * np.max(np.abs(expected))


def test_no_cell_eigensolve_for_eigenvalues_alone(monkeypatch):
    """The Bloch spectrum of every family and the label of a Hermitian-line
    point come from closed forms: no LAPACK eigensolve runs for them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve called")

    for name in ("eig", "eigvals", "eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for family in Family:
        m = make_model(family, 1.3, 0.7, 2.0, 0.5)
        assert len(pbc_spectrum(m, n_k=8)) == 8 * m.sites_per_cell
    label = classify_phase(make_model(Family.GT, 1.0, 2.0, 3.0, 3.0, n_cells=25))
    assert label.label is Phase.HERMITIAN_LINE


def test_pbc_spectrum_holds_no_bloch_waves():
    """Only the eigenvalues are kept: 256 fig4e cells stay far below the
    1024 x 1024 complex Bloch-wave basis (16 MB)."""
    m = make_model(Family.GT, 3.2, 6.7, 22.6, 8.4, gamma=4.4)
    pbc_spectrum(m, n_k=256)    # warm caches outside the measurement
    tracemalloc.start()
    try:
        pbc_spectrum(m, n_k=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_uniform_damping_shifts_spectrum(model_a, model_b, model_c):
    """A uniform damping shifts every eigenvalue by -i*gamma and leaves the
    eigenvectors as they are, bit for bit."""
    for m in (model_a, model_b, model_c):
        damped = obc_spectrum(m)
        undamped = obc_spectrum(m.with_(gamma=0.0))
        assert np.array_equal(damped.eigenvalues, undamped.eigenvalues - 1j * m.gamma)
        assert np.array_equal(damped.right_vectors, undamped.right_vectors)


def test_gt_spectrum_mirror_symmetry(model_a, model_b, model_c):
    for m in (model_a, model_b, model_c):
        w = obc_spectrum(m.with_(gamma=0.0)).eigenvalues
        assert pair_with_negated_conjugate(w, rtol=1e-8)


def test_near_exceptional_flagged():
    H = np.array([[0.0, 1.0], [1e-18, 0.0]])
    with pytest.warns(RuntimeWarning, match="near-exceptional"):
        spec = eig_biorthogonal(H)
    assert spec.near_exceptional


def _cell_stacks(model_a, rng):
    """A complex stack of random matrices and fig4a cells at random beta,
    shape (2, 20, 4, 4), and a real stack of random matrices."""
    betas = np.exp(rng.normal(scale=0.5, size=20) + 2j * np.pi * rng.uniform(size=20))
    random = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
    return (np.stack([random, non_bloch_hamiltonians(model_a, betas)]),
            rng.normal(size=(20, 4, 4)))


def test_stacked_eig_matches_per_matrix_calls(model_a, rng):
    for H in _cell_stacks(model_a, rng):
        stack = eig_biorthogonal(H)
        assert stack.eigenvalues.shape == H.shape[:-1] and stack.eigenvalues.shape[-1] == 4
        assert stack.right_vectors.dtype == complex
        for idx in np.ndindex(H.shape[:-2]):
            one = eig_biorthogonal(H[idx])
            w = stack.eigenvalues[idx]
            assert np.max(np.abs(w - one.eigenvalues)) <= 1e-12 * np.max(np.abs(w))
            assert stack.condition_number[idx] == pytest.approx(one.condition_number,
                                                                rel=1e-12)
            G = stack.left_vectors[idx].conj().T @ stack.right_vectors[idx]
            assert np.max(np.abs(G - np.eye(4))) <= 1e-10
            key = list(zip(w.real, w.imag))
            assert key == sorted(key)


def test_stacked_eig_matches_scipy_on_the_fig4a_gbz_cells(model_a):
    """The 316 Bloch cells H(beta) on the obc_fit GBZ of phase A, solved as
    one stack, against per-matrix scipy.linalg.eig solves."""
    gbz = gbz_compute(model_a.with_(gamma=0.0))
    H = non_bloch_hamiltonians(model_a, gbz.betas)
    assert H.shape == (316, 4, 4)
    stack = eig_biorthogonal(H)
    G = np.einsum("kia,kib->kab", stack.left_vectors.conj(), stack.right_vectors)
    assert np.max(np.abs(G - np.eye(4))) <= 1e-12
    for k in range(len(H)):
        w, vr = scipy.linalg.eig(H[k])
        order = np.lexsort((w.imag, w.real))
        scale = np.max(np.abs(w))
        assert np.max(np.abs(stack.eigenvalues[k] - w[order])) <= 1e-13 * scale, k
        assert stack.condition_number[k] == pytest.approx(np.linalg.cond(vr), rel=1e-10)


def test_stack_with_only_real_eigenvalues_keeps_complex_eigenvalues(rng):
    """NumPy returns a real stack whose eigenvalues are all real in real
    arithmetic; the spectrum is still complex."""
    A = rng.normal(size=(5, 4, 4))
    spec = eig_biorthogonal(A + A.swapaxes(-1, -2))
    assert spec.eigenvalues.dtype == complex and spec.right_vectors.dtype == complex
    assert np.all(spec.eigenvalues.imag == 0)


def test_stacked_eig_warns_once_with_the_largest_condition_number():
    H = np.array([[[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, 1.0], [1e-18, 0.0]],
                  [[0.0, 1.0], [1e-24, 0.0]]])
    with pytest.warns(RuntimeWarning) as caught:
        spec = eig_biorthogonal(H)
    assert len(caught) == 1
    assert f"{np.max(spec.condition_number):.3g}" in str(caught[0].message)
    assert list(spec.near_exceptional) == [False, True, True]


def test_near_exceptional_follows_the_condition_number(model_a):
    # t1 - delta + t2 = 0 makes the NH-SSH Bloch cell at k = 0 a Jordan block
    jordan = make_model(Family.NH_SSH, 1.0, 1.0, 1.0, 1.0, nhssh_delta=2.0)
    betas = np.exp(2j * np.pi * np.arange(24) / 24)
    with pytest.warns(RuntimeWarning, match="near-exceptional"):
        exceptional = eig_biorthogonal(non_bloch_hamiltonians(jordan, betas))
    assert exceptional.near_exceptional[0]
    for spec in (obc_spectrum(model_a),
                 eig_biorthogonal(non_bloch_hamiltonians(model_a, betas)), exceptional):
        assert np.array_equal(spec.near_exceptional,
                              spec.condition_number > NEAR_EXCEPTIONAL_COND)


def test_undamped_hatano_nelson_chain_is_solved_in_real_arithmetic():
    """The open Hatano-Nelson chain is similar to a Hermitian one, so its
    spectrum is real; the real solver returns it with Im E exactly 0, although
    the ungauged chain is near-exceptional."""
    m = make_model(Family.HATANO_NELSON, 2.5, 0.9, 1, 1, n_cells=40)
    with pytest.warns(RuntimeWarning, match="near-exceptional"):
        eig_biorthogonal(real_space_hamiltonian(m))
    spec = obc_spectrum(m)
    assert np.all(spec.eigenvalues.imag == 0)
    w = chain_eigenvalues(m)
    assert multiset_distance(spec.eigenvalues, w) <= 1e-12 * np.max(np.abs(spec.eigenvalues))


@pytest.mark.parametrize("phase", ["model_a", "model_b"])
def test_gauged_eigenbasis_stays_biorthogonal_at_160_sites(phase, request):
    """The open chain is solved in the imaginary gauge, whose basis stays
    biorthogonal on 160 sites; on fig4a the ungauged basis is numerically
    singular and is not."""
    m = request.getfixturevalue(phase).with_(n_cells=40)
    # fig4e keeps three modes near E = 0, which cost its gauged basis a
    # condition number of ~6e8
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "near-exceptional", RuntimeWarning)
        assert _biorthogonality_residual(obc_spectrum(m)) < 1e-3
    if phase == "model_a":
        with pytest.warns(RuntimeWarning, match="near-exceptional"):
            ungauged = eig_biorthogonal(real_space_hamiltonian(m))
        assert _biorthogonality_residual(ungauged) > 0.1


def test_long_undamped_hatano_nelson_chain_is_exactly_real():
    """240 sites: r^x spans 1e-53, and the gauged chain is symmetric."""
    m = make_model(Family.HATANO_NELSON, 2.5, 0.9, 1, 1, n_cells=240)
    spec = obc_spectrum(m)
    assert np.all(spec.eigenvalues.imag == 0)
    assert spec.condition_number == pytest.approx(1.0)


def test_gauge_diagonal_beyond_the_float_range_raises_before_the_solve(monkeypatch):
    """t2/t1 = 1e-6 puts the gauge radius at r = 1e-3, so r^x leaves the
    normal float range after 103 cells."""
    m = make_model(Family.HATANO_NELSON, 1.0, 1e-6, 1, 1, n_cells=100)
    spec = obc_spectrum(m)
    assert np.all(np.isfinite(spec.left_vectors)) and np.all(np.isfinite(spec.right_vectors))

    def no_solve(H):
        raise AssertionError("the chain was solved")
    monkeypatch.setattr(spectral_mod, "eig_biorthogonal", no_solve)
    with pytest.raises(NumericalError, match="float range on 120 cells"):
        obc_spectrum(m.with_(n_cells=120))
