import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhskin import (Family, ValidationError, eig_biorthogonal, make_model,
                    obc_spectrum, pair_with_negated_conjugate, pbc_spectrum,
                    real_space_hamiltonian, spectral_radius)
from nhskin.gbz import _chain_eigenvalues
from nhskin.model import non_bloch_hamiltonians
from nhskin.spectral import NEAR_EXCEPTIONAL_COND, multiset_distance

hopping = st.floats(min_value=0.1, max_value=20.0,
                    allow_nan=False, allow_infinity=False)


def _biorthogonality_residual(spec):
    G = spec.left_vectors.conj().T @ spec.right_vectors
    return np.max(np.abs(G - np.eye(spec.dim)))


def test_rejects_nonsquare():
    with pytest.raises(ValidationError):
        eig_biorthogonal(np.zeros((3, 4)))


def test_eigenvalues_sorted(model_a):
    spec = obc_spectrum(model_a)
    w = spec.eigenvalues
    key = list(zip(w.real, w.imag))
    assert key == sorted(key)


def test_right_vectors_are_eigenvectors(model_a):
    H = real_space_hamiltonian(model_a)
    spec = eig_biorthogonal(H)
    res = H @ spec.right_vectors - spec.right_vectors * spec.eigenvalues
    assert np.max(np.abs(res)) < 1e-10 * spectral_radius(spec)


def test_left_vectors_are_left_eigenvectors(model_a):
    H = real_space_hamiltonian(model_a)
    spec = eig_biorthogonal(H)
    res = spec.left_vectors.conj().T @ H - \
        spec.eigenvalues[:, None] * spec.left_vectors.conj().T
    assert np.max(np.abs(res)) < 1e-8 * spectral_radius(spec)


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
    from nhskin import BC
    n_k = model_b.n_cells
    spec = pbc_spectrum(model_b, n_k=n_k)
    brute = np.linalg.eigvals(real_space_hamiltonian(model_b.with_(bc=BC.PBC)))
    assert multiset_distance(spec.eigenvalues, brute) < 1e-9 * np.max(np.abs(brute))


def test_pbc_biorthogonality(model_b):
    spec = pbc_spectrum(model_b, n_k=model_b.n_cells)
    assert _biorthogonality_residual(spec) < 1e-8


def test_uniform_damping_shifts_spectrum(model_a):
    g = model_a.gamma
    w_damped = obc_spectrum(model_a).eigenvalues
    w_free = obc_spectrum(model_a.with_(gamma=0.0)).eigenvalues
    assert multiset_distance(w_damped, w_free - 1j * g) < 1e-10 * np.max(np.abs(w_free))


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
        assert stack.eigenvalues.shape == H.shape[:-1] and stack.dim == 4
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


def test_stacked_eig_warns_once_with_the_largest_condition_number():
    H = np.array([[[0.0, 1.0], [1.0, 0.0]],
                  [[0.0, 1.0], [1e-18, 0.0]],
                  [[0.0, 1.0], [1e-24, 0.0]]])
    with pytest.warns(RuntimeWarning) as caught:
        spec = eig_biorthogonal(H)
    assert len(caught) == 1
    assert f"{np.max(spec.condition_number):.3g}" in str(caught[0].message)
    assert list(spec.near_exceptional) == [False, True, True]


@pytest.mark.parametrize("hops", [(2.1, 14.9, 11.2, 3.7), (3.2, 6.7, 22.6, 8.4),
                                  (1.0, 2.0, 4.0, 1.0)], ids=["fig4a", "fig4e", "fig5"])
def test_pbc_condition_number_is_that_of_the_bloch_wave_basis(hops):
    spec = pbc_spectrum(make_model(Family.GT, *hops), n_k=24)
    assert spec.condition_number == pytest.approx(np.linalg.cond(spec.right_vectors),
                                                  rel=1e-10)


def test_near_exceptional_follows_the_condition_number(model_a):
    # t1 - delta + t2 = 0 makes the NH-SSH Bloch cell at k = 0 a Jordan block
    jordan = make_model(Family.NH_SSH, 1.0, 1.0, 1.0, 1.0, nhssh_delta=2.0)
    with pytest.warns(RuntimeWarning, match="near-exceptional"):
        exceptional = pbc_spectrum(jordan, n_k=24)
    assert exceptional.near_exceptional
    for spec in (obc_spectrum(model_a), pbc_spectrum(model_a, n_k=24), exceptional):
        assert spec.near_exceptional == (spec.condition_number > NEAR_EXCEPTIONAL_COND)


def test_undamped_hatano_nelson_chain_is_solved_in_real_arithmetic():
    """The open Hatano-Nelson chain is similar to a Hermitian one, so its
    spectrum is real; the real solver returns it with Im E exactly 0."""
    m = make_model(Family.HATANO_NELSON, 2.5, 0.9, 1, 1, n_cells=40)
    with pytest.warns(RuntimeWarning, match="near-exceptional"):
        spec = obc_spectrum(m)
    assert np.all(spec.eigenvalues.imag == 0)
    w = _chain_eigenvalues(m, 40)
    assert multiset_distance(spec.eigenvalues, w) <= 1e-12 * spectral_radius(spec)
