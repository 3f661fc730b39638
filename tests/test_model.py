import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhskin import (BC, Family, SymmetryOp, ValidationError, apply_symmetry,
                    bloch_hamiltonian, make_model, non_bloch_hamiltonian,
                    real_space_hamiltonian)

hopping = st.floats(min_value=0.05, max_value=30.0,
                    allow_nan=False, allow_infinity=False)


def test_make_model_validates_hoppings():
    with pytest.raises(ValidationError):
        make_model(Family.GT, 0.0, 1, 1, 1)
    with pytest.raises(ValidationError):
        make_model(Family.GT, 1, -2, 1, 1)
    with pytest.raises(ValidationError):
        make_model(Family.GT, 1, 1, 1, 1, gamma=-0.1)
    with pytest.raises(ValidationError):
        make_model(Family.GT, 1, 1, 1, 1, n_cells=0)


def test_hermitian_flag():
    assert make_model(Family.GT, 1, 2, 3, 3).is_hermitian
    assert not make_model(Family.GT, 1, 2, 3, 4).is_hermitian


def test_bloch_entries_at_k_zero():
    m = make_model(Family.GT, 1, 2, 3, 1)
    H = bloch_hamiltonian(m, 0.0)
    assert H[0, 2] == pytest.approx(3)   # t2 + t1 e^{-ik}
    assert H[2, 0] == pytest.approx(3)
    assert H[1, 0] == pytest.approx(3)   # t3
    assert H[0, 1] == pytest.approx(1)   # t4


def test_non_bloch_matches_bloch_on_unit_circle(model_a):
    for k in np.linspace(-np.pi, np.pi, 7):
        Hb = bloch_hamiltonian(model_a, k)
        Hn = non_bloch_hamiltonian(model_a, np.exp(1j * k))
        assert np.allclose(Hb, Hn, atol=1e-14)


def test_non_bloch_rejects_zero_beta(model_a):
    with pytest.raises(ValidationError):
        non_bloch_hamiltonian(model_a, 0.0)


def test_single_cell_obc_matrix():
    g = 0.3
    m = make_model(Family.GT, 1, 2, 3, 4, gamma=g, n_cells=1)
    H = real_space_hamiltonian(m)
    t1, t2, t3, t4 = 1, 2, 3, 4
    expected = np.array([
        [-1j * g, t4, t2, 0],
        [t3, -1j * g, 0, t1],
        [t2, 0, -1j * g, t3],
        [0, t1, t4, -1j * g],
    ])
    assert np.allclose(H, expected, atol=1e-14)


def test_pbc_matches_bloch_multiset(model_hermitian):
    m = model_hermitian.with_(bc=BC.PBC)
    real = np.sort_complex(np.linalg.eigvals(real_space_hamiltonian(m)))
    bloch = []
    for j in range(m.n_cells):
        k = 2 * np.pi * j / m.n_cells
        bloch.extend(np.linalg.eigvals(bloch_hamiltonian(m, k)))
    bloch = np.sort_complex(np.array(bloch))
    assert np.max(np.abs(real - bloch)) < 1e-10 * np.max(np.abs(bloch))


def test_apply_symmetry_swaps():
    m = make_model(Family.GT, 1, 2, 4, 1)
    mx = apply_symmetry(m, SymmetryOp.MX)
    assert (mx.t1, mx.t2, mx.t3, mx.t4) == (1, 2, 1, 4)
    my = apply_symmetry(m, SymmetryOp.MY)
    assert (my.t1, my.t2, my.t3, my.t4) == (2, 1, 1, 4)
    p = apply_symmetry(m, SymmetryOp.P)
    assert (p.t1, p.t2, p.t3, p.t4) == (2, 1, 4, 1)
    assert apply_symmetry(m, SymmetryOp.G) == m


@given(t1=hopping, t2=hopping, t34=hopping)
@settings(max_examples=40, deadline=None)
def test_hermitian_line_gives_hermitian_matrix(t1, t2, t34):
    m = make_model(Family.GT, t1, t2, t34, t34, n_cells=4)
    H = real_space_hamiltonian(m)
    scale = np.max(np.abs(H))
    assert np.max(np.abs(H - H.conj().T)) < 1e-12 * scale


@given(t1=hopping, t2=hopping, t3=hopping, t4=hopping,
       k=st.floats(min_value=-np.pi, max_value=np.pi))
@settings(max_examples=40, deadline=None)
def test_hermitian_iff_t3_equals_t4(t1, t2, t3, t4, k):
    m = make_model(Family.GT, t1, t2, t3, t4)
    H = bloch_hamiltonian(m, k)
    # the anti-Hermitian part of H is the nonreciprocity t3 - t4 alone, down
    # to differences far below any tolerance (t3 = 0.05, t4 = 0.05 + 1 ulp)
    scale = max(np.max(np.abs(H)), 1)
    assert abs(np.max(np.abs(H - H.conj().T)) - abs(t3 - t4)) <= 1e-12 * scale
    assert m.is_hermitian == (t3 == t4)


def test_sites_per_cell_by_family():
    assert make_model(Family.GT, 1, 1, 1, 1).sites_per_cell == 4
    assert make_model(Family.HATANO_NELSON, 1, 2, 1, 1).sites_per_cell == 1
    assert make_model(Family.NH_SSH, 1, 2, 1, 1).sites_per_cell == 2
