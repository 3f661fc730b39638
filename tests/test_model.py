import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhskin import (Family, SymmetryOp, ValidationError, apply_symmetry,
                    bloch_hamiltonian, make_model, non_bloch_hamiltonian,
                    real_space_hamiltonian)
from nhskin.model import _hopping_blocks, _sublattice_a, non_bloch_hamiltonians

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
    assert make_model(Family.HATANO_NELSON, 2, 2, 1, 1).is_hermitian
    assert not make_model(Family.HATANO_NELSON, 2, 3, 1, 1).is_hermitian
    assert make_model(Family.NH_SSH, 1, 2, 1, 1, nhssh_delta=0.0).is_hermitian
    assert not make_model(Family.NH_SSH, 1, 2, 1, 1).is_hermitian


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
    assert np.array_equal(H, expected)


def test_pbc_matches_bloch_multiset(model_hermitian):
    m = model_hermitian
    _, hp, hm = _hopping_blocks(m)
    ring = np.eye(m.n_cells, k=1 - m.n_cells)    # the closing bond, cell N to cell 1
    H = real_space_hamiltonian(m) + np.kron(ring, hp) + np.kron(ring.T, hm)
    real = np.sort_complex(np.linalg.eigvals(H))
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


# Exact blocks (H0, Hp, Hm) of each family, written out independently of
# nhskin.model, for hoppings (1.1, 2.3, 3.7, 0.6) and NH-SSH delta 0.4.
T1, T2, T3, T4, DELTA = 1.1, 2.3, 3.7, 0.6, 0.4
BLOCKS = {
    Family.GT: (np.array([[0, T4, T2, 0], [T3, 0, 0, T1],
                          [T2, 0, 0, T3], [0, T1, T4, 0]]),
                np.array([[0, 0, 0, 0], [0, 0, 0, 0], [T1, 0, 0, 0], [0, T2, 0, 0]]),
                np.array([[0, 0, T1, 0], [0, 0, 0, T2], [0, 0, 0, 0], [0, 0, 0, 0]])),
    Family.HATANO_NELSON: (np.zeros((1, 1)), np.array([[T1]]), np.array([[T2]])),
    Family.NH_SSH: (np.array([[0, T1 + DELTA], [T1 - DELTA, 0]]),
                    np.array([[0, 0], [T2, 0]]), np.array([[0, T2], [0, 0]])),
}


def test_gt_hopping_blocks_have_rank_two():
    _, hp, hm = _hopping_blocks(make_model(Family.GT, 2.1, 14.9, 11.2, 3.7))
    assert np.linalg.matrix_rank(hp, tol=0) == 2
    assert np.linalg.matrix_rank(hm, tol=0) == 2


def test_undamped_hatano_nelson_chain_has_a_zero_diagonal():
    m = make_model(Family.HATANO_NELSON, 2.5, 0.9, 1, 1, n_cells=12)
    assert np.all(np.diag(real_space_hamiltonian(m)) == 0)


@pytest.mark.parametrize("family,n_cells", [
    (Family.GT, 5), (Family.NH_SSH, 5), (Family.HATANO_NELSON, 6), (Family.HATANO_NELSON, 5),
], ids=["GT", "NHSSH", "HatanoNelson", "HatanoNelson-odd"])
def test_chiral_chain_is_zero_within_each_sublattice(family, n_cells):
    # what the real-gauge propagator and the half-size solve E^2 = eig(C D)
    # of chain_eigenvalues rest on; an odd Hatano-Nelson chain has one more
    # site on A than on B
    m = make_model(family, T1, T2, T3, T4, n_cells=n_cells, nhssh_delta=DELTA)
    a = _sublattice_a(m)
    H = real_space_hamiltonian(m)
    assert a.sum() == (m.n_sites + 1) // 2
    assert np.all(H[a][:, a] == 0) and np.all(H[~a][:, ~a] == 0)
    assert np.count_nonzero(H[a][:, ~a]) and np.count_nonzero(H[~a][:, a])


@pytest.mark.parametrize("n", [1, 2, 10])
@pytest.mark.parametrize("family", list(Family), ids=lambda f: f"{f.value}-OBC")
def test_real_space_hamiltonian_is_the_kronecker_build_of_the_blocks(family, n):
    g = 0.3
    h0, hp, hm = BLOCKS[family]
    s = len(h0)
    expected = (np.kron(np.eye(n), h0) + np.kron(np.eye(n, k=1), hp)
                + np.kron(np.eye(n, k=-1), hm))
    expected = expected - 1j * g * np.eye(n * s)
    m = make_model(family, T1, T2, T3, T4, gamma=g, n_cells=n, nhssh_delta=DELTA)
    H = real_space_hamiltonian(m)
    assert np.array_equal(H, expected)


def _cell_by_entries(model, b):
    """Cell Hamiltonians written entry by entry, an oracle independent of
    the block table."""
    t1, t2, t3, t4 = model.t1, model.t2, model.t3, model.t4
    H = np.zeros((len(b), model.sites_per_cell, model.sites_per_cell), dtype=complex)
    if model.family is Family.GT:
        H[:, 0, 1] = t4
        H[:, 0, 2] = t2 + t1 / b
        H[:, 1, 0] = t3
        H[:, 1, 3] = t1 + t2 / b
        H[:, 2, 0] = t2 + t1 * b
        H[:, 2, 3] = t3
        H[:, 3, 1] = t1 + t2 * b
        H[:, 3, 2] = t4
    elif model.family is Family.HATANO_NELSON:
        H[:, 0, 0] = t1 * b + t2 / b
    else:
        d = model.delta
        H[:, 0, 1] = t1 + d + t2 / b
        H[:, 1, 0] = t1 - d + t2 * b
    return H


@pytest.mark.parametrize("model", [
    make_model(Family.GT, 2.1, 14.9, 11.2, 3.7),
    make_model(Family.GT, 1, 2, 4, 1),
    make_model(Family.HATANO_NELSON, 2.5, 0.9, 1, 1),
    make_model(Family.NH_SSH, 1.3, 0.7, 1, 1),
], ids=["fig4a", "fig5", "hatano_nelson", "nh_ssh"])
def test_cell_stack_matches_the_per_entry_formulas(model):
    rng, n = np.random.default_rng(2005), 400
    b = (10.0 ** rng.uniform(-3, 3, n)) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    b = np.concatenate([b, np.exp(1j * rng.uniform(-np.pi, np.pi, 50)), [1, -1, 1j]])
    assert np.array_equal(non_bloch_hamiltonians(model, b), _cell_by_entries(model, b))
