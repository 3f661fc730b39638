import numpy as np
import pytest
import scipy.integrate

from nhskin import Family, make_model, real_space_hamiltonian

# Parameter sets from the three measured dynamic phases (rad/s, 10 cells).
PHASE_A = dict(t1=2.1, t2=14.9, t3=11.2, t4=3.7, omega0=86.5, gamma=2.8)
PHASE_B = dict(t1=3.2, t2=6.7, t3=22.6, t4=8.4, omega0=80.9, gamma=4.4)
PHASE_C = dict(t1=2.1, t2=14.9, t3=12.6, t4=8.9, omega0=89.8, gamma=2.5)


@pytest.fixture(scope="session")
def model_a():
    return make_model(Family.GT, **PHASE_A, n_cells=10)


@pytest.fixture(scope="session")
def model_b():
    return make_model(Family.GT, **PHASE_B, n_cells=10)


@pytest.fixture(scope="session")
def model_c():
    return make_model(Family.GT, **PHASE_C, n_cells=10)


@pytest.fixture(scope="session")
def model_hermitian():
    return make_model(Family.GT, t1=1.0, t2=2.0, t3=3.0, t4=3.0, n_cells=10)


@pytest.fixture(scope="session")
def dop853():
    """Independent propagation oracle: adaptive DOP853 on i dpsi/dt = H psi,
    with the damping inside H; returns amplitudes with rows at ``t``."""
    def propagate(model, psi0, t):
        H = real_space_hamiltonian(model)
        sol = scipy.integrate.solve_ivp(
            lambda _, y: -1j * (H @ y), (t[0], t[-1]), np.asarray(psi0, complex),
            t_eval=t, method="DOP853", rtol=1e-9,
            atol=1e-12 * max(np.linalg.norm(psi0), 1.0))
        assert sol.success, sol.message
        return sol.y.T
    return propagate


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
