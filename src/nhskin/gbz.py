"""Generalized Brillouin zones, skin-direction diagnostics, and gap reports.

Two independent GBZ constructions are provided:

* ``obc_fit`` diagonalizes a long open chain and keeps, for every bulk
  eigenvalue E, the middle-modulus pair of characteristic roots beta
  (the pair that must degenerate in modulus in the thermodynamic limit),
  reported at their balanced radius.
* ``charpoly`` never diagonalizes anything: it solves the auxiliary GBZ
  (aGBZ; Yang, Zhang, Fang & Hu, PRL 125, 226402 (2020)), the roots beta of
  the exact resultant polynomial that vanishes where beta and beta e^{i theta}
  share an energy, by batched companion eigenvalues, and keeps the roots
  that form the middle root pair with their partner (Yokomizo & Murakami,
  PRL 123, 066404 (2019)).  Each point is reported with both energies +-E.

Both read the characteristic polynomial beta^p det(H(beta) - E) from an exact
table of its bivariate coefficients and solve it for beta in closed form
(Ferrari for the double chain's quartic, the quadratic formula otherwise).

Agreement of the two methods is the main internal consistency check: the
cross-check solves the aGBZ at the phase difference of each sampled point's
middle root pair and compares radii.

The open chain that ``obc_fit`` fits, and that the gap report judges, is
solved in the imaginary gauge that brings its GBZ near the unit circle
(radius |beta_T| of the touching point for the double chain, the circle's
radius for the reference models), which leaves its eigenvalues and removes
most of its non-normality.  Every family's chain is bipartite and is
solved on half the sites, as E^2 = eig(C D) of the blocks joining the two
sublattices; a chain whose sublattices differ in size, or with an
eigenvalue too close to 0 for E^2 to resolve it, is solved at full size.

The double chain has four bands that the combined glide/time-reversal
symmetry groups into two pairs (E, -conj(E)); each pair traces one GBZ
component.  At real beta the four energies form a degenerate quadruple
{+-a +- ib}, so both components cross the real axis at the same radius:
this is the touching point, which sits on the negative real axis.  There
the E^2 branches m +- u / sqrt(beta) meet, u = 0, at
beta_T = -(t1 t3 + t2 t4) / (t1 t4 + t2 t3), a double root of the
characteristic polynomial.  Where that double root is its middle root pair
the touching point is beta_T in closed form; elsewhere, and for the
reference models, it is found by scanning the middle-root balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (CrossValidationError, DegreeCollapseError,
                     NoTouchingPointError, ValidationError)
from .model import Family, LatticeModel, _hopping_blocks, _open_chain, _sublattice_a


class GbzMethod(str, Enum):
    OBC_FIT = "obc_fit"
    CHARPOLY = "charpoly"


class Direction(str, Enum):
    LEFT = "Left"
    RIGHT = "Right"
    NONE = "None"


@dataclass(frozen=True)
class GBZ:
    """GBZ point set: one (beta, E) entry per point, grouped into the two
    band-pair components: 1 where |Re E| exceeds the smallest |Re| of the
    cell energies of H(beta), else 0 (always 0 for a single pair, as in the
    Hatano-Nelson and NH-SSH models).

    ``model`` is the model it was computed for, damping included.
    ``chain_eigenvalues`` holds every eigenvalue of the undamped open chain
    that ``obc_fit`` fitted (None for ``charpoly``), which
    :func:`gap_report` can judge when that chain is the one classified.
    ``charpoly`` points are the aGBZ roots that pass its middle-pair test,
    at 60 phase differences theta, so they are spaced uniformly in theta,
    not in arg(beta)."""

    betas: np.ndarray
    energies: np.ndarray
    band_pair: np.ndarray
    model: LatticeModel
    chain_eigenvalues: np.ndarray | None

    def component(self, pair: int) -> np.ndarray:
        return self.betas[self.band_pair == pair]

    @property
    def mean_log_modulus(self) -> float:
        return float(np.mean(np.log(np.abs(self.betas))))


@dataclass(frozen=True)
class SkinDirection:
    direction: Direction
    mean_log_modulus: float


@dataclass(frozen=True)
class GapReport:
    line_gap_width: float
    in_gap_mode_count: int
    is_real_spectrum: bool
    max_abs_im: float


def _charpoly_table(model: LatticeModel) -> np.ndarray:
    """Exact coefficients c[p, q] of beta^P * det(H(beta) - E) = sum c_pq beta^p E^q.

    P is the largest inverse power of beta in H.  The double chain is chiral
    (sites {1, 4} against {2, 3}), so only even powers of E appear:
    det(H - E) = E^4 - tr(CD) E^2 + det C det D.
    """
    t1, t2, t3, t4 = model.t1, model.t2, model.t3, model.t4
    if model.family is Family.GT:
        a = t4 ** 2 - 2 * t1 * t2
        b = t3 ** 2 - 2 * t1 * t2
        c = np.zeros((5, 5))
        c[0, 0] = c[4, 0] = (t1 * t2) ** 2
        c[1, 0] = -(a * t2 ** 2 + b * t1 ** 2)
        c[2, 0] = a * b + t1 ** 4 + t2 ** 4
        c[3, 0] = -(a * t1 ** 2 + b * t2 ** 2)
        c[1, 2] = c[3, 2] = -2 * t1 * t2
        c[2, 2] = -2 * (t3 * t4 + t1 ** 2 + t2 ** 2)
        c[2, 4] = 1.0
    elif model.family is Family.HATANO_NELSON:
        # beta (t1 beta + t2 / beta - E)
        c = np.zeros((3, 2))
        c[0, 0], c[1, 1], c[2, 0] = t2, -1.0, t1
    else:
        # beta (E^2 - (t1 + d + t2 / beta)(t1 - d + t2 beta))
        d = model.delta
        c = np.zeros((3, 3))
        c[0, 0] = -t2 * (t1 - d)
        c[1, 0] = -(t1 ** 2 - d ** 2 + t2 ** 2)
        c[2, 0] = -t2 * (t1 + d)
        c[1, 2] = 1.0
    return c


def charpoly_coefficients(model: LatticeModel, E) -> np.ndarray:
    """Coefficients (ascending) of beta^p * det(H(beta) - E), one row per E.

    ``E`` may be a scalar or an array.  Degree is 4 for the double chain and
    2 for the one- and two-band reference models.
    """
    E = np.atleast_1d(np.asarray(E, dtype=complex))
    table = _charpoly_table(model)
    coeffs = np.vander(E, table.shape[1], increasing=True) @ table.T
    if np.any(_degree_collapsed(coeffs)):
        raise DegreeCollapseError(
            "characteristic polynomial lost degree (vanishing boundary hopping)")
    return coeffs


def _degree_collapsed(coeffs: np.ndarray) -> np.ndarray:
    """Rows whose leading or trailing coefficient vanishes against the rest."""
    scale = np.max(np.abs(coeffs), axis=1)
    return (np.abs(coeffs[:, -1]) < 1e-12 * scale) | (np.abs(coeffs[:, 0]) < 1e-12 * scale)


def _quadratic_roots(b, c):
    """Both roots of x^2 + b x + c, without cancellation."""
    disc = np.sqrt(b * b - 4 * c)
    disc = np.where(b.real * disc.real + b.imag * disc.imag < 0, -disc, disc)
    q = -(b + disc) / 2
    return q, np.divide(c, q, out=np.zeros_like(q), where=q != 0)


_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3 * np.arange(3))


def _quartic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of quartics by Ferrari's method, shape (n, 4).

    The depressed quartic y^4 + p y^2 + q y + r splits into
    (y^2 + s y + A)(y^2 - s y + B) with s^2 = u the largest root of the
    resolvent cubic u^3 + 2p u^2 + (p^2 - 4r) u - q^2, found by Cardano.
    """
    a3, a2, a1, a0 = (coeffs[:, k] / coeffs[:, 4] for k in (3, 2, 1, 0))
    sh = a3 / 4
    p = a2 - 6 * sh ** 2
    q = a1 - 2 * a2 * sh + 8 * sh ** 3
    r = a0 - a1 * sh + a2 * sh ** 2 - 3 * sh ** 4
    # resolvent shifted by u = v - 2p/3: v^3 + P v + Q
    P = -p * p / 3 - 4 * r
    Q = -2 * p ** 3 / 27 + 8 * p * r / 3 - q * q
    sd = np.sqrt((Q / 2) ** 2 + (P / 3) ** 3)
    w = np.where(np.abs(-Q / 2 + sd) >= np.abs(-Q / 2 - sd), -Q / 2 + sd, -Q / 2 - sd)
    C = w[:, None] ** (1 / 3) * _CUBE_ROOTS_OF_UNITY
    u = C - np.divide(P[:, None], 3 * C, out=np.zeros_like(C), where=C != 0) - 2 * p[:, None] / 3
    u = u[np.arange(len(u)), np.argmax(np.abs(u), axis=1)]
    s = np.sqrt(u)
    t = np.divide(q, 2 * s, out=np.zeros_like(s), where=s != 0)
    y = np.stack(_quadratic_roots(s, (p + u) / 2 - t)
                 + _quadratic_roots(-s, (p + u) / 2 + t), axis=1)
    return y - sh[:, None]


def _horner(coeffs: np.ndarray, x: np.ndarray):
    """Values, derivatives and the scale sum |c_k| |x|^k of the rows of
    ``coeffs`` (ascending) at ``x``."""
    f = np.repeat(coeffs[:, -1:], x.shape[1], axis=1)
    df = np.zeros_like(x)
    scale = np.abs(f)
    ax = np.abs(x)
    for k in range(coeffs.shape[1] - 2, -1, -1):
        df = df * x + f
        f = f * x + coeffs[:, k:k + 1]
        scale = scale * ax + np.abs(coeffs[:, k:k + 1])
    return f, df, scale


def _polish(coeffs: np.ndarray, x: np.ndarray, max_steps: int = 40) -> np.ndarray:
    """Aberth-Ehrlich steps on the original polynomial for the rows whose
    roots are not yet exact to rounding (|P(x)| <= 2d eps sum |c_k| |x|^k).

    Ferrari's shift to the depressed quartic loses the small roots of a
    quartic whose largest root dominates; these steps restore them, and the
    Aberth term keeps the roots of a cluster apart."""
    x = x.copy()
    rows = np.arange(len(x))
    tol = 2 * (coeffs.shape[1] - 1) * np.finfo(float).eps
    others = ~np.eye(x.shape[1], dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(max_steps):
            f, df, scale = _horner(coeffs[rows], x[rows])
            todo = ~np.all(np.abs(f) <= tol * scale, axis=1)
            rows, f, df = rows[todo], f[todo], df[todo]
            if len(rows) == 0:
                break
            xr = x[rows]
            newton = f / df
            pull = np.zeros_like(xr)
            for j in range(xr.shape[1]):
                pull += np.where(others[j], 1 / (xr - xr[:, j:j + 1]), 0)
            step = xr - newton / (1 - newton * pull)
            x[rows] = np.where(np.isfinite(step), step, xr)
    return x


def _roots_many(coeffs: np.ndarray) -> np.ndarray:
    """Roots of a batch of polynomials of degree 2 or 4 in closed form,
    each row sorted by ascending modulus, ties by argument."""
    d = coeffs.shape[1] - 1
    if d == 2:
        monic = coeffs / coeffs[:, 2:]
        roots = np.stack(_quadratic_roots(monic[:, 1], monic[:, 0]), axis=1)
    elif d == 4:
        roots = _polish(coeffs, _quartic_roots(coeffs))
    else:
        raise ValueError(f"no closed-form roots for degree {d}")
    order = np.lexsort((np.angle(roots), np.abs(roots)), axis=1)
    return np.take_along_axis(roots, order, axis=1)


def charpoly_beta_roots(model: LatticeModel, E: complex) -> np.ndarray:
    """All beta roots of det(H(beta) - E) = 0 for one energy, sorted by
    ascending modulus (ties by argument)."""
    coeffs = charpoly_coefficients(model, E)
    return _roots_many(coeffs)[0]


def _middle_roots(coeffs: np.ndarray):
    """The two middle-modulus roots of each row of ``coeffs`` (ascending),
    the smaller one first."""
    roots = _roots_many(coeffs)
    d = roots.shape[1]
    return roots[:, d // 2 - 1], roots[:, d // 2]


def _branch_energies(model: LatticeModel, betas) -> np.ndarray:
    """One energy per E^2 branch of H(beta), shape (n, b), in closed form.

    The chiral families have det(H - E) = det(E^2 - C D) with the chiral
    blocks C, D of H, so their spectrum is +-E over the branches.  For NH-SSH
    C D is a number.  For the double chain C D has equal diagonal entries m
    and off-diagonal product u^2 / beta, so E^2 = m +- u / sqrt(beta); this
    keeps the split of the near-double E^2 near the touching point (u -> 0),
    which the quadratic formula on the charpoly table would cancel away.
    Each column's E^2 is analytic along a ray of fixed arg(beta), so a scan
    along a ray can follow one column (Hatano-Nelson: its band).
    """
    b = np.atleast_1d(np.asarray(betas, dtype=complex))
    t1, t2, t3, t4 = model.t1, model.t2, model.t3, model.t4
    if model.family is Family.HATANO_NELSON:
        return (t1 * b + t2 / b)[:, None]
    if model.family is Family.GT:
        m = t3 * t4 + (t2 + t1 / b) * (t2 + t1 * b)
        u = (t1 * t3 + t2 * t4 + (t1 * t4 + t2 * t3) * b) / np.sqrt(b)
        return np.sqrt(np.stack([m + u, m - u], axis=1))
    d = model.delta
    return np.sqrt((t1 + d + t2 / b) * (t1 - d + t2 * b))[:, None]


def _cell_energy_sets(model: LatticeModel, betas) -> np.ndarray:
    """Eigenvalues of H(beta) per beta, shape (n, s), in closed form: the
    branch energies and, for the chiral families, their negatives."""
    e = _branch_energies(model, betas)
    return e if model.family is Family.HATANO_NELSON else np.concatenate([e, -e], axis=1)


def _balance(model: LatticeModel, betas: np.ndarray, branch) -> np.ndarray:
    """Middle-root balance g = log(|rho_a| |rho_b| / |beta|^2) at the energy
    E_j(beta) of E^2 branch j = ``branch`` (one for all, or one per beta),
    where rho_a, rho_b are the middle-modulus roots of det(H(beta') - E) = 0.

    g changes sign where beta lies on the continuum GBZ of branch j, for
    both energies +-E.  Only that branch's quartic is solved per beta.
    """
    Es = _branch_energies(model, betas)[np.arange(len(betas)), branch]
    a, b = _middle_roots(charpoly_coefficients(model, Es))
    return np.log(np.abs(a) * np.abs(b) / np.abs(betas) ** 2)


def _polymul2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficient table of the product of two bivariate polynomials, each
    given by its table of coefficients: the sum of shifted copies of ``q``,
    one per nonzero entry of ``p``."""
    out = np.zeros(np.add(p.shape, q.shape) - 1, dtype=np.result_type(p, q))
    for k, j in zip(*np.nonzero(p)):
        out[k:k + q.shape[0], j:j + q.shape[1]] += p[k, j] * q
    return out


def _agbz_table(model: LatticeModel) -> np.ndarray:
    """Exact coefficients T[k, j] of sum T_kj beta^k w^j, the resultant in y
    of the characteristic polynomial at beta and at beta w.

    y is E^2 for the chiral families and E for Hatano-Nelson, so the
    characteristic polynomial is sum_k a_k(beta) y^k of degree n = 1 or 2 in
    y.  With m_ij = a_i(beta) a_j(beta w) - a_j(beta) a_i(beta w), the
    determinant of the Bezout matrix gives the resultant m_01 (n = 1) or
    m_01 m_12 - m_02^2 (n = 2).  It vanishes exactly where beta and beta w
    share an energy.  Its power of beta is divided out, which leaves degree
    8 for the double chain and 2 for the reference models.
    """
    c = _charpoly_table(model)
    a = (c if model.family is Family.HATANO_NELSON else c[:, ::2]).T

    def m(i, j):
        return _polymul2(a[i][:, None], np.diag(a[j])) - _polymul2(a[j][:, None], np.diag(a[i]))
    T = m(0, 1) if len(a) == 2 else _polymul2(m(0, 1), m(1, 2)) - _polymul2(m(0, 2), m(0, 2))
    rows = np.flatnonzero(np.any(T != 0, axis=1))
    return T[rows[0]:rows[-1] + 1]


def _agbz_points(model: LatticeModel, w: np.ndarray):
    """GBZ points among the aGBZ roots at each phase factor w = e^{i theta}.

    The roots beta of the resultant :func:`_agbz_table` come from batched
    companion eigenvalues.  Each takes the energy E of the E^2 branch it
    shares with beta w, and is kept where beta and beta w are the middle
    root pair of the characteristic polynomial at E: equal in modulus to
    1e-6 and each within 1e-5 of one of the pair (relative to |beta|).
    Roots with no usable E (the charpoly at E lost degree) are dropped.
    Returns the index into ``w``, beta and E of each kept root, ordered by w."""
    T = _agbz_table(model)
    coeffs = np.vander(w, T.shape[1], increasing=True) @ T.T
    d = coeffs.shape[1] - 1
    comp = np.zeros((len(w), d, d), dtype=complex)
    # at w = 1 the resultant vanishes: its all-zero row leaves beta = 0
    np.divide(-coeffs[:, -2::-1], coeffs[:, -1:], out=comp[:, 0, :],
              where=coeffs[:, -1:] != 0)
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    betas = np.linalg.eigvals(comp).ravel()
    k = np.repeat(np.arange(len(w)), d)
    shifted = betas * w[k]
    with np.errstate(all="ignore"):
        e, e_w = _branch_energies(model, betas), _branch_energies(model, shifted)
        near = np.abs(e[:, :, None] ** 2 - e_w[:, None, :] ** 2).min(axis=2)
        E = e[np.arange(len(betas)), np.argmin(near, axis=1)]
        table = _charpoly_table(model)
        cp = np.vander(E, table.shape[1], increasing=True) @ table.T
        ok = np.all(np.isfinite(cp), axis=1) & ~_degree_collapsed(cp)
    k, betas, shifted, E = k[ok], betas[ok], shifted[ok], E[ok]
    a, b = _middle_roots(cp[ok])
    r = np.abs(betas)

    def close(x, y):
        return np.abs(x - y) < 1e-5 * r
    keep = ((np.abs(np.abs(a) - np.abs(b)) < 1e-6 * r)
            & ((close(a, betas) & close(b, shifted)) | (close(b, betas) & close(a, shifted))))
    return k[keep], betas[keep], E[keep]


def _beta_t(model: LatticeModel) -> float:
    """beta_T = -(t1 t3 + t2 t4) / (t1 t4 + t2 t3) of the double chain, the
    negative real beta where the off-diagonal entry u of its E^2 branches
    vanishes, so both branches equal m(beta_T) there."""
    t1, t2, t3, t4 = model.t1, model.t2, model.t3, model.t4
    return -(t1 * t3 + t2 * t4) / (t1 * t4 + t2 * t3)


def _touching_point_in_regime(model: LatticeModel) -> bool:
    """Whether beta_T is the double chain's touching point: the middle root
    pair of det(H(beta) - E_T), E_T^2 = m(beta_T).

    beta_T is a double root there (Yokomizo & Murakami, PRL 123, 066404
    (2019)).  With Q = t1 t4 + t2 t3 the determinant factors as
    (beta - beta_T)^2 times quadratics in s = sqrt(beta) whose roots give
    the other two roots beta = s^2, s from t1 t2 beta_T s^2 + Q beta_T s
    - t1 t2 = 0; beta_T is the middle pair when one of them lies strictly
    inside |beta_T| and the other strictly outside."""
    t1, t2, t3, t4 = model.t1, model.t2, model.t3, model.t4
    bt = _beta_t(model)
    s = _quadratic_roots(np.array([(t1 * t4 + t2 * t3) / (t1 * t2)], complex),
                         np.array([-1 / bt], complex))
    inner, outer = sorted(abs(x[0]) ** 2 for x in s)
    return bool(inner < -bt < outer)


def _gauge_radius(model: LatticeModel) -> float:
    """Radius r of the imaginary gauge S = diag(r^x) that brings the open
    chain's GBZ near the unit circle.  For the double chain it is the
    modulus of the touching point beta_T of :func:`_beta_t`; the reference
    models have a circular GBZ, of radius sqrt(|c_00 / c_P0|)
    (|beta_1 beta_2| of the two beta roots at every E).  Where that is 0 or
    infinite (NH-SSH with |delta| = t1, a one-way bond) no gauge is taken,
    r = 1."""
    if model.family is Family.GT:
        return -_beta_t(model)
    c = _charpoly_table(model)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = float(np.sqrt(abs(c[0, 0] / c[-1, 0])))
    return r if 0 < r < np.inf else 1.0


def _gauged_blocks(model: LatticeModel):
    """r of :func:`_gauge_radius` and the blocks (H0, r Hp, Hm / r) of S^-1 H S."""
    r, (h0, hp, hm) = _gauge_radius(model), _hopping_blocks(model)
    return r, (h0, r * hp, hm / r)


def chain_eigenvalues(model: LatticeModel) -> np.ndarray:
    """Eigenvalues of the model's open chain without its uniform damping.

    The chain is solved as S^-1 H S, S = diag(r^x) with the gauge radius r
    of :func:`_gauge_radius` (Hatano & Nelson, PRL 77, 570 (1996); Yao &
    Wang, PRL 121, 086803 (2018)): the same eigenvalues, far less
    non-normal.  It is assembled from the blocks (H0, r Hp, Hm / r), so no
    power of r is formed, and solved in real arithmetic.  Every chain
    couples sublattice A only to B, so E = +-sqrt(lambda) over the
    eigenvalues lambda of C D on half the sites, C and D its A-B and B-A
    blocks.  The full gauged chain is solved instead where the sublattices
    differ in size (an odd Hatano-Nelson chain), and where
    min|lambda| < sqrt(eps) max|lambda|, as some E^2 then keeps less than
    half its digits."""
    _, blocks = _gauged_blocks(model)
    H = _open_chain(*blocks, model.n_cells)
    a = _sublattice_a(model)
    if 2 * np.count_nonzero(a) == len(a):
        lam = np.linalg.eigvals(H[np.ix_(a, ~a)] @ H[np.ix_(~a, a)]).astype(complex, copy=False)
        size = np.abs(lam)
        if size.min() >= np.sqrt(np.finfo(float).eps) * size.max():
            e = np.sqrt(lam)
            return np.concatenate([e, -e])
    return np.linalg.eigvals(H).astype(complex, copy=False)


def _obc_fit_gbz(model: LatticeModel, n_sites: int):
    w = chain_eigenvalues(model.with_(n_cells=n_sites // model.sites_per_cell))
    b2, b3 = _middle_roots(charpoly_coefficients(model, w))
    # a bulk eigenvalue's middle roots agree in modulus to 1%; an edge mode
    # in the line gap decays away from one end, so its middle roots do not
    ok = np.abs(np.abs(b2) - np.abs(b3)) < 1e-2 * np.abs(b2)
    # at finite N the middle roots straddle the continuum GBZ; report both
    # arguments at the balanced radius sqrt(|b2| |b3|), each with the cell
    # energy of H(beta') nearest the chain eigenvalue, an exact root pair
    radius = np.sqrt(np.abs(b2[ok]) * np.abs(b3[ok]))
    betas = np.concatenate([radius * np.exp(1j * np.angle(b2[ok])),
                            radius * np.exp(1j * np.angle(b3[ok]))])
    target = np.concatenate([w[ok], w[ok]])
    Es = _cell_energy_sets(model, betas)
    energies = Es[np.arange(len(betas)), np.argmin(np.abs(Es - target[:, None]), axis=1)]
    return betas, energies, w


def _charpoly_gbz(model: LatticeModel, n_theta: int = 60):
    """Continuum GBZ as the GBZ points of the aGBZ at the n_theta phase
    factors w = e^{i theta}, theta = 2 pi (k + 1/2) / n_theta, which keep
    clear of w = 1, where the resultant vanishes identically.

    Returns the points (betas, energies); a chiral point is reported twice,
    as (beta, E) and (beta, -E)."""
    _, betas, energies = _agbz_points(
        model, np.exp(2j * np.pi * (np.arange(n_theta) + 0.5) / n_theta))
    if model.family is Family.HATANO_NELSON:
        return betas, energies
    return np.repeat(betas, 2), np.stack([energies, -energies], axis=1).ravel()


def _check_n_sites(model: LatticeModel, n_sites: int) -> None:
    """``obc_fit`` needs whole cells, and at least 4 of them."""
    s = model.sites_per_cell
    if n_sites % s != 0 or n_sites < 4 * s:
        raise ValidationError(f"n_sites = {n_sites} must be a multiple of {s} and >= {4 * s}")


def gbz_compute(model: LatticeModel, method=GbzMethod.OBC_FIT, n_sites: int = 160,
                cross_check: bool = False, cross_tol: float = 1e-3) -> GBZ:
    """Compute the GBZ of a model by the requested method.

    With ``cross_check`` the other method is computed as well and every point
    must have a counterpart within ``cross_tol`` (relative); disagreement
    raises :class:`CrossValidationError` instead of being silently resolved.
    """
    method = GbzMethod(method)
    _check_n_sites(model, n_sites)
    if method is GbzMethod.OBC_FIT:
        betas, energies, chain_eigenvalues = _obc_fit_gbz(model, n_sites)
    else:
        betas, energies = _charpoly_gbz(model)
        chain_eigenvalues = None
    if len(betas) == 0:
        raise ValidationError("no GBZ points found")
    # the double chain's two pairs (E, -E*) at a beta differ in |Re E|
    w = _cell_energy_sets(model, betas)
    band_pair = (np.abs(energies.real) > np.abs(w.real).min(axis=1)).astype(int)
    out = GBZ(betas, energies, band_pair, model, chain_eigenvalues)
    if cross_check:
        ref = (out if method is GbzMethod.OBC_FIT
               else gbz_compute(model, GbzMethod.OBC_FIT, n_sites))
        # 48 evenly spaced points (all of them when there are fewer)
        n_sample = min(48, len(ref.betas))
        idx = np.arange(n_sample) * len(ref.betas) // n_sample
        b = ref.betas[idx]
        r = _radial_refine_many(model, b, ref.energies[idx])
        found = ~np.isnan(r)
        errs = np.abs(r[found] - np.abs(b[found])) / np.abs(b[found])
        counted = f"({int(found.sum())} of {len(idx)} sampled points compared)"
        if len(errs) == 0:
            raise CrossValidationError(
                f"GBZ cross-check found no comparable points {counted}")
        # compare the bulk of the cloud (90th percentile): isolated points at
        # cusps of the GBZ carry O(1/N) finite-size error well above the rest
        # np.quantile's linear interpolation, without its import of numpy.ma
        q90 = float(np.interp(0.9 * (len(errs) - 1), np.arange(len(errs)), np.sort(errs)))
        if q90 > cross_tol:
            raise CrossValidationError(
                f"GBZ methods disagree: 90th-percentile radial mismatch "
                f"{q90:.3g} (max {np.max(errs):.3g}) exceeds {cross_tol:g} {counted}")
    return out


def _radial_refine_many(model: LatticeModel, betas: np.ndarray,
                        energies: np.ndarray) -> np.ndarray:
    """Continuum GBZ radius near each ``beta``: the modulus of the GBZ point
    nearest it among the aGBZ roots at the phase difference w of the middle
    root pair at its energy; NaN where that w has no GBZ point."""
    b2, b3 = _middle_roots(charpoly_coefficients(model, energies))
    w = np.where(np.abs(b2 - betas) <= np.abs(b3 - betas), b3 / b2, b2 / b3)
    k, b, _ = _agbz_points(model, w / np.abs(w))
    # the first root of each point once sorted by point, then by distance
    order = np.lexsort((np.abs(b - betas[k]), k))
    k, b = k[order], b[order]
    first = np.unique(k, return_index=True)[1]
    out = np.full(len(betas), np.nan)
    out[k[first]] = np.abs(b[first])
    return out


def gbz_touching_point(gbz: GBZ) -> complex:
    """The beta where the two band-pair components meet.

    The nearest cross-component point pair locates the meeting region, at
    radius r0.  For a double chain whose beta_T (:func:`_beta_t`) is the
    touching point (:func:`_touching_point_in_regime`) and lies within a
    factor 3 of r0, the result is beta_T itself, exact in closed form.
    Otherwise :func:`_touching_point_scan` refines the first balance zero on
    the negative real axis within a factor 3 of r0.  Components that never
    approach each other, or no sign change bracketed by the scan, raise
    :class:`NoTouchingPointError`.
    """
    c0, c1 = gbz.component(0), gbz.component(1)
    if len(c0) == 0 or len(c1) == 0:
        raise NoTouchingPointError("GBZ does not have two band-pair components")
    scale = np.max(np.abs(gbz.betas))
    # the sampled components meet only up to the finite point spacing
    tol = max(4 * np.pi / len(gbz.betas) * 10, 0.05)
    d = np.abs(c0[:, None] - c1[None, :])
    i, j = np.unravel_index(np.argmin(d), d.shape)
    if d[i, j] > tol * scale:
        raise NoTouchingPointError(
            f"components stay {d[i, j] / scale:.3g} (relative) apart, tol {tol:g}")
    r0 = abs(c0[i] + c1[j]) / 2
    model = gbz.model
    if (model.family is Family.GT and r0 / 3 <= -_beta_t(model) <= r0 * 3
            and _touching_point_in_regime(model)):
        return complex(_beta_t(model))
    return _touching_point_scan(model, r0)


def _touching_point_scan(model: LatticeModel, r0: float) -> complex:
    """The first balance zero on the negative real axis between radii r0 / 3
    and 3 r0, where the symmetry quadruple {+-a +- ib} makes the E^2
    branches complex conjugates, so their balances agree and branch 0 is
    refined alone: 80 radii bracket a sign change, and each batched balance
    call then cuts it into 64 pieces, until it is 2e-12 wide.  No sign change
    raises :class:`NoTouchingPointError`."""
    rs = np.geomspace(r0 / 3, r0 * 3, 80)
    g = _balance(model, -rs, 0)
    idx = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    if len(idx) == 0:
        raise NoTouchingPointError(
            f"no balance zero on the negative real axis between radii "
            f"{rs[0]:.3g} and {rs[-1]:.3g}")
    lo, hi = rs[idx[0]], rs[idx[0] + 1]
    while hi - lo > 2e-12:
        x = np.linspace(lo, hi, 65)
        g = _balance(model, -x, 0)
        k = np.argmax(np.sign(g) != np.sign(g[0]))
        if g[k] == 0:
            return complex(-x[k])
        lo, hi = x[k - 1], x[k]
    return complex(-(lo + hi) / 2)


def skin_direction(gbz: GBZ) -> SkinDirection:
    """Mean of log|beta| over the GBZ decides the bias: below -1e-3 the
    open-chain eigenstates pile up at the left boundary, above 1e-3 at the
    right one."""
    m = gbz.mean_log_modulus
    if m < -1e-3:
        d = Direction.LEFT
    elif m > 1e-3:
        d = Direction.RIGHT
    else:
        d = Direction.NONE
    return SkinDirection(d, m)


def gap_report(gbz: GBZ, eigenvalues: np.ndarray) -> GapReport:
    """Bulk line-gap width, in-gap mode count, and spectrum-realness flags.

    The gap is measured on the non-Bloch bulk bands sampled over the GBZ
    (which excludes topological in-gap edge modes by construction); a band
    edge within 1e-3 max|E| of Re E = 0 closes it.  Realness,
    the in-gap modes and the tolerance scale are judged on ``eigenvalues``,
    the open-chain eigenvalues of the model being judged without its uniform
    damping: :func:`chain_eigenvalues` of the model, or the GBZ's own
    ``chain_eigenvalues`` when it was fitted on that chain.
    """
    radius = max(float(np.max(np.abs(eigenvalues))), 1e-300)
    tol_im, tol_gap = 1e-6 * radius, 1e-3 * radius
    e0 = np.min(np.abs(gbz.energies.real))
    width = 0.0 if e0 < tol_gap else 2 * e0
    in_gap = int(np.sum(np.abs(eigenvalues.real) < width / 2 - tol_gap)) if width > 0 else 0
    max_im = float(np.max(np.abs(eigenvalues.imag)))
    return GapReport(width, in_gap, bool(max_im < tol_im), max_im)
