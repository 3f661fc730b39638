"""Generalized Brillouin zones, skin-direction diagnostics, and gap reports.

Two independent GBZ constructions are provided:

* ``obc_fit`` diagonalizes a long open chain and keeps, for every bulk
  eigenvalue E, the middle-modulus pair of characteristic roots beta
  (the pair that must degenerate in modulus in the thermodynamic limit),
  reported at their balanced radius.
* ``charpoly`` never diagonalizes anything: along each ray beta = r e^{i theta}
  it bisects, for each closed-form E^2 branch of H(beta), for the radius at
  which the middle root pair of the characteristic polynomial has equal
  modulus, and reports each point with both energies +-E.

Both read the characteristic polynomial beta^p det(H(beta) - E) from an exact
table of its bivariate coefficients and solve it for beta in closed form
(Ferrari for the double chain's quartic, the quadratic formula otherwise).

Agreement of the two methods is the main internal consistency check.

One helper, ``_ray_zeros``, finds every balanced radius: a coarse scan of
one E^2 branch's balance per ray, then one batched bisection of all
sign-change brackets.  The charpoly GBZ, the cross-check and the touching
point all call it.

The double chain has four bands that the combined glide/time-reversal
symmetry groups into two pairs (E, -conj(E)); each pair traces one GBZ
component.  At real beta the four energies form a degenerate quadruple
{+-a +- ib}, so both components cross the real axis at the same radius:
this is the touching point, which sits on the negative real axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (CrossValidationError, DegreeCollapseError,
                     NoTouchingPointError, ValidationError)
from .model import BC, Family, LatticeModel, real_space_hamiltonian


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
    band-pair components (0 = smaller |Re E| pair at that beta).

    ``chain_eigenvalues`` holds every OBC eigenvalue of the fitted chain
    (``obc_fit`` only), which :func:`gap_report` reuses for that chain.
    ``brackets`` is (rejected, found) for the bisection brackets of
    ``charpoly``, counted once per energy sign; its acceptance filter drops
    band-crossing artifacts."""

    betas: np.ndarray
    energies: np.ndarray
    band_pair: np.ndarray
    method: GbzMethod
    n_sites_used: int
    model: LatticeModel
    chain_eigenvalues: np.ndarray | None
    brackets: tuple[int, int] | None = None

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
    scale = np.max(np.abs(coeffs), axis=1)
    bad = (np.abs(coeffs[:, -1]) < 1e-12 * scale) | (np.abs(coeffs[:, 0]) < 1e-12 * scale)
    if np.any(bad):
        raise DegreeCollapseError(
            "characteristic polynomial lost degree (vanishing boundary hopping)")
    return coeffs


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
    """Roots of a batch of polynomials of degree 1, 2 or 4 in closed form,
    each row sorted by ascending modulus, ties by argument."""
    d = coeffs.shape[1] - 1
    if d == 1:
        roots = -coeffs[:, :1] / coeffs[:, 1:]
    elif d == 2:
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


def _middle_pair_indices(d: int):
    return d // 2 - 1, d // 2


def _branch_energies(model: LatticeModel, betas) -> np.ndarray:
    """One energy per E^2 branch of H(beta), shape (n, b), in closed form.

    The chiral families have det(H - E) = det(E^2 - C D) with the chiral
    blocks C, D of H, so their spectrum is +-E over the branches.  For NH-SSH
    C D is a number.  For the double chain C D has equal diagonal entries m
    and off-diagonal product u^2 / beta, so E^2 = m +- u / sqrt(beta); this
    keeps the split of the near-double E^2 near the touching point (u -> 0),
    which the quadratic formula on the charpoly table would cancel away.
    Each column's E^2 is analytic along a ray of fixed arg(beta), so the
    column is the label a bisection bracket follows (Hatano-Nelson: its band).
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
    E_j(beta) of E^2 branch j = ``branch`` (one index per beta), where rho_a,
    rho_b are the middle-modulus roots of det(H(beta') - E) = 0.

    g changes sign where beta lies on the continuum GBZ of branch j, for
    both energies +-E.  Only that branch's quartic is solved per beta.
    """
    Es = _branch_energies(model, betas)[np.arange(len(betas)), branch]
    roots = _roots_many(charpoly_coefficients(model, Es))
    i, j = _middle_pair_indices(roots.shape[1])
    return np.log(np.abs(roots[:, i]) * np.abs(roots[:, j]) / np.abs(betas) ** 2)


def _bisect(g, lo, hi, glo, steps: int) -> np.ndarray:
    """Geometric bisection of many sign-change brackets at once.

    ``g(r, k)`` evaluates the function at radii ``r`` for the brackets with
    indices ``k``; ``glo`` holds its values at ``lo``.  Each step moves ``lo``
    where g(mid) has the sign of ``glo`` and ``hi`` otherwise; an exact zero
    collapses the bracket onto it.  A bracket retires, and is no longer
    evaluated, once it has collapsed or its midpoint rounds to an endpoint:
    every further step would leave it unchanged.  Returns sqrt(lo * hi).
    """
    lo, hi, glo = (np.array(a, dtype=float) for a in (lo, hi, glo))
    active = np.arange(len(lo))
    for _ in range(steps):
        mid = np.sqrt(lo[active] * hi[active])
        moving = (mid != lo[active]) & (mid != hi[active])
        active, mid = active[moving], mid[moving]
        if len(active) == 0:
            break
        gm = g(mid, active)
        zero = gm == 0.0
        same = ~zero & (np.sign(gm) == np.sign(glo[active]))
        lo[active[same]], glo[active[same]] = mid[same], gm[same]
        hi[active[~same]] = mid[~same]
        lo[active[zero]] = mid[zero]
        active = active[~zero]
    return np.sqrt(lo * hi)


#: Quartics the coarse scan of :func:`_ray_zeros` solves at a time, so that
#: the root-finding temporaries of a large grid of rays stay small.
_SCAN_QUARTICS = 1024


def _ray_zeros(model: LatticeModel, phases: np.ndarray, branches: np.ndarray, rs):
    """Balance zeros of one E^2 branch along each ray beta = r * phase.

    Ray k follows branch ``branches[k]``.  ``rs`` is the coarse grid of
    radii, shared by all rays (shape (n_r,)) or one row per ray (n, n_r).
    Every sign change of the balance on that grid is one bracket, and all
    brackets are bisected together down to the ulp.  Returns the ray index
    and the radius of each zero, ordered by ray, then by radius.
    """
    rs = np.broadcast_to(rs, (len(phases), np.shape(rs)[-1]))
    n_r = rs.shape[1]
    step = max(1, _SCAN_QUARTICS // n_r)
    g = np.concatenate([
        _balance(model, (rs[a:a + step] * phases[a:a + step, None]).ravel(),
                 np.repeat(branches[a:a + step], n_r)).reshape(-1, n_r)
        for a in range(0, len(phases), step)])
    ray, idx = np.nonzero(np.sign(g[:, :-1]) * np.sign(g[:, 1:]) < 0)
    r = _bisect(lambda r, k: _balance(model, r * phases[ray[k]], branches[ray[k]]),
                rs[ray, idx], rs[ray, idx + 1], g[ray, idx], 80)
    return ray, r


def _band_pairs(model: LatticeModel, betas: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Assign each (beta, E) point to GBZ component 0 or 1.

    At a given beta the cell energies split into two symmetry pairs; the
    pair with the smaller |Re E| is component 0.  Single-pair families are
    all component 0.
    """
    s = model.sites_per_cell
    if s < 4:
        return np.zeros(len(betas), dtype=int)
    w = _cell_energy_sets(model, betas)
    order = np.argsort(np.abs(w.real), axis=1)
    w_sorted = np.take_along_axis(w, order, axis=1)
    d_small = np.min(np.abs(w_sorted[:, :2] - energies[:, None]), axis=1)
    d_large = np.min(np.abs(w_sorted[:, 2:] - energies[:, None]), axis=1)
    return (d_large < d_small).astype(int)


def _fit_chain(model: LatticeModel, n_sites: int) -> LatticeModel:
    """The undamped open chain of ``n_sites`` sites that ``obc_fit`` diagonalizes."""
    return model.with_(gamma=0.0, n_cells=n_sites // model.sites_per_cell, bc=BC.OBC)


def _chain_eigenvalues(model: LatticeModel, n_sites: int) -> np.ndarray:
    """Eigenvalues of the undamped open chain of ``n_sites`` sites.

    Without damping the chain of every family is real, and a real array
    lets LAPACK run its real solver (dgeev): faster than the complex one,
    and its real eigenvalues come out exactly real."""
    H = real_space_hamiltonian(_fit_chain(model, n_sites))
    if not np.any(H.imag):
        H = H.real
    return np.linalg.eigvals(H).astype(complex, copy=False)


def _obc_fit_gbz(model: LatticeModel, n_sites: int):
    w = _chain_eigenvalues(model, n_sites)
    coeffs = charpoly_coefficients(model, w)
    roots = _roots_many(coeffs)
    i, j = _middle_pair_indices(roots.shape[1])
    b2, b3 = roots[:, i], roots[:, j]
    # a bulk eigenvalue's middle roots agree in modulus to 1%
    ok = np.abs(np.abs(b2) - np.abs(b3)) < 1e-2 * np.abs(b2)
    # second pass: drop anything sitting inside the bulk line gap (edge modes)
    if np.any(ok):
        half_gap = np.min(np.abs(w[ok].real))
        tol = 1e-3 * max(np.max(np.abs(w)), 1e-300)
        ok &= np.abs(w.real) >= half_gap - tol
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


def _charpoly_gbz(model: LatticeModel, n_theta: int = 120):
    """Continuum GBZ by radial bisection of the middle-root-pair modulus
    balance along rays in the beta plane, one bracket per sign change of
    each (ray, E^2 branch) on 60 radii from 0.02 to 50.

    Returns the accepted points (betas, energies) and the number of
    bisected brackets, of which the acceptance filter may reject some.  A
    chiral point is reported twice, as (beta, E) and (beta, -E), and a
    bracket counts once per sign."""
    n_branch = _branch_energies(model, 1.0).shape[1]
    # one row per (ray, branch), so zeros come ordered by ray, branch, radius
    phases = np.repeat(np.exp(1j * np.linspace(0, 2 * np.pi, n_theta, endpoint=False)),
                       n_branch)
    branches = np.tile(np.arange(n_branch), n_theta)
    k, r = _ray_zeros(model, phases, branches, np.geomspace(0.02, 50.0, 60))
    betas = r * phases[k]
    energies = _branch_energies(model, betas)[np.arange(len(betas)), branches[k]]
    roots = _roots_many(charpoly_coefficients(model, energies))
    i, j = _middle_pair_indices(roots.shape[1])
    # keep only genuine balance points where beta is itself a middle root
    # (discards band-crossing artifacts)
    keep = ((np.abs(np.abs(roots[:, i]) - np.abs(roots[:, j])) < 1e-6 * r)
            & (np.minimum(np.abs(roots[:, i] - betas), np.abs(roots[:, j] - betas))
               < 1e-5 * r))
    if model.family is Family.HATANO_NELSON:
        return betas[keep], energies[keep], len(r)
    e = energies[keep]
    return np.repeat(betas[keep], 2), np.stack([e, -e], axis=1).ravel(), 2 * len(r)


def gbz_compute(model: LatticeModel, method=GbzMethod.OBC_FIT, n_sites: int = 160,
                cross_check: bool = False, cross_tol: float = 1e-3) -> GBZ:
    """Compute the GBZ of a model by the requested method.

    With ``cross_check`` the other method is computed as well and every point
    must have a counterpart within ``cross_tol`` (relative); disagreement
    raises :class:`CrossValidationError` instead of being silently resolved.
    """
    method = GbzMethod(method)
    s = model.sites_per_cell
    if n_sites % s != 0 or n_sites < 4 * s:
        raise ValidationError(f"n_sites must be a multiple of {s} and >= {4 * s}")
    if method is GbzMethod.OBC_FIT:
        betas, energies, chain_eigenvalues = _obc_fit_gbz(model, n_sites)
        brackets = None
    else:
        betas, energies, found = _charpoly_gbz(model)
        chain_eigenvalues = None
        brackets = (found - len(betas), found)
    if len(betas) == 0:
        raise ValidationError("no GBZ points found")
    band_pair = _band_pairs(model, betas, energies)
    out = GBZ(betas, energies, band_pair, method, n_sites, model, chain_eigenvalues,
              brackets)
    if cross_check:
        if method is not GbzMethod.OBC_FIT:
            ref = gbz_compute(model, GbzMethod.OBC_FIT, n_sites)
        else:
            ref = out
        rng = np.random.default_rng(0)
        idx = rng.choice(len(ref.betas), size=min(48, len(ref.betas)), replace=False)
        b = ref.betas[idx]
        r = _radial_refine_many(model, b, ref.energies[idx])
        found = ~np.isnan(r)
        errs = np.abs(r[found] - np.abs(b[found])) / np.abs(b[found])
        counted = f"({int(found.sum())} of {len(idx)} sampled points bracketed)"
        if len(errs) == 0:
            raise CrossValidationError(
                f"GBZ cross-check found no comparable points {counted}")
        # compare the bulk of the cloud (90th percentile): isolated points at
        # cusps of the GBZ carry O(1/N) finite-size error well above the rest
        q90 = float(np.quantile(errs, 0.9))
        if q90 > cross_tol:
            raise CrossValidationError(
                f"GBZ methods disagree: 90th-percentile radial mismatch "
                f"{q90:.3g} (max {np.max(errs):.3g}) exceeds {cross_tol:g} {counted}")
    return out


def _radial_refine_many(model: LatticeModel, betas: np.ndarray,
                        energies: np.ndarray) -> np.ndarray:
    """Continuum GBZ radius on the ray through each ``beta``, for the E^2
    branch whose E^2 at that beta lies nearest the paired E^2; NaN where no
    balance zero of that branch is bracketed in [0.8, 1.25] |beta|."""
    E2 = _branch_energies(model, betas) ** 2
    branch = np.argmin(np.abs(E2 - energies[:, None] ** 2), axis=1)
    k, r = _ray_zeros(model, np.exp(1j * np.angle(betas)), branch,
                      np.abs(betas)[:, None] * [0.8, 1.25])
    out = np.full(len(betas), np.nan)
    out[k] = r
    return out


def _real_axis_crossing(model: LatticeModel, r_lo: float, r_hi: float) -> float | None:
    """Radius of the first balance zero on the negative real axis between
    ``r_lo`` and ``r_hi``, or None when no sign change is bracketed or the
    zero does not balance every E^2 branch.

    There the E^2 branches are complex conjugates (the symmetry quadruple
    {+-a +- ib}), so their balances agree and branch 0 is bisected alone."""
    _, r = _ray_zeros(model, np.array([-1.0 + 0j]), np.array([0]),
                      np.geomspace(r_lo, r_hi, 80))
    if len(r) == 0:
        return None
    n_branch = _branch_energies(model, 1.0).shape[1]
    g = _balance(model, np.full(n_branch, -r[0]), np.arange(n_branch))
    # a genuine touching point balances every branch at once
    if np.max(np.abs(g)) > 1e-6:
        return None
    return float(r[0])


def gbz_touching_point(gbz: GBZ, tol: float | None = None) -> complex:
    """The beta where the two band-pair components meet.

    The nearest cross-component point pair locates the meeting region; the
    result is then refined on the negative real axis, where the symmetry
    quadruple forces both components through the same radius.  Components
    that never approach each other raise :class:`NoTouchingPointError`.
    """
    c0, c1 = gbz.component(0), gbz.component(1)
    if len(c0) == 0 or len(c1) == 0:
        raise NoTouchingPointError("GBZ does not have two band-pair components")
    scale = np.max(np.abs(gbz.betas))
    if tol is None:
        # the sampled components meet only up to the finite point spacing
        tol = max(4 * np.pi / len(gbz.betas) * 10, 0.05)
    d = np.abs(c0[:, None] - c1[None, :])
    i, j = np.unravel_index(np.argmin(d), d.shape)
    if d[i, j] > tol * scale:
        raise NoTouchingPointError(
            f"components stay {d[i, j] / scale:.3g} (relative) apart, tol {tol:g}")
    guess = (c0[i] + c1[j]) / 2
    r0 = abs(guess)
    refined = _real_axis_crossing(gbz.model, r0 / 3, r0 * 3)
    if refined is not None:
        return complex(-refined)
    return complex(guess)


def skin_direction(gbz: GBZ, tol: float = 1e-3) -> SkinDirection:
    """Mean of log|beta| over the GBZ decides the bias: negative means the
    open-chain eigenstates pile up at the left boundary."""
    m = gbz.mean_log_modulus
    if m < -tol:
        d = Direction.LEFT
    elif m > tol:
        d = Direction.RIGHT
    else:
        d = Direction.NONE
    return SkinDirection(d, m)


def gap_report(model: LatticeModel, gbz_sites: int = 160,
               gbz: GBZ | None = None) -> GapReport:
    """Bulk line-gap width, in-gap mode count, and spectrum-realness flags.

    The gap is measured on the non-Bloch bulk bands sampled over the GBZ
    (which excludes topological in-gap edge modes by construction), while
    realness is judged on the OBC eigenvalues of the model itself with the
    uniform damping removed.  When ``gbz`` was fitted on that same chain,
    its eigenvalues are reused instead of diagonalizing the chain again.
    """
    chain = _fit_chain(model, model.n_sites)
    if (gbz is not None and gbz.chain_eigenvalues is not None
            and _fit_chain(gbz.model, gbz.n_sites_used) == chain):
        eigs0 = gbz.chain_eigenvalues
    else:
        # only eigenvalues are needed here; skip the eigenvector conditioning
        eigs0 = _chain_eigenvalues(model, model.n_sites)
    radius = max(float(np.max(np.abs(eigs0))), 1e-300)
    tol_im, tol_gap = 1e-6 * radius, 1e-3 * radius
    g = gbz if gbz is not None else gbz_compute(model, GbzMethod.OBC_FIT,
                                                n_sites=gbz_sites)
    re_abs = np.sort(np.abs(g.energies.real))
    e0 = re_abs[0]
    # a band edge reaching Re E = 0 is resolved only down to the local level
    # spacing of the finite fitting chain
    n_edge = min(8, len(re_abs) - 1)
    spacing = float(np.median(np.diff(re_abs[:n_edge + 1]))) if n_edge >= 1 else 0.0
    gapless = e0 < max(tol_gap, 4 * spacing)
    width = 0.0 if gapless else 2 * e0
    if width > 0:
        in_gap = int(np.sum(np.abs(eigs0.real) < width / 2 - tol_gap))
    else:
        in_gap = 0
    max_im = float(np.max(np.abs(eigs0.imag)))
    return GapReport(width, in_gap, bool(max_im < tol_im), max_im)
