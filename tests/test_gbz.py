import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, linear_sum_assignment
from scipy.signal import convolve2d

from nhskin import (CrossValidationError, DegreeCollapseError, Direction,
                    Family, GbzMethod, NoTouchingPointError, SymmetryOp,
                    ValidationError, apply_symmetry, chain_eigenvalues, charpoly_beta_roots,
                    gap_report, gbz_compute, gbz_touching_point, make_model,
                    non_bloch_hamiltonian, real_space_hamiltonian, skin_direction)
from nhskin import gbz as gbz_mod
from nhskin.gbz import (_agbz_table, _balance, _beta_t, _branch_energies, _cell_energy_sets,
                        _charpoly_gbz, _charpoly_table, _gauge_radius, _horner,
                        _middle_roots, _radial_refine_many, _roots_many,
                        _touching_point_in_regime, _touching_point_scan,
                        charpoly_coefficients)
from nhskin.model import non_bloch_hamiltonians

hopping = st.floats(min_value=0.2, max_value=10.0,
                    allow_nan=False, allow_infinity=False)


def test_charpoly_roots_solve_the_non_bloch_equation(model_a):
    E = 5.0 + 1.3j
    roots = charpoly_beta_roots(model_a.with_(gamma=0.0), E)
    assert len(roots) == 4
    for beta in roots:
        H = non_bloch_hamiltonian(model_a, beta)
        assert abs(np.linalg.det(H - E * np.eye(4))) < 1e-8 * max(abs(E), 1) ** 4
    mods = np.abs(roots)
    assert np.all(np.diff(mods) >= -1e-12)   # ascending modulus


def test_hatano_nelson_gbz_is_circle():
    t1, t2 = 2.5, 0.9
    m = make_model(Family.HATANO_NELSON, t1, t2, 1, 1, n_cells=40)
    g = gbz_compute(m, n_sites=40)
    r = np.sqrt(t2 / t1)
    assert np.max(np.abs(np.abs(g.betas) - r)) < 1e-6


def test_hermitian_gbz_on_unit_circle(model_hermitian):
    g = gbz_compute(model_hermitian.with_(n_cells=40))
    assert np.max(np.abs(np.abs(g.betas) - 1.0)) < 1e-8


def test_phase_a_gbz_inside_unit_circle(model_a):
    g = gbz_compute(model_a.with_(gamma=0.0, n_cells=40))
    assert np.max(np.abs(g.betas)) < 1.0


def test_gbz_has_two_band_pair_components(model_a):
    g = gbz_compute(model_a.with_(gamma=0.0, n_cells=40))
    assert set(np.unique(g.band_pair)) == {0, 1}
    assert len(g.component(0)) > 10 and len(g.component(1)) > 10


def _band_pairs_by_distance(model, betas, energies):
    """Reference labels: sort the cell energies of H(beta) by |Re E|, and
    put a point in component 1 when its energy is nearer one of the two
    largest than one of the two smallest; single-pair families are all 0."""
    if model.sites_per_cell < 4:
        return np.zeros(len(betas), dtype=int)
    w = _cell_energy_sets(model, betas)
    w = np.take_along_axis(w, np.argsort(np.abs(w.real), axis=1), axis=1)
    d_small = np.min(np.abs(w[:, :2] - energies[:, None]), axis=1)
    d_large = np.min(np.abs(w[:, 2:] - energies[:, None]), axis=1)
    return (d_large < d_small).astype(int)


@pytest.mark.parametrize("method", list(GbzMethod))
def test_band_pair_labels_match_the_distance_rule(model_a, model_b, model_c, method):
    """A point is component 1 exactly when its energy is nearer the pair of
    larger |Re E| at its beta: on the Fig. 4 models, a Hatano-Nelson and an
    NH-SSH chain, and 30 random double chains."""
    single = [make_model(Family.HATANO_NELSON, 2.5, 0.9, 1, 1),
              make_model(Family.NH_SSH, 1.0, 2.0, 1, 1, nhssh_delta=1.5)]
    rng = np.random.default_rng(2019)
    models = [model_a, model_b, model_c, *single,
              *(make_model(Family.GT, *rng.uniform(0.2, 6.0, 4)) for _ in range(30))]
    labels = []
    for m in models:
        g = gbz_compute(m, method)
        labels.append(g.band_pair)
        np.testing.assert_array_equal(
            g.band_pair, _band_pairs_by_distance(m, g.betas, g.energies))
    assert all(set(lab) == {0, 1} for lab in labels[:3])
    assert not np.any(np.concatenate(labels[3:5]))


def test_touching_point_on_negative_real_axis(model_a, model_b, model_c):
    for m in (model_a, model_b, model_c):
        g = gbz_compute(m.with_(gamma=0.0, n_cells=40))
        tp = gbz_touching_point(g)
        assert abs(tp.imag) < 1e-3
        assert tp.real < 0


def test_touching_point_missing_for_hatano_nelson():
    m = make_model(Family.HATANO_NELSON, 2, 1, 1, 1, n_cells=40)
    g = gbz_compute(m, n_sites=40)
    with pytest.raises(NoTouchingPointError):
        gbz_touching_point(g)


def test_touching_point_without_a_balance_zero_raises(model_a):
    # components that meet 20x farther out than the real crossing leave no
    # sign change within a factor 3 of their radius: no midpoint fallback
    g = gbz_compute(model_a.with_(gamma=0.0, n_cells=40))
    with pytest.raises(NoTouchingPointError, match="no balance zero"):
        gbz_touching_point(dataclasses.replace(g, betas=20 * g.betas))


def _pair_radius(g):
    """Radius r0 of the nearest cross-component point pair, around which
    the touching point is looked for."""
    c0, c1 = g.component(0), g.component(1)
    d = np.abs(c0[:, None] - c1[None, :])
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return abs(c0[i] + c1[j]) / 2


def _brentq_touching_point(g):
    """The touching point as brentq refines it: the same nearest
    cross-component pair and the same 80-radius scan for a sign change."""
    r0 = _pair_radius(g)
    rs = np.geomspace(r0 / 3, r0 * 3, 80)
    bal = _balance(g.model, -rs, 0)
    k = np.flatnonzero(np.sign(bal[:-1]) * np.sign(bal[1:]) < 0)[0]
    return -brentq(lambda x: _balance(g.model, np.array([-x]), 0)[0], rs[k], rs[k + 1])


def _assert_matches_brentq(g):
    # near the touching point the middle roots nearly coincide, so the
    # balance itself is resolved only to ~1e-9 relative there: past that
    # both refinements land on a rounding-noise sign change
    tp, ref = gbz_touching_point(g), _brentq_touching_point(g)
    assert tp.imag == 0
    assert abs(tp.real - ref) <= 3e-9 * abs(ref)


@pytest.mark.parametrize("method", ["obc_fit", "charpoly"])
def test_touching_point_matches_brentq_on_the_presets(model_a, model_b, model_c, method):
    for m in (model_a, model_b, model_c):
        _assert_matches_brentq(gbz_compute(m.with_(gamma=0.0), method))


def test_touching_point_matches_brentq_on_random_chains():
    rng = np.random.default_rng(5)
    for _ in range(12):
        _assert_matches_brentq(gbz_compute(
            make_model(Family.GT, *rng.uniform(0.5, 15.0, 4)), "charpoly"))


def test_touching_point_refines_a_smooth_balance_to_brentq_tolerance(model_a, monkeypatch):
    """With the balance replaced by log(|beta| / r) the scan's subdivision
    must stop within brentq's xtol (2e-12) of r, after one scan and six
    65-point calls: a scalar bisection would take some 40."""
    g = gbz_compute(model_a.with_(gamma=0.0))
    r = abs(gbz_touching_point(g)) * (1 + 1e-3 * np.pi)
    calls = []

    def smooth(model, betas, branch):
        calls.append(len(betas))
        return np.log(np.abs(betas) / r)
    monkeypatch.setattr(gbz_mod, "_balance", smooth)
    assert abs(_touching_point_scan(g.model, _pair_radius(g)) + r) <= 2e-12
    assert calls == [80] + [65] * 6


def test_methods_cross_validate(model_b):
    # passes when the fit and the characteristic-polynomial continuum agree
    gbz_compute(model_b.with_(gamma=0.0, n_cells=40), cross_check=True)


def test_charpoly_method_matches_fit_radii(model_b):
    m = model_b.with_(gamma=0.0, n_cells=40)
    fit = gbz_compute(m, GbzMethod.OBC_FIT)
    cp = gbz_compute(m, GbzMethod.CHARPOLY)
    # every characteristic-polynomial point has a nearby fitted point
    d = np.abs(cp.betas[:, None] - fit.betas[None, :]).min(axis=1)
    assert np.median(d) < 0.05 * np.max(np.abs(fit.betas))


def _charpoly_gbz_per_ray(model, thetas, r_range=(0.02, 50.0), n_r=60):
    """Reference: scalar bisection of each (ray, E^2 branch) bracket in turn
    along the rays of angles ``thetas``; an accepted chiral point is
    reported as (beta, E) and (beta, -E)."""
    def balance(betas):
        Es = _branch_energies(model, betas)
        a, b = _middle_roots(charpoly_coefficients(model, Es.ravel()))
        g = np.log(np.abs(a) * np.abs(b) / np.abs(np.repeat(betas, Es.shape[1])) ** 2)
        return g.reshape(Es.shape), Es

    chiral = model.family is not Family.HATANO_NELSON
    rs = np.geomspace(r_range[0], r_range[1], n_r)
    betas_out, energies_out = [], []
    for th in thetas:
        g, _ = balance(rs * np.exp(1j * th))
        for branch in range(g.shape[1]):
            gb = g[:, branch]
            for idx in np.nonzero(np.sign(gb[:-1]) * np.sign(gb[1:]) < 0)[0]:
                lo, hi, glo = rs[idx], rs[idx + 1], gb[idx]
                for _ in range(60):
                    mid = np.sqrt(lo * hi)
                    gm = balance(np.array([mid * np.exp(1j * th)]))[0][0, branch]
                    if gm == 0.0:
                        lo = hi = mid
                        break
                    if np.sign(gm) == np.sign(glo):
                        lo, glo = mid, gm
                    else:
                        hi = mid
                r = np.sqrt(lo * hi)
                beta = r * np.exp(1j * th)
                E = balance(np.array([beta]))[1][0, branch]
                a, b = (x[0] for x in _middle_roots(charpoly_coefficients(model, E)))
                if (abs(abs(a) - abs(b)) < 1e-6 * r
                        and min(abs(a - beta), abs(b - beta)) < 1e-5 * r):
                    for e in ([E, -E] if chiral else [E]):
                        betas_out.append(beta)
                        energies_out.append(e)
    return np.array(betas_out, dtype=complex), np.array(energies_out, dtype=complex)


@pytest.mark.parametrize("family,hops", [
    (Family.GT, (3.2, 6.7, 22.6, 8.4)),         # phase B
    (Family.HATANO_NELSON, (2.5, 0.9, 1, 1)),
    (Family.NH_SSH, (1.0, 2.0, 1, 1)),
])
def test_batched_charpoly_gbz_matches_per_ray_bisection(family, hops):
    m = make_model(family, *hops, n_cells=10)
    betas, energies = _charpoly_gbz(m, n_theta=6)
    assert len(betas) > 0
    # every aGBZ point sits on a balance zero of its own ray
    ref_b, ref_e = _charpoly_gbz_per_ray(m, np.unique(np.angle(betas)))
    d = np.abs(ref_b[:, None] - betas) / np.abs(betas)
    assert d.min(axis=0).max() <= 1e-10
    np.testing.assert_allclose(ref_e[np.argmin(d, axis=0)] ** 2, energies ** 2, rtol=1e-9)
    # and the cross-check returns the radius of every zero on rays off the
    # real axis (there the middle pair is a double root, w = 1)
    ref_b, ref_e = _charpoly_gbz_per_ray(m, 2 * np.pi * (np.arange(8) + 0.5) / 8)
    r = _radial_refine_many(m, ref_b, ref_e)
    assert np.max(np.abs(r - np.abs(ref_b)) / np.abs(ref_b)) <= 1e-10


def _point_distance(b1, e1, b2, e2):
    """Distance of every point (b1, e1) from every point (b2, e2), relative
    to the largest |beta| and |E| of the second set."""
    return (np.abs(b1[:, None] - b2) / np.max(np.abs(b2))
            + np.abs(e1[:, None] - e2) / np.max(np.abs(e2)))


@pytest.mark.parametrize("family,hops", [
    (Family.GT, (2.1, 14.9, 11.2, 3.7)),    # fig4a
    (Family.GT, (3.2, 6.7, 22.6, 8.4)),     # fig4e
    (Family.GT, (2.1, 14.9, 12.6, 8.9)),    # fig4i
    (Family.NH_SSH, (1.0, 2.0, 1, 1)),
])
def test_charpoly_points_are_distinct_and_come_with_minus_e(family, hops):
    g = gbz_compute(make_model(family, *hops), GbzMethod.CHARPOLY)
    b, e = g.betas, g.energies
    # every beta carries both E and -E
    assert _point_distance(b, -e, b, e).min(axis=1).max() <= 1e-12
    # no point twice.  The real axis is left out: both GBZ components pass
    # through the touching point, so both E^2 branches report it, with the
    # same degenerate energy, split only by rounding (~1e-10).
    off = np.abs(b.imag) > 1e-9 * np.abs(b)
    d = _point_distance(b[off], e[off], b[off], e[off])
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-9


@pytest.mark.parametrize("phase,n_sites", [
    ("model_a", 160), ("model_b", 160), ("model_c", 160), ("model_a", 320),
    pytest.param("model_a", 640, marks=pytest.mark.xfail(reason=(
        "the obc_fit GBZ loses coverage on long non-normal chains: with the gauge "
        "radius |beta_T| mean log|beta| still drifts from the continuum by -0.16 at "
        "640 sites on fig4a, whose GBZ radii span 0.36-0.68"))),
])
def test_obc_fit_mean_log_modulus_stays_near_the_continuum(phase, n_sites, request):
    m = request.getfixturevalue(phase).with_(gamma=0.0)
    fit = gbz_compute(m, n_sites=n_sites)
    continuum = gbz_compute(m, GbzMethod.CHARPOLY)
    # -2.9e-3, +1.6e-3 and +6.4e-3 on fig4a/e/i at 160 sites; -6.7e-3 on
    # fig4a at 320 with OpenBLAS on 1 thread (-3.0e-3 on 2 threads)
    assert abs(fit.mean_log_modulus - continuum.mean_log_modulus) < 0.01


def test_cross_check_reports_how_many_points_were_bracketed(model_b, monkeypatch):
    m = model_b.with_(gamma=0.0, n_cells=40)
    monkeypatch.setattr(gbz_mod, "_radial_refine_many",
                        lambda model, betas, energies: np.full(len(betas), np.nan))
    with pytest.raises(CrossValidationError,
                       match=r"no comparable points \(0 of 48 sampled points compared\)"):
        gbz_compute(m, cross_check=True)

    def half_off(model, betas, energies):
        r = 1.01 * np.abs(betas)
        r[::2] = np.nan
        return r
    monkeypatch.setattr(gbz_mod, "_radial_refine_many", half_off)
    with pytest.raises(CrossValidationError,
                       match=r"mismatch 0\.01 .*\(24 of 48 sampled points compared\)"):
        gbz_compute(m, cross_check=True)


@pytest.mark.parametrize("n_sites", [80, 160, 320])
@pytest.mark.parametrize("phase", ["model_a", "model_b", "model_c"])
def test_cross_check_passes_as_the_chain_grows(phase, n_sites, request):
    # passing at each size, not a monotone fall: the 90th-percentile error
    # of one middle root is 1.8e-3 at 80 sites and 3.4e-3 at 160 on fig4a
    gbz_compute(request.getfixturevalue(phase), n_sites=n_sites, cross_check=True)


def test_balanced_radius_beats_both_middle_roots(model_a):
    # at finite N the middle roots b2, b3 of a chain eigenvalue straddle the
    # continuum GBZ; obc_fit reports sqrt(|b2| |b3|) instead
    m = model_a.with_(gamma=0.0, n_cells=40)
    w = np.linalg.eigvals(real_space_hamiltonian(m))
    roots = _roots_many(charpoly_coefficients(m, w))
    b2, b3 = roots[:, 1], roots[:, 2]
    paired = np.nonzero(np.abs(np.abs(b2) - np.abs(b3)) < 1e-2 * np.abs(b2))[0]
    k = np.random.default_rng(0).choice(paired, 48, replace=False)
    balanced = np.sqrt(np.abs(b2[k]) * np.abs(b3[k]))
    for member in (b2[k], b3[k]):
        ref = _radial_refine_many(m, member, w[k])
        found = ~np.isnan(ref)
        assert found.sum() >= 40

        def q90(r):
            return np.quantile(np.abs(r[found] - ref[found]) / ref[found], 0.9)
        assert q90(balanced) < 0.5 * q90(np.abs(member))
    g = gbz_compute(model_a.with_(gamma=0.0))
    # every reported (beta', E') is still an exact root pair
    s = np.linalg.svd(non_bloch_hamiltonians(m, g.betas) - g.energies[:, None, None]
                      * np.eye(4), compute_uv=False)
    assert np.max(s[:, -1] / s[:, 0]) < 1e-12


FIG4 = [(2.1, 14.9, 11.2, 3.7),    # fig4a
        (3.2, 6.7, 22.6, 8.4),     # fig4e
        (2.1, 14.9, 12.6, 8.9)]    # fig4i
FIG4_HOPS = pytest.mark.parametrize("hops", FIG4)


@FIG4_HOPS
def test_radial_refine_returns_the_charpoly_points_own_radii(hops):
    # the cross-check solves the aGBZ at the phase difference of each
    # charpoly point's own middle root pair, so every point is its own reference
    m = make_model(Family.GT, *hops)
    g = gbz_compute(m, GbzMethod.CHARPOLY)
    r = _radial_refine_many(m, g.betas, g.energies)
    assert not np.any(np.isnan(r))
    assert np.max(np.abs(r - np.abs(g.betas)) / np.abs(g.betas)) <= 1e-9


@FIG4_HOPS
def test_branch_balances_agree_on_the_negative_real_axis(hops):
    # there the two E^2 branches are complex conjugates, so the touching
    # point can refine branch 0 alone
    m = make_model(Family.GT, *hops)
    betas = -np.geomspace(0.02, 50, 400)
    assert np.max(np.abs(_balance(m, betas, 0) - _balance(m, betas, 1))) <= 1e-14


@pytest.mark.parametrize("hops,n_theta", [
    ((3.2, 6.7, 22.6, 8.4), 189),      # fig4e on a finer grid
    ((2.886, 0.269, 6.528, 7.255), 60),
    ((0.364, 5.037, 9.722, 2.998), 60),
    ((0.365, 3.174, 9.99, 2.769), 60),
])
def test_charpoly_gbz_drops_spurious_agbz_roots(hops, n_theta):
    # near w = 1 the leading and trailing beta-coefficients of the resultant
    # vanish like (w - 1)^4, so some of its roots run off to |beta| ~ 1e-6 or
    # 1e6, where the characteristic polynomial at their energy loses degree
    betas, energies = _charpoly_gbz(make_model(Family.GT, *hops), n_theta)
    # two GBZ components, each met twice per w, each point with +-E
    assert len(betas) == 8 * n_theta


def test_skin_direction_examples():
    left = make_model(Family.GT, 1, 2, 4, 1, n_cells=30)
    g = gbz_compute(left, n_sites=120)
    assert skin_direction(g).direction is Direction.LEFT
    right = apply_symmetry(left, SymmetryOp.MX)
    g2 = gbz_compute(right, n_sites=120)
    assert skin_direction(g2).direction is Direction.RIGHT


def test_mx_reverses_mean_log_modulus():
    m = make_model(Family.GT, 1, 2, 4, 1, n_cells=30)
    g = gbz_compute(m, n_sites=120)
    gx = gbz_compute(apply_symmetry(m, SymmetryOp.MX), n_sites=120)
    a, b = g.mean_log_modulus, gx.mean_log_modulus
    # reciprocal GBZs: the means are opposite in sign and similar in size
    assert a < 0 < b
    assert abs(a + b) < 0.25 * max(abs(a), abs(b))


def test_gap_report_phase_a(model_a):
    m = model_a.with_(gamma=0.0)
    rep = gap_report(gbz_compute(m), chain_eigenvalues(m))
    assert rep.line_gap_width > 0
    assert not rep.is_real_spectrum
    assert rep.in_gap_mode_count == 2
    # obc_fit drops the two in-gap edge modes by its middle-pair test alone:
    # their middle roots differ in modulus by far more than 1%
    w = np.linalg.eigvals(real_space_hamiltonian(m))
    edge = w[np.abs(w.real) < rep.line_gap_width / 2]
    assert len(edge) == 2
    roots = _roots_many(charpoly_coefficients(m, edge))
    b2, b3 = np.abs(roots[:, 1]), np.abs(roots[:, 2])
    assert np.all(np.abs(b2 - b3) >= 1e-2 * b2)


def test_gap_report_phase_b_gapless(model_b):
    m = model_b.with_(gamma=0.0)
    rep = gap_report(gbz_compute(m), chain_eigenvalues(m))
    assert rep.line_gap_width == 0.0
    assert not rep.is_real_spectrum


def test_gap_report_phase_c_real(model_c):
    m = model_c.with_(gamma=0.0)
    rep = gap_report(gbz_compute(m), chain_eigenvalues(m))
    assert rep.is_real_spectrum
    assert rep.max_abs_im == 0.0   # real arithmetic keeps real eigenvalues real
    assert rep.line_gap_width > 0


def test_gap_report_hermitian_matches_bloch_oracle():
    m = make_model(Family.GT, 0.5, 1.0, 0.7, 0.7, n_cells=40)
    rep = gap_report(gbz_compute(m), chain_eigenvalues(m))
    ks = np.linspace(-np.pi, np.pi, 2001)
    from nhskin import bloch_hamiltonian
    e0 = min(np.min(np.abs(np.linalg.eigvalsh(bloch_hamiltonian(m, k))))
             for k in ks)
    # the sampled GBZ resolves the band edge only to its point spacing
    assert rep.line_gap_width == pytest.approx(2 * e0, rel=2e-2)


def test_degree_collapse_detected():
    m = make_model(Family.NH_SSH, 1.0, 2.0, 1, 1, n_cells=10, nhssh_delta=1.0)
    with pytest.raises(DegreeCollapseError):
        charpoly_beta_roots(m, 0.7)


def test_n_sites_validation(model_a):
    with pytest.raises(ValidationError):
        gbz_compute(model_a, n_sites=10)   # not a multiple of 4


@given(t3=hopping, t4=hopping)
@settings(max_examples=10, deadline=None)
def test_direction_rule_property(t3, t4):
    if abs(t3 - t4) < 0.05:
        return
    m = make_model(Family.GT, 1, 2, t3, t4, n_cells=30)
    d = skin_direction(gbz_compute(m, n_sites=120)).direction
    assert d is (Direction.LEFT if t3 > t4 else Direction.RIGHT)


FAMILIES = [(Family.GT, (2.1, 14.9, 11.2, 3.7)),
            (Family.HATANO_NELSON, (2.5, 0.9, 1, 1)),
            (Family.NH_SSH, (1.0, 2.0, 1, 1))]


@pytest.mark.parametrize("family,hops", FAMILIES)
def test_charpoly_table_matches_determinant(family, hops, rng):
    m = make_model(family, *hops)
    c = _charpoly_table(m)
    p_inv = (c.shape[0] - 1) // 2
    s = m.sites_per_cell
    for _ in range(100):
        beta = 10 ** rng.uniform(-1.5, 1.5) * np.exp(2j * np.pi * rng.uniform())
        E = 30 * complex(rng.normal(), rng.normal())
        det = beta ** p_inv * np.linalg.det(non_bloch_hamiltonian(m, beta) - E * np.eye(s))
        terms = c * beta ** np.arange(c.shape[0])[:, None] * E ** np.arange(c.shape[1])
        assert abs(det - terms.sum()) <= 1e-13 * np.abs(terms).sum()
        by_power = c * E ** np.arange(c.shape[1])
        np.testing.assert_allclose(charpoly_coefficients(m, E)[0], by_power.sum(axis=1),
                                   rtol=0, atol=1e-13 * np.abs(by_power).sum())


def _matched_error(a, b):
    """Largest distance between the multisets ``a`` and ``b`` under the
    optimal one-to-one matching."""
    d = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(d)
    return d[rows, cols].max()


@pytest.mark.parametrize("family,hops", FAMILIES)
def test_cell_energy_sets_match_lapack_eigenvalues(family, hops, rng):
    m = make_model(family, *hops)
    betas = np.concatenate([
        10 ** rng.uniform(-2, 2, 200) * np.exp(2j * np.pi * rng.uniform(size=200)),
        np.exp(2j * np.pi * rng.uniform(size=50)),   # |beta| = 1
        [-0.450329]])                                # fig4a touching point
    closed = _cell_energy_sets(m, betas)
    lapack = np.linalg.eigvals(non_bloch_hamiltonians(m, betas))
    assert closed.shape == lapack.shape
    for a, b in zip(closed, lapack):
        assert _matched_error(a, b) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("family,hops", FAMILIES)
def test_branch_energies_square_to_lapack_eigenvalues(family, hops, rng):
    # each E^2 branch holds the two eigenvalues +-E of a chiral family
    m = make_model(family, *hops)
    betas = np.concatenate([
        10 ** rng.uniform(-2, 2, 200) * np.exp(2j * np.pi * rng.uniform(size=200)),
        np.exp(2j * np.pi * rng.uniform(size=50)),   # |beta| = 1
        [-0.450329]])                                # fig4a touching point
    e = _branch_energies(m, betas)
    lapack = np.linalg.eigvals(non_bloch_hamiltonians(m, betas)) ** 2
    assert e.shape == (len(betas), {Family.GT: 2, Family.NH_SSH: 1,
                                    Family.HATANO_NELSON: 1}[family])
    squares = np.repeat(e ** 2, lapack.shape[1] // e.shape[1], axis=1)
    for a, b in zip(squares, lapack):
        assert _matched_error(a, b) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("family,hops,delta,solves", [
    # fig4a and NH-SSH have edge modes near E = 0, so some E^2 = lambda is
    # below sqrt(eps) max|lambda| and the full chain is solved after C D
    (Family.GT, (2.1, 14.9, 11.2, 3.7), None, [20, 40]),
    (Family.HATANO_NELSON, (2.5, 0.9, 1, 1), None, [20]),
    (Family.NH_SSH, (1.0, 2.0, 1, 1), None, [20, 40]),
    (Family.GT, (3.2, 6.7, 22.6, 8.4), None, [20]),   # fig4e: resolved by C D alone
    # |delta| > t1: the GBZ radius is sqrt(|(t1 - delta) / (t1 + delta)|)
    (Family.NH_SSH, (1.0, 2.0, 1, 1), 1.5, [20, 40]),
    # delta = t1: a one-way bond, no gauge (r = 1)
    (Family.NH_SSH, (1.0, 2.0, 1, 1), 1.0, [20, 40]),
], ids=["GT-hops0", "HatanoNelson-hops1", "NHSSH-hops2", "GT-hops3",
        "NHSSH-delta-above-t1", "NHSSH-delta-t1"])
def test_chain_eigenvalues_in_real_arithmetic_match_complex(family, hops, delta, solves,
                                                            monkeypatch):
    # 40 sites: longer non-normal chains amplify rounding far beyond 1e-10,
    # so two solvers of the same chain no longer agree to that level
    m = make_model(family, *hops, nhssh_delta=delta)
    m = m.with_(n_cells=40 // m.sites_per_cell)
    eigvals = np.linalg.eigvals
    solved = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(a) or eigvals(a))
    w = chain_eigenvalues(m)
    assert [a.shape for a in solved] == [(n, n) for n in solves]
    assert all(np.isrealobj(a) for a in solved)
    ref = eigvals(real_space_hamiltonian(m))
    assert w.dtype == complex
    assert _matched_error(w, ref) <= 1e-10 * np.max(np.abs(ref))
    # the uniform damping is stripped: a damped model gives the same chain
    assert np.array_equal(chain_eigenvalues(m.with_(gamma=1.5)), w)


@pytest.mark.parametrize("n,solves", [(40, [(20, 20)]), (41, [(41, 41)])])
def test_hatano_nelson_chain_eigenvalues_match_the_exact_spectrum(n, solves, monkeypatch):
    # E_j = 2 sqrt(t1 t2) cos(j pi / (N + 1)); an odd chain has one more site
    # on A than on B, so it is solved at full size
    t1, t2 = 2.5, 0.9
    m = make_model(Family.HATANO_NELSON, t1, t2, 1, 1, n_cells=n)
    eigvals = np.linalg.eigvals
    solved = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(a.shape) or eigvals(a))
    w = chain_eigenvalues(m)
    assert solved == solves
    exact = 2 * np.sqrt(t1 * t2) * np.cos(np.arange(1, n + 1) * np.pi / (n + 1))
    assert _matched_error(w, exact) <= 1e-12 * np.max(np.abs(exact))


def test_half_size_solve_matches_the_gauged_chain_at_obc_fit_length(monkeypatch):
    # fig4e at obc_fit's 160 sites: the ungauged chain's own eigvals are off
    # by ~6e-8 max|E| there, so the reference is S^-1 H S with S = diag(r^x)
    # applied elementwise; both lie within 2e-11 of 40-digit mpmath
    m = make_model(Family.GT, 3.2, 6.7, 22.6, 8.4, n_cells=40)
    eigvals = np.linalg.eigvals
    solved = []
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: solved.append(a.shape) or eigvals(a))
    w = chain_eigenvalues(m)
    assert solved == [(80, 80)]
    x = np.repeat(np.arange(m.n_cells), m.sites_per_cell)
    gauge = _gauge_radius(m) ** (x[None, :] - x[:, None]).astype(float)
    ref = eigvals(real_space_hamiltonian(m) * gauge)
    assert _matched_error(w, ref) <= 1e-9 * np.max(np.abs(ref))


@FIG4_HOPS
def test_gauge_radius_is_the_touching_point_modulus(hops):
    # against the balance scan, not the closed form that both share
    m = make_model(Family.GT, *hops)
    g = gbz_compute(m, GbzMethod.CHARPOLY)
    touching = abs(_touching_point_scan(m, _pair_radius(g)))
    assert abs(_gauge_radius(m) - touching) <= 1e-9 * touching


# 80 seeded models: 38 in beta_T's regime, 42 outside it
RANDOM_GT = [make_model(Family.GT, *hops)
             for hops in np.random.default_rng(2019).uniform(0.5, 15.0, (80, 4))]
IN_REGIME = [m for m in RANDOM_GT if _touching_point_in_regime(m)][:30]
OUT_OF_REGIME = [m for m in RANDOM_GT if not _touching_point_in_regime(m)][:6]


def _counting_balance(monkeypatch):
    """Replace ``_balance`` by a wrapper; returns the list of its batch sizes."""
    calls, balance = [], gbz_mod._balance
    monkeypatch.setattr(gbz_mod, "_balance", lambda *a: calls.append(len(a[1])) or balance(*a))
    return calls


@pytest.mark.parametrize("m", [make_model(Family.GT, *h) for h in FIG4] + IN_REGIME)
def test_touching_point_is_a_double_root_of_the_charpoly(m):
    """At E_T^2 = m(beta_T), P(beta_T) and beta_T P'(beta_T) vanish to
    rounding (2d eps, the residual at which roots count as exact) against
    sum |c_k| |beta|^k and sum k |c_k| |beta|^k."""
    bt = _beta_t(m)
    c = charpoly_coefficients(m, _branch_energies(m, [bt])[0, 0])
    f, df, scale = _horner(c, np.array([[bt]], complex))
    k = np.arange(c.shape[1])
    tol = 2 * 4 * np.finfo(float).eps
    assert abs(f[0, 0]) <= tol * scale[0, 0]
    assert abs(bt * df[0, 0]) <= tol * np.sum(k * np.abs(c[0]) * abs(bt) ** k)


def test_touching_point_regime_matches_the_middle_roots():
    # beta_T is in its regime exactly where the two middle-modulus roots of
    # det(H(beta) - E_T) are the double root beta_T, which _roots_many
    # resolves to about sqrt(eps)
    for m in [make_model(Family.GT, *h) for h in FIG4] + RANDOM_GT:
        bt = _beta_t(m)
        r = _roots_many(charpoly_coefficients(m, _branch_energies(m, [bt])[0, 0]))[0]
        middle = bool(np.all(np.abs(r[1:3] - bt) < 1e-5 * abs(bt)))
        assert _touching_point_in_regime(m) == middle


@pytest.mark.parametrize("m", IN_REGIME)
def test_closed_form_touching_point_matches_the_scan(m, monkeypatch):
    g = gbz_compute(m, GbzMethod.CHARPOLY)
    calls = _counting_balance(monkeypatch)
    tp = gbz_touching_point(g)
    assert tp == complex(_beta_t(m))
    assert calls == []
    scan = _touching_point_scan(m, _pair_radius(g))
    assert abs(tp - scan) <= 1e-8 * abs(scan)


@pytest.mark.parametrize("m", OUT_OF_REGIME)
def test_touching_point_outside_the_regime_is_the_scan(m, monkeypatch):
    g = gbz_compute(m, GbzMethod.CHARPOLY)
    calls = _counting_balance(monkeypatch)
    tp = gbz_touching_point(g)
    assert calls[0] == 80
    assert tp == _touching_point_scan(m, _pair_radius(g))


# t3 and t4, which these families do not read, put beta_T of the same four
# hoppings in its regime and within a factor 3 of the GBZ radius
@pytest.mark.parametrize("family,hops", [(Family.HATANO_NELSON, (2.5, 0.9, 1, 5)),
                                         (Family.NH_SSH, (1.0, 2.0, 5, 1))])
def test_reference_models_take_the_scan(family, hops, monkeypatch):
    # one band pair: no touching point, and no balance is evaluated; with
    # the points split into two components the scan, not beta_T, runs
    g = gbz_compute(make_model(family, *hops, n_cells=40), n_sites=80)
    assert _touching_point_in_regime(g.model)
    calls = _counting_balance(monkeypatch)
    with pytest.raises(NoTouchingPointError, match="two band-pair components"):
        gbz_touching_point(g)
    assert calls == []
    split = dataclasses.replace(g, band_pair=np.arange(len(g.betas)) % 2)
    assert gbz_touching_point(split) == _touching_point_scan(g.model, _pair_radius(split))
    assert calls[0] == 80


@pytest.mark.parametrize("family,hops,delta", [
    *((family, hops, None) for family, hops in FAMILIES[1:]),
    (Family.NH_SSH, (1.0, 2.0, 1, 1), 1.5),
    (Family.NH_SSH, (1.0, 2.0, 1, 1), -1.5),
])
def test_gauge_radius_is_the_circular_gbz_radius(family, hops, delta):
    m = make_model(family, *hops, nhssh_delta=delta)
    radius = np.exp(gbz_compute(m, GbzMethod.CHARPOLY).mean_log_modulus)
    assert abs(_gauge_radius(m) - radius) <= 1e-9 * radius


@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_one_way_nhssh_bond_takes_no_gauge(delta):
    # r = sqrt(|(t1 - delta) / (t1 + delta)|) is 0 or infinite: no gauge fits
    m = make_model(Family.NH_SSH, 1.0, 2.0, 1, 1, n_cells=20, nhssh_delta=delta)
    assert _gauge_radius(m) == 1.0
    assert np.all(np.isfinite(chain_eigenvalues(m)))


def test_non_bloch_hamiltonian_is_element_zero_of_the_stack(model_a, rng):
    betas = np.exp(rng.normal(size=50) + 2j * np.pi * rng.uniform(size=50))
    for family, hops in FAMILIES:
        m = make_model(family, *hops)
        stack = non_bloch_hamiltonians(m, betas)
        for b, H in zip(betas, stack):
            assert np.array_equal(non_bloch_hamiltonian(m, b), H)
    with pytest.raises(ValidationError):
        non_bloch_hamiltonians(model_a, [1.0, 0.0])


def _companion_roots(coeffs):
    """Oracle: eigenvalues of stacked companion matrices, sorted like
    _roots_many (ascending modulus, ties by argument)."""
    n, d1 = coeffs.shape
    d = d1 - 1
    comp = np.zeros((n, d, d), dtype=complex)
    comp[:, 0, :] = -(coeffs / coeffs[:, -1:])[:, :-1][:, ::-1]
    comp[:, np.arange(1, d), np.arange(d - 1)] = 1.0
    roots = np.linalg.eigvals(comp)
    order = np.lexsort((np.angle(roots), np.abs(roots)), axis=1)
    return np.take_along_axis(roots, order, axis=1)


def _scaled_residual(coeffs, roots):
    """|P(x)| / sum |c_k| |x|^k per root: the backward error of each root."""
    powers = roots[:, :, None] ** np.arange(coeffs.shape[1])
    value = np.einsum("nk,nrk->nr", coeffs, powers)
    return np.abs(value) / np.einsum("nk,nrk->nr", np.abs(coeffs), np.abs(powers))


def _from_roots(roots):
    return np.stack([np.poly(r)[::-1] for r in roots]).astype(complex)


@pytest.mark.parametrize("degree", [2, 4])
def test_closed_form_roots_match_companion_eigenvalues(degree, rng):
    n = 2000
    random = rng.normal(size=(n, degree + 1)) + 1j * rng.normal(size=(n, degree + 1))
    true = (10.0 ** rng.uniform(-3, 3, size=(n, degree))
            * np.exp(2j * np.pi * rng.uniform(size=(n, degree))))
    wide = _from_roots(true)
    near = rng.normal(size=(n, degree)) + 1j * rng.normal(size=(n, degree))
    near[:, 1] = near[:, 0] * (1 + 1e-7 * rng.normal(size=n))
    near_double = _from_roots(near)
    for coeffs in (random, wide, near_double):
        roots = _roots_many(coeffs)
        assert _scaled_residual(coeffs, roots).max() < 1e-14
        assert np.all(np.diff(np.abs(roots), axis=1) >= 0)
    # well-separated roots: same roots in the same sorted order as the oracle
    ref = _companion_roots(random)
    assert np.max(np.abs(_roots_many(random) - ref) / np.abs(ref)) < 1e-10
    order = np.lexsort((np.angle(true), np.abs(true)), axis=1)
    true = np.take_along_axis(true, order, axis=1)
    assert np.max(np.abs(_roots_many(wide) - true) / np.abs(true)) < 1e-12
    # a root pair split by 1e-7 is resolved to about sqrt(eps), like the oracle
    got, ref = _roots_many(near_double), _companion_roots(near_double)
    assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(ref))
                  / np.abs(np.sort_complex(ref))) < 1e-6


def test_closed_form_roots_of_degenerate_polynomials_raise_no_warning():
    cases = {(16, -32, 24, -8, 1): [2, 2, 2, 2],           # (x - 2)^4
             (-1, 0, 0, 0, 1): [-1j, 1, 1j, -1],           # x^4 - 1
             (1, 0, 2, 0, 1): [-1j, -1j, 1j, 1j],          # (x^2 + 1)^2
             (1, 0, -2, 0, 1): [-1, 1, 1, -1],             # (x^2 - 1)^2
             (1, 2, 1): [-1, -1]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for poly, want in cases.items():
            got = _roots_many(np.array([poly], dtype=complex))[0]
            np.testing.assert_allclose(np.sort_complex(got), np.sort_complex(want),
                                       atol=1e-3 if len(poly) == 5 else 1e-12)
    for poly in ((2, 1), (1, 1, 1, 1)):    # degrees 1 and 3: no charpoly has either
        with pytest.raises(ValueError):
            _roots_many(np.array([poly], dtype=complex))


@pytest.mark.parametrize("family", list(Family))
def test_agbz_table_matches_convolve2d_construction(family):
    # oracle: the same Bezout resultant with every product of coefficient
    # tables taken by SciPy's 2-D convolution
    rng = np.random.default_rng(2020)
    for _ in range(10):
        m = make_model(family, *rng.uniform(0.2, 15.0, 4), n_cells=10)
        c = _charpoly_table(m)
        a = (c if family is Family.HATANO_NELSON else c[:, ::2]).T

        def mij(i, j):
            return (convolve2d(a[i][:, None], np.diag(a[j]))
                    - convolve2d(a[j][:, None], np.diag(a[i])))
        ref = (mij(0, 1) if len(a) == 2
               else convolve2d(mij(0, 1), mij(1, 2)) - convolve2d(mij(0, 2), mij(0, 2)))
        rows = np.flatnonzero(np.any(ref != 0, axis=1))
        ref = ref[rows[0]:rows[-1] + 1]
        T = _agbz_table(m)
        assert T.shape == ref.shape
        assert np.max(np.abs(T - ref)) <= 1e-14 * np.max(np.abs(ref))


def _det_fft_coefficients(model, E):
    """Oracle: coefficients of beta^p det(H(beta) - E) recovered by an FFT of
    determinants at the (d+1)-th roots of unity."""
    E = np.atleast_1d(np.asarray(E, dtype=complex))
    p = {Family.GT: 2, Family.HATANO_NELSON: 1, Family.NH_SSH: 1}[model.family]
    omega = np.exp(2j * np.pi * np.arange(2 * p + 1) / (2 * p + 1))
    Hs = np.stack([non_bloch_hamiltonian(model, w) for w in omega])
    eye = np.eye(model.sites_per_cell)
    f = omega ** p * np.linalg.det(Hs[None] - E[:, None, None, None] * eye)
    return np.fft.fft(f, axis=1) / (2 * p + 1)


@FIG4_HOPS
def test_charpoly_gbz_matches_det_fft_companion_path(hops, rng):
    # the aGBZ resultant T(beta, w) vanishes wherever beta and beta w share
    # an energy: check its exact table against every other root beta' of
    # the det+FFT/companion characteristic polynomial at each energy of H(beta)
    m = make_model(Family.GT, *hops, n_cells=10)
    T = _agbz_table(m)
    k, j = np.indices(T.shape)
    worst = 0.0
    for _ in range(20):
        beta = 10 ** rng.uniform(-1, 1) * np.exp(2j * np.pi * rng.uniform())
        for E in np.linalg.eigvals(non_bloch_hamiltonian(m, beta)):
            roots = _companion_roots(_det_fft_coefficients(m, E))[0]
            for other in roots[np.argsort(np.abs(roots - beta))[1:]]:
                terms = T * beta ** k * (other / beta) ** j
                worst = max(worst, abs(terms.sum()) / np.abs(terms).sum())
    assert worst <= 1e-10
