import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhskin import (CrossValidationError, DegreeCollapseError, Direction,
                    Family, GbzMethod, NoTouchingPointError, SymmetryOp,
                    ValidationError, apply_symmetry, charpoly_beta_roots,
                    gap_report, gbz_compute, gbz_touching_point, make_model,
                    non_bloch_hamiltonian, skin_direction)
from nhskin import gbz as gbz_mod
from nhskin.gbz import (_bisect, _charpoly_gbz, _middle_pair_indices,
                        _roots_many, charpoly_coefficients)

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


def _charpoly_gbz_per_ray(model, n_theta, r_range=(0.02, 50.0), n_r=60):
    """Reference: scalar bisection of each bracket along each ray in turn."""
    s = model.sites_per_cell

    def balance(betas):
        Hs = np.stack([non_bloch_hamiltonian(model, b) for b in betas])
        Es = np.linalg.eigvals(Hs)
        roots = _roots_many(charpoly_coefficients(model, Es.ravel()))
        i, j = _middle_pair_indices(roots.shape[1])
        g = np.log(np.abs(roots[:, i]) * np.abs(roots[:, j])
                   / np.abs(np.repeat(betas, s)) ** 2)
        return g.reshape(len(betas), s), Es

    thetas = np.linspace(0, 2 * np.pi, n_theta, endpoint=False)
    rs = np.geomspace(r_range[0], r_range[1], n_r)
    betas_out, energies_out = [], []
    for th in thetas:
        g, _ = balance(rs * np.exp(1j * th))
        for band in range(s):
            gb = g[:, band]
            for idx in np.nonzero(np.sign(gb[:-1]) * np.sign(gb[1:]) < 0)[0]:
                lo, hi, glo = rs[idx], rs[idx + 1], gb[idx]
                for _ in range(60):
                    mid = np.sqrt(lo * hi)
                    gm = balance(np.array([mid * np.exp(1j * th)]))[0][0, band]
                    if gm == 0.0:
                        lo = hi = mid
                        break
                    if np.sign(gm) == np.sign(glo):
                        lo, glo = mid, gm
                    else:
                        hi = mid
                r = np.sqrt(lo * hi)
                beta = r * np.exp(1j * th)
                E = balance(np.array([beta]))[1][0, band]
                roots = charpoly_beta_roots(model, E)
                i, j = _middle_pair_indices(len(roots))
                if (abs(abs(roots[i]) - abs(roots[j])) < 1e-6 * r
                        and min(abs(roots[i] - beta), abs(roots[j] - beta)) < 1e-5 * r):
                    betas_out.append(beta)
                    energies_out.append(E)
    return np.array(betas_out, dtype=complex), np.array(energies_out, dtype=complex)


@pytest.mark.parametrize("family,hops", [
    (Family.GT, (3.2, 6.7, 22.6, 8.4)),         # phase B
    (Family.HATANO_NELSON, (2.5, 0.9, 1, 1)),
    (Family.NH_SSH, (1.0, 2.0, 1, 1)),
])
def test_batched_charpoly_gbz_matches_per_ray_bisection(family, hops):
    m = make_model(family, *hops, n_cells=10)
    betas, energies = _charpoly_gbz(m, n_theta=12)
    ref_b, ref_e = _charpoly_gbz_per_ray(m, n_theta=12)
    assert len(betas) == len(ref_b) > 0
    np.testing.assert_allclose(betas, ref_b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(energies, ref_e, rtol=1e-12, atol=1e-12)


def test_bisect_converges_to_roots_within_a_few_ulp():
    roots = np.array([0.3, 1.7, 29.0])
    r = _bisect(lambda r, k: np.log(r / roots[k]), roots / 3, roots * 2,
                np.full(3, np.log(1 / 3)), 80)
    assert np.all(np.abs(r - roots) <= 4 * np.spacing(roots))


def test_bisect_exact_zero_collapses_and_retires_the_bracket():
    evaluated = []

    def g(r, k):
        evaluated.append(k.copy())
        return r - np.array([2.0, np.sqrt(3.0)])[k]

    # the first geometric midpoint of [1, 4] is exactly 2
    r = _bisect(g, [1.0, 1.0], [4.0, 4.0], [-1.0, 1.0 - np.sqrt(3.0)], 60)
    assert r[0] == 2.0
    assert abs(r[1] - np.sqrt(3.0)) <= 4 * np.spacing(np.sqrt(3.0))
    assert sum(int(np.sum(k == 0)) for k in evaluated) == 1
    assert sum(int(np.sum(k == 1)) for k in evaluated) > 40


def test_bisect_stops_evaluating_brackets_that_cannot_move():
    calls = []

    def g(r, k):
        calls.append(len(k))
        return np.log(r / 1.5)

    r = _bisect(g, [1.0], [4.0], [np.log(1 / 1.5)], 500)
    assert abs(r[0] - 1.5) <= 4 * np.spacing(1.5)
    # the bracket shrinks to adjacent floats in about 60 halvings of log 4
    assert len(calls) < 80


def test_cross_check_reports_how_many_points_were_bracketed(model_b, monkeypatch):
    m = model_b.with_(gamma=0.0, n_cells=40)
    monkeypatch.setattr(gbz_mod, "_radial_refine_many",
                        lambda model, betas, energies: np.full(len(betas), np.nan))
    with pytest.raises(CrossValidationError,
                       match=r"no comparable points \(0 of 48 sampled points bracketed\)"):
        gbz_compute(m, cross_check=True)

    def half_off(model, betas, energies):
        r = 1.01 * np.abs(betas)
        r[::2] = np.nan
        return r
    monkeypatch.setattr(gbz_mod, "_radial_refine_many", half_off)
    with pytest.raises(CrossValidationError,
                       match=r"mismatch 0\.01 .*\(24 of 48 sampled points bracketed\)"):
        gbz_compute(m, cross_check=True)


@pytest.mark.xfail(strict=True, raises=CrossValidationError,
                   reason="known defect: on phase A (fig4a) the fitted and continuum "
                          "GBZ radii differ by 0.0033 at the 90th percentile, above "
                          "the 1e-3 cross-check bound (ROADMAP item 3)")
def test_phase_a_methods_cross_validate(model_a):
    gbz_compute(model_a, cross_check=True)


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
    rep = gap_report(model_a.with_(gamma=0.0))
    assert rep.line_gap_width > 0
    assert not rep.is_real_spectrum
    assert rep.in_gap_mode_count == 2


def test_gap_report_phase_b_gapless(model_b):
    rep = gap_report(model_b.with_(gamma=0.0))
    assert rep.line_gap_width == 0.0
    assert not rep.is_real_spectrum


def test_gap_report_phase_c_real(model_c):
    rep = gap_report(model_c.with_(gamma=0.0))
    assert rep.is_real_spectrum
    assert rep.line_gap_width > 0


def test_gap_report_hermitian_matches_bloch_oracle():
    m = make_model(Family.GT, 0.5, 1.0, 0.7, 0.7, n_cells=40)
    rep = gap_report(m)
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
