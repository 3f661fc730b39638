"""Acceptance suite: one test per published-behavior criterion.

Every test prints a single ``criterion N: PASS/FAIL`` line (with pytest
capture suspended so the verdicts are always visible) and then asserts.
All runs fit desk scale: 40-160 sites, under a minute per criterion.
"""

import numpy as np
import pytest

from nhskin import (PATH2, Direction, Family, Phase, SymmetryOp,
                    apply_symmetry, chain_eigenvalues, classify_phase, default_time_grid,
                    energy_trace, evolve, gap_report, gbz_compute,
                    gbz_touching_point, growth_rate, make_model,
                    obc_decomposition, obc_spectrum,
                    pair_with_negated_conjugate, pbc_spectrum, poke_state,
                    scan_phase_diagram, skin_direction, transition_sweep)

PARAMS_A = dict(t1=2.1, t2=14.9, t3=11.2, t4=3.7, gamma=2.8)
PARAMS_B = dict(t1=3.2, t2=6.7, t3=22.6, t4=8.4, gamma=4.4)
PARAMS_C = dict(t1=2.1, t2=14.9, t3=12.6, t4=8.9, gamma=2.5)


def _model(params, n_cells=10, gamma=None):
    g = params["gamma"] if gamma is None else gamma
    return make_model(Family.GT, params["t1"], params["t2"], params["t3"],
                      params["t4"], gamma=g, n_cells=n_cells)


@pytest.fixture(autouse=True)
def _verdict_printer(capsys):
    """Collect the verdict from each test and print it uncaptured."""
    box = []
    yield box
    if box:
        with capsys.disabled():
            print(box[0], flush=True)


def _report(box, num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    box.append(line)
    assert ok, line


def _beat_hz(model):
    w = obc_spectrum(model).eigenvalues
    top = w[np.argsort(w.imag)[-2:]]
    return abs(top[0].real - top[1].real) / (2 * np.pi)


def test_criterion_1_phase_a_beat_frequency(_verdict_printer):
    beats = [_beat_hz(_model(PARAMS_A, gamma=g)) for g in (0.0, 2.8)]
    ok = all(abs(b - 3.3) <= 0.2 for b in beats) and \
        abs(beats[0] - beats[1]) < 1e-9
    _report(_verdict_printer, 1, ok, f"top-Im mode splitting {beats[0]:.3f} Hz "
            "(target 3.3 +/- 0.2, gamma-independent)")


def test_criterion_2_phase_b_amplification_threshold(_verdict_printer):
    m = _model(PARAMS_B, gamma=0.0)
    w = pbc_spectrum(m, n_k=256)
    max_im_hz = w.imag.max() / (2 * np.pi)
    dominant = w[w.imag > w.imag.max() - 1e-6]
    re_hz = np.max(np.abs(dominant.real)) / (2 * np.pi)
    ok = 0.55 <= max_im_hz <= 0.75 and re_hz < 0.5
    _report(_verdict_printer, 2, ok, f"max Im/2pi = {max_im_hz:.3f} Hz in [0.55, 0.75], "
            f"dominant |Re|/2pi = {re_hz:.3f} Hz < 0.5")


def test_criterion_3_phase_c_real_spectrum(_verdict_printer):
    w = obc_spectrum(_model(PARAMS_C, gamma=0.0)).eigenvalues
    ratio = np.max(np.abs(w.imag)) / np.max(np.abs(w.real))
    ok = ratio < 1e-6
    _report(_verdict_printer, 3, ok, f"max|Im E| / max|Re E| = {ratio:.2e} < 1e-6")


# one of the 50 random chains is near-exceptional; its spectrum still mirrors
@pytest.mark.filterwarnings(
    r"ignore:near-exceptional spectrum. eigenvector condition number 2\.72e\+10; "
    r"biorthogonal quantities have degraded accuracy$:RuntimeWarning")
def test_criterion_4_gt_spectral_mirror_symmetry(_verdict_printer):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(50):
        t = rng.uniform(0.1, 10.0, size=4)
        m = make_model(Family.GT, *t, n_cells=10)
        w = obc_spectrum(m).eigenvalues
        if not pair_with_negated_conjugate(w, rtol=1e-8):
            worst = np.inf
    ok = np.isfinite(worst)
    _report(_verdict_printer, 4, ok, "50 random GT models: OBC multiset == {-conj(E)} "
            "at 1e-8 relative")


def test_criterion_5_gbz_structure(_verdict_printer):
    ga = gbz_compute(_model(PARAMS_A, n_cells=40, gamma=0.0))
    inside = np.max(np.abs(ga.betas)) < 1.0
    touch_ok = True
    for p in (PARAMS_A, PARAMS_B, PARAMS_C):
        tp = gbz_touching_point(gbz_compute(_model(p, n_cells=40, gamma=0.0)))
        touch_ok &= abs(tp.imag) < 1e-3 and tp.real < 0
    gh = gbz_compute(make_model(Family.GT, 1, 2, 3, 3, n_cells=40))
    unit = np.max(np.abs(np.abs(gh.betas) - 1.0)) < 1e-8
    ok = inside and touch_ok and unit
    _report(_verdict_printer, 5, ok, f"phase A max|beta| = {np.max(np.abs(ga.betas)):.4f} < 1; "
            "A/B/C touching points on negative real axis; Hermitian "
            "|beta| = 1 within 1e-8")


def test_criterion_6_dynamic_skin_effect(_verdict_printer):
    fracs = []
    for p in (PARAMS_A, PARAMS_B, PARAMS_C):
        m = _model(p, n_cells=40)           # 160 sites, poke in cell 5
        field = evolve(m, poke_state(m, 20), default_time_grid(40.0, fs=50.0))
        dens = np.abs(field.amplitudes[-1]) ** 2
        fracs.append(dens[:40].sum() / dens.sum())
    # phase-A boundary bounces: probe the energy near (not at) the edge
    ma = _model(PARAMS_A)
    f = evolve(ma, poke_state(ma, 20), default_time_grid(20.0, fs=100.0))
    probe = (np.abs(f.amplitudes[:, 4:12]) ** 2).sum(axis=1)
    peaks = [probe[i] for i in range(1, len(probe) - 1)
             if probe[i] > probe[i - 1] and probe[i] > probe[i + 1]
             and probe[i] > 1e-3 * probe.max()]
    tail = peaks[int(np.argmax(peaks)):]
    bounces_ok = len(tail) >= 3 and np.all(np.diff(tail) < 0)
    ok = all(fr > 0.9 for fr in fracs) and bounces_ok
    _report(_verdict_printer, 6, ok, "late left-quarter energy fractions A/B/C = "
            + "/".join(f"{fr:.3f}" for fr in fracs)
            + f" (> 0.9); {len(tail)} boundary bounces decay monotonically")


def test_criterion_7_direction_rules(_verdict_printer):
    grid = np.linspace(0.5, 5.0, 10)
    ok = True
    for t3 in grid:
        for t4 in grid:
            if abs(t3 - t4) < 1e-9:
                continue
            m = make_model(Family.GT, 1, 2, t3, t4, n_cells=30)
            d = skin_direction(gbz_compute(m, n_sites=120)).direction
            ok &= d is (Direction.LEFT if t3 > t4 else Direction.RIGHT)
    # P (swap t3,t4) and Mx (swap t1,t2) each reverse the direction
    for t3, t4 in ((4.0, 1.0), (2.0, 4.5), (1.5, 0.8)):
        m = make_model(Family.GT, 1, 2, t3, t4, n_cells=30)
        d0 = skin_direction(gbz_compute(m, n_sites=120)).direction
        for op in (SymmetryOp.P, SymmetryOp.MX):
            mm = apply_symmetry(m, op)
            d1 = skin_direction(gbz_compute(mm, n_sites=120)).direction
            ok &= {d0, d1} == {Direction.LEFT, Direction.RIGHT}
    _report(_verdict_printer, 7, ok, "10x10 grid: Left <=> t3 > t4; P and Mx flip the "
            "direction at 3 sample points")


def test_criterion_8_phase_diagram(_verdict_printer):
    marked = {
        (3.0, 3.0): Phase.HERMITIAN_LINE,
        (4.0, 1.0): Phase.B,
        (4.0, 3.5): Phase.C,
    }
    points_ok = all(
        classify_phase(make_model(Family.GT, 1, 2, t3, t4, n_cells=25)).label
        is want for (t3, t4), want in marked.items())
    d = scan_phase_diagram(1, 2, (0.2, 6.0), (0.2, 6.0), resolution=9,
                           n_cells=25)
    swap = {Phase.A: Phase.APRIME, Phase.APRIME: Phase.A,
            Phase.B: Phase.BPRIME, Phase.BPRIME: Phase.B,
            Phase.C: Phase.CPRIME, Phase.CPRIME: Phase.C,
            Phase.HERMITIAN_LINE: Phase.HERMITIAN_LINE,
            Phase.BOUNDARY: Phase.BOUNDARY}
    sym_ok = all(d.labels[i, j].label is swap[d.labels[j, i].label]
                 for i in range(9) for j in range(9))
    # the scan solves the upper half and mirrors it: the lower half against
    # a direct classification of each of its points
    step = d.t3_grid[1] - d.t3_grid[0]
    mirror_ok = all(
        classify_phase(make_model(Family.GT, 1, 2, d.t3_grid[j], d.t4_grid[i], n_cells=25),
                       boundary_tol=step / 2).label is d.labels[i, j].label
        for i in range(9) for j in range(i))
    ok = points_ok and sym_ok and mirror_ok
    _report(_verdict_printer, 8, ok, "marked points -> HermitianLine/B/C; 9x9 scan symmetric "
            "under t3 <-> t4 with primed exchange; mirrored half = direct classification")


def test_criterion_9_decomposition_convergence(_verdict_printer):
    ok, notes = True, []
    for name, p in (("A", PARAMS_A), ("B", PARAMS_B)):
        m = _model(p)
        f = evolve(m, poke_state(m, 20), default_time_grid(20.0, fs=100.0))
        dec = obc_decomposition(f)
        w = dec.spectrum.eigenvalues
        j = int(np.argmax(np.abs(dec.coefficients[-1])))
        hit = w.imag[j] > w.imag.max() - 1e-6 * max(1.0, abs(w.imag.max()))
        ok &= hit
        notes.append(f"{name}: Im E_dom = {w.imag[j]:.3f} (max {w.imag.max():.3f})")
    mc = _model(PARAMS_C)
    f = evolve(mc, poke_state(mc, 20), default_time_grid(20.0, fs=100.0))
    dec = obc_decomposition(f)
    w = dec.spectrum.eigenvalues
    j = int(np.argmax(np.abs(dec.coefficients[-1])))
    m0 = mc.with_(gamma=0.0)
    edge = gap_report(gbz_compute(m0), chain_eigenvalues(m0)).line_gap_width / 2
    hit_c = abs(abs(w.real[j]) - edge) < 0.15 * edge
    ok &= hit_c
    notes.append(f"C: |Re E_dom| = {abs(w.real[j]):.3f} vs gap edge {edge:.3f}")
    _report(_verdict_printer, 9, ok, "; ".join(notes))


def test_criterion_10_transition_sweeps(_verdict_printer):
    # Path 1 (t3 = 4 - m, t4 = 1 + m): the growth rate varies smoothly
    from nhskin import PATH1
    m1 = np.linspace(0.0, 1.2, 13)
    s1 = transition_sweep(PATH1, m1, t_grid=default_time_grid(80.0, fs=50.0))
    lam1 = np.asarray(s1.growth_rates)
    d1 = np.diff(lam1) / np.diff(m1)
    smooth = all(abs(d1[i] - d1[i - 1]) <= 0.1 * max(abs(d1[i]), abs(d1[i - 1]))
                 for i in range(1, len(d1)))
    # Path 2 (t3 = 4, t4 = 1 + m): lambda -> 0 with a kink at the C boundary
    m2 = np.linspace(1.2, 2.2, 11)
    s2 = transition_sweep(PATH2, m2, t_grid=default_time_grid(200.0, fs=50.0))
    lam2 = np.asarray(s2.growth_rates)
    d2 = np.diff(lam2) / np.diff(m2)
    ratios = [abs(d2[i - 1]) / max(abs(d2[i]), 1e-12) for i in range(1, len(d2))]
    kink = max(ratios) > 3.0 and abs(lam2[-1]) < 0.05
    ok = smooth and kink
    _report(_verdict_printer, 10, ok, "path 1 one-sided slopes agree within 10% at interior "
            f"samples; path 2 kink ratio {max(ratios):.1f}x > 3 with "
            f"lambda(end) = {lam2[-1]:.3g}")


def test_criterion_11_property_suite(_verdict_printer, dop853):
    checks = {}
    m = _model(PARAMS_A)
    spec = obc_spectrum(m)
    G = spec.left_vectors.conj().T @ spec.right_vectors
    checks["biorthogonality"] = np.max(np.abs(G - np.eye(len(G)))) < 1e-8

    t = default_time_grid(10.0, fs=50.0)
    f = evolve(m, poke_state(m, 20), t)
    dec = obc_decomposition(f)
    scale = np.max(np.abs(f.amplitudes), axis=1, keepdims=True)
    checks["reconstruction"] = np.max(
        np.abs(dec.reconstruct() - f.amplitudes) / scale) < 1e-8

    mh = make_model(Family.GT, 1, 2, 3, 3, n_cells=10)
    P = energy_trace(evolve(mh, poke_state(mh, 20), default_time_grid())).P
    checks["hermitian conservation"] = np.max(np.abs(P - 1.0)) < 1e-6

    free = evolve(m.with_(gamma=0.0), poke_state(m, 20), t).amplitudes
    damped = evolve(m, poke_state(m, 20), t).amplitudes
    checks["damping factorization"] = np.max(
        np.abs(damped - free * np.exp(-m.gamma * t)[:, None])) < 1e-10

    a = evolve(m, poke_state(m, 20), t).amplitudes
    b = dop853(m, poke_state(m, 20), t)
    checks["propagator vs DOP853"] = np.max(np.abs(a - b)) < 1e-6 * np.max(np.abs(a))

    mb = _model(PARAMS_B, gamma=0.0)
    tr = energy_trace(evolve(mb, poke_state(mb, 20),
                             default_time_grid(80.0, fs=50.0)))
    lam = growth_rate(tr)
    target = 2 * obc_spectrum(mb).eigenvalues.imag.max()
    checks["growth rate 2%"] = lam == pytest.approx(target, rel=0.02)

    ok = all(checks.values())
    _report(_verdict_printer, 11, ok, "; ".join(f"{k}: {'ok' if v else 'FAIL'}"
                              for k, v in checks.items()))
