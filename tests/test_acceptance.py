"""Acceptance suite: the headline quantitative targets, one test per
criterion, each printing a PASS/FAIL line with the measured values.

Criteria 2-6 depend on the charging-energy calibration (the default places
the double-resonance peak at 4.5046 GHz). If a criterion misses its band at
the default calibration, it is re-evaluated with the charging energy fitted
so that the double-resonance peak sits at 4.505 GHz exactly, and the fitted
value is recorded, before a failure is declared.

Known honest failures (see the width targets of criteria 5 and 6): at the
stated triple-resonance operating point (s = 0.68 pi / 2 eta, R = 0.045)
the model as specified yields a 236 MHz linewidth, not 193 MHz. The number
is confirmed by three independent routes (closed amplitude quadrature,
numeric train composition, Monte Carlo sampling), is insensitive to the
calibration refit, and the [173.7, 212.3] MHz band is therefore not
reachable; the assertions are kept faithful to the targets instead of being
widened to pass.
"""

import math
import time

import numpy as np
import pytest

from ramseybias import (AveragingParams, BiasTrain, McConfig, TransmonParams,
                        compose_train, mc_oracle, metrics, omega_eg, optimizer,
                        pe_average, regime_quantities, run_validation,
                        sweep_refined, validation)
from ramseybias.units import ghz, to_ghz, to_mhz
from closed_amplitudes import ce_double, ce_triple
from triple_closed_form import pe_avg_triple_closed

ETA = ghz(0.1)
S_DOUBLE = 0.68 * math.pi / (3.0 * ETA)
S_TRIPLE = 0.68 * math.pi / (2.0 * ETA)
R_DOUBLE = 0.001
R_TRIPLE = 0.045
WINDOW = (ghz(3.5), ghz(5.5))
COARSE = ghz(0.001)
REFINE = ghz(0.0001)

# double-resonance peak location at the default calibration; used to fit
# the charging energy to a 4.505 GHz peak (the splitting is linear in E_C)
DEFAULT_PEAK_GHZ = 4.504648702454


def report(num, ok, text):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {text}")


def pe_avg(n_res, q_res, q_disp, avg):
    return pe_average(n_res, q_res.lam, q_res.theta, q_disp.delta_d, avg)


def fitted_transmon():
    return TransmonParams.from_ghz(ec_ghz=0.5 * 4.505 / DEFAULT_PEAK_GHZ)


def scheme_metrics(transmon, scheme, s, r):
    avg = AveragingParams(s, r)
    spec = sweep_refined(scheme, transmon, ETA, WINDOW[0], WINDOW[1],
                         COARSE, REFINE, avg)
    cw = sweep_refined("cw", transmon, ETA, WINDOW[0], WINDOW[1],
                       COARSE, REFINE)
    return metrics(spec, reference=cw), metrics(cw)


@pytest.fixture(scope="module")
def fig_double():
    start = time.perf_counter()
    m, m_cw = scheme_metrics(TransmonParams.from_ghz(), "double",
                             S_DOUBLE, R_DOUBLE)
    return m, m_cw, time.perf_counter() - start


@pytest.fixture(scope="module")
def fig_triple():
    m, m_cw = scheme_metrics(TransmonParams.from_ghz(), "triple",
                             S_TRIPLE, R_TRIPLE)
    return m, m_cw


def test_criterion_1_cw_baseline_width():
    start = time.perf_counter()
    transmon = TransmonParams.from_ghz()
    cw = sweep_refined("cw", transmon, ETA, WINDOW[0], WINDOW[1],
                       COARSE, REFINE)
    fwhm = to_mhz(metrics(cw).fwhm)
    elapsed = time.perf_counter() - start
    ok = abs(fwhm - 400.0) <= 1.0 and elapsed < 1.0
    report(1, ok, f"cw width {fwhm:.3f} MHz (target 400 +- 1), "
                  f"{elapsed:.2f} s (< 1 s)")
    assert abs(fwhm - 400.0) <= 1.0
    assert elapsed < 1.0


def test_criterion_2_double_linewidth(fig_double):
    m, _, elapsed = fig_double
    fwhm = to_mhz(m.fwhm)
    ok = abs(fwhm - 306.0) <= 30.6
    note = ""
    if not ok:
        refit, _ = scheme_metrics(fitted_transmon(), "double",
                                  S_DOUBLE, R_DOUBLE)
        fwhm = to_mhz(refit.fwhm)
        ok = abs(fwhm - 306.0) <= 30.6
        note = f" (refit E_C: {fwhm:.2f} MHz)"
    report(2, ok, f"double width {to_mhz(m.fwhm):.2f} MHz "
                  f"(target 306 +- 10%){note}, sweep {elapsed:.2f} s (< 10 s)")
    assert ok
    assert elapsed < 10.0


def test_criterion_3_peak_location(fig_double):
    m, _, _ = fig_double
    peak = to_ghz(m.peak_omega)
    ok = abs(peak - 4.505) <= 0.005
    report(3, ok, f"double peak at {peak:.6f} GHz (target 4.505 +- 0.005)")
    assert ok


def test_criterion_4_dispersive_shift(fig_double):
    m, _, _ = fig_double
    shift = abs(to_mhz(m.shift_vs_ref))
    ok = abs(shift - 1.7) <= 1.0
    report(4, ok, f"|double peak - cw peak| = {shift:.3f} MHz "
                  f"(target 1.7 +- 1)")
    assert ok


def test_criterion_5_triple_linewidth(fig_triple):
    m, _ = fig_triple
    fwhm_default = to_mhz(m.fwhm)
    ok = abs(fwhm_default - 193.0) <= 19.3
    note = ""
    fwhm = fwhm_default
    if not ok:
        transmon_fit = fitted_transmon()
        refit, _ = scheme_metrics(transmon_fit, "triple", S_TRIPLE, R_TRIPLE)
        fwhm = to_mhz(refit.fwhm)
        ok = abs(fwhm - 193.0) <= 19.3
        note = (f"; refit E_C/2pi = {to_ghz(transmon_fit.e_c):.6f} GHz "
                f"gives {fwhm:.2f} MHz")
    report(5, ok, f"triple width {fwhm_default:.2f} MHz "
                  f"(target 193 +- 10%){note}")
    assert ok, (
        f"triple-resonance width is {fwhm:.2f} MHz at the stated operating "
        "point; the 193 MHz target is not reproduced by the model (value "
        "cross-checked by quadrature, composition and Monte Carlo)")


def test_criterion_6_relative_reduction_double(fig_double):
    m, m_cw, _ = fig_double
    reduction = 100.0 * (m_cw.fwhm - m.fwhm) / m_cw.fwhm
    ok = abs(reduction - 23.0) <= 3.0
    report(6, ok, f"cw -> double reduction {reduction:.2f} % (target 23 +- 3)")
    assert ok


def test_criterion_6_relative_reduction_triple(fig_double, fig_triple):
    m2, _, _ = fig_double
    m3, _ = fig_triple
    reduction = 100.0 * (m2.fwhm - m3.fwhm) / m2.fwhm
    ok = abs(reduction - 37.0) <= 5.0
    note = ""
    if not ok:
        transmon_fit = fitted_transmon()
        refit2, _ = scheme_metrics(transmon_fit, "double", S_DOUBLE, R_DOUBLE)
        refit3, _ = scheme_metrics(transmon_fit, "triple", S_TRIPLE, R_TRIPLE)
        refit_red = 100.0 * (refit2.fwhm - refit3.fwhm) / refit2.fwhm
        ok = abs(refit_red - 37.0) <= 5.0
        note = f" (refit E_C: {refit_red:.2f} %)"
    report(6, ok, f"double -> triple reduction {reduction:.2f} % "
                  f"(target 37 +- 5){note}")
    assert ok, (
        f"double -> triple reduction is {reduction:.2f} %; the 37 % target "
        "implies the unreached 193 MHz triple width of criterion 5")


def test_criterion_7_fringe_behavior(fig_double, fig_triple):
    m2, _, _ = fig_double
    m3, _ = fig_triple
    big_double = [f for f in m2.fringes
                  if abs(f[0] - m2.peak_omega) <= ghz(1.0)
                  and f[1] >= 0.05 * m2.peak_value]
    ok = not big_double and len(m3.fringes) >= 1
    report(7, ok, f"double: {len(big_double)} fringes >= 5% within +-1 GHz "
                  f"(target 0); triple: {len(m3.fringes)} fringes (target >= 1)")
    assert big_double == []
    assert len(m3.fringes) >= 1


def test_criterion_8_closed_vs_composed():
    start = time.perf_counter()
    transmon = TransmonParams.from_ghz()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        omega = rng.uniform(ghz(3.5), ghz(5.5))
        drive, q_res, q_disp = regime_quantities(transmon, ETA, omega)
        tau = rng.uniform(0.0, 6e-9, size=10)
        ratio = rng.uniform(0.0, 0.3)
        for n_res, closed in ((2, ce_double), (3, ce_triple)):
            want = closed(q_res, q_disp, drive, tau, ratio * tau)
            got = compose_train(q_res, q_disp, drive,
                                BiasTrain(n_res, tau, ratio)).c_e
            worst = max(worst, float(np.max(np.abs(want - got))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report(8, ok, f"1000 draws x both schemes, worst |closed - composed| "
                  f"= {worst:.2e} (<= 1e-10), {elapsed:.1f} s (< 5 s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_9_oracle_equivalence():
    start = time.perf_counter()
    transmon = TransmonParams.from_ghz()
    w_res = omega_eg(transmon, transmon.phi_res)
    rng = np.random.default_rng(909)
    n_samples = 10**6
    draws = []
    for draw in range(50):
        if draw % 2 == 0:
            omega = float(rng.uniform(w_res - 2 * ETA, w_res + 2 * ETA))
            avg = AveragingParams(S_DOUBLE * rng.uniform(0.5, 2.0),
                                  float(rng.uniform(0.0, 0.05)))
        else:
            # the close-resonance closed form is exact only at zero detuning
            omega = w_res
            avg = AveragingParams(S_TRIPLE * rng.uniform(0.5, 2.0),
                                  float(rng.uniform(0.0, 0.05)))
        draws.append((draw, omega, avg))

    def deviation(job):
        draw, omega, avg = job
        drive, q_res, q_disp = regime_quantities(transmon, ETA, omega)
        if draw % 2 == 0:
            n_res, closed = 2, pe_avg(2, q_res, q_disp, avg)
        else:
            n_res, closed = 3, pe_avg_triple_closed(q_res, q_disp, avg)
        mean, err = mc_oracle(n_res, q_res, q_disp, drive, avg,
                              McConfig(n_samples, 1000 + draw))
        return abs(closed - mean) / max(3.0 * err, 1e-3)

    # the draws run on every usable CPU, as validate runs its blocks
    worst_ratio = max(optimizer._evaluate_all(deviation, draws))
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1.0 and elapsed < 120.0
    report(9, ok, f"50 draws at 1e6 samples, worst deviation/bound "
                  f"= {worst_ratio:.3f} (<= 1), {elapsed:.0f} s (< 120 s)")
    assert worst_ratio <= 1.0
    assert elapsed < 120.0


def test_criterion_10_close_resonance_approximation():
    transmon = TransmonParams.from_ghz()
    w_res = omega_eg(transmon, transmon.phi_res)
    avg = AveragingParams(S_TRIPLE, R_TRIPLE)
    _, q_res, q_disp = regime_quantities(transmon, ETA, w_res)
    on_res = abs(pe_avg_triple_closed(q_res, q_disp, avg)
                 - pe_avg(3, q_res, q_disp, avg))
    # off-resonance deviation is reported, not asserted
    deviations = []
    for off_mhz in (250.0, 500.0, 1000.0):
        omega = w_res + ghz(off_mhz / 1e3)
        _, q_r, q_d = regime_quantities(transmon, ETA, omega)
        deviations.append(abs(pe_avg_triple_closed(q_r, q_d, avg)
                              - pe_avg(3, q_r, q_d, avg)))
    ok = on_res <= 1e-6
    report(10, ok, f"on-resonance |closed - numeric| = {on_res:.2e} "
                   f"(<= 1e-6); deviations at +250/+500/+1000 MHz: "
                   + ", ".join(f"{d:.3f}" for d in deviations))
    assert on_res <= 1e-6
    assert all(np.isfinite(deviations))


def test_criterion_11_validation_determinism(monkeypatch):
    monkeypatch.setattr(validation, "MC_DRAWS", 3)
    transmon = TransmonParams.from_ghz()
    mc = McConfig(10**5, 42)
    first = run_validation(transmon, ETA, mc)
    second = run_validation(transmon, ETA, mc)
    identical = first.render() == second.render()
    ok = identical and first.all_passed
    report(11, ok, f"repeated runs byte-identical: {identical}; "
                   f"all checks pass: {first.all_passed}")
    assert identical
    assert first.all_passed
