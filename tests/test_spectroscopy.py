"""Sweeps, baselines, and peak/width/fringe extraction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ramseybias import (AveragingParams, DomainError, DriveParams,
                        MetricsError, NoCrossingError, NoPeakError, Spectrum,
                        SpectrumMetrics, TransmonParams, make_grid, metrics,
                        omega_eg, pe_average, regime_quantities, sweep,
                        sweep_refined)
from ramseybias import spectroscopy
from ramseybias.averaging import _pe_double_formula, _pe_grid_numeric
from ramseybias.spectroscopy import (FRINGE_THRESHOLD, MAX_GRID_POINTS,
                                     _grid_quantities, _parabolic_peak, _peak,
                                     grid_points, parse_scheme, sweep_narrowed)
from ramseybias.units import ghz, to_ghz, to_mhz

TRANSMON = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)
ETA = ghz(0.1)
W_RES = omega_eg(TRANSMON, TRANSMON.phi_res)
S3 = 0.68 * math.pi / (3.0 * ETA)


def default_avg(s=S3, r=0.001):
    return AveragingParams(s, r)


# ---------------------------------------------------------------- grids

def test_make_grid_endpoints():
    g = make_grid(0.0, 1.0, 0.25)
    assert np.allclose(g, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_points_ceiling():
    top = MAX_GRID_POINTS
    assert grid_points(0.0, top - 1.0, 1.0) == top
    assert grid_points(0.0, 1.0, 0.25) == make_grid(0.0, 1.0, 0.25).size
    for hi, step in ((float(top), 1.0), (1.0, 1e-300), (1e308, 1e-10)):
        with pytest.raises(ValueError, match="limit of 1,000,000 points"):
            grid_points(0.0, hi, step)
        with pytest.raises(ValueError, match="limit of 1,000,000 points"):
            make_grid(0.0, hi, step)


def test_make_grid_rejects_empty_window():
    with pytest.raises(ValueError, match="empty grid"):
        make_grid(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        make_grid(2.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, -0.1)


def test_parse_scheme():
    assert parse_scheme("cw") is None
    assert parse_scheme("double") == 2
    assert parse_scheme("triple") == 3
    assert parse_scheme("general:5") == 5
    with pytest.raises(ValueError):
        parse_scheme("general:0")
    with pytest.raises(ValueError):
        parse_scheme("ramsey")
    # the order's moment torus would exceed MAX_GRID_POINTS
    with pytest.raises(ValueError, match="1 to 25 resonant segments, got 1000"):
        parse_scheme("general:1_000")


def test_pe_average_refuses_an_order_past_the_torus_bound():
    # refused before any moment table is built
    assert (4 * 25 + 1) ** 2 * (4 * 25 - 3) <= MAX_GRID_POINTS
    assert (4 * 26 + 1) ** 2 * (4 * 26 - 3) > MAX_GRID_POINTS
    with pytest.raises(ValueError, match="got 26"):
        pe_average(26, 1e9, 1.0, 1e9, AveragingParams(1e-9, 0.01))


# ------------------------------------------------------------- baseline

def test_cw_peak_and_half_values():
    grid = np.array([W_RES - 4 * ETA, W_RES - 2 * ETA, W_RES,
                     W_RES + 2 * ETA, W_RES + 4 * ETA])
    spec = sweep("cw", TRANSMON, ETA, grid, cw_amplitude=0.5)
    assert spec.p_e[2] == pytest.approx(0.5, rel=1e-14)
    # half maximum exactly two couplings away
    assert spec.p_e[1] == pytest.approx(0.25, rel=1e-14)
    assert spec.p_e[3] == pytest.approx(0.25, rel=1e-14)


def test_cw_symmetry():
    offsets = np.linspace(ghz(0.001), ghz(1.0), 400)
    left = sweep("cw", TRANSMON, ETA, np.sort(W_RES - offsets)).p_e[::-1]
    right = sweep("cw", TRANSMON, ETA, W_RES + offsets).p_e
    assert np.max(np.abs(left - right)) < 1e-12


def test_cw_fwhm_is_four_eta():
    grid = make_grid(W_RES - ghz(1.0), W_RES + ghz(1.0), ghz(0.001))
    m = metrics(sweep("cw", TRANSMON, ETA, grid))
    assert to_mhz(m.fwhm) == pytest.approx(400.0, abs=1.0)
    assert m.peak_omega == pytest.approx(W_RES, abs=ghz(0.001))


def test_cw_single_peaked_over_window():
    spec = sweep("cw", TRANSMON, ETA, make_grid(ghz(4.0), ghz(5.0), ghz(0.001)))
    p = spec.p_e
    maxima = np.sum((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]))
    assert maxima == 1


# -------------------------------------------------------------- metrics

def lorentzian_spectrum(step=ghz(0.0005), half_width=2 * ETA):
    grid = make_grid(W_RES - ghz(1.0), W_RES + ghz(1.0), step)
    p = half_width**2 / ((grid - W_RES) ** 2 + half_width**2)
    return Spectrum(grid, p, "cw")


def test_metrics_on_exact_lorentzian():
    step = ghz(0.0005)
    m = metrics(lorentzian_spectrum(step=step))
    assert abs(m.fwhm - 4 * ETA) < step
    assert m.peak_value == pytest.approx(1.0, abs=1e-6)


def test_metrics_scale_invariance():
    spec = lorentzian_spectrum()
    scaled = Spectrum(spec.omega, 0.5 * spec.p_e, spec.scheme_tag)
    a, b = metrics(spec), metrics(scaled)
    assert b.peak_omega == pytest.approx(a.peak_omega, rel=1e-12)
    assert b.fwhm == pytest.approx(a.fwhm, rel=1e-12)


def test_metrics_self_reference_shift():
    spec = lorentzian_spectrum()
    m = metrics(spec, reference=spec)
    assert abs(m.shift_vs_ref) < ghz(0.0005)


def test_metrics_boundary_peak_raises():
    grid = make_grid(W_RES, W_RES + ghz(1.0), ghz(0.01))
    spec = sweep("cw", TRANSMON, ETA, grid)
    with pytest.raises(NoPeakError):
        metrics(spec)


def test_metrics_needs_three_points():
    spec = Spectrum(np.array([1.0, 2.0]), np.array([0.1, 0.2]), "cw")
    with pytest.raises(NoPeakError):
        metrics(spec)


def test_metrics_missing_crossing_is_side_specific():
    # peak near the right edge: interior maximum but no right crossing
    grid = make_grid(W_RES - ghz(1.0), W_RES + ghz(0.05), ghz(0.01))
    spec = sweep("cw", TRANSMON, ETA, grid)
    with pytest.raises(NoCrossingError) as err:
        metrics(spec)
    assert err.value.side == "right"


def test_metrics_raises_when_the_peak_sample_ties_its_bracket():
    # the refined peak (3.025) puts the half level above the peak sample,
    # so the right bracket is the tie (1, 1) and the width was -inf; the
    # left bracket (0, 1) has the same peak sample inside and is refused
    # too, and the left side is searched first
    spec = Spectrum(np.array([0.0, 0.1, 1.0]), np.array([0.0, 1.0, 1.0]), "x")
    with pytest.raises(NoCrossingError, match="at or below the refined half") as err:
        metrics(spec)
    assert err.value.side == "left"


def test_metrics_raises_when_the_peak_sample_is_below_the_half_level():
    # the refined peak (2.998) puts the half level (1.499) above the peak
    # sample (1), and its outer neighbours are below it without a tie; the
    # bracket (0, 1) was extrapolated to a width of -4.54
    spec = Spectrum(np.array([0.0, 0.1, 1.0]), np.array([0.0, 1.0, 0.9]), "x")
    with pytest.raises(NoCrossingError, match="at or below the refined half") as err:
        metrics(spec)
    # both sides lack a crossing; the left one is reported
    assert err.value.side == "left"


def test_fwhm_converges_under_refinement():
    coarse_step = ghz(0.002)
    m1 = metrics(lorentzian_spectrum(step=coarse_step))
    m2 = metrics(lorentzian_spectrum(step=coarse_step / 2))
    assert abs(m1.fwhm - m2.fwhm) < coarse_step


# ---------------------------------------------------------------- sweep

def test_single_point_sweep_matches_scalar_average():
    grid = np.array([W_RES])
    spec = sweep("double", TRANSMON, ETA, grid, default_avg())
    drive = DriveParams(ETA, W_RES)
    q_res = regime_quantities(TRANSMON, drive, "resonant")
    q_disp = regime_quantities(TRANSMON, drive, "dispersive")
    assert spec.p_e[0] == pytest.approx(
        pe_average(2, q_res.lam, q_res.theta, q_disp.delta_d, default_avg()),
        rel=1e-12)
    assert q_res.delta == 0.0


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep("double", TRANSMON, ETA, np.array([]), default_avg())
    with pytest.raises(ValueError):
        sweep("double", TRANSMON, ETA, np.array([2.0, 1.0]) * W_RES,
              default_avg())
    with pytest.raises(ValueError):
        sweep("double", TRANSMON, ETA, np.array([W_RES]))  # avg missing


def test_sweep_domain_error_is_annotated():
    w_disp = omega_eg(TRANSMON, TRANSMON.phi_disp)
    grid = np.array([w_disp - ghz(0.01), w_disp, w_disp + ghz(0.01)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DomainError, match="GHz"):
            sweep("double", TRANSMON, ETA, grid, default_avg())


def test_sweep_warns_close_to_dispersive_splitting():
    w_disp = omega_eg(TRANSMON, TRANSMON.phi_disp)
    grid = make_grid(w_disp + ghz(0.2), w_disp + ghz(0.4), ghz(0.05))
    with pytest.warns(UserWarning, match="dispersive"):
        sweep("double", TRANSMON, ETA, grid, default_avg())


def test_grid_quantities_match_pointwise_route():
    # one function serves both routes, so they agree bit for bit
    rng = np.random.default_rng(42)
    grid = np.sort(rng.uniform(0.8, 1.2, size=30)) * W_RES
    lam, theta, delta_d = _grid_quantities(TRANSMON, ETA, grid)
    for i, w in enumerate(grid):
        drive = DriveParams(ETA, w)
        q_res = regime_quantities(TRANSMON, drive, "resonant")
        q_disp = regime_quantities(TRANSMON, drive, "dispersive")
        assert lam[i] == q_res.lam
        assert theta[i] == q_res.theta
        assert delta_d[i] == q_disp.delta_d


def test_grid_drive_rejects_non_positive_frequencies():
    for bad in (0.0, -W_RES, np.nan):
        grid = np.array([W_RES - ghz(0.1), bad, W_RES + ghz(0.1)])
        with pytest.raises(DomainError, match="probe frequency must be positive"):
            DriveParams(ETA, grid)
        with pytest.raises(DomainError, match="probe frequency must be positive"):
            _grid_quantities(TRANSMON, ETA, grid)


def test_numeric_two_segment_average_matches_closed_double():
    # the general-order moment sum against the exact closed-form average
    grid = make_grid(W_RES - ghz(0.5), W_RES + ghz(0.5), ghz(0.05))
    lam, theta, delta_d = _grid_quantities(TRANSMON, ETA, grid)
    closed = _pe_double_formula(lam, theta, 0.001 * delta_d, S3)
    numeric = _pe_grid_numeric(2, lam, theta, 0.001 * delta_d, S3)
    assert np.max(np.abs(closed - numeric)) < 1e-12


def test_tags_naming_the_same_train_give_identical_spectra():
    # the resonant-segment count alone picks the averaging
    grid = make_grid(W_RES - ghz(0.5), W_RES + ghz(0.5), ghz(0.05))
    for tag, general in (("double", "general:2"), ("triple", "general:3")):
        named = sweep(tag, TRANSMON, ETA, grid, default_avg())
        numbered = sweep(general, TRANSMON, ETA, grid, default_avg())
        assert np.array_equal(named.p_e, numbered.p_e)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 1.0]), np.array([0.1, 0.2]), "cw")
    with pytest.raises(ValueError):
        Spectrum(np.array([1.0, 2.0]), np.array([0.1, 1.5]), "cw")


def test_spectrum_rejects_nan_probabilities():
    with pytest.raises(ValueError, match="outside"):
        Spectrum(np.array([1.0, 2.0, 3.0, 4.0]),
                 np.array([0.1, np.nan, 0.2, 0.0]), "x")


def test_sweep_refined_merges_monotonically():
    spec = sweep_refined("double", TRANSMON, ETA, W_RES - ghz(1.0),
                         W_RES + ghz(1.0), ghz(0.005), ghz(0.0005),
                         default_avg())
    assert np.all(np.diff(spec.omega) > 0)
    # the fine region around the peak is actually finer than the coarse step
    m = metrics(spec)
    near = np.abs(spec.omega - m.peak_omega) < m.fwhm
    assert np.min(np.diff(spec.omega[near])) < ghz(0.001)


def test_triple_sweep_equals_the_sweeps_of_its_halves():
    # every grid point is averaged on its own, so splitting a grid changes
    # no value, not even in the last bit; an odd split point also shifts
    # each point's place relative to any vectorized block
    grid = make_grid(W_RES - ghz(0.3), W_RES + ghz(0.3), ghz(0.001))
    avg = AveragingParams(0.68 * math.pi / (2 * ETA), 0.045)
    whole = sweep("triple", TRANSMON, ETA, grid, avg)
    mid = (grid.size + 1) // 2
    halves = [sweep("triple", TRANSMON, ETA, part, avg).p_e
              for part in (grid[:mid], grid[mid:])]
    assert grid.size == 601
    assert np.array_equal(whole.p_e, np.concatenate(halves))


# the init template's window: 1 MHz coarse and 0.1 MHz fine steps
TEMPLATE_WINDOW = (ghz(3.5), ghz(5.5), ghz(0.001), ghz(0.0001))


def printed_metrics(m):
    return m.peak_omega, m.peak_value, m.fwhm, m.shift_vs_ref


@pytest.mark.parametrize("scheme", ["double", "triple", "general:4"])
def test_narrowed_sweep_gives_the_metrics_of_the_full_sweep(scheme):
    # k = 3, R = 0.0469 is the triple point where the half-maximum bracket
    # leaves the narrowed window, so it needs the whole fine grid
    cw = sweep_refined("cw", TRANSMON, ETA, *TEMPLATE_WINDOW)
    full_window = set()
    for k in (1.5, 2.0, 3.0, 4.5):
        for r in (0.0005, 0.0469, 0.1):
            avg = AveragingParams(0.68 * math.pi / (k * ETA), r)
            spec, full = sweep_narrowed(scheme, TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
            whole = sweep_refined(scheme, TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
            assert (printed_metrics(metrics(spec, reference=cw))
                    == printed_metrics(metrics(whole, reference=cw))), (k, r)
            if full:
                full_window.add((k, r))
                assert np.array_equal(spec.omega, whole.omega)
                assert np.array_equal(spec.p_e, whole.p_e)
            else:
                assert len(spec) < len(whole)
    if scheme == "triple":
        assert (3.0, 0.0469) in full_window
    assert len(full_window) <= 2


def passes(scheme, avg):
    """The coarse grid of a template-window sweep, its fine grid, and the
    narrowed span of that fine grid."""
    omega_min, omega_max, coarse_step, refine_step = TEMPLATE_WINDOW
    coarse_grid = make_grid(omega_min, omega_max, coarse_step)
    m = metrics(sweep(scheme, TRANSMON, ETA, coarse_grid, avg))
    fine_grid = make_grid(max(omega_min, m.peak_omega - 2 * m.fwhm),
                          min(omega_max, m.peak_omega + 2 * m.fwhm), refine_step)
    span = fine_grid[np.abs(fine_grid - m.peak_omega)
                     <= spectroscopy.NARROW_WIDTHS * m.fwhm]
    return coarse_grid, fine_grid, span


# k = 3, R = 0.0469 is the triple point that needs the whole fine grid
FALLBACK = ("triple", AveragingParams(0.68 * math.pi / (3.0 * ETA), 0.0469))


def test_fallback_averages_each_fine_point_once(monkeypatch):
    coarse_grid, fine_grid, _ = passes(*FALLBACK)
    grids = []
    plain = spectroscopy.sweep

    def recording(scheme, transmon, eta, grid, *args, **kwargs):
        grids.append(grid)
        return plain(scheme, transmon, eta, grid, *args, **kwargs)

    monkeypatch.setattr(spectroscopy, "sweep", recording)
    assert sweep_narrowed(FALLBACK[0], TRANSMON, ETA, *TEMPLATE_WINDOW,
                          FALLBACK[1])[1]
    # the coarse pass, the narrowed window, then the rest of the fine grid
    assert len(grids) == 3 and np.array_equal(grids[0], coarse_grid)
    assert fine_grid[0] < grids[1][0] and grids[1][-1] < fine_grid[-1]
    evaluated = np.concatenate(grids[1:])
    assert np.unique(evaluated).size == evaluated.size == fine_grid.size
    assert np.array_equal(np.sort(evaluated), fine_grid)


@pytest.mark.parametrize("scheme, avg, full", [
    ("double", default_avg(), False), (*FALLBACK, True)], ids=["kept", "fallback"])
def test_quantities_cover_only_the_averaged_frequencies(monkeypatch, scheme,
                                                        avg, full):
    # so the 10 eta warning and the dispersive DomainError name only them
    coarse_grid, fine_grid, span = passes(scheme, avg)
    grids = []
    plain = spectroscopy._grid_quantities

    def recording(transmon, eta, grid):
        grids.append(grid)
        return plain(transmon, eta, grid)

    monkeypatch.setattr(spectroscopy, "_grid_quantities", recording)
    assert sweep_narrowed(scheme, TRANSMON, ETA, *TEMPLATE_WINDOW, avg)[1] == full
    # the coarse pass, the narrowed span, then on fallback the rest
    assert len(grids) == (3 if full else 2)
    assert np.array_equal(grids[0], coarse_grid)
    assert np.array_equal(grids[1], span) and span.size < fine_grid.size
    fine = np.concatenate(grids[1:])
    assert np.unique(fine).size == fine.size
    assert np.array_equal(np.sort(fine), fine_grid if full else span)


@pytest.mark.parametrize("window, full", [
    # a refine step wider than the narrowed window leaves it no fine point
    ((ghz(3.5), ghz(5.5), ghz(0.001), ghz(1.0)), True),
    # a sweep window inside the narrowed window leaves nothing to skip
    ((ghz(4.3), ghz(4.7), ghz(0.001), ghz(0.0001)), False),
])
def test_narrowed_window_holding_none_or_all_of_the_fine_grid(window, full):
    spec, used_full = sweep_narrowed("double", TRANSMON, ETA, *window, default_avg())
    whole = sweep_refined("double", TRANSMON, ETA, *window, default_avg())
    assert used_full == full
    assert np.array_equal(spec.omega, whole.omega)
    assert np.array_equal(spec.p_e, whole.p_e)


def test_guard_falls_back_for_a_rise_between_coarse_samples(monkeypatch):
    # a tent between two coarse samples of a skipped region: they sit at 99 %
    # of the line's maximum, above the guard, and its tip at 102 % is the
    # maximum of the full fine pass, which the narrowed window never sees
    omega_min, omega_max, coarse_step, refine_step = TEMPLATE_WINDOW
    avg = default_avg()
    line = sweep_refined("double", TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
    m = metrics(line)
    top = line.p_e.max()
    coarse_grid = make_grid(omega_min, omega_max, coarse_step)
    tip = coarse_grid[coarse_grid > m.peak_omega + 1.3 * m.fwhm][0] + coarse_step / 2
    plain = spectroscopy.sweep

    def tented(scheme, transmon, eta, grid, *args, **kwargs):
        p = plain(scheme, transmon, eta, grid, *args, **kwargs).p_e
        tent = top * (1.02 - 0.06 * np.abs(grid - tip) / coarse_step)
        return Spectrum(grid, np.maximum(p, tent), scheme)

    assert not sweep_narrowed("double", TRANSMON, ETA, *TEMPLATE_WINDOW, avg)[1]
    monkeypatch.setattr(spectroscopy, "sweep", tented)
    spec, full = sweep_narrowed("double", TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
    whole = sweep_refined("double", TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
    assert full
    assert np.array_equal(spec.omega, whole.omega)
    assert np.array_equal(spec.p_e, whole.p_e)
    assert abs(metrics(whole).peak_omega - tip) < refine_step


def guard_inputs(fine, coarse_p):
    """The guard's narrowed curve, span, coarse pass and rest of the fine
    grid, for coarse samples ``coarse_p`` at 0, 1, ..., 10 and a fine grid
    at 0.1 steps over [3, 7] with values ``fine(w)``; [4, 6] is the span."""
    coarse = Spectrum(np.arange(11.0), coarse_p, "x")
    fine_grid = np.arange(30, 71) / 10
    near = np.abs(fine_grid - 5.0) <= 1.0
    span = fine_grid[near]
    spec = spectroscopy._merged(coarse, Spectrum(span, fine(span), "x"))
    return spec, span, coarse, fine_grid[~near]


def narrow_line(w):
    return 0.5 / (1.0 + 4.0 * (w - 5.0) ** 2)


def test_guard_refuses_a_maximum_outside_the_narrowed_span():
    # a coarse sample at 1 lies above every fine sample, so metrics read the
    # peak where the narrowed pass averaged nothing
    coarse_p = narrow_line(np.arange(11.0))
    coarse_p[1] = 0.9
    spec, span, coarse, rest = guard_inputs(narrow_line, coarse_p)
    assert abs(metrics(spec).peak_omega - 1.0) < 0.5
    assert not spectroscopy._narrowed_holds(spec, span, coarse, rest, 0.0)


def test_guard_refuses_a_curve_without_a_half_maximum_crossing():
    # right of its peak the line stays above half maximum out to the end of
    # the coarse pass, so metrics find no right bracket
    def shoulder(w):
        return np.where(w <= 5.0, narrow_line(w), 0.5 - 0.005 * (w - 5.0) ** 2)

    spec, span, coarse, rest = guard_inputs(shoulder, shoulder(np.arange(11.0)))
    with pytest.raises(NoCrossingError) as err:
        metrics(spec)
    assert err.value.side == "right"
    assert not spectroscopy._narrowed_holds(spec, span, coarse, rest, 0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n_res=st.integers(2, 6), k=st.floats(1.0, 5.0),
       log_r=st.floats(math.log(1e-4), math.log(0.3)),
       phi_disp=st.floats(0.47, 0.495), offset_ghz=st.floats(-1.0, 0.5))
def test_rise_rate_bounds_the_sampled_slope(n_res, k, log_r, phi_disp, offset_ghz):
    # the bound that lets the narrowed pass skip fine samples, against the
    # steepest slope between the 0.05 MHz samples of a 100 MHz window
    transmon = TransmonParams.from_ghz(0.5, 100.0, 0.46, phi_disp)
    grid = make_grid(W_RES + ghz(offset_ghz), W_RES + ghz(offset_ghz + 0.1),
                     ghz(0.00005))
    assume(not grid[0] <= omega_eg(transmon, phi_disp) <= grid[-1])
    avg = AveragingParams(0.68 * math.pi / (k * ETA), math.exp(log_r))
    with warnings.catch_warnings():
        # windows within 10 eta of the dispersive splitting warn
        warnings.filterwarnings("ignore", ".* of the dispersive-bias splitting",
                                UserWarning)
        p = sweep(f"general:{n_res}", transmon, ETA, grid, avg).p_e
    slope = np.max(np.abs(np.diff(p)) / np.diff(grid))
    assert slope <= spectroscopy._rise_rate(n_res, transmon, ETA, avg,
                                            grid[0], grid[-1])


# ------------------------------------------------------ fringe behavior

def test_double_fringes_suppressed_quick():
    spec = sweep_refined("double", TRANSMON, ETA, ghz(3.5), ghz(5.5),
                         ghz(0.002), ghz(0.0005), default_avg())
    m = metrics(spec)
    big = [f for f in m.fringes
           if abs(f[0] - m.peak_omega) <= ghz(1.0) and f[1] >= 0.05 * m.peak_value]
    assert big == []


def test_triple_has_fringes_quick():
    avg = AveragingParams(0.68 * math.pi / (2 * ETA), 0.045)
    spec = sweep_refined("triple", TRANSMON, ETA, ghz(3.5), ghz(5.5),
                         ghz(0.002), ghz(0.001), avg)
    m = metrics(spec)
    assert len(m.fringes) >= 1
    assert all(h < m.peak_value for _, h in m.fringes)


# ------------------------------------------- metrics against the loop

def _loop_crossing(x, y, i_peak, level, side) -> float:
    step = -1 if side == "left" else 1
    j = i_peak
    while 0 <= j + step < len(y) and y[j + step] > level:
        j += step
    k = j + step
    if k < 0 or k >= len(y):
        raise NoCrossingError(side)
    if not y[j] > level:
        # the walk never left the peak sample, which is not above the level
        raise NoCrossingError(side, "the peak sample is at or below the "
                                    "refined half maximum")
    t = (level - y[k]) / (y[j] - y[k])
    return float(x[k] + t * (x[j] - x[k]))


def loop_metrics(spec):
    """The sample-by-sample walk and fringe scan that ``metrics`` replaced,
    kept as its reference (the shift against a reference is unchanged)."""
    i, peak_w, peak_v = _peak(spec)
    half = peak_v / 2.0
    left = _loop_crossing(spec.omega, spec.p_e, i, half, "left")
    right = _loop_crossing(spec.omega, spec.p_e, i, half, "right")

    w, p = spec.omega, spec.p_e
    fringes = []
    for k in range(1, len(p) - 1):
        if not (p[k] > p[k - 1] and p[k] > p[k + 1]):
            continue
        if left <= w[k] <= right:
            continue
        if p[k] >= FRINGE_THRESHOLD * peak_v:
            fringes.append((float(w[k]), float(p[k])))

    return SpectrumMetrics(peak_w, peak_v, right - left, None, fringes)


@st.composite
def metric_curves(draw):
    """Non-uniform grids with plateaus and ties, peaks next to the edges
    and secondary maxima at the fringe threshold."""
    n = draw(st.integers(3, 40))
    gaps = draw(st.lists(st.floats(0.01, 10.0), min_size=n - 1, max_size=n - 1))
    w = np.cumsum([draw(st.floats(-100.0, 100.0))] + gaps)
    if draw(st.booleans()):
        levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        values = st.sampled_from(levels)
    else:
        values = st.floats(0.0, 1.0)
    p = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    edge = draw(st.sampled_from([None, 1, n - 2]))
    if edge is not None:
        p[edge] = 1.0
    i = int(np.argmax(p))
    if not 0 < i < n - 1:
        return Spectrum(w, p, "x")
    peak_v = _parabolic_peak(w, p, i)[1]
    # samples off the peak's three leave the refined peak unchanged
    off = [k for k in range(n) if abs(k - i) >= 2]
    if off and peak_v / 2 < p[i] and draw(st.booleans()):
        # a sample exactly at the half level, where the crossing search stops
        p[draw(st.sampled_from(off))] = peak_v / 2
    away = [k for k in range(1, n - 1) if abs(k - i) >= 3]
    if away and draw(st.booleans()):
        # a fringe at the threshold, one ulp below it or one ulp above it
        threshold = FRINGE_THRESHOLD * peak_v
        k = draw(st.sampled_from(away))
        target = threshold + draw(st.sampled_from([-1, 0, 1])) * np.spacing(threshold)
        if 0.0 <= target < p[i]:
            p[k] = target
            p[k - 1] = min(p[k - 1], target / 2)
            p[k + 1] = min(p[k + 1], target / 2)
    return Spectrum(w, p, "x")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spec=metric_curves())
def test_metrics_equals_the_loop_version(spec):
    try:
        with np.errstate(divide="raise", invalid="raise"):
            want = loop_metrics(spec)
    except MetricsError as err:
        with pytest.raises(type(err)) as got:
            metrics(spec)
        assert type(got.value) is type(err)
        assert getattr(got.value, "side", None) == getattr(err, "side", None)
        assert ("at or below the refined half" in str(got.value)) == (
            "at or below the refined half" in str(err))
        return
    assert repr(metrics(spec)) == repr(want)
    assert want.fwhm > 0
