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
from ramseybias.averaging import RANGE_TOL, _pe_double_formula, _pe_grid_numeric
from ramseybias.spectroscopy import (FRINGE_THRESHOLD, MAX_GRID_POINTS,
                                     _grid_quantities, _parabolic_peak, _peak,
                                     grid_points, parse_scheme, sweep_narrowed)
from ramseybias.units import ghz, to_ghz, to_mhz

TRANSMON = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)
ETA = ghz(0.1)
W_RES = omega_eg(TRANSMON, TRANSMON.phi_res)
S3 = 0.68 * math.pi / (3.0 * ETA)


def default_avg(s=S3, r=0.001, k=None):
    return AveragingParams(s if k is None else 0.68 * math.pi / (k * ETA), r)


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


@pytest.mark.parametrize("top", [1.0, 2 * math.pi * 4.5e9, 2.0**52 + 6.0,
                                 2 * math.pi * 1e22, 1e300, 2.0**40 - 2.0**-12])
def test_every_accepted_grid_is_strictly_increasing(top):
    # steps from half a spacing of doubles at the window top to four: a
    # step up to two spacings is refused, and every grid accepted is
    # strictly increasing. Just below a power of two the spacing doubles
    # past the top, so there steps up to four spacings are refused.
    spacing = math.ulp(top)
    binade_edge = math.ulp(top + 4 * spacing) > spacing
    accepted = 0
    for factor in np.arange(0.5, 4.01, 0.25):
        step = factor * spacing
        for count in (1, 2, 3, 10, 997):
            lo = top - count * step
            if lo == top:
                continue  # a window of half a spacing rounds away
            try:
                grid = make_grid(lo, top, step)
            except ValueError as exc:
                assert "spacing of doubles" in str(exc)
                continue
            assert factor > (4 if binade_edge else 2)
            assert np.all(np.diff(grid) > 0)
            accepted += 1
    assert accepted == (0 if binade_edge else 8 * 5)


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
    for tag in ("general:abc", "general:", "general:2.5"):
        with pytest.raises(ValueError, match=rf"^expected general:<n> with an "
                                             rf"integer n, got '{tag}'$"):
            parse_scheme(tag)
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


@pytest.mark.parametrize("p", [[0.5, 0.5, 0.5], [0.7, 0.2, 0.9]])
def test_parabolic_peak_keeps_the_sample_without_downward_curvature(p):
    # a flat or upward parabola has no maximum to refine to
    x = np.array([1.0, 1.5, 3.0])
    assert _parabolic_peak(x, np.array(p), 1) == (1.5, p[1])


def test_fwhm_converges_under_refinement():
    coarse_step = ghz(0.002)
    m1 = metrics(lorentzian_spectrum(step=coarse_step))
    m2 = metrics(lorentzian_spectrum(step=coarse_step / 2))
    assert abs(m1.fwhm - m2.fwhm) < coarse_step


# ---------------------------------------------------------------- sweep

def test_single_point_sweep_matches_scalar_average():
    grid = np.array([W_RES])
    spec = sweep("double", TRANSMON, ETA, grid, default_avg())
    _, q_res, q_disp = regime_quantities(TRANSMON, ETA, W_RES)
    assert spec.p_e[0] == pytest.approx(
        pe_average(2, q_res.lam, q_res.theta, q_disp.delta_d, default_avg()),
        rel=1e-12)
    assert q_res.delta == 0.0


def test_sweep_grid_validation():
    with pytest.raises(ValueError, match="empty grid"):
        sweep("double", TRANSMON, ETA, np.array([]), default_avg())
    # a decreasing grid is averaged, then refused by its Spectrum; a
    # non-positive or NaN frequency is refused by DriveParams first
    for scheme in ("cw", "double"):
        with pytest.raises(ValueError, match="omega grid must be strictly increasing"):
            sweep(scheme, TRANSMON, ETA, np.array([2.0, 1.0]) * W_RES,
                  default_avg())
        for bad in (np.nan, -W_RES):
            with pytest.raises(DomainError, match="probe frequency must be positive"):
                sweep(scheme, TRANSMON, ETA, np.array([W_RES, bad]), default_avg())
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
        _, q_res, q_disp = regime_quantities(TRANSMON, ETA, w)
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
    for omega, p_e in ((np.array([1.0, 2.0]), np.array([0.1])),
                       (np.ones((2, 2)), np.ones((2, 2)))):
        with pytest.raises(ValueError, match="1-d arrays of equal length"):
            Spectrum(omega, p_e, "cw")
    with pytest.raises(ValueError, match="empty grid"):
        Spectrum(np.array([]), np.array([]), "cw")
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


def assert_same_spectrum(spec, whole):
    assert np.array_equal(spec.omega, whole.omega)
    assert np.array_equal(spec.p_e, whole.p_e)


@pytest.mark.parametrize("scheme", ["double", "triple", "general:4"])
def test_narrowed_sweep_gives_the_metrics_of_the_full_sweep(scheme):
    # k = 3, R = 0.0469 is the triple point whose half-maximum bracket left
    # the fixed window of earlier designs; no point here needs a fallback,
    # which the close-splitting cases below force
    cw = sweep_refined("cw", TRANSMON, ETA, *TEMPLATE_WINDOW)
    for k in (1.5, 2.0, 3.0, 4.5):
        for r in (0.0005, 0.0469, 0.1):
            avg = AveragingParams(0.68 * math.pi / (k * ETA), r)
            spec, full = sweep_narrowed(scheme, TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
            whole = sweep_refined(scheme, TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
            assert (printed_metrics(metrics(spec, reference=cw))
                    == printed_metrics(metrics(whole, reference=cw))), (k, r)
            assert not full and len(spec) < len(whole)


def passes(scheme, avg, transmon=TRANSMON):
    """The coarse grid and the fine grid of a template-window sweep."""
    omega_min, omega_max, coarse_step, refine_step = TEMPLATE_WINDOW
    coarse_grid = make_grid(omega_min, omega_max, coarse_step)
    m = metrics(sweep(scheme, transmon, ETA, coarse_grid, avg))
    fine_grid = make_grid(max(omega_min, m.peak_omega - 2 * m.fwhm),
                          min(omega_max, m.peak_omega + 2 * m.fwhm), refine_step)
    return coarse_grid, fine_grid


# with the dispersive splitting at 3.84 GHz, the fine grid of the k = 2,
# R = 0.001 double line reaches past it, and no rise bound holds there
CLOSE = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.47)
FALLBACK = ("double", AveragingParams(0.68 * math.pi / (2.0 * ETA), 0.001))


def recorded_grids(monkeypatch, name):
    """The grids passed to ``spectroscopy.<name>`` from now on."""
    grids = []
    plain = getattr(spectroscopy, name)

    def recording(*args, **kwargs):
        grids.append(args[2] if name == "_grid_quantities" else args[3])
        return plain(*args, **kwargs)

    monkeypatch.setattr(spectroscopy, name, recording)
    return grids


@pytest.mark.filterwarnings("ignore:.* of the dispersive-bias splitting")
def test_fallback_averages_each_fine_point_once(monkeypatch):
    scheme, avg = FALLBACK
    coarse_grid, fine_grid = passes(scheme, avg, CLOSE)
    grids = recorded_grids(monkeypatch, "sweep")
    spec, full = sweep_narrowed(scheme, CLOSE, ETA, *TEMPLATE_WINDOW, avg)
    # no bound: the coarse pass, then the whole fine grid at once
    assert full and len(grids) == 2
    assert np.array_equal(grids[0], coarse_grid)
    assert np.array_equal(grids[1], fine_grid)
    assert_same_spectrum(spec, sweep_refined(scheme, CLOSE, ETA, *TEMPLATE_WINDOW, avg))

    # a refused certificate: the coarse pass, the kept cells, then the rest
    grids.clear()
    monkeypatch.setattr(spectroscopy, "_certified", lambda *args: False)
    avg = default_avg()
    coarse_grid, fine_grid = passes("double", avg)
    spec, full = sweep_narrowed("double", TRANSMON, ETA, *TEMPLATE_WINDOW, avg)
    assert full and len(grids) == 3 and np.array_equal(grids[0], coarse_grid)
    assert fine_grid[0] < grids[1][0] and grids[1][-1] < fine_grid[-1]
    evaluated = np.concatenate(grids[1:])
    assert np.unique(evaluated).size == evaluated.size == fine_grid.size
    assert np.array_equal(np.sort(evaluated), fine_grid)
    assert_same_spectrum(spec, sweep_refined("double", TRANSMON, ETA,
                                             *TEMPLATE_WINDOW, avg))


def lorentz_windows(rng):
    """Seeded sweep windows of a Lorentzian of half width g: (omega_min,
    omega_max, coarse_step, refine_step, w0, g). The first ones step in
    powers of two with the peak within four half widths of omega_min, so the
    fine grid starts at omega_min and shares points with the coarse grid."""
    for n in range(24):
        g = rng.uniform(0.5, 2.0)
        if n < 8:
            coarse_step = 2.0 ** -int(rng.integers(2, 6))
            refine_step = coarse_step / 2 ** int(rng.integers(1, 5))
            omega_min = float(rng.integers(1, 100))
            w0 = omega_min + rng.uniform(1.5, 3.5) * g
        else:
            coarse_step = g / rng.uniform(8.0, 40.0)
            refine_step = coarse_step / rng.uniform(0.7, 30.0)
            omega_min = rng.uniform(1.0, 100.0)
            w0 = omega_min + rng.uniform(1.5, 12.0) * g
        yield omega_min, w0 + rng.uniform(1.5, 12.0) * g, coarse_step, refine_step, w0, g


def test_each_fine_point_is_averaged_in_the_cell_of_its_coarse_samples(monkeypatch):
    # a Lorentzian stands in for the averaged line, with its own slope bound;
    # a refused certificate makes the narrowed pass average the rest too
    shared = refused = 0
    for omega_min, omega_max, coarse_step, refine_step, w0, g in lorentz_windows(
            np.random.default_rng(2024)):
        grids, masks = [], []

        def lorentzian(scheme, transmon, eta, grid, *args, **kwargs):
            grids.append(grid)
            return Spectrum(grid, 0.5 / (1.0 + ((grid - w0) / g) ** 2), scheme)

        def refuse(spec, edges, upper, lower, skipped):
            masks.append(skipped)
            return False

        monkeypatch.setattr(spectroscopy, "sweep", lorentzian)
        monkeypatch.setattr(spectroscopy, "_rise_rate", lambda *args: 0.4 / g)
        monkeypatch.setattr(spectroscopy, "_certified", refuse)
        spec, full = sweep_narrowed("double", TRANSMON, ETA, omega_min, omega_max,
                                    coarse_step, refine_step, default_avg())
        coarse = grids[0]
        m = metrics(Spectrum(coarse, 0.5 / (1.0 + ((coarse - w0) / g) ** 2), "x"))
        lo = max(omega_min, m.peak_omega - 2.0 * m.fwhm)
        fine_grid = make_grid(lo, min(omega_max, m.peak_omega + 2.0 * m.fwhm),
                              refine_step)
        skipped = masks[0] if masks else np.zeros(coarse.size - 1, dtype=bool)
        # by brute force: the cell of each fine point, and whether it is skipped
        cell = np.searchsorted(coarse, fine_grid, side="right") - 1
        rest = np.append(skipped, False)[cell]
        assert np.array_equal(grids[1], fine_grid[~rest])
        assert full == bool(masks) == (len(grids) == 3)
        if full:
            assert skipped.any() and np.array_equal(grids[2], fine_grid[rest])
        # kept and rest are the fine grid bit for bit, each point averaged once
        averaged = np.concatenate(grids[1:])
        assert np.array_equal(np.sort(averaged), fine_grid)
        assert np.unique(averaged).size == averaged.size
        assert np.all(np.isin(coarse, spec.omega)) and np.all(np.isin(fine_grid, spec.omega))
        shared += lo == omega_min and np.isin(fine_grid, coarse).sum() > 1
        refused += full
    assert shared >= 8 and refused >= 20


@pytest.mark.filterwarnings("ignore:.* of the dispersive-bias splitting")
@pytest.mark.parametrize("transmon, scheme, avg, full", [
    (TRANSMON, "double", default_avg(), False), (CLOSE, *FALLBACK, True)],
    ids=["kept", "fallback"])
def test_quantities_cover_only_the_averaged_frequencies(monkeypatch, transmon,
                                                        scheme, avg, full):
    # so the 10 eta warning and the dispersive DomainError name only them
    coarse_grid, fine_grid = passes(scheme, avg, transmon)
    grids = recorded_grids(monkeypatch, "_grid_quantities")
    assert sweep_narrowed(scheme, transmon, ETA, *TEMPLATE_WINDOW, avg)[1] == full
    # the coarse pass, then the kept cells or, without a bound, every cell
    assert len(grids) == 2
    assert np.array_equal(grids[0], coarse_grid)
    if full:
        assert np.array_equal(grids[1], fine_grid)
    else:
        # some 600 of the 12,500 fine points
        assert np.all(np.isin(grids[1], fine_grid)) and grids[1].size < fine_grid.size / 10
        assert np.all(np.diff(grids[1]) > 0)


@pytest.mark.filterwarnings("ignore:.* of the dispersive-bias splitting")
@pytest.mark.parametrize("transmon, window, full", [
    # the fine grid reaches past the dispersive splitting: every fine point
    (CLOSE, TEMPLATE_WINDOW, True),
    # a refine step wider than a coarse cell: no fine point at all
    (TRANSMON, (ghz(3.5), ghz(5.5), ghz(0.001), ghz(1.0)), False),
], ids=["window0-True", "window1-False"])
def test_narrowed_window_holding_none_or_all_of_the_fine_grid(transmon, window, full):
    spec, used_full = sweep_narrowed("double", transmon, ETA, *window, default_avg(k=2.0))
    whole = sweep_refined("double", transmon, ETA, *window, default_avg(k=2.0))
    assert used_full == full
    if full:
        assert_same_spectrum(spec, whole)
    else:
        assert np.array_equal(spec.omega, make_grid(*window[:3]))
        assert printed_metrics(metrics(spec)) == printed_metrics(metrics(whole))


CW_LINES = {}


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(scheme=st.sampled_from(["double", "triple", "general:4"]),
       k=st.floats(1.5, 4.5), log_r=st.floats(math.log(5e-4), math.log(0.1)),
       case=st.sampled_from(["bound", "no bound", "small bound"]))
def test_sparse_pass_prints_the_metrics_of_the_full_sweep(scheme, k, log_r, case):
    # "no bound" puts the dispersive splitting near the line, where the rise
    # bound is infinite over every fine grid that reaches it; "small bound"
    # shrinks the bound below the curve's own slope, so the coarse steps
    # break it. Either way the whole fine grid must be averaged
    transmon = CLOSE if case == "no bound" else TRANSMON
    avg = AveragingParams(0.68 * math.pi / (k * ETA), math.exp(log_r))
    with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
        warnings.filterwarnings("ignore", ".* of the dispersive-bias splitting",
                                UserWarning)
        if transmon not in CW_LINES:
            CW_LINES[transmon] = sweep_refined("cw", transmon, ETA, *TEMPLATE_WINDOW)
        cw = CW_LINES[transmon]
        whole = sweep_refined(scheme, transmon, ETA, *TEMPLATE_WINDOW, avg)
        if case == "small bound":
            rate = spectroscopy._rise_rate
            patch.setattr(spectroscopy, "_rise_rate", lambda *args: 1e-3 * rate(*args))
        spec, full = sweep_narrowed(scheme, transmon, ETA, *TEMPLATE_WINDOW, avg)
        fine_grid = passes(scheme, avg, transmon)[1]
    assert (printed_metrics(metrics(spec, reference=cw))
            == printed_metrics(metrics(whole, reference=cw)))
    split = omega_eg(transmon, transmon.phi_disp)
    if case == "small bound" or fine_grid[0] <= split <= fine_grid[-1]:
        assert full
    if full:
        assert_same_spectrum(spec, whole)
    else:
        assert len(spec) < len(whole)


def test_sweep_window_inside_the_fine_window_gives_the_metrics_of_the_full_sweep():
    # the fine grid is the whole 4.3 to 4.7 GHz window, and still only the
    # cells that metrics read are averaged
    window = (ghz(4.3), ghz(4.7), ghz(0.001), ghz(0.0001))
    spec, full = sweep_narrowed("double", TRANSMON, ETA, *window, default_avg())
    whole = sweep_refined("double", TRANSMON, ETA, *window, default_avg())
    assert not full and len(spec) < len(whole) / 4
    assert printed_metrics(metrics(spec)) == printed_metrics(metrics(whole))


def test_cw_line_is_never_narrowed():
    # the rise bound has no cw form, so the whole fine grid is averaged in
    # one pass, as by sweep_refined, and that is no fallback
    spec, full = sweep_narrowed("cw", TRANSMON, ETA, *TEMPLATE_WINDOW, None)
    whole = sweep_refined("cw", TRANSMON, ETA, *TEMPLATE_WINDOW)
    assert full is False and spec.scheme_tag == "cw"
    assert_same_spectrum(spec, whole)


@pytest.mark.parametrize("scheme", ["cw", "double"])
def test_coarse_metrics_error_names_the_scheme(scheme):
    # the 400 MHz wide cw line has no right crossing below 4.68 GHz, and the
    # 306 MHz double line none below 4.52 GHz
    window = (ghz(3.5), ghz(4.68) if scheme == "cw" else ghz(4.52), ghz(0.001),
              ghz(0.0001))
    with pytest.raises(NoCrossingError,
                       match=f"^{scheme} curve: no half-maximum crossing on the "
                             "right side$") as err:
        sweep_refined(scheme, TRANSMON, ETA, *window, default_avg())
    assert err.value.side == "right"


def test_guard_falls_back_for_a_rise_between_coarse_samples(monkeypatch):
    # a tent between two coarse samples of a skipped region: they sit at 99 %
    # of the line's maximum, and its tip at 102 % is the maximum of the full
    # fine pass. Its sides are steeper than the rise bound, so the coarse
    # steps around it break the bound and the whole fine grid is averaged
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
    assert_same_spectrum(spec, whole)
    assert abs(metrics(whole).peak_omega - tip) < refine_step


def guard_inputs(fine, coarse_p, averaged):
    """A curve of coarse samples ``coarse_p`` at 0, 1, ..., 10 and of fine
    samples ``fine(w)`` at 0.1 steps in the coarse cells listed in
    ``averaged``, and the mask of the other cells, whose fine samples over
    [2, 8] it skips."""
    coarse = Spectrum(np.arange(11.0), coarse_p, "x")
    fine_grid = np.arange(20, 81) / 10
    held = np.isin(np.floor(fine_grid), averaged)
    spec = spectroscopy._merged(coarse, Spectrum(fine_grid[held], fine(fine_grid[held]), "x"))
    skipped = np.zeros(10, dtype=bool)
    skipped[2:8] = ~np.isin(np.arange(2, 8), averaged)
    return spec, coarse, skipped


def certified(spec, coarse, skipped, rise):
    """``_certified`` on the cell bounds that ``_two_stage`` derives from a
    rise of at most ``rise`` over each coarse cell."""
    mid = coarse.p_e[:-1] + coarse.p_e[1:]
    return spectroscopy._certified(spec, coarse.omega, (mid + rise) / 2.0 + RANGE_TOL,
                                   (mid - rise) / 2.0 - RANGE_TOL, skipped)


def narrow_line(w):
    return 0.5 / (1.0 + 4.0 * (w - 5.0) ** 2)


def test_guard_keeps_a_curve_whose_skipped_cells_cannot_matter():
    # bound 0.05 per cell: the skipped cells [2, 4] and [6, 8] lie below the
    # 0.1 of narrow_line at 4 and 6, under the half level, and outside the
    # brackets, which end at 4.4 and 5.6
    spec, coarse, skipped = guard_inputs(narrow_line, narrow_line(np.arange(11.0)), [4, 5])
    assert certified(spec, coarse, skipped, 0.05)
    full = spectroscopy._merged(spec, Spectrum(np.arange(20, 81) / 10,
                                               narrow_line(np.arange(20, 81) / 10), "x"))
    assert printed_metrics(metrics(spec)) == printed_metrics(metrics(full))


def test_guard_refuses_a_maximum_outside_the_narrowed_span():
    # coarse samples at 6 and 7 sit at 0.45: with a bound of 0.2 per cell
    # the skipped cell between them may reach 0.55, above the 0.5 maximum
    coarse_p = narrow_line(np.arange(11.0))
    coarse_p[6:8] = 0.45
    spec, coarse, skipped = guard_inputs(narrow_line, coarse_p, [4, 5])
    assert metrics(spec).peak_value == pytest.approx(0.5, abs=1e-3)
    assert not certified(spec, coarse, skipped, 0.2)
    assert certified(spec, coarse, skipped, 0.05)


def test_guard_refuses_a_skipped_cell_that_may_meet_the_half_level():
    # right of the peak the curve rests at 0.3 out to 8, so the right bracket
    # ends at the coarse sample 8 and the skipped cell [6, 7] lies inside it.
    # A bound of 0.15 lets that cell dip to 0.225, under the half level of
    # 0.25, yet not rise to the 0.5 maximum
    def shoulder(w):
        return np.where(w < 5.0, narrow_line(w),
                        np.where(w < 8.0, np.maximum(narrow_line(w), 0.3), 0.1))

    spec, coarse, skipped = guard_inputs(shoulder, shoulder(np.arange(11.0)), [4, 5, 7])
    k, _ = spectroscopy._bracket(spec.p_e, int(np.argmax(spec.p_e)),
                                 metrics(spec).peak_value / 2, "right")
    assert spec.omega[k] == 8.0 and skipped[6]
    assert not certified(spec, coarse, skipped, 0.15)
    assert certified(spec, coarse, skipped, 0.05)


def test_guard_refuses_a_skipped_cell_inside_a_bracket():
    # the curve falls from 0.45 to 0.1 inside the skipped cell [6, 7], so the
    # right bracket is that cell's two coarse samples. A bound of 0.01 keeps
    # the cell above the half level and below the maximum, but the bracket
    # of the full curve lies between fine samples of the cell
    def step_down(w):
        return np.where(w < 5.0, narrow_line(w),
                        np.where(w < 6.5, np.maximum(narrow_line(w), 0.45), 0.1))

    spec, coarse, skipped = guard_inputs(step_down, step_down(np.arange(11.0)), [4, 5])
    k, j = spectroscopy._bracket(spec.p_e, int(np.argmax(spec.p_e)),
                                 metrics(spec).peak_value / 2, "right")
    assert (spec.omega[j], spec.omega[k]) == (6.0, 7.0) and skipped[6]
    assert not certified(spec, coarse, skipped, 0.01)
    fine_grid = np.arange(20, 81) / 10
    full = spectroscopy._merged(spec, Spectrum(fine_grid, step_down(fine_grid), "x"))
    assert metrics(full).fwhm < metrics(spec).fwhm


def test_guard_refuses_a_curve_without_a_half_maximum_crossing():
    # right of its peak the line stays above half maximum out to the end of
    # the coarse pass, so metrics find no right bracket
    def shoulder(w):
        return np.where(w <= 5.0, narrow_line(w), 0.5 - 0.005 * (w - 5.0) ** 2)

    spec, coarse, skipped = guard_inputs(shoulder, shoulder(np.arange(11.0)), [4, 5])
    with pytest.raises(NoCrossingError) as err:
        metrics(spec)
    assert err.value.side == "right"
    assert not certified(spec, coarse, skipped, 0.0)


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


def toy_curve(kind, centre, g, size, h):
    """A pointwise toy line ``fine(grid) -> Spectrum`` and the exact bound
    on its slope. Built from arithmetic alone, each value is the same bit
    for bit in any grid. A Lorentzian a / (1 + x^2), x = (w - w0)/g, rises
    at most 3 sqrt(3) a / (8 g); a plateau of height a between the steps
    (1 -+ x / (1 + |x|)) / 2 at most a / g."""
    if kind == "lorentzians":
        # one to three, spaced by three widths, each lower and wider
        peaks = [(centre + 3.0 * g * q, h / (q + 1.0), g * (1.0 + q / 2.0))
                 for q in range(size)]
        plateaus = []
    elif kind == "twins":
        # the second peak lower by a relative 1e-6 to 1e-3
        peaks = [(centre, 0.5, g), (centre + size * g, 0.5 * (1.0 - h), g)]
        plateaus = []
    else:
        # a plateau near the half level on the right flank, some widths long
        peaks, plateaus = [(centre, 0.5, g)], [(centre + g, 0.25 * h, g / 2.0, size * g)]
    norm = sum(a for _, a, _ in peaks) + sum(a for _, a, _, _ in plateaus)

    def step(grid, w0, width):
        x = (grid - w0) / width
        return 0.5 - 0.5 * x / (1.0 + np.abs(x))

    def fine(grid):
        p = np.zeros_like(grid)
        for w0, a, width in peaks:
            x = (grid - w0) / width
            p += a / (1.0 + x * x)
        for w0, a, width, length in plateaus:
            p += a * (step(grid, w0 + length, width) - step(grid, w0, width))
        return Spectrum(grid, p / norm, "toy")

    bound = (sum(3.0 * math.sqrt(3.0) * a / (8.0 * width) for _, a, width in peaks)
             + sum(a / width for _, a, width, _ in plateaus)) / norm
    return fine, bound


TOY_CASES = st.one_of(
    st.tuples(st.just("lorentzians"), st.integers(1, 3), st.floats(0.3, 1.0)),
    st.tuples(st.just("twins"), st.floats(2.5, 6.0), st.floats(1e-6, 1e-3)),
    st.tuples(st.just("shoulder"), st.floats(2.0, 5.0), st.floats(0.7, 1.3)))
# a fixed reference line with its peak at 47.5, for the shift
TOY_REFERENCE = Spectrum(np.arange(101.0), 1.0 / (1.0 + (np.arange(101.0) - 47.5) ** 2),
                         "reference")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=TOY_CASES, centre=st.floats(30.0, 50.0), g=st.floats(0.5, 2.0),
       cells_per_width=st.floats(3.0, 30.0), fine_per_cell=st.floats(1.5, 20.0))
def test_narrowing_by_an_exact_bound_keeps_the_metrics(case, centre, g,
                                                       cells_per_width, fine_per_cell):
    # no monkeypatching: _two_stage takes the curve and its bound
    fine, bound = toy_curve(case[0], centre, g, *case[1:])
    window = (10.0, 90.0, g / cells_per_width, g / cells_per_width / fine_per_cell)
    whole, full = spectroscopy._two_stage(fine, *window)
    assert full is False
    # an infinite bound, or one that the coarse steps break, falls back
    for scale in (1.0, math.inf, 1e-3):
        spec, full = spectroscopy._two_stage(fine, *window,
                                             lambda lo, hi, scale=scale: scale * bound)
        assert (printed_metrics(metrics(spec, reference=TOY_REFERENCE))
                == printed_metrics(metrics(whole, reference=TOY_REFERENCE)))
        if full:
            assert_same_spectrum(spec, whole)
        else:
            assert scale == 1.0 and len(spec) <= len(whole)
            assert np.all(np.isin(spec.omega, whole.omega))


def test_merged_keeps_the_first_pass_on_equal_frequencies():
    # each pass draws from a random run of one pool of frequencies, so the
    # two share some, interleave, or lie wholly apart
    rng = np.random.default_rng(33)
    apart = 0

    def draw(pool, tag):
        lo, hi = np.sort(rng.integers(0, pool.size, 2)) + (0, 1)
        w = np.unique(rng.choice(pool[lo:hi], rng.integers(1, 40)))
        return Spectrum(w, rng.uniform(0.0, 1.0, w.size), tag)

    for _ in range(300):
        pool = np.cumsum(rng.uniform(1e-3, 1.0, rng.integers(1, 40)))
        first, second = draw(pool, "first"), draw(pool, "second")
        by_hand = {}
        for spec in (second, first):
            by_hand.update(zip(spec.omega.tolist(), spec.p_e.tolist()))
        merged = spectroscopy._merged(first, second)
        assert merged.omega.tolist() == sorted(by_hand)
        assert merged.p_e.tolist() == [by_hand[w] for w in sorted(by_hand)]
        assert merged.scheme_tag == "first"
        apart += first.omega[-1] < second.omega[0] or second.omega[-1] < first.omega[0]
    assert apart >= 50


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
