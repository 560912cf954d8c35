"""Maxwell moments, closed-form averages and the Monte Carlo oracle."""

import importlib.util
import math
import re
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.optimize import minimize_scalar

from ramseybias import (AveragingParams, BiasTrain, DomainError, DriveParams,
                        McConfig, TransmonParams, averaging, compose_train,
                        i_s, make_grid, mc_oracle, omega_eg, optimizer,
                        pe_average, regime_quantities, sample_maxwell, sweep)
from ramseybias.averaging import X_CUTOFF, _moment_table, _pe_grid_numeric
from ramseybias.evolution import train_excitation
from ramseybias.spectroscopy import _grid_quantities
from ramseybias.units import ghz
from closed_amplitudes import ce_double
from triple_closed_form import pe_avg_triple_closed

TRANSMON = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)
ETA = ghz(0.1)
W_RES = omega_eg(TRANSMON, TRANSMON.phi_res)


def quantities(omega):
    drive = DriveParams(ETA, omega)
    q_res = regime_quantities(TRANSMON, drive, "resonant")
    q_disp = regime_quantities(TRANSMON, drive, "dispersive")
    return drive, q_res, q_disp


def pe_avg(n_res, q_res, q_disp, avg):
    return pe_average(n_res, q_res.lam, q_res.theta, q_disp.delta_d, avg)


def quadrature_average(n_res, lam, theta, delta_d, s, ratio_r):
    """Oracle of the moment sum: adaptive quadrature of 2 x^3 e^{-x^2}
    times the train population over [0, 8], converged to 1e-13. The n = 3
    population is the hand-derived one, every other order the recursion."""
    def population(x):
        if n_res == 3:
            return averaging._triple_population(x, lam, theta, delta_d, s, ratio_r)
        return train_excitation(n_res, lam * (s * x), theta,
                                delta_d * (ratio_r * s * x))
    val, err = integrate.quad_vec(
        lambda x: 2.0 * x**3 * np.exp(-x * x) * population(x), 0.0, X_CUTOFF,
        epsabs=1e-13, epsrel=0.0, norm="max")
    assert err <= 1e-13
    return val


# ---------------------------------------------------------------- density

def maxwell_pdf(x):
    """Unnormalized duration density x^3 exp(-x^2); integrates to 1/2.

    The normalized density is 2 x^3 exp(-x^2). Requires x >= 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("duration variable must be non-negative")
    return x**3 * np.exp(-x * x)


def test_density_vanishes_at_origin():
    assert maxwell_pdf(0.0) == 0.0


def test_density_normalization():
    val, _ = integrate.quad(maxwell_pdf, 0.0, 10.0, epsabs=1e-12)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_density_mode():
    x = np.linspace(0.0, 4.0, 400001)
    assert x[np.argmax(maxwell_pdf(x))] == pytest.approx(math.sqrt(1.5), abs=1e-4)


def test_density_rejects_negative():
    with pytest.raises(ValueError):
        maxwell_pdf(-0.1)


def test_sampler_matches_moments():
    # mean = 3 sqrt(pi)/4, second moment = 2 for the normalized density
    rng = np.random.default_rng(123)
    x = sample_maxwell(rng, 10**6)
    mean = 3.0 * math.sqrt(math.pi) / 4.0
    var = 2.0 - mean**2
    assert x.mean() == pytest.approx(mean, abs=5 * math.sqrt(var / x.size))
    assert (x**2).mean() == pytest.approx(2.0, abs=0.01)
    assert np.all(x >= 0)


@pytest.mark.parametrize("seed", [3, 42, 12345])
def test_sliced_draws_equal_one_whole_draw(seed):
    # mc_oracle draws its durations slice by slice from one stream; the
    # slices must be the whole draw's bits, the partial last one included
    chunk = averaging.MC_CHUNK
    n = 5 * chunk // 2 + 17
    whole = sample_maxwell(np.random.default_rng(seed), n)
    rng = np.random.default_rng(seed)
    sliced = np.concatenate([sample_maxwell(rng, min(chunk, n - start))
                             for start in range(0, n, chunk)])
    assert np.array_equal(sliced.view(np.uint64), whole.view(np.uint64))


# ---------------------------------------------------------------- moment

def test_moment_at_zero_is_half():
    for s in (0.3e-9, 1.1333e-9, 4e-9):
        assert i_s(0.0, s) == pytest.approx(0.5, abs=1e-10)
        assert i_s(0.0, s, method="quad") == pytest.approx(0.5, abs=1e-10)


def test_moment_even_in_frequency():
    beta = np.linspace(0.1, 40.0, 50) * 1e9
    s = 1.1333e-9
    assert np.allclose(i_s(beta, s), i_s(-beta, s), atol=1e-15)


def test_moment_bounded_by_half():
    b_over_s = np.linspace(0.0, 20 * math.pi, 5000)
    s = 1.7e-9
    assert np.all(np.abs(i_s(b_over_s / s, s)) <= 0.5 + 1e-12)


def test_moment_dawson_vs_quadrature():
    s = 1.1333333333e-9
    beta = np.linspace(0.0, 10.0 * math.pi, 1000) / s
    closed = i_s(beta, s)
    direct = i_s(beta, s, method="quad")
    assert np.max(np.abs(closed - direct)) < 1e-9


def test_moment_minimum_structure():
    # quadrature oracle: locate the global minimum over b in (0, 4 pi]
    s = 1.0
    coarse = np.linspace(1e-3, 4 * math.pi, 800)
    vals = np.array([i_s(b, s, method="quad") for b in coarse])
    b0 = coarse[np.argmin(vals)]
    res = minimize_scalar(lambda b: i_s(b, s, method="quad"),
                          bounds=(b0 - 0.05, b0 + 0.05), method="bounded",
                          options={"xatol": 1e-10})
    b_min, j_min = res.x, res.fun
    assert b_min == pytest.approx(1.0663118870, abs=1e-6)
    assert j_min == pytest.approx(-0.2740734668, abs=1e-8)
    # the seeding rule: twice the minimizing argument is 0.68 pi to 0.2 %
    assert 2.0 * b_min == pytest.approx(0.68 * math.pi, rel=2e-3)
    # and at 0.68 pi itself the moment is small against its value at zero
    assert abs(i_s(0.68 * math.pi, s)) < 0.042 * i_s(0.0, s)


def test_moment_validates_inputs():
    with pytest.raises(ValueError):
        i_s(1.0, -1e-9)
    with pytest.raises(ValueError):
        i_s(1.0, 1e-9, method="fft")


def mp_moment(b: float) -> float:
    """I(b) = 1F1(2; 1/2; -b^2)/2 at 40 digits, rounded once to double."""
    with mp.workdps(40):
        return float(mp.hyp1f1(2, mp.mpf(1) / 2, -mp.mpf(float(b)) ** 2) / 2)


TABLE_END = averaging.MOMENT_B
# cell edges of the table, where two polynomials meet, its end and the
# doubles either side of the end
MOMENT_VALUES = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-2.0 * TABLE_END, 2.0 * TABLE_END),
    st.integers(-1, int(averaging.MOMENT_CELLS * TABLE_END)).map(
        lambda k: (k + 0.5) / averaging.MOMENT_CELLS),
    st.sampled_from([0.0, TABLE_END, np.nextafter(TABLE_END, 0.0),
                     np.nextafter(TABLE_END, np.inf)]),
).flatmap(lambda v: st.sampled_from([v, -v]))


@st.composite
def moment_arguments(draw):
    shape = draw(st.sampled_from([(), (1,), (7,), (3, 4)]))
    values = draw(st.lists(MOMENT_VALUES, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    if shape == ():
        return values[0] if draw(st.booleans()) else np.array(values[0])
    return np.array(values).reshape(shape)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(b=moment_arguments(), s=st.sampled_from([1.0, 1.1333e-9, 3e-9]))
def test_moment_matches_mpmath(b, s):
    beta = np.asarray(b) / s
    got = i_s(float(beta) if isinstance(b, float) else beta, s)
    # the moment is taken at the double beta*s, as i_s forms it
    want = np.vectorize(mp_moment, otypes=[float])(beta * s)
    if np.ndim(b) == 0:
        assert type(got) is float
    else:
        assert got.shape == np.shape(b)
    assert np.max(np.abs(got - want)) <= 2e-16


@pytest.mark.parametrize("method", ["dawson", "quad"])
def test_moment_names_the_first_non_finite_argument(method):
    cases = [([0.5, np.nan, np.inf], "nan", 1), (np.inf, "inf", 0),
             ([[1.0, 20.0], [-np.inf, np.nan]], "-inf", 2)]
    for beta, value, index in cases:
        with pytest.raises(DomainError, match=re.escape(
                f"beta*s = {value} at flat index {index} is not finite")):
            i_s(beta, 1.0, method=method)


def test_moment_of_a_huge_finite_argument_is_0_without_warnings():
    # neither the scaling of b to table cells nor the far tail's b^2 may
    # warn of an overflow; the moment's limit is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = i_s(np.array([1e200, 1e306, -1.7e308]), 1.0)
    assert got.tolist() == [0.0, 0.0, 0.0]


def test_moment_paths_are_elementwise():
    # a slice of the input gives the same slice of the output, bit for bit
    s = 1.1333333333e-9
    # the table's arguments reach past its end, the oracle's stay in range
    for method, top in (("dawson", 20.0), ("quad", 10.0)):
        beta = np.linspace(-10.0 * math.pi, top * math.pi, 1000) / s
        full = i_s(beta, s, method=method)
        for piece in (slice(3, 700, 7), slice(None, None, -1), slice(250, 260),
                      slice(beta.size - 1, None)):
            assert np.array_equal(i_s(beta[piece], s, method=method), full[piece])
        assert i_s(float(beta[517]), s, method=method) == full[517]
        assert np.array_equal(i_s(beta[:600].reshape(20, 30), s, method=method),
                              full[:600].reshape(20, 30))


def test_quadrature_oracle_against_mpmath():
    b = np.linspace(0.0, 50.0, 60)
    want = np.array([mp_moment(v) for v in b])
    assert np.max(np.abs(i_s(b, 1.0, method="quad") - want)) < 2e-15


def test_quadrature_oracle_raises_when_its_rules_disagree(monkeypatch):
    monkeypatch.setattr(averaging, "QUAD_RULES", ((16, 32), (2, 8)))
    with pytest.raises(ArithmeticError, match="differ by"):
        i_s(np.linspace(0.0, 10.0, 50), 1.0, method="quad")


def test_quadrature_oracle_raises_past_its_range():
    assert i_s(50.0, 1.0, method="quad") == pytest.approx(mp_moment(50.0), abs=1e-15)
    with pytest.raises(ArithmeticError, match="differ by"):
        i_s([1.0, 200.0], 1.0, method="quad")


def test_asymptotic_coefficients_equal_the_rational_derivation():
    # a_j = (2 d_{j+1} - 3 d_j)/2 from the Dawson series' d_k =
    # (2k-1)!!/2^(k+1), in exact rationals
    def d(k):
        return Fraction(math.prod(range(1, 2 * k, 2)), 2 ** (k + 1))
    exact = [(2 * d(j + 1) - 3 * d(j)) / 2 for j in range(2, 14)]
    coefficients = averaging._asymptotic_coefficients(12).tolist()
    assert [a.hex() for a in coefficients] == [float(a).hex() for a in exact]
    assert [Fraction(a) for a in coefficients] == exact
    assert averaging._ASYMPTOTIC.tolist() == coefficients[::-1]


def test_moment_table_regenerates_bit_for_bit():
    path = Path(__file__).resolve().parents[1] / "tools" / "make_moment_table.py"
    spec = importlib.util.spec_from_file_location("make_moment_table", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert (tool.CELLS, tool.B) == (averaging.MOMENT_CELLS, averaging.MOMENT_B)
    committed = np.load(Path(averaging.__file__).with_name("moment_table.npy"))
    fresh = tool.build_table()
    assert fresh.dtype == committed.dtype and fresh.shape == committed.shape
    assert np.array_equal(fresh.view(np.uint64), committed.view(np.uint64))


# ------------------------------------------------------- averaging params

def test_averaging_params_validation():
    with pytest.raises(ValueError):
        AveragingParams(-1e-9, 0.1)
    with pytest.raises(ValueError):
        AveragingParams(1e-9, -0.1)
    with pytest.raises(ValueError, match="ratio_r"):
        AveragingParams(1e-9, math.nan)
    with pytest.raises(ValueError):
        McConfig(0, 1)
    assert McConfig(averaging.MAX_MC_SAMPLES, 1).n_samples == 10**8
    with pytest.raises(ValueError, match="100,000,000 samples"):
        McConfig(averaging.MAX_MC_SAMPLES + 1, 1)
    with pytest.raises(ValueError, match="seed"):
        McConfig(10, -1)


# ------------------------------------------------------- closed averages

def test_double_constant_term_limit():
    # on resonance with every oscillatory moment pushed to zero the average
    # reduces to its constant term 1/4
    _, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(1e-5, 0.001)  # all moment arguments >> 1
    assert pe_avg(2, q_res, q_disp, avg) == pytest.approx(0.25, abs=1e-4)


def test_triple_constant_term_limit():
    _, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(1e-5, 0.001)
    assert pe_avg_triple_closed(q_res, q_disp, avg) == pytest.approx(0.375, abs=1e-4)


# ------------------------------------------------------ exact moment sum

def test_moment_table_is_cached_per_order_with_2n_squared_terms():
    assert [len(_moment_table(n)[0]) for n in (1, 2, 3, 4)] == [2, 8, 18, 32]
    assert _moment_table(3) is _moment_table(3)


@pytest.mark.parametrize("n_res", [1, 2, 3, 4, 5, 6])
def test_moment_sum_matches_quadrature_oracle(n_res):
    grid = make_grid(W_RES - ghz(1.0), W_RES + ghz(1.0), ghz(0.01))
    lam, theta, delta_d = _grid_quantities(TRANSMON, ETA, grid)
    s = 0.68 * math.pi / (2 * ETA)
    exact = _pe_grid_numeric(n_res, lam, theta, 0.045 * delta_d, s)
    oracle = quadrature_average(n_res, lam, theta, delta_d, s, 0.045)
    assert np.max(np.abs(exact - oracle)) <= 1e-12


def test_single_segment_sum_is_the_averaged_rabi_line():
    grid = make_grid(W_RES - ghz(1.0), W_RES + ghz(1.0), ghz(0.01))
    lam, theta, delta_d = _grid_quantities(TRANSMON, ETA, grid)
    s = 1.7e-9
    rabi = np.sin(theta) ** 2 * (1.0 - 2.0 * i_s(lam, s)) / 2.0
    exact = _pe_grid_numeric(1, lam, theta, 0.045 * delta_d, s)
    assert np.max(np.abs(exact - rabi)) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(n_res=st.integers(1, 6), s_ns=st.floats(0.3, 3.0),
       ratio_r=st.floats(0.0, 0.1), offset_ghz=st.floats(-1.0, 1.0))
def test_moment_sum_is_a_probability_and_matches_quadrature(n_res, s_ns,
                                                             ratio_r, offset_ghz):
    # the probe offset spans the mixing angle over [0.197, 2.944] rad
    grid = np.array([W_RES + ghz(offset_ghz)])
    lam, theta, delta_d = _grid_quantities(TRANSMON, ETA, grid)
    s = s_ns * 1e-9
    exact = _pe_grid_numeric(n_res, lam, theta, ratio_r * delta_d, s)
    assert -1e-12 <= exact[0] <= 1.0 + 1e-12
    oracle = quadrature_average(n_res, lam, theta, delta_d, s, ratio_r)
    assert abs(exact[0] - oracle[0]) <= 1e-12


def test_moment_table_rejects_a_population_odd_in_the_durations(monkeypatch):
    # the cosine fold needs a population even in (lam tau, delta_d T)
    monkeypatch.setattr(averaging, "train_excitation",
                        lambda n, a, theta, b: np.sin(a) ** 2 * (1 + np.sin(b) / 4))
    _moment_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not even"):
            _moment_table(3)
    finally:
        _moment_table.cache_clear()


def test_moment_table_rejects_a_population_odd_in_theta(monkeypatch):
    # the cosine-only table needs a population even in the mixing angle
    monkeypatch.setattr(averaging, "train_excitation",
                        lambda n, a, theta, b: np.sin(a) ** 2 * (1 + np.sin(theta) / 4))
    _moment_table.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="not even in theta"):
            _moment_table(3)
    finally:
        _moment_table.cache_clear()


def test_triple_closed_equals_numeric_on_resonance():
    _, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(0.68 * math.pi / (2 * ETA), 0.045)
    closed = pe_avg_triple_closed(q_res, q_disp, avg)
    numeric = pe_avg(3, q_res, q_disp, avg)
    assert abs(closed - numeric) < 1e-6


def test_triple_closed_deviates_off_resonance():
    # 200 MHz detuned the close-resonance form is only qualitative; the
    # deviation is real and reported, not asserted small
    _, q_res, q_disp = quantities(W_RES + ghz(0.4))  # detuning/2pi = 200 MHz
    assert abs(q_res.delta) == pytest.approx(ghz(0.2), rel=1e-12)
    avg = AveragingParams(0.68 * math.pi / (2 * ETA), 0.045)
    closed = pe_avg_triple_closed(q_res, q_disp, avg)
    numeric = pe_avg(3, q_res, q_disp, avg)
    deviation = abs(closed - numeric)
    assert deviation > 1e-2
    print(f"close-resonance form deviation at 200 MHz detuning: {deviation:.4f}")


def test_triple_numeric_gapless_reduces_to_long_segment():
    # R = 0 on resonance collapses to one segment of three times the length;
    # check against direct quadrature of the reduced integrand
    _, q_res, q_disp = quantities(W_RES)
    s = 0.68 * math.pi / (2 * ETA)
    avg = AveragingParams(s, 0.0)
    got = pe_avg(3, q_res, q_disp, avg)
    reduced = lambda x: 2 * x**3 * math.exp(-x * x) * math.sin(
        3 * q_res.lam * s * x) ** 2
    want, _ = integrate.quad(reduced, 0, 8, epsabs=1e-10, limit=400)
    assert got == pytest.approx(want, abs=1e-7)


@pytest.mark.parametrize("n_res", range(2, 26))
def test_gapless_train_collapses_to_one_long_segment(n_res):
    # with no dispersive time n resonant segments of length tau compose to
    # one of length n tau, so each order's moment table must reproduce
    # order 1's at n times the time constant, over the template window
    lam, theta, delta_d = _grid_quantities(
        TRANSMON, ETA, make_grid(ghz(3.5), ghz(5.5), ghz(0.02)))
    s = 0.68 * math.pi / (3 * ETA)
    train = pe_average(n_res, lam, theta, delta_d, AveragingParams(s, 0.0))
    segment = pe_average(1, lam, theta, delta_d, AveragingParams(n_res * s, 0.0))
    assert lam.size == 101
    assert np.max(np.abs(train - segment)) <= 1e-14


def test_double_range_on_physical_inputs():
    rng = np.random.default_rng(21)
    for _ in range(50):
        _, q_res, q_disp = quantities(rng.uniform(0.8, 1.2) * W_RES)
        avg = AveragingParams(rng.uniform(0.3, 3.0) * 1e-9,
                              rng.uniform(0.0, 0.1))
        raw = pe_avg(2, q_res, q_disp, avg)
        assert -1e-8 <= raw <= 1.0 + 1e-8


def test_triple_numeric_range_on_physical_inputs():
    rng = np.random.default_rng(22)
    for _ in range(10):
        _, q_res, q_disp = quantities(rng.uniform(0.8, 1.2) * W_RES)
        avg = AveragingParams(rng.uniform(0.3, 3.0) * 1e-9,
                              rng.uniform(0.0, 0.1))
        raw = pe_avg(3, q_res, q_disp, avg)
        assert -1e-8 <= raw <= 1.0 + 1e-8


def test_double_operating_point_regression():
    # frozen self-regression at the reference operating point: the refined
    # peak of the two-segment spectrum at s = 0.68 pi / 3 eta, R = 0.001
    _, q_res, q_disp = quantities(ghz(4.504648702454))
    avg = AveragingParams(0.68 * math.pi / (3.0 * ETA), 0.001)
    assert pe_avg(2, q_res, q_disp, avg) == pytest.approx(
        0.675778618004, abs=1e-9)


def test_out_of_range_formula_warns(monkeypatch):
    # a corrupted closed form trips the one consistency diagnostic, on the
    # scalar average and on a sweep, which only clips for output
    from ramseybias import spectroscopy
    from ramseybias.averaging import _check_range
    with pytest.warns(UserWarning, match="outside"):
        _check_range(1.05, "corrupted average")
    monkeypatch.setattr(spectroscopy, "_pe_double_formula",
                        lambda lam, *args: np.full(np.shape(lam), 1.05))
    _, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(1e-9, 0.001)
    with pytest.warns(UserWarning, match="outside"):
        assert pe_avg(2, q_res, q_disp, avg) == 1.05
    with pytest.warns(UserWarning, match="outside"):
        spec = sweep("double", TRANSMON, ETA, np.array([W_RES]), avg)
    assert spec.p_e[0] == 1.0


# ------------------------------------------------------------ MC oracle

def test_mc_single_sample_convention():
    drive, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(1.1e-9, 0.01)
    mean, err = mc_oracle(2, q_res, q_disp, drive, avg, McConfig(1, 7))
    assert err == 0.0
    # equals the single-trajectory population drawn from the same stream
    rng = np.random.default_rng(np.random.SeedSequence(7))
    tau = float(avg.s * sample_maxwell(rng, 1)[0])
    single = abs(complex(ce_double(q_res, q_disp, drive, tau,
                                   avg.ratio_r * tau))) ** 2
    assert mean == pytest.approx(single, abs=1e-12)


def test_mc_chunking_changes_no_bits():
    # about 2.5 slices, the last one partial, against one whole draw
    drive, q_res, q_disp = quantities(W_RES + 0.7 * ETA)
    avg = AveragingParams(1.1e-9, 0.02)
    n = 5 * averaging.MC_CHUNK // 2 + 17
    tau = avg.s * sample_maxwell(np.random.default_rng(5), n)
    pe = compose_train(q_res, q_disp, drive, BiasTrain(3, tau, avg.ratio_r)).p_e()
    mean, err = mc_oracle(3, q_res, q_disp, drive, avg, McConfig(n, 5))
    assert mean == float(pe.mean())
    assert err == float(pe.std(ddof=1) / np.sqrt(n))


@pytest.mark.parametrize("n_res", [2, 3, 6])
def test_mc_oracle_is_independent_of_the_worker_count(monkeypatch, n_res):
    # validate shares whole oracle calls out over forked workers; a call
    # gives the same bits in a worker as in this process
    drive, q_res, q_disp = quantities(W_RES + 0.4 * ETA)
    avg = AveragingParams(1.1e-9, 0.02)
    chunk = averaging.MC_CHUNK
    sizes = [1, chunk - 1, chunk, 5 * chunk // 2 + 17]

    def oracle(n):
        return mc_oracle(n_res, q_res, q_disp, drive, avg, McConfig(n, 11))

    serial = [oracle(n) for n in sizes]
    # _evaluate_all runs serially while another thread is alive
    assert threading.active_count() == 1
    for workers in (2, 3):
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: workers)
        assert optimizer._evaluate_all(oracle, sizes) == serial, workers


def test_mc_deterministic():
    drive, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(1.1e-9, 0.01)
    a = mc_oracle(2, q_res, q_disp, drive, avg, McConfig(20000, 99))
    b = mc_oracle(2, q_res, q_disp, drive, avg, McConfig(20000, 99))
    assert a == b


def test_mc_agrees_with_closed_double():
    rng = np.random.default_rng(31)
    drive, q_res, q_disp = quantities(W_RES + ETA * rng.uniform(-2, 2))
    avg = AveragingParams(1.4e-9, 0.02)
    closed = pe_avg(2, q_res, q_disp, avg)
    mean, err = mc_oracle(2, q_res, q_disp, drive, avg,
                          McConfig(200000, 17))
    assert abs(closed - mean) <= max(3.0 * err, 1e-3)


def test_mc_agrees_with_closed_triple_on_resonance():
    drive, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(0.68 * math.pi / (2 * ETA), 0.045)
    closed = pe_avg_triple_closed(q_res, q_disp, avg)
    mean, err = mc_oracle(3, q_res, q_disp, drive, avg,
                          McConfig(200000, 23))
    assert abs(closed - mean) <= max(3.0 * err, 1e-3)


def test_mc_scheme_validation():
    drive, q_res, q_disp = quantities(W_RES)
    avg = AveragingParams(1e-9, 0.01)
    # the BiasTrain of the first slice refuses the order
    with pytest.raises(ValueError, match="need at least one resonant segment, got 0"):
        mc_oracle(0, q_res, q_disp, drive, avg, McConfig(10, 1))
