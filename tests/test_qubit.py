"""Level structure, detuning quantities and their identities."""

import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from ramseybias import (AveragingParams, DomainError, DriveParams, TransmonParams,
                        make_grid, omega_eg, regime_quantities, sweep)
from ramseybias.units import ghz, to_ghz


@pytest.fixture
def transmon():
    return TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)


def test_splitting_at_zero_flux(transmon):
    # direct evaluation: sqrt(8*100)*E_C - E_C
    want_ghz = (math.sqrt(800.0) - 1.0) * 0.5
    assert to_ghz(omega_eg(transmon, 0.0)) == pytest.approx(want_ghz, abs=1e-12)
    assert want_ghz == pytest.approx(13.642, abs=1e-3)


def test_splitting_at_resonant_bias(transmon):
    got = to_ghz(omega_eg(transmon, 0.46))
    want = (math.sqrt(800.0 * abs(math.cos(math.pi * 0.46))) - 1.0) * 0.5
    assert got == pytest.approx(want, abs=1e-12)
    # lands within a few MHz of the observed 4.505 GHz peak location
    assert got == pytest.approx(4.5066, abs=5e-4)


def test_half_flux_has_no_gap(transmon):
    with pytest.raises(DomainError):
        omega_eg(transmon, 0.5)


def test_flux_outside_unit_interval(transmon):
    for phi in (-0.1, 1.0, 2.3):
        with pytest.raises(DomainError):
            omega_eg(transmon, phi)


def test_splitting_monotone_decreasing(transmon):
    phis = np.linspace(0.0, 0.49, 200)
    vals = np.array([omega_eg(transmon, p) for p in phis])
    assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("kwargs", [
    {"ec_ghz": -0.5}, {"ec_ghz": 0.0}, {"ej_ratio": -1.0},
    {"phi_res": 1.2}, {"phi_disp": -0.01}, {"phi_res": 0.5},
    # the energies overflow: a gap of inf - inf = nan, and one of inf
    {"ec_ghz": 1e300}, {"ej_ratio": 1e305},
])
def test_invalid_transmon_params(kwargs):
    base = dict(ec_ghz=0.5, ej_ratio=100.0, phi_res=0.46, phi_disp=0.49)
    base.update(kwargs)
    with pytest.raises(DomainError):
        TransmonParams.from_ghz(**base)


def test_invalid_drive_params():
    with pytest.raises(DomainError):
        DriveParams(0.0, 1.0)
    with pytest.raises(DomainError):
        DriveParams(1.0, -2.0)
    # eta^2 overflows a double from about 1.34e154 rad/s
    with pytest.raises(DomainError, match="eta/2pi = 1e\\+200 GHz is too large"):
        DriveParams(ghz(1e200), 1.0)
    DriveParams(ghz(1e140), 1.0)


# probes down to 0.5 w_eg come within 10 eta of the dispersive splitting
@pytest.mark.filterwarnings("ignore:.* of the dispersive-bias splitting")
def test_detuning_identities(transmon):
    rng = np.random.default_rng(11)
    w_eg = omega_eg(transmon, transmon.phi_res)
    for _ in range(200):
        drive, q, _ = regime_quantities(transmon, ghz(rng.uniform(0.01, 0.5)),
                                        rng.uniform(0.5, 1.5) * w_eg)
        assert q.lam == pytest.approx(math.hypot(q.delta, drive.eta), rel=1e-15)
        assert q.lam >= abs(q.delta) and q.lam >= drive.eta
        assert 0.0 < q.theta < math.pi
        assert math.sin(q.theta) == pytest.approx(drive.eta / q.lam, rel=1e-13)
        assert math.cos(q.theta) == pytest.approx(q.delta / q.lam, abs=1e-13)
        # weight factors used by the averaged expressions
        assert math.sin(q.theta) * math.cos(q.theta) == pytest.approx(
            drive.eta * q.delta / q.lam**2, abs=1e-13)


def test_resonant_probe_gives_right_angle(transmon):
    w_eg = omega_eg(transmon, transmon.phi_res)
    drive, q, _ = regime_quantities(transmon, ghz(0.1), w_eg)
    assert q.delta == 0.0
    assert q.theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert q.lam == pytest.approx(drive.eta, rel=1e-15)
    assert q.delta_d is None


def test_weak_coupling_limit(transmon):
    w_eg = omega_eg(transmon, transmon.phi_res)
    # 1 rad/s coupling, positive detuning
    _, q, _ = regime_quantities(transmon, 1.0, w_eg - ghz(0.2))
    assert q.theta == pytest.approx(0.0, abs=1e-8)
    assert q.lam == pytest.approx(abs(q.delta), rel=1e-12)
    _, q2, _ = regime_quantities(transmon, 1.0, w_eg + ghz(0.2))  # negative detuning
    assert q2.theta == pytest.approx(math.pi, abs=1e-8)


def test_dispersive_rate_fixture(transmon):
    _, _, q = regime_quantities(transmon, ghz(0.1), ghz(4.505))
    # independent arithmetic in GHz
    w_d = (math.sqrt(800.0 * abs(math.cos(math.pi * 0.49))) - 1.0) * 0.5
    want = (w_d - 4.505) / 2.0 + 0.1**2 / (w_d - 4.505)
    assert to_ghz(q.delta_d) == pytest.approx(want, rel=1e-14)
    # frozen regression value
    assert to_ghz(q.delta_d) == pytest.approx(-1.2532912194709291, abs=1e-10)
    # the generic quantities at the dispersive bias come along
    assert q.lam > 0 and 0.0 < q.theta < math.pi


def test_lam_and_theta_are_computed_on_first_read(transmon):
    # grid callers read only delta or delta_d, so the record leaves the
    # hypot and arctan2 of a sweep grid to whoever asks for them
    grid = ghz(np.linspace(4.0, 5.0, 11))
    _, q, _ = regime_quantities(transmon, ghz(0.1), grid)
    assert "lam" not in vars(q) and "theta" not in vars(q)
    np.testing.assert_array_equal(q.lam, np.hypot(q.delta, ghz(0.1)))
    np.testing.assert_array_equal(q.theta, np.arctan2(ghz(0.1), q.delta))
    assert q.lam is q.lam and q.theta is q.theta


def test_dispersive_exact_resonance_raises(transmon):
    w_d = omega_eg(transmon, transmon.phi_disp)
    with pytest.raises(DomainError, match=re.escape(f"{to_ghz(w_d):.9g} GHz")):
        regime_quantities(transmon, ghz(0.1), w_d)


def test_dispersive_margin_warns(transmon):
    w_d = omega_eg(transmon, transmon.phi_disp)
    with pytest.warns(UserWarning, match="far-detuning"):
        regime_quantities(transmon, ghz(0.1), w_d + ghz(0.5))  # only 5 eta away
    # a grid gets the same warning, counting the points within the margin
    grid = w_d + ghz(np.array([0.5, 0.8, 2.0]))
    with pytest.warns(UserWarning, match="^2 of 3 probe frequencies .*far-detuning"):
        regime_quantities(transmon, ghz(0.1), grid)


# md5 of the bytes of each field, recorded before the two bias records came
# from one call: on the 2,001-point coarse grid of the template, and of the
# scalar records at w_res - 0.3 GHz, w_res and w_res + 0.3 GHz in turn
RECORD_DIGESTS = {
    "grid": {
        "resonant": {"delta": "10eb19a8b324b6b28d79c2579ec4af4c",
                     "lam": "e2403e6be5b191a49a346848fc582aec",
                     "theta": "9b0dd23201c272574f2b63da7d3c1a86"},
        "dispersive": {"delta": "77e57d54440d073d9502035126d84749",
                       "delta_d": "7bfa6a7d657a156819850eaf9e0b1aed",
                       "lam": "57db0d74e5725cf844c8c7d09ed601bd",
                       "theta": "b64c2bb62080604da2a0852369db8146"}},
    "points": {
        "resonant": {"delta": "a96b5edf030b1f372546b0903420b613",
                     "lam": "2a8d0db6f786ad3cc5e61c0cb0084cf8",
                     "theta": "69d7389c496cd10dcc9fa1c5dfe89214"},
        "dispersive": {"delta": "029bf7e2cc38ade3525e99aca8094ccf",
                       "delta_d": "49303045d4b51a261ccdeeb2e3e83ba6",
                       "lam": "968714ba206cc5000c53d880f2578f5f",
                       "theta": "1d33aa4cbcc6caa537baedd3a389da81"}},
}


def test_records_keep_their_bits(transmon):
    eta = ghz(0.1)
    w_res = omega_eg(transmon, transmon.phi_res)
    probes = {"grid": [make_grid(ghz(3.5), ghz(5.5), ghz(0.001))],
              "points": [w_res - ghz(0.3), w_res, w_res + ghz(0.3)]}
    for name, omegas in probes.items():
        records = [regime_quantities(transmon, eta, w)[1:] for w in omegas]
        for regime, q in zip(("resonant", "dispersive"), zip(*records)):
            got = {field: hashlib.md5(b"".join(np.asarray(getattr(r, field)).tobytes()
                                               for r in q)).hexdigest()
                   for field in RECORD_DIGESTS[name][regime]}
            assert got == RECORD_DIGESTS[name][regime], (name, regime)


def test_cw_line_never_looks_at_the_dispersive_bias(transmon):
    # the grid holds the dispersive splitting itself, where the dispersive
    # rate diverges, and points 0.05 and 0.5 GHz off it: within 10 eta
    eta = ghz(0.1)
    w_d = omega_eg(transmon, transmon.phi_disp)
    assert to_ghz(w_d) == pytest.approx(2.006422, abs=1e-6)
    grid = w_d + ghz(np.array([-0.5, -0.05, 0.0, 0.05, 0.5]))
    avg = AveragingParams(1.0 / eta, 0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spec = sweep("cw", transmon, eta, grid, avg)
    delta = (omega_eg(transmon, transmon.phi_res) - grid) / 2.0
    np.testing.assert_array_equal(spec.p_e, 0.5 * eta**2 / (delta * delta + eta**2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(DomainError, match="dispersive-bias splitting"):
            sweep("double", transmon, eta, grid, avg)
