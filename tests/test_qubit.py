"""Level structure, detuning quantities and their identities."""

import math
import re

import numpy as np
import pytest

from ramseybias import DomainError, DriveParams, TransmonParams, omega_eg, regime_quantities
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


def test_detuning_identities(transmon):
    rng = np.random.default_rng(11)
    w_eg = omega_eg(transmon, transmon.phi_res)
    for _ in range(200):
        drive = DriveParams(ghz(rng.uniform(0.01, 0.5)),
                            rng.uniform(0.5, 1.5) * w_eg)
        q = regime_quantities(transmon, drive, "resonant")
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
    drive = DriveParams(ghz(0.1), w_eg)
    q = regime_quantities(transmon, drive, "resonant")
    assert q.delta == 0.0
    assert q.theta == pytest.approx(math.pi / 2, abs=1e-15)
    assert q.lam == pytest.approx(drive.eta, rel=1e-15)
    assert q.delta_d is None


def test_weak_coupling_limit(transmon):
    w_eg = omega_eg(transmon, transmon.phi_res)
    tiny = DriveParams(1.0, w_eg - ghz(0.2))  # 1 rad/s coupling, positive detuning
    q = regime_quantities(transmon, tiny, "resonant")
    assert q.theta == pytest.approx(0.0, abs=1e-8)
    assert q.lam == pytest.approx(abs(q.delta), rel=1e-12)
    below = DriveParams(1.0, w_eg + ghz(0.2))  # negative detuning
    q2 = regime_quantities(transmon, below, "resonant")
    assert q2.theta == pytest.approx(math.pi, abs=1e-8)


def test_dispersive_rate_fixture(transmon):
    drive = DriveParams(ghz(0.1), ghz(4.505))
    q = regime_quantities(transmon, drive, "dispersive")
    # independent arithmetic in GHz
    w_d = (math.sqrt(800.0 * abs(math.cos(math.pi * 0.49))) - 1.0) * 0.5
    want = (w_d - 4.505) / 2.0 + 0.1**2 / (w_d - 4.505)
    assert to_ghz(q.delta_d) == pytest.approx(want, rel=1e-14)
    # frozen regression value
    assert to_ghz(q.delta_d) == pytest.approx(-1.2532912194709291, abs=1e-10)
    # the generic quantities at the dispersive bias come along
    assert q.lam > 0 and 0.0 < q.theta < math.pi


def test_dispersive_exact_resonance_raises(transmon):
    w_d = omega_eg(transmon, transmon.phi_disp)
    drive = DriveParams(ghz(0.1), w_d)
    with pytest.raises(DomainError, match=re.escape(f"{to_ghz(w_d):.9g} GHz")):
        regime_quantities(transmon, drive, "dispersive")


def test_dispersive_margin_warns(transmon):
    w_d = omega_eg(transmon, transmon.phi_disp)
    drive = DriveParams(ghz(0.1), w_d + ghz(0.5))  # only 5 eta away
    with pytest.warns(UserWarning, match="far-detuning"):
        regime_quantities(transmon, drive, "dispersive")
    # a grid gets the same warning, counting the points within the margin
    grid = DriveParams(ghz(0.1), w_d + ghz(np.array([0.5, 0.8, 2.0])))
    with pytest.warns(UserWarning, match="^2 of 3 probe frequencies .*far-detuning"):
        regime_quantities(transmon, grid, "dispersive")


def test_unknown_regime_rejected(transmon):
    drive = DriveParams(ghz(0.1), ghz(4.5))
    with pytest.raises(ValueError):
        regime_quantities(transmon, drive, "adiabatic")
