"""Segment propagation, closed separated-field forms and the composer."""

import math

import numpy as np
import pytest

from ramseybias import (BiasTrain, QubitAmplitudes,
                        TransmonParams, compose_train, dispersive_phase,
                        propagate_segment, regime_quantities, sample_maxwell)
from ramseybias.evolution import GROUND, train_excitation
from ramseybias.units import ghz
from closed_amplitudes import ce_double, ce_triple

TRANSMON = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)


def quantities(omega_ghz=4.505, eta_ghz=0.1):
    return regime_quantities(TRANSMON, ghz(eta_ghz), ghz(omega_ghz))


def stepwise_train(q_res, q_disp, drive, train):
    """Segment-by-segment fold with the laboratory time t0 kept as a sum:
    the reference for the composer's once-per-sample factors."""
    tau = np.asarray(train.tau, dtype=float)
    state = QubitAmplitudes(np.zeros_like(tau, dtype=complex),
                            np.ones_like(tau, dtype=complex))
    t_disp = train.ratio_r * tau
    t0 = np.zeros_like(tau)
    for k in range(train.n_res):
        if k > 0:
            state = dispersive_phase(state, q_disp.delta_d, drive.omega, t_disp)
            t0 = t0 + t_disp
        state = propagate_segment(state, q_res, drive, tau, t0)
        t0 = t0 + tau
    return state


def resonant_amplitudes(q, drive, tau):
    """Amplitudes after a single resonant segment from the ground state.

    Specialization of :func:`propagate_segment` at t0 = 0 with
    (c_e, c_g) = (0, 1)::

        c_e = -i sin(theta) sin(lam tau) e^{-i omega tau/2}
        c_g = (cos(lam tau) + i cos(theta) sin(lam tau)) e^{+i omega tau/2}
    """
    lam_tau = q.lam * np.asarray(tau, dtype=float)
    phase = np.exp(1j * drive.omega * np.asarray(tau, dtype=float) / 2.0)
    c_e = -1j * np.sin(q.theta) * np.sin(lam_tau) / phase
    c_g = (np.cos(lam_tau) + 1j * np.cos(q.theta) * np.sin(lam_tau)) * phase
    return QubitAmplitudes(c_e, c_g)


def random_state(rng):
    raw = rng.normal(size=4)
    c = raw[0] + 1j * raw[1], raw[2] + 1j * raw[3]
    norm = math.sqrt(abs(c[0]) ** 2 + abs(c[1]) ** 2)
    return QubitAmplitudes(c[0] / norm, c[1] / norm)


def test_zero_duration_is_identity():
    drive, q_res, _ = quantities()
    rng = np.random.default_rng(0)
    state = random_state(rng)
    out = propagate_segment(state, q_res, drive, 0.0, t0=1.3e-9)
    assert complex(out.c_e) == complex(state.c_e)
    assert complex(out.c_g) == complex(state.c_g)


def test_full_flop_on_resonance():
    # on resonance a quarter dressed period inverts the ground state
    drive, q_res, _ = quantities(omega_ghz=4.50666023541251)
    assert abs(q_res.delta) < 1e-3 * drive.eta
    tau = (math.pi / 2) / q_res.lam
    out = propagate_segment(GROUND, q_res, drive, tau)
    assert abs(complex(out.c_e)) ** 2 == pytest.approx(1.0, abs=1e-9)


def test_resonant_amplitudes_at_zero():
    drive, q_res, _ = quantities()
    out = resonant_amplitudes(q_res, drive, 0.0)
    assert complex(out.c_e) == 0.0
    assert complex(out.c_g) == 1.0


def test_resonant_half_population():
    drive, q_res, _ = quantities(omega_ghz=4.50666023541251)
    tau = (math.pi / 4) / q_res.lam
    out = resonant_amplitudes(q_res, drive, tau)
    assert abs(complex(out.c_e)) ** 2 == pytest.approx(0.5, abs=1e-9)


def test_resonant_matches_general_propagator():
    rng = np.random.default_rng(1)
    for _ in range(50):
        drive, q_res, _ = quantities(omega_ghz=rng.uniform(3.5, 5.5))
        tau = rng.uniform(0.0, 5e-9)
        a = resonant_amplitudes(q_res, drive, tau)
        b = propagate_segment(GROUND, q_res, drive, tau, t0=0.0)
        assert abs(complex(a.c_e) - complex(b.c_e)) < 1e-12
        assert abs(complex(a.c_g) - complex(b.c_g)) < 1e-12


def test_norm_preserved_by_segments():
    rng = np.random.default_rng(2)
    for _ in range(100):
        drive, q_res, q_disp = quantities(omega_ghz=rng.uniform(3.5, 5.5))
        state = random_state(rng)
        q = q_res if rng.random() < 0.5 else q_disp
        out = propagate_segment(state, q, drive, rng.uniform(0, 5e-9),
                                t0=rng.uniform(0, 5e-9))
        assert abs(float(out.norm_sq()) - 1.0) < 1e-12


def test_segment_concatenation():
    rng = np.random.default_rng(3)
    for _ in range(50):
        drive, q_res, _ = quantities(omega_ghz=rng.uniform(3.5, 5.5))
        state = random_state(rng)
        t0 = rng.uniform(0, 3e-9)
        tau1, tau2 = rng.uniform(0, 3e-9, size=2)
        stepped = propagate_segment(state, q_res, drive, tau1, t0)
        stepped = propagate_segment(stepped, q_res, drive, tau2, t0 + tau1)
        direct = propagate_segment(state, q_res, drive, tau1 + tau2, t0)
        assert abs(complex(stepped.c_e) - complex(direct.c_e)) < 1e-12
        assert abs(complex(stepped.c_g) - complex(direct.c_g)) < 1e-12


def test_dispersive_phase_zero_duration():
    rng = np.random.default_rng(4)
    state = random_state(rng)
    out = dispersive_phase(state, -7.9e9, 2.8e10, 0.0)
    assert complex(out.c_e) == complex(state.c_e)
    assert complex(out.c_g) == complex(state.c_g)


def test_dispersive_phase_preserves_moduli():
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = random_state(rng)
        out = dispersive_phase(state, rng.normal() * 1e10, abs(rng.normal()) * 1e10,
                               rng.uniform(0, 1e-9))
        assert abs(abs(complex(out.c_e)) - abs(complex(state.c_e))) < 1e-15
        assert abs(abs(complex(out.c_g)) - abs(complex(state.c_g))) < 1e-15


def test_dispersive_phase_pi_negates():
    rng = np.random.default_rng(6)
    state = random_state(rng)
    delta_d, omega = 3.0e9, 5.0e10
    t = math.pi / (delta_d + omega / 2.0)
    out = dispersive_phase(state, delta_d, omega, t)
    assert complex(out.c_e) == pytest.approx(-complex(state.c_e), abs=1e-12)
    assert complex(out.c_g) == pytest.approx(-complex(state.c_g), abs=1e-12)
    # opposite signs in the exponent: e picks up -pi while g picks up +pi
    half = dispersive_phase(state, delta_d, omega, t / 2.0)
    ratio_e = complex(half.c_e) / complex(state.c_e)
    ratio_g = complex(half.c_g) / complex(state.c_g)
    assert ratio_e == pytest.approx(ratio_g.conjugate(), abs=1e-12)


def test_double_collapses_without_gap():
    # T = 0 on resonance concatenates into one segment of twice the length
    drive, q_res, q_disp = quantities(omega_ghz=4.50666023541251)
    rng = np.random.default_rng(7)
    for _ in range(20):
        tau = rng.uniform(0, 5e-9)
        got = complex(ce_double(q_res, q_disp, drive, tau, 0.0))
        want = -1j * math.sin(2 * q_res.lam * tau) * np.exp(-1j * drive.omega * tau)
        assert abs(got - want) < 1e-10


def test_double_node_at_full_period():
    drive, q_res, q_disp = quantities(omega_ghz=4.50666023541251)
    tau = math.pi / q_res.lam
    assert abs(complex(ce_double(q_res, q_disp, drive, tau, 0.001 * tau))) < 1e-10


def test_double_matches_composition():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        drive, q_res, q_disp = quantities(omega_ghz=rng.uniform(3.5, 5.5))
        tau = rng.uniform(0.0, 6e-9, size=10)
        ratio = rng.uniform(0.0, 0.3)
        closed = ce_double(q_res, q_disp, drive, tau, ratio * tau)
        composed = compose_train(q_res, q_disp, drive, BiasTrain(2, tau, ratio))
        worst = max(worst, float(np.max(np.abs(closed - composed.c_e))))
    assert worst < 1e-10


def test_triple_collapses_without_gap():
    drive, q_res, q_disp = quantities(omega_ghz=4.50666023541251)
    rng = np.random.default_rng(9)
    for _ in range(20):
        tau = rng.uniform(0, 5e-9)
        got = abs(complex(ce_triple(q_res, q_disp, drive, tau, 0.0)))
        assert got == pytest.approx(abs(math.sin(3 * q_res.lam * tau)), abs=1e-9)


def test_triple_node_at_full_period():
    drive, q_res, q_disp = quantities(omega_ghz=4.50666023541251)
    tau = math.pi / q_res.lam
    assert abs(complex(ce_triple(q_res, q_disp, drive, tau, 0.02 * tau))) < 1e-10


def test_triple_matches_composition():
    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(100):
        drive, q_res, q_disp = quantities(omega_ghz=rng.uniform(3.5, 5.5))
        tau = rng.uniform(0.0, 6e-9, size=10)
        ratio = rng.uniform(0.0, 0.3)
        closed = ce_triple(q_res, q_disp, drive, tau, ratio * tau)
        composed = compose_train(q_res, q_disp, drive, BiasTrain(3, tau, ratio))
        worst = max(worst, float(np.max(np.abs(closed - composed.c_e))))
    assert worst < 1e-10


def test_single_segment_train_equals_resonant():
    drive, q_res, q_disp = quantities()
    rng = np.random.default_rng(11)
    tau = rng.uniform(0, 5e-9, size=20)
    composed = compose_train(q_res, q_disp, drive, BiasTrain(1, tau, 0.5))
    direct = resonant_amplitudes(q_res, drive, tau)
    assert np.max(np.abs(composed.c_e - direct.c_e)) < 1e-12
    assert np.max(np.abs(composed.c_g - direct.c_g)) < 1e-12


def test_closed_amplitudes_bounded():
    rng = np.random.default_rng(12)
    for _ in range(200):
        drive, q_res, q_disp = quantities(omega_ghz=rng.uniform(3.5, 5.5))
        tau = rng.uniform(0.0, 8e-9)
        t_disp = rng.uniform(0.0, 2e-9)
        assert abs(complex(ce_double(q_res, q_disp, drive, tau, t_disp))) <= 1 + 1e-12
        assert abs(complex(ce_triple(q_res, q_disp, drive, tau, t_disp))) <= 1 + 1e-12


def test_double_population_periodic_on_resonance():
    drive, q_res, q_disp = quantities(omega_ghz=4.50666023541251)
    rng = np.random.default_rng(13)
    for _ in range(20):
        tau = rng.uniform(0, 3e-9)
        shift = 2.0 * math.pi / q_res.lam
        # same gap length, dressed phase advanced by a full turn
        t_disp = rng.uniform(0, 0.5e-9)
        a = abs(complex(ce_double(q_res, q_disp, drive, tau, t_disp)))
        b = abs(complex(ce_double(q_res, q_disp, drive, tau + shift, t_disp)))
        assert a == pytest.approx(b, abs=1e-9)


def test_double_continuity():
    drive, q_res, q_disp = quantities()
    base = complex(ce_double(q_res, q_disp, drive, 1.1e-9, 0.2e-9))
    eps = 1e-16
    nearby = complex(ce_double(q_res, q_disp, drive, 1.1e-9 + eps, 0.2e-9 + eps))
    assert abs(base - nearby) < 1e-5


def test_train_validation():
    with pytest.raises(ValueError):
        BiasTrain(0, 1e-9, 0.1)
    with pytest.raises(ValueError):
        BiasTrain(2, -1e-9, 0.1)
    with pytest.raises(ValueError):
        BiasTrain(2, 1e-9, -0.1)
    for tau in (math.nan, np.array([1e-9, math.nan])):
        with pytest.raises(ValueError, match="tau"):
            BiasTrain(2, tau, 0.0)
    with pytest.raises(ValueError, match="ratio_r"):
        BiasTrain(2, 1e-9, math.nan)


def test_phase_free_recursion_matches_composer():
    # probe phases cancel in the population; the lean recursion must agree
    rng = np.random.default_rng(14)
    for n_res in (1, 2, 3, 5):
        drive, q_res, q_disp = quantities(omega_ghz=rng.uniform(3.5, 5.5))
        tau = rng.uniform(0.0, 6e-9, size=50)
        ratio = rng.uniform(0.0, 0.3)
        full = compose_train(q_res, q_disp, drive, BiasTrain(n_res, tau, ratio))
        lean = train_excitation(n_res, q_res.lam * tau, q_res.theta,
                                q_disp.delta_d * ratio * tau)
        assert np.max(np.abs(full.p_e() - lean)) < 1e-12


@pytest.mark.parametrize("omega_ghz", [3.6, 4.45, 4.50666023541251, 4.56, 5.4])
def test_composer_matches_stepwise_fold(omega_ghz):
    drive, q_res, q_disp = quantities(omega_ghz=omega_ghz)
    rng = np.random.default_rng(15)
    for n_res in range(1, 7):
        tau = 1.1e-9 * sample_maxwell(rng, 2000)
        train = BiasTrain(n_res, tau, rng.uniform(0.0, 0.05))
        got = compose_train(q_res, q_disp, drive, train)
        want = stepwise_train(q_res, q_disp, drive, train)
        assert np.max(np.abs(got.c_e - want.c_e)) <= 1e-12
        assert np.max(np.abs(got.c_g - want.c_g)) <= 1e-12


def test_composer_scalar_tau_equals_one_element_array():
    drive, q_res, q_disp = quantities()
    for n_res in (1, 2, 5):
        scalar = compose_train(q_res, q_disp, drive, BiasTrain(n_res, 1.3e-9, 0.04))
        array = compose_train(q_res, q_disp, drive,
                              BiasTrain(n_res, np.array([1.3e-9]), 0.04))
        assert np.shape(scalar.c_e) == np.shape(scalar.c_g) == ()
        assert complex(scalar.c_e) == complex(array.c_e[0])
        assert complex(scalar.c_g) == complex(array.c_g[0])


def test_composer_is_split_invariant():
    # each sample is composed on its own: slicing the ensemble changes no bit
    drive, q_res, q_disp = quantities(omega_ghz=4.56)
    tau = 1.1e-9 * sample_maxwell(np.random.default_rng(16), 70001)
    for n_res in (1, 3, 6):
        whole = compose_train(q_res, q_disp, drive, BiasTrain(n_res, tau, 0.03))
        for cut in (1, 301, 65537):
            parts = [compose_train(q_res, q_disp, drive, BiasTrain(n_res, t, 0.03))
                     for t in (tau[:cut], tau[cut:])]
            for field in ("c_e", "c_g"):
                joined = np.concatenate([getattr(p, field) for p in parts])
                assert np.array_equal(joined, getattr(whole, field))
