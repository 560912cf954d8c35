"""Exact piecewise two-level propagation through a bias train.

A train alternates resonant segments (duration tau, Rabi-type mixing at the
dressed rate lam) with dispersive segments (duration T = R*tau, pure phase
accumulation at rate delta_d). Segment updates are written in the laboratory
frame, so the running start time ``t0`` of each segment enters the
cross-coupling phases and must be threaded through compositions.

Closed forms for the separated-field amplitudes after two and three
resonant segments are provided alongside a general numeric composer for
trains of any order. The composer is the independent cross-check: it runs
under the Monte Carlo oracle, while spectra are evaluated by the exact
moment sum of ``averaging``.

All functions broadcast over NumPy arrays in ``tau``/``t0``/amplitudes.
The composer evaluates a Monte Carlo ensemble of durations as whole-array
products: the trigonometric factors of a sample are computed once, and each
later segment costs a few complex multiplications per sample. Its
temporaries peak at about 216 bytes per sample for any train order, so one
slice of 2^13 samples, as ``averaging.mc_oracle`` composes them, holds
about 1.7 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .qubit import DriveParams, RegimeQuantities

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class QubitAmplitudes:
    """Complex excited/ground amplitude pair; unit norm up to roundoff."""

    c_e: complex | np.ndarray
    c_g: complex | np.ndarray

    def norm_sq(self) -> ArrayLike:
        return np.abs(self.c_e) ** 2 + np.abs(self.c_g) ** 2

    def p_e(self) -> ArrayLike:
        """Excited-state population |c_e|^2."""
        return np.abs(self.c_e) ** 2


GROUND = QubitAmplitudes(0.0 + 0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class BiasTrain:
    """Alternating train: n_res resonant segments of length tau, interleaved
    with (n_res - 1) dispersive segments of length ratio_r * tau.

    ``tau`` may be an ndarray to evaluate an ensemble of trains at once.
    """

    n_res: int
    tau: ArrayLike
    ratio_r: float

    def __post_init__(self):
        if self.n_res < 1:
            raise ValueError(f"need at least one resonant segment, got {self.n_res}")
        if not np.all(np.asarray(self.tau) >= 0):
            raise ValueError("tau must be non-negative")
        if not self.ratio_r >= 0:
            raise ValueError(f"ratio_r must be non-negative, got {self.ratio_r}")


def propagate_segment(state: QubitAmplitudes, q: RegimeQuantities,
                      drive: DriveParams, tau: ArrayLike,
                      t0: ArrayLike = 0.0) -> QubitAmplitudes:
    """Laboratory-frame two-level update over one constant-bias interval.

    With c = cos(lam*tau), s = sin(lam*tau) and the mixing angle theta::

        c_e' = (c - i cos(theta) s) e^{-i omega tau/2} c_e
               - i sin(theta) s e^{-i omega (tau/2 + t0)} c_g
        c_g' = (c + i cos(theta) s) e^{+i omega tau/2} c_g
               - i sin(theta) s e^{+i omega (tau/2 + t0)} c_e

    The update is unitary, so unit-norm states stay unit-norm.
    """
    lam_tau = q.lam * np.asarray(tau, dtype=float)
    c = np.cos(lam_tau)
    s = np.sin(lam_tau)
    ct = np.cos(q.theta)
    st = np.sin(q.theta)
    half = drive.omega * np.asarray(tau, dtype=float) / 2.0
    cross = drive.omega * (np.asarray(tau, dtype=float) / 2.0 + t0)
    c_e = (c - 1j * ct * s) * np.exp(-1j * half) * state.c_e \
        - 1j * st * s * np.exp(-1j * cross) * state.c_g
    c_g = (c + 1j * ct * s) * np.exp(1j * half) * state.c_g \
        - 1j * st * s * np.exp(1j * cross) * state.c_e
    return QubitAmplitudes(c_e, c_g)


def dispersive_phase(state: QubitAmplitudes, delta_d: float, omega: float,
                     t_disp: ArrayLike) -> QubitAmplitudes:
    """Pure phase accumulation over a far-detuned segment of length T.

    Multiplies c_e by e^{-i (delta_d + omega/2) T} and c_g by its
    conjugate; the populations are untouched.
    """
    phase = np.exp(-1j * (delta_d + omega / 2.0) * np.asarray(t_disp, dtype=float))
    return QubitAmplitudes(state.c_e * phase, state.c_g / phase)


def ce_double(q_res: RegimeQuantities, q_disp: RegimeQuantities,
              drive: DriveParams, tau: ArrayLike, t_disp: ArrayLike) -> ArrayLike:
    """Closed-form excited amplitude after a tau / T / tau train.

    Ground-state start. Equal to composing resonant, dispersive and
    resonant updates step by step; an oracle for :func:`compose_train`, run
    by ``validate`` and the tests.
    """
    tau = np.asarray(tau, dtype=float)
    lam_tau = q_res.lam * tau
    c = np.cos(lam_tau)
    s = np.sin(lam_tau)
    ct = np.cos(q_res.theta)
    st = np.sin(q_res.theta)
    x = q_disp.delta_d * np.asarray(t_disp, dtype=float)
    envelope = -2j * np.exp(-1j * drive.omega * (tau + np.asarray(t_disp) / 2.0))
    return envelope * st * s * (c * np.cos(x) - ct * s * np.sin(x))


def ce_triple(q_res: RegimeQuantities, q_disp: RegimeQuantities,
              drive: DriveParams, tau: ArrayLike, t_disp: ArrayLike) -> ArrayLike:
    """Closed-form excited amplitude after a tau/T/tau/T/tau train."""
    tau = np.asarray(tau, dtype=float)
    lam_tau = q_res.lam * tau
    c = np.cos(lam_tau)
    s = np.sin(lam_tau)
    ct = np.cos(q_res.theta)
    st = np.sin(q_res.theta)
    x2 = 2.0 * q_disp.delta_d * np.asarray(t_disp, dtype=float)
    bracket = (2.0 * (c * c - ct * ct * s * s) * np.cos(x2)
               - 2.0 * ct * np.sin(2.0 * lam_tau) * np.sin(x2)
               + c * c + np.cos(2.0 * q_res.theta) * s * s)
    envelope = -1j * np.exp(-1j * drive.omega * (1.5 * tau + np.asarray(t_disp)))
    return envelope * st * s * bracket


def compose_train(q_res: RegimeQuantities, q_disp: RegimeQuantities,
                  drive: DriveParams, train: BiasTrain) -> QubitAmplitudes:
    """Fold the laboratory-frame segment updates over a full bias train.

    Starts from the ground state at t0 = 0. Every resonant segment of a
    sample has the same tau, so its factors are computed once per sample::

        a = (cos(lam tau) - i cos(theta) sin(lam tau)) e^{-i omega tau/2}
        b = -i sin(theta) sin(lam tau) e^{-i omega tau/2}

    together with the dispersive phasor e^{-i (delta_d + omega/2) T} and the
    per-period advance e^{-i omega (tau + T)}. A resonant segment is then
    c_e' = a c_e + b c_g, c_g' = conj(a) c_g - conj(b) c_e, where b carries
    the cross-coupling phase e^{-i omega t0}: it is multiplied by the advance
    before each later segment, so the laboratory start time is threaded
    through by multiplication. For n_res = 1 it is one
    :func:`propagate_segment` from the ground state, and for n_res = 2, 3
    the excited amplitude reproduces :func:`ce_double` and :func:`ce_triple`.
    """
    shape = np.shape(train.tau)
    # numpy's scalar loops round differently: compute a scalar as one sample
    tau = np.atleast_1d(np.asarray(train.tau, dtype=float))
    lam_tau = q_res.lam * tau
    sn = np.sin(lam_tau)
    half = np.exp(-0.5j * drive.omega * tau)
    a = (np.cos(lam_tau) - 1j * np.cos(q_res.theta) * sn) * half
    b = -1j * np.sin(q_res.theta) * sn * half
    a_bar = np.conj(a)
    t_disp = train.ratio_r * tau
    gap = np.exp(-1j * (q_disp.delta_d + drive.omega / 2.0) * t_disp)
    gap_bar = np.conj(gap)
    advance = np.exp(-1j * drive.omega * (tau + t_disp))
    c_e, c_g = b, a_bar
    for _ in range(train.n_res - 1):
        c_e = c_e * gap
        c_g = c_g * gap_bar
        b = b * advance
        c_e, c_g = a * c_e + b * c_g, a_bar * c_g - np.conj(b) * c_e
    return QubitAmplitudes(c_e.reshape(shape), c_g.reshape(shape))


def train_excitation(n_res: int, lam_tau: ArrayLike, theta: ArrayLike,
                     delta_d_t: ArrayLike) -> ArrayLike:
    """Excited-state population of an n_res train, phase-free recursion.

    The laboratory-frame probe phases cancel in |c_e|^2, so the population
    depends only on lam*tau, theta and delta_d*T. Sampled on a torus, it
    gives the moment table of the duration average of any order.
    """
    c = np.cos(lam_tau)
    s = np.sin(lam_tau)
    ct = np.cos(theta)
    st = np.sin(theta)
    a11 = c - 1j * ct * s
    a12 = -1j * st * s
    gap = np.exp(-1j * np.asarray(delta_d_t, dtype=float))
    c_e = np.zeros_like(np.asarray(lam_tau, dtype=float), dtype=complex)
    c_g = np.ones_like(c_e)
    for k in range(n_res):
        if k > 0:
            c_e = c_e * gap
            c_g = c_g / gap
        c_e, c_g = a11 * c_e + a12 * c_g, np.conj(a11) * c_g + a12 * c_e
    return np.abs(c_e) ** 2
