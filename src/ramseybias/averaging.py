"""Duration-ensemble averaging of the train transition probability.

The resonant segment length tau is drawn from a Maxwell-type distribution
in the dimensionless variable x = tau/s, density proportional to
x^3 exp(-x^2). Every oscillatory term of the averaged probability reduces
to the cosine-weighted moment

    I_s(beta) = integral_0^inf exp(-x^2) x^3 cos(2 beta s x) dx,

which has the closed form (1 - b^2)/2 + b (2 b^2 - 3) D(b) / 2 in terms of
the Dawson integral D at b = beta*s. Both the closed form and direct
adaptive quadrature are provided and must agree; the quadrature path is the
oracle for the hand-derived expression.

Trains of any order average exactly to a finite sum of such moments, with
coefficients from one FFT of the train population per order. Closed forms
cover the two-segment train (exact) and the three-segment one near
resonance; a Monte Carlo oracle on the numeric composer checks them all.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.special import dawsn

from .evolution import BiasTrain, compose_train, train_excitation
from .qubit import DriveParams, RegimeQuantities

ArrayLike = Union[float, np.ndarray]

# density below 1e-26 past here; truncation point of all x integrals
X_CUTOFF = 8.0
I_S_EPSABS = 1e-10
# FFT coefficients of the train population at or below this are roundoff
FOLD_TOL = 1e-12

# raw averages further outside [0, 1] than this indicate a broken formula
RANGE_TOL = 1e-8
# Monte Carlo samples composed per slice; bounds the oracle's temporaries
MC_CHUNK = 2**17


@dataclass(frozen=True)
class AveragingParams:
    """Maxwell time constant and dispersion-to-resonance ratio of a train.

    ``s`` is the time constant in seconds (x = tau/s), ``ratio_r`` the
    dispersive-to-resonant segment length ratio (T = R tau).
    """

    s: float
    ratio_r: float

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"time constant must be positive, got {self.s}")
        if self.ratio_r < 0:
            raise ValueError(f"ratio_r must be non-negative, got {self.ratio_r}")


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed of the Monte Carlo oracle."""

    n_samples: int
    rng_seed: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"need at least one sample, got {self.n_samples}")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.rng_seed}")


def maxwell_pdf(x: ArrayLike) -> ArrayLike:
    """Unnormalized duration density x^3 exp(-x^2); integrates to 1/2.

    The normalized density is 2 x^3 exp(-x^2). Requires x >= 0.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("duration variable must be non-negative")
    return x**3 * np.exp(-x * x)


def sample_maxwell(rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact rejection-free draw from the normalized density 2 x^3 e^{-x^2}.

    If u ~ Gamma(shape 2, scale 1) then x = sqrt(u) has exactly this
    density.
    """
    return np.sqrt(rng.gamma(2.0, 1.0, size=size))


def i_s(beta: ArrayLike, s: float, method: str = "dawson") -> ArrayLike:
    """Cosine-weighted Maxwell moment at frequency ``beta`` (rad/s).

    ``method="dawson"`` evaluates the closed form; ``method="quad"``
    integrates x^3 e^{-x^2} cos(2 beta s x) on [0, 8] by adaptive
    quadrature (absolute tolerance 1e-10). The two must agree to 1e-9;
    the quadrature path is the independent oracle. It imports
    ``scipy.integrate`` on first use, so commands that never run it do not
    pay for that import at start-up.
    """
    if not s > 0:
        raise ValueError(f"time constant must be positive, got {s}")
    b = np.asarray(beta, dtype=float) * s
    if method == "dawson":
        val = (1.0 - b * b) / 2.0 + (b / 2.0) * (2.0 * b * b - 3.0) * dawsn(b)
        return float(val) if np.ndim(beta) == 0 else val
    if method == "quad":
        from scipy import integrate

        def one(bv):
            f = lambda x: x**3 * np.exp(-x * x) * np.cos(2.0 * bv * x)
            val, _ = integrate.quad(f, 0.0, X_CUTOFF, epsabs=I_S_EPSABS, limit=400)
            return val
        if np.ndim(b) == 0:
            return one(float(b))
        return np.array([one(bv) for bv in np.ravel(b)]).reshape(np.shape(b))
    raise ValueError(f"unknown method {method!r}")


def __getattr__(name):
    # perfbench/tracer.py patches getattr(averaging, "integrate"), and
    # perfbench's test_install_and_uninstall_restore_every_name fails if the
    # name is missing; resolve it lazily so importing this module does not
    # import scipy.integrate
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _check_range(value: ArrayLike, label: str) -> None:
    low = float(np.min(value))
    high = float(np.max(value))
    if low < -RANGE_TOL or high > 1.0 + RANGE_TOL:
        warnings.warn(
            f"{label} outside [0, 1] (min {low:.3e}, max {high:.3e}); "
            "this indicates an inconsistency in the averaged expression",
            stacklevel=3,
        )


def _pe_double_formula(lam: ArrayLike, theta: ArrayLike, delta_d: ArrayLike,
                       s: float, ratio_r: float) -> ArrayLike:
    """Closed-form duration average of the two-segment train population.

    Written with the weight factors F = sin(theta) cos(theta) and
    F' = sin(theta); the moment arguments are R*delta_d, lam, 2 lam and
    their sums and differences.
    """
    st = np.sin(theta)
    ct = np.cos(theta)
    f = st * ct
    fp = st
    rdd = ratio_r * np.asarray(delta_d, dtype=float)
    moment = lambda b: i_s(b, s)
    val = (fp**4 + 4.0 * f * f) / 4.0
    val = val + (fp**4 - 2.0 * f * f) / 2.0 * moment(rdd)
    val = val - 2.0 * f * f * moment(lam) - fp**4 / 2.0 * moment(2.0 * lam)
    val = val + (f + fp) * (f * moment(lam + rdd)
                            - (f + fp) / 4.0 * moment(2.0 * lam + rdd))
    val = val + (f - fp) * (f * moment(lam - rdd)
                            - (f - fp) / 4.0 * moment(2.0 * lam - rdd))
    return val


def _pe_triple_closed_formula(lam: ArrayLike, theta: ArrayLike,
                              delta_d: ArrayLike, s: float,
                              ratio_r: float) -> ArrayLike:
    """Close-resonance duration average of the three-segment train.

    Valid where the detuning is small against the coupling; exact at zero
    detuning, where the mixing-angle cosine vanishes.
    """
    fp = np.sin(theta)
    rdd = ratio_r * np.asarray(delta_d, dtype=float)
    moment = lambda b: i_s(b, s)
    bracket = (6.0
               - 10.0 * moment(lam)
               + 4.0 * moment(2.0 * lam)
               - 6.0 * moment(3.0 * lam)
               + 4.0 * moment(2.0 * rdd)
               + 4.0 * moment(lam + rdd) + 4.0 * moment(lam - rdd)
               + moment(lam + 2.0 * rdd) + moment(lam - 2.0 * rdd)
               - 2.0 * moment(2.0 * lam + 2.0 * rdd)
               - 2.0 * moment(2.0 * lam - 2.0 * rdd)
               - 4.0 * moment(3.0 * lam + rdd) - 4.0 * moment(3.0 * lam - rdd)
               - moment(3.0 * lam + 2.0 * rdd) - moment(3.0 * lam - 2.0 * rdd))
    return fp * fp / 16.0 * bracket


def _triple_population(x: float, lam: np.ndarray, theta: np.ndarray,
                       delta_d: np.ndarray, s: float, ratio_r: float) -> np.ndarray:
    """|c_e|^2 of the three-segment train at tau = s*x (hand-derived oracle)."""
    tau = s * x
    lam_tau = lam * tau
    c = np.cos(lam_tau)
    sn = np.sin(lam_tau)
    ct = np.cos(theta)
    st = np.sin(theta)
    x2 = 2.0 * delta_d * ratio_r * tau
    bracket = (2.0 * (c * c - ct * ct * sn * sn) * np.cos(x2)
               - 2.0 * ct * np.sin(2.0 * lam_tau) * np.sin(x2)
               + c * c + np.cos(2.0 * theta) * sn * sn)
    return (st * sn * bracket) ** 2


@lru_cache(maxsize=None)
def _moment_table(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, l) pairs and, per pair and m = 0..2n, the cos(m theta)
    coefficients of the weight of 2 I_s((k lam + l R delta_d)/2) in the
    averaged n-segment population. That population has degree 2n in
    lam*tau and theta and 2(n-1) in delta_d*T, so one FFT on a (4n+1, 4n-3,
    4n+1) torus is exact; evenness in the durations folds (k, l) with
    (-k, -l), and evenness in theta folds +-m onto cosines alone."""
    shape = (4 * n + 1, 4 * n - 3, 4 * n + 1)
    a, b, theta = np.meshgrid(*(2.0 * np.pi * np.arange(m) / m for m in shape),
                              indexing="ij")
    c = np.fft.fftn(train_excitation(n, a, theta, b)) / a.size
    odd = np.max(np.abs(c - np.roll(np.flip(c, axis=(0, 1)), 1, axis=(0, 1)))) / 2
    if odd > FOLD_TOL:
        raise ArithmeticError(f"{n}-segment train population is not even in the "
                              f"durations (odd part {odd:.2e}); no moment sum")
    k, l = np.meshgrid(np.arange(2 * n + 1), np.arange(2 - 2 * n, 2 * n - 1),
                       indexing="ij")
    fold = np.where((k == 0) & (l == 0), 1, 2)[..., None] * np.r_[1, [2] * 2 * n]
    cm = c[k, l, :2 * n + 1]
    odd = np.max(np.abs(fold * cm.imag))
    if odd > FOLD_TOL:
        raise ArithmeticError(f"{n}-segment train population is not even in "
                              f"theta (sine part {odd:.2e}); no cosine sum")
    coef = fold * cm.real
    coef[np.abs(coef) <= FOLD_TOL] = 0.0
    keep = ((k > 0) | (l >= 0)) & coef.any(axis=2)
    return k[keep], l[keep], coef[keep]


def _pe_grid_numeric(n_res: int, lam: np.ndarray, theta: np.ndarray,
                     delta_d: np.ndarray, s: float, ratio_r: float) -> np.ndarray:
    """Exact duration-averaged train population on a frequency grid: the
    :func:`_moment_table` terms, added one at a time (memory linear in the
    grid), with cos(m theta) from the angle-addition recurrence."""
    ct, st = np.cos(theta), np.sin(theta)
    c, sn = np.ones_like(ct), np.zeros_like(ct)
    cosines = [c]
    for _ in range(2 * n_res):
        c, sn = c * ct - sn * st, sn * ct + c * st
        cosines.append(c)
    rdd = ratio_r * np.asarray(delta_d, dtype=float)
    # elementwise only: a BLAS product rounds a point by its place in the grid
    return sum(sum(a * cos_m for a, cos_m in zip(row, cosines))
               * (2.0 * i_s((k * lam + l * rdd) / 2.0, s))
               for k, l, row in zip(*_moment_table(n_res)))


def pe_avg_triple_closed(q_res: RegimeQuantities, q_disp: RegimeQuantities,
                         avg: AveragingParams) -> float:
    """Close-resonance closed form for the three-segment train average.

    Exact at zero detuning; off resonance it is an approximation and may
    leave [0, 1], which is expected and not warned about.
    """
    return float(_pe_triple_closed_formula(q_res.lam, q_res.theta,
                                           q_disp.delta_d, avg.s, avg.ratio_r))


def mc_oracle(n_res: int, q_res: RegimeQuantities, q_disp: RegimeQuantities,
              drive: DriveParams, avg: AveragingParams,
              mc: McConfig) -> tuple[float, float]:
    """Brute-force sampled duration average; returns (mean, standard error).

    Durations of the ``n_res``-segment train are drawn exactly from the
    normalized Maxwell density and the population is evaluated through the
    numeric train composer, so the estimate is independent of every closed
    form it validates. The (seed, n_samples) pair maps to the result
    deterministically.

    All durations are drawn in one call, then composed in slices of
    ``MC_CHUNK`` samples into one population array whose mean and standard
    error are taken whole; the composer treats each sample on its own, so
    the slicing changes no bit. Its complex temporaries are bounded by the
    slice (about 2 MiB each); only the durations and the populations, 8
    bytes per sample each, grow with ``n_samples``.
    """
    if n_res < 1:
        raise ValueError(f"need at least one resonant segment, got {n_res}")
    tau = avg.s * sample_maxwell(np.random.default_rng(mc.rng_seed), mc.n_samples)
    pe = np.empty(mc.n_samples)
    for start in range(0, mc.n_samples, MC_CHUNK):
        piece = slice(start, start + MC_CHUNK)
        train = BiasTrain(n_res, tau[piece], avg.ratio_r)
        pe[piece] = compose_train(q_res, q_disp, drive, train).p_e()
    mean = float(pe.mean())
    if mc.n_samples == 1:
        return mean, 0.0
    return mean, float(pe.std(ddof=1) / np.sqrt(mc.n_samples))
