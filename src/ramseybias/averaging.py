"""Duration-ensemble averaging of the train transition probability.

The resonant segment length tau is drawn from a Maxwell-type distribution
in the dimensionless variable x = tau/s, density proportional to
x^3 exp(-x^2). Every oscillatory term of the averaged probability reduces
to the cosine-weighted moment

    I_s(beta) = integral_0^inf exp(-x^2) x^3 cos(2 beta s x) dx,

which equals (1 - b^2)/2 + b (2 b^2 - 3) D(b) / 2 in terms of the Dawson
integral D at b = beta*s. That form cancels two terms of size b^2/2, so the
moment is evaluated instead from a committed piecewise-polynomial table
(``moment_table.npy``, written by ``tools/make_moment_table.py``) and, past
its end, from the asymptotic series of the same expression. A composite
Gauss-Legendre quadrature is the independent oracle for both.

Trains of any order average exactly to a finite sum of such moments, with
coefficients from one FFT of the train population per order; the
two-segment train also has an exact closed form. A Monte Carlo oracle on the
numeric composer checks them all.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DomainError
from .evolution import BiasTrain, compose_train, train_excitation
from .qubit import DriveParams, RegimeQuantities

ArrayLike = Union[float, np.ndarray]

# density below 1e-26 past here; truncation point of all x integrals
X_CUTOFF = 8.0
# (panels, nodes per panel) of the two composite Gauss-Legendre rules of the
# quadrature oracle on [0, X_CUTOFF]; the second rule checks the first
QUAD_RULES = ((16, 32), (16, 48))
QUAD_TOL = 1e-12
# arguments integrated per block by the oracle; bounds its temporaries
QUAD_BLOCK = 256

# FFT coefficients of the train population at or below this are dropped as
# roundoff (at most 1.4e-16); from order 11 on, real ones lie below 1e-12
FOLD_TOL = 1e-15

# raw averages further outside [0, 1] than this indicate a broken formula
RANGE_TOL = 1e-8
# Monte Carlo samples composed per slice; bounds the oracle's temporaries
MC_CHUNK = 2**13
# most Monte Carlo samples: the oracle's population array holds 8 bytes per
# sample, 800 MB here, 100 times the init template's count
MAX_MC_SAMPLES = 10**8

# cells per unit of b of the moment table, and the end of the table; the
# asymptotic series sum_{j>=2} a_j b^(-2j) takes over for |b| >= MOMENT_B
MOMENT_CELLS = 512
MOMENT_B = 12.0


def _asymptotic_coefficients(terms: int) -> np.ndarray:
    """a_2 .. a_{terms+1} of the moment's series in 1/b^2.

    With D(b) ~ sum_k d_k b^(-2k-1), d_0 = 1/2 and d_k = (2k-1)!!/2^(k+1),
    the Dawson form gives a_j = (2 d_{j+1} - 3 d_j)/2; a_0 and a_1 vanish.
    Every a_j is exact in double for the terms used here.
    """
    def d(k):
        return Fraction(prod(range(1, 2 * k, 2)), 2 ** (k + 1))
    return np.array([float((2 * d(j + 1) - 3 * d(j)) / 2)
                     for j in range(2, terms + 2)])


# at |b| = MOMENT_B the first term left out is below 1e-19
_ASYMPTOTIC = _asymptotic_coefficients(12)[::-1]


@lru_cache(maxsize=None)
def _moment_polynomials() -> tuple[np.ndarray, ...]:
    """Rows of ``moment_table.npy`` from the highest power down.

    Row p holds, for cell k = 0 .. MOMENT_CELLS*MOMENT_B, the coefficient of
    t^p of the polynomial in t = MOMENT_CELLS*|b| - k that gives I(b) on
    |t| <= 1/2. Read on first use, so that importing reads no file.
    """
    return tuple(np.load(Path(__file__).with_name("moment_table.npy"))[::-1])


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
        if not self.ratio_r >= 0:
            raise ValueError(f"ratio_r must be non-negative, got {self.ratio_r}")


@dataclass(frozen=True)
class McConfig:
    """Sample count and seed of the Monte Carlo oracle."""

    n_samples: int
    rng_seed: int

    def __post_init__(self):
        if not 1 <= self.n_samples <= MAX_MC_SAMPLES:
            raise ValueError(f"need 1 to {MAX_MC_SAMPLES:,} samples, "
                             f"got {self.n_samples}")
        if self.rng_seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.rng_seed}")


def sample_maxwell(rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact rejection-free draw from the normalized density 2 x^3 e^{-x^2}.

    If u ~ Gamma(shape 2, scale 1) then x = sqrt(u) has exactly this
    density.
    """
    x = rng.gamma(2.0, 1.0, size=size)
    return np.sqrt(x, out=x)


def i_s(beta: ArrayLike, s: float, method: str = "dawson") -> ArrayLike:
    """Cosine-weighted Maxwell moment at frequency ``beta`` (rad/s).

    ``method="dawson"`` evaluates the moment I(b), b = beta*s, from the
    tabulated polynomials for |b| < ``MOMENT_B`` and from its asymptotic
    series beyond; the name is kept from the Dawson-integral form that this
    replaces. Its absolute error is about 1e-16 at any b. ``method="quad"``
    is the independent oracle: it integrates x^3 e^{-x^2} cos(2 b x) on
    [0, 8] with the two composite Gauss-Legendre rules of ``QUAD_RULES`` and
    raises ``ArithmeticError`` where they differ by more than ``QUAD_TOL``,
    which happens for |b| beyond about 72. Both give each argument's value
    independently of the others: a slice of the input gives the same slice
    of the output, bit for bit. A scalar argument gives a float; a
    non-finite argument raises ``DomainError``.
    """
    if not s > 0:
        raise ValueError(f"time constant must be positive, got {s}")
    b = np.asarray(beta, dtype=float) * s
    if method == "dawson":
        val = _moment(b)
    elif method == "quad":
        _require_finite(b.ravel(), np.arange(b.size))
        val = _moment_quad(b)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(val) if np.ndim(beta) == 0 else val


def _require_finite(b: np.ndarray, where: np.ndarray) -> None:
    """Raise on the first non-finite value of ``b``; ``where`` holds the
    flat indices of ``b`` in the caller's argument."""
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        raise DomainError(f"moment argument beta*s = {b[bad[0]]} at flat "
                          f"index {where[bad[0]]} is not finite")


def _moment(b: np.ndarray) -> np.ndarray:
    """I(b) from the table and, for |b| >= MOMENT_B, the asymptotic series."""
    flat = b.ravel()
    y = np.abs(flat)
    far = None
    if not y.max(initial=0.0) < MOMENT_B:
        # rare: NaN and infinity land here too
        far = np.flatnonzero(~(y < MOMENT_B))
        b_far = flat[far]
        _require_finite(b_far, far)
        y[far] = 0.0
    # scaled after the far arguments are cleared, so that none overflows
    y *= MOMENT_CELLS
    cell = np.rint(y)
    y -= cell
    cell = cell.astype(np.intp)
    # one gather per power from its contiguous row: a row gather of the
    # whole table costs more than all of them together
    top, *rest = _moment_polynomials()
    val = np.take(top, cell)
    for coef in rest:
        val *= y
        val += np.take(coef, cell)
    if far is not None:
        with np.errstate(over="ignore"):  # w -> 0, the series' limit
            w = 1.0 / (b_far * b_far)
        tail = np.full_like(w, _ASYMPTOTIC[0])
        for a in _ASYMPTOTIC[1:]:
            tail *= w
            tail += a
        val[far] = tail * w * w
    return val.reshape(b.shape)


@lru_cache(maxsize=None)
def _gauss_legendre(panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes 2x and weights w * x^3 e^{-x^2} of a composite rule on [0, 8]."""
    t, w = np.polynomial.legendre.leggauss(nodes)
    h = X_CUTOFF / panels
    x = (np.arange(panels)[:, None] + (t + 1.0) / 2.0).ravel() * h
    return 2.0 * x, np.tile(w * (h / 2.0), panels) * x**3 * np.exp(-x * x)


def _rule(b: np.ndarray, panels: int, nodes: int) -> np.ndarray:
    """One composite rule at each argument of the 1-d ``b``.

    The node terms of each argument are summed by pairwise halving with
    elementwise adds, so every argument's rounding is fixed by its own
    terms: no BLAS product or reduction whose order depends on the layout.
    """
    two_x, weight = _gauss_legendre(panels, nodes)
    terms = weight * np.cos(b[:, None] * two_x)
    while terms.shape[1] > 1:
        half = terms.shape[1] // 2
        folded = terms[:, :half] + terms[:, half:2 * half]
        if terms.shape[1] % 2:
            folded[:, -1] += terms[:, -1]
        terms = folded
    return terms[:, 0]


def _moment_quad(b: np.ndarray) -> np.ndarray:
    """The quadrature oracle, in blocks of ``QUAD_BLOCK`` arguments."""
    flat = b.ravel()
    out = np.empty_like(flat)
    first, second = QUAD_RULES
    for start in range(0, flat.size, QUAD_BLOCK):
        piece = slice(start, start + QUAD_BLOCK)
        out[piece] = _rule(flat[piece], *first)
        gap = np.abs(out[piece] - _rule(flat[piece], *second))
        worst = int(np.argmax(gap))
        if gap[worst] > QUAD_TOL:
            raise ArithmeticError(
                f"quadrature rules {first} and {second} differ by "
                f"{gap[worst]:.2e} at b = {flat[start + worst]}; the moment "
                "oscillates too fast for them")
    return out.reshape(b.shape)


def __getattr__(name):
    # perfbench/tracer.py patches getattr(averaging, "integrate"), and
    # perfbench's test_install_and_uninstall_restore_every_name fails if the
    # name is missing; the program itself never uses scipy, so it is
    # resolved only when asked for
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


def _pe_double_formula(lam: ArrayLike, theta: ArrayLike, rdd: ArrayLike,
                       s: float) -> ArrayLike:
    """Closed-form duration average of the two-segment train population.

    Written with the weight factors F = sin(theta) cos(theta) and
    F' = sin(theta); the moment arguments are rdd = R*delta_d, lam, 2 lam
    and their sums and differences.
    """
    st = np.sin(theta)
    ct = np.cos(theta)
    f = st * ct
    fp = st
    moment = lambda b: i_s(b, s)
    val = (fp**4 + 4.0 * f * f) / 4.0
    val = val + (fp**4 - 2.0 * f * f) / 2.0 * moment(rdd)
    val = val - 2.0 * f * f * moment(lam) - fp**4 / 2.0 * moment(2.0 * lam)
    val = val + (f + fp) * (f * moment(lam + rdd)
                            - (f + fp) / 4.0 * moment(2.0 * lam + rdd))
    val = val + (f - fp) * (f * moment(lam - rdd)
                            - (f - fp) / 4.0 * moment(2.0 * lam - rdd))
    return val


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
                     rdd: np.ndarray, s: float) -> np.ndarray:
    """Exact duration-averaged train population on a frequency grid, from
    rdd = R*delta_d: the :func:`_moment_table` terms, added one at a time
    (memory linear in the grid), cos(m theta) by angle addition."""
    ct, st = np.cos(theta), np.sin(theta)
    c, sn = np.ones_like(ct), np.zeros_like(ct)
    cosines = [c]
    for _ in range(2 * n_res):
        c, sn = c * ct - sn * st, sn * ct + c * st
        cosines.append(c)
    # elementwise only: a BLAS product rounds a point by its place in the
    # grid. An argument that overflows is refused by i_s as not finite.
    with np.errstate(over="ignore"):
        return sum(sum(a * cos_m for a, cos_m in zip(row, cosines))
                   * (2.0 * i_s((k * lam + l * rdd) / 2.0, s))
                   for k, l, row in zip(*_moment_table(n_res)))


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def mc_oracle(n_res: int, q_res: RegimeQuantities, q_disp: RegimeQuantities,
              drive: DriveParams, avg: AveragingParams,
              mc: McConfig) -> tuple[float, float]:
    """Brute-force sampled duration average; returns (mean, standard error).

    Durations of the ``n_res``-segment train are drawn exactly from the
    normalized Maxwell density and the population is evaluated through the
    numeric train composer, so the estimate is independent of every closed
    form it validates. The (seed, n_samples) pair maps to the result
    deterministically.

    The samples are handled in slices of ``MC_CHUNK``. With w usable CPUs
    (at most the slice count) there are w workers: the calling thread and
    w - 1 threads started here. A worker claims the next slice and draws its
    durations under one lock, so the random stream is read in slice order
    and the draws equal one whole draw bit for bit; it then scales and
    composes them outside the lock into its own part of one population
    array, whose mean and standard error are taken whole. numpy releases
    the interpreter lock inside the draw and the composer's array
    operations, so one worker draws while the others compose. The composer
    treats each sample on its own, so neither the slicing nor the worker
    count changes a bit of the result. If a slice raises, no worker claims
    another, every thread is joined, and the first exception is raised.
    No array of all the durations is held: each slice in flight holds its
    own durations and about 216 bytes per sample of composer temporaries,
    about 1.7 MiB, and only the populations, 8 bytes per sample, grow with
    ``n_samples``.
    """
    rng = np.random.default_rng(mc.rng_seed)
    pe = np.empty(mc.n_samples)
    starts = range(0, mc.n_samples, MC_CHUNK)
    unclaimed = iter(starts)
    lock = threading.Lock()
    errors: list[BaseException] = []

    def compose() -> None:
        try:
            while True:
                with lock:
                    start = None if errors else next(unclaimed, None)
                    if start is None:
                        return
                    tau = sample_maxwell(rng, min(MC_CHUNK, mc.n_samples - start))
                tau *= avg.s
                train = BiasTrain(n_res, tau, avg.ratio_r)
                pe[start:start + tau.size] = compose_train(
                    q_res, q_disp, drive, train).p_e()
        except BaseException as exc:
            with lock:
                errors.append(exc)

    threads = []
    try:
        for _ in range(min(_usable_cpus(), len(starts)) - 1):
            thread = threading.Thread(target=compose)
            thread.start()
            threads.append(thread)
        compose()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    mean = float(pe.mean())
    if mc.n_samples == 1:
        return mean, 0.0
    return mean, float(pe.std(ddof=1) / np.sqrt(mc.n_samples))
