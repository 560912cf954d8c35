"""Probe-frequency sweeps and peak/linewidth/fringe extraction.

A sweep evaluates the scheme's duration-averaged transition probability on
a strictly increasing frequency grid, recomputing the detuning quantities
at every point. Metrics locate the peak by parabolic refinement, measure
the full width at half maximum from linearly interpolated crossings, and
list secondary maxima (fringes) outside the half-maximum interval.

The continuous-wave reference line A eta^2 / (delta^2 + eta^2), with a
full width of 4 eta, is the comparison baseline for linewidth reductions
and dispersive shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import (RANGE_TOL, AveragingParams, ArrayLike, _check_range,
                        _pe_double_formula, _pe_grid_numeric)
from .errors import DomainError, MetricsError, NoCrossingError, NoPeakError
from .qubit import DriveParams, TransmonParams, omega_eg, regime_quantities
from .units import to_ghz

CW_AMPLITUDE_DEFAULT = 0.5

# most points of a sweep grid (8 MB per array), moment torus or (s, R) search
MAX_GRID_POINTS = 10**6

# detection threshold for fringe listing, as a fraction of the peak value
FRINGE_THRESHOLD = 0.01

# mean duration tau/s of the Maxwell density 2 x^3 exp(-x^2): Gamma(5/2)
MEAN_DURATION = 0.75 * math.sqrt(math.pi)


@dataclass
class Spectrum:
    """Sampled averaged-probability curve over probe frequency.

    ``omega`` is strictly increasing (rad/s); ``p_e`` values are clamped to
    [0, 1] at assembly (out-of-range raw values are warned about upstream),
    and values outside [0, 1 + 1e-6], NaN included, are rejected.
    """

    omega: np.ndarray
    p_e: np.ndarray
    scheme_tag: str

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.p_e = np.asarray(self.p_e, dtype=float)
        if self.omega.shape != self.p_e.shape or self.omega.ndim != 1:
            raise ValueError("omega and p_e must be 1-d arrays of equal length")
        if self.omega.size == 0:
            raise ValueError("empty grid")
        if self.omega.size > 1 and not np.all(np.diff(self.omega) > 0):
            raise ValueError("omega grid must be strictly increasing")
        if not np.all((self.p_e >= 0) & (self.p_e <= 1.0 + 1e-6)):
            raise ValueError("p_e values outside [0, 1 + 1e-6]")

    def __len__(self):
        return self.omega.size


@dataclass
class SpectrumMetrics:
    """Peak location/height, linewidth, shift against a reference and
    fringe table of one spectrum. Frequencies angular (rad/s)."""

    peak_omega: float
    peak_value: float
    fwhm: float
    shift_vs_ref: float | None
    fringes: list[tuple[float, float]]


def _grid_quantities(transmon: TransmonParams, eta: float,
                     grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resonant-bias lam and theta and dispersive-bias delta_d over a grid."""
    drive = DriveParams(eta, grid)
    q_res = regime_quantities(transmon, drive, "resonant")
    q_disp = regime_quantities(transmon, drive, "dispersive")
    return q_res.lam, q_res.theta, q_disp.delta_d


def _train_order(n_res: int) -> int:
    """``n_res``, once its moment torus of (4n+1)^2 (4n-3) points is known
    to fit in ``MAX_GRID_POINTS`` (orders 1 to 25)."""
    if n_res < 1 or (4 * n_res + 1) ** 2 * (4 * n_res - 3) > MAX_GRID_POINTS:
        raise ValueError(f"need 1 to 25 resonant segments, got {n_res}")
    return n_res


def parse_scheme(scheme: str) -> int | None:
    """Resonant-segment count of a scheme tag; None for "cw"."""
    if scheme == "cw":
        return None
    if scheme == "double":
        return 2
    if scheme == "triple":
        return 3
    if scheme.startswith("general:"):
        return _train_order(int(scheme.split(":", 1)[1]))
    raise ValueError(f"unknown scheme {scheme!r}")


def pe_average(n_res: int, lam: ArrayLike, theta: ArrayLike,
               delta_d: ArrayLike, avg: AveragingParams) -> ArrayLike:
    """Duration-averaged excited population of an ``n_res``-segment train.

    Takes the resonant-bias quantities lam and theta and the dispersive
    phase rate delta_d, as scalars (returns a float) or as grids (returns an
    array). The two-segment train uses its exact closed form, every other
    order the exact moment sum of ``_pe_grid_numeric``; both take the
    product R*delta_d formed here. A product that overflows, or a moment
    argument that overflows with it, raises DomainError naming R. Raw
    values are returned; values outside [0, 1] beyond tolerance are warned
    about, never clamped here.
    """
    _train_order(n_res)
    with np.errstate(over="ignore"):
        rdd = avg.ratio_r * np.asarray(delta_d, dtype=float)
    if not np.all(np.isfinite(rdd)):
        raise DomainError(f"R*delta_d at R = {avg.ratio_r:g} is not finite")
    try:
        if n_res == 2:
            raw = _pe_double_formula(lam, theta, rdd, avg.s)
        else:
            raw = _pe_grid_numeric(n_res, lam, theta, rdd, avg.s)
    except DomainError as exc:
        # a multiple of R*delta_d in a moment argument overflowed
        raise DomainError(f"at R = {avg.ratio_r:g}, {exc}") from exc
    _check_range(raw, f"{n_res}-segment train average")
    return float(np.ravel(raw)[0]) if np.ndim(lam) == 0 else raw


def sweep(scheme: str, transmon: TransmonParams, eta: float,
          omega_grid: np.ndarray, avg: AveragingParams | None = None, *,
          cw_amplitude: float = CW_AMPLITUDE_DEFAULT) -> Spectrum:
    """Averaged transition probability of one scheme over a frequency grid.

    ``scheme`` is "cw", "double", "triple" or "general:<n>"; its
    resonant-segment count alone picks the averaging (see
    :func:`pe_average`), so tags naming the same train give the same
    spectrum. Every grid point is computed on its own, so a sweep equals the
    sweeps of its pieces. Schemes other than "cw" require ``avg``. Raw
    averages are clipped to [0, 1] for the spectrum. "cw" is the reference
    line A eta^2/(delta^2 + eta^2) with A = ``cw_amplitude``; its default
    1/2 is the large-argument duration average of the resonant oscillation,
    and location and width metrics do not depend on it.
    """
    grid = np.asarray(omega_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("omega grid must be strictly increasing")
    n_res = parse_scheme(scheme)
    if n_res is None:
        delta = regime_quantities(transmon, DriveParams(eta, grid), "resonant").delta
        return Spectrum(grid, cw_amplitude * eta**2 / (delta * delta + eta**2), scheme)
    if avg is None:
        raise ValueError(f"scheme {scheme!r} requires averaging parameters")
    p = pe_average(n_res, *_grid_quantities(transmon, eta, grid), avg)
    return Spectrum(grid, np.clip(p, 0.0, 1.0), scheme)


def grid_points(omega_min: float, omega_max: float, step: float) -> int:
    """Point count of ``make_grid(omega_min, omega_max, step)``.

    Raises ValueError for a step that is not positive, an empty window, or
    a grid of more than ``MAX_GRID_POINTS`` points.
    """
    if not step > 0:
        raise ValueError(f"grid step must be positive, got {step}")
    if not omega_max > omega_min:
        raise ValueError("empty grid: sweep window maximum must exceed minimum")
    steps = (omega_max - omega_min) / step + 1e-9
    if not steps < MAX_GRID_POINTS:
        raise ValueError(f"grid exceeds the limit of {MAX_GRID_POINTS:,} points "
                         "per sweep")
    return int(np.floor(steps)) + 1


def make_grid(omega_min: float, omega_max: float, step: float) -> np.ndarray:
    """Uniform grid from omega_min to omega_max inclusive (within a step)."""
    return omega_min + step * np.arange(grid_points(omega_min, omega_max, step))


def _parabolic_peak(x, y, i) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1 (non-uniform ok)."""
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = (x0 - x1) * (x0 - x2) * (x1 - x2)
    a = (x2 * (y1 - y0) + x1 * (y0 - y2) + x0 * (y2 - y1)) / denom
    if not a < 0:
        # flat or upward curvature: keep the sample itself
        return float(x1), float(y1)
    b = (x2 * x2 * (y0 - y1) + x1 * x1 * (y2 - y0) + x0 * x0 * (y1 - y2)) / denom
    xp = -b / (2.0 * a)
    c = y1 - a * x1 * x1 - b * x1
    return float(xp), float(a * xp * xp + b * xp + c)


def _bracket(y, i_peak, level, side) -> tuple[int, int]:
    """Indices (k, j) of the nearest half-maximum bracket on one side of the
    peak sample: k is the first sample outward not above ``level`` (NaN
    included), j its inner neighbour."""
    step = -1 if side == "left" else 1
    outward = y[:i_peak][::-1] if step < 0 else y[i_peak + 1:]
    hits = np.flatnonzero(~(outward > level))
    if hits.size == 0:
        raise NoCrossingError(side)
    k = i_peak + step * (1 + int(hits[0]))
    j = k - step
    if not y[j] > level:
        # only the peak sample itself can be the inner end here: the refined
        # peak put the half level at or above it, so there is no bracket
        raise NoCrossingError(side, f"no half-maximum crossing on the {side} "
                                    "side: the peak sample is at or below the "
                                    "refined half maximum")
    return k, j


def _crossing(x, y, i_peak, level, side) -> float:
    """Nearest half-maximum crossing on one side of the peak sample,
    interpolated linearly between the samples of its bracket."""
    k, j = _bracket(y, i_peak, level, side)
    # y[k] <= level < y[j]
    t = (level - y[k]) / (y[j] - y[k])
    return float(x[k] + t * (x[j] - x[k]))


def _peak(spec: Spectrum) -> tuple[int, float, float]:
    """Index of the maximal sample and the refined (omega, value) of the peak.

    Raises NoPeakError when the grid is too short or the maximum sits on a
    boundary.
    """
    if len(spec) < 3:
        raise NoPeakError(f"need at least 3 points, got {len(spec)}")
    i = int(np.argmax(spec.p_e))
    if i == 0 or i == len(spec) - 1:
        raise NoPeakError(
            f"maximum at grid boundary omega/2pi = {to_ghz(spec.omega[i]):.9g} GHz"
        )
    return (i, *_parabolic_peak(spec.omega, spec.p_e, i))


def metrics(spec: Spectrum, reference: Spectrum | None = None) -> SpectrumMetrics:
    """Peak, linewidth, shift and fringe statistics of a spectrum.

    The peak is refined parabolically through the maximal sample and its
    neighbors; the width is taken between the half-maximum crossings
    nearest the peak, each linearly interpolated between bracketing
    samples. When ``reference`` is given, the signed shift of the peak
    against the reference peak is included. Fringes are local maxima
    outside the half-maximum interval with height at least 1 % of the
    peak.

    Raises NoPeakError as :func:`_peak` does, and NoCrossingError
    when a side has no bracketing pair of samples (the sample inside above
    the half level, the one outside at or below it). The left side is
    searched first, so when both sides lack a crossing the error names
    "left".
    """
    i, peak_w, peak_v = _peak(spec)
    half = peak_v / 2.0
    left = _crossing(spec.omega, spec.p_e, i, half, "left")
    right = _crossing(spec.omega, spec.p_e, i, half, "right")

    shift = None if reference is None else peak_w - _peak(reference)[1]

    w, p = spec.omega, spec.p_e
    wm, mid = w[1:-1], p[1:-1]
    hit = ((mid > p[:-2]) & (mid > p[2:]) & ~((left <= wm) & (wm <= right))
           & (mid >= FRINGE_THRESHOLD * peak_v))
    fringes = [(float(a), float(b)) for a, b in zip(wm[hit], mid[hit])]

    return SpectrumMetrics(peak_w, peak_v, right - left, shift, fringes)


def _merged(first: Spectrum, second: Spectrum) -> Spectrum:
    """One strictly increasing spectrum of two passes; of equal frequencies,
    the first pass's sample is kept."""
    w = np.concatenate((first.omega, second.omega))
    order = np.argsort(w, kind="stable")
    w, p = w[order], np.concatenate((first.p_e, second.p_e))[order]
    keep = np.diff(w, prepend=-np.inf) > 0
    return Spectrum(w[keep], p[keep], first.scheme_tag)


def _rise_rate(n_res: int, transmon: TransmonParams, eta: float,
               avg: AveragingParams, omega_lo: float, omega_hi: float) -> float:
    """Bound (s) on |dp/d omega| of an averaged curve over [omega_lo, omega_hi].

    A train runs n resonant segments of length tau under delta sz + eta sx,
    with d delta/d omega = -1/2, and n - 1 dispersive ones of length R tau
    under delta_d sz, with |d delta_d/d omega| = |eta^2/d^2 - 1/2| <= D =
    1/2 + eta^2/g^2 for d the distance to the dispersive splitting and g
    its least value over the interval. A propagator moves by at most
    sum_k t_k ||dH_k/d omega||, and p = |c_e|^2 by twice that, so
    |dp/d omega| <= tau (n + 2 (n - 1) R D). Averaging over tau and clipping
    to [0, 1] keep the bound, with tau replaced by its mean.
    """
    rate_d = 0.0
    if n_res > 1 and avg.ratio_r > 0:
        w_disp = omega_eg(transmon, transmon.phi_disp)
        gap = max(omega_lo - w_disp, w_disp - omega_hi)
        if not gap > 0:
            return math.inf
        rate_d = 0.5 + (eta / gap) * (eta / gap)
    return MEAN_DURATION * avg.s * (n_res + 2 * (n_res - 1) * avg.ratio_r * rate_d)


def _certified(spec: Spectrum, edges: np.ndarray, upper: np.ndarray,
               lower: np.ndarray, skipped: np.ndarray) -> bool:
    """Whether ``metrics(spec)`` equals that of the curve which also holds
    the fine samples of the coarse cells marked in ``skipped``.

    Cell q runs from coarse sample ``edges[q]`` to ``edges[q + 1]``, and
    ``spec`` holds every coarse sample. Every fine sample of cell q lies in
    [lower[q], upper[q]], margins for the error of computed values included.
    Metrics read the maximal sample with its two neighbours, and the outer
    and inner sample of each half-maximum bracket. Both curves give the
    same five samples when:

    1. every skipped cell has its upper bound below the maximal sample;
    2. every skipped cell between the two outer bracket samples has its
       lower bound above the half level, so no skipped sample ends a
       bracket sooner;
    3. no skipped cell lies between the maximal sample and a neighbour, or
       between the two samples of a bracket.
    """
    w, p = spec.omega, spec.p_e
    try:
        i, _, peak_v = _peak(spec)
        (k_l, _), (k_r, j_r) = (_bracket(p, i, peak_v / 2.0, side)
                                for side in ("left", "right"))
    except MetricsError:
        return False
    # the cells of the five samples; one at or past the last coarse sample
    # lies in none
    cell = np.searchsorted(edges, w[[i - 1, i, k_l, j_r, k_r]], side="right") - 1
    a, b = cell[2], cell[4]
    return bool(upper.max(initial=-np.inf, where=skipped) < p[i]
                and lower[a:b].min(initial=np.inf, where=skipped[a:b]) > peak_v / 2.0
                and not skipped[cell[cell < skipped.size]].any())


def _two_stage(fine, omega_min: float, omega_max: float, coarse_step: float,
               refine_step: float, rise_rate=None) -> tuple[Spectrum, bool]:
    """Coarse pass of the pointwise curve ``fine(grid) -> Spectrum`` over
    the window, then a fine pass at ``refine_step`` over the coarse peak
    plus or minus twice the coarse width, clipped to the window. Returns the
    merged spectrum and whether a narrowed pass fell back to the whole grid.

    It narrows only given ``rise_rate(lo, hi)``, a bound on |dp/d omega|
    over [lo, hi]. The coarse samples cut the fine grid into cells, and the
    bound times the coarse step brackets each cell's fine samples between
    its coarse ones. One pass averages the cells whose bracket reaches the
    coarse maximum or may meet the half level, and the fine samples at or
    past the last coarse sample. That curve is kept when :func:`_certified`
    shows that metrics read the same samples from it as from the full curve.
    Otherwise, or when the bound is infinite or a coarse step breaks it, the
    rest is averaged too: ``fine`` is pointwise, so that is the unnarrowed
    spectrum exactly.
    """
    coarse = fine(make_grid(omega_min, omega_max, coarse_step))
    try:
        m = metrics(coarse)
    except MetricsError as exc:
        # a command may measure two curves: name the one that failed
        exc.args = (f"{coarse.scheme_tag} curve: {exc}",)
        raise
    grid = make_grid(max(omega_min, m.peak_omega - 2.0 * m.fwhm),
                     min(omega_max, m.peak_omega + 2.0 * m.fwhm), refine_step)
    c, pc = coarse.omega, coarse.p_e
    rise = math.inf
    if rise_rate is not None:
        # cell q, from coarse sample q to q + 1, holds the next counts[q]
        # fine points; the last cell, those at or past the last coarse
        # sample, is always averaged
        counts = np.diff(np.searchsorted(grid, c), append=grid.size)
        holds = counts[:-1] > 0
        first, last = np.flatnonzero(holds)[[0, -1]] + (0, 1)
        rise = coarse_step * rise_rate(c[first], c[last])
    if not (rise < math.inf and np.all(np.abs(np.diff(pc[first:last + 1])) <= rise)):
        return _merged(coarse, fine(grid)), rise_rate is not None
    # the cells that may hold the maximum, or the half level for a peak
    # between the coarse maximum and the largest bound
    mid = pc[:-1] + pc[1:]
    upper = (mid + rise) / 2.0 + RANGE_TOL
    lower = (mid - rise) / 2.0 - RANGE_TOL
    top = pc.max()
    skipped = holds & ~((upper >= top) | ((upper >= top / 2.0)
                                          & (lower <= upper[first:last].max() / 2.0)))
    kept = np.repeat(np.append(~skipped, True), counts)
    spec = _merged(coarse, fine(grid[kept])) if kept.any() else coarse
    if not skipped.any() or _certified(spec, c, upper, lower, skipped):
        return spec, False
    return _merged(spec, fine(grid[~kept])), True


def sweep_refined(scheme: str, transmon: TransmonParams, eta: float,
                  omega_min: float, omega_max: float, coarse_step: float,
                  refine_step: float, avg: AveragingParams | None = None, *,
                  cw_amplitude: float = CW_AMPLITUDE_DEFAULT) -> Spectrum:
    """Two-stage sweep: coarse pass, then a fine pass around the peak.

    The coarse grid covers the full window; the fine grid spans the coarse
    peak plus/minus twice the coarse width at ``refine_step`` (clipped to
    the window), resolving shifts far below the coarse step. The merged,
    strictly increasing spectrum is returned.
    """
    return _two_stage(lambda grid: sweep(scheme, transmon, eta, grid, avg,
                                         cw_amplitude=cw_amplitude),
                      omega_min, omega_max, coarse_step, refine_step)[0]


def sweep_narrowed(scheme: str, transmon: TransmonParams, eta: float,
                   omega_min: float, omega_max: float, coarse_step: float,
                   refine_step: float, avg: AveragingParams | None
                   ) -> tuple[Spectrum, bool]:
    """The peak, peak value, width and shift of :func:`sweep_refined`, from
    fewer fine samples; returns the spectrum and whether the whole fine
    grid was averaged after all.

    :func:`_two_stage` narrows the fine pass by the bound of
    :func:`_rise_rate`, which is finite over fine grids clear of the
    dispersive splitting. A "cw" line has no such bound and is never
    narrowed. Each pass warns about, and raises for, only the frequencies
    it averages. Fringes: a kept curve holds only coarse samples in its
    skipped cells, so the fringes that metrics list there are the coarse
    pass's.
    """
    n_res = parse_scheme(scheme)
    return _two_stage(lambda grid: sweep(scheme, transmon, eta, grid, avg),
                      omega_min, omega_max, coarse_step, refine_step,
                      None if n_res is None else
                      lambda lo, hi: _rise_rate(n_res, transmon, eta, avg, lo, hi))
