"""Grid search over the duration parameters (s, R) of a bias train.

The landscape is oscillatory in the time constant s (every averaged term
rides a cosine-weighted moment of it), so the search is an exhaustive,
deterministic grid evaluation rather than a gradient method; the grids are
desk-scale. The default scalar objective minimizes the linewidth subject to
a floor on the peak value, optionally also capping the dispersive shift
against the continuous-wave reference; the full peak/width Pareto front is
reported alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .averaging import AveragingParams
from .errors import InfeasibleError, MetricsError
from .qubit import TransmonParams
from .spectroscopy import SpectrumMetrics, metrics, parse_scheme, sweep_refined

# time-constant seed rule: the k-th harmonic's moment argument lands where
# the cosine-weighted moment is suppressed
SEED_PHASE = 0.68 * math.pi


@dataclass(frozen=True)
class SearchSpace:
    """Grids of time constants (s) and duration ratios (R) for one scheme."""

    s_grid: tuple[float, ...]
    r_grid: tuple[float, ...]
    scheme: str

    def __post_init__(self):
        if not self.s_grid or not self.r_grid:
            raise ValueError("search grids must be non-empty")
        if any(not s > 0 for s in self.s_grid):
            raise ValueError("all time constants must be positive")
        if any(not r >= 0 for r in self.r_grid):
            raise ValueError("all duration ratios must be non-negative")
        parse_scheme(self.scheme)


@dataclass(frozen=True)
class ObjectiveConfig:
    """Constraints of the scalar objective: peak floor and optional cap on
    the absolute dispersive shift (rad/s) against the cw reference."""

    p_min: float = 0.3
    shift_max: float | None = None


@dataclass
class EvalPoint:
    """One evaluated (s, R) grid point."""

    s: float
    ratio_r: float
    metrics: SpectrumMetrics | None
    feasible: bool
    note: str = ""


@dataclass
class OptimizationResult:
    best: EvalPoint
    pareto_front: list[EvalPoint]
    trace: list[EvalPoint] = field(default_factory=list)


def seed_points(eta: float, k_values: list[float]) -> list[float]:
    """Time-constant seeds s = 0.68 pi / (k eta).

    ``k`` is the harmonic multiple of the dressed rate (lam, 2 lam, 3 lam)
    whose oscillatory moment the choice suppresses.
    """
    if not eta > 0:
        raise ValueError(f"coupling strength must be positive, got {eta}")
    for k in k_values:
        if not k > 0:
            raise ValueError(f"harmonic multiple must be positive, got {k}")
    seeds = [SEED_PHASE / (k * eta) for k in k_values]
    for k, s in zip(k_values, seeds):
        # a tiny k eta overflows the quotient, a huge one the product (s = 0)
        if not 0 < s < math.inf:
            raise ValueError(f"0.68pi/(k eta) overflows at k = {k}, eta = {eta}")
    return seeds


def _dominates(a: SpectrumMetrics, b: SpectrumMetrics) -> bool:
    """True when a is at least as good as b in (peak, width), better in one."""
    no_worse = a.peak_value >= b.peak_value and a.fwhm <= b.fwhm
    better = a.peak_value > b.peak_value or a.fwhm < b.fwhm
    return no_worse and better


def optimize(space: SearchSpace, transmon: TransmonParams, eta: float,
             omega_min: float, omega_max: float, coarse_step: float,
             refine_step: float, objective: ObjectiveConfig = ObjectiveConfig(),
             *, cw_amplitude: float = 0.5) -> OptimizationResult:
    """Exhaustively evaluate the (s, R) grid and pick the constrained best.

    Every grid point runs the two-stage sweep plus metrics against a shared
    cw reference. The best point minimizes the width among feasible points
    (peak >= p_min and, when set, |shift| <= shift_max); ties prefer larger
    peak, then smaller R, then smaller s. Raises InfeasibleError when no
    point is feasible, carrying the best-peak point for diagnosis.
    """
    if space.scheme == "cw":
        raise ValueError("cannot optimize the cw scheme")
    cw_ref = sweep_refined("cw", transmon, eta, omega_min, omega_max,
                           coarse_step, refine_step, cw_amplitude=cw_amplitude)

    trace: list[EvalPoint] = []
    for s in space.s_grid:
        for r in space.r_grid:
            avg = AveragingParams(s, r)
            try:
                spec = sweep_refined(space.scheme, transmon, eta, omega_min,
                                     omega_max, coarse_step, refine_step, avg,
                                     cw_amplitude=cw_amplitude)
                m = metrics(spec, reference=cw_ref)
            except MetricsError as exc:
                trace.append(EvalPoint(s, r, None, False, str(exc)))
                continue
            feasible = m.peak_value >= objective.p_min
            if feasible and objective.shift_max is not None:
                feasible = abs(m.shift_vs_ref) <= objective.shift_max
            trace.append(EvalPoint(s, r, m, feasible))

    feasible_pts = [pt for pt in trace if pt.feasible]
    if not feasible_pts:
        valid = [pt for pt in trace if pt.metrics is not None]
        best_peak = max(valid, key=lambda pt: pt.metrics.peak_value) if valid else None
        raise InfeasibleError(
            f"no grid point satisfies peak >= {objective.p_min}"
            + (f" and |shift| <= {objective.shift_max}"
               if objective.shift_max is not None else ""),
            best_peak_point=best_peak,
        )

    best = min(feasible_pts,
               key=lambda pt: (pt.metrics.fwhm, -pt.metrics.peak_value,
                               pt.ratio_r, pt.s))
    front = [pt for pt in feasible_pts
             if not any(_dominates(other.metrics, pt.metrics)
                        for other in feasible_pts if other is not pt)]
    return OptimizationResult(best, front, trace)
