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
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass
from itertools import groupby

from .averaging import AveragingParams
from .errors import InfeasibleError, MetricsError
from .qubit import TransmonParams
from .spectroscopy import (CW_AMPLITUDE_DEFAULT, MAX_GRID_POINTS, SpectrumMetrics,
                           metrics, sweep_narrowed, sweep_refined)
from .units import to_mhz

# time-constant seed rule: the k-th harmonic's moment argument lands where
# the cosine-weighted moment is suppressed
SEED_PHASE = 0.68 * math.pi


@dataclass(frozen=True)
class SearchSpace:
    """Grids of time constants (s) and duration ratios (R) to search."""

    s_grid: tuple[float, ...]
    r_grid: tuple[float, ...]

    def __post_init__(self):
        if not self.s_grid or not self.r_grid:
            raise ValueError("search grids must be non-empty")
        if any(not s > 0 for s in self.s_grid):
            raise ValueError("all time constants must be positive")
        if any(not r >= 0 for r in self.r_grid):
            raise ValueError("all duration ratios must be non-negative")
        points = len(self.s_grid) * len(self.r_grid)
        if points > MAX_GRID_POINTS:
            raise ValueError(f"{points:,} (s, R) points exceed the limit of "
                             f"{MAX_GRID_POINTS:,} per search")


@dataclass(frozen=True)
class ObjectiveConfig:
    """Constraints of the scalar objective: peak floor and optional cap on
    the absolute dispersive shift (rad/s) against the cw reference."""

    p_min: float = 0.3
    shift_max: float | None = None

    def __post_init__(self):
        if not 0 <= self.p_min <= 1:
            raise ValueError(f"peak floor must lie in [0, 1], got {self.p_min}")
        if self.shift_max is not None and not self.shift_max > 0:
            raise ValueError(f"shift cap must be positive, got {self.shift_max}")


@dataclass
class EvalPoint:
    """One evaluated (s, R) grid point.

    ``full_window`` tells whether its fine pass, narrowed to the cells of
    the fine grid that may matter, went on to average all of them (see
    :func:`spectroscopy.sweep_narrowed`).
    """

    s: float
    ratio_r: float
    metrics: SpectrumMetrics | None
    feasible: bool
    full_window: bool = False


@dataclass
class OptimizationResult:
    """The best point, the Pareto front and every point in grid order."""

    best: EvalPoint
    pareto_front: list[EvalPoint]
    trace: list[EvalPoint]


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


def _best_and_front(points: list[EvalPoint]) -> tuple[EvalPoint, list[EvalPoint]]:
    """The best of ``points`` and their peak/width Pareto front, in order.

    The best point ranks first by width, then larger peak, smaller R and
    smaller s. A point is on the front when its peak is the highest of its
    width and above every narrower point's peak.
    """
    ranked = sorted(points, key=lambda pt: (pt.metrics.fwhm, -pt.metrics.peak_value,
                                            pt.ratio_r, pt.s))
    kept, higher = set(), -math.inf
    for _, same_width in groupby(ranked, key=lambda pt: pt.metrics.fwhm):
        same_width = list(same_width)
        top = same_width[0].metrics.peak_value
        if top > higher:
            kept.update(id(pt) for pt in same_width if pt.metrics.peak_value == top)
            higher = top
    return ranked[0], [pt for pt in points if id(pt) in kept]


def _outcomes(evaluate, points: list) -> list:
    """(result, warnings) of each point in turn, up to and including the
    first point that raises.

    A result is what ``evaluate`` returned or the exception it raised; its
    warnings are (message, filename, lineno) triples, all recorded, so that
    :func:`_reissue` applies the caller's filters to them.
    """
    out = []
    for point in points:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = evaluate(point)
            except Exception as exc:  # raised in grid order by _evaluate_all
                result = exc
        out.append((result, [(w.message, w.filename, w.lineno) for w in caught]))
        if isinstance(result, Exception):
            break
    return out


def _run_child(evaluate, points: list, pipe_fd: int):
    """Body of a forked worker: send the pickled outcomes down the pipe and
    exit. It never returns into the caller's stack, runs no atexit handler
    and writes nothing to the standard streams; on any failure the pipe is
    left incomplete and the status is 1."""
    status = 1
    try:
        data = pickle.dumps(_outcomes(evaluate, points), pickle.HIGHEST_PROTOCOL)
        with open(pipe_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _reissue(message: Warning, filename: str, lineno: int) -> None:
    """Issue a recorded warning again as ``warnings.warn`` did: under the
    name and with the registry of the module it came from, so that the
    caller's filters and their once-per-location rule see the same call."""
    module = next((m for m in list(sys.modules.values())
                   if getattr(m, "__file__", None) == filename), None)
    registry = (None if module is None
                else vars(module).setdefault("__warningregistry__", {}))
    warnings.warn_explicit(message, type(message), filename, lineno,
                           getattr(module, "__name__", None), registry)


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _evaluate_all(evaluate, points: list) -> list:
    """``evaluate`` at every point, on w = min(usable CPUs, points) workers.

    The grid points of :func:`optimize` and the Monte Carlo blocks of
    ``validation`` run here.

    Point i goes to worker i mod w. Worker 0 is this process; the others
    are forked children that send their outcomes back pickled over a pipe.
    The outcomes merge in point order: each point's warnings are issued
    again and the first point that raised raises here, so the results, the
    warnings and the error are those of a serial run. The run is serial
    where fork is missing or another thread is alive, since forking a
    process with threads can deadlock the child. A child that exits without
    sending all its outcomes raises RuntimeError naming its exit status.
    """
    workers = min(_usable_cpus(), len(points))
    if workers == 1 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [evaluate(point) for point in points]
    pids, pipes = [], []
    try:
        for j in range(1, workers):
            try:
                read_fd, write_fd = os.pipe()
                pipes.append(read_fd)
                try:
                    pid = os.fork()
                    if pid == 0:
                        _run_child(evaluate, points[j::workers], write_fd)
                finally:
                    os.close(write_fd)
            except OSError as exc:
                # not an output-path error, as the CLI reads an OSError
                raise RuntimeError(f"cannot start a worker process: {exc}") from exc
            pids.append(pid)
        shares = [_outcomes(evaluate, points[::workers])]
        for fd in pipes:
            # read to the end before waiting: a child blocks on a full pipe
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if status != 0:
                raise RuntimeError(f"worker process exited with status "
                                   f"{status} before sending all its results")
            shares.append(pickle.loads(data))
    finally:
        for fd in pipes:
            os.close(fd)
        if pids:
            # left only when this process failed or was interrupted; signal
            # is imported here so that starting the CLI loads no more modules
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    trace = []
    for i in range(len(points)):
        result, caught = shares[i % workers][i // workers]
        for warning in caught:
            _reissue(*warning)
        if isinstance(result, Exception):
            raise result
        trace.append(result)
    return trace


def optimize(scheme: str, space: SearchSpace, transmon: TransmonParams,
             eta: float, omega_min: float, omega_max: float, coarse_step: float,
             refine_step: float, objective: ObjectiveConfig = ObjectiveConfig(),
             *, cw_amplitude: float = CW_AMPLITUDE_DEFAULT) -> OptimizationResult:
    """Exhaustively evaluate the (s, R) grid and pick the constrained best.

    Every grid point runs :func:`spectroscopy.sweep_narrowed`, plus
    metrics against a shared cw reference. The points, in s-major order,
    are shared out over every usable CPU in forked workers (see
    :func:`_evaluate_all`); the trace, the warnings and the error raised
    are those of a serial run, whatever the CPU count. A point whose
    metrics fail is recorded as infeasible; any other error of a point is
    raised, that of the first failing point in grid order. The best point
    minimizes the width among feasible points (peak >= p_min and, when set,
    |shift| <= shift_max); ties prefer larger peak, then smaller R, then
    smaller s. Raises InfeasibleError when no point is feasible, carrying
    the best-peak point for diagnosis.
    """
    if scheme == "cw":
        raise ValueError("cannot optimize the cw scheme")
    cw_ref = sweep_refined("cw", transmon, eta, omega_min, omega_max,
                           coarse_step, refine_step, cw_amplitude=cw_amplitude)

    def evaluate(point: tuple[float, float]) -> EvalPoint:
        s, r = point
        full = False
        try:
            spec, full = sweep_narrowed(scheme, transmon, eta, omega_min,
                                        omega_max, coarse_step, refine_step,
                                        AveragingParams(s, r))
            m = metrics(spec, reference=cw_ref)
        except MetricsError:
            return EvalPoint(s, r, None, False, full)
        feasible = m.peak_value >= objective.p_min
        if feasible and objective.shift_max is not None:
            feasible = abs(m.shift_vs_ref) <= objective.shift_max
        return EvalPoint(s, r, m, feasible, full)

    trace = _evaluate_all(evaluate, [(s, r) for s in space.s_grid
                                     for r in space.r_grid])

    feasible_pts = [pt for pt in trace if pt.feasible]
    if not feasible_pts:
        valid = [pt for pt in trace if pt.metrics is not None]
        best_peak = max(valid, key=lambda pt: pt.metrics.peak_value) if valid else None
        raise InfeasibleError(
            f"no grid point satisfies peak >= {objective.p_min}"
            + (f" and |shift| <= {to_mhz(objective.shift_max):.9g} MHz"
               if objective.shift_max is not None else ""),
            best_peak_point=best_peak,
        )

    return OptimizationResult(*_best_and_front(feasible_pts), trace)
