"""Duration-parameter grid search."""

import contextlib
import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from ramseybias import (DomainError, InfeasibleError, ObjectiveConfig,
                        SearchSpace, SpectrumMetrics, TransmonParams, omega_eg,
                        optimize, optimizer, seed_points)
from ramseybias.units import ghz, to_mhz

TRANSMON = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)
ETA = ghz(0.1)
W_RES = omega_eg(TRANSMON, TRANSMON.phi_res)

WINDOW = dict(omega_min=ghz(3.5), omega_max=ghz(5.5),
              coarse_step=ghz(0.002), refine_step=ghz(0.001))


def run(space, scheme="double", objective=ObjectiveConfig()):
    return optimize(scheme, space, TRANSMON, ETA, objective=objective, **WINDOW)


def test_seed_points_rule():
    s = seed_points(ETA, [3.0])
    assert s[0] == pytest.approx(0.68 * math.pi / (3.0 * ETA), rel=1e-15)
    assert s[0] == pytest.approx(1.1333e-9, rel=1e-4)
    two, three = seed_points(ETA, [2.0, 3.0])
    assert two == pytest.approx(1.5 * three, rel=1e-15)
    assert seed_points(ETA, []) == []
    with pytest.raises(ValueError):
        seed_points(ETA, [-1.0])
    with pytest.raises(ValueError):
        seed_points(0.0, [2.0])
    with pytest.raises(ValueError, match="harmonic"):
        seed_points(ETA, [math.nan])
    with pytest.raises(ValueError, match="coupling"):
        seed_points(math.nan, [3.0])
    with pytest.raises(ValueError, match="overflows at k = 1e-320"):
        seed_points(ETA, [3.0, 1e-320])
    with pytest.raises(ValueError, match=r"overflows at k = 1e\+300"):
        seed_points(ETA, [3.0, 1e300])


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace((), (0.001,))
    with pytest.raises(ValueError):
        SearchSpace((1e-9,), (-0.1,))
    with pytest.raises(ValueError, match="time constants"):
        SearchSpace((math.nan,), (0.001,))
    with pytest.raises(ValueError, match="duration ratios"):
        SearchSpace((1e-9,), (math.nan,))
    with pytest.raises(ValueError):
        SearchSpace((0.0,), (0.001,))
    # the cap is on the product of the two grids
    assert len(SearchSpace((1e-9,) * 1000, (0.001,) * 1000).s_grid) == 1000
    with pytest.raises(ValueError, match=r"^1,001,000 \(s, R\) points exceed the "
                                         "limit of 1,000,000 per search$"):
        SearchSpace((1e-9,) * 1001, (0.001,) * 1000)
    # the cw scheme has no (s, R) to search, and optimize refuses it
    with pytest.raises(ValueError, match="cannot optimize the cw scheme"):
        run(SearchSpace((1e-9,), (0.001,)), "cw")


def test_objective_validation():
    assert ObjectiveConfig(0.0).p_min == 0.0 and ObjectiveConfig(1.0).p_min == 1.0
    for p_min in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError, match="peak floor"):
            ObjectiveConfig(p_min)
    for shift_max in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="shift cap"):
            ObjectiveConfig(shift_max=shift_max)


def test_single_point_space():
    s3 = seed_points(ETA, [3.0])[0]
    result = run(SearchSpace((s3,), (0.001,)))
    assert len(result.trace) == 1
    assert result.pareto_front == [result.best]
    assert result.best.s == s3 and result.best.ratio_r == 0.001
    assert result.best.metrics.fwhm > 0


def test_double_best_time_constant_is_k3():
    s_grid = tuple(seed_points(ETA, [2.5, 3.0, 3.5]))
    result = run(SearchSpace(s_grid, (0.001,)))
    assert result.best.s == pytest.approx(seed_points(ETA, [3.0])[0], rel=1e-12)
    assert to_mhz(result.best.metrics.fwhm) == pytest.approx(306.0, rel=0.1)
    # every candidate was feasible at the default peak floor
    assert all(pt.feasible for pt in result.trace)


def test_pareto_front_is_non_dominated():
    s_grid = tuple(seed_points(ETA, [2.0, 3.0, 4.0]))
    result = run(SearchSpace(s_grid, (0.001, 0.01)))
    front = result.pareto_front
    assert result.best in front
    for a in front:
        for b in front:
            if a is b:
                continue
            dominates = (a.metrics.peak_value >= b.metrics.peak_value
                         and a.metrics.fwhm <= b.metrics.fwhm
                         and (a.metrics.peak_value > b.metrics.peak_value
                              or a.metrics.fwhm < b.metrics.fwhm))
            assert not dominates


def _dominates(a, b):
    """The front's definition: a is at least as high and as narrow as b,
    and better in one."""
    no_worse = a.peak_value >= b.peak_value and a.fwhm <= b.fwhm
    better = a.peak_value > b.peak_value or a.fwhm < b.fwhm
    return no_worse and better


def test_front_equals_the_pairwise_definition():
    # few distinct widths and peaks, so that points tie in peak, in width
    # and in both; the best point is the minimum of its key
    rng = np.random.default_rng(5)
    for _ in range(300):
        size = int(rng.integers(1, 60))
        widths = rng.choice(rng.uniform(1.0, 2.0, size=int(rng.integers(1, 8))), size)
        peaks = rng.choice(rng.uniform(0.3, 1.0, size=int(rng.integers(1, 8))), size)
        points = [optimizer.EvalPoint(float(rng.choice([1e-9, 2e-9])),
                                      float(rng.choice([0.001, 0.01])),
                                      SpectrumMetrics(0.0, float(p), float(w), None, []),
                                      True)
                  for w, p in zip(widths, peaks)]
        best, front = optimizer._best_and_front(points)
        assert best is min(points, key=lambda pt: (pt.metrics.fwhm,
                                                   -pt.metrics.peak_value,
                                                   pt.ratio_r, pt.s))
        want = [pt for pt in points
                if not any(_dominates(other.metrics, pt.metrics) for other in points)]
        assert [id(pt) for pt in front] == [id(pt) for pt in want]


def test_enlarging_space_never_worsens():
    s_small = tuple(seed_points(ETA, [2.5, 3.5]))
    s_large = tuple(seed_points(ETA, [2.5, 3.0, 3.5]))
    small = run(SearchSpace(s_small, (0.001,)))
    large = run(SearchSpace(s_large, (0.001,)))
    assert large.best.metrics.fwhm <= small.best.metrics.fwhm


def test_infeasible_constraint_raises_with_diagnosis():
    s3 = seed_points(ETA, [3.0])[0]
    with pytest.raises(InfeasibleError) as err:
        run(SearchSpace((s3,), (0.001,)),
            objective=ObjectiveConfig(p_min=0.99))
    pt = err.value.best_peak_point
    assert pt is not None and pt.metrics.peak_value < 0.99


def test_optimize_deterministic_and_rerunnable():
    s3 = seed_points(ETA, [3.0])[0]
    space = SearchSpace((s3,), (0.001,))
    first = run(space)
    second = run(space)
    assert first.best.metrics == second.best.metrics
    # the best point's metrics equal a standalone sweep at the same (s, R)
    from ramseybias import AveragingParams, metrics, sweep_refined
    spec = sweep_refined("double", TRANSMON, ETA, WINDOW["omega_min"],
                         WINDOW["omega_max"], WINDOW["coarse_step"],
                         WINDOW["refine_step"],
                         AveragingParams(s3, 0.001))
    cw_ref = sweep_refined("cw", TRANSMON, ETA, WINDOW["omega_min"],
                           WINDOW["omega_max"], WINDOW["coarse_step"],
                           WINDOW["refine_step"])
    standalone = metrics(spec, reference=cw_ref)
    assert standalone == first.best.metrics


def test_shift_constraint_filters_shifted_optima():
    # with the triple scheme, large R narrows the line but drags the peak;
    # capping the shift keeps the undisplaced operating point
    s2 = seed_points(ETA, [2.0])[0]
    space = SearchSpace((s2,), (0.045, 0.08))
    free = optimize("triple", space, TRANSMON, ETA, objective=ObjectiveConfig(),
                    **WINDOW)
    assert free.best.ratio_r == 0.08
    capped = optimize("triple", space, TRANSMON, ETA,
                      objective=ObjectiveConfig(shift_max=ghz(0.005)),
                      **WINDOW)
    assert capped.best.ratio_r == 0.045
    assert abs(capped.best.metrics.shift_vs_ref) <= ghz(0.005)


def test_triple_grid_selects_undisplaced_ratio():
    # across a ratio grid spanning two decades the undisplaced narrow line
    # of the three-segment scheme sits at R = 0.045
    s2 = seed_points(ETA, [2.0])[0]
    space = SearchSpace((s2,), (0.001, 0.01, 0.045, 0.1))
    result = optimize("triple", space, TRANSMON, ETA,
                      objective=ObjectiveConfig(shift_max=ghz(0.005)),
                      **WINDOW)
    assert result.best.ratio_r == 0.045
    assert result.best.s == s2


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    # a hung wait on a worker fails the test instead of stalling the suite
    def expire(signum, frame):
        raise TimeoutError(f"optimize still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def forking(monkeypatch, workers):
    monkeypatch.setattr(optimizer, "_usable_cpus", lambda: workers)
    # optimize runs serially while another thread is alive
    assert threading.active_count() == 1


@pytest.mark.parametrize("r_grid, blamed", [
    # the first failure is a child's point, a later one this process's
    ((0.001, 1e300, 1e305), "R = 1e+300"),
    # the first failure is this process's point, a later one a child's
    ((1e305, 1e300, 0.001), "R = 1e+305"),
    ((0.001, 0.01, 1e305, 1e300), "R = 1e+305"),
])
def test_optimize_raises_the_first_failing_point_in_grid_order(
        monkeypatch, r_grid, blamed):
    space = SearchSpace(tuple(seed_points(ETA, [3.0])), r_grid)
    raised = []
    for workers in (1, 2, 3):
        forking(monkeypatch, workers)
        with deadline(120), pytest.raises(DomainError) as err:
            run(space)
        raised.append((type(err.value), str(err.value)))
        assert_no_child_left()
    assert raised[0] == raised[1] == raised[2]
    assert blamed in raised[0][1] and "is not finite" in raised[0][1]


# the dispersive splitting at 3.84 GHz lies inside the sweep window
CLOSE = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.47)


@pytest.mark.parametrize("action", ["always", "default"])
def test_optimize_reissues_the_warnings_of_a_serial_run(monkeypatch, action):
    # every coarse pass warns alike, so the "default" action shows it once,
    # and each fine pass warns with its own count. At k = 2.5 the fine grid
    # reaches past the splitting, where no rise bound holds, so both of its
    # points average the whole fine grid
    space = SearchSpace(tuple(seed_points(ETA, [2.5, 3.0, 3.5])), (0.001, 0.01))
    runs = []
    for workers in (1, 2):
        forking(monkeypatch, workers)
        with deadline(120), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            result = optimize("double", space, CLOSE, ETA, **WINDOW)
        runs.append(([(w.category, str(w.message), w.filename, w.lineno)
                      for w in caught], result.trace))
    assert runs[0] == runs[1]
    messages = [text for _, text, _, _ in runs[0][0]]
    assert all("of the dispersive-bias splitting" in text for text in messages)
    assert [pt.full_window for pt in runs[0][1]] == [True, True] + [False] * 4
    assert len(messages) == (12 if action == "always" else 7)


@pytest.mark.filterwarnings("ignore:.* of the dispersive-bias splitting")
def test_full_window_points_come_back_from_the_workers(monkeypatch):
    # the k = 2.5 points average the whole fine grid (see above): the first
    # is this process's, the second a forked worker's
    space = SearchSpace(tuple(seed_points(ETA, [2.5, 3.0])), (0.001, 0.01))
    traces = []
    for workers in (1, 2):
        forking(monkeypatch, workers)
        with deadline(120):
            traces.append(optimize("double", space, CLOSE, ETA,
                                   objective=ObjectiveConfig(p_min=0.0), **WINDOW).trace)
    assert traces[0] == traces[1]
    assert [pt.full_window for pt in traces[0]] == [True, True, False, False]


def test_optimize_leaves_no_child_process(monkeypatch):
    s3 = seed_points(ETA, [3.0])[0]
    space = SearchSpace((s3,), (0.001, 0.01))
    forking(monkeypatch, 2)
    with deadline(120):
        assert len(run(space).trace) == 2
    assert_no_child_left()

    parent = os.getpid()
    # every grid point, and only a grid point, runs the narrowed sweep
    sweep = optimizer.sweep_narrowed

    def child_exits(scheme, *args, **kwargs):
        # the point at R = 0.01 is the forked worker's
        if os.getpid() != parent and args[6:] and args[6].ratio_r == 0.01:
            os._exit(1)
        return sweep(scheme, *args, **kwargs)

    monkeypatch.setattr(optimizer, "sweep_narrowed", child_exits)
    with deadline(120), pytest.raises(RuntimeError, match="status 1 before"):
        run(space)
    assert_no_child_left()

    def interrupted_while_child_runs(scheme, *args, **kwargs):
        if args[6:] and args[6].ratio_r == 0.01:
            time.sleep(60)
        elif args[6:] and args[6].ratio_r == 0.001:
            raise KeyboardInterrupt
        return sweep(scheme, *args, **kwargs)

    monkeypatch.setattr(optimizer, "sweep_narrowed", interrupted_while_child_runs)
    start = time.perf_counter()
    with deadline(120), pytest.raises(KeyboardInterrupt):
        run(space)
    # the sleeping child was killed, not waited for
    assert time.perf_counter() - start < 30
    assert_no_child_left()


def test_a_failed_fork_leaves_no_child_and_no_pipe(monkeypatch):
    forking(monkeypatch, 3)
    real_pipe, real_fork, fds = os.pipe, os.fork, []

    def pipe():
        fds.extend(real_pipe())
        return fds[-2:]

    def fork():
        if fds[2:]:
            # the second child cannot start; the first is running
            raise OSError(11, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "pipe", pipe)
    monkeypatch.setattr(os, "fork", fork)
    with deadline(120), pytest.raises(RuntimeError,
                                      match="^cannot start a worker process: "):
        optimizer._evaluate_all(lambda point: time.sleep(60), [1, 2, 3])
    assert_no_child_left()
    assert len(fds) == 4
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)


@pytest.mark.parametrize("count, usable", [(None, 1), (3, 3)])
def test_usable_cpus_without_affinity(monkeypatch, count, usable):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert optimizer._usable_cpus() == usable
