"""Duration-parameter grid search."""

import math

import numpy as np
import pytest

from ramseybias import (InfeasibleError, ObjectiveConfig, SearchSpace,
                        TransmonParams, omega_eg, optimize, seed_points)
from ramseybias.units import ghz, to_mhz

TRANSMON = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)
ETA = ghz(0.1)
W_RES = omega_eg(TRANSMON, TRANSMON.phi_res)

WINDOW = dict(omega_min=ghz(3.5), omega_max=ghz(5.5),
              coarse_step=ghz(0.002), refine_step=ghz(0.001))


def run(space, objective=ObjectiveConfig()):
    return optimize(space, TRANSMON, ETA, objective=objective, **WINDOW)


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
        SearchSpace((), (0.001,), "double")
    with pytest.raises(ValueError):
        SearchSpace((1e-9,), (-0.1,), "double")
    with pytest.raises(ValueError, match="time constants"):
        SearchSpace((math.nan,), (0.001,), "double")
    with pytest.raises(ValueError, match="duration ratios"):
        SearchSpace((1e-9,), (math.nan,), "double")
    with pytest.raises(ValueError):
        SearchSpace((0.0,), (0.001,), "double")
    # a cw space holds no (s, R) to search, and optimize refuses it
    with pytest.raises(ValueError, match="cannot optimize the cw scheme"):
        run(SearchSpace((1e-9,), (0.001,), "cw"))


def test_single_point_space():
    s3 = seed_points(ETA, [3.0])[0]
    result = run(SearchSpace((s3,), (0.001,), "double"))
    assert len(result.trace) == 1
    assert result.pareto_front == [result.best]
    assert result.best.s == s3 and result.best.ratio_r == 0.001
    assert result.best.metrics.fwhm > 0


def test_double_best_time_constant_is_k3():
    s_grid = tuple(seed_points(ETA, [2.5, 3.0, 3.5]))
    result = run(SearchSpace(s_grid, (0.001,), "double"))
    assert result.best.s == pytest.approx(seed_points(ETA, [3.0])[0], rel=1e-12)
    assert to_mhz(result.best.metrics.fwhm) == pytest.approx(306.0, rel=0.1)
    # every candidate was feasible at the default peak floor
    assert all(pt.feasible for pt in result.trace)


def test_pareto_front_is_non_dominated():
    s_grid = tuple(seed_points(ETA, [2.0, 3.0, 4.0]))
    result = run(SearchSpace(s_grid, (0.001, 0.01), "double"))
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


def test_enlarging_space_never_worsens():
    s_small = tuple(seed_points(ETA, [2.5, 3.5]))
    s_large = tuple(seed_points(ETA, [2.5, 3.0, 3.5]))
    small = run(SearchSpace(s_small, (0.001,), "double"))
    large = run(SearchSpace(s_large, (0.001,), "double"))
    assert large.best.metrics.fwhm <= small.best.metrics.fwhm


def test_infeasible_constraint_raises_with_diagnosis():
    s3 = seed_points(ETA, [3.0])[0]
    with pytest.raises(InfeasibleError) as err:
        run(SearchSpace((s3,), (0.001,), "double"),
            objective=ObjectiveConfig(p_min=0.99))
    pt = err.value.best_peak_point
    assert pt is not None and pt.metrics.peak_value < 0.99


def test_optimize_deterministic_and_rerunnable():
    s3 = seed_points(ETA, [3.0])[0]
    space = SearchSpace((s3,), (0.001,), "double")
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
    space = SearchSpace((s2,), (0.045, 0.08), "triple")
    free = optimize(space, TRANSMON, ETA, objective=ObjectiveConfig(),
                    **WINDOW)
    assert free.best.ratio_r == 0.08
    capped = optimize(space, TRANSMON, ETA,
                      objective=ObjectiveConfig(shift_max=ghz(0.005)),
                      **WINDOW)
    assert capped.best.ratio_r == 0.045
    assert abs(capped.best.metrics.shift_vs_ref) <= ghz(0.005)


def test_triple_grid_selects_undisplaced_ratio():
    # across a ratio grid spanning two decades the undisplaced narrow line
    # of the three-segment scheme sits at R = 0.045
    s2 = seed_points(ETA, [2.0])[0]
    space = SearchSpace((s2,), (0.001, 0.01, 0.045, 0.1), "triple")
    result = optimize(space, TRANSMON, ETA,
                      objective=ObjectiveConfig(shift_max=ghz(0.005)),
                      **WINDOW)
    assert result.best.ratio_r == 0.045
    assert result.best.s == s2
