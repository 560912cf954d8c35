"""The cross-check suite itself: it must pass, render deterministically,
and actually catch a corrupted average."""

import os
import threading

import pytest

from ramseybias import (McConfig, TransmonParams, compose_train,
                        dispersive_phase, pe_average, propagate_segment,
                        run_validation)
from ramseybias import optimizer, validation
from ramseybias.evolution import GROUND
from ramseybias.units import ghz

TRANSMON = TransmonParams.from_ghz(0.5, 100.0, 0.46, 0.49)
ETA = ghz(0.1)
MC = McConfig(20000, 42)


def run(mc=MC, draws=3):
    """``run_validation`` at ``draws`` Monte Carlo draws per averaged curve."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validation, "MC_DRAWS", draws)
        return run_validation(TRANSMON, ETA, mc)


@pytest.fixture(scope="module")
def report():
    return run()


def test_all_checks_pass(report):
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == []
    assert report.all_passed


def test_expected_checks_present(report):
    assert [c.name for c in report.checks] == [
        "train_population_vs_composed", "train_norm_preservation",
        "moment_table_vs_quadrature",
        "double_avg_vs_monte_carlo", "triple_avg_vs_monte_carlo",
        "dispersive_phase_vs_exact", "double_avg_probability_range",
        "mc_determinism"]


def test_render_is_deterministic(report):
    again = run()
    assert report.render() == again.render()
    assert "overall = pass" in report.render()


def test_underpowered_sampling_still_passes():
    # tiny sample counts widen the Monte Carlo band but stay inside it
    small = run(McConfig(100, 7), draws=2)
    mc_checks = [c for c in small.checks if "monte_carlo" in c.name]
    assert all(c.passed for c in mc_checks)


def test_corrupted_closed_form_is_caught(monkeypatch):
    # negative control: bias one order's average by 0.02; its sampled
    # comparison must fail and the other order's must still pass
    for n_biased, caught, clean in (
            (2, "double_avg_vs_monte_carlo", "triple_avg_vs_monte_carlo"),
            (3, "triple_avg_vs_monte_carlo", "double_avg_vs_monte_carlo")):
        def corrupted(n_res, *args):
            bias = 0.02 if n_res == n_biased else 0.0
            return pe_average(n_res, *args) + bias
        monkeypatch.setattr(validation, "pe_average", corrupted)
        report = run()
        by_name = {c.name: c for c in report.checks}
        assert not by_name[caught].passed
        assert by_name[clean].passed
        assert not report.all_passed
        assert "overall = FAIL" in report.render()


def test_composer_without_the_laboratory_advance_is_caught(monkeypatch):
    # negative control: from order 4 on, every resonant segment starts at
    # t0 = 0, as if the advance e^{-i omega (tau + T)} were dropped. The
    # composer stays unitary, so only the population block can see it.
    def no_advance(q_res, q_disp, drive, train):
        if train.n_res < 4:
            return compose_train(q_res, q_disp, drive, train)
        state = propagate_segment(GROUND, q_res, drive, train.tau)
        for _ in range(train.n_res - 1):
            state = dispersive_phase(state, q_disp.delta_d, drive.omega,
                                     train.ratio_r * train.tau)
            state = propagate_segment(state, q_res, drive, train.tau)
        return state
    monkeypatch.setattr(validation, "compose_train", no_advance)
    report = run()
    failed = [c.name for c in report.checks if not c.passed]
    assert failed == ["train_population_vs_composed"]


def test_report_is_the_same_on_any_worker_count(monkeypatch):
    # the Monte Carlo blocks run in forked workers; they run serially while
    # another thread is alive
    assert threading.active_count() == 1
    reports = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(optimizer, "_usable_cpus", lambda: workers)
        reports.append(run_validation(TRANSMON, ETA, MC).render())
    assert reports[0] == reports[1] == reports[2]
    assert "overall = pass" in reports[0]


def test_a_failing_monte_carlo_job_raises_in_job_order(monkeypatch):
    # job j is draw j % MC_DRAWS of the double block, then of the triple
    # one; on two workers the odd jobs run in a forked child
    oracle = validation.mc_oracle
    mc = McConfig(2000, 42)
    assert threading.active_count() == 1
    for failing, blamed in (({1, 2}, "job 1"), ({0, 7}, "job 0"),
                            ({5, 6}, "job 5")):
        def flaky(n_res, *args):
            job = ((n_res - 2) * validation.MC_DRAWS
                   + args[-1].rng_seed - mc.rng_seed)
            if job in failing:
                raise FloatingPointError(f"job {job}")
            return oracle(n_res, *args)

        monkeypatch.setattr(validation, "mc_oracle", flaky)
        for workers in (1, 2, 3):
            monkeypatch.setattr(optimizer, "_usable_cpus", lambda: workers)
            with pytest.raises(FloatingPointError, match=f"^{blamed}$"):
                run_validation(TRANSMON, ETA, mc)
            # every forked worker has been waited for
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
