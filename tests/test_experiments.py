import math

import numpy as np
import pytest

from annealsolve import (
    BitRange,
    BoltzmannModel,
    LOG_ABS_NORMAL_MEAN,
    McOutcome,
    NormalModel,
    SupportKind,
    ks_discrete_vs_continuous,
    limit_check,
    log_abs_normal_mean_check,
    mc_convergence,
    preset,
)

SD_LOG_ABS_NORMAL = math.pi / math.sqrt(8.0)  # sd of ln|xi|, xi ~ N(0,1)


def test_closed_form_constant():
    gamma = 0.5772156649015329
    assert LOG_ABS_NORMAL_MEAN == pytest.approx(-(gamma + math.log(2.0)) / 2.0, abs=1e-15)
    assert LOG_ABS_NORMAL_MEAN == pytest.approx(-0.63518, abs=5e-6)


def test_log_abs_normal_mean_within_error_bars():
    for n, seed in ((10**5, 5), (10**6, 6)):
        estimate = log_abs_normal_mean_check(n, seed=seed)
        assert abs(estimate - LOG_ABS_NORMAL_MEAN) <= 4.0 * SD_LOG_ABS_NORMAL / math.sqrt(n)
    with pytest.raises(ValueError):
        log_abs_normal_mean_check(10)


def test_error_bar_shrinks_with_sample_size():
    small = [abs(log_abs_normal_mean_check(10**5, seed=s) - LOG_ABS_NORMAL_MEAN) for s in range(8)]
    large = [abs(log_abs_normal_mean_check(8 * 10**5, seed=s) - LOG_ABS_NORMAL_MEAN) for s in range(8)]
    assert np.mean(large) < np.mean(small)


def test_mc_determinism():
    kwargs = dict(a=0.5, b=0.7, beta=2.0, n_traj=64, n_iter=12, seed=3)
    s1 = mc_convergence(NormalModel(), **kwargs)
    s2 = mc_convergence(NormalModel(), **kwargs)
    assert s1.median_log_error.tolist() == s2.median_log_error.tolist()
    assert (s1.slope, s1.diverged_fraction, s1.s_scaled_outcome) == (
        s2.slope, s2.diverged_fraction, s2.s_scaled_outcome
    )


def test_mc_validation():
    with pytest.raises(ValueError):
        mc_convergence(NormalModel(), 0.5, 0.7, 1.0, s=0.5)
    for sizes in (dict(n_traj=0), dict(n_iter=0), dict(n_iter=-1)):
        with pytest.raises(ValueError, match="n_traj and n_iter must be >= 1"):
            mc_convergence(NormalModel(), 0.5, 0.7, 1.0, **sizes)


@pytest.mark.parametrize(
    "model",
    [NormalModel(), preset("a2"), BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1))],
)
def test_high_precision_runs_converge(model):
    summary = mc_convergence(model, a=0.5, b=0.7, beta=1e3, n_traj=64, n_iter=25, seed=2)
    assert summary.s_scaled_outcome is McOutcome.TO_ZERO
    assert summary.diverged_fraction == 0.0


def test_rate_window_smaller_run():
    summary = mc_convergence(NormalModel(), a=0.5, b=0.7, beta=2.0, n_traj=400, n_iter=40, seed=17)
    assert -1.825 <= summary.slope <= -0.832
    assert summary.s_scaled_outcome is McOutcome.TO_ZERO


def test_divergence_for_weak_beta():
    summary = mc_convergence(NormalModel(), a=0.5, b=0.7, beta=0.25, n_traj=200, n_iter=400, seed=23)
    assert summary.diverged_fraction >= 0.95
    assert summary.s_scaled_outcome is McOutcome.TO_INFINITY


def test_slope_improves_with_beta():
    # 16 steps keeps even the beta = 4 runs above the float error floor
    slopes = [
        mc_convergence(NormalModel(), 0.5, 0.7, beta, n_traj=500, n_iter=16, seed=31).slope
        for beta in (1.0, 2.0, 4.0)
    ]
    assert slopes[1] <= slopes[0] + 0.1
    assert slopes[2] <= slopes[1] + 0.1


def test_ks_helper_hand_case():
    # single atom at 0 vs a continuous law with F(0) = 0.3:
    # sup over the jump is max(|1 - 0.3|, |0 - 0.3|) = 0.7
    assert ks_discrete_vs_continuous([0.0], [1.0], np.array([0.3])) == pytest.approx(0.7)


def test_limit_check_full_line_decreases():
    ranges = [BitRange(3 - w, 3) for w in (6, 10, 14)]
    rows = limit_check(1.0, 0.5, 1.0, ranges)
    ks = [row.ks for row in rows]
    assert ks[0] > ks[1] > ks[2]
    assert rows[0].n_points == 2 ** 7 - 1


def test_limit_check_interval_decreases_toward_truncated_normal():
    ranges = [BitRange(3 - w, 3) for w in (6, 10, 14)]
    rows = limit_check(1.0, 0.5, 1.0, ranges, interval=(0.0, 2.0))
    ks = [row.ks for row in rows]
    assert ks[0] > ks[1] > ks[2]
    assert rows[1].n_points == 2 ** 10


def test_limit_check_interval_normalizes_swapped_endpoints():
    ranges = [BitRange(-3, 3)]
    fwd = limit_check(1.0, 0.5, 1.0, ranges, interval=(0.0, 2.0))
    rev = limit_check(1.0, 0.5, 1.0, ranges, interval=(2.0, 0.0))
    assert fwd[0].ks == rev[0].ks


def test_limit_check_requires_ordered_ranges():
    with pytest.raises(ValueError):
        limit_check(1.0, 0.5, 1.0, [BitRange(-10, 3), BitRange(-3, 3)])
    with pytest.raises(ValueError):
        limit_check(1.0, 0.5, 1.0, [BitRange(-3, 3)], interval=(1.0, 1.0))
