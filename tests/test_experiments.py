import math
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from helpers import boltzmann_law_oracle, mc_convergence_oracle, summary_bits

import annealsolve
from annealsolve import (
    BitRange,
    BoltzmannModel,
    DegenerateProblemError,
    LOG_ABS_NORMAL_MEAN,
    McOutcome,
    NormalModel,
    SupportKind,
    SupportTooLargeError,
    TruncNormalModel,
    build_qubo,
    experiments,
    ks_discrete_vs_continuous,
    limit_check,
    log_abs_normal_mean_check,
    mc_convergence,
    model_id,
    normalize,
    preset,
    rate,
    rng,
    solve,
)
from annealsolve.dist import trunc_normal_cdf

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
    for s in (0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"s must be finite and >= 1, got {s}"):
            mc_convergence(NormalModel(), 0.5, 0.7, 1.0, s=s)
    for sizes in (dict(n_traj=0), dict(n_iter=0), dict(n_iter=-1)):
        with pytest.raises(ValueError, match="n_traj and n_iter must be >= 1"):
            mc_convergence(NormalModel(), 0.5, 0.7, 1.0, **sizes)


@pytest.mark.parametrize("model,a,b,beta", [
    (NormalModel(), 0.6, 0.9, 0.7),
    (preset("a2"), 0.6, 0.9, 0.7),
    (TruncNormalModel(-1.0, 1.5), 0.6, 0.9, 0.7),
    (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)), 0.6, 0.9, 0.7),
    (BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1)), 0.6, 0.9, 0.7),
    # exact hits, then whole slices at the float floor
    (NormalModel(), 0.5, 0.7, 1e3),
    # diverging trajectories freeze while the rest of their slice moves
    (NormalModel(), 0.6, 0.9, 0.25),
    # b/a = 1.5 lies on the register grid, so trajectories hit it exactly
    (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)), 0.5, 0.75, 4.0),
])
def test_mc_convergence_matches_whole_array_oracle(monkeypatch, model, a, b, beta):
    # three slices of about 1334 trajectories, run on one to three workers
    monkeypatch.setattr(experiments, "_SLICE", 1500)
    kwargs = dict(s=1.3, n_traj=4001, n_iter=40, seed=7)
    ref = summary_bits(mc_convergence_oracle(model, a, b, beta, **kwargs))
    for cpus in (1, 2, 3):
        monkeypatch.setattr(rate, "_usable_cpus", lambda: cpus)
        assert summary_bits(mc_convergence(model, a, b, beta, **kwargs)) == ref


@pytest.mark.parametrize("model,a,b,beta", [
    (NormalModel(), 0.5, 0.7, 1e3),
    (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)), 0.5, 0.75, 4.0),
])
def test_mc_convergence_skips_the_draw_of_a_slice_at_rest(monkeypatch, model, a, b, beta):
    # exact and frozen trajectories never move again, so a slice made only of
    # them draws no block, and the summary is the oracle's all the same; the
    # slices of 3 come to rest at different steps while the median still moves,
    # so they also need the error rows the median permuted written again
    draws = []
    draw = rng.uniform_matrix
    monkeypatch.setattr(rng, "uniform_matrix", lambda *args: draws.append(args) or draw(*args))
    for size, n_traj in ((1500, 4001), (3, 41)):
        monkeypatch.setattr(experiments, "_SLICE", size)
        kwargs = dict(s=1.3, n_traj=n_traj, n_iter=40, seed=7)
        ref = summary_bits(mc_convergence_oracle(model, a, b, beta, **kwargs))
        for cpus in (1, 2):
            monkeypatch.setattr(rate, "_usable_cpus", lambda: cpus)
            draws.clear()
            assert summary_bits(mc_convergence(model, a, b, beta, **kwargs)) == ref
            n_slices = -(-n_traj // size)
            assert 0 < len(draws) < n_slices * 40 // rng.BLOCK_STEPS


def test_mc_convergence_slices_survive_thread_switches(monkeypatch):
    # more workers than this host may have cores, fourteen slices, and a
    # switch interval short enough to interleave every numpy call: a slice
    # that wrote into another's trajectories would change the summary
    monkeypatch.setattr(experiments, "_SLICE", 300)
    monkeypatch.setattr(rate, "_usable_cpus", lambda: 4)
    args = (preset("a2"), 0.6, 0.9, 0.7)
    kwargs = dict(s=1.0, n_traj=4001, n_iter=12, seed=5)
    ref = summary_bits(mc_convergence_oracle(*args, **kwargs))
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: results.append(mc_convergence(*args, **kwargs)))
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert [summary_bits(r) for r in results] == [ref]


@pytest.mark.parametrize("n_traj,cpus,sizes", [(100, 4, []), (50_000, 1, []), (50_000, 4, [2])])
def test_mc_convergence_pools_one_worker_per_slice_up_to_the_cpus(monkeypatch, n_traj, cpus, sizes):
    made = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(rate, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingExecutor)
    summary = mc_convergence(preset("a2"), 0.5, 0.7, 2.0, n_traj=n_traj, n_iter=2)
    assert summary.median_log_error.shape == (3,)
    assert made == sizes


@pytest.mark.parametrize(
    "model",
    [NormalModel(), preset("a2"), BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1))],
)
def test_high_precision_runs_converge(model):
    summary = mc_convergence(model, a=0.5, b=0.7, beta=1e3, n_traj=64, n_iter=25, seed=2)
    assert summary.s_scaled_outcome is McOutcome.TO_ZERO
    assert summary.diverged_fraction == 0.0


@pytest.mark.parametrize("model,beta", [
    (NormalModel(), 2.0),
    (preset("a2"), 2.0),
    (preset("a4"), 3.0),
    (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)), 4.0),
])
def test_ensemble_medians_equal_individual_solves(model, beta):
    # the ensemble and solve(stream=t) draw the same variates, so they must
    # walk the same iterates; an early-stopped trace keeps its final iterate
    a, b, n_traj, n_iter, seed = 0.5, 0.7, 48, 30, 11
    summary = mc_convergence(model, a, b, beta, n_traj=n_traj, n_iter=n_iter, seed=seed)
    # only the normal model takes the zero-exponent first step
    assert summary.l0_zero is isinstance(model, NormalModel)
    inst = normalize(a, b)
    paths = np.empty((n_traj, n_iter + 1))
    for t in range(n_traj):
        trace = solve(inst, model, beta=beta, seed=seed, max_iter=n_iter, stream=t,
                      l0_zero=summary.l0_zero)
        paths[t] = np.pad(trace.x, (0, n_iter + 1 - trace.x.size), mode="edge")
    with np.errstate(divide="ignore"):
        medians = np.median(np.log(np.abs(inst.solution - paths)), axis=0)
    assert summary.median_log_error.tolist() == medians.tolist()
    assert summary.median_log_error[-1] < summary.median_log_error[0] - 10.0


def test_mc_floor_step_is_the_first_median_at_minus_inf():
    summary = mc_convergence(NormalModel(), a=0.5, b=0.7, beta=3.0, n_traj=1000, n_iter=40, seed=0)
    floored = np.isneginf(summary.median_log_error)
    assert summary.floor_step == 22
    assert floored[22:].all() and not floored[:22].any()
    above = mc_convergence(NormalModel(), a=0.5, b=0.7, beta=3.0, n_traj=1000, n_iter=21, seed=0)
    assert above.floor_step is None


def test_mc_ceiling_step_leaves_the_frozen_medians_out_of_the_slope():
    # at beta = 0.25 the median passes ln 1e12 at step 36 and then stays near
    # it, as trajectories freeze; a fit over those steps read a slope near 0
    kwargs = dict(s=1.0, n_traj=500, seed=3)
    args = (NormalModel(), 0.5, 0.7, 0.25)
    summaries = {n: mc_convergence(*args, n_iter=n, **kwargs) for n in (35, 36, 60, 400)}
    for n, summary in summaries.items():
        assert summary_bits(summary) == summary_bits(mc_convergence_oracle(*args, n_iter=n, **kwargs))
    median = summaries[400].median_log_error
    assert summaries[35].ceiling_step is None
    assert all(summaries[n].ceiling_step == 36 for n in (36, 60, 400))
    assert median[35] <= math.log(1e12) < median[36]
    # below the ceiling the fit is over the whole last half, as before
    assert summaries[35].slope == np.polyfit(np.arange(17, 36), median[17:36], 1)[0]
    assert summaries[36].slope == np.polyfit(np.arange(18, 36), median[18:36], 1)[0]
    assert summaries[60].slope == pytest.approx(0.747, abs=1e-3)
    assert math.isnan(summaries[400].slope)
    assert summaries[400].floor_step is None and summaries[400].diverged_fraction == 1.0


def test_mc_exact_start_converges_without_a_warning():
    # b = 0: the start x = 0 is exact, so the log error is -inf from step 0;
    # the outcome used to come from -inf - (-inf) = nan, with a RuntimeWarning
    summary = mc_convergence(NormalModel(), a=0.5, b=0.0, beta=2.0, n_traj=8, n_iter=5)
    assert summary.s_scaled_outcome is McOutcome.TO_ZERO
    assert summary.floor_step == 0


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
    assert ks_discrete_vs_continuous([1.0], np.array([0.3])) == pytest.approx(0.7)
    # the discrete law is given by its CDF: the left limit 0.25 at the second
    # point is 0.65 below F = 0.9 there, the largest of the four gaps
    assert ks_discrete_vs_continuous([0.25, 1.0], np.array([0.1, 0.9])) == pytest.approx(0.65)


def ks_oracle(a, b, beta, support, limit):
    """limit_check's KS distance in mpmath, from the exact law and an mpmath limit CDF."""
    _, cdf = boltzmann_law_oracle(support, b, a, beta)
    with mpmath.workdps(30):
        mu = mpmath.mpf(b) / a
        sigma = 1 / (mpmath.sqrt(2) * abs(a) * beta)
        limit_cdf = [mpmath.ncdf(v, mu, sigma) for v in support]
        if isinstance(limit, TruncNormalModel):
            low, high = (mpmath.ncdf(d, mu, sigma) for d in (limit.d1, limit.d2))
            limit_cdf = [(g - low) / (high - low) for g in limit_cdf]
        left = [mpmath.mpf(0), *cdf[:-1]]
        return max(max(abs(f - g), abs(f0 - g)) for f, f0, g in zip(cdf, left, limit_cdf))


@pytest.mark.parametrize("a,b,beta", [(1.0, 0.5, 1.0), (0.7, 0.5, 2.0), (-1.3, 0.2, 0.7)])
@pytest.mark.parametrize("limit", [NormalModel(), TruncNormalModel(0.0, 2.0), preset("a1")],
                         ids=model_id)
def test_limit_check_ks_matches_the_oracle_on_small_ranges(a, b, beta, limit):
    # up to 256 points, |a*v| + |b| <= 11 and beta <= 2, each CDF entry of the
    # kernel is within about (2n + 10 beta^2 M^2) ulp of the exact one, under 1e-12;
    # 6.4e-16 was the largest difference seen
    ranges = [BitRange(r, r + w) for w in (2, 5, 8) for r in (-w, 3 - w)]
    for rg, row in zip(ranges, limit_check(a, b, beta, ranges, limit=limit)):
        if isinstance(limit, NormalModel):
            support = np.arange(1 - 2**rg.width, 2**rg.width) * 2.0**rg.r
        else:
            d1, d2 = limit.d1, limit.d2
            support = d1 + (d2 - d1) * (np.arange(2**rg.width) / 2**rg.width)
        assert row.n_points == support.size
        assert abs(row.ks - ks_oracle(a, b, beta, support, limit)) <= 1e-12, rg


def test_limit_check_full_line_decreases():
    ranges = [BitRange(3 - w, 3) for w in (6, 10, 14)]
    rows = limit_check(1.0, 0.5, 1.0, ranges)
    ks = [row.ks for row in rows]
    assert ks[0] > ks[1] > ks[2]
    assert rows[0].n_points == 2 ** 7 - 1


def test_limit_check_interval_decreases_toward_truncated_normal():
    ranges = [BitRange(3 - w, 3) for w in (6, 10, 14)]
    rows = limit_check(1.0, 0.5, 1.0, ranges, limit=TruncNormalModel(0.0, 2.0))
    ks = [row.ks for row in rows]
    assert ks[0] > ks[1] > ks[2]
    assert rows[1].n_points == 2 ** 10


@pytest.mark.parametrize("limit", [NormalModel(), preset("a4")], ids=model_id)
def test_limit_check_unordered_ranges_give_the_ordered_rows_in_the_given_order(limit):
    ranges = [BitRange(-7, 3), BitRange(-3, 3), BitRange(-5, 1)]
    rows = limit_check(1.0, 0.5, 1.0, ranges, limit=limit)
    ordered = limit_check(1.0, 0.5, 1.0, [ranges[1], ranges[2], ranges[0]], limit=limit)
    assert rows == [ordered[2], ordered[0], ordered[1]]


def test_limit_check_refuses_a_limit_that_is_not_a_normal_law():
    with pytest.raises(ValueError, match="^the limit law must be normal or truncated normal, "
                                         "got boltzmann:positive:r=-1:p=1$"):
        limit_check(1.0, 0.5, 1.0, [BitRange(-3, 3)],
                    limit=BoltzmannModel(SupportKind.POSITIVE, BitRange(-1, 1)))


@pytest.mark.parametrize("a,b,error,message", [
    (0.0, 1.0, DegenerateProblemError, "^a = 0 leaves no equation to solve$"),
    (math.inf, 1.0, ValueError, "^a and b must be finite, got a=inf, b=1.0$"),
    (1.0, math.nan, ValueError, "^a and b must be finite, got a=1.0, b=nan$"),
])
def test_limit_check_normalize_and_build_qubo_share_the_equation_check(a, b, error, message):
    for check in (lambda: limit_check(a, b, 1.0, [BitRange(-3, 3)]),
                  lambda: normalize(a, b),
                  lambda: build_qubo(a, b, BitRange(-3, 1))):
        with pytest.raises(error, match=message):
            check()


@pytest.mark.parametrize("a,b,beta,interval", [
    (1.0, 0.5, 1.0, (0.0, 2.0)),
    (1.0, 0.5, 1.0, (2.0, 0.0)),
    (0.5, 0.7, 2.0, (0.5, 1.0)),
    (1.0, 0.5, 3.0, (-1.0, 3.0)),
])
def test_trunc_normal_limit_cdf_matches_direct_formula(a, b, beta, interval):
    # moderate tails: the log-mass form agrees with the plain ndtr difference
    mu, sigma = b / a, 1.0 / (math.sqrt(2.0) * a * beta)
    d1, d2 = sorted(interval)
    x = d1 + (d2 - d1) * np.arange(1 << 10) / (1 << 10)
    z1, z2 = sc.ndtr((d1 - mu) / sigma), sc.ndtr((d2 - mu) / sigma)
    direct = np.clip((sc.ndtr((x - mu) / sigma) - z1) / (z2 - z1), 0.0, 1.0)
    np.testing.assert_allclose(trunc_normal_cdf(x, mu, sigma, d1, d2), direct, rtol=0, atol=1e-12)


@pytest.mark.parametrize("interval", [(5.0, 6.0), (-6.0, -5.0), (40.0, 41.0)])
def test_limit_check_interval_far_in_a_tail_is_finite(interval):
    # at beta = 20 the interval ends lie 140 sigmas or more from the mean;
    # both tail masses round to the same double, which made the ratio 0/0
    # (exp underflow in the Boltzmann weights is expected and allowed)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        rows = limit_check(1.0, 0.0, 20.0, [BitRange(-3, 3), BitRange(-7, 3)],
                           limit=TruncNormalModel(*interval))
    for row in rows:
        assert 0.0 <= row.ks <= 1.0


@pytest.mark.parametrize("limit,bits", [(NormalModel(), 42), (TruncNormalModel(0.0, 1.0), 41)])
def test_limit_check_refuses_the_widest_range_before_any_row(monkeypatch, limit, bits):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed before the size check")

    monkeypatch.setattr("annealsolve.experiments.boltzmann_cdf_rows", no_rows)
    message = f"^{bits} bits exceeds enumeration limit 30$"
    for ranges in ([BitRange(-3, 3), BitRange(-40, 1)], [BitRange(-40, 1), BitRange(-3, 3)]):
        with pytest.raises(SupportTooLargeError, match=message):
            limit_check(1.0, 0.5, 2.0, ranges, limit=limit)


def test_limit_check_22_bits_stays_under_1_gb():
    # the signed grid of 2^23 - 1 values is 64 MB; no bit-pattern matrix is built
    code = textwrap.dedent("""
        import resource
        from annealsolve import BitRange, limit_check
        (row,) = limit_check(1.0, 0.5, 2.0, [BitRange(-20, 2)])
        assert row.n_points == 2**23 - 1 and 0.0 < row.ks < 1e-5, row
        print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(annealsolve.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak_kib = int(proc.stdout)  # Linux reports ru_maxrss in KiB
    assert peak_kib < 1 << 20


def test_limit_check_refuses_an_interval_too_narrow_to_resolve():
    # both tail masses of [0, 1e-278] round to one double, so the limit CDF is 0/0;
    # it used to print ks = nan (and a RuntimeWarning), which is not a number to report
    with pytest.raises(ValueError, match="too narrow to resolve"):
        limit_check(-1.0, 0.0, 1.0, [BitRange(-2, 1)],
                    limit=TruncNormalModel(0.0, 1.2217363872346276e-278))
