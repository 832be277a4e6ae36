import math
import warnings

import numpy as np
import pytest
import scipy.special as sc
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annealsolve import boltzmann_dist, quantile, std_normal_quantile
from annealsolve.dist import boltzmann_cdf_rows, trunc_normal_quantile_arrays
from helpers import INPUT_KINDS, normal_quantile_oracle, trunc_normal_quantile_oracle


def test_two_point_boltzmann_pmf():
    d = boltzmann_dist(1.0, [0.0, 1.0], target=1.0, a=1.0)
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert d.pmf[1] == pytest.approx(expected, abs=1e-15)
    assert d.pmf[0] == pytest.approx(1.0 - expected, abs=1e-15)
    assert d.cdf[-1] == 1.0


def test_symmetric_energies_give_symmetric_pmf():
    d = boltzmann_dist(1.3, [-1.0, 0.0, 1.0], target=0.0, a=0.7)
    assert d.pmf[0] == pytest.approx(d.pmf[2], rel=1e-14)


def test_large_beta_concentrates_on_energy_minimizer():
    support = np.linspace(-2.0, 2.0, 9)
    d = boltzmann_dist(1e3, support, target=0.77, a=1.0)
    k = np.abs(support - 0.77).argmin()
    assert d.pmf[k] >= 1.0 - 1e-9


def test_shift_invariance_of_the_law():
    support = np.array([-0.5, 0.0, 0.25, 1.0])
    beta, target, a = 1.7, 0.4, 0.8
    d = boltzmann_dist(beta, support, target, a)
    h = (a * support - target) ** 2
    raw = np.exp(-(beta**2) * h)
    assert np.max(np.abs(d.pmf - raw / raw.sum())) <= 1e-14


def test_pmf_sums_to_one_and_cdf_runs_up():
    d = boltzmann_dist(2.0, np.linspace(0, 2, 17), 0.9, 0.6)
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(d.cdf) >= 0)
    assert np.allclose(d.cdf, np.cumsum(d.pmf), atol=1e-12)


def test_boltzmann_input_validation():
    with pytest.raises(ValueError):
        boltzmann_dist(0.0, [0.0, 1.0], 0.5, 1.0)
    with pytest.raises(ValueError):
        boltzmann_dist(1.0, [1.0, 0.0], 0.5, 1.0)
    with pytest.raises(ValueError):
        boltzmann_dist(1.0, [0.0, 1.0], 0.5, 0.0)
    with pytest.raises(ValueError):
        boltzmann_dist(1.0, [], 0.5, 1.0)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda: std_normal_quantile(NAN),
    lambda: std_normal_quantile(np.array([0.5, NAN])),
    lambda: quantile(boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1.0, 1.0), NAN),
    lambda: boltzmann_dist(NAN, [0.0, 1.0, 2.0], 1.0, 1.0),
    lambda: boltzmann_dist(INF, [0.0, 1.0, 2.0], 1.0, 1.0),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], NAN, 1.0),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1.0, NAN),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1.0, INF),
    lambda: boltzmann_dist(1.0, [-INF, 0.0, INF], 1.0, 1.0),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1e308, 1.0),
], ids=[
    "std_normal", "std_normal_array", "boltzmann_quantile", "boltzmann_beta", "boltzmann_beta_inf",
    "boltzmann_target", "boltzmann_a", "boltzmann_a_inf", "boltzmann_support_inf",
    "boltzmann_energy_overflow",
])
def test_nan_and_infinite_inputs_raise(call):
    with pytest.raises(ValueError):
        call()


def test_boltzmann_far_support_points_may_overflow_to_zero_mass():
    d = boltzmann_dist(1.0, [-1e200, 0.0, 1.0], 0.5, 1.0)
    assert d.pmf[0] == 0.0 and np.all(np.isfinite(d.pmf))


def test_beta_past_the_float_range_puts_all_mass_on_the_minimum_energy_points():
    # beta^2 overflows: the law is its beta -> inf limit, shared evenly by
    # tied minimum-energy points (the third target ties 0 and 1/8)
    beta = 1e300
    support = np.arange(-8, 9) / 8.0
    a, targets = 0.75, np.array([0.0, 0.3, 0.75 / 16, -0.9, 5.0])
    rows = boltzmann_cdf_rows(support, targets, a, beta)
    for row, target in zip(rows, targets):
        energy = (a * support - target) ** 2
        limit = (energy == energy.min()) / np.count_nonzero(energy == energy.min())
        d = boltzmann_dist(beta, support, target, a)
        assert np.array_equal(d.pmf, limit)
        assert np.array_equal(d.cdf, row)
        np.testing.assert_allclose(row, np.cumsum(limit), rtol=0, atol=1e-15)
    assert np.count_nonzero(boltzmann_dist(beta, support, 0.75 / 16, a).pmf) == 2


def cdf_rows_ignoring_overflow(support, targets, a, beta):
    """boltzmann_cdf_rows' arithmetic, one row at a time, with every float warning off."""
    rows = []
    with np.errstate(all="ignore"):
        for target in targets:
            h = (a * support - target) ** 2
            cdf = np.cumsum(np.exp(-(beta * beta) * (h - h.min())))
            cdf[:-1] /= cdf[-1]
            cdf[-1] = 1.0
            rows.append(cdf)
    return np.array(rows)


def test_boltzmann_cdf_rows_refuses_a_target_whose_energies_all_overflow():
    # every energy of the 1e200 target passes the float range, as in boltzmann_dist
    support = np.arange(16) / 8.0
    with pytest.raises(ValueError) as ref:
        boltzmann_dist(1.0, support, 1e200, 0.5)
    assert "overflows on the whole support" in str(ref.value)
    with pytest.raises(ValueError) as err:
        boltzmann_cdf_rows(support, np.array([0.7, 1e200, 1.0]), 0.5, 1.0)
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("a,beta", [(1.0, 1e154), (1e200, 1.0)], ids=["beta-1e154", "a-1e200"])
def test_boltzmann_cdf_rows_past_the_float_range_warn_nothing(a, beta):
    # beta^2 times an energy gap overflows, or all energies but the nearest
    # do: those weights are exact zeros, with no raw numpy warning
    support = np.arange(16) / 8.0
    targets = 1.0 / np.linspace(1.0, 2.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = boltzmann_cdf_rows(support, targets, a, beta)
    assert np.array_equal(rows, cdf_rows_ignoring_overflow(support, targets, a, beta))
    # every row puts its mass on one point
    assert np.all(np.isin(rows, (0.0, 1.0)))


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="far-target ties: the energies (a*v - t)^2 of neighbouring points differ by "
    "about 2|t|*a*dv, which rounds away once |t| passes about 2^53*a*dv, so the mass "
    "spreads over the tied points instead of sitting on the nearest one",
)
def test_far_target_keeps_its_mass_on_the_nearest_point():
    # a*v tops out at 0.9375, far below each target: the gap to the next
    # point's energy is at least 2*(t - 0.9375)*0.0625, so beta=1 leaves
    # weight exp(-gap) = 0 off the top point 1.875
    support = np.arange(16) / 8.0
    nearest = np.zeros(16)
    nearest[-1] = 1.0
    rows = boltzmann_cdf_rows(support, np.array([5e15, 5e99]), 0.5, 1.0)
    for target, row in zip((5e15, 5e99), rows):
        d = boltzmann_dist(1.0, support, target, 0.5)
        assert np.array_equal(d.pmf, nearest), target
        assert np.array_equal(d.cdf, nearest), target
        assert np.array_equal(row, nearest), target


def test_quantile_examples():
    d = boltzmann_dist(1.0, [0.0, 1.0], 1.0, 1.0)  # cdf(0) ~ 0.2689
    assert quantile(d, 0.2) == 0.0
    assert quantile(d, 0.5) == 1.0
    assert quantile(d, 1.0) == 1.0
    with pytest.raises(ValueError):
        quantile(d, 1.5)


def test_quantile_limits_skip_zero_mass_points():
    # the outer support points carry energies big enough to underflow to 0
    d = boltzmann_dist(10.0, [-100.0, 0.0, 1.0, 100.0], target=0.5, a=1.0)
    assert d.pmf[0] == 0.0 and d.pmf[-1] == 0.0
    assert quantile(d, 0.0) == 0.0
    assert quantile(d, 1.0) == 1.0


def test_quantile_is_a_right_continuous_step_function():
    d = boltzmann_dist(0.8, np.array([-1.0, -0.25, 0.5, 2.0]), 0.3, 0.9)
    us = np.linspace(0.0, 1.0, 301)
    values = quantile(d, us)
    assert np.all(np.diff(values) >= 0.0)
    for k in range(d.support.size):
        assert quantile(d, float(d.cdf[k])) == d.support[k]


def test_std_normal_quantile_basics():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.975) == pytest.approx(normal_quantile_oracle(0.975), abs=1e-9)
    for u in (1e-6, 0.12, 0.5, 0.77, 1 - 1e-6):
        assert std_normal_quantile(u) + std_normal_quantile(1.0 - u) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        std_normal_quantile(0.0)
    with pytest.raises(ValueError):
        std_normal_quantile(1.0)


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_std_normal_quantile_open_interval_holds_for_every_input_kind(kind):
    wrap = INPUT_KINDS[kind]
    for u in (NAN, 0.0, -0.0, 1.0, -5e-324, 1.0 + 2.0**-52, INF, -INF):
        with pytest.raises(ValueError, match="strictly inside"):
            std_normal_quantile(wrap(u))
    for u in (5e-324, 0.5, 1.0 - 2.0**-53):
        assert np.all(np.isfinite(std_normal_quantile(wrap(u))))
    assert std_normal_quantile(np.array([])).shape == (0,)


def test_std_normal_quantile_accuracy_grid():
    us = np.concatenate([
        [1e-12, 1e-9, 1e-4, 0.02425 / 2, 0.05],
        np.linspace(0.1, 0.9, 17),
        [0.95, 1 - 1e-4, 1 - 1e-9, 1 - 1e-12],
    ])
    values = std_normal_quantile(us)
    for u, v in zip(us, values):
        assert v == pytest.approx(normal_quantile_oracle(float(u)), abs=1e-9)


def test_trunc_normal_symmetric_median_is_mu():
    assert trunc_normal_quantile_arrays(0.3, 0.8, -1.7, 2.3, 0.5) == pytest.approx(0.3, abs=1e-12)


def test_trunc_normal_endpoints():
    assert trunc_normal_quantile_arrays(1.0, 0.5, 0.0, 2.0, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert trunc_normal_quantile_arrays(1.0, 0.5, 0.0, 2.0, 1.0) == pytest.approx(2.0, abs=1e-9)


def test_trunc_normal_quantile_against_bisection():
    assert trunc_normal_quantile_arrays(1.0, 0.5, 0.0, 2.0, 0.25) == pytest.approx(
        trunc_normal_quantile_oracle(1.0, 0.5, 0.0, 2.0, 0.25), abs=1e-8
    )
    for u in np.linspace(0.05, 0.95, 7):
        assert trunc_normal_quantile_arrays(1.0, 0.5, 0.0, 2.0, float(u)) == pytest.approx(
            trunc_normal_quantile_oracle(1.0, 0.5, 0.0, 2.0, float(u)), abs=1e-8
        )


def test_trunc_normal_quantile_monotone_onto_interval():
    us = np.linspace(0.0, 1.0, 101)
    values = trunc_normal_quantile_arrays(-0.4, 1.3, -2.0, 2.0, us)
    assert np.all(np.diff(values) > 0.0)
    assert values[0] >= -2.0 and values[-1] <= 2.0


def test_scaled_equation_instance_of_the_quantile_formula():
    # with mu = 1/(ac) and sigma = 1/(sqrt2 a beta), the general quantile
    # reduces to 1/(ac) + erfinv((1-u) erf(d1 a b - b/c) + u erf(d2 a b - b/c))/(a b)
    a, c, beta, d1, d2 = 0.7, 1.4, 1.9, 0.0, 2.0
    mu, sigma = 1.0 / (a * c), 1.0 / (math.sqrt(2) * a * beta)
    for u in (0.1, 0.35, 0.5, 0.82):
        specialized = 1.0 / (a * c) + sc.erfinv(
            (1.0 - u) * sc.erf(d1 * a * beta - beta / c) + u * sc.erf(d2 * a * beta - beta / c)
        ) / (a * beta)
        assert trunc_normal_quantile_arrays(mu, sigma, d1, d2, u) == pytest.approx(
            specialized, rel=1e-12
        )


def test_trunc_normal_saturates_in_far_tails():
    # interval end 40 sigmas out: erf saturates and the quantile pins at the
    # clamp rather than overflowing
    v0 = trunc_normal_quantile_arrays(0.0, 1.0, -40.0, 40.0, 0.0)
    v1 = trunc_normal_quantile_arrays(0.0, 1.0, -40.0, 40.0, 1.0)
    assert -40.0 <= v0 <= -5.0
    assert 5.0 <= v1 <= 40.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    mu=st.floats(-3.0, 3.0),
    sigma=st.floats(0.1, 3.0),
    e1=st.floats(-4.0, 4.0),
    e2=st.floats(-4.0, 4.0),
    u=st.floats(0.0, 1.0),
)
def test_trunc_normal_kernel_matches_bisection_property(mu, sigma, e1, e2, u):
    d1, d2 = min(e1, e2), max(e1, e2)
    assume(d1 < d2)
    assume(sc.ndtr((d2 - mu) / sigma) - sc.ndtr((d1 - mu) / sigma) >= 1e-6)
    expected = trunc_normal_quantile_oracle(mu, sigma, d1, d2, u)
    # an ulp of erf near +-1 moves x by sigma * 1e-16 / phi(z): under 1e-8
    # up to z = 5, and past z ~ 8.3 the kernel pins at its clamp instead of
    # reaching the interval end.  test_a4_deep_tail_monotone_in_u pins that
    # deep-tail defect.
    assume(abs(expected - mu) <= 5.0 * sigma)
    assert trunc_normal_quantile_arrays(mu, sigma, d1, d2, u) == pytest.approx(expected, abs=1e-8)
