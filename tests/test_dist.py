import math

import numpy as np
import pytest
import scipy.integrate

from annealsolve import (
    TruncNormalParams,
    boltzmann_dist,
    erf,
    erfinv,
    quantile,
    std_normal_quantile,
    trunc_normal_quantile,
)
from helpers import normal_quantile_oracle, trunc_normal_quantile_oracle


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
    lambda: trunc_normal_quantile(TruncNormalParams(0.0, 1.0, -1.0, 1.0), NAN),
    lambda: trunc_normal_quantile(TruncNormalParams(0.0, 1.0, -1.0, 1.0), np.array([NAN, 0.5])),
    lambda: erfinv(NAN),
    lambda: erfinv(np.array([0.0, NAN])),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1.0, 1.0).quantile(NAN),
    lambda: boltzmann_dist(NAN, [0.0, 1.0, 2.0], 1.0, 1.0),
    lambda: boltzmann_dist(INF, [0.0, 1.0, 2.0], 1.0, 1.0),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], NAN, 1.0),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1.0, NAN),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1.0, INF),
    lambda: boltzmann_dist(1.0, [-INF, 0.0, INF], 1.0, 1.0),
    lambda: boltzmann_dist(1.0, [0.0, 1.0, 2.0], 1e308, 1.0),
], ids=[
    "std_normal", "std_normal_array", "trunc_normal", "trunc_normal_array", "erfinv",
    "erfinv_array", "boltzmann_quantile", "boltzmann_beta", "boltzmann_beta_inf",
    "boltzmann_target", "boltzmann_a", "boltzmann_a_inf", "boltzmann_support_inf",
    "boltzmann_energy_overflow",
])
def test_nan_and_infinite_inputs_raise(call):
    with pytest.raises(ValueError):
        call()


def test_boltzmann_far_support_points_may_overflow_to_zero_mass():
    d = boltzmann_dist(1.0, [-1e200, 0.0, 1.0], 0.5, 1.0)
    assert d.pmf[0] == 0.0 and np.all(np.isfinite(d.pmf))


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


def test_std_normal_quantile_accuracy_grid():
    us = np.concatenate([
        [1e-12, 1e-9, 1e-4, 0.02425 / 2, 0.05],
        np.linspace(0.1, 0.9, 17),
        [0.95, 1 - 1e-4, 1 - 1e-9, 1 - 1e-12],
    ])
    values = std_normal_quantile(us)
    for u, v in zip(us, values):
        assert v == pytest.approx(normal_quantile_oracle(float(u)), abs=1e-9)


def test_erf_against_quadrature():
    for x in (0.25, 1.0, 2.5):
        integral, _ = scipy.integrate.quad(
            lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, x, epsabs=1e-14
        )
        assert erf(x) == pytest.approx(integral, abs=1e-12)
    assert erf(0.0) == 0.0
    assert erf(1.0) == pytest.approx(0.8427007929497149, abs=1e-12)


def test_erfinv_round_trip_and_domain():
    assert erfinv(0.0) == 0.0
    for x in (-4.2, -1.7, -0.3, 0.4, 2.2, 4.2):
        assert erfinv(erf(x)) == pytest.approx(x, abs=1e-8)
    # past ~4.3 sigma a float64 near 1 cannot pin x to 1e-8 at all; the
    # achievable bound is ulp(1)/2 divided by erf's derivative
    for x in (-5.0, 4.6, 5.0):
        info_limit = 2.0 ** -53 * math.sqrt(math.pi) / 2.0 * math.exp(x * x)
        assert erfinv(erf(x)) == pytest.approx(x, abs=2.0 * info_limit)
    for bad in (-1.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            erfinv(bad)


def test_trunc_normal_symmetric_median_is_mu():
    params = TruncNormalParams(mu=0.3, sigma=0.8, d1=-1.7, d2=2.3)
    assert trunc_normal_quantile(params, 0.5) == pytest.approx(0.3, abs=1e-12)


def test_trunc_normal_endpoints():
    params = TruncNormalParams(mu=1.0, sigma=0.5, d1=0.0, d2=2.0)
    assert trunc_normal_quantile(params, 0.0) == pytest.approx(0.0, abs=1e-9)
    assert trunc_normal_quantile(params, 1.0) == pytest.approx(2.0, abs=1e-9)


def test_trunc_normal_quantile_against_bisection():
    params = TruncNormalParams(mu=1.0, sigma=0.5, d1=0.0, d2=2.0)
    assert trunc_normal_quantile(params, 0.25) == pytest.approx(
        trunc_normal_quantile_oracle(1.0, 0.5, 0.0, 2.0, 0.25), abs=1e-8
    )
    for u in np.linspace(0.05, 0.95, 7):
        assert trunc_normal_quantile(params, float(u)) == pytest.approx(
            trunc_normal_quantile_oracle(1.0, 0.5, 0.0, 2.0, float(u)), abs=1e-8
        )


def test_trunc_normal_quantile_monotone_onto_interval():
    params = TruncNormalParams(mu=-0.4, sigma=1.3, d1=-2.0, d2=2.0)
    us = np.linspace(0.0, 1.0, 101)
    values = trunc_normal_quantile(params, us)
    assert np.all(np.diff(values) > 0.0)
    assert values[0] >= -2.0 and values[-1] <= 2.0


def test_trunc_normal_params_normalize_swapped_interval():
    params = TruncNormalParams(mu=0.0, sigma=1.0, d1=2.0, d2=-1.0)
    assert (params.d1, params.d2) == (-1.0, 2.0)
    with pytest.raises(ValueError):
        TruncNormalParams(mu=0.0, sigma=1.0, d1=1.0, d2=1.0)
    with pytest.raises(ValueError):
        TruncNormalParams(mu=0.0, sigma=0.0, d1=0.0, d2=1.0)


def test_scaled_equation_instance_of_the_quantile_formula():
    # with mu = 1/(ac) and sigma = 1/(sqrt2 a beta), the general quantile
    # reduces to 1/(ac) + erfinv((1-u) erf(d1 a b - b/c) + u erf(d2 a b - b/c))/(a b)
    a, c, beta, d1, d2 = 0.7, 1.4, 1.9, 0.0, 2.0
    params = TruncNormalParams(mu=1.0 / (a * c), sigma=1.0 / (math.sqrt(2) * a * beta), d1=d1, d2=d2)
    for u in (0.1, 0.35, 0.5, 0.82):
        specialized = 1.0 / (a * c) + erfinv(
            (1.0 - u) * erf(d1 * a * beta - beta / c) + u * erf(d2 * a * beta - beta / c)
        ) / (a * beta)
        assert trunc_normal_quantile(params, u) == pytest.approx(specialized, rel=1e-12)


def test_trunc_normal_saturates_in_far_tails():
    # interval end 40 sigmas out: erf saturates and the quantile pins at the
    # clamp rather than overflowing
    params = TruncNormalParams(mu=0.0, sigma=1.0, d1=-40.0, d2=40.0)
    v0 = trunc_normal_quantile(params, 0.0)
    v1 = trunc_normal_quantile(params, 1.0)
    assert -40.0 <= v0 <= -5.0
    assert 5.0 <= v1 <= 40.0
