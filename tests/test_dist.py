import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from annealsolve import BitRange, BoltzmannModel, SupportKind, std_normal_quantile
from annealsolve.dist import _boltzmann_weights, boltzmann_cdf_rows, trunc_normal_quantile_arrays
from annealsolve.sampler import _boltzmann_q
from helpers import (
    INPUT_KINDS,
    boltzmann_law_oracle,
    floats,
    normal_quantile_oracle,
    oracle_step_probes,
    trunc_normal_quantile_oracle,
)

# (support, target, a, beta) at moderate targets, where no energy gap rounds away
MODERATE_LAWS = [
    (np.array([-0.5, 0.0, 0.25, 1.0]), 0.4, 0.8, 1.7),
    (np.array([0.0, 1.0]), 1.0, 1.0, 1.0),
    (np.array([-1.0, 0.0, 1.0]), 0.0, 0.7, 1.3),
    (np.linspace(0, 2, 17), 0.9, 0.6, 2.0),
    (np.arange(16) / 8.0, 0.3, 0.5, 1.0),
    (np.arange(-7, 8) / 4.0, -0.6, 0.9, 0.5),
]

# the correction registers of 2 to 64 points
REGISTERS = [
    BoltzmannModel(kind, BitRange(r, 1)).support()
    for kind, rs in (
        (SupportKind.POSITIVE, (0, -3, -5)),
        (SupportKind.SIGNED_SYMMETRIC, (-1, -2, -4)),
    )
    for r in rs
]


def test_oracle_pmf_sums_to_one():
    for support, target, a, beta in MODERATE_LAWS + [(np.arange(16) / 8.0, 5e99, 0.5, 1e300)]:
        pmf, cdf = boltzmann_law_oracle(support, target, a, beta)
        assert abs(mpmath.fsum(pmf) - 1) < 1e-28 and abs(cdf[-1] - 1) < 1e-28
        assert all(p > 0 for p in pmf) and all(x <= y for x, y in zip(cdf, cdf[1:]))


def test_oracle_matches_the_float_formula_at_moderate_targets():
    # exp(-beta^2 (E - E_min)) / sum in doubles, with E = (a*v - t)^2: at beta <= 2
    # and energies below 4 each weight's exponent is off by a few ulp at most
    for support, target, a, beta in MODERATE_LAWS:
        energy = (a * support - target) ** 2
        weights = np.exp(-(beta**2) * (energy - energy.min()))
        pmf, _ = boltzmann_law_oracle(support, target, a, beta)
        np.testing.assert_array_max_ulp(floats(pmf), weights / weights.sum(), maxulp=4)


def test_oracle_keeps_far_targets_on_the_nearest_point():
    # the exact gaps to the top point 1.875 are at least 2*(t - 0.9375)*0.0625, so
    # every other weight is below 1e-(10^13) and rounds to a zero double
    support = np.arange(16) / 8.0
    nearest = np.zeros(16)
    nearest[-1] = 1.0
    for target in (5e15, 5e99):
        pmf, cdf = boltzmann_law_oracle(support, target, 0.5, 1.0)
        assert np.array_equal(floats(pmf), nearest), target
        assert np.array_equal(floats(cdf), nearest), target


def pmf_tolerance(support, target, a, beta):
    """Relative bound on each kernel mass: (n + 3 + beta^2 (10 M^2 + gap_k)) ulp of 1.

    With M = max|a*v| + |t|, each computed energy (a*v - t)^2 is within
    5 M^2 ulp, so its gap to the minimum within 10 M^2 + gap_k ulp; beta^2
    times that is the exponent's error, which is the weight's relative
    error, and exp and the normalising sum of n weights add n + 3 ulp.
    """
    energy = (a * support - target) ** 2
    m = np.abs(a * support).max() + abs(target)
    return (support.size + 3 + beta**2 * (10 * m**2 + energy - energy.min())) * 2.0**-52


@pytest.mark.parametrize("beta", [0.05, 1.0, 4.0, 40.0, 300.0])
def test_boltzmann_weights_match_the_oracle_within_the_stated_tolerance(beta):
    # past beta ~ 1 the exponent's error dominates: 60 ulp were seen at beta = 2,
    # 1580 at beta = 10 and 7020 at beta = 300, all within a fifth of the bound
    for support in REGISTERS:
        for a in (0.5, 0.73, 0.99):
            for target in 1.0 / np.array([1.0, 1.3, 1.77, 2.0]):
                w = _boltzmann_weights(support, target, a, beta)
                pmf, _ = boltzmann_law_oracle(support, target, a, beta)
                exact = floats(pmf)
                tol = pmf_tolerance(support, target, a, beta) * exact + 1e-300
                assert np.all(np.abs(w / w.sum() - exact) <= tol), (support.size, a, target)


def test_two_point_boltzmann_cdf():
    row = boltzmann_cdf_rows([0.0, 1.0], 1.0, 1.0, 1.0)
    assert row[0] == pytest.approx(math.exp(-1.0) / (1.0 + math.exp(-1.0)), abs=1e-15)
    assert row[1] == 1.0


def test_symmetric_energies_give_symmetric_masses():
    row = boltzmann_cdf_rows([-1.0, 0.0, 1.0], 0.0, 0.7, 1.3)
    assert row[0] == pytest.approx(1.0 - row[1], rel=1e-14)


def test_large_beta_concentrates_on_energy_minimizer():
    support = np.linspace(-2.0, 2.0, 9)
    pmf = np.diff(boltzmann_cdf_rows(support, 0.77, 1.0, 1e3), prepend=0.0)
    assert pmf[np.abs(support - 0.77).argmin()] >= 1.0 - 1e-9


def test_cdf_row_runs_up_to_one():
    row = boltzmann_cdf_rows(np.linspace(0, 2, 17), 0.9, 0.6, 2.0)
    assert np.all(np.diff(row) >= 0) and row[-1] == 1.0


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("call", [
    lambda: std_normal_quantile(NAN),
    lambda: std_normal_quantile(np.array([0.5, NAN])),
    lambda: boltzmann_cdf_rows([0.0, 1.0, 2.0], NAN, 1.0, 1.0),
    lambda: boltzmann_cdf_rows([0.0, 1.0, 2.0], 1e308, 1.0, 1.0),
], ids=["std_normal", "std_normal_array", "boltzmann_target", "boltzmann_energy_overflow"])
def test_nan_and_infinite_inputs_raise(call):
    with pytest.raises(ValueError):
        call()


def test_boltzmann_far_support_points_may_overflow_to_zero_mass():
    row = boltzmann_cdf_rows([-1e200, 0.0, 1.0], 0.5, 1.0, 1.0)
    assert row[0] == 0.0 and np.all(np.isfinite(row))


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
        pmf, _ = boltzmann_law_oracle(support, target, a, beta)
        assert np.array_equal(floats(pmf), limit)
        np.testing.assert_array_equal(np.diff(row, prepend=0.0), limit)
    assert np.count_nonzero(np.diff(rows[2], prepend=0.0)) == 2


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
    # every energy of the 1e200 target passes the float range
    support = np.arange(16) / 8.0
    message = "energy (a*v - target)^2 overflows on the whole support (a=0.5, target=1e+200)"
    with pytest.raises(ValueError) as err:
        boltzmann_cdf_rows(support, np.array([0.7, 1e200, 1.0]), 0.5, 1.0)
    assert str(err.value) == message
    # a 0-d target, as the sampler's one draw passes it, names the same target
    for target in (1e200, np.float64(1e200), np.array(1e200)):
        with pytest.raises(ValueError) as err:
            boltzmann_cdf_rows(support, target, 0.5, 1.0)
        assert str(err.value) == message


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([np.arange(16) / 8.0, np.arange(-7, 8) / 4.0, np.arange(4) / 2.0]),
    st.one_of(st.floats(-4.0, 4.0), st.floats(allow_nan=False, allow_infinity=False)),
    st.floats(0.5, 1.0),
    st.one_of(st.floats(1e-3, 1e3), st.floats(1e3, sys.float_info.max)),
)
def test_a_0d_target_gives_the_one_target_row(support, target, a, beta):
    # the sampler's one draw: a (support,) row, equal bit for bit to the row
    # of the one-target call, on every branch (exp, beta^2 overflow, refusal)
    def rows(targets):
        try:
            return boltzmann_cdf_rows(support, targets, a, beta)
        except ValueError as err:
            return str(err)

    ref = rows(np.array([target]))
    for zero_d in (target, np.float64(target), np.array(target)):
        got = rows(zero_d)
        if isinstance(ref, str):
            assert got == ref
        else:
            assert got.shape == support.shape and got.tobytes() == ref[0].tobytes()


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
    # the independent law puts every far target's mass on the top point 1.875
    # (test_oracle_keeps_far_targets_on_the_nearest_point); the kernel's rows must too
    support = np.arange(16) / 8.0
    rows = boltzmann_cdf_rows(support, np.array([5e15, 5e99]), 0.5, 1.0)
    for target, row in zip((5e15, 5e99), rows):
        _, cdf = boltzmann_law_oracle(support, target, 0.5, 1.0)
        assert np.array_equal(row, floats(cdf)), target


def test_index_rule_examples():
    # the two-point law's CDF at 0 is e^-1 / (1 + e^-1) ~ 0.2689
    support = np.array([0.0, 1.0])
    _, cdf = boltzmann_law_oracle(support, 1.0, 1.0, 1.0)
    assert 0.2689 < cdf[0] < 0.269
    for u, want in ((0.2, 0.0), (0.5, 1.0), (1.0, 1.0)):
        assert _boltzmann_q(support, u, 1.0, 1.0, 1.0) == want


def test_index_rule_limits_skip_zero_mass_points():
    # the outer support points carry energies big enough to underflow to a zero double
    support = np.array([-100.0, 0.0, 1.0, 100.0])
    pmf, _ = boltzmann_law_oracle(support, 0.5, 1.0, 10.0)
    assert float(pmf[0]) == 0.0 and float(pmf[-1]) == 0.0
    assert _boltzmann_q(support, 0.0, 2.0, 1.0, 10.0) == 0.0
    assert _boltzmann_q(support, 1.0, 2.0, 1.0, 10.0) == 1.0


@pytest.mark.parametrize("beta", [0.05, 0.8, 4.0, 40.0])
def test_index_rule_matches_the_oracle_beside_each_step(beta):
    # u just below and just above each exact CDF step, never within rounding of
    # one, picks the law's quantile; between steps the draw is a monotone step function
    for support in REGISTERS + [np.array([-1.0, -0.25, 0.5, 2.0])]:
        for c in (1.3, 1.77):
            _, cdf = boltzmann_law_oracle(support, 1.0 / c, 0.9, beta)
            us, idx = oracle_step_probes(cdf)
            np.testing.assert_array_equal(_boltzmann_q(support, us, c, 0.9, beta), support[idx])
            grid = _boltzmann_q(support, np.linspace(0.0, 1.0, 301), c, 0.9, beta)
            assert np.all(np.diff(grid) >= 0.0)


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
