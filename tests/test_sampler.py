import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealsolve import (
    BitRange,
    BoltzmannModel,
    NormalModel,
    SupportKind,
    TruncNormalModel,
    mc_convergence,
    model_id,
    normalize,
    preset,
    q_value,
    replay_errors,
)
from annealsolve import rng, sampler
from annealsolve.cli import parse_model_spec
from annealsolve.dist import boltzmann_cdf_rows
from helpers import (
    INPUT_KINDS,
    boltzmann_law_oracle,
    chisq_pvalue,
    floats,
    oracle_index,
    oracle_step_probes,
    trunc_normal_quantile_oracle,
)

POS21 = BoltzmannModel(SupportKind.POSITIVE, BitRange(-2, 1))
SYM11 = BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-1, 1))


def test_presets_match_published_intervals():
    assert preset("a1") == TruncNormalModel(-2.0, 2.0)
    assert preset("a2") == TruncNormalModel(0.0, 2.0)
    assert preset("a3") == TruncNormalModel(0.5, 2.0)
    assert preset("A4") == TruncNormalModel(0.5, 1.0)
    with pytest.raises(ValueError):
        preset("a5")


def test_model_ids():
    assert model_id(NormalModel()) == "normal"
    assert model_id(preset("a3")) == "a3"
    assert model_id(TruncNormalModel(-1.0, 1.0)) == "truncnormal:d1=-1:d2=1"
    assert model_id(POS21) == "boltzmann:positive:r=-2:p=1"
    assert POS21.n_qubits == 3
    assert SYM11.n_qubits == 3
    # ids keep every digit, so nearby intervals get distinct ids
    assert model_id(TruncNormalModel(0.1234567, 2.0)) == "truncnormal:d1=0.1234567:d2=2"
    assert model_id(TruncNormalModel(0.1234571, 2.0)) == "truncnormal:d1=0.1234571:d2=2"


finite = st.floats(allow_nan=False, allow_infinity=False)
intervals = st.tuples(finite, finite).filter(lambda d: d[0] != d[1]).map(sorted)
registers = st.builds(
    BoltzmannModel,
    st.sampled_from([SupportKind.SIGNED_SYMMETRIC, SupportKind.POSITIVE]),
    st.integers(-40, 0).flatmap(lambda r: st.builds(BitRange, st.just(r), st.integers(r + 1, 1))),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(model=st.one_of(intervals.map(lambda d: TruncNormalModel(*d)), registers))
def test_model_id_round_trips(model):
    assert parse_model_spec(model_id(model)) == model


def test_model_validation():
    with pytest.raises(ValueError):
        TruncNormalModel(2.0, 2.0)
    with pytest.raises(ValueError):
        BoltzmannModel(SupportKind.TWOS_COMPLEMENT, BitRange(0, 1))
    with pytest.raises(ValueError):
        BoltzmannModel(SupportKind.POSITIVE, BitRange(0, 2))


def test_normal_median_is_exact_mean():
    for a, c, beta in [(0.5, 1.0, 2.0), (0.8, 1.7, 0.5)]:
        assert q_value(NormalModel(), 0.5, c, a, beta) == 1.0 / (a * c)


def test_truncnormal_high_precision_hits_bounds_or_mean():
    model = preset("a2")  # interval (0, 2)
    # at c=1 the exact correction 1/(a c) = 2 sits on the boundary d2 = 2
    near_two = q_value(model, 0.5, 1.0, 0.5, 1e3)
    assert near_two == pytest.approx(2.0, abs=1e-2)
    assert near_two <= 2.0
    # at c=2 the correction 1 is interior and beta -> inf pins it
    assert q_value(model, 0.5, 2.0, 0.5, 1e3) == pytest.approx(1.0, abs=1e-6)


def test_truncnormal_matches_bisection_oracle():
    model = preset("a1")
    a, c, beta = 0.7, 1.3, 1.1
    mu, sigma = 1.0 / (a * c), 1.0 / (math.sqrt(2.0) * a * beta)
    for u in (0.05, 0.3, 0.5, 0.9):
        assert q_value(model, u, c, a, beta) == pytest.approx(
            trunc_normal_quantile_oracle(mu, sigma, model.d1, model.d2, u), abs=1e-8
        )


def test_boltzmann_support_is_shared_and_read_only():
    # every model with this register draws from the one cached array, so a
    # write into it would corrupt all later draws
    support = POS21.support()
    assert BoltzmannModel(SupportKind.POSITIVE, BitRange(-2, 1)).support() is support
    with pytest.raises(ValueError, match="read-only"):
        support[0] = 5.0


def test_boltzmann_two_point_example():
    model = BoltzmannModel(SupportKind.POSITIVE, BitRange(0, 1))
    assert model.support().tolist() == [0.0, 1.0]
    assert q_value(model, 0.5, 1.0, 1.0, 1.0) == 1.0


def test_q_value_validation():
    with pytest.raises(ValueError):
        q_value(NormalModel(), -0.1, 1.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        q_value(NormalModel(), 0.5, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        q_value(NormalModel(), 0.5, 1.0, -0.5, 1.0)
    with pytest.raises(ValueError):
        q_value(NormalModel(), 0.5, 1.0, 0.5, 0.0)


def test_objects_that_are_not_models_are_type_errors():
    with pytest.raises(TypeError, match="not a correction model"):
        model_id(object())
    with pytest.raises(TypeError, match="not a correction model"):
        q_value(object(), 0.5, 1.5, 0.7, 2.0)


@pytest.mark.parametrize("model", [NormalModel(), preset("a2"), POS21, SYM11])
def test_monotone_in_u(model):
    us = np.linspace(0.0, 1.0, 401)
    for c in (1.0, 1.31, 1.999):
        values = q_value(model, us, c, 0.7, 1.4)
        assert np.all(np.diff(values) >= 0.0)


def test_output_ranges():
    us = np.linspace(0.0, 1.0, 101)
    tn = q_value(preset("a4"), us, 1.3, 0.6, 0.9)
    assert np.all((tn >= 0.5) & (tn <= 1.0))
    bz = q_value(POS21, us, 1.3, 0.6, 0.9)
    assert set(np.unique(bz)).issubset(set(POS21.support().tolist()))
    # signed supports may produce negative corrections at low quantiles
    low = q_value(SYM11, 0.0, 1.0, 0.6, 0.9)
    assert low == SYM11.support()[0] < 0.0


def test_a4_contraction_bound():
    model = preset("a4")
    us = np.linspace(0.0, 1.0, 41)
    for a in np.linspace(0.5, 1.0, 9):
        for c in np.linspace(1.0, 2.0, 9):
            for beta in (0.5, 2.0, 8.0):
                q = q_value(model, us, float(c), float(a), beta)
                assert np.all(np.abs(1.0 - c * a * q) <= 1.0 + 1e-12)


@pytest.mark.parametrize("beta", [1.2, 60.0, 1e300])
def test_boltzmann_broadcast_matches_the_oracle_per_c(beta):
    # at beta = 60 the leading support points carry masses that are zero
    # doubles, so u = 0 must skip them to the first point of positive double
    # mass; at beta = 1e300 beta^2 overflows and the law is its beta -> inf limit
    support = POS21.support()
    us = np.array([0.0, 0.1, 0.5, 0.9])
    cs = np.array([1.0, 1.5, 2.0])
    got = q_value(POS21, us[None, :], cs[:, None], 0.7, beta)
    for i, c in enumerate(cs):
        pmf, cdf = boltzmann_law_oracle(support, 1.0 / c, 0.7, beta)
        first = next(k for k, p in enumerate(pmf) if float(p) > 0.0)
        assert (first > 0) == (beta > 2.0)
        assert got[i].tolist() == support[[first, *oracle_index(cdf, us[1:])]].tolist()
        # u beside each step of the exact law, never within rounding of one
        probes, idx = oracle_step_probes(cdf)
        assert q_value(POS21, probes, c, 0.7, beta).tolist() == support[idx].tolist()


def test_boltzmann_kernel_at_u_1_stops_at_the_first_cdf_entry_of_1():
    # the top point 1.875 has mass 3.8e-19, below the CDF's last ulp: the
    # computed CDF row reaches 1.0 at 1.75, where the index rule stops
    model = parse_model_spec("boltzmann:positive:r=-3:p=1")
    support = model.support()
    pmf, _ = boltzmann_law_oracle(support, 1.0 / 1.5, 0.7, 10.0)
    assert 0.0 < pmf[-1] < 1e-18
    row = boltzmann_cdf_rows(support, 1.0 / 1.5, 0.7, 10.0)
    below = 1.0 - 2.0**-53
    assert q_value(model, below, 1.5, 0.7, 10.0) == support[np.count_nonzero(row < below)]
    assert q_value(model, 1.0, 1.5, 0.7, 10.0) == support[np.argmax(row == 1.0)] == 1.75


def test_stratified_uniforms_reproduce_exact_pmf():
    n = 4096
    us = (np.arange(n) + 0.5) / n
    support = POS21.support()
    pmf, _ = boltzmann_law_oracle(support, 1.0 / 1.3, 0.7, 1.5)
    values = q_value(POS21, us, 1.3, 0.7, 1.5)
    counts = np.array([(values == v).sum() for v in support])
    assert np.all(np.abs(counts - n * floats(pmf)) <= 1.0)


def test_truncnormal_stratified_uniforms_match_cdf():
    model = preset("a2")
    a, c, beta = 0.6, 1.2, 1.0
    n = 2000
    us = (np.arange(n) + 0.5) / n
    values = np.sort(q_value(model, us, c, a, beta))
    # empirical CDF vs the defining truncated normal CDF
    from helpers import trunc_normal_cdf

    mu, sigma = 1.0 / (a * c), 1.0 / (math.sqrt(2.0) * a * beta)
    target = np.array([trunc_normal_cdf(v, mu, sigma, model.d1, model.d2) for v in values])
    empirical = (np.arange(n) + 1.0) / n
    assert np.max(np.abs(empirical - target)) <= 2.0 / n + 1e-3


def test_chi_square_against_exact_pmf():
    model = BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1))
    a, c, beta = 0.7, 1.3, 2.0
    u = rng.uniforms(123, 10**5)
    values = q_value(model, u, c, a, beta)
    pmf, _ = boltzmann_law_oracle(model.support(), 1.0 / c, a, beta)
    counts = np.array([(values == v).sum() for v in model.support()])
    assert chisq_pvalue(counts, floats(pmf)) > 0.01


def cdf_rows_row_major(support, targets, a, beta):
    """Oracle: the (targets, support) CDF matrix computed row by row."""
    h = (a * support[None, :] - targets[:, None]) ** 2
    w = np.exp(-(beta * beta) * (h - h.min(axis=1, keepdims=True)))
    cdf = np.cumsum(w, axis=1)
    cdf /= cdf[:, -1:].copy()
    cdf[:, -1] = 1.0
    return cdf


def boltzmann_q_row_major(support, u, c, a, beta):
    """Oracle: count the CDF levels below u along each row of one untiled matrix."""
    u_b, c_b = np.broadcast_arrays(np.asarray(u, float), np.asarray(c, float))
    u_flat = u_b.ravel()
    cdf = cdf_rows_row_major(support, 1.0 / c_b.ravel(), a, beta)
    idx = (cdf < u_flat[:, None]).sum(axis=1)
    idx = np.where(u_flat == 0.0, (cdf <= 0.0).sum(axis=1), idx)
    return support[idx].reshape(u_b.shape)


# positive and signed registers of 2 to 64 points
EXACT_MODELS = [
    BoltzmannModel(kind, BitRange(r, 1))
    for kind, rs in (
        (SupportKind.POSITIVE, (0, -3, -5)),
        (SupportKind.SIGNED_SYMMETRIC, (-1, -2, -4)),
    )
    for r in rs
]


@pytest.mark.parametrize("model", EXACT_MODELS, ids=model_id)
def test_boltzmann_tiles_match_row_major_oracle(model):
    support = model.support()
    tile = sampler._MAX_CELLS // support.size
    gen = np.random.default_rng(support.size)
    for beta in (0.05, 2.0, 40.0, 300.0):
        # 255 and 256 draws sit on either side of the running-sum switch
        for n in (1, 255, 256, tile - 1, tile, tile + 1, 3 * tile + 7):
            u = gen.random(n)
            u[: min(n, 2)] = (0.0, 1.0)[: min(n, 2)]
            c = 1.0 + gen.random(n)
            c[-1] = 2.0
            got = sampler._boltzmann_q(support, u, c, 0.73, beta)
            np.testing.assert_array_equal(got, boltzmann_q_row_major(support, u, c, 0.73, beta))
            if n <= tile + 1:
                rows = boltzmann_cdf_rows(support, 1.0 / c, 0.73, beta)
                np.testing.assert_array_equal(
                    rows, cdf_rows_row_major(support, 1.0 / c, 0.73, beta)
                )


@pytest.mark.parametrize("spec", [(SupportKind.SIGNED_SYMMETRIC, -2), (SupportKind.POSITIVE, -3)])
def test_mc_convergence_matches_row_major_kernel(spec, monkeypatch):
    # the two Boltzmann models of the benchmark's Monte Carlo ensemble; 9000
    # trajectories span two tile edges at every step
    model = BoltzmannModel(spec[0], BitRange(spec[1], 1))
    for beta in (0.4, 2.5):
        got = mc_convergence(model, 0.7, 0.3, beta, n_traj=9000, n_iter=40, seed=3)
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_boltzmann_q", boltzmann_q_row_major)
            ref = mc_convergence(model, 0.7, 0.3, beta, n_traj=9000, n_iter=40, seed=3)
        np.testing.assert_array_equal(got.median_log_error, ref.median_log_error)
        assert (got.slope, got.diverged_fraction, got.s_scaled_outcome) == (
            ref.slope, ref.diverged_fraction, ref.s_scaled_outcome,
        )


ALL_MODELS = [NormalModel(), *(preset(f"a{k}") for k in range(1, 5)), POS21, SYM11]
units = st.floats(0.0, 1.0)
scales = st.floats(0.5, 1.0)
betas = st.floats(0.05, 40.0)


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(u=units, c=st.floats(1.0, 2.0), a=scales, beta=betas)
def test_nan_u_and_c_are_rejected(model, u, c, a, beta):
    with pytest.raises(ValueError, match="u must lie"):
        q_value(model, math.nan, c, a, beta)
    with pytest.raises(ValueError, match="u must lie"):
        q_value(model, np.array([u, math.nan]), c, a, beta)
    with pytest.raises(ValueError, match="c must be positive"):
        q_value(model, u, math.nan, a, beta)
    with pytest.raises(ValueError, match="c must be positive"):
        q_value(model, u, np.array([c, math.nan]), a, beta)


# the continuous kernels round: between adjacent floats u the normal
# quantile was seen to step back by up to 6 ulp of max(1, |q|), the
# truncated normal by 2 ulp; Boltzmann draws are exactly monotone
MONOTONE_ULPS = {NormalModel: 8, TruncNormalModel: 8, BoltzmannModel: 0}


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(u1=units, u2=units, c=st.floats(1.0, 2.0), a=scales, beta=betas)
def test_q_value_monotone_in_u_property(model, u1, u2, c, a, beta):
    lo, hi = min(u1, u2), max(u1, u2)
    q_lo, q_hi = q_value(model, lo, c, a, beta), q_value(model, hi, c, a, beta)
    assert q_lo <= q_hi + MONOTONE_ULPS[type(model)] * np.spacing(max(1.0, abs(q_hi)))


@pytest.mark.xfail(strict=True, reason="erf-based truncated quantile loses precision when "
                   "both interval ends lie many sigmas into one tail")
def test_a4_deep_tail_monotone_in_u():
    # mu = 1/(a c) = 1.70 sits 6 and 10.5 sigmas above a4's interval (1/2, 1);
    # erf is -1 + 1e-9 and -1 at the two ends, so the erfinv argument
    # carries ~7 significant digits and q steps back by 6e-9 between
    # adjacent floats u
    u = 0.3412149163770477 + np.arange(-300, 300) * np.spacing(0.3412149163770477)
    q = q_value(preset("a4"), u, 1.038969139121158, 0.5668134028632025, 10.936072903736195)
    assert np.all(np.diff(q) >= -8 * np.spacing(1.0))


@pytest.mark.parametrize("a,beta", [
    (math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0),
    (0.7, math.inf), (0.7, math.nan), (0.7, -1.0),
])
@pytest.mark.parametrize("model", [NormalModel(), preset("a2"), POS21], ids=model_id)
def test_q_value_rejects_scales_outside_contract(model, a, beta):
    with pytest.raises(ValueError, match="must be finite and positive"):
        q_value(model, 0.5, 1.5, a, beta)


def _smallest_beta_accepted(model, a):
    """The smallest float beta at which q_value draws through model at a."""
    def accepted(bits):
        try:
            q_value(model, 0.5, 1.5, a, float(np.int64(bits).view(np.float64)))
        except ValueError:
            return False
        return True

    # positive floats order as their bit patterns
    lo, hi = np.float64(5e-324).view(np.int64), np.float64(1.0).view(np.int64)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    return float(np.int64(hi).view(np.float64))


@pytest.mark.parametrize("model", [NormalModel(), preset("a1"), preset("a4")], ids=model_id)
@pytest.mark.parametrize("a", [0.5, 0.77, 1.0])
def test_q_value_refuses_exactly_the_scales_that_overflow(model, a):
    # the truncated-normal kernel scales by sigma sqrt(2), sigma = 1/(sqrt(2)
    # a beta), and the check refuses the betas where that is inf; the
    # normal kernel's widest draws, at the clipped u = 0 and u = 1, turn
    # inf first, and the check refuses the betas where they do
    beta = _smallest_beta_accepted(model, a)
    below = float(np.nextafter(beta, 0.0))
    us = np.linspace(0.0, 1.0, 11)
    with np.errstate(over="ignore", divide="ignore"):
        if isinstance(model, NormalModel):
            widest = [np.abs(model.quantile(us, 1.5, a, b)).max() for b in (beta, below)]
            assert np.isfinite(widest[0]) and widest[1] == np.inf
        else:
            sigma = 1.0 / (np.sqrt(2.0) * a * np.array([beta, below]))
            scale = sigma * np.sqrt(2.0)
            assert np.isfinite(scale[0]) and scale[1] == np.inf
    assert 1e-309 < beta < 1e-307
    with pytest.raises(ValueError, match=r"beta=.* is too small: the law's scale .* overflows"):
        q_value(model, 0.5, 1.5, a, below)
    # at the edge the draws are finite, with no warning
    q = q_value(model, us, np.array([[1.0], [2.0]]), a, beta)
    assert np.all(np.isfinite(q))
    if isinstance(model, TruncNormalModel):
        assert np.all((model.d1 <= q) & (q <= model.d2))


def test_q_value_refuses_the_normal_band_whose_draws_overflow():
    # sigma = 1/(sqrt(2) a beta) is finite here, but sigma Phi^-1(0.9) is not
    with pytest.raises(ValueError, match=r"beta=1e-308 is too small: the law's scale"):
        q_value(NormalModel(), 0.9, 1.5, 0.5, 1e-308)


@pytest.mark.parametrize("name", ["a1", "a2", "a3", "a4"])
@pytest.mark.parametrize("beta", [1.5e308, 1.79e308])
def test_q_value_refuses_the_truncated_normal_band_whose_scale_is_zero(name, beta):
    # sqrt(2) a beta overflows at a = 1, so sigma = 0 and the z terms would
    # be a divide by zero or 0/0 = NaN (a3 at c = 2 puts the mean on d1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = rf"beta={re.escape(repr(beta))} is too large: .* is 0 at a=1.0$"
        with pytest.raises(ValueError, match=message):
            q_value(preset(name), 0.3, 2.0, 1.0, beta)
        # at a = 1/2 the product stays finite: the beta -> inf limit, no warning
        assert q_value(preset(name), 0.3, 2.0, 0.5, beta) == min(max(1.0, preset(name).d1),
                                                                  preset(name).d2)


def test_normal_law_whose_scale_is_zero_draws_its_mean():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q_value(NormalModel(), 0.3, 2.0, 1.0, 1.79e308) == 0.5


def test_boltzmann_law_at_a_beta_whose_square_underflows_is_uniform():
    # beta^2 underflows to 0: every weight is exp(0), the beta -> 0 limit
    q = q_value(POS21, (np.arange(8) + 0.5) / 8, 1.5, 0.5, 1e-308)
    assert q.tolist() == POS21.support().tolist()


# u and c values q_value must refuse
BAD_U = [math.nan, -5e-324, 1.0 + 2.0**-52]
BAD_C = [math.nan, 0.0, -0.0, -math.inf]


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_q_value_contract_holds_for_every_input_kind(model, kind):
    wrap = INPUT_KINDS[kind]
    for u in BAD_U:
        with pytest.raises(ValueError, match="u must lie"):
            q_value(model, wrap(u), 1.5, 0.7, 2.0)
    for c in BAD_C:
        with pytest.raises(ValueError, match="c must be positive"):
            q_value(model, 0.5, wrap(c), 0.7, 2.0)
    # -0.0 is inside [0, 1], and draws what 0.0 draws
    at_zero, at_minus_zero = (
        np.asarray(q_value(model, wrap(u), 1.5, 0.7, 2.0), dtype=float).tobytes()
        for u in (0.0, -0.0)
    )
    assert at_minus_zero == at_zero


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
def test_q_value_takes_empty_inputs(model):
    empty = np.array([])
    assert q_value(model, empty, 1.5, 0.7, 2.0).shape == (0,)
    assert q_value(model, 0.5, empty, 0.7, 2.0).shape == (0,)
    assert q_value(model, empty, empty, 0.7, 2.0).shape == (0,)


# u with both ends of [0, 1] and -0.0 mixed in; at u = 0 the a2 draw lands
# on its d1 = 0 end
edge_units = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), units)
wide_betas = st.one_of(betas, st.sampled_from([1e3, 1e154, 1e300, 1e308]))


@pytest.mark.parametrize("model", ALL_MODELS, ids=model_id)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    uc=st.lists(st.tuples(edge_units, st.floats(1.0, 2.0)), min_size=1, max_size=6),
    a=scales, beta=wide_betas,
)
def test_scalar_q_value_is_the_array_call_bit_for_bit(model, uc, a, beta):
    u, c = (np.array(col) for col in zip(*uc))
    want = [v.hex() for v in q_value(model, u, c, a, beta).tolist()]
    for wrap in (float, np.float64, np.asarray):
        got = [float(q_value(model, wrap(u_k), wrap(c_k), a, beta)).hex() for u_k, c_k in uc]
        assert got == want


def test_truncated_normal_at_beta_1e308_warns_nothing():
    # sigma*sqrt(2) = 1/(a*beta) is so small that the kernel's z terms pass
    # the float range; erf(+-inf) = +-1 gives the beta -> inf limit
    inst = normalize(0.75, 0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert q_value(preset("a1"), 0.5, 1.5, 1.0, 1e308) == 0.6666666666666666
        for name in ("a1", "a2", "a3", "a4"):
            xs = replay_errors(inst, preset(name), 1e308, rng.uniforms(0, 20))
            assert np.all(np.isfinite(xs))
