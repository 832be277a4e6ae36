import math
import os
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealsolve import (
    BitRange,
    BoltzmannModel,
    E_func,
    E_max,
    NormalModel,
    SupportKind,
    mc_convergence,
    preset,
    q_value,
    r_func,
    rate_curve,
    rate_points_to_csv,
)
from annealsolve import rate, rng
from annealsolve.cli import parse_model_spec
from annealsolve.dist import boltzmann_cdf_rows
from annealsolve.rate import (
    _DIP_RATIO,
    _GOLDEN,
    _GS_ITERS_A,
    _GS_ITERS_C,
    _PARABOLIC_STEPS,
    _PROBE_FRACTION,
    _REFINE_CHUNK,
    LOG_FLOOR,
    RATE_CSV_COLUMNS,
    _C_STRIDE,
    _PRUNE_ABS,
    _PRUNE_REL,
    _boltzmann_pieces,
    _E_boltzmann,
    _E_grid,
    _E_max_flag,
    _gl_rule,
    _r_profile_continuous,
    _residual,
)
from annealsolve.sampler import _MAX_CELLS, TruncNormalModel

POS01 = BoltzmannModel(SupportKind.POSITIVE, BitRange(0, 1))
POS21 = BoltzmannModel(SupportKind.POSITIVE, BitRange(-2, 1))


def exact_sampler(u, c, a, beta):
    """Hypothetical perfect annealer: always returns the true correction."""
    return 1.0 / (a * c) + 0.0 * np.asarray(u, dtype=float)


def test_exact_sampler_gives_zero_multiplier():
    # with a = 1/2 and the two-point c grid {1, 2}, every product c*a is a
    # power of two, its reciprocal is exact, and the multiplier vanishes
    # exactly, driving E to the clamped log-floor sentinel
    assert r_func(exact_sampler, 0.3, 0.5, 1.0, c_steps=2) == 0.0
    e = E_func(exact_sampler, 0.5, 1.0, c_steps=2)
    assert e == pytest.approx(math.log(LOG_FLOOR))
    # on a generic grid the reciprocal rounds, leaving a few-ulp multiplier
    assert r_func(exact_sampler, 0.3, 0.7, 1.0) <= 1e-15
    assert E_func(exact_sampler, 0.7, 1.0) <= math.log(1e-15)


def test_r_is_nonnegative_and_a4_contracts():
    model = preset("a4")
    for u in (0.0, 0.25, 0.5, 0.9, 1.0):
        for a in (0.5, 0.8, 1.0):
            for beta in (0.5, 2.0, 6.0):
                r = r_func(model, u, a, beta)
                assert 0.0 <= r <= 1.0 + 1e-12


def test_r_uniform_limit_of_widest_interval():
    # beta -> 0 flattens the truncated normal into uniform on (-2, 2); its
    # median correction is 0 for every c, so nothing contracts at u = 1/2
    assert r_func(preset("a1"), 0.5, 0.7, 1e-4) == pytest.approx(1.0, abs=1e-3)


def test_r_boltzmann_uses_grid_only():
    r = r_func(POS21, 0.37, 0.7, 2.0, c_steps=129)
    c = np.linspace(1.0, 2.0, 129)
    from annealsolve import q_value

    q = q_value(POS21, 0.37, c, 0.7, 2.0)
    assert r == np.abs(1.0 - c * 0.7 * q).max()


def boltzmann_pieces_row_search(model, a, beta, c_steps):
    """Reference: one searchsorted of every piece's left level per c-row."""
    support = model.support()
    c = np.linspace(1.0, 2.0, c_steps)
    cdf = boltzmann_cdf_rows(support, 1.0 / c, a, beta)
    levels = np.unique(np.concatenate([cdf[:, :-1].ravel(), (0.0, 1.0)]))
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    # on piece (levels[i], levels[i+1]] the sampler's index #{k : cdf < u}
    # counts the entries at or below levels[i]
    r = np.zeros(levels.size - 1)
    for j in range(c_steps):
        idx = np.minimum(np.searchsorted(cdf[j], levels[:-1], side="right"), support.size - 1)
        np.maximum(r, np.abs(1.0 - (c[j] * a) * support[idx]), out=r)
    return np.diff(levels), r


@pytest.mark.parametrize("kind", [SupportKind.POSITIVE, SupportKind.SIGNED_SYMMETRIC])
@pytest.mark.parametrize("r", [0, -2, -5])
def test_E_boltzmann_staircase_matches_row_search(kind, r):
    # at beta = 40 some pieces are one ulp long (adjacent CDF levels), so
    # the r comparison also checks that each piece starts past its left level
    model = BoltzmannModel(kind, BitRange(r, 1))
    for beta in (0.05, 2.0, 40.0):
        for c_steps in (1, 2, 17, 257):
            # 0.5, 0.75 and 1 lie on the default a-grid, 0.7 does not
            for a in (0.5, 0.7, 0.75, 1.0):
                lengths, r_ref = boltzmann_pieces_row_search(model, a, beta, c_steps)
                got_lengths, got_r = _boltzmann_pieces(model, a, beta, c_steps)
                np.testing.assert_array_equal(got_lengths, lengths)
                np.testing.assert_array_equal(got_r, r_ref)
                e_ref = float(lengths @ np.log(np.maximum(r_ref, LOG_FLOOR)))
                clamped_ref = bool(np.any(r_ref < LOG_FLOOR))
                assert _E_boltzmann(model, a, beta, c_steps) == (e_ref, clamped_ref)


def assert_pieces_match_row_search(model, a, beta, c_steps):
    lengths, r_ref = boltzmann_pieces_row_search(model, a, beta, c_steps)
    got_lengths, got_r = _boltzmann_pieces(model, a, beta, c_steps)
    np.testing.assert_array_equal(got_lengths, lengths)
    np.testing.assert_array_equal(got_r, r_ref)
    e_ref = float(lengths @ np.log(np.maximum(r_ref, LOG_FLOOR)))
    assert _E_boltzmann(model, a, beta, c_steps) == (e_ref, bool(np.any(r_ref < LOG_FLOOR)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from([SupportKind.POSITIVE, SupportKind.SIGNED_SYMMETRIC]),
    r=st.integers(-6, 0),
    a=st.floats(0.5, 1.0),
    # 40 is where some pieces are one ulp long (adjacent CDF levels)
    beta=st.one_of(st.just(40.0), st.floats(-2.0, 4.0).map(lambda x: 10.0**x)),
    c_steps=st.integers(1, 300),
)
def test_boltzmann_pieces_match_row_search_property(kind, r, a, beta, c_steps):
    assert_pieces_match_row_search(BoltzmannModel(kind, BitRange(r, 1)), a, beta, c_steps)


# q_value draws on every piece at every grid c cost about (c_steps K)^2
# kernel cells for K support points, so each register takes the grids with
# c_steps K <= 2^12
_DRAW_CASES = [
    (kind, r, c_steps)
    for kind in (SupportKind.POSITIVE, SupportKind.SIGNED_SYMMETRIC)
    for r in (0, -3, -6)
    for c_steps in (2, 17, 129, 257)
    if c_steps * BoltzmannModel(kind, BitRange(r, 1)).support().size <= 2**12
]


@pytest.mark.parametrize("kind, r, c_steps", _DRAW_CASES)
def test_boltzmann_pieces_match_the_draws_on_every_piece(kind, r, c_steps):
    # every u of piece (levels[i], levels[i+1]] draws the sampler's index at
    # the right level, and u = 0 draws piece 0's.  The pieces one ulp long
    # (here at beta >= 10) check the rule at a piece's ends: for the
    # positive r=-3 register at a = 1, beta = 10 and c_steps = 2, piece 11
    # is 2.8e-17 long and its draws give r = 0.125, not 0.25
    model = BoltzmannModel(kind, BitRange(r, 1))
    c = np.linspace(1.0, 2.0, c_steps)
    for beta in (0.05, 2.0, 10.0, 40.0, 60.0, 1e3):
        for a in (0.5, 0.7, 0.8125, 1.0):
            inner = boltzmann_cdf_rows(model.support(), 1.0 / c, a, beta)[:, :-1]
            levels = np.unique(np.concatenate([inner.ravel(), (0.0, 1.0)]))
            u = np.append(levels[1:], 0.0)
            q = q_value(model, u[:, None], c, a, beta)
            drawn = np.abs(1.0 - (c * a) * q).max(axis=1)
            lengths, got = _boltzmann_pieces(model, a, beta, c_steps)
            np.testing.assert_array_equal(lengths, np.diff(levels))
            np.testing.assert_array_equal(np.append(got, got[0]), drawn)


def cdf_run_features(model, a, beta, c_steps):
    """Whether some inner CDF level is 1, some row has an empty run, and some
    row's one run spans every piece of several (the sparse table's top level).
    """
    c = np.linspace(1.0, 2.0, c_steps)
    inner = boltzmann_cdf_rows(model.support(), 1.0 / c, a, beta)[:, :-1]
    levels = np.unique(np.concatenate([inner.ravel(), (0.0, 1.0)]))
    row_levels = [np.unique(np.concatenate([row, (0.0, 1.0)])) for row in inner]
    return (
        bool(np.any(inner == 1.0)),
        any(np.unique(row).size < row.size for row in inner),
        levels.size > 3 and any(row.size == 2 for row in row_levels),
    )


@pytest.mark.parametrize("kind", [SupportKind.POSITIVE, SupportKind.SIGNED_SYMMETRIC])
@pytest.mark.parametrize(
    "r, beta, c_steps, a",
    [(-2, 1e3, 300, 0.5), (-4, 1e3, 17, 0.7), (-4, 1e3, 300, 0.5), (-6, 1e4, 300, 0.7)],
)
def test_boltzmann_pieces_match_row_search_at_the_run_edge_cases(kind, r, beta, c_steps, a):
    # at large beta most laws put all their mass on one support point, so
    # their CDF levels are exact 0s and 1s: runs are empty, and one run
    # covers every piece, while the few laws near a tie split the pieces
    model = BoltzmannModel(kind, BitRange(r, 1))
    assert cdf_run_features(model, a, beta, c_steps) == (True, True, True)
    assert_pieces_match_row_search(model, a, beta, c_steps)


def test_boltzmann_pieces_peak_memory_on_a_wide_register():
    # 1024 support points on the default grid make 262 912 pieces; the
    # sparse table keeps two of its levels and the runs live at once, and
    # peaks at about 20 MiB (numpy 2.4, x86-64)
    model = parse_model_spec("boltzmann:positive:r=-9:p=1")
    _boltzmann_pieces(model, 0.7, 4.0, 2)
    tracemalloc.start()
    try:
        _boltzmann_pieces(model, 0.7, 4.0, 257)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * 2**20


def oracle_golden(f, lo, hi, iters):
    """Largest value the two-probe golden section sees in [lo, hi], elementwise."""
    seen = -np.inf
    for _ in range(iters):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = f(x1), f(x2)
        seen = np.maximum(seen, np.maximum(f1, f2))
        go_right = f1 < f2
        lo = np.where(go_right, x1, lo)
        hi = np.where(go_right, hi, x2)
    return seen


def oracle_bracket_max(f, x, fx, lo, hi, delta, golden_iters):
    """The bracketed maximiser written with masks: every element takes every
    step, in one batch, and an element that is done keeps its state."""
    x, fx, left, right = x.copy(), fx.copy(), lo.copy(), hi.copy()
    cols = np.arange(lo.size)
    active = np.ones(lo.size, dtype=bool)
    for _ in range(_PARABOLIC_STEPS):
        k = np.argmax(fx, axis=0)
        xb, fb = x[k, cols], fx[k, cols]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (fx[1] - fx[0]) / (x[1] - x[0])
            curve = ((fx[2] - fx[1]) / (x[2] - x[1]) - slope) / (x[2] - x[0])
            vertex = 0.5 * (x[0] + x[1]) - 0.5 * slope / curve
        active &= ~((curve < 0.0) & (np.abs(np.clip(vertex, left, right) - xb) < 0.5 * delta))
        if not active.any():
            break
        far = np.where(right - xb > xb - left, right, left)
        inside = (curve < 0.0) & (left < vertex) & (vertex < right)
        v = np.where(inside, vertex, xb + (1.0 - _GOLDEN) * (far - xb))
        fv = f(v)
        up, beyond = fv > fb, v > xb
        end = np.where(up, xb, v)
        left = np.where(active & (up == beyond), end, left)
        right = np.where(active & (up != beyond), end, right)
        w = np.argmin(fx, axis=0)
        x[w[active], cols[active]] = v[active]
        fx[w[active], cols[active]] = fv[active]
    k = np.argmax(fx, axis=0)
    xb, fb = x[k, cols], fx[k, cols]
    probes = np.maximum(f(np.clip(xb - delta, lo, hi)), f(np.clip(xb + delta, lo, hi)))
    best = np.maximum(fb, probes)
    unsure = probes > fb
    if unsure.any():
        best = np.where(unsure, np.maximum(best, oracle_golden(f, lo, hi, golden_iters)), best)
    return best


def oracle_r(f, c_steps, refine):
    """r at every node from f(c), the maximand at abscissae c of shape
    (c_steps, 1) or one per node."""
    c = np.linspace(1.0, 2.0, c_steps)
    grid = f(c[:, None])
    best = np.argmax(grid, axis=0)
    cols = np.arange(grid.shape[1])
    if not refine or c_steps <= 2:
        return grid[best, cols]
    j = np.clip(best, 1, c_steps - 2)
    near = np.stack((j - 1, j, j + 1))
    h = 1.0 / (c_steps - 1)
    return oracle_bracket_max(
        f, c[near], grid[near, cols], np.maximum(1.0, c[best] - h), np.minimum(2.0, c[best] + h),
        _PROBE_FRACTION * h, _GS_ITERS_C,
    )


def r_profile_q_value(model, u, a, beta, c_steps):
    """Reference profile that calls q_value afresh at every grid and search
    point and refines every model's maximum over c."""
    return oracle_r(
        lambda c: np.abs(1.0 - (c * a) * q_value(model, u, c, a, beta)), c_steps, refine=True
    )


def test_normal_profile_equals_refined_profile():
    # r_func takes the normal law's grid maximum without refinement in c;
    # on the nodes every E evaluation uses (the full rule and the halves of
    # a dip split) the refined reference finds nothing above it
    model = NormalModel()
    full, half = _gl_rule(256)[0], _gl_rule(128)[0]
    u = np.concatenate([full, 0.5 * half, 0.5 + 0.5 * half, 0.37 * half])
    for beta in (0.05, 0.5, 2.0, 7.0, 40.0):
        for a in (0.5, 0.77, 1.0):
            for c_steps in (3, 17, 257):
                got = [r_func(model, x, a, beta, c_steps) for x in u]
                np.testing.assert_array_equal(got, r_profile_q_value(model, u, a, beta, c_steps))


@pytest.mark.parametrize("model", [NormalModel(), preset("a2")], ids=["normal", "a2"])
def test_r_profile_matches_q_value_reference(model):
    u = np.concatenate([(0.0, 1.0), _gl_rule(64)[0]])
    for beta in (0.05, 2.0, 40.0):
        for a in (0.5, 0.83):
            for c_steps in (3, 17, 257):
                got = _r_profile_continuous(model, u, a, beta, c_steps)
                np.testing.assert_array_equal(got, r_profile_q_value(model, u, a, beta, c_steps))


def test_E_negative_for_conservative_model():
    for beta in (0.5, 1.0, 2.0, 5.0):
        assert E_func(preset("a4"), 0.75, beta) < 0.0


def test_E_monte_carlo_sign_check():
    model, a, beta = preset("a2"), 0.75, 2.0
    e = E_func(model, a, beta)
    etas = rng.uniforms(77, 10**5)
    samples = np.log(_r_profile_continuous(model, etas, a, beta, 257))
    mc = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(e - mc) <= 3.0 * se


def test_E_boltzmann_matches_stratified_average():
    model, a, beta = POS21, 0.8, 2.0
    e = E_func(model, a, beta)
    n = 4001
    us = (np.arange(n) + 0.5) / n
    avg = np.mean([math.log(max(r_func(model, float(u), a, beta), LOG_FLOOR)) for u in us])
    assert e == pytest.approx(avg, abs=2e-2)


def test_E_decreases_with_beta():
    for name in ("a1", "a2", "a3", "a4"):
        values = [E_func(preset(name), 0.7, beta) for beta in (0.5, 1.0, 2.0, 4.0)]
        assert all(v2 <= v1 + 1e-3 for v1, v2 in zip(values, values[1:]))


def test_richardson_check_is_quiet_on_a_grid():
    # doubling the default 256 quadrature nodes moves E by at most 1e-4
    for name in ("a2", "a4"):
        for beta in (0.5, 4.0):
            coarse = E_func(preset(name), 1.0, beta, gl_nodes=256)
            fine = E_func(preset(name), 1.0, beta, gl_nodes=512)
            assert abs(coarse - fine) <= 1e-4 * max(1.0, abs(fine))


def test_normal_E_matches_closed_form():
    # for the unbounded normal model r(u) = sqrt(2)/beta |Phi^-1(u)|, whose
    # log-mean is -ln(beta e^(gamma/2)) independent of a
    for beta in (1.0, 3.0):
        closed = -(math.log(beta) + np.euler_gamma / 2.0)
        assert E_func(NormalModel(), 0.7, beta) == pytest.approx(closed, abs=1e-3)


def test_normal_E_and_E_max_are_the_closed_form():
    for beta in (0.05, 0.5, 2.0, 7.0):
        closed = -(math.log(beta) + np.euler_gamma / 2.0)
        for a in (0.5, 0.77, 1.0):
            assert E_func(NormalModel(), a, beta) == closed
            assert E_func(NormalModel(), a, beta, gl_nodes=512) == closed
        assert E_max(NormalModel(), beta) == closed
        assert _E_max_flag(NormalModel(), beta, 65, 257, 256) == (closed, False)


def test_normal_quadrature_oracle_converges_to_closed_form():
    # a plain callable takes the quadrature path; the normal model is the
    # one continuous case whose E is known, so it calibrates that path
    q = NormalModel().quantile
    for a, beta in ((0.5, 2.0), (0.9, 0.7)):
        closed = -(math.log(beta) + np.euler_gamma / 2.0)
        errors = [abs(E_func(q, a, beta, gl_nodes=n) - closed) for n in (64, 256, 512)]
        assert errors[0] <= 1e-3 and errors[1] <= 1e-4 and errors[2] <= 2e-5
        assert errors[0] > errors[1] > errors[2]


def test_E_validation():
    with pytest.raises(ValueError):
        E_func(preset("a1"), 0.0, 1.0)
    with pytest.raises(ValueError):
        E_func(preset("a1"), 0.7, -1.0)
    with pytest.raises(ValueError):
        E_max(preset("a1"), 0.0)


@pytest.mark.parametrize("call", [
    lambda: E_func(preset("a1"), math.inf, 1.0),
    lambda: E_func(preset("a1"), math.nan, 1.0),
    lambda: E_func(NormalModel(), 0.7, math.inf),
    lambda: E_func(preset("a1"), 0.7, math.nan),
    lambda: E_func(POS21, 0.7, 1.0, c_steps=0),
    lambda: E_func(preset("a1"), 0.7, 1.0, gl_nodes=1),
    lambda: E_max(NormalModel(), math.inf),
    lambda: E_max(preset("a1"), 1.0, a_steps=0),
    lambda: E_max(POS21, 1.0, c_steps=0),
    lambda: E_max(preset("a1"), 1.0, gl_nodes=0),
    lambda: r_func(preset("a1"), 0.5, math.inf, 1.0),
    lambda: r_func(preset("a1"), 0.5, 0.7, -1.0),
    lambda: r_func(POS21, 0.5, 0.7, 1.0, c_steps=0),
    lambda: rate_curve([preset("a4")], [1.0, -1.0]),
    lambda: rate_curve([preset("a4")], [math.nan]),
    lambda: rate_curve([POS21], [1.0], c_steps=0),
    lambda: rate_curve([preset("a4")], [1.0], a_steps=0),
    lambda: rate_curve([preset("a4")], [1.0], gl_nodes=1),
])
def test_rate_inputs_outside_contract_raise(call):
    with pytest.raises(ValueError, match="finite and positive|must be at least"):
        call()


@pytest.mark.parametrize("call", [
    lambda: r_func(preset("a4"), 0.5, 0.5, 1e-308),
    lambda: r_func(NormalModel(), 0.5, 0.5, 1e-309),
    # sigma is finite, but sigma Phi^-1(u) is not
    lambda: r_func(NormalModel(), 0.9, 0.5, 1e-308),
    lambda: E_func(preset("a1"), 0.5, 1e-308),
    # the a-grid starts at 1/2, where the scale 1/(a beta) is largest
    lambda: E_max(preset("a4"), 1e-308, a_steps=3, c_steps=5, gl_nodes=8),
    lambda: rate_curve([POS21, preset("a4")], [1.0, 1e-308], a_steps=3, c_steps=5, gl_nodes=8),
])
def test_rate_refuses_a_law_whose_scale_overflows(call):
    with pytest.raises(ValueError, match="is too small: the law's scale"):
        call()


@pytest.mark.parametrize("call", [
    lambda: r_func(preset("a3"), 0.3, 1.0, 1.79e308),
    lambda: E_func(preset("a1"), 1.0, 1.5e308),
    # the a-grid ends at 1, where sqrt(2) a beta overflows first
    lambda: E_max(preset("a1"), 1.5e308, a_steps=3, c_steps=5, gl_nodes=8),
    lambda: rate_curve([POS21, preset("a4")], [1.0, 1.79e308], a_steps=3, c_steps=5, gl_nodes=8),
])
def test_rate_refuses_a_truncated_normal_law_whose_scale_is_zero(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"is too large: .* is 0 at a=1.0$"):
            call()


def test_r_func_at_beta_1_79e308_below_the_zero_scale_band():
    # at a = 1/2, sqrt(2) a beta is still finite: the beta -> inf limit, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert r_func(preset("a3"), 0.3, 0.5, 1.79e308) == r_func(preset("a3"), 0.3, 0.5, 1e300)
        assert r_func(NormalModel(), 0.3, 1.0, 1.79e308) == r_func(NormalModel(), 0.3, 1.0, 1e300)


def test_rate_keeps_the_laws_whose_scale_is_not_read():
    # a Boltzmann law's beta^2 underflows to the uniform law, the normal
    # E is its closed form, and a = 1 halves the truncated normal's scale
    closed = -(math.log(1e-308) + np.euler_gamma / 2.0)
    assert E_max(NormalModel(), 1e-308) == closed
    assert E_func(NormalModel(), 0.5, 1e-309) == -(math.log(1e-309) + np.euler_gamma / 2.0)
    assert math.isfinite(E_max(POS21, 1e-308, a_steps=3, c_steps=5))
    assert math.isfinite(E_func(preset("a4"), 1.0, 1e-308))
    assert r_func(POS21, 0.5, 0.5, 1e-308) == r_func(POS21, 0.5, 0.5, 1e-300)


@pytest.mark.parametrize("u", [math.nan, -0.1, 1.5])
def test_r_func_rejects_u_outside_the_unit_interval(u):
    with pytest.raises(ValueError, match=r"u must lie in \[0, 1\]"):
        r_func(preset("a2"), u, 0.7, 2.0)


def test_rate_functional_bounds_observed_slope():
    model, beta = preset("a2"), 2.0
    a = 0.7
    e = E_func(model, a, beta)
    assert e < -0.05
    summary = mc_convergence(model, a=a, b=0.9 * a, beta=beta, n_traj=400, n_iter=30, seed=11)
    assert summary.slope <= 0.0
    assert summary.slope <= e + 0.05
    assert summary.median_log_error[-1] < summary.median_log_error[0]


def test_one_qubit_positive_has_zero_worst_case():
    # at a = 1 and c = 2 the {0, 1} register sees a tie between both states,
    # so the worst-case multiplier never drops below 1 there
    assert E_max(POS01, 4.0, a_steps=9, c_steps=65, gl_nodes=64) == pytest.approx(0.0, abs=1e-12)


def test_rate_curve_shape_and_order():
    points = rate_curve([preset("a4")], [1.0], a_steps=5, c_steps=17, gl_nodes=16)
    assert len(points) == 1
    assert points[0].kind == "Emax" and points[0].a is None

    points = rate_curve(
        [preset("a2"), preset("a1"), POS21], [2.0, 0.5],
        a_steps=5, c_steps=17, gl_nodes=16,
    )
    keys = [(pt.model_id, pt.beta) for pt in points]
    assert keys == sorted(keys)
    assert len(points) == 6


def test_rate_curve_pool_does_not_change_output(monkeypatch):
    monkeypatch.setattr(rate, "_usable_cpus", lambda: 4)
    models = [preset("a1"), preset("a4")]
    betas = [0.5, 1.5, 3.0]
    grids = dict(a_steps=5, c_steps=17, gl_nodes=16)
    points = rate_curve(models, betas, **grids)
    assert [pt.value for pt in points] == [
        E_max(model, beta, **grids) for model in models for beta in betas
    ]


@pytest.mark.parametrize("n_betas,cpus,sizes", [
    (1, 4, []), (6, 4, [4]), (6, 1, []), (2, 4, [2]),
])
def test_rate_curve_pools_one_worker_per_cell_up_to_the_cpus(monkeypatch, n_betas, cpus, sizes):
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
    monkeypatch.setattr(rate, "ThreadPoolExecutor", RecordingExecutor)
    betas = np.arange(1.0, n_betas + 1.0)
    points = rate_curve([exact_sampler], betas, a_steps=3, c_steps=2, gl_nodes=8)
    assert [pt.beta for pt in points] == betas.tolist()
    assert made == sizes


def test_usable_cpus_counts_this_process():
    assert 1 <= rate._usable_cpus() <= (os.cpu_count() or 1)


def test_rate_curve_rejects_empty_models():
    with pytest.raises(ValueError):
        rate_curve([], [1.0])


def test_rate_csv_schema():
    # a = 1/2 is on the 3-point a grid, so the exact sampler clamps there
    points = rate_curve([exact_sampler], [1.0], a_steps=3, c_steps=2, gl_nodes=8)
    text = rate_points_to_csv(points)
    lines = text.strip().splitlines()
    assert lines[0] == ",".join(RATE_CSV_COLUMNS)
    first = lines[1].split(",")
    assert first[2] == ""  # empty a column on Emax rows
    assert first[5] == "1"  # clamp flag propagates from the clamped cell


# ---- scalar oracle: the one-coefficient-at-a-time continuous engine --------

def oracle_profile(model, u_nodes, a, beta, c_steps, refine):
    q = getattr(model, "quantile", model)
    refine = refine and not isinstance(model, NormalModel)
    return oracle_r(
        lambda c: np.abs(1.0 - (c * a) * q(u_nodes, c, a, beta)), c_steps, refine
    )


def oracle_refine_dip(model, a, beta, c_steps, lo, hi):
    for _ in range(22):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = oracle_profile(model, np.array([x1, x2]), a, beta, c_steps, refine=False)
        if f1 > f2:
            lo = x1
        else:
            hi = x2
    return 0.5 * (lo + hi)


def oracle_E(model, a, beta, c_steps, gl_nodes, refine):
    """(E, clamped, split) at one coefficient; split is None without a dip."""
    u, w = _gl_rule(gl_nodes)
    r = oracle_profile(model, u, a, beta, c_steps, refine)
    k = int(np.argmin(r))
    if r[k] < _DIP_RATIO * r.max():
        lo = float(u[k - 1]) if k > 0 else 0.0
        hi = float(u[k + 1]) if k < u.size - 1 else 1.0
        split = min(max(oracle_refine_dip(model, a, beta, c_steps, lo, hi), 1e-9), 1.0 - 1e-9)
        half_u, half_w = _gl_rule(gl_nodes // 2)
        clamped = False
        total = 0.0
        for left, width in ((0.0, split), (split, 1.0 - split)):
            ru = oracle_profile(model, left + width * half_u, a, beta, c_steps, refine)
            clamped |= bool(np.any(ru < LOG_FLOOR))
            total += width * float(half_w @ np.log(np.maximum(ru, LOG_FLOOR)))
        return total, clamped, split
    clamped = bool(np.any(r < LOG_FLOOR))
    return float(w @ np.log(np.maximum(r, LOG_FLOOR))), clamped, None


def oracle_E_max(model, beta, a_steps, c_steps, gl_nodes, refine=True):
    a_grid = np.linspace(0.5, 1.0, a_steps)
    clamped = False
    values = np.empty(a_steps)
    for k, a in enumerate(a_grid):
        values[k], flag, _ = oracle_E(model, float(a), beta, c_steps, gl_nodes, refine)
        clamped |= flag

    def evaluate(x):
        nonlocal clamped
        value, flag, _ = oracle_E(model, float(x[0]), beta, c_steps, gl_nodes, refine)
        clamped |= flag
        return np.array([value])

    k = int(np.argmax(values))
    best = float(values[k])
    if a_steps > 1:
        j = min(max(k, 1), a_steps - 2)
        near = np.clip([j - 1, j, j + 1], 0, a_steps - 1)
        best = float(oracle_bracket_max(
            evaluate, a_grid[near][:, None], values[near][:, None],
            a_grid[[max(0, k - 1)]], a_grid[[min(a_steps - 1, k + 1)]],
            _PROBE_FRACTION * 0.5 / (a_steps - 1), _GS_ITERS_A,
        )[0])
    return best, clamped


ORACLE_MODELS = {
    "a1": preset("a1"),
    "a2": preset("a2"),
    "a3": preset("a3"),
    "a4": preset("a4"),
    "truncnormal:d1=-1:d2=3": parse_model_spec("truncnormal:d1=-1:d2=3"),
    "exact_sampler": exact_sampler,
}
# at the default grids beta = 4 splits the quadrature at a dip for some
# coefficient of every model above but a4 (whose r never dips) and the
# exact sampler, and beta = 0.3 splits none (checked in the test)
ORACLE_BETAS = (0.3, 2.0, 4.0)


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_E_func_matches_scalar_oracle(name):
    model = ORACLE_MODELS[name]
    splits = set()
    for beta in ORACLE_BETAS:
        for c_steps in (1, 2, 3, 257):
            for gl_nodes in (2, 3, 8, 256):
                for a in (0.5, 0.61, 0.97):
                    value, clamped, split = oracle_E(model, a, beta, c_steps, gl_nodes, True)
                    assert E_func(model, a, beta, c_steps=c_steps, gl_nodes=gl_nodes) == value
                    got = _E_grid(model, np.array([a]), beta, c_steps, gl_nodes)
                    assert (float(got[0][0]), bool(got[1][0])) == (value, clamped)
                    if split is not None and (c_steps, gl_nodes) == (257, 256):
                        splits.add(beta)
    assert 0.3 not in splits
    assert (4.0 in splits) == (name not in ("a4", "exact_sampler"))


@pytest.mark.parametrize("name", list(ORACLE_MODELS))
def test_E_max_matches_scalar_oracle(name):
    model = ORACLE_MODELS[name]
    for beta in (0.3, 4.0):
        for a_steps in (1, 2, 65):
            for c_steps, gl_nodes in ((1, 2), (2, 3), (3, 8), (257, 3)):
                got = _E_max_flag(model, beta, a_steps, c_steps, gl_nodes)
                assert got == oracle_E_max(model, beta, a_steps, c_steps, gl_nodes)
                assert E_max(model, beta, a_steps, c_steps, gl_nodes) == got[0]


@pytest.mark.parametrize("name", ["a1", "a4", "truncnormal:d1=-1:d2=3"])
def test_E_max_defaults_match_scalar_oracle(name):
    model = ORACLE_MODELS[name]
    assert _E_max_flag(model, 2.0, 65, 257, 256) == oracle_E_max(model, 2.0, 65, 257, 256)


# at beta = 10 the a3 kernel is rough on the scale of the check probes, so
# some nodes of every case take the golden section
@pytest.mark.parametrize("model,beta", [
    (preset("a1"), 2.0), (preset("a3"), 10.0), (NormalModel(), 2.0), (exact_sampler, 2.0),
], ids=["a1", "a3_beta10", "normal", "exact_sampler"])
def test_batched_r_profile_matches_scalar_oracle(model, beta):
    # node counts just below, on and above the edge where a row of 257
    # grid values no longer fits one tile of the grid pass, enough rows of 8
    # nodes to span several row tiles, and node counts whose refinement
    # spans several chunks, with chunk ends inside rows, for shared and
    # per-row nodes
    c_steps = 257
    edge = _MAX_CELLS // c_steps
    chunks = ((2 * _REFINE_CHUNK + 5, 2), (_REFINE_CHUNK // 3 + 1, 7))
    for n, m in ((edge, 3), (edge + 1, 3), (edge + 2, 3), (2 * edge + 1, 2), (8, 65)) + chunks:
        u = np.linspace(0.0, 1.0, n)
        np.testing.assert_array_equal(
            _r_profile_continuous(model, u, 0.71, beta, c_steps),
            oracle_profile(model, u, 0.71, beta, c_steps, True),
        )
        a = np.linspace(0.5, 1.0, m)[:, None]
        rows = np.stack([u[::-1] if i % 2 else u * (1.0 - i / m) for i in range(m)])
        for nodes in (rows, u):
            got = _r_profile_continuous(model, nodes, a, beta, c_steps)
            want = [
                oracle_profile(model, row, x, beta, c_steps, True)
                for row, x in zip(np.broadcast_to(nodes, rows.shape), a[:, 0])
            ]
            np.testing.assert_array_equal(got, want)


def golden_profile(model, u, a, beta, c_steps):
    """r at every node by the grid pass plus a 24-step golden section in c
    around the best grid point, on every model."""
    q = getattr(model, "quantile", model)
    c = np.linspace(1.0, 2.0, c_steps)
    f = np.abs(1.0 - (c[:, None] * a) * q(u[None, :], c[:, None], a, beta))
    best = np.argmax(f, axis=0)
    h = 1.0 / (c_steps - 1)
    seen = oracle_golden(
        lambda x: np.abs(1.0 - (x * a) * q(u, x, a, beta)),
        np.maximum(1.0, c[best] - h), np.minimum(2.0, c[best] + h), 24,
    )
    return np.maximum(f[best, np.arange(u.size)], seen)


# relative tolerance against the dense reference.  At beta = 10 a narrow
# peak of the a4 maximand at a = 1/2 falls inside one cell of the 257-point
# grid; the maximiser and the golden section both read r up to 3e-4 low
# there, as both search only the cells next to the best grid point
DENSE_RTOL = {0.3: 1e-12, 2.0: 1e-12, 10.0: 5e-4, 40.0: 1e-8}


@pytest.mark.parametrize("beta", list(DENSE_RTOL))
def test_r_profile_matches_dense_golden_reference(beta):
    u = np.concatenate([(0.0, 1.0), _gl_rule(32)[0]])
    models = [preset(name) for name in ("a1", "a2", "a3", "a4")]
    models += [parse_model_spec("truncnormal:d1=-1:d2=3"), NormalModel().quantile]
    for model in models:
        for a in (0.5, 0.77, 1.0):
            got = _r_profile_continuous(model, u, a, beta, 257)
            dense = golden_profile(model, u, a, beta, 16385)
            np.testing.assert_allclose(got, dense, rtol=DENSE_RTOL[beta], atol=0.0)
            # and never below the golden section on the same grid, beyond
            # the kernel's own roughness
            assert np.all(got >= golden_profile(model, u, a, beta, 257) * (1.0 - 1e-7))


def test_tiny_grid_cells_make_few_kernel_calls():
    # the grids of the CLI cardinality test.  Fixed golden sections over c
    # and a made 425 kernel calls in every cell; the maximiser makes about
    # 60 on average, and up to 248 in the few cells where a check probe
    # sends the search over a to the golden section
    calls = Counter()
    a2 = preset("a2")

    def counted(u, c, a, beta):
        calls[beta] += 1
        return a2.quantile(u, c, a, beta)

    betas = np.linspace(0.5, 5.0, 40)
    rate_curve([counted], betas, a_steps=3, c_steps=5, gl_nodes=8)
    assert len(calls) == betas.size
    assert sum(calls.values()) <= 200 * betas.size
    assert max(calls.values()) <= 260


def test_rate_curve_evaluates_each_model_id_and_beta_once():
    calls = []

    def counted(u, c, a, beta):
        calls.append(beta)
        return exact_sampler(u, c, a, beta)

    grids = dict(a_steps=3, c_steps=5, gl_nodes=8)
    merged = rate_curve(
        [preset("a3"), parse_model_spec("truncnormal:d1=0.5:d2=2"), counted, counted],
        [2.0, 1.0, 2.0], **grids,
    )
    merged_calls = len(calls)
    calls.clear()
    assert merged == rate_curve([preset("a3"), counted], [1.0, 2.0], **grids)
    assert merged_calls == len(calls)
    assert [(pt.model_id, pt.beta) for pt in merged] == [
        ("a3", 1.0), ("a3", 2.0), ("counted", 1.0), ("counted", 2.0),
    ]


def test_rate_curve_rejects_different_models_sharing_an_id():
    def first(u, c, a, beta):
        return exact_sampler(u, c, a, beta)

    def second(u, c, a, beta):
        return exact_sampler(u, c, a, beta)

    second.__name__ = "first"
    with pytest.raises(ValueError, match="two different models share the id 'first'"):
        rate_curve([first, second], [1.0], a_steps=3, c_steps=5, gl_nodes=8)


# the laws whose c-grid pass skips cells: an interval in [-30, 30] of width
# 1e-6 to 30, a named preset, or the whole line
_intervals = st.builds(
    lambda d1, width: TruncNormalModel(d1, d1 + width),
    st.floats(-30.0, 29.0), st.floats(-6.0, math.log10(30.0)).map(lambda x: 10.0**x),
).filter(lambda model: model.d2 <= 30.0)
_pruned_models = st.one_of(
    _intervals,
    st.sampled_from([preset(name) for name in ("a1", "a2", "a3", "a4")] + [NormalModel()]),
)
_betas = st.floats(-3.0, 12.0).map(lambda x: 10.0**x)
_edge_u = np.array([0.0, 1.0, 1e-12, 1.0 - 1e-12, 0.5])


def _profile_and_brackets(model, u, a, beta, c_steps, refine):
    """The profile, and the grid values and brackets handed to the maximiser."""
    brackets = []
    maximiser = rate._bracket_max

    def spy(f, x, fx, lo, hi, delta, iters):
        brackets.append((x, fx, lo, hi))
        return maximiser(f, x, fx, lo, hi, delta, iters)

    with mock.patch.object(rate, "_bracket_max", spy):
        return _r_profile_continuous(model, u, a, beta, c_steps, refine), brackets


def _profiles_equal(model, u, a, beta, c_steps):
    # the model's own quantile as a plain callable keeps every grid cell
    for refine in (True, False):
        got = _profile_and_brackets(model, u, a, beta, c_steps, refine)
        want = _profile_and_brackets(model.quantile, u, a, beta, c_steps, refine)
        np.testing.assert_array_equal(got[0], want[0])
        assert len(got[1]) == len(want[1])
        for got_arrays, want_arrays in zip(got[1], want[1]):
            for x, y in zip(got_arrays, want_arrays):
                np.testing.assert_array_equal(x, y)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    model=_pruned_models, beta=_betas,
    a=st.floats(0.5, 1.0), rows=st.booleans(),
    c_steps=st.sampled_from([3, 4, 5, 17, 18, 100, 257, 258, 1025]),
    u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_pruned_grid_pass_equals_the_full_grid(model, beta, a, rows, c_steps, u):
    u = np.concatenate([_edge_u, u])
    # a scalar coefficient, or one per row on the same nodes
    a = np.array([[0.5], [a], [1.0]]) if rows else a
    _profiles_equal(model, u, a, beta, c_steps)


@pytest.mark.parametrize("model", [preset("a1"), preset("a4"), NormalModel()],
                         ids=["a1", "a4", "normal"])
def test_pruned_grid_pass_equals_the_full_grid_across_tiles(model):
    # node counts just below, on and above the edge where a row of the
    # default grid's 17 ends and 16 cells no longer fits one tile, for
    # shared and per-row nodes
    edge = _MAX_CELLS // (2 * 256 // _C_STRIDE + 1)
    for n in (edge - 1, edge, edge + 1, 2 * edge + 1):
        u = np.linspace(0.0, 1.0, n)
        _profiles_equal(model, u, 0.61, 3.0, 257)
        _profiles_equal(model, np.stack([u, u[::-1]]), np.array([[0.5], [0.93]]), 3.0, 257)


def test_full_grid_pass_matches_scalar_oracle_across_tiles():
    # a plain callable keeps every grid point as an end: node counts around
    # the edge where a row of 257 ends and 256 cells no longer fits one tile
    edge = _MAX_CELLS // (2 * 257 - 1)
    q = preset("a2").quantile
    for n in (edge - 1, edge, edge + 1, 2 * edge + 1):
        u = np.linspace(0.0, 1.0, n)
        np.testing.assert_array_equal(
            _r_profile_continuous(q, u, 0.71, 2.0, 257), oracle_profile(q, u, 0.71, 2.0, 257, True)
        )


def test_pruned_grid_pass_equals_the_full_grid_at_the_deep_tail_point():
    # the point where the a4 kernel loses digits in the tail (see the xfail
    # test_a4_deep_tail_monotone_in_u), on the benchmark grid and denser
    u = np.concatenate([_edge_u, _gl_rule(256)[0], np.linspace(0.0, 1e-6, 64)])
    for c_steps in (257, 1025):
        _profiles_equal(preset("a4"), u, 0.5668134028632025, 10.936072903736195, c_steps)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    model=_pruned_models, beta=_betas, a=st.floats(0.5, 1.0),
    u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    c_steps=st.sampled_from([1025, 4097]),
)
def test_kernel_keeps_the_cell_bound(model, beta, a, u, c_steps):
    # on every cell of _C_STRIDE grid steps, each interior |1 - c a q| stays
    # within the pruning margins of the bound from the cell's ends, so a
    # skipped cell holds no value that reaches the best end value
    u = np.concatenate([_edge_u, u])
    c = np.linspace(1.0, 2.0, c_steps)
    f = _residual(model.quantile, u[None, :], c[:, None], a, beta)
    ends = np.arange(0, c_steps, _C_STRIDE)
    f_l, f_r = f[ends[:-1]], f[ends[1:]]
    c_in = c[ends[1:] - 1][:, None]
    bound = np.maximum(
        np.where(f_r <= 0.0, c_in / c[ends[1:], None] * -f_r, 0.0),
        np.where(f_l > 0.0, c_in / c[ends[:-1], None] * f_l, 0.0),
    )
    inner = np.abs(f[: ends[-1]]).reshape(-1, _C_STRIDE, u.size)[:, 1:].max(axis=1)
    top = np.abs(f[ends]).max(axis=0)
    assert np.all(inner <= bound + top * _PRUNE_REL + _PRUNE_ABS)
