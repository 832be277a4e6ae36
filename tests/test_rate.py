import math

import numpy as np
import pytest

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
from annealsolve import rng
from annealsolve.cli import parse_model_spec
from annealsolve.dist import boltzmann_cdf_rows
from annealsolve.rate import (
    _DIP_RATIO,
    _GOLDEN,
    _GS_ITERS_A,
    _GS_ITERS_C,
    LOG_FLOOR,
    RATE_CSV_COLUMNS,
    _boltzmann_pieces,
    _E_boltzmann,
    _E_grid,
    _E_max_flag,
    _gl_rule,
    _r_profile_continuous,
)
from annealsolve.sampler import _MAX_CELLS

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
    """Reference: one searchsorted of every piece midpoint per c-row."""
    support = model.support()
    c = np.linspace(1.0, 2.0, c_steps)
    cdf = boltzmann_cdf_rows(support, 1.0 / c, a, beta)
    levels = np.unique(np.concatenate([cdf[:, :-1].ravel(), (0.0, 1.0)]))
    levels = levels[(levels >= 0.0) & (levels <= 1.0)]
    mids = 0.5 * (levels[1:] + levels[:-1])
    r = np.zeros(mids.size)
    for j in range(c_steps):
        idx = np.minimum(np.searchsorted(cdf[j], mids, side="left"), support.size - 1)
        np.maximum(r, np.abs(1.0 - (c[j] * a) * support[idx]), out=r)
    return np.diff(levels), r


@pytest.mark.parametrize("kind", [SupportKind.POSITIVE, SupportKind.SIGNED_SYMMETRIC])
@pytest.mark.parametrize("r", [0, -2, -5])
def test_E_boltzmann_staircase_matches_row_search(kind, r):
    # at beta = 40 some midpoints tie with a CDF level (adjacent floats), so
    # the r comparison also checks the tie rule of the staircase
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


def r_profile_q_value(model, u, a, beta, c_steps):
    """Reference profile that calls q_value afresh at every grid and golden-section point."""
    c = np.linspace(1.0, 2.0, c_steps)
    f = np.abs(1.0 - (c[:, None] * a) * q_value(model, u[None, :], c[:, None], a, beta))
    best = np.argmax(f, axis=0)
    r = f[best, np.arange(u.size)]
    h = 1.0 / (c_steps - 1)
    lo = np.maximum(1.0, c[best] - h)
    hi = np.minimum(2.0, c[best] + h)
    for _ in range(_GS_ITERS_C):
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1 = np.abs(1.0 - (x1 * a) * q_value(model, u, x1, a, beta))
        f2 = np.abs(1.0 - (x2 * a) * q_value(model, u, x2, a, beta))
        r = np.maximum(r, np.maximum(f1, f2))
        go_right = f1 < f2
        lo = np.where(go_right, x1, lo)
        hi = np.where(go_right, hi, x2)
    return r


def test_normal_profile_equals_refined_profile():
    # the normal profile skips golden-section refinement; on the nodes every
    # E evaluation uses (the full rule and the halves of a dip split) the
    # refined reference finds nothing above the grid maximum
    model = NormalModel()
    full, half = _gl_rule(256)[0], _gl_rule(128)[0]
    u = np.concatenate([full, 0.5 * half, 0.5 + 0.5 * half, 0.37 * half])
    for beta in (0.05, 0.5, 2.0, 7.0, 40.0):
        for a in (0.5, 0.77, 1.0):
            for c_steps in (3, 17, 257):
                got = _r_profile_continuous(model, u, a, beta, c_steps)
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
    for name in ("a2", "a4"):
        for beta in (0.5, 4.0):
            E_func(preset(name), 1.0, beta, check=True)  # raises on disagreement


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
            assert E_func(NormalModel(), a, beta, check=True) == closed
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


def test_rate_curve_threads_do_not_change_output():
    models = [preset("a1"), preset("a4")]
    betas = [0.5, 1.5, 3.0]
    seq = rate_curve(models, betas, a_steps=5, c_steps=17, gl_nodes=16, threads=1)
    par = rate_curve(models, betas, a_steps=5, c_steps=17, gl_nodes=16, threads=4)
    assert seq == par


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
    c = np.linspace(1.0, 2.0, c_steps)
    f = np.abs(1.0 - (c[:, None] * a) * q(u_nodes[None, :], c[:, None], a, beta))
    best = np.argmax(f, axis=0)
    r = f[best, np.arange(u_nodes.size)]
    if refine and c_steps > 2 and not isinstance(model, NormalModel):
        h = 1.0 / (c_steps - 1)
        lo = np.maximum(1.0, c[best] - h)
        hi = np.minimum(2.0, c[best] + h)
        for _ in range(_GS_ITERS_C):
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1 = np.abs(1.0 - (x1 * a) * q(u_nodes, x1, a, beta))
            f2 = np.abs(1.0 - (x2 * a) * q(u_nodes, x2, a, beta))
            r = np.maximum(r, np.maximum(f1, f2))
            go_right = f1 < f2
            lo = np.where(go_right, x1, lo)
            hi = np.where(go_right, hi, x2)
    return r


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

    def evaluate(a):
        nonlocal clamped
        value, flag, _ = oracle_E(model, a, beta, c_steps, gl_nodes, refine)
        clamped |= flag
        return value

    k = int(np.argmax(values))
    best = float(values[k])
    lo = float(a_grid[max(0, k - 1)])
    hi = float(a_grid[min(a_steps - 1, k + 1)])
    if hi > lo:
        x1 = hi - _GOLDEN * (hi - lo)
        x2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = evaluate(x1), evaluate(x2)
        for _ in range(_GS_ITERS_A):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + _GOLDEN * (hi - lo)
                f2 = evaluate(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - _GOLDEN * (hi - lo)
                f1 = evaluate(x1)
        best = max(best, f1, f2)
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


@pytest.mark.parametrize("model", [preset("a1"), NormalModel(), exact_sampler],
                         ids=["a1", "normal", "exact_sampler"])
def test_batched_r_profile_matches_scalar_oracle(model):
    # node counts just below, on and above the edge where a row of 257
    # grid values no longer fits one tile of the grid pass, and enough rows
    # of 8 nodes to span several row tiles, for shared and per-row nodes
    c_steps, beta = 257, 2.0
    edge = _MAX_CELLS // c_steps
    for n, m in ((edge, 3), (edge + 1, 3), (edge + 2, 3), (2 * edge + 1, 2), (8, 65)):
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
