import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from annealsolve import (
    BitRange,
    BoltzmannModel,
    DegenerateProblemError,
    NormalModel,
    SupportKind,
    normalize,
    preset,
    replay_errors,
    residual_exponent,
    solve,
)
from annealsolve.solver import TRACE_COLUMNS, ProblemInstance, _advance


def test_normalize_examples():
    inst = normalize(3.0, 5.0)
    assert (inst.a, inst.b, inst.shift) == (0.75, 1.25, -2)
    inst = normalize(0.5, 1.0)
    assert (inst.a, inst.b, inst.shift) == (0.5, 1.0, 0)
    inst = normalize(-1.0, 2.0)
    assert (inst.a, inst.b) == (0.5, -1.0)
    assert inst.solution == -2.0


def test_normalize_preserves_solution_exactly():
    for a0, b0 in [(3.7, -0.2), (-0.013, 91.0), (1536.0, 7.1)]:
        inst = normalize(a0, b0)
        assert 0.5 <= inst.a < 1.0
        assert inst.b / inst.a == b0 / a0


def _normal_or_zero(x: float) -> bool:
    return x == 0.0 or (math.isfinite(x) and abs(x) >= sys.float_info.min)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: x != 0.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_normalize_keeps_the_exact_solution_property(a0, b0):
    # while the rescaled b and the quotient stay normal, scaling both sides
    # by the same power of two changes no bit of b/a
    shift = -math.frexp(a0)[1]
    try:
        b_scaled = math.ldexp(b0, shift)
    except OverflowError:
        b_scaled = math.inf
    assume(_normal_or_zero(b_scaled) and _normal_or_zero(b0 / a0))
    inst = normalize(a0, b0)
    assert 0.5 <= inst.a < 1.0
    assert inst.shift == shift
    assert inst.a == math.ldexp(abs(a0), shift)
    assert inst.b / inst.a == b0 / a0


@pytest.mark.parametrize(
    "a0,b0", [(math.inf, 1.0), (math.nan, 1.0), (0.5, math.inf), (0.5, math.nan)]
)
def test_normalize_rejects_non_finite(a0, b0):
    with pytest.raises(ValueError, match="a and b must be finite"):
        normalize(a0, b0)


@pytest.mark.parametrize("a0,b0", [(1e-320, 1.0), (-5e-324, 2.0**-30), (2.0**-1000, 1e300)])
def test_normalize_overflow_is_a_value_error(a0, b0):
    # a subnormal or tiny a scales b by more than the double range holds
    with pytest.raises(ValueError, match="overflows"):
        normalize(a0, b0)


def test_normalize_rejects_zero():
    with pytest.raises(DegenerateProblemError):
        normalize(0.0, 1.0)


def test_residual_exponent_examples():
    assert residual_exponent(1.0) == 0
    assert residual_exponent(0.3) == 1
    assert residual_exponent(5.0) == -3
    assert residual_exponent(0.5) == 1
    assert residual_exponent(-0.3) == 1
    with pytest.raises(ValueError):
        residual_exponent(0.0)


def test_residual_exponent_bracket_property():
    rng_local = np.random.default_rng(7)
    for res in rng_local.uniform(-20, 20, 200):
        if res == 0.0:
            continue
        l = residual_exponent(float(res))
        assert 0.5 < math.ldexp(abs(res), l) <= 1.0


def test_step_normal_median_hits_solution():
    inst = normalize(0.5, 0.7)
    x_next, _, _, c, q, _ = _advance(0.0, inst, NormalModel(), 2.0, 0.5)
    assert x_next == pytest.approx(inst.solution, abs=1e-15)
    assert 1.0 - inst.a * c * q == pytest.approx(0.0, abs=1e-15)


def test_step_sign_contract_for_positive_supports():
    model = BoltzmannModel(SupportKind.POSITIVE, BitRange(-2, 1))
    inst = normalize(0.5, -0.7)  # negative residual at x = 0
    for eta in (0.0, 0.3, 0.9):
        _, res, _, _, _, delta = _advance(0.0, inst, model, 1.0, eta)
        assert res < 0.0
        assert delta <= 0.0


def test_step_error_recursion_identity():
    # residual 1/2 sits on a bracket boundary: l = 1 and c = 1 exactly
    inst = normalize(0.5, 0.5)
    x_next, _, l, c, q, _ = _advance(0.0, inst, preset("a4"), 2.0, 0.5)
    assert (l, c) == (1, 1.0)
    ba = inst.solution
    lhs = ba - x_next
    rhs = (ba - 0.0) * (1.0 - inst.a * c * q)
    assert lhs == pytest.approx(rhs, abs=1e-14)


# the seven model kinds the trajectories benchmark cycles through
STEP_MODELS = [
    NormalModel(), *(preset(f"a{k}") for k in range(1, 5)),
    BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1)),
    BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)),
]


def _step_or_error(x, inst, model, beta, u, l0_zero):
    # both paths step as solve steps them: under errstate(over="ignore")
    try:
        with np.errstate(over="ignore"):
            return _advance(x, inst, model, beta, u, l0_zero)
    except ValueError as err:
        return str(err)


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(STEP_MODELS),
    st.floats(0.5, 1.0, exclude_max=True),
    st.floats(5e-324, sys.float_info.max),
    st.sampled_from([1.0, -1.0]),
    st.one_of(st.just(0.0), st.floats(-1e300, 1e300)),
    st.floats(0.0, 1.0),
    st.floats(0.05, 100.0),
    st.booleans(),
)
# the shift 2^-l * delta overflows (l = -1024): to +inf, and to -inf with q = 2
@example(NormalModel(), 0.5, 1.7e308, 1.0, 0.0, 0.9, 2.0, False)
@example(preset("a1"), 0.75, 1.7e308, -1.0, 0.0, 1.0, 0.1, False)
# the zero-exponent first step on a subnormal residual: c = 1/|res| = inf
@example(NormalModel(), 0.5, 5e-324, -1.0, 0.0, 0.3, 2.0, True)
@example(STEP_MODELS[5], 0.5, 5e-324, 1.0, 0.0, 0.3, 2.0, True)
# q = 0 (the positive register's lowest point) and q < 0 (a1's lower end)
@example(STEP_MODELS[5], 0.7, 0.3, 1.0, 0.0, 0.0, 0.05, False)
@example(preset("a1"), 0.7, 0.3, -1.0, 0.0, 0.0, 0.05, False)
def test_advance_on_one_float_equals_the_one_element_array_step(
    model, a, magnitude, sign, x, u, beta, l0_zero,
):
    # the float path and numpy's ufuncs give every value bit for bit,
    # including -inf/inf shifts, c = inf, and a zero or negative q
    inst = ProblemInstance(a=a, b=x * a + sign * magnitude, shift=0)
    assume(math.isfinite(inst.b) and inst.b - a * x != 0.0)
    one = _step_or_error(x, inst, model, beta, u, l0_zero)
    many = _step_or_error(np.array([x]), inst, model, beta, np.array([u]), l0_zero)
    if isinstance(one, str) or isinstance(many, str):
        # a law that cannot be drawn fails both ways with one message
        assert one == many
        return
    x_next, res, l, c, q, delta = one
    assert all(type(v) is float for v in (x_next, res, c, q, delta)) and type(l) is int
    assert [float(v).hex() for v in (x_next, res, c, q, delta)] == [
        float(v[0]).hex() for v in (many[0], many[1], many[3], many[4], many[5])
    ]
    assert l == int(many[2][0])


def test_solve_zero_b_is_immediately_exact():
    trace = solve(normalize(0.5, 0.0), NormalModel(), beta=2.0, seed=1, max_iter=10)
    assert trace.n_steps == 0
    assert trace.exact and trace.stopped
    assert trace.final_x == 0.0


def test_replay_and_solve_stop_on_an_exact_hit():
    # at beta 10 the register draws q = 1.5 = b/a from the first residual,
    # after which the error recursion has nothing left to multiply
    inst = normalize(0.5, 0.75)
    model = BoltzmannModel(SupportKind.POSITIVE, BitRange(-1, 1))
    assert replay_errors(inst, model, 10.0, [0.5] * 3).tolist() == [0.0, 1.5, 1.5, 1.5]
    trace = solve(inst, model, beta=10.0, seed=0, max_iter=10)
    assert trace.n_steps == 1
    assert trace.exact and trace.stopped
    assert trace.final_x == 1.5


def test_overflowed_c_takes_the_exact_error_ratio():
    # the zero-exponent first step on a subnormal residual: c = 1/|res| = inf, and the
    # positive register draws q = 0, so 1 - a*c*q would be inf*0 = NaN; the error
    # ratio 1 - a*q/ldexp(|res|, l) is exactly 1, and the replay takes the same step
    inst = normalize(1.0, 1e-323)
    model = BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = solve(inst, model, beta=2.0, seed=0, max_iter=3, l0_zero=True)
        replay = replay_errors(inst, model, 2.0, trace.eta, l0_zero=True)
    assert trace.c[0] == math.inf and trace.delta[0] == 0.0
    assert trace.multiplier[0] == 1.0
    assert trace.multiplier[1:].tolist() == (1.0 - inst.a * trace.c[1:] * trace.delta[1:]).tolist()
    assert replay.tolist() == trace.x.tolist()


def test_solve_validates_arguments():
    inst = normalize(0.5, 0.7)
    with pytest.raises(ValueError):
        solve(inst, NormalModel(), beta=2.0, seed=1, max_iter=0)
    with pytest.raises(ValueError):
        solve(inst, NormalModel(), beta=2.0, seed=1, max_iter=5, tol=-1.0)
    with pytest.raises(ValueError, match="tol must be >= 0, got nan"):
        solve(inst, NormalModel(), beta=2.0, seed=1, max_iter=5, tol=math.nan)


def test_solve_divergence_is_a_value_error_naming_the_step():
    # at beta = 0.02 the normal corrections are so wide that the iterate
    # grows past the float range long before 3000 steps; a1 and the signed
    # register diverge too at a = 0.99, where a*c*q reaches past 2.  The
    # normal and a1 last steps' shift 2^-l * delta overflows (math.ldexp
    # raises; the step takes it as np.ldexp's -inf), the register's shift is
    # finite and the sum overflows; each message is the one numpy's step gave
    cases = [
        (NormalModel(), 0.5, 3000, "step 215 took the iterate from -8.591334404529956e+307 to -inf"),
        (preset("a1"), 0.99, 6000, "step 5225 took the iterate from 1.0639442939059227e+308 to -inf"),
        (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)), 0.99, 10000,
         "step 8906 took the iterate from -1.105280124532328e+308 to -inf"),
    ]
    for model, a, max_iter, where in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                solve(normalize(a, 0.7), model, beta=0.02, seed=0, max_iter=max_iter)
        assert str(err.value) == f"solve diverged: {where}"


def test_solve_deterministic_bitwise():
    inst = normalize(0.6, 0.85)
    t1 = solve(inst, preset("a2"), beta=2.0, seed=9, max_iter=25)
    t2 = solve(inst, preset("a2"), beta=2.0, seed=9, max_iter=25)
    assert t1.x.tolist() == t2.x.tolist()
    assert t1.to_csv() == t2.to_csv()


def test_solve_scale_invariance():
    for factor in (2.0, 0.25, 8.0):
        t1 = solve(normalize(0.6, 0.85), preset("a2"), beta=2.0, seed=3, max_iter=20)
        t2 = solve(normalize(0.6 * factor, 0.85 * factor), preset("a2"), beta=2.0, seed=3, max_iter=20)
        assert t1.x.tolist() == t2.x.tolist()


def test_solve_high_precision_contracts_fast():
    # with beta = 1e3 the normal correction lands ~1e-3 of the residual away
    inst = normalize(0.5, 0.7)
    failures = 0
    for seed in range(100):
        trace = solve(inst, NormalModel(), beta=1e3, seed=seed, max_iter=5)
        errors = np.abs(inst.solution - trace.x)
        if not np.all(errors[1:] <= errors[:-1] / 10.0):
            failures += 1
    assert failures <= 1


def test_solve_tol_stops_early():
    inst = normalize(0.5, 0.7)
    trace = solve(inst, NormalModel(), beta=50.0, seed=4, max_iter=100, tol=1e-6)
    assert trace.stopped
    assert trace.n_steps < 100
    assert abs(trace.final_residual) <= 1e-6


@pytest.mark.parametrize(
    "model", [NormalModel(), preset("a1"), preset("a4"),
              BoltzmannModel(SupportKind.POSITIVE, BitRange(-2, 1))]
)
def test_trace_invariants(model):
    inst = normalize(0.6, 0.85)
    for seed in (0, 1, 2):
        trace = solve(inst, model, beta=2.0, seed=seed, max_iter=25)
        ba = inst.solution
        for n in range(trace.n_steps):
            res = float(trace.residual[n])
            l = int(trace.l[n])
            assert res == inst.b - inst.a * trace.x[n]
            assert 0.5 < math.ldexp(abs(res), l) <= 1.0
            assert trace.c[n] == 1.0 / math.ldexp(abs(res), l)
            assert 1.0 <= trace.c[n] < 2.0
            assert trace.x[n + 1] == trace.x[n] + math.ldexp(trace.delta[n], -l)
            lhs = ba - trace.x[n + 1]
            rhs = (ba - trace.x[n]) * trace.multiplier[n]
            assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(ba - trace.x[n]))


_TRACE_MODELS = [
    NormalModel(), preset("a1"), preset("a2"), preset("a3"), preset("a4"),
    BoltzmannModel(SupportKind.POSITIVE, BitRange(-1, 1)),
    BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1)),
    BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)),
]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(0.5, 1.0, exclude_max=True),
    b_mag=st.floats(0.05, 2.0),
    b_negative=st.booleans(),
    model=st.sampled_from(_TRACE_MODELS),
    beta=st.floats(1.5, 5.0),
    seed=st.integers(0, 2**32),
)
def test_trace_invariants_property(a, b_mag, b_negative, model, beta, seed):
    # beta >= 1.5 is past every listed model's convergence threshold
    inst = normalize(a, -b_mag if b_negative else b_mag)
    assert (inst.a, inst.shift) == (a, 0)
    trace = solve(inst, model, beta=beta, seed=seed, max_iter=40)
    ba = inst.solution
    positive = isinstance(model, BoltzmannModel) and model.kind is SupportKind.POSITIVE
    for k in range(trace.n_steps):
        res, l = float(trace.residual[k]), int(trace.l[k])
        x0, x1 = float(trace.x[k]), float(trace.x[k + 1])
        assert res == inst.b - inst.a * x0
        assert 0.5 < math.ldexp(abs(res), l) <= 1.0
        assert trace.c[k] == 1.0 / math.ldexp(abs(res), l)
        assert x1 == x0 + math.ldexp(float(trace.delta[k]), -l)
        defect = abs((ba - x1) - (ba - x0) * float(trace.multiplier[k]))
        assert defect <= 1e-14 * max(1.0, abs(ba - x0))
        if positive:
            assert trace.delta[k] * res >= 0.0


def test_l0_zero_affects_only_first_step():
    inst = normalize(0.5, 0.2)  # |b| = 0.2 gives l_0 = 2 under the bracket rule
    default = solve(inst, NormalModel(), beta=2.0, seed=5, max_iter=4)
    assert default.l[0] == 2
    literal = solve(inst, NormalModel(), beta=2.0, seed=5, max_iter=4, l0_zero=True)
    assert literal.l[0] == 0
    assert not (0.5 < math.ldexp(abs(literal.residual[0]), 0) <= 1.0)
    assert all(0.5 < math.ldexp(abs(r), int(l)) <= 1.0
               for r, l in zip(literal.residual[1:], literal.l[1:]))


@pytest.mark.parametrize("model", [NormalModel(), preset("a2"), preset("a4")])
def test_replay_reproduces_trajectory(model):
    inst = normalize(0.6, 0.85)
    for seed in (0, 7, 21):
        trace = solve(inst, model, beta=2.0, seed=seed, max_iter=30)
        replay = replay_errors(inst, model, 2.0, trace.eta)
        assert np.max(np.abs(replay[: trace.n_steps + 1] - trace.x)) < 1e-12


def test_replay_boltzmann_on_boundary_free_seeds():
    # dyadic corrections can park the residual exactly on a bracket boundary,
    # where any reconstruction that re-rounds the residual may legitimately
    # pick the other exponent; these seeds avoid that (checked, deterministic)
    model = BoltzmannModel(SupportKind.POSITIVE, BitRange(-2, 1))
    inst = normalize(0.7, 0.9)
    good_seeds = [s for s in range(40)
                  if np.max(np.abs(
                      replay_errors(inst, model, 2.0, solve(inst, model, 2.0, s, 30).eta)[:31]
                      - solve(inst, model, 2.0, s, 30).x[:31])) < 1e-12]
    assert len(good_seeds) >= 10
    for seed in good_seeds[:10]:
        trace = solve(inst, model, beta=2.0, seed=seed, max_iter=30)
        replay = replay_errors(inst, model, 2.0, trace.eta)
        assert np.max(np.abs(replay[: trace.n_steps + 1] - trace.x)) < 1e-12


def test_trace_csv_layout():
    inst = normalize(0.5, 0.7)
    trace = solve(inst, preset("a2"), beta=2.0, seed=1, max_iter=12)
    lines = trace.to_csv().strip().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + 12  # header + one row per step, no early stop

    exact = solve(normalize(0.5, 0.0), preset("a2"), beta=2.0, seed=1, max_iter=12)
    lines = exact.to_csv().strip().splitlines()
    assert len(lines) == 1 + 1  # terminal row only
    assert lines[1].startswith("0,0.0,0.0,")
