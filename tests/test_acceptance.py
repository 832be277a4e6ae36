"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import numpy as np
import pytest

import annealsolve as ans
from annealsolve import BitRange, BoltzmannModel, NormalModel, SupportKind, TruncNormalModel
from annealsolve.sampler import PRESETS
from helpers import boltzmann_law_oracle, chisq_pvalue, floats, twos_complement_value


def report(number: int, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def test_criterion_1_qubo_identity():
    t0 = time.time()
    worst = 0.0
    ranges = [BitRange(-2, 1), BitRange(-4, 3), BitRange(-6, 5), BitRange(-10, 1)]
    for a in np.linspace(0.5, 0.98, 5):
        for b in np.linspace(-2.0, 2.0, 5):
            for bit_range in ranges:
                problem = ans.build_qubo(float(a), float(b), bit_range)
                n = problem.n_bits
                assert n <= 12
                codes = np.arange(1 << n)
                bits = (codes[:, None] >> np.arange(n)) & 1
                # independent decode + energy evaluation
                xs = np.array(
                    [twos_complement_value(row.tolist(), bit_range.r, bit_range.p) for row in bits]
                )
                q = np.zeros((n, n))
                for (i, j), value in problem.coefficients.items():
                    q[i - bit_range.r, j - bit_range.r] = value
                energies = np.einsum("ki,ij,kj->k", bits.astype(float), q, bits.astype(float))
                deviation = np.abs(energies + problem.offset - (a * xs - b) ** 2).max()
                worst = max(worst, float(deviation))
    elapsed = time.time() - t0
    report(1, worst <= 1e-12, elapsed, 10.0, f"max deviation {worst:.2e}")


def test_criterion_2_sampler_oracle_equivalence():
    t0 = time.time()
    configs = [
        (BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1)), 0.5),
        (BoltzmannModel(SupportKind.POSITIVE, BitRange(-3, 1)), 2.0),
        (BoltzmannModel(SupportKind.POSITIVE, BitRange(-7, 1)), 2.0),
        (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)), 0.5),
        (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-2, 1)), 2.0),
        (BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(-6, 1)), 2.0),
    ]
    a, c = 0.7, 1.3
    pvalues = []
    for k, (model, beta) in enumerate(configs):
        assert model.range.width <= 8
        # the exact law of the helpers, which shares no step with the sampler
        pmf = floats(boltzmann_law_oracle(model.support(), 1.0 / c, a, beta)[0])
        p = 0.0
        for attempt, seed in enumerate((900 + k, 1900 + k)):  # one re-seed allowed
            u = ans.rng.uniforms(seed, 10**5)
            values = ans.q_value(model, u, c, a, beta)
            counts = np.array([(values == v).sum() for v in model.support()])
            p = chisq_pvalue(counts, pmf)
            if p > 0.01:
                break
        pvalues.append(p)
    elapsed = time.time() - t0
    ok = all(p > 0.01 for p in pvalues)
    report(2, ok, elapsed, 30.0, "p-values " + ", ".join(f"{p:.3f}" for p in pvalues))


def test_criterion_3_rate_window():
    t0 = time.time()
    summary = ans.mc_convergence(
        NormalModel(), a=0.5, b=0.7, beta=2.0, s=1.0, n_traj=1000, n_iter=40, seed=2026
    )
    elapsed = time.time() - t0
    ok = -1.825 <= summary.slope <= -0.832
    report(3, ok, elapsed, 20.0, f"median log-error slope {summary.slope:.4f} in [-1.825, -0.832]")


def test_criterion_4_divergence():
    t0 = time.time()
    summary = ans.mc_convergence(
        NormalModel(), a=0.5, b=0.7, beta=0.25, s=1.0, n_traj=500, n_iter=400, seed=2026
    )
    elapsed = time.time() - t0
    ok = summary.diverged_fraction >= 0.95
    report(4, ok, elapsed, 20.0, f"diverged fraction {summary.diverged_fraction:.3f} >= 0.95")


def test_criterion_5_log_abs_normal_constant():
    t0 = time.time()
    estimate = ans.log_abs_normal_mean_check(10**6, seed=2026)
    elapsed = time.time() - t0
    error = abs(estimate - ans.LOG_ABS_NORMAL_MEAN)
    report(5, error <= 0.005, elapsed, 5.0,
           f"estimate {estimate:.5f} vs {ans.LOG_ABS_NORMAL_MEAN:.5f} (|diff| {error:.4f})")


def test_criterion_6_infinite_register_orderings():
    t0 = time.time()
    betas = np.linspace(0.5, 5.0, 20)
    names = ("a1", "a2", "a3", "a4")
    points = ans.rate_curve([PRESETS[name] for name in names], betas)
    curves = {name: [pt.value for pt in points if pt.model_id == name] for name in names}

    neg_a4 = all(v < 0.0 for v in curves["a4"])
    best_a2 = all(
        curves["a2"][i] <= curves["a1"][i] and curves["a2"][i] <= curves["a3"][i]
        for i in range(len(betas)) if betas[i] >= 3.0
    )
    finals = [curves[name][-1] for name in ("a1", "a2", "a3")]
    close_at_5 = max(finals) - min(finals) <= 0.2
    elapsed = time.time() - t0
    report(
        6, neg_a4 and best_a2 and close_at_5, elapsed, 300.0,
        f"a4<0: {neg_a4}; a2 best at beta>=3: {best_a2}; "
        f"a1-a3 spread at beta=5: {max(finals) - min(finals):.3f}",
    )


def test_criterion_7_finite_register_orderings():
    t0 = time.time()
    beta = 4.0
    pos_models = {1 - r: BoltzmannModel(SupportKind.POSITIVE, BitRange(r, 1))
                  for r in (0, -1, -2, -3)}
    sym_models = {2 - r: BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(r, 1))
                  for r in (0, -1, -2)}
    limits = [PRESETS["a2"], PRESETS["a1"]]
    points = ans.rate_curve([*pos_models.values(), *sym_models.values(), *limits], [beta])
    value = {pt.model_id: pt.value for pt in points}
    pos = {nq: value[ans.model_id(m)] for nq, m in pos_models.items()}
    sym = {nq: value[ans.model_id(m)] for nq, m in sym_models.items()}
    tn_pos = value["a2"]  # wide-register limit of the positive grids
    tn_sym = value["a1"]  # and of the signed ones

    sign_aware_faster = all(pos[nq] < sym[nq] for nq in (2, 3, 4))
    more_qubits_faster = all(pos[nq + 1] < pos[nq] for nq in (1, 2, 3))
    above_limit = all(v >= tn_pos for v in pos.values()) and all(
        v >= tn_sym for v in sym.values()
    )
    elapsed = time.time() - t0
    report(
        7, sign_aware_faster and more_qubits_faster and above_limit, elapsed, 300.0,
        f"pos {dict((k, round(v, 3)) for k, v in pos.items())} "
        f"sym {dict((k, round(v, 3)) for k, v in sym.items())} "
        f"limits ({tn_pos:.3f}, {tn_sym:.3f})",
    )


def test_criterion_8_limit_distributions():
    t0 = time.time()
    ranges = [BitRange(3 - w, 3) for w in (6, 10, 14, 16)]
    ok = True
    details = []
    for a, b in ((1.0, 0.5), (0.7, -0.3)):
        for limit in (NormalModel(), TruncNormalModel(0.0, 2.0)):
            ks = [row.ks for row in ans.limit_check(a, b, 1.0, ranges, limit=limit)]
            ok &= ks[0] > ks[1] > ks[2] and ks[3] < 0.02
            details.append(f"{ks[0]:.4f}->{ks[3]:.5f}")
    elapsed = time.time() - t0
    report(8, ok, elapsed, 10.0, "ks " + "; ".join(details))


def test_criterion_9_trajectory_recursion_equivalence():
    t0 = time.time()
    models = [NormalModel(), PRESETS["a2"], PRESETS["a4"]]
    inst = ans.normalize(0.6, 0.85)
    beta = 2.0
    worst_replay = 0.0
    for model in models:
        for seed in range(100):
            trace = ans.solve(inst, model, beta=beta, seed=seed, max_iter=30)
            replay = ans.replay_errors(inst, model, beta, trace.eta)
            n = trace.n_steps
            worst_replay = max(worst_replay, float(np.abs(replay[: n + 1] - trace.x).max()))
            ba = inst.solution
            for k in range(n):
                res = float(trace.residual[k])
                l = int(trace.l[k])
                assert res == inst.b - inst.a * trace.x[k]
                assert 0.5 < math.ldexp(abs(res), l) <= 1.0  # residual-exponent bracket
                assert trace.c[k] == 1.0 / math.ldexp(abs(res), l)  # normalized residual
                assert trace.x[k + 1] == trace.x[k] + math.ldexp(trace.delta[k], -l)  # update law
                defect = abs((ba - trace.x[k + 1]) - (ba - trace.x[k]) * trace.multiplier[k])
                assert defect <= 1e-14 * max(1.0, abs(ba - trace.x[k]))
    elapsed = time.time() - t0
    report(9, worst_replay < 1e-12, elapsed, 5.0,
           f"worst |x_replay - x_solve| {worst_replay:.2e} over 300 runs")
