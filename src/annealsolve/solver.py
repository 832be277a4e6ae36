"""Adaptive iterative refinement for a*x = b.

Each step classifies the residual b - a*x by its binary exponent l (the
unique integer with 2^l |residual| in (1/2, 1]), asks a correction model for
the scaled correction at normalized residual c = 1 / (2^l |residual|), and
updates x by the bit-shifted correction 2^-l * delta.  Everything the model
sees is (c, a, beta) plus a uniform variate; the residual's sign multiplies
the returned correction.

The error b/a - x then contracts by exactly (1 - a*c*q) per step, which is
what ties a trace to the convergence-rate functionals in `rate`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .sampler import CorrectionModel, check_finite_positive, model_id, q_value

TRACE_COLUMNS = ("n", "x", "residual", "l", "c", "eta", "delta", "multiplier")


@dataclass(frozen=True)
class ProblemInstance:
    """Equation a*x = b rescaled so that 1/2 <= a < 1.

    shift records the power of two applied: a = 2^shift * a0 (after flipping
    signs of a negative a0).  The solution b/a is preserved exactly.
    """

    a: float
    b: float
    shift: int

    @property
    def solution(self) -> float:
        return self.b / self.a


class DegenerateProblemError(ValueError):
    """Raised when the linear equation has a = 0 and no unique solution."""


def check_equation(a: float, b: float) -> None:
    """Raise ValueError unless a*x = b has finite a, b and a != 0 (DegenerateProblemError)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"a and b must be finite, got a={a}, b={b}")
    if a == 0.0:
        raise DegenerateProblemError("a = 0 leaves no equation to solve")


def normalize(a0: float, b0: float) -> ProblemInstance:
    """Rescale (a0, b0) by a power of two (and a sign flip for a0 < 0)."""
    check_equation(a0, b0)
    if a0 < 0.0:
        a0, b0 = -a0, -b0
    mantissa, exponent = math.frexp(a0)  # a0 = mantissa * 2^exponent
    try:
        b = math.ldexp(b0, -exponent)
    except OverflowError:
        raise ValueError(
            f"rescaling b={b0} by 2^{-exponent} to normalize a={a0} overflows"
        ) from None
    return ProblemInstance(a=mantissa, b=b, shift=-exponent)


def residual_exponent(res: float) -> int:
    """The unique integer l with 2^l * |res| in (1/2, 1]."""
    if res == 0.0:
        raise ValueError("zero residual has no exponent; the iterate is exact")
    mantissa, exponent = math.frexp(abs(res))
    # frexp puts the mantissa in [1/2, 1); an exact power of two (mantissa
    # exactly 1/2) belongs to the closed top of the next bracket
    return 1 - exponent if mantissa == 0.5 else -exponent


def residual_exponent_array(res: np.ndarray) -> np.ndarray:
    mantissa, exponent = np.frexp(np.abs(res))
    return (mantissa == 0.5) - exponent


def _advance(
    x: np.ndarray, inst: ProblemInstance, model: CorrectionModel, beta: float,
    u: np.ndarray, l0_zero: bool = False,
) -> tuple[np.ndarray, ...]:
    """One refinement step for an array of iterates with nonzero residuals.

    Returns (x_next, residual, l, c, q, delta) per iterate; l0_zero pins the
    exponent to zero instead of classifying the residual.  The rank picks
    the arithmetic: one iterate, a float (0-d, as ``solve`` passes it) with
    a scalar u, steps on Python floats and ints, by ``residual_exponent``
    and ``math.ldexp``, and an array by numpy's ufuncs, with the same
    values bit for bit.  On floats a shift that overflows is +-inf, as
    np.ldexp gives it, and the residual's sign multiplies q as np.sign does
    (-q, not copysign, where q < 0).
    """
    if isinstance(x, float):
        res = inst.b - inst.a * x
        l = 0 if l0_zero else residual_exponent(res)
        c = 1.0 / math.ldexp(abs(res), l)
        q = q_value(model, float(u), c, inst.a, beta)
        delta = q if res > 0.0 else -q
        try:
            shift = math.ldexp(delta, -l)
        except OverflowError:  # where np.ldexp gives +-inf
            shift = math.copysign(math.inf, delta)
        return x + shift, res, l, c, q, delta
    res = inst.b - inst.a * x
    l = np.zeros_like(res, dtype=int) if l0_zero else residual_exponent_array(res)
    c = 1.0 / np.ldexp(np.abs(res), l)
    q = q_value(model, u, c, inst.a, beta)
    delta = np.sign(res) * q
    return x + np.ldexp(delta, -l), res, l, c, q, delta


def _error_ratio(a: float, res: float, l: int, c: float, q: float) -> float:
    """One step's error multiplier g_{n+1}/g_n = 1 - a*c*q, on Python floats.

    Where c = 1/ldexp(|res|, l) overflowed, a*c*q is inf*0 at q = 0, so the
    exact form 1 - a*q/ldexp(|res|, l) is taken: 1 at q = 0.
    """
    if c == math.inf:
        return 1.0 - a * q / math.ldexp(abs(res), l)
    return 1.0 - a * c * q


@dataclass(frozen=True)
class IterationTrace:
    """Complete record of one solve run.

    x has one more entry than the per-step arrays (it includes the final
    iterate); exact marks termination on a residual of exactly zero, stopped
    marks any termination before max_iter.
    """

    instance: ProblemInstance
    model: str
    beta: float
    seed: int
    stream: int
    l0_zero: bool
    x: np.ndarray
    residual: np.ndarray
    l: np.ndarray
    c: np.ndarray
    eta: np.ndarray
    delta: np.ndarray
    multiplier: np.ndarray
    exact: bool
    stopped: bool

    @property
    def n_steps(self) -> int:
        return self.residual.size

    @property
    def final_x(self) -> float:
        return float(self.x[-1])

    @property
    def final_residual(self) -> float:
        return self.instance.b - self.instance.a * self.final_x

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(",".join(TRACE_COLUMNS) + "\n")
        # each column read once as Python floats and ints, whose repr is the
        # shortest round-trip text; zip stops before x's final iterate
        columns = (self.x, self.residual, self.l, self.c, self.eta, self.delta, self.multiplier)
        for n, row in enumerate(zip(*(col.tolist() for col in columns))):
            out.write(f"{n},{','.join(map(repr, row))}\n")
        if self.stopped:
            # early stops get a terminal row with the final state
            out.write(f"{self.n_steps},{self.final_x!r},{self.final_residual!r},,,,,\n")
        return out.getvalue()


def solve(
    inst: ProblemInstance,
    model: CorrectionModel,
    beta: float,
    seed: int,
    max_iter: int,
    tol: float = 0.0,
    l0_zero: bool = False,
    stream: int = 0,
) -> IterationTrace:
    """Run refinement steps with a deterministic uniform stream.

    Stops at max_iter, at |residual| <= tol, or at an exactly zero residual;
    raises ValueError, naming the step, if an iterate overflows or the
    step's law cannot be drawn (then also the normalised equation).
    l0_zero forces l = 0 on the first step (the normal-model threshold
    convention) instead of classifying the initial residual.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol >= 0.0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if tol == math.inf:
        raise ValueError(f"tol must be finite, got {tol}")
    check_finite_positive("a", inst.a)
    check_finite_positive("beta", beta)
    etas = rng.uniforms(seed, max_iter, stream)

    # row n holds step n; x has the extra final iterate
    x = np.zeros(max_iter + 1)
    res, c, delta, multiplier = (np.empty(max_iter) for _ in range(4))
    l = np.empty(max_iter, dtype=int)
    n = 0
    # the iterate steps as a Python float, and each step's multiplier is
    # _error_ratio of the floats _advance returns; the arrays record them
    x_n = 0.0
    # a draw that overflows (1/(a*c) where the zero-exponent first step's
    # c = 1/|residual| is tiny) takes the iterate past the float range, which
    # raises below, so numpy's overflow warning is noise; a NaN residual
    # goes on, so that q_value rejects it
    with np.errstate(over="ignore"):
        while n < max_iter and not abs(inst.b - inst.a * x_n) <= tol:
            try:
                x_next, res_n, l_n, c_n, q_n, delta[n] = _advance(
                    x_n, inst, model, beta, etas[n], l0_zero and n == 0
                )
            except ValueError as err:
                # the law sees the normalised equation, not the one typed
                raise ValueError(
                    f"step {n} of {inst.a}*x = {inst.b} (a*x = b scaled by "
                    f"2^{inst.shift}; the law's target is 1/c): {err}"
                ) from None
            if not math.isfinite(x_next):
                raise ValueError(
                    f"solve diverged: step {n} took the iterate from {x_n!r} to {x_next!r}"
                )
            res[n], l[n], c[n] = res_n, l_n, c_n
            multiplier[n] = _error_ratio(inst.a, res_n, l_n, c_n, q_n)
            x[n + 1] = x_n = x_next
            n += 1

    return IterationTrace(
        instance=inst,
        model=model_id(model),
        beta=beta,
        seed=seed,
        stream=stream,
        l0_zero=l0_zero,
        x=x[: n + 1],
        residual=res[:n],
        l=l[:n],
        c=c[:n],
        eta=etas[:n],
        delta=delta[:n],
        multiplier=multiplier[:n],
        exact=bool(inst.b - inst.a * x[n] == 0.0),
        stopped=n < max_iter,
    )


def replay_errors(
    inst: ProblemInstance,
    model: CorrectionModel,
    beta: float,
    etas,
    l0_zero: bool = False,
) -> np.ndarray:
    """Rebuild the iterates from the error-multiplier recursion alone.

    Starting from the error g = b/a, each variate multiplies g by
    (1 - a*c*q(eta, c, a, beta)) with c derived from |a*g|; the iterates are
    b/a - g.  A solve() trace driven by the same variates reproduces these
    values, which is the testable face of the trajectory/recursion
    distributional equivalence.
    """
    ba = inst.solution
    g = ba
    xs = [0.0]
    for n, eta in enumerate(np.asarray(etas, dtype=float)):
        res_mag = abs(inst.a * g)
        if res_mag == 0.0:
            xs.append(ba)
            continue
        l = 0 if (l0_zero and n == 0) else residual_exponent(res_mag)
        c = 1.0 / math.ldexp(res_mag, l)
        q = q_value(model, float(eta), c, inst.a, beta)
        g = g * _error_ratio(inst.a, res_mag, l, c, q)
        xs.append(ba - g)
    return np.array(xs)
