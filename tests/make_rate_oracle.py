"""Write tests/data/rate_oracle.json, the first r slice of the accuracy ledger.

Each entry is the worst per-step multiplier of a truncated-normal model,

    r(u, a, beta) = max over c in [1, 2] of |1 - c a q(u, c, a, beta)|,

taken in mpmath from the closed-form quantile of N(mu, s^2 / 2) conditioned
on [d1, d2], mu = 1/(a c) and s = 1/(a beta), with z_k = (d_k - mu) / s:

    q = mu + s z,  erfc(z) = (1 - u) erfc(z1) + u erfc(z2),

on the interval's side of mu (mirrored, erfc(-z) = (1 - u) erfc(-z1) +
u erfc(-z2), where the interval lies below it), so that no tail mass
cancels.  erfc(z) = t is solved by Newton steps in mpmath from scipy's
double-precision erfcinv, which serves only as the starting point.

The max over c is a scan of SCAN_POINTS equally spaced points of [1, 2],
refined by golden section in the two scan cells around the best point;
r is the largest value the scan and the section evaluated.  It is worked
at GUARD digits beyond the DIGITS significant digits it is given to, as
1 - c a q cancels where r is small.  Every entry is computed again at
CHECK_DIGITS digits on a scan of CHECK_SCAN_POINTS points, and the two
must agree to AGREE relative, which checks the precision and the scan's
bracket at once.

The entries are the four named laws and truncnormal:d1=-1:d2=3 at beta = 2,
a in {1/2, 3/4, 1}, on the first three nodes of the 64-node Gauss-Legendre
rule on [0, 1] and at u = 1/4, 1/2 and 9/10; and the four named laws at
beta = 10, a = 1/2, on nodes 0, 1, 2 and 32 of the same rule.  u, a and
beta are doubles, taken exactly.  tests/test_rate_oracle.py reads the file
and needs no mpmath.  Run from the repository root (a few minutes):

    python tests/make_rate_oracle.py
"""

from __future__ import annotations

import json
import os

import mpmath as mp
import numpy as np
from scipy.special import erfcinv

HERE = os.path.dirname(os.path.abspath(__file__))
ORACLE = os.path.join(HERE, "data", "rate_oracle.json")

DIGITS, SCAN_POINTS = 30, 2049
CHECK_DIGITS, CHECK_SCAN_POINTS = 40, 4097
GUARD = 10
AGREE = 1e-28
NEWTON_STEPS = 4

# truncation intervals, by the model id the package prints
INTERVALS = {
    "a1": (-2.0, 2.0),
    "a2": (0.0, 2.0),
    "a3": (0.5, 2.0),
    "a4": (0.5, 1.0),
    "truncnormal:d1=-1:d2=3": (-1.0, 3.0),
}


def _gl64_nodes() -> list[float]:
    """The 64-node Gauss-Legendre nodes on [0, 1], as the rate engine maps them."""
    x, _ = np.polynomial.legendre.leggauss(64)
    return (0.5 * (x + 1.0)).tolist()


def _points() -> list[tuple[str, float, float, float, str]]:
    """(model, beta, a, u, where u comes from) of every entry."""
    nodes = _gl64_nodes()
    at_2 = [(nodes[k], f"GL64 node {k}") for k in range(3)]
    at_2 += [(u, "interior") for u in (0.25, 0.5, 0.9)]
    points = [
        (model, 2.0, a, u, label)
        for model in INTERVALS for a in (0.5, 0.75, 1.0) for u, label in at_2
    ]
    points += [
        (model, 10.0, 0.5, nodes[k], f"GL64 node {k}")
        for model in ("a1", "a2", "a3", "a4") for k in (0, 1, 2, 32)
    ]
    return points


def _erfcinv(t):
    """z with erfc(z) = t, by Newton steps from the double-precision inverse."""
    z = mp.mpf(float(erfcinv(float(t))))
    if not mp.isfinite(z):
        raise ArithmeticError(f"no double-precision start for erfc(z) = {t}")
    for _ in range(NEWTON_STEPS):
        step = (mp.erfc(z) - t) / (-2 / mp.sqrt(mp.pi) * mp.exp(-z * z))
        z -= step
    if abs(step) > mp.mpf(10) ** (5 - mp.mp.dps) * (1 + abs(z)):
        raise ArithmeticError(f"Newton steps for erfc(z) = {t} did not settle")
    return z


def _maximand(u, c, a, beta, d1, d2):
    """|1 - c a q(u, c, a, beta)| for the law on [d1, d2]."""
    mu, s = 1 / (a * c), 1 / (a * beta)
    z1, z2 = (d1 - mu) / s, (d2 - mu) / s
    if z1 + z2 > 0:
        z = _erfcinv((1 - u) * mp.erfc(z1) + u * mp.erfc(z2))
    else:
        z = -_erfcinv((1 - u) * mp.erfc(-z1) + u * mp.erfc(-z2))
    return abs(1 - c * a * (mu + s * z))


def r_oracle(model: str, beta: float, a: float, u: float, digits: int, scan_points: int):
    """(r, its argmax c) to the given digits, on a scan of the given density."""
    with mp.workdps(digits + GUARD):
        d1, d2 = (mp.mpf(d) for d in INTERVALS[model])
        u, a, beta = mp.mpf(u), mp.mpf(a), mp.mpf(beta)

        def f(c):
            return _maximand(u, c, a, beta, d1, d2)

        grid = [1 + mp.mpf(k) / (scan_points - 1) for k in range(scan_points)]
        values = [f(c) for c in grid]
        k = max(range(scan_points), key=values.__getitem__)
        best, c_best = values[k], grid[k]
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, scan_points - 1)]
        golden = (mp.sqrt(5) - 1) / 2
        while hi - lo > mp.mpf(10) ** (-(digits // 2) - 3):
            x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
            f1, f2 = f(x1), f(x2)
            for c, value in ((x1, f1), (x2, f2)):
                if value > best:
                    best, c_best = value, c
            if f1 < f2:
                lo = x1
            else:
                hi = x2
    with mp.workdps(digits):
        return +best, +c_best


def entry(point) -> dict:
    model, beta, a, u, label = point
    r, c_star = r_oracle(model, beta, a, u, DIGITS, SCAN_POINTS)
    check, _ = r_oracle(model, beta, a, u, CHECK_DIGITS, CHECK_SCAN_POINTS)
    with mp.workdps(CHECK_DIGITS):
        agree = float(abs(r - check) / check)
    if not agree <= AGREE:
        raise ArithmeticError(f"{point}: {DIGITS} and {CHECK_DIGITS} digits differ by {agree}")
    return {
        "model": model, "beta": beta, "a": a, "u": u, "u_from": label,
        "r": mp.nstr(r, DIGITS), "c_star": mp.nstr(c_star, 20),
        "method": f"mpmath closed-form quantile, scan {SCAN_POINTS} + golden section",
        "digits": DIGITS,
        "check": f"{CHECK_DIGITS} digits, scan {CHECK_SCAN_POINTS}: rel diff {agree:.1e}",
    }


def main() -> None:
    entries = []
    for point in _points():
        entries.append(entry(point))
        print(entries[-1]["model"], point[1:4], entries[-1]["r"], flush=True)
    with open(ORACLE, "w") as handle:
        json.dump({"entries": entries}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
