"""r_func against the accuracy ledger's r slice, an oracle the engine did not make.

tests/data/rate_oracle.json is written by tests/make_rate_oracle.py, which
takes r in mpmath from the closed-form truncated-normal quantile and says
how.  r_func at its defaults must lie within RTOL * r + ABS of each entry.
ABS is four units of 2^-52: rounding c a q, which is near 1, to a double
and the kernel's last bits move 1 - c a q by that much whatever r is.  Each
RTOL is the largest relative error beyond ABS over the (model, beta)
entries, measured on this engine (numpy 2.4.6, scipy 1.17.1) and rounded
up to 1, 2 or 5 of its decade; 0 means every entry is within ABS.  A change
that makes r more accurate lowers a tolerance, and none may raise one.
"""

import json
import os

import pytest

from annealsolve import r_func
from annealsolve.cli import parse_model_spec

ORACLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "rate_oracle.json")
with open(ORACLE) as _handle:
    ENTRIES = json.load(_handle)["entries"]

ABS = 2.0**-50
# measured: a1 8.9e-15 at beta = 2 (the GL64 nodes 0-2, where erf(z1) is
# near -1) and 6.9e-16 at beta = 10; a2 5.7e-15 and a3 1.5e-15 at beta = 10;
# truncnormal:d1=-1:d2=3 3.5e-15 at beta = 2
RTOL = {
    ("a1", 2.0): 1e-14,
    ("a2", 2.0): 0.0,
    ("a3", 2.0): 0.0,
    ("a4", 2.0): 0.0,
    ("truncnormal:d1=-1:d2=3", 2.0): 5e-15,
    ("a1", 10.0): 1e-15,
    ("a2", 10.0): 1e-14,
    ("a3", 10.0): 2e-15,
}


def errors(model: str, beta: float) -> list[tuple[float, float]]:
    """(|r_func - r|, r) at the defaults over the oracle entries of (model, beta)."""
    law = parse_model_spec(model)
    return [
        (abs(r_func(law, e["u"], e["a"], beta) - float(e["r"])), float(e["r"]))
        for e in ENTRIES if (e["model"], e["beta"]) == (model, beta)
    ]


def test_every_oracle_entry_is_checked():
    assert {(e["model"], e["beta"]) for e in ENTRIES} == set(RTOL) | {("a4", 10.0)}
    assert all(e["digits"] == 30 for e in ENTRIES)


@pytest.mark.parametrize("model,beta", list(RTOL))
def test_r_func_matches_the_oracle(model, beta):
    for error, r in errors(model, beta):
        assert error <= RTOL[model, beta] * r + ABS


# measured: r_func is off by +3.1e-3, +2.1e-4, -1.8e-4 and -7.5e-7 relative
# on GL64 nodes 0, 1, 2 and 32.  The oracle's max over c is at c = 1 on all
# four, so the narrow peak that a dense float scan finds near node 2 lies in
# the kernel's rounding, not in the law
@pytest.mark.xfail(strict=True, reason=(
    "a4 at beta = 10, a = 1/2: at c = 1 the interval's ends sit at erf "
    "arguments -7.5 and -5, so the erf-form kernel's erfinv argument lies "
    "within 2e-12 of -1 and loses digits (ROADMAP item 1), and the maximiser "
    "searches only the grid cells next to the best grid point (item 3)"
))
def test_a4_r_func_matches_the_oracle_at_beta_10():
    for error, r in errors("a4", 10.0):
        assert error <= 1e-9 * r
