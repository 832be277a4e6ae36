"""The identity ledger: outputs that must stay bit-identical across refactors.

tests/data/identity.json is written by tests/make_identity.py, which also
says what each hash covers.  Exact hashes are compared only under the numpy
and scipy versions that made the ledger: another version may round a
special function differently, so there the test skips, naming both.
"""

import json

import pytest

from make_identity import LEDGER, hashes, versions


def test_identity_ledger_is_reproduced():
    with open(LEDGER) as handle:
        doc = json.load(handle)
    if doc["versions"] != versions():
        pytest.skip(f"ledger made with {doc['versions']}, running {versions()}")
    want = {name: doc[name]["sha256"] for name in (
        "e_max", "mc_summary", "boltzmann_draws", "solve_traces", "scalar_draws",
        "qubo_patterns", "qubo_deviation",
    )}
    assert hashes(doc) == want
