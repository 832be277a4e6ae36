"""The model grammar: ``model_id`` writes it and ``parse_model_spec`` reads it."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annealsolve import BitRange, BoltzmannModel, SupportKind, TruncNormalModel, cli, model_id
from annealsolve.sampler import ModelSpecError, parse_model_spec


def test_cli_reads_models_through_the_sampler_grammar():
    assert cli.parse_model_spec is parse_model_spec
    assert cli.ModelSpecError is ModelSpecError


@pytest.mark.parametrize("ends", [(math.nan, 1.0), (0.0, math.nan), (math.nan, math.nan)])
def test_nan_interval_end_is_rejected(ends):
    with pytest.raises(ValueError, match="need d1 < d2"):
        TruncNormalModel(*ends)


def test_nan_interval_end_in_a_spec_is_a_spec_error():
    with pytest.raises(ModelSpecError, match="need d1 < d2"):
        parse_model_spec("truncnormal:d1=nan:d2=1")


def test_empty_value_is_a_malformed_token():
    with pytest.raises(ModelSpecError, match="malformed key=value token 'd1=' at position 12"):
        parse_model_spec("truncnormal:d1=:d2=1")


def test_kinds_are_read_case_blind_and_unknown_kinds_report_their_position():
    signed = BoltzmannModel(SupportKind.SIGNED_SYMMETRIC, BitRange(0, 1))
    assert parse_model_spec("boltzmann:kind=SIGNED:r=0:p=1") == signed
    assert parse_model_spec("Boltzmann:Signed:R=0:P=1") == signed
    with pytest.raises(ModelSpecError, match="position 10 in"):
        parse_model_spec("boltzmann:kind=foo:r=0:p=1")


@pytest.mark.parametrize("spec,position", [
    ("boltzmann:positive:r=-1:p=1:r=-2", 28),
    ("boltzmann:positive:signed:r=0:p=1", 19),
    ("truncnormal:d1=0:d2=1:D1=0", 22),
])
def test_repeated_key_reports_its_position(spec, position):
    with pytest.raises(ModelSpecError, match=f"repeated key .* at position {position} in"):
        parse_model_spec(spec)


# the grammar's own pieces: names, keys, numbers and words, in any case
_NAMES = ("normal", "a1", "a2", "a3", "a4", "truncnormal", "boltzmann", "nrmal", "")
_KEYS = {"truncnormal": ("d1", "d2"), "boltzmann": ("kind", "r", "p")}
_numbers = st.one_of(
    st.integers(-6, 3).map(str),
    st.floats(-3.0, 3.0).map(repr),
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0"]),
)
_words = st.sampled_from(["signed", "positive", "twos-complement", "foo", ""])
_case = st.sampled_from([str, str.upper, str.title])


# a value likely to be valid for each key
_FITTING = {
    "d1": st.one_of(st.floats(-3.0, 1.0).map(repr), st.sampled_from(["nan", "-inf"])),
    "d2": st.one_of(st.floats(0.0, 3.0).map(repr), st.sampled_from(["nan", "inf"])),
    "kind": st.sampled_from(["signed", "positive"]),
    "r": st.integers(-6, 0).map(str),
    "p": st.integers(-1, 1).map(str),
}


@st.composite
def _specs(draw):
    def now_and_then():
        return draw(st.integers(0, 3)) == 0

    name = draw(st.sampled_from(_NAMES))
    # the model's own keys with mostly fitting values, now and then a key
    # dropped, repeated or foreign, a stray token or a value of any kind
    keys = [key for key in _KEYS.get(name, ()) if not now_and_then()]
    if now_and_then():
        keys.append(draw(st.sampled_from(("d1", "kind", "r"))))
    tokens = [
        f"{key}={draw(st.one_of(_numbers, _words) if now_and_then() else _FITTING[key])}"
        for key in keys
    ]
    if now_and_then():
        tokens.append(draw(st.one_of(
            _numbers, _words,
            st.tuples(st.sampled_from(["d1", "kind", "r", "x", ""]), _numbers).map("=".join),
            st.tuples(st.sampled_from(["r", "kind"]), _words).map("==".join),
        )))
    tokens = draw(st.permutations(tokens))
    return ":".join(draw(_case)(text) for text in [name, *tokens])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(spec=_specs())
def test_grammar_parses_to_a_round_tripping_model_or_raises_spec_error(spec):
    try:
        model = parse_model_spec(spec)
    except ModelSpecError:
        return
    assert parse_model_spec(model_id(model)) == model
