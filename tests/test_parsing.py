import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oag import (
    ConvexCut,
    Element,
    GroupSpec,
    INT,
    LitKind,
    PLOCAL,
    PSPAN,
    ParseError,
    RAT,
    Term,
    format_element,
    format_literal,
    parse_element,
    parse_formula,
    parse_params,
    parse_spec,
)
from helpers import random_element, random_literal, random_spec


def test_parse_spec_examples():
    assert parse_spec("lex(Q, Gp(2)^2)") == GroupSpec((RAT, PSPAN(2), PSPAN(2)))
    assert parse_spec("lex(Z)") == GroupSpec((INT,))
    assert parse_spec("lex(Z, Zloc(3), Q)") == GroupSpec((INT, PLOCAL(3), RAT))


def test_parse_spec_rejects_nonprime():
    with pytest.raises(ParseError):
        parse_spec("lex(Gp(4))")
    with pytest.raises(ParseError):
        parse_spec("lex(Zloc(6))")


def test_parse_spec_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_spec("lex(Q Q)")
    assert err.value.position > 0
    with pytest.raises(ParseError):
        parse_spec("lex()")
    with pytest.raises(ParseError):
        parse_spec("lex(Q) trailing")


def test_spec_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        spec = random_spec(rng)
        assert parse_spec(str(spec)) == spec


def test_parse_element_example():
    g = parse_spec("lex(Q, Gp(2), Zloc(3))")
    e = parse_element(g, "( 1/2 | b0 + 2*b1 | 0 )")
    assert str(e) == "(1/2 | b0 + 2*b1 | 0)"


def test_element_round_trip_random():
    rng = random.Random(5)
    for _ in range(120):
        spec = random_spec(rng)
        e = random_element(rng, spec)
        assert parse_element(spec, format_element(e)) == e


def test_parse_element_errors():
    g = parse_spec("lex(Z, Zloc(2))")
    with pytest.raises(ParseError):
        parse_element(g, "(1/2 | 0)")  # Z coordinate must be integral
    with pytest.raises(ParseError):
        parse_element(g, "(1 | 1/2)")  # denominator divisible by p
    with pytest.raises(ParseError):
        parse_element(g, "(1 | 0 | 0)")  # too many coordinates
    with pytest.raises(ParseError):
        parse_element(g, "(1)")  # too few


def test_parse_span_shorthand():
    g = parse_spec("lex(Gp(2))")
    assert parse_element(g, "3") == parse_element(g, "3*b0")
    assert parse_element(g, "-b1") == parse_element(g, "-1*b1")
    assert parse_element(g, "b0 - 2*b1") == parse_element(g, "1*b0 + -2*b1")


def test_parse_formula_example():
    lits = parse_formula("cong[4, cut2](3x, 1*a0 + -2*a1) & 1x < 1*a2")
    assert len(lits) == 2
    assert lits[0].kind is LitKind.CONG
    assert lits[0].k == 3 and lits[0].m == 4 and lits[0].alpha == ConvexCut(2)
    assert lits[0].term == Term.of({0: 1, 1: -2})
    assert lits[1].kind is LitKind.ORD and lits[1].cmp == "<"


def test_parse_formula_negations():
    lits = parse_formula("!cong[2, cut1](1x, 1*a0) & !1x = 1*a0 & !ing[cut1](1x, 1*a0) & !1x < 1*a0")
    assert [l.kind for l in lits] == [
        LitKind.NCONG,
        LitKind.NEQ,
        LitKind.NOTINGRP,
        LitKind.ORD,
    ]
    assert lits[3].cmp == ">="


def test_parse_formula_flipped_comparison():
    (lit,) = parse_formula("1*a0 < 2x")
    assert lit.kind is LitKind.ORD and lit.cmp == ">" and lit.k == 2


def test_parse_formula_errors():
    with pytest.raises(ParseError):
        parse_formula("cong[2, cut1](0x, 1*a0)")  # zero coefficient
    with pytest.raises(ParseError):
        parse_formula("1x < 2x")  # both sides mention x
    with pytest.raises(ParseError):
        parse_formula("1*a0 < 2*a1")  # neither side mentions x
    with pytest.raises(ParseError):
        parse_formula("cong[2 cut1](1x, 1*a0)")


def test_formula_round_trip():
    texts = [
        "cong[4, cut2](3x, 1*a0 + -2*a1)",
        "!cong[12, cut0](-2x, 3*a1)",
        "ing[cut1](2x, 1*a0)",
        "!ing[cut3](1x, 2*a2)",
        "1x < 1*a2",
        "-3x >= 2*a0 + 1*a1",
        "!1x = 1*a0",
        "cong[1, cut1](1x, 0)",
    ]
    for text in texts:
        (lit,) = parse_formula(text)
        assert parse_formula(format_literal(lit)) == (lit,)


def test_parse_params_empty_and_multi():
    g = parse_spec("lex(Q, Gp(2))")
    assert parse_params(g, "") == ()
    params = parse_params(g, "(1 | b0) ; (0 | 2*b1)")
    assert len(params) == 2
    assert format_element(params[1]) == "(0 | 2*b1)"


def _parse_row(row):
    kind, text = row["kind"], row["text"]
    if kind == "spec":
        return parse_spec(text)
    if kind == "formula":
        return parse_formula(text)
    parse = parse_element if kind == "element" else parse_params
    return parse(parse_spec(row["spec"]), text)


def test_parse_errors_match_table():
    # tests/parse_errors.json holds malformed spec, element, params and
    # formula texts that reach every ParseError site, with the message and
    # position the parser gives.  A row with "parent_position" records one of
    # the two position fixes: params errors index the whole text, and a
    # coordinate outside its block is reported at its own start (it was 0).
    rows = json.loads(Path(__file__).with_name("parse_errors.json").read_text())
    wrong = []
    for row in rows:
        with pytest.raises(ParseError) as err:
            _parse_row(row)
        want = f"{row['message']} (at position {row['position']})"
        if (str(err.value), err.value.position) != (want, row["position"]):
            wrong.append((row["kind"], row["text"], str(err.value)))
    assert not wrong


_TOKEN = re.compile(r"\d+|[A-Za-z_]\w*|<=|>=|\S")
_SPACES = ("", " ", "  ", "\t", "\n", " \n\t")


def _respace(rng: random.Random, text: str) -> str:
    """text with random whitespace between its tokens; two word tokens keep
    at least one space, so none merge."""
    out = ""
    for tok in _TOKEN.findall(text):
        sep = rng.choice(_SPACES)
        if not sep and out[-1:].isalnum() and tok[0].isalnum():
            sep = " "
        out += sep + tok
    return out + rng.choice(_SPACES)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_format_then_parse_is_identity(rng):
    spec = random_spec(rng)
    params = tuple(random_element(rng, spec) for _ in range(rng.randint(1, 3)))
    lits = tuple(random_literal(rng, spec, len(params)) for _ in range(rng.randint(1, 3)))
    spec_text = str(spec)
    params_text = "; ".join(format_element(e) for e in params)
    formula_text = " & ".join(format_literal(l) for l in lits)
    for spaced in (False, True):
        if spaced:
            spec_text, params_text, formula_text = (
                _respace(rng, t) for t in (spec_text, params_text, formula_text)
            )
        assert parse_spec(spec_text) == spec
        parsed = parse_params(spec, params_text)
        assert parsed == params
        assert parse_formula(formula_text) == lits
        # the parser builds elements without re-validation; each must be
        # what Element's own normalization makes of its coordinates
        for e in parsed:
            again = Element(spec, e.coords)
            assert e == again
            assert [type(v) for v in e.coords] == [type(v) for v in again.coords]
