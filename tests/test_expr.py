import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from altbase.errors import ParseError
from altbase.expr import PHI, parse_base_list, parse_expression


@pytest.mark.parametrize(
    "text,value",
    [
        ("(1+sqrt(13))/2", (1 + math.sqrt(13)) / 2),
        ("(5+sqrt(13))/6", (5 + math.sqrt(13)) / 6),
        ("(1+sqrt(5))/5", (1 + math.sqrt(5)) / 5),
        ("phi", PHI),
        ("phi*phi", PHI * PHI),
        ("sqrt(5)", math.sqrt(5)),
        ("sqrt(5)/2", math.sqrt(5) / 2),
        ("3/2", 1.5),
        ("2/(phi*phi-1)", 2 / (PHI**2 - 1)),
        ("1e-3", 1e-3),
        ("2.5e2", 250.0),
        ("-(-2)", 2.0),
        ("1+2*3", 7.0),
        ("(1+2)*3", 9.0),
        ("2-1-1", 0.0),
        ("8/2/2", 2.0),
        ("  1 + 1 ", 2.0),
    ],
)
def test_values(text, value):
    got = parse_expression(text)
    assert type(got) is float
    assert got == pytest.approx(value, rel=1e-15)


def test_base_list():
    vals = parse_base_list("(1+sqrt(13))/2,(5+sqrt(13))/6")
    assert vals == pytest.approx(((1 + math.sqrt(13)) / 2, (5 + math.sqrt(13)) / 6))


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("1+", 2),
        ("2+*3", 2),
        ("sqrt(", 5),
        ("sqrt 2", 5),
        ("foo", 0),
        ("1 2", 2),
        ("(1+2", 4),
        ("1/0", 1),
        ("sqrt(-1)", 0),
    ],
)
def test_errors_with_position(text, pos):
    with pytest.raises(ParseError) as exc:
        parse_expression(text)
    assert exc.value.position == pos


def test_empty_base_list():
    with pytest.raises(ParseError):
        parse_base_list("  ")


@pytest.mark.parametrize(
    "text,message,pos",
    [
        ("2,1+", "expected a number, name or parenthesis", 4),
        ("2,,3", "expected a number, name or parenthesis", 2),
        ("2,", "expected a number, name or parenthesis", 2),
        ("1.5, 2+*3", "expected a number, name or parenthesis", 7),
        ("1, (2,3)", "expected ')'", 5),
        ("2,3 4", "trailing input", 4),
        ("2, 1e400", "expression does not evaluate to a finite real", 2),
        (" \t", "empty base list", 0),
    ],
)
def test_base_list_positions_count_from_the_start_of_the_text(text, message, pos):
    with pytest.raises(ParseError) as exc:
        parse_base_list(text)
    assert str(exc.value) == f"{message} (at position {pos})"


@pytest.mark.parametrize(
    "text,message,pos",
    [
        ("1.5e", "trailing input", 3),  # an exponent needs its digits
        ("2e+", "trailing input", 1),
        ("phi2", "trailing input", 3),
        ("2e5x", "trailing input", 3),
        ("1,2", "trailing input", 1),
        ("1.5.e3", "bad number literal '1.5.e3'", 0),
        (".", "bad number literal '.'", 0),
        ("π", "unknown name 'π'", 0),
        ("_1", "expected a number, name or parenthesis", 0),
        # numeric but not a decimal digit: float() never takes it, so it reads as a name
        ("²", "unknown name '²'", 0),
        ("1e400", "expression does not evaluate to a finite real", 0),
    ],
)
def test_token_boundaries(text, message, pos):
    with pytest.raises(ParseError) as exc:
        parse_expression(text)
    assert str(exc.value) == f"{message} (at position {pos})"


@pytest.mark.parametrize(
    "text,value",
    [("\t3\n", 3.0), ("sqrt (4)", 2.0), ("٣", 3.0), ("2 .5", None), ("1e+2", 100.0), (" 2 ", 2.0)],
)
def test_blanks_and_digits(text, value):
    if value is None:
        with pytest.raises(ParseError, match="trailing input"):
            parse_expression(text)
    else:
        assert parse_expression(text) == value


_BLANK = st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u2003"])
_LEAF = st.one_of(st.floats(0, 1e6).map(repr), st.integers(0, 10**6).map(str), st.just("phi"))
_TREE = st.recursive(
    _LEAF,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.sampled_from(["-", "sqrt"]), sub),
    ),
    max_leaves=10,
)


def _render(tree, blank) -> str:
    """The tree printed fully parenthesised, with a blank drawn around every token."""
    if isinstance(tree, str):
        return blank() + tree + blank()
    if len(tree) == 2:
        return f"{blank()}{tree[0]}{blank()}({_render(tree[1], blank)}){blank()}"
    return f"({_render(tree[1], blank)}){blank()}{tree[0]}{blank()}({_render(tree[2], blank)})"


def _evaluate(tree) -> float:
    """The same operations in the same order, in Python floats."""
    if isinstance(tree, str):
        return PHI if tree == "phi" else float(tree)
    if len(tree) == 2:
        v = _evaluate(tree[1])
        return -v if tree[0] == "-" else math.sqrt(v)
    a, b = _evaluate(tree[1]), _evaluate(tree[2])
    return {"+": a + b, "-": a - b, "*": a * b}[tree[0]] if tree[0] != "/" else a / b


@given(_TREE, st.data())
@settings(max_examples=300, deadline=None)
def test_random_trees_parse_to_the_python_value(tree, data):
    text = _render(tree, lambda: data.draw(_BLANK))
    try:
        value = _evaluate(tree)
    except (ZeroDivisionError, ValueError):  # a zero divisor, or the root of a negative
        value = math.nan
    if math.isfinite(value):
        assert repr(parse_expression(text)) == repr(value)
    else:
        with pytest.raises(ParseError):
            parse_expression(text)
