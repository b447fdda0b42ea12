import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrb import (
    CapExceededError,
    InputError,
    decimal_approx,
    format_rational,
    parse_rational,
)
from nrb.rational import _format_ratio


def test_accepts_fraction_int_and_strings():
    assert parse_rational(F(3, 7)) == F(3, 7)
    assert parse_rational(5) == 5
    assert parse_rational("2/6") == F(1, 3)
    assert parse_rational("-4") == -4
    assert parse_rational(" 7/2 ") == F(7, 2)


def test_decimal_strings_convert_exactly():
    assert parse_rational("0.4") == F(2, 5)
    assert parse_rational("0.35") == F(7, 20)
    assert parse_rational("-1.25") == F(-5, 4)


@pytest.mark.parametrize("bad", [0.4, float("nan"), True, False, None,
                                 "1/0", "abc", "1e3/2", "", "3/",
                                 [1], {"a": 1}])
def test_rejects_non_rationals(bad):
    with pytest.raises(InputError):
        parse_rational(bad)


def test_format_round_trips():
    for v in [F(0), F(-3, 7), F(10), F(22, 7)]:
        assert parse_rational(format_rational(v)) == v


def test_decimal_approx_rounds_half_even():
    assert decimal_approx(F(2, 3)) == "0.666666666667"
    assert decimal_approx(F(1, 10)) == "0.100000000000"
    assert decimal_approx(F(1, 3), places=2) == "0.33"
    assert decimal_approx(F(-1, 8), places=2) == "-0.12"
    assert decimal_approx(F(3, 8), places=2) == "0.38"


_SPACE = st.text(alphabet=" \t\n\r", max_size=3)


@st.composite
def _rational_spellings(draw):
    """A decimal ``[-+]d[.d]`` or ``a/b`` string, padded with whitespace."""
    sign = draw(st.sampled_from(["", "-", "+"]))
    whole = str(draw(st.integers(0, 10**30)))
    if draw(st.booleans()):
        body = f"{sign}{whole}/{draw(st.integers(1, 10**30))}"
    elif draw(st.booleans()):
        digits = draw(st.text(alphabet="0123456789", min_size=1, max_size=30))
        body = f"{sign}{whole}.{digits}"
    else:
        body = f"{sign}{whole}"
    return draw(_SPACE) + body + draw(_SPACE)


@given(_rational_spellings())
def test_strings_parse_like_fraction(text):
    value = parse_rational(text)
    assert type(value) is F
    assert value == F(text.strip())


@given(st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.builds(lambda a, b, c: f"{a}{b}/0{c}", _SPACE, st.integers(), _SPACE),
))
def test_non_rationals_raise_input_error(value):
    with pytest.raises(InputError):
        parse_rational(value)


_DECIMAL_SPELLING = re.compile(
    r"[-+]?(?P<whole>[\d_]*)(?:\.(?P<decimal>[\d_]*))?"
    r"(?:[eE](?P<exp>[-+]?[\d_]+))?"
)


def _expands_past_the_digit_limit(text):
    """Whether *text* is a decimal or exponent spelling from which
    ``Fraction`` would build a numerator (the mantissa's digits and a
    positive exponent's zeros) or a denominator (ten to the decimal
    places less a negative exponent) of more digits than ``int``-string
    conversion allows, a number it can take minutes to build."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    match = _DECIMAL_SPELLING.fullmatch(text.strip())
    if not limit or match is None:
        return False
    try:
        exp = int(match["exp"] or 0)
    except ValueError:  # a malformed exponent, refused by Fraction too
        return False
    whole, places = (
        len((match[name] or "").replace("_", ""))
        for name in ("whole", "decimal")
    )
    return max(whole + places + exp, places - exp + 1) > limit


def _parses_as_fraction_does(text):
    """``parse_rational(text)`` is ``Fraction(text.strip())``, and raises
    ``InputError`` exactly where that raises or where that would expand
    past the digit limit."""
    if _expands_past_the_digit_limit(text):
        with pytest.raises(InputError):
            parse_rational(text)
        return
    try:
        want = F(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError):
            parse_rational(text)
    else:
        got = parse_rational(text)
        assert type(got) is F and got == want


@given(st.text(
    # signs, ASCII digits, non-ASCII digits (Arabic-Indic three, fullwidth
    # seven, superscript two), "/", ".", "e", "_" and whitespace
    alphabet=st.sampled_from(list("-+0123456789٣７²/.eE_ \t\n")),
    max_size=12,
))
def test_drawn_strings_parse_as_fraction_does(text):
    _parses_as_fraction_does(text)


@pytest.mark.parametrize("text", [
    "3/", "1/0", "-", "1/-2", "+1/2", "-0/5", "007/010", "1/2/3", "/2",
    "--1", " -3/4", "٣/٤",
])
def test_spellings_parse_as_fraction_does(text):
    _parses_as_fraction_does(text)


def test_over_long_digit_strings_parse_as_fraction_does():
    # past int's default digit limit where there is one, so int must
    # raise inside parse_rational's try
    digits = "1" * 5000
    for text in (digits, "-" + digits, digits + "/3", "3/" + digits):
        _parses_as_fraction_does(text)


@pytest.mark.parametrize("text, refused", [
    ("1e4299", False), ("1e4300", True), ("-1E+4300", True),
    ("1e-4299", False), ("1e-4300", True), ("0.5e-4299", True),
    ("1e-3000000", True), ("1e-99999999", True), (" 1e9999999999 ", True),
    ("0e99999999", True), ("10e4298", False), ("1_0e4299", True),
    ("1" * 4299 + ".5", False), ("1" * 4300 + ".5", True),
    ("0." + "0" * 4298 + "1", False), ("0." + "0" * 4299 + "1", True),
])
def test_decimal_and_exponent_spellings_are_held_to_the_digit_limit(
    default_digit_limit, text, refused
):
    """A decimal or exponent spelling whose numerator or denominator
    would have more digits than the limit is refused before it is
    expanded (``"1e-99999999"`` would take minutes), and one at the limit
    parses as ``Fraction`` parses it."""
    if refused:
        with pytest.raises(InputError, match="expands past 4300 digits"):
            parse_rational(text)
        assert _expands_past_the_digit_limit(text)
    else:
        assert parse_rational(text) == F(text.strip())


def test_formatters_refuse_values_past_the_digit_limit(default_digit_limit):
    """A value with a numerator or denominator of more than 4300 digits
    is refused with ``CapExceededError`` naming its digit counts, by each
    formatter; one of 4300 digits still prints."""
    assert format_rational(F(1, 10**4299)) == "1/1" + "0" * 4299
    assert _format_ratio(10**4300, 10**4300) == "1"
    assert decimal_approx(F(1, 10**4300)) == "0.000000000000"
    refusals = [
        (lambda: format_rational(F(1, 10**4300)), 1, 4301),
        (lambda: format_rational(-(10**4300)), 4301, 1),
        (lambda: _format_ratio(7, 7 * 10**4300), 1, 4301),
        (lambda: _format_ratio(10**4300 + 1, 2), 4301, 1),
        (lambda: decimal_approx(F(10**4288)), 4301, 13),
    ]
    for call, num, den in refusals:
        with pytest.raises(CapExceededError) as info:
            call()
        assert str(info.value) == (
            f"cannot print a fraction of {num} digits over {den} digits: "
            "past the limit of 4300 digits for int-string conversion"
        )
