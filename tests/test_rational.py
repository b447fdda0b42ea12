from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nrb import InputError, decimal_approx, format_rational, parse_rational


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


def _parses_as_fraction_does(text):
    """``parse_rational(text)`` is ``Fraction(text.strip())``, and raises
    ``InputError`` exactly where that raises."""
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
