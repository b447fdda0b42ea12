"""Exact rational scalars.

Every quantity in this package is a :class:`fractions.Fraction`.  Floats
are rejected at the boundary instead of being silently converted, since a
float that looks like 0.4 is not the rational 2/5.  Accepted spellings:

* ``Fraction`` instances and plain ``int``,
* strings ``"a/b"``, ``"a"``, or a finite decimal such as ``"0.4"``
  (parsed exactly, so ``"0.4"`` becomes 2/5).

A string is parsed exactly as ``Fraction(s.strip())`` parses it, or
refused where that raises.  The common spelling, plain ASCII
``[-]digits[/digits]``, skips ``Fraction``'s regular expression and is
split and read by ``int``, which refuses a digit string longer than the
interpreter's limit for ``int``-string conversion (4300 digits by
default).  A decimal or exponent spelling is held to the same limit
before ``Fraction`` expands it: its numerator, as written with the
exponent's zeros, or its denominator, a power of ten, may not have more
digits than that.  So ``"1e-99999999"`` is refused at once instead of
building a hundred-million-digit power of ten.

The same limit holds on the way out.  A value whose numerator or
denominator ``str()`` cannot print is refused by the formatters with
``CapExceededError`` (exit 3 on the command line), which names its
digit counts instead of the value.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import CapExceededError, InputError

__all__ = ["parse_rational", "format_rational", "decimal_approx"]


def parse_rational(value: object) -> Fraction:
    """Convert *value* to an exact Fraction, rejecting floats and bools."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise InputError(f"expected a rational number, got bool {value!r}")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            # A plain ASCII "[-]digits[/digits]" is read by int; any other
            # spelling goes to Fraction's own parser, a decimal or exponent
            # one only once its expansion is known to fit int's digit
            # limit.  A zero denominator or an over-long digit string
            # raises here either way.
            num, slash, den = value.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if value.isascii() and digits.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit():
                    return Fraction(int(num), int(den))
            text = value.strip()
            # 0 where the limit is lifted or the interpreter has none
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if not slash and limit and _expanded_digits(text) > limit:
                raise InputError(
                    f"cannot parse {value!r} as a rational: it expands past "
                    f"{limit} digits"
                )
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse {value!r} as a rational") from exc
    raise InputError(
        f"expected int, Fraction, or string, got {type(value).__name__}"
    )


def _expanded_digits(text: str) -> int:
    """The digits of the larger of the numerator and the denominator that
    ``Fraction`` builds from a decimal or exponent spelling, before it
    reduces them: the mantissa's digits followed by a positive exponent's
    zeros, or ten to the power of the decimal places less a negative
    exponent.  Counted from the text, after reading the exponent with
    ``int``; a malformed spelling counts as whatever its parts give, and
    ``Fraction`` refuses it either way."""
    mantissa, _, exponent = text.replace("E", "e").partition("e")
    whole, _, decimal = mantissa.partition(".")
    exp = int(exponent) if exponent else 0
    places = len(decimal.replace("_", ""))
    numerator = len(whole.lstrip("+-").replace("_", "")) + places + max(exp, 0)
    return max(numerator, 1 + places + max(-exp, 0))


def _digits(value: int) -> int:
    """Decimal digits of ``abs(value)``, 1 for 0, without ``str()``."""
    value = abs(value)
    # bit_length * log10(2) rounded down, less one, never exceeds the count
    count = max(int(value.bit_length() * 0.30102999566398120) - 1, 1)
    while value >= 10**count:
        count += 1
    return count


def _sized(num: int, den: int) -> str:
    """The fraction ``num/den`` named by its digit counts."""
    return f"a fraction of {_digits(num)} digits over {_digits(den)} digits"


def _quote(value: Fraction) -> str:
    """``str(value)`` for a message, or, where a numerator or denominator
    passes the interpreter's limit for ``int``-string conversion, which
    would make ``str()`` raise, the digit counts in place of the value."""
    try:
        return str(value)
    except ValueError:
        return _sized(value.numerator, value.denominator)


def _unprintable(num: int, den: int) -> CapExceededError:
    """The refusal to format ``num/den``, whose ``str()`` raised past the
    interpreter's limit for ``int``-string conversion."""
    return CapExceededError(
        f"cannot print {_sized(num, den)}: past the limit of "
        f"{sys.get_int_max_str_digits()} digits for int-string conversion"
    )


def format_rational(value: Fraction) -> str:
    """Render as ``"a/b"`` (or ``"a"`` for integers), lowest terms.
    Raises ``CapExceededError`` where ``str()`` would pass the digit
    limit."""
    q = value if type(value) is Fraction else Fraction(value)
    try:
        return str(q)
    except ValueError:
        raise _unprintable(q.numerator, q.denominator) from None


def _format_ratio(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for integers with
    ``den > 0``, without building the ``Fraction``."""
    g = math.gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:
        raise _unprintable(num // g, den // g) from None


def decimal_approx(value: Fraction, places: int = 12) -> str:
    """Decimal rendering rounded to *places* digits.

    Convenience only; the result is approximate whenever the denominator
    has prime factors other than 2 and 5.  Rounding is round-half-even,
    computed exactly.  Raises ``CapExceededError`` where the digits would
    pass the limit for ``int``-string conversion.
    """
    q = Fraction(value)
    scaled = round(q * 10**places)  # exact: Fraction.__round__ is integer
    sign = "-" if scaled < 0 else ""
    try:
        digits = str(abs(scaled)).rjust(places + 1, "0")
    except ValueError:
        raise _unprintable(scaled, 10**places) from None
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
