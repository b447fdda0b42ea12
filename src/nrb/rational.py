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
split and read by ``int``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError

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
            # spelling goes to Fraction's own parser.  A zero denominator
            # or an over-long digit string raises here either way.
            num, slash, den = value.partition("/")
            digits = num[1:] if num[:1] == "-" else num
            if value.isascii() and digits.isdigit():
                if not slash:
                    return Fraction(int(num))
                if den.isdigit():
                    return Fraction(int(num), int(den))
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse {value!r} as a rational") from exc
    raise InputError(
        f"expected int, Fraction, or string, got {type(value).__name__}"
    )


def format_rational(value: Fraction) -> str:
    """Render as ``"a/b"`` (or ``"a"`` for integers), lowest terms."""
    if type(value) is Fraction:
        return str(value)
    return str(Fraction(value))


def decimal_approx(value: Fraction, places: int = 12) -> str:
    """Decimal rendering rounded to *places* digits.

    Convenience only; the result is approximate whenever the denominator
    has prime factors other than 2 and 5.  Rounding is round-half-even,
    computed exactly.
    """
    q = Fraction(value)
    scaled = round(q * 10**places)  # exact: Fraction.__round__ is integer
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
