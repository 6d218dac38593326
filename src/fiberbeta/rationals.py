"""Exact rational scalars.

Every quantity in the production path is an exact rational; floats are
confined to test oracles and final report rendering.  Arithmetic is backed
by gmpy2.mpq when available (GMP-normalized fractions keep the 450-component
runs fast) and falls back to fractions.Fraction otherwise.  Both backends
are always stored in lowest terms with positive denominator and interoperate
freely, so callers only ever go through :func:`rat`.
"""

from __future__ import annotations

import math
import numbers
import re
from fractions import Fraction

from .errors import ExactnessError, MalformedInput, SchemaError

try:
    from gmpy2 import mpq as _mpq
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    _mpq = Fraction

#: Name of the module behind the arithmetic: "gmpy2" or "fractions".
BACKEND = _mpq.__module__

#: Type used in annotations; values satisfy numbers.Rational.
Rat = numbers.Rational

_RAT_RE = re.compile(r"^[+-]?\d+(/[+-]?\d+)?$")

ZERO = _mpq(0)
ONE = _mpq(1)

#: Integer types the backend's numerators come in: int, and mpz under gmpy2.
_INTS = (int, type(ONE.numerator))


def rat(value, denominator=None) -> Rat:
    """Build an exact rational from ints, rationals, or 'n/d' strings.

    Floats are rejected: silent binary-to-rational conversion is exactly
    the kind of precision leak this package exists to prevent.
    """
    if denominator is not None:
        if denominator == 0:
            raise MalformedInput("zero denominator")
        if type(value) in _INTS and type(denominator) in _INTS:
            return _mpq(value, denominator)
        return _mpq(rat(value)) / _mpq(rat(denominator))
    if type(value) is _mpq:
        return value  # already in lowest terms
    if isinstance(value, bool):
        raise MalformedInput("boolean is not a rational")
    if isinstance(value, numbers.Rational):
        return _mpq(value.numerator, value.denominator)
    if isinstance(value, float):
        raise ExactnessError(f"float literal {value!r} rejected; use 'n/d'")
    if isinstance(value, str):
        text = value.strip()
        if not _RAT_RE.match(text):
            raise ExactnessError(f"not an exact rational literal: {value!r}")
        num, _, den = text.partition("/")
        d = parse_int(den) if den else 1
        if d == 0:
            raise MalformedInput(f"zero denominator in {value!r}")
        return _mpq(parse_int(num), d)
    raise MalformedInput(f"cannot interpret {value!r} as a rational")


def _integer_vector(xs) -> tuple:
    """(X, d) with xs_i = X_i / d exactly: d is the lcm of the denominators.

    Works on either backend.  Exact checks multiply through by d and then
    run on plain integers, with no gcd per multiply-add.
    """
    d = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (d // x.denominator) for x in xs], d


def _integer_rows(rows) -> tuple:
    """(R, s) for sparse rows of (j, x_ij): R holds (j, s x_ij), all integers."""
    values, s = _integer_vector([x for row in rows for _, x in row])
    it = iter(values)
    return tuple(tuple((j, next(it)) for j, _ in row) for row in rows), s


def parse_int(text: str) -> int:
    """int(text), with Python's integer-string digit limit as a SchemaError.

    Also the parse_int hook for json.loads, so an oversized JSON integer
    fails as bad input instead of a bare ValueError.
    """
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"integer literal of {len(text)} characters is too long") from None


def _int_text(n: int) -> str:
    """str(n) without Python's int-to-string digit limit.

    Past the limit, n is split at about half its decimal digits and the
    halves are rendered recursively, so the text stays exact at any size.
    """
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half of log10(2) * bits
        high, low = divmod(abs(n), 10**k)
        return ("-" if n < 0 else "") + _int_text(high) + _int_text(low).zfill(k)


def format_rat(x: Rat) -> str:
    """Canonical text form: plain integer when the denominator is 1."""
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"
