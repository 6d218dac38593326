"""A test-only stand-in for gmpy2's `mpz` and `mpq`.

fiberbeta computes on gmpy2.mpq when `import gmpy2` succeeds.  With this
directory first on PYTHONPATH that import finds this module, so the gmpy2
path runs where gmpy2 is not installed.  As with the real types, `mpz`
and `mpq` are not subclasses of `int` or `Fraction`: they wrap Python
ints and are registered as `numbers.Integral` and `numbers.Rational`.
Only what the engine uses is here.  `mpz / mpz`, an inexact mpfr in
gmpy2, raises TypeError, and so does mixing in a float.

Keep this file out of `tests/` itself: pytest puts `tests/` on sys.path,
which would switch every test to the stand-in.
"""

from __future__ import annotations

import decimal
import math
import numbers
import operator
from fractions import Fraction


def _text(n: int) -> str:
    """str(n) at any size: gmpy2 has no int-to-string digit limit."""
    return str(decimal.Decimal(n))


def _int(x):
    """The int value of an int or mpz operand; None for anything else."""
    if type(x) is mpz:
        return x._v
    return x if isinstance(x, int) else None


def _ratio(x):
    """(numerator, denominator) ints of a rational operand; None otherwise."""
    if type(x) is mpq:
        return x._n, x._d
    if type(x) is mpz:
        return x._v, 1
    if isinstance(x, int):
        return x, 1
    if isinstance(x, numbers.Rational):
        return int(x.numerator), int(x.denominator)
    return None


class mpz:
    __slots__ = ("_v",)

    def __init__(self, value):
        self._v = operator.index(value)

    def _binary(op):
        def forward(a, b):
            b = _int(b)
            return NotImplemented if b is None else mpz(op(a._v, b))

        def reflected(a, b):
            b = _int(b)
            return NotImplemented if b is None else mpz(op(b, a._v))

        return forward, reflected

    __add__, __radd__ = _binary(operator.add)
    __sub__, __rsub__ = _binary(operator.sub)
    __mul__, __rmul__ = _binary(operator.mul)
    __floordiv__, __rfloordiv__ = _binary(operator.floordiv)
    del _binary

    def __truediv__(self, other):
        if type(other) is mpq:
            return NotImplemented
        raise TypeError("mpz / mpz is an inexact mpfr in gmpy2")

    __rtruediv__ = __truediv__

    def _compare(op):
        def compare(a, b):
            b = _int(b)
            return NotImplemented if b is None else op(a._v, b)

        return compare

    __eq__ = _compare(operator.eq)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)
    del _compare

    def __neg__(self):
        return mpz(-self._v)

    def __index__(self):
        return self._v

    __int__ = __index__

    def __hash__(self):
        return hash(self._v)

    def __bool__(self):
        return self._v != 0

    def bit_length(self):
        return self._v.bit_length()

    @property
    def numerator(self):
        return self

    @property
    def denominator(self):
        return mpz(1)

    def __str__(self):
        return _text(self._v)

    def __repr__(self):
        return f"mpz({self})"


class mpq:
    __slots__ = ("_n", "_d")

    def __init__(self, num, den=1):
        a, b = _ratio(num), _ratio(den)
        if a is None or b is None:
            raise TypeError(f"mpq() needs rational arguments, got {num!r}, {den!r}")
        self._set(a[0] * b[1], a[1] * b[0])

    def _set(self, n, d):
        if d == 0:
            raise ZeroDivisionError("mpq division by zero")
        if d < 0:
            n, d = -n, -d
        g = math.gcd(n, d)
        self._n, self._d = n // g, d // g
        return self

    def _binary(combine):
        def forward(a, b):
            b = _ratio(b)
            if b is None:
                return NotImplemented
            return mpq.__new__(mpq)._set(*combine(a._n, a._d, *b))

        def reflected(a, b):
            b = _ratio(b)
            if b is None:
                return NotImplemented
            return mpq.__new__(mpq)._set(*combine(*b, a._n, a._d))

        return forward, reflected

    __add__, __radd__ = _binary(lambda n, d, m, e: (n * e + m * d, d * e))
    __sub__, __rsub__ = _binary(lambda n, d, m, e: (n * e - m * d, d * e))
    __mul__, __rmul__ = _binary(lambda n, d, m, e: (n * m, d * e))
    __truediv__, __rtruediv__ = _binary(lambda n, d, m, e: (n * e, d * m))
    del _binary

    def _compare(op):
        def compare(a, b):
            b = _ratio(b)
            return NotImplemented if b is None else op(a._n * b[1], b[0] * a._d)

        return compare

    __eq__ = _compare(operator.eq)
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)
    del _compare

    def __neg__(self):
        return mpq.__new__(mpq)._set(-self._n, self._d)

    def __int__(self):
        return -(-self._n // self._d) if self._n < 0 else self._n // self._d

    def __float__(self):  # the tests' floating-point oracles
        return self._n / self._d

    def __hash__(self):
        return hash(Fraction(self._n, self._d))

    def __bool__(self):
        return self._n != 0

    @property
    def numerator(self):
        return mpz(self._n)

    @property
    def denominator(self):
        return mpz(self._d)

    def __str__(self):
        if self._d == 1:
            return _text(self._n)
        return f"{_text(self._n)}/{_text(self._d)}"

    def __repr__(self):
        return f"mpq({_text(self._n)},{_text(self._d)})"


numbers.Integral.register(mpz)
numbers.Rational.register(mpq)
