"""Formal sums of prime logarithms and multi-place aggregation.

The global lower bound has the shape sum_p q_p log p with exact rational
coefficients q_p, so it is carried symbolically as a FormalLogSum and
only rendered to decimal on demand.  Rendering is correctly rounded: the
working precision is raised until the digit string stabilizes, which
terminates because a nonzero rational combination of prime logarithms is
irrational and therefore never sits on a rounding boundary.

Aggregation weights each place's local beta by its residue weight f_v,
so the contribution is f_v * beta_v * log p_v.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import mpmath

from .errors import MalformedInput, NotReduced
from .fiber import HorizontalIncidence, SpecialFiber, validate
from .invariants import beta_closed, beta_direct
from .linalg import build_laplacian, pseudoinverse
from .rationals import Rat, ZERO, _int_text, format_rat, rat


#: Miller-Rabin with the first 13 primes as bases decides primality
#: exactly below this bound (Sorenson-Webster 2017).
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: Most decimal places `evaluate` renders, an input limit like PRIME_BOUND.
#: Rendering 188/125 log 5 took 0.05 s at 4300 places, 0.18 s at 10 000 and
#: 0.71 s at 20 000 (one Intel Xeon core); the cost grows faster than linearly.
MAX_DIGITS = 10**4
#: Most terms a log-sum document may have.  100 terms (1/3) log p, p just
#: above 10^12, took 12.0 s at MAX_DIGITS places (one Intel Xeon core).
MAX_TERMS = 100


def is_prime(n: int) -> bool:
    """Exact primality of an integer n < PRIME_BOUND; MalformedInput past it."""
    if n >= PRIME_BOUND:
        raise MalformedInput(f"primality of {n} is not decided exactly past {PRIME_BOUND}")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FormalLogSum:
    """sum_p terms[p] * log(p) over primes p; zero coefficients are never stored.

    Keys must be primes, so that two sums are equal exactly when their
    values are: {4: 1, 2: -2} would be two nonzero terms worth 0.
    """

    terms: tuple  # sorted (prime, coefficient) pairs

    def __init__(self, terms=()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = [tuple(t) for t in terms]
        merged = {}
        for p, c in items:
            if not (isinstance(p, int) and is_prime(p)):
                raise MalformedInput(f"log-sum key must be an integer prime, got {p!r}")
            merged[p] = merged.get(p, ZERO) + rat(c)
        object.__setattr__(
            self,
            "terms",
            tuple((p, merged[p]) for p in sorted(merged) if merged[p] != 0),
        )

    def __add__(self, other: "FormalLogSum") -> "FormalLogSum":
        return FormalLogSum(self.terms + other.terms)

    def coefficient(self, p: int) -> Rat:
        return dict(self.terms).get(p, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def to_mpf(self):
        """The sum's value at mpmath's working precision."""
        total = mpmath.mpf(0)
        for p, c in self.terms:
            total += mpmath.mpf(int(c.numerator)) * mpmath.log(p) / int(c.denominator)
        return total

    def integer_digits(self) -> int:
        """Decimal digits of a bound on |value|: sum |q_p| bitlength(p) > sum |q_p| log p."""
        bound = sum(
            abs(int(c.numerator)) * p.bit_length() // int(c.denominator) + 1 for p, c in self.terms
        )
        return len(_int_text(bound))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{format_rat(c)}*log({p})" for p, c in self.terms)


def rounded_decimal(value, digits: int, integer_digits: int = 0) -> str:
    """`digits` correctly rounded places of value(), an mpmath expression
    that is re-evaluated at a higher working precision until they settle.
    `integer_digits` bounds the length of the value's integer part, so the
    first working precision already covers it."""
    rounded = None
    dps = digits + integer_digits + 25
    while True:
        with mpmath.workdps(dps):
            candidate = int(mpmath.nint(value() * mpmath.power(10, digits)))
        if candidate == rounded:
            sign = "-" if candidate < 0 else ""
            body = _int_text(abs(candidate)).rjust(digits + 1, "0")
            return f"{sign}{body[:-digits]}.{body[-digits:]}"
        rounded = candidate
        dps += 25


def evaluate(logsum: FormalLogSum, digits: int) -> str:
    """Decimal rendering of the sum with `digits` correctly rounded places,
    1 <= digits <= MAX_DIGITS."""
    if not (isinstance(digits, int) and digits >= 1):
        raise MalformedInput(f"digits must be an integer >= 1, got {digits!r}")
    if digits > MAX_DIGITS:
        raise MalformedInput(f"digits past {MAX_DIGITS} are not rendered, got {digits}")
    if logsum.is_zero():
        return "0"
    return rounded_decimal(logsum.to_mpf, digits, logsum.integer_digits())


@dataclass(frozen=True)
class Place:
    """One non-archimedean place: residue data plus its special fiber.

    residue_degree f makes the place weight n_v = f * log(residue_prime);
    a model may aggregate several places with the same fiber into one
    entry by summing their residue degrees.  `divisor` picks the
    degree-1 horizontal divisor used for beta on non-reduced fibers;
    reduced fibers need none (beta is divisor-independent there).
    """

    place_id: str
    residue_prime: int
    residue_degree: int
    fiber: SpecialFiber
    divisor: Optional[HorizontalIncidence] = None

    def __post_init__(self):
        if not (isinstance(self.residue_prime, int) and self.residue_prime >= 2):
            raise MalformedInput(f"{self.place_id}: residue prime must be >= 2")
        if not (isinstance(self.residue_degree, int) and self.residue_degree >= 1):
            raise MalformedInput(f"{self.place_id}: residue degree must be >= 1")


@dataclass(frozen=True)
class GlobalModel:
    """A named collection of places whose fibers share one genus."""

    name: str
    places: tuple

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places))
        genera = {place.fiber.genus for place in self.places}
        if len(genera) > 1:
            raise MalformedInput(
                f"model {self.name!r} mixes genera {sorted(genera)}"
            )


def global_beta(model: GlobalModel) -> FormalLogSum:
    """sum_v f_v * beta_v attached to log p_v.

    Irreducible fibers contribute 0 and produce no term.  Non-reduced
    fibers require the place to carry a chosen degree-1 divisor.
    """
    terms: dict = {}
    for place in model.places:
        fiber = place.fiber
        report = validate(fiber)
        if not report.ok:
            raise MalformedInput(
                f"place {place.place_id}: fiber failed validation: "
                + "; ".join(c.name for c in report.failures())
            )
        P = pseudoinverse(build_laplacian(fiber))
        if place.divisor is not None:
            beta = beta_direct(fiber, P, place.divisor).beta
        elif fiber.is_reduced:
            beta = beta_closed(fiber, P).beta
        else:
            raise NotReduced(
                f"place {place.place_id}: non-reduced fiber needs a chosen divisor"
            )
        contribution = place.residue_degree * beta
        if contribution != 0:
            p = place.residue_prime
            terms[p] = terms.get(p, ZERO) + contribution
    return FormalLogSum(terms)
