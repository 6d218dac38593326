"""Formal sums of prime logarithms and multi-place aggregation.

The global lower bound has the shape sum_p q_p log p with exact rational
coefficients q_p, so it is carried symbolically as a FormalLogSum and
only rendered to decimal on demand.  Rendering is correctly rounded: the
working precision is raised until the digit string stabilizes, which
terminates because a nonzero rational combination of prime logarithms is
irrational and therefore never sits on a rounding boundary.

Aggregation weights each place's local beta by its residue weight f_v
(so the contribution is f_v * beta_v * log p_v); the unweighted variant
is available through `weighted=False`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import mpmath

from .errors import MalformedInput, NotReduced
from .fiber import HorizontalIncidence, SpecialFiber, validate
from .invariants import beta_closed, beta_direct
from .linalg import build_laplacian, pseudoinverse
from .rationals import Rat, ZERO, format_rat, rat


#: Miller-Rabin with the first 13 primes as bases decides primality
#: exactly below this bound (Sorenson-Webster 2017).
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


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
        merged = dict(self.terms)
        for p, c in other.terms:
            merged[p] = merged.get(p, ZERO) + c
        return FormalLogSum(merged)

    def coefficient(self, p: int) -> Rat:
        return dict(self.terms).get(p, ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{format_rat(c)}*log({p})" for p, c in self.terms)


def _fixed_decimal(n: int, digits: int) -> str:
    sign = "-" if n < 0 else ""
    body = str(abs(n)).rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def evaluate(logsum: FormalLogSum, digits: int) -> str:
    """Decimal rendering of the sum with `digits` correctly rounded places."""
    if not (isinstance(digits, int) and digits >= 1):
        raise MalformedInput(f"digits must be an integer >= 1, got {digits!r}")
    if logsum.is_zero():
        return "0"
    rounded = None
    dps = digits + 25
    while True:
        with mpmath.workdps(dps):
            total = mpmath.mpf(0)
            for p, c in logsum.terms:
                total += mpmath.mpf(int(c.numerator)) * mpmath.log(p) / int(c.denominator)
            candidate = int(mpmath.nint(total * mpmath.power(10, digits)))
        if candidate == rounded:
            return _fixed_decimal(candidate, digits)
        rounded = candidate
        dps += 25


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


def global_beta(model: GlobalModel, weighted: bool = True) -> FormalLogSum:
    """sum_v f_v * beta_v attached to log p_v (f_v = 1 when weighted=False).

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
        weight = place.residue_degree if weighted else 1
        contribution = weight * beta
        if contribution != 0:
            p = place.residue_prime
            terms[p] = terms.get(p, ZERO) + contribution
    return FormalLogSum(terms)
