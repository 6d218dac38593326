"""Vertical divisors attached to horizontal incidence data.

For a horizontal Q-divisor D of degree d, the vertical correction V_D is
the divisor sum_i b_i c_i Gamma_i with c = -M+ w and
w_i = d b_i a'_i - v_i(D); it is the unique solution (up to rational
multiples of the whole fiber) of (D + V_D . Gamma_i) = d a'_i for all i.
The canonical representative used everywhere is the M+ image itself; no
fiber-multiple normalization is applied, and every quantity a caller can
observe downstream is invariant under such shifts where it should be.

The coefficients of the companion divisor U_D are
gamma_i = (1/d)(V_D^2 - (V_D - d V_i)^2) with V_i the correction of the
degree-1 incidence e_i.  Expanding the square gives
gamma_i = 2 (V_D . V_i) - d V_i^2, and writing both pairings as quadratic
forms in M+ collapses the whole vector to two matrix-vector products:

    gamma_i = -d (q' M+ q) + 2 (v' M+ q) - 2 (M+ v)_i + d n_ii,   q = b * a'.

`gamma_u` uses that closed route; `gamma_by_definition` keeps the literal
one-solve-per-component formula so audits can confront the two.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import DegreeMismatch, FiberMismatch, MalformedInput, NonpositiveDegree
from .fiber import HorizontalIncidence, SpecialFiber, unit_incidence
from .linalg import PseudoinverseResult, _integer_matvec
from .rationals import Rat, ZERO, _integer_vector, rat


@dataclass(frozen=True)
class VerticalDivisor:
    """A vertical Q-divisor sum_i coefficients[i] * Gamma_i."""

    fiber: SpecialFiber
    coefficients: tuple

    def __init__(self, fiber, coefficients):
        object.__setattr__(self, "fiber", fiber)
        coeffs = tuple(rat(c) for c in coefficients)
        if len(coeffs) != fiber.r:
            raise MalformedInput("coefficient count does not match fiber")
        object.__setattr__(self, "coefficients", coeffs)

    def shifted(self, q) -> "VerticalDivisor":
        """Add q times the full fiber (b_1, ..., b_r)."""
        qq = rat(q)
        return VerticalDivisor(
            self.fiber,
            tuple(c + qq * b for c, b in zip(self.coefficients, self.fiber.multiplicities)),
        )

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)


def full_fiber(fiber: SpecialFiber) -> VerticalDivisor:
    """The whole special fiber X_s = sum b_i Gamma_i as a vertical divisor."""
    return VerticalDivisor(fiber, tuple(rat(b) for b in fiber.multiplicities))


@dataclass(frozen=True)
class GammaVector:
    """Coefficients gamma_i and the assembled divisor U_D = sum gamma_i Gamma_i."""

    gamma: tuple
    u_divisor: VerticalDivisor


def _same_fiber(a: SpecialFiber, b: SpecialFiber) -> None:
    """FiberMismatch unless a and b are one fiber: O(1) when they are the
    same object, else compared by value."""
    if a is not b and a != b:
        raise FiberMismatch(f"operands live on {getattr(a, 'name', None)!r} and {b.name!r}")


def _check_factor(fiber: SpecialFiber, P: PseudoinverseResult) -> None:
    """FiberMismatch unless P factors the M that build_laplacian made from fiber."""
    _same_fiber(P.M.fiber, fiber)


def _integer_pairings(fiber: SpecialFiber, y) -> tuple:
    """(S, d) with (V . Gamma_i) = S_i / d for V = sum y_j Gamma_j, over integers."""
    rows, s = fiber.integer_pairing_rows
    Y, dy = _integer_vector(y)
    return _integer_matvec(rows, Y), s * dy


def _component_pairings(fiber: SpecialFiber, y) -> list:
    """(V . Gamma_i) for V = sum y_j Gamma_j, all i at once."""
    S, d = _integer_pairings(fiber, y)
    return [rat(x, d) for x in S]


def _incidence_vector(fiber: SpecialFiber, D: HorizontalIncidence) -> list:
    """D's incidence entries in fiber order, checked to sum to deg(D)."""
    v = D.vector(fiber)
    total = sum(v, ZERO)
    if total != D.degree:
        raise DegreeMismatch(
            f"incidence of {D.id!r} sums to {total}, declared degree {D.degree}"
        )
    return v


def _degree_form(fiber: SpecialFiber, P: PseudoinverseResult) -> tuple:
    """(z, sigma) with z = M+ q and sigma = q' M+ q for q = b * a'."""
    Q, s = fiber.integer_degree_weights
    Y, dy = P.solve_integers(Q, s)
    return [rat(y, dy) for y in Y], rat(sum(map(operator.mul, Q, Y)), s * dy)


def solve_vertical(
    fiber: SpecialFiber, P: PseudoinverseResult, D: HorizontalIncidence
) -> VerticalDivisor:
    """Canonical V_D with (D + V_D . Gamma_i) = deg(D) a'_i for every i.

    Raises DegreeMismatch when the incidence entries do not sum to the
    declared degree; the defining system is unsolvable in that case.
    The defining equations are re-checked before returning (`_defining_defect`).
    """
    _check_factor(fiber, P)
    V, dv = _integer_vector(_incidence_vector(fiber, D))
    Q, s = fiber.integer_degree_weights
    dn, dd = D.degree.numerator, D.degree.denominator
    # w = d q - v = W / (dd s dv), and c = -M+ w = -Y / dy
    W = [dn * dv * q - dd * s * x for q, x in zip(Q, V)]
    Y, dy = P.solve_integers(W, dd * s * dv)
    b = fiber.multiplicities
    divisor = VerticalDivisor(fiber, tuple(rat(-b[i] * Y[i], dy) for i in range(fiber.r)))
    if (i := _defining_defect(fiber, D, divisor.coefficients)) is not None:
        raise AssertionError(f"solve_vertical postcondition failed at {fiber.ids[i]}")
    return divisor


def _defining_defect(fiber: SpecialFiber, D: HorizontalIncidence, y):
    """The first i with (D + V . Gamma_i) != deg(D) a'_i for V = sum y_j Gamma_j,
    or None: V_D's defining equations, over integers on the fiber's data."""
    V, dv = _integer_vector(D.vector(fiber))
    S, ds = _integer_pairings(fiber, y)
    A, da = _integer_vector(fiber.normalized_degrees)
    dn, dd = D.degree.numerator, D.degree.denominator
    b = fiber.multiplicities
    # S / ds + V / (dv b) = (dn / dd) A / da, times ds dv dd da b
    ks, kv, ka = dv * dd * da, ds * dd * da, ds * dv * dn
    bad = (i for i in range(fiber.r) if b[i] * (ks * S[i] - ka * A[i]) + kv * V[i])
    return next(bad, None)


def phi(fiber: SpecialFiber, P: PseudoinverseResult, Z: HorizontalIncidence) -> VerticalDivisor:
    """Degree-zero specialization: (Z + phi(Z) . Gamma_i) = 0 for all i."""
    if Z.degree != 0:
        raise DegreeMismatch(f"phi needs a degree-0 incidence, got degree {Z.degree}")
    return solve_vertical(fiber, P, Z)


def pair_vertical(V: VerticalDivisor, W: VerticalDivisor) -> Rat:
    """Intersection pairing of two vertical divisors on the same fiber."""
    _same_fiber(V.fiber, W.fiber)
    S, d = _integer_pairings(W.fiber, W.coefficients)
    Y, dy = _integer_vector(V.coefficients)
    return rat(sum([y * x for y, x in zip(Y, S) if y]), d * dy)


def pair_with_component(V: VerticalDivisor, i: int) -> Rat:
    """(V . Gamma_i) for a single component index."""
    return _component_pairings(V.fiber, V.coefficients)[i]


def horizontal_dot_vertical(E: HorizontalIncidence, V: VerticalDivisor) -> Rat:
    """(E . V) = sum_i y_i v_i(E) / b_i."""
    fiber = V.fiber
    v = E.vector(fiber)
    b = fiber.multiplicities
    return sum(
        (V.coefficients[i] * v[i] / rat(b[i]) for i in range(fiber.r) if v[i] != 0),
        ZERO,
    )


def gamma_u(
    fiber: SpecialFiber, P: PseudoinverseResult, D: HorizontalIncidence
) -> GammaVector:
    """gamma_i = (1/d)(V_D^2 - (V_D - d V_i)^2) for positive degree d.

    Computed through the expanded quadratic forms in M+ (two
    matrix-vector products for the whole vector); the literal definition
    is available as gamma_by_definition and agrees exactly.
    """
    _check_factor(fiber, P)
    if D.degree <= 0:
        raise NonpositiveDegree(f"gamma_u needs positive degree, got {D.degree}")
    v = _incidence_vector(fiber, D)
    d = D.degree
    z, sigma = _degree_form(fiber, P)
    v_dot_z = sum((v[i] * z[i] for i in range(fiber.r) if v[i] != 0), ZERO)
    mv = P.solve(v)
    diag = P.diag()
    base = -d * sigma + 2 * v_dot_z
    gamma = tuple(base - 2 * mv[i] + d * diag[i] for i in range(fiber.r))
    return GammaVector(gamma=gamma, u_divisor=VerticalDivisor(fiber, gamma))


def gamma_by_definition(
    fiber: SpecialFiber, P: PseudoinverseResult, D: HorizontalIncidence
) -> GammaVector:
    """Reference path: solve V_i per component and apply the definition."""
    if D.degree <= 0:
        raise NonpositiveDegree(f"gamma needs positive degree, got {D.degree}")
    vd = solve_vertical(fiber, P, D)
    vd_sq = pair_vertical(vd, vd)
    d = D.degree
    gamma = []
    for i in range(fiber.r):
        vi = solve_vertical(fiber, P, unit_incidence(fiber, fiber.ids[i]))
        diff = VerticalDivisor(
            fiber,
            tuple(a - d * c for a, c in zip(vd.coefficients, vi.coefficients)),
        )
        gamma.append((vd_sq - pair_vertical(diff, diff)) / d)
    gamma = tuple(gamma)
    return GammaVector(gamma=gamma, u_divisor=VerticalDivisor(fiber, gamma))


def u_dot_component_closed(
    fiber: SpecialFiber, P: PseudoinverseResult, D: HorizontalIncidence, i: int
) -> Rat:
    """Closed form -sum_j n_jj m_ij + 2 v_i(D) - 2/r for degree-1 D.

    On reduced fibers this equals (U_D . Gamma_i) exactly; on non-reduced
    fibers the two can genuinely diverge, so callers compare the closed
    value against pair_with_component(U_D, i) and report rather than
    assert (the audit suites do exactly that).
    """
    _check_factor(fiber, P)
    if D.degree != 1:
        raise DegreeMismatch(f"closed form needs degree 1, got {D.degree}")
    v = D.vector(fiber)
    diag = P.diag()
    s = -sum((m * diag[j] for j, m in P.M.sparse_rows[i].items()), ZERO)
    return s + 2 * v[i] - rat(2, fiber.r)


def neron_pairing(
    fiber: SpecialFiber,
    P: PseudoinverseResult,
    E1: HorizontalIncidence,
    E2: HorizontalIncidence,
    horizontal_part: Rat,
) -> Rat:
    """[E1, E2] = (E1 + V_E1 . E2 + V_E2) with the horizontal term supplied.

    The horizontal-horizontal intersection (E1 . E2) depends on point data
    this model deliberately omits, so the caller provides it.  The
    vertical corrections use the canonical M+ representatives; for
    degree-zero divisors the value is invariant under fiber-multiple
    shifts of either correction.
    """
    v1 = solve_vertical(fiber, P, E1)
    v2 = solve_vertical(fiber, P, E2)
    return (
        rat(horizontal_part)
        + horizontal_dot_vertical(E1, v2)
        + horizontal_dot_vertical(E2, v1)
        + pair_vertical(v1, v2)
    )
