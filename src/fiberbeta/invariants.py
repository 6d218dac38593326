"""Lower-bound invariants: beta, (U_D . K), and semipositivity certificates.

beta_D = ((1-g)/g) (2V_D + U_D)^2 + 2 (K . U_D) for a degree-1 divisor D.
On reduced fibers beta is independent of D and has the closed form

    (4(g-1)/(g r)) Tr(M+) + ((g-1)/g) sum_ij n_ii n_jj m_ij
    + (2(g-1)/g) sum_i a_i n_ii - (1/g) sum_ij a_i a_j n_ij,

which beta_closed evaluates with no divisor input.  The closed forms are
proved only for reduced fibers, so they hard-fail on non-reduced input
instead of extrapolating; the direct path works everywhere.  All
comparisons are exact rational equalities; there is no epsilon anywhere
in the production path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

from .divisors import (
    VerticalDivisor,
    _check_factor,
    _component_pairings,
    _degree_form,
    _same_fiber,
    gamma_u,
    pair_vertical,
    solve_vertical,
)
from .errors import DegreeMismatch, NotReduced
from .fiber import HorizontalIncidence, SpecialFiber
from .linalg import PseudoinverseResult, effective_resistance
from .rationals import Rat, ZERO, rat


@dataclass(frozen=True)
class BetaReport:
    """beta for one fiber, with the intermediates that produced it."""

    fiber_name: str
    divisor_id: Optional[str]
    path: str  # "direct" or "closed_form"
    beta: Rat
    v_squared: Optional[Rat] = None  # V_D^2
    shifted_square: Optional[Rat] = None  # (2V_D + U_D)^2
    k_dot_u: Optional[Rat] = None  # (K . U_D)
    gamma: Optional[tuple] = None


@dataclass(frozen=True)
class SemipositivityCertificate:
    """Per-component q_i = a_i + 2 (D . Gamma_i) - (U_D . Gamma_i).

    verdict is True iff every q_i >= 0; a False verdict is a legal,
    descriptive outcome, not an error.  On reduced fibers the
    divisor-free form m_ii + 2 p_a - 2 + sum_j n_jj m_ij + 2/r and the
    resistance margins m_ii + sum_j r(i,j) m_ij are also reported.
    """

    fiber_name: str
    divisor_id: str
    values: tuple
    verdict: bool
    divisor_free_values: Optional[tuple] = None
    resistance_margins: Optional[tuple] = None


def k_dot(fiber: SpecialFiber, V: VerticalDivisor) -> Rat:
    """(K . V) = sum_i y_i a_i by adjunction."""
    _same_fiber(V.fiber, fiber)
    a = fiber.canonical_degrees
    return sum((y * a[i] for i, y in enumerate(V.coefficients) if y != 0), ZERO)


def beta_direct(
    fiber: SpecialFiber, P: PseudoinverseResult, D: HorizontalIncidence
) -> BetaReport:
    """beta_D from the definition; works on reduced and non-reduced fibers."""
    if D.degree != 1:
        raise DegreeMismatch(f"beta needs a degree-1 divisor, got degree {D.degree}")
    vd = solve_vertical(fiber, P, D)
    gv = gamma_u(fiber, P, D)
    shifted = VerticalDivisor(
        fiber,
        tuple(2 * a + g for a, g in zip(vd.coefficients, gv.gamma)),
    )
    shifted_sq = pair_vertical(shifted, shifted)
    kdu = k_dot(fiber, gv.u_divisor)
    g = fiber.genus
    beta = rat(1 - g, g) * shifted_sq + 2 * kdu
    return BetaReport(
        fiber_name=fiber.name,
        divisor_id=D.id,
        path="direct",
        beta=beta,
        v_squared=pair_vertical(vd, vd),
        shifted_square=shifted_sq,
        k_dot_u=kdu,
        gamma=gv.gamma,
    )


def beta_closed(fiber: SpecialFiber, P: PseudoinverseResult) -> BetaReport:
    """Divisor-free beta via the four-term closed formula (reduced fibers only)."""
    _check_factor(fiber, P)
    if not fiber.is_reduced:
        raise NotReduced(
            f"closed beta formula needs a reduced fiber; {fiber.name!r} is not"
        )
    g, n = fiber.genus, fiber.r
    diag = P.diag()
    a = fiber.canonical_degrees
    # sum_ij n_ii n_jj m_ij = diag' M diag through the sparse rows of M
    quad_mm = sum(map(operator.mul, diag, P.M.matvec(diag)), ZERO)
    mpa = P.solve(a)
    quad_aa = sum((a[i] * mpa[i] for i in range(n)), ZERO)
    lin = sum((a[i] * diag[i] for i in range(n)), ZERO)
    beta = (
        rat(4 * (g - 1), g * n) * P.trace
        + rat(g - 1, g) * quad_mm
        + rat(2 * (g - 1), g) * lin
        - rat(1, g) * quad_aa
    )
    return BetaReport(
        fiber_name=fiber.name, divisor_id=None, path="closed_form", beta=beta
    )


def u_dot_k_closed(fiber: SpecialFiber, P: PseudoinverseResult) -> Rat:
    """(U_D . K) = -sum_i V_i^2 a_i on reduced fibers (independent of D).

    V_i^2 = -(q - e_i)' M+ (q - e_i) with q = b * a', so only one
    matrix-vector product is needed.
    """
    _check_factor(fiber, P)
    if not fiber.is_reduced:
        raise NotReduced(
            f"(U.K) closed form needs a reduced fiber; {fiber.name!r} is not"
        )
    z, sigma = _degree_form(fiber, P)
    a = fiber.canonical_degrees
    diag = P.diag()
    total = ZERO
    for i in range(fiber.r):
        vi_sq = -(sigma - 2 * z[i] + diag[i])
        total -= vi_sq * a[i]
    return total


def semipositivity_certificate(
    fiber: SpecialFiber, P: PseudoinverseResult, D: HorizontalIncidence
) -> SemipositivityCertificate:
    """Certify a_i + 2 (D . Gamma_i) - (U_D . Gamma_i) >= 0 per component."""
    if D.degree != 1:
        raise DegreeMismatch(
            f"semipositivity certificate needs degree 1, got {D.degree}"
        )
    v = D.vector(fiber)
    gv = gamma_u(fiber, P, D)
    u_dot = _component_pairings(fiber, gv.u_divisor.coefficients)
    a = fiber.canonical_degrees
    b = fiber.multiplicities
    values = tuple(
        a[i] + 2 * v[i] / rat(b[i]) - u_dot[i] for i in range(fiber.r)
    )
    d_free = None
    margins = None
    if fiber.is_reduced:
        n = fiber.r
        md = P.M.matvec(P.diag())
        d_free_list = []
        margin_list = []
        for i, row in enumerate(P.M.sparse_rows):
            m_ii = row.get(i, ZERO)
            d_free_list.append(m_ii + 2 * fiber.components[i].genus - 2 + md[i] + rat(2, n))
            # m_ii + sum_j r(i,j) m_ij over the dual-graph edges
            margin_list.append(
                m_ii
                + sum((effective_resistance(P, i, j) * m for j, m in row.items() if j != i), ZERO)
            )
        d_free = tuple(d_free_list)
        margins = tuple(margin_list)
    return SemipositivityCertificate(
        fiber_name=fiber.name,
        divisor_id=D.id,
        values=values,
        verdict=all(x >= 0 for x in values),
        divisor_free_values=d_free,
        resistance_margins=margins,
    )
