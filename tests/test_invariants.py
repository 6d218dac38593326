import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberbeta as fb
from fiberbeta import (
    DegreeMismatch,
    HorizontalIncidence,
    NotReduced,
    VerticalDivisor,
    rat,
)

from conftest import prepare
from oracles import random_fiber, random_horizontal, random_nonreduced_fiber


def sym_divisor(fiber):
    return HorizontalIncidence("Dsym", 1, {cid: rat(1, fiber.r) for cid in fiber.ids})


def test_k_dot_examples(banana111):
    f, P = banana111.fiber, banana111.P
    u = fb.gamma_u(f, P, sym_divisor(f)).u_divisor
    assert fb.k_dot(f, u) == rat(1, 2)
    assert fb.k_dot(f, VerticalDivisor(f, (0, 0))) == 0
    assert fb.k_dot(f, fb.full_fiber(f)) == 2 * f.genus - 2


def test_beta_direct_examples(banana111, single_component):
    s = single_component
    rep = fb.beta_direct(s.fiber, s.P, fb.unit_incidence(s.fiber, "G"))
    assert rep.beta == 0
    theta = prepare(fb.banana(3, 0, 0))
    rep = fb.beta_direct(theta.fiber, theta.P, sym_divisor(theta.fiber))
    assert rep.beta == rat(1, 3)
    # direct evaluation of the definition gives 1 here; the two-component
    # worked example's (s + 2 p_a - 2)/(2s) = 1/2 is flagged by the audits
    rep = fb.beta_direct(banana111.fiber, banana111.P, sym_divisor(banana111.fiber))
    assert rep.beta == 1
    assert rep.v_squared == 0
    assert rep.k_dot_u == rat(1, 2)
    assert rep.shifted_square == 0
    with pytest.raises(DegreeMismatch):
        fb.beta_direct(
            banana111.fiber,
            banana111.P,
            HorizontalIncidence("d2", 2, {"G1": 1, "G2": 1}),
        )


def test_beta_closed_examples(banana111, single_component, fermat72):
    cycle2 = prepare(fb.banana(2, 1, 0))
    assert fb.beta_closed(cycle2.fiber, cycle2.P).beta == rat(1, 4)
    assert fb.beta_closed(banana111.fiber, banana111.P).beta == 1
    assert fb.beta_closed(single_component.fiber, single_component.P).beta == 0
    with pytest.raises(NotReduced):
        fb.beta_closed(fermat72.fiber, fermat72.P)


def test_u_dot_k_closed_examples(banana111, single_component, fermat72):
    assert fb.u_dot_k_closed(banana111.fiber, banana111.P) == rat(1, 2)
    assert fb.u_dot_k_closed(single_component.fiber, single_component.P) == 0
    cycle2 = prepare(fb.banana(2, 1, 0))
    assert fb.u_dot_k_closed(cycle2.fiber, cycle2.P) == 0
    with pytest.raises(NotReduced):
        fb.u_dot_k_closed(fermat72.fiber, fermat72.P)


def test_u_dot_k_closed_matches_k_dot(battery):
    rng = random.Random(515)
    for prepared in battery:
        f, P = prepared.fiber, prepared.P
        if not f.is_reduced:
            continue
        closed = fb.u_dot_k_closed(f, P)
        for _ in range(3):
            D = random_horizontal(rng, f, degree=1)
            u = fb.gamma_u(f, P, D).u_divisor
            assert fb.k_dot(f, u) == closed, f.name


def test_beta_direct_divisor_independent_on_reduced(battery):
    rng = random.Random(31337)
    for prepared in battery:
        f, P = prepared.fiber, prepared.P
        if not f.is_reduced:
            continue
        closed = fb.beta_closed(f, P).beta
        for _ in range(3):
            D = random_horizontal(rng, f, degree=1)
            assert fb.beta_direct(f, P, D).beta == closed, f.name


def test_semipositivity_examples(banana111, fermat50):
    sx = fb.unit_incidence(fermat50.fiber, "x")
    cert = fb.semipositivity_certificate(fermat50.fiber, fermat50.P, sx)
    assert cert.verdict
    assert all(q > 0 for q in cert.values)
    f, P = banana111.fiber, banana111.P
    cert = fb.semipositivity_certificate(f, P, sym_divisor(f))
    assert cert.verdict
    assert cert.values == (rat(2), rat(2))  # a_i + 2 v_i - (U_D.Gamma_i) = 1 + 1 - 0
    assert cert.divisor_free_values == cert.values
    assert all(m >= 0 for m in cert.resistance_margins)
    with pytest.raises(DegreeMismatch):
        fb.semipositivity_certificate(
            f, P, HorizontalIncidence("d0", 0, {"G1": 1, "G2": -1})
        )


def test_semipositivity_false_verdict_is_legal():
    # a non-reduced configuration outside the audited set with a negative q
    prepared = prepare(fb.fermat_fiber(7, 1))
    cert = fb.semipositivity_certificate(
        prepared.fiber, prepared.P, fb.unit_incidence(prepared.fiber, "x")
    )
    assert not cert.verdict
    i = prepared.fiber.index["alpha1"]
    assert cert.values[i] == rat(-6, 49)


def test_semipositivity_divisor_free_matches_on_reduced(battery):
    rng = random.Random(777)
    for prepared in battery:
        f, P = prepared.fiber, prepared.P
        if not f.is_reduced:
            continue
        for _ in range(2):
            D = random_horizontal(rng, f, degree=1)
            cert = fb.semipositivity_certificate(f, P, D)
            assert cert.values == cert.divisor_free_values, f.name
            assert all(m >= 0 for m in cert.resistance_margins)


def test_beta_nonnegative_on_reduced_minimal(battery):
    for prepared in battery:
        f, P = prepared.fiber, prepared.P
        if not f.is_reduced:
            continue
        report = fb.validate(f)
        if not report.minimal:
            continue
        beta = fb.beta_closed(f, P).beta
        if f.r == 1:
            assert beta == 0
        else:
            assert beta > 0, f.name


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reduced=st.booleans())
def test_relabeling_permutes_vd_gamma_resistances_and_fixes_beta(seed, reduced):
    rng = random.Random(seed)
    fiber = random_fiber(rng) if reduced else random_nonreduced_fiber(rng)
    order = list(range(fiber.r))
    rng.shuffle(order)  # component k of the relabeled fiber is order[k]
    relabeled = fb.SpecialFiber(
        fiber.name, [fiber.components[i] for i in order], fiber.intersections, fiber.genus
    )
    D = random_horizontal(rng, fiber, 1)
    P = fb.pseudoinverse(fb.build_laplacian(fiber))
    Q = fb.pseudoinverse(fb.build_laplacian(relabeled))
    vd = fb.solve_vertical(fiber, P, D).coefficients
    assert fb.solve_vertical(relabeled, Q, D).coefficients == tuple(vd[i] for i in order)
    gamma = fb.gamma_u(fiber, P, D).gamma
    assert fb.gamma_u(relabeled, Q, D).gamma == tuple(gamma[i] for i in order)
    for k in range(fiber.r):
        for l in relabeled.neighbors[k]:
            assert fb.effective_resistance(Q, k, l) == fb.effective_resistance(
                P, order[k], order[l]
            )
    assert fb.beta_direct(relabeled, Q, D).beta == fb.beta_direct(fiber, P, D).beta
    if fiber.is_reduced:
        assert fb.beta_closed(relabeled, Q).beta == fb.beta_closed(fiber, P).beta
