import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberbeta as fb
from fiberbeta import (
    DegreeMismatch,
    FiberMismatch,
    HorizontalIncidence,
    NonpositiveDegree,
    VerticalDivisor,
    rat,
)

from oracles import random_horizontal, random_nonreduced_fiber


def sym_divisor(fiber):
    return HorizontalIncidence(
        "Dsym", 1, {cid: rat(1, fiber.r) for cid in fiber.ids}
    )


def test_solve_vertical_examples(banana111, fermat50):
    f, P = banana111.fiber, banana111.P
    assert fb.solve_vertical(f, P, sym_divisor(f)).is_zero()
    d1 = fb.unit_incidence(f, "G1")
    assert fb.solve_vertical(f, P, d1).coefficients == (rat(1, 4), rat(-1, 4))
    # Fermat p=5: canonical representative, and (1/5)L_x modulo the fiber
    sx = fb.unit_incidence(fermat50.fiber, "x")
    v = fb.solve_vertical(fermat50.fiber, fermat50.P, sx)
    assert v.coefficients == (rat(4, 25),) + (rat(-1, 25),) * 4
    shift = v.coefficients[0] - rat(1, 5)
    assert all(c - shift in (rat(0),) for c in v.coefficients[1:])


def test_solve_vertical_rejects_a_factor_of_another_fiber():
    # II(3) and III(4) both have four components; the factor of one
    # solves its own M correctly, but V_D built from it fails the other
    # fiber's defining property
    fiber, other = fb.genus2_type("II", (3,)), fb.genus2_type("III", (4,))
    assert fiber.r == other.r
    P_other = fb.pseudoinverse(fb.build_laplacian(other))
    P_other.solve([rat(1)] + [rat(0)] * (fiber.r - 1))
    D = fb.unit_incidence(fiber, fiber.ids[0])
    with pytest.raises(AssertionError, match="solve_vertical postcondition"):
        fb.solve_vertical(fiber, P_other, D)


def test_solve_vertical_degree_mismatch(banana111):
    bad = HorizontalIncidence("bad", 1, {"G1": 1, "G2": 1})
    with pytest.raises(DegreeMismatch):
        fb.solve_vertical(banana111.fiber, banana111.P, bad)


def test_phi_examples(banana111):
    f, P = banana111.fiber, banana111.P
    zero = HorizontalIncidence("zero", 0, {})
    assert fb.phi(f, P, zero).is_zero()
    z = HorizontalIncidence("Z", 0, {"G1": 1, "G2": -1})
    assert fb.phi(f, P, z).coefficients == (rat(1, 2), rat(-1, 2))
    z2 = HorizontalIncidence("2Z", 0, {"G1": 2, "G2": -2})
    assert fb.phi(f, P, z2).coefficients == (rat(1), rat(-1))
    with pytest.raises(DegreeMismatch):
        fb.phi(f, P, fb.unit_incidence(f, "G1"))


def test_pair_vertical_examples(banana111, fermat50):
    f = banana111.fiber
    v = VerticalDivisor(f, (rat(1, 4), rat(-1, 4)))
    assert fb.pair_vertical(v, v) == rat(-1, 4)
    anything = VerticalDivisor(f, (rat(3), rat(-7)))
    assert fb.pair_vertical(fb.full_fiber(f), anything) == 0
    vx = VerticalDivisor(fermat50.fiber, (rat(1, 5), 0, 0, 0, 0))
    assert fb.pair_vertical(vx, vx) == rat(-4, 25)
    with pytest.raises(FiberMismatch):
        fb.pair_vertical(v, vx)


def test_gamma_u_examples(banana111, fermat50):
    f, P = banana111.fiber, banana111.P
    gv = fb.gamma_u(f, P, sym_divisor(f))
    assert gv.gamma == (rat(1, 4), rat(1, 4))
    gv1 = fb.gamma_u(f, P, fb.unit_incidence(f, "G1"))
    assert gv1.gamma == (rat(-1, 4), rat(3, 4))
    sx = fb.unit_incidence(fermat50.fiber, "x")
    gvf = fb.gamma_u(fermat50.fiber, fermat50.P, sx)
    assert gvf.gamma == (rat(-4, 25),) + (rat(6, 25),) * 4
    with pytest.raises(NonpositiveDegree):
        fb.gamma_u(f, P, HorizontalIncidence("z", 0, {}))


def test_gamma_u_equals_definition(battery):
    rng = random.Random(20240801)
    for prepared in battery[:10]:
        f, P = prepared.fiber, prepared.P
        D = random_horizontal(rng, f, degree=1)
        assert fb.gamma_u(f, P, D).gamma == fb.gamma_by_definition(f, P, D).gamma


def test_gamma_shift_independence(banana111):
    # re-deriving gamma from shifted representatives changes nothing
    f, P = banana111.fiber, banana111.P
    rng = random.Random(7)
    D = random_horizontal(rng, f, degree=1)
    reference = fb.gamma_u(f, P, D).gamma
    vd = fb.solve_vertical(f, P, D).shifted(rat(5, 3))
    vd_sq = fb.pair_vertical(vd, vd)
    for i, cid in enumerate(f.ids):
        vi = fb.solve_vertical(f, P, fb.unit_incidence(f, cid))
        vi = vi.shifted(rat(rng.randint(-3, 3), 7))
        diff = VerticalDivisor(
            f, tuple(a - c for a, c in zip(vd.coefficients, vi.coefficients))
        )
        gamma_i = vd_sq - fb.pair_vertical(diff, diff)
        assert gamma_i == reference[i]


def test_u_linearity(battery):
    rng = random.Random(99)
    for prepared in battery[:6]:
        f, P = prepared.fiber, prepared.P
        d1 = random_horizontal(rng, f, degree=2)
        d2 = random_horizontal(rng, f, degree=1)
        merged = {cid: v for cid, v in d1.incidence}
        for cid, v in d2.incidence:
            merged[cid] = merged.get(cid, rat(0)) + v
        both = HorizontalIncidence("sum", 3, merged)
        g1 = fb.gamma_u(f, P, d1).gamma
        g2 = fb.gamma_u(f, P, d2).gamma
        g12 = fb.gamma_u(f, P, both).gamma
        assert g12 == tuple(a + b for a, b in zip(g1, g2))


def test_u_opposite_divisors_mod_fiber(banana111):
    # U_{D_1} and -U_{D_2} agree modulo the full fiber (not exactly)
    f, P = banana111.fiber, banana111.P
    u1 = fb.gamma_u(f, P, fb.unit_incidence(f, "G1")).gamma
    u2 = fb.gamma_u(f, P, fb.unit_incidence(f, "G2")).gamma
    diff = [a + b for a, b in zip(u1, u2)]
    shifts = {d / rat(b) for d, b in zip(diff, f.multiplicities)}
    assert len(shifts) == 1
    assert u1 != tuple(-x for x in u2)


def test_u_dot_component_closed_examples(banana111, single_component):
    f, P = banana111.fiber, banana111.P
    assert fb.u_dot_component_closed(f, P, sym_divisor(f), 0) == 0
    assert fb.u_dot_component_closed(f, P, fb.unit_incidence(f, "G1"), 0) == 1
    s = single_component
    assert (
        fb.u_dot_component_closed(s.fiber, s.P, fb.unit_incidence(s.fiber, "G"), 0)
        == 0
    )
    with pytest.raises(DegreeMismatch):
        fb.u_dot_component_closed(f, P, HorizontalIncidence("d2", 2, {"G1": 2}), 0)


def test_u_dot_component_closed_matches_pairing_on_reduced(battery):
    rng = random.Random(4242)
    for prepared in battery:
        f, P = prepared.fiber, prepared.P
        if not f.is_reduced:
            continue
        D = random_horizontal(rng, f, degree=1)
        u = fb.gamma_u(f, P, D).u_divisor
        for i in range(f.r):
            closed = fb.u_dot_component_closed(f, P, D, i)
            assert closed == fb.pair_with_component(u, i), (f.name, i)


def test_u_dot_component_closed_diverges_on_nonreduced(fermat72):
    # both values are computed and reported, not asserted equal
    f, P = fermat72.fiber, fermat72.P
    D = fb.unit_incidence(f, "x")
    u = fb.gamma_u(f, P, D).u_divisor
    i = f.index["x"]
    assert fb.u_dot_component_closed(f, P, D, i) != fb.pair_with_component(u, i)


def test_horizontal_dot_vertical_examples(banana111, fermat50):
    sx = fb.unit_incidence(fermat50.fiber, "x")
    u = fb.gamma_u(fermat50.fiber, fermat50.P, sx).u_divisor
    assert fb.horizontal_dot_vertical(sx, u) == rat(-4, 25)
    f, P = banana111.fiber, banana111.P
    zero = VerticalDivisor(f, (0, 0))
    assert fb.horizontal_dot_vertical(sym_divisor(f), zero) == 0
    ub = fb.gamma_u(f, P, sym_divisor(f)).u_divisor
    assert fb.horizontal_dot_vertical(sym_divisor(f), ub) == rat(1, 4)


def test_neron_pairing_examples(banana111):
    f, P = banana111.fiber, banana111.P
    pq = HorizontalIncidence("P-Q", 0, {"G1": 1, "G2": -1})
    assert fb.neron_pairing(f, P, pq, pq, 0) == 1
    zero = HorizontalIncidence("0", 0, {})
    assert fb.neron_pairing(f, P, pq, zero, 0) == 0
    double = HorizontalIncidence("2(P-Q)", 0, {"G1": 2, "G2": -2})
    assert fb.neron_pairing(f, P, double, pq, 0) == 2 * fb.neron_pairing(f, P, pq, pq, 0)


@settings(max_examples=40, deadline=None)
@given(
    a1=st.integers(-4, 4),
    a2=st.integers(-4, 4),
    b1=st.integers(-4, 4),
    b2=st.integers(-4, 4),
    h=st.integers(-3, 3),
)
def test_neron_pairing_symmetric_bilinear(a1, a2, b1, b2, h):
    fiber = fb.banana(1, 1, 1)
    P = fb.pseudoinverse(fb.build_laplacian(fiber))
    e1 = HorizontalIncidence("E1", a1 + a2, {"G1": a1, "G2": a2})
    e2 = HorizontalIncidence("E2", b1 + b2, {"G1": b1, "G2": b2})
    assert fb.neron_pairing(fiber, P, e1, e2, h) == fb.neron_pairing(fiber, P, e2, e1, h)
    scaled = HorizontalIncidence("2E1", 2 * (a1 + a2), {"G1": 2 * a1, "G2": 2 * a2})
    assert fb.neron_pairing(fiber, P, scaled, e2, 2 * h) == 2 * fb.neron_pairing(
        fiber, P, e1, e2, h
    )


def test_neron_shift_independence_degree_zero(banana111):
    f, P = banana111.fiber, banana111.P
    e1 = HorizontalIncidence("E1", 0, {"G1": 2, "G2": -2})
    e2 = HorizontalIncidence("E2", 0, {"G1": -1, "G2": 1})
    v1 = fb.solve_vertical(f, P, e1)
    v2 = fb.solve_vertical(f, P, e2)
    base = (
        fb.horizontal_dot_vertical(e1, v2)
        + fb.horizontal_dot_vertical(e2, v1)
        + fb.pair_vertical(v1, v2)
    )
    v1s = v1.shifted(rat(3, 2))
    v2s = v2.shifted(rat(-7, 5))
    shifted = (
        fb.horizontal_dot_vertical(e1, v2s)
        + fb.horizontal_dot_vertical(e2, v1s)
        + fb.pair_vertical(v1s, v2s)
    )
    assert base == shifted == fb.neron_pairing(f, P, e1, e2, 0)


def test_random_nonreduced_fibers_udhor_and_gamma_paths():
    # mixed multiplicities (with non-integral self-intersections) outside
    # the catalog: gamma paths agree exactly and the horizontal identity
    # d(E.U_D) = e V_D^2 - sum phi(dP_j - D)^2 holds with multiplicity-1
    # point placements
    rng = random.Random(777)
    for _ in range(40):
        f = random_nonreduced_fiber(rng)
        assert fb.validate(f).ok, f.name
        P = fb.pseudoinverse(fb.build_laplacian(f))
        D = random_horizontal(rng, f, degree=1)
        assert fb.gamma_u(f, P, D).gamma == fb.gamma_by_definition(f, P, D).gamma
        simple = [i for i in range(f.r) if f.multiplicities[i] == 1]
        if not simple:
            continue
        d = rng.randint(1, 3)
        D = random_horizontal(rng, f, degree=d)
        e = rng.randint(1, 3)
        places = [rng.choice(simple) for _ in range(e)]
        v_e = {}
        for i in places:
            v_e[f.ids[i]] = v_e.get(f.ids[i], rat(0)) + 1
        E = HorizontalIncidence("E", e, v_e)
        gv = fb.gamma_u(f, P, D)
        lhs = d * fb.horizontal_dot_vertical(E, gv.u_divisor)
        vd = fb.solve_vertical(f, P, D)
        rhs = e * fb.pair_vertical(vd, vd)
        v_map = dict(D.incidence)
        for i in places:
            z = {cid: -x for cid, x in v_map.items()}
            z[f.ids[i]] = z.get(f.ids[i], rat(0)) + d
            correction = fb.phi(f, P, HorizontalIncidence("Z", 0, z))
            rhs -= fb.pair_vertical(correction, correction)
        assert lhs == rhs, f.name


def test_defining_property_random_incidences(battery):
    # (D + V_D . Gamma_i) = d a'_i for 100 random degree-1 incidences per
    # fiber; solve_vertical re-checks every i internally on each call, and
    # the pairing route below re-verifies a sample of components
    rng = random.Random(11)
    for prepared in battery:
        f, P = prepared.fiber, prepared.P
        for trial in range(100):
            D = random_horizontal(rng, f, degree=1)
            vd = fb.solve_vertical(f, P, D)
            if trial % 20 == 0:
                v = D.vector(f)
                for i in range(f.r):
                    lhs = fb.pair_with_component(vd, i) + v[i] / rat(
                        f.multiplicities[i]
                    )
                    assert lhs == f.normalized_degrees[i]
