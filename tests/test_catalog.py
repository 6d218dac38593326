import itertools
import time

import pytest

import fiberbeta as fb
from fiberbeta import (
    InvalidGenus,
    InvalidN,
    InvalidParams,
    NotADivisor,
    SelfCheckFailed,
    rat,
)
from fiberbeta.catalog import _verify_fermat

from conftest import prepare


def test_banana_examples():
    f = fb.banana(1, 1, 1)
    assert f.genus == 2
    M = fb.build_laplacian(f)
    assert M.entries == ((rat(1), rat(-1)), (rat(-1), rat(1)))
    theta = fb.banana(3, 0, 0)
    assert theta.genus == 2
    with pytest.raises(InvalidGenus):
        fb.banana(1, 0, 0)
    with pytest.raises(InvalidParams):
        fb.banana(0, 1, 1)


def test_genus2_realizations():
    iii2 = fb.genus2_type("III", (2,))
    assert iii2.r == 2
    assert tuple(c.genus for c in iii2.components) == (1, 0)
    assert iii2.intersection("u", "n1") == 2
    v11 = fb.genus2_type("V", (1, 1))
    assert v11.r == 1
    assert v11.components[0].genus == 2
    vii = fb.genus2_type("VII", (1, 1, 1))
    assert vii.r == 2
    assert vii.intersection("u", "w") == 3
    assert tuple(c.genus for c in vii.components) == (0, 0)
    with pytest.raises(InvalidParams):
        fb.genus2_type("VIII", (1,))
    with pytest.raises(InvalidParams):
        fb.genus2_type("II", (0,))
    with pytest.raises(InvalidParams):
        fb.genus2_type("II", (1, 2))


def test_genus2_total_genus_on_grid():
    for kind, arity in fb.catalog.GENUS2_ARITY.items():
        for params in itertools.product(range(1, 5), repeat=arity):
            fiber = fb.genus2_type(kind, params)
            assert fiber.genus == 2
            assert fb.validate(fiber).ok, (kind, params)


def test_engine_beta_on_genus2_grid():
    # engine equals the tabulated closed forms for I, III, V, VII; the
    # II rows differ by exactly 1 in this realization convention and the
    # IV/VI rows agree (recorded, since the table's own convention for
    # the separating parameter cannot be pinned down independently)
    for kind, arity in fb.catalog.GENUS2_ARITY.items():
        for params in itertools.product(range(1, 5), repeat=arity):
            prepared = prepare(fb.genus2_type(kind, params))
            engine = fb.beta_closed(prepared.fiber, prepared.P).beta
            ref = fb.table1_reference(kind, params)
            if kind == "II":
                assert engine == ref.beta + 1, (kind, params)
            else:
                assert engine == ref.beta, (kind, params)
            assert engine <= ref.epsilon, (kind, params)


def test_table1_reference_examples():
    assert fb.table1_reference("VII", (1, 1, 1)).beta == rat(1, 3)
    assert fb.table1_reference("III", (1,)).beta == 0
    assert fb.table1_reference("II", (3,)).beta == 2
    assert fb.table1_reference("V", (2, 1)).beta == rat(1, 4)
    # eps(VII(1,1,1)) = 3/6 + 1/(6*3) = 5/9
    assert fb.table1_reference("VII", (1, 1, 1)).epsilon == rat(5, 9)
    with pytest.raises(InvalidParams):
        fb.table1_reference("I", (1,))


def test_x1n_values():
    assert fb.x1n_genus(35) == 25
    f5 = fb.x1n_fiber(35, 5)
    assert f5.genus == 25
    assert f5.intersection("G1", "G2") == 8
    assert f5.components[0].genus == 9
    f7 = fb.x1n_fiber(35, 7)
    assert f7.intersection("G1", "G2") == 6
    assert f7.components[0].genus == 10
    assert fb.x1n_genus(55) == 81
    with pytest.raises(InvalidN):
        fb.x1n_fiber(36, 2)  # not squarefree
    with pytest.raises(InvalidN):
        fb.x1n_fiber(21, 3)  # no coprime Q, R >= 4
    with pytest.raises(NotADivisor):
        fb.x1n_fiber(35, 11)


def test_x1n_model():
    model = fb.x1n_model(35)
    assert [p.residue_prime for p in model.places] == [5, 7]
    assert [p.residue_degree for p in model.places] == [6, 4]
    assert all(p.fiber.genus == 25 for p in model.places)


def test_fermat_examples(fermat50, fermat72):
    f5 = fermat50.fiber
    assert f5.r == 5
    assert f5.genus == 6
    assert all(c.self_intersection == -4 for c in f5.components)
    assert all(
        f5.intersection(a, b) == 1
        for a in f5.ids
        for b in f5.ids
        if a != b
    )
    f7 = fermat72.fiber
    assert f7.r == 19
    assert f7.genus == 15
    alphas = [c for c in f7.components if c.multiplicity == 2]
    assert len(alphas) == 2
    pendants = [c for c in f7.components if c.self_intersection == -2]
    assert len(pendants) == 14
    with pytest.raises(InvalidParams):
        fb.fermat_fiber(7, 3)
    with pytest.raises(InvalidParams):
        fb.fermat_fiber(9, 0)
    with pytest.raises(InvalidParams):
        fb.fermat_fiber(3, 0)


def test_fermat_self_check_is_falsifiable():
    fiber = fb.fermat_fiber(7, 2, self_check=False)
    # tamper with one intersection: an alpha1 pendant now also meets alpha2
    tampered = list(fiber.intersections)
    tampered.append(("alpha2", "alpha1.1", rat(1)))
    broken = fb.SpecialFiber(
        name=fiber.name,
        components=fiber.components,
        intersections=tampered,
        genus=fiber.genus,
    )
    with pytest.raises(SelfCheckFailed):
        _verify_fermat(broken, 7, 2)
    # a rewiring that keeps every component's fiber relation intact but
    # moves an intersection must still be caught by the divisor check:
    # drop (x, y) and let y meet alpha1 twice instead (and x a pendant)
    pairs = {
        (a, b): v for a, b, v in fiber.intersections if {a, b} != {"x", "y"}
    }
    pairs[("y", "alpha1")] = rat(3, 2)
    pairs[("x", "alpha1.1")] = rat(1)
    pairs[("alpha1", "alpha1.1")] = rat(1, 2)
    rewired = fb.SpecialFiber(
        name=fiber.name,
        components=fiber.components,
        intersections=pairs,
        genus=fiber.genus,
    )
    with pytest.raises(SelfCheckFailed):
        _verify_fermat(rewired, 7, 2)


def test_fermat_reference_divisors(fermat72):
    # the solver reproduces the reference (1/p) L_i and alpha divisors
    f, P = fermat72.fiber, fermat72.P
    p = 7
    vx = fb.solve_vertical(f, P, fb.unit_incidence(f, "x")).coefficients
    shift = vx[f.index["x"]] - rat(1, p)
    for i, cid in enumerate(f.ids):
        expect = (rat(1, p) if cid == "x" else rat(0)) + shift * f.multiplicities[i]
        assert vx[i] == expect
    va = fb.solve_vertical(f, P, fb.unit_incidence(f, "alpha1")).coefficients
    shift = va[f.index["y"]]  # reference divisor has no y component
    for i, cid in enumerate(f.ids):
        base = rat(0)
        if cid == "alpha1":
            base = rat(1, p)
        elif cid.startswith("alpha1."):
            base = rat(1, 2 * p)
        assert va[i] == base + shift * f.multiplicities[i], cid


def test_valid_fermat_r():
    assert fb.catalog.valid_fermat_r(5) == [0, 1]
    assert fb.catalog.valid_fermat_r(7) == [0, 1, 2]
    assert fb.catalog.valid_fermat_r(13) == [0, 1, 2, 3, 4, 5]


def test_acceptance_fibers_battery(battery):
    assert len(battery) >= 20
    names = [prepared.fiber.name for prepared in battery]
    assert len(set(names)) == len(names)


def test_catalog_entry_dispatch():
    f = fb.catalog.catalog_entry("banana", ["2", "1", "0"])
    assert f.name == "banana(2,1,0)"
    f = fb.catalog.catalog_entry("genus2", ["VII", "1", "1", "1"])
    assert f.name == "VII(1,1,1)"
    with pytest.raises(InvalidParams):
        fb.catalog.catalog_entry("nope", [])
    with pytest.raises(InvalidParams):
        fb.catalog.catalog_entry("banana", ["1"])


def test_generators_refuse_oversized_parameters_before_building():
    # counted from the parameters: fermat(p, r) has p - r main components
    # meeting pairwise, plus p pendants on each of the r alpha components
    assert fb.fermat_fiber(61, 29, self_check=False).r == 1801
    assert fb.fermat_fiber(139, 0, self_check=False).r == 139  # 9591 entries
    oversized = [
        lambda: fb.fermat_fiber(10000019, 0),
        lambda: fb.fermat_fiber(10**40, 0),  # too large even to test for primality
        lambda: fb.fermat_fiber(149, 0),  # 149 components, 11026 entries
        lambda: fb.fermat_fiber(67, 32),  # 2179 components
        lambda: fb.genus2_type("VII", (10**9, 1, 1)),
        lambda: fb.x1n_model(2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37),
        lambda: fb.x1n_fiber(10**30 + 1, 7),
    ]
    start = time.perf_counter()
    for build in oversized:
        with pytest.raises(InvalidParams, match="limit"):
            build()
    assert time.perf_counter() - start < 1.0
