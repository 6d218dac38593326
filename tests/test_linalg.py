import collections
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberbeta as fb
from fiberbeta import MalformedInput, RatMatrix, SingularBeyondKernel, linalg, rat

from oracles import (
    assert_penrose_sparse,
    bordered_pseudoinverse,
    object_matrix,
    psd_by_principal_minors,
    random_fiber,
    random_nonreduced_fiber,
    spectral_pinv,
)


def test_build_laplacian_examples(banana111, fermat50, single_component):
    assert banana111.M.entries == ((rat(1), rat(-1)), (rat(-1), rat(1)))
    n = fermat50.M.rows
    assert n == 5
    for i in range(5):
        for j in range(5):
            assert fermat50.M.entry(i, j) == (rat(4) if i == j else rat(-1))
    assert single_component.M.entries == ((rat(0),),)


def test_laplacian_diagonal_nonnegative(battery):
    for prepared in battery:
        assert all(x >= 0 for x in prepared.M.diagonal())
        assert all(s == 0 for s in prepared.M.row_sums())


def test_pseudoinverse_examples(banana111, fermat50, single_component):
    assert single_component.P.mplus.entries == ((rat(0),),)
    assert single_component.P.trace == 0
    quarter = rat(1, 4)
    assert banana111.P.mplus.entries == (
        (quarter, -quarter),
        (-quarter, quarter),
    )
    assert banana111.P.trace == rat(1, 2)
    for i in range(5):
        for j in range(5):
            expect = rat(4, 25) if i == j else rat(-1, 25)
            assert fermat50.P.entry(i, j) == expect
    assert fermat50.P.trace == rat(4, 5)


def test_pseudoinverse_preconditions():
    with pytest.raises(MalformedInput):
        fb.pseudoinverse(RatMatrix([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(MalformedInput):
        fb.pseudoinverse(RatMatrix([[1, 0], [0, 1]]))  # nonzero row sums
    # block-diagonal Laplacian of a disconnected graph: rank < r - 1
    disconnected = RatMatrix(
        [
            [1, -1, 0, 0],
            [-1, 1, 0, 0],
            [0, 0, 1, -1],
            [0, 0, -1, 1],
        ]
    )
    with pytest.raises(SingularBeyondKernel):
        fb.pseudoinverse(disconnected)


def test_pseudoinverse_pivots_past_a_zero_diagonal():
    # symmetric, zero row sums, rank r-1, but not a Laplacian: the grounded
    # minor [[0, 1], [1, -1]] is nonsingular although its first diagonal
    # entry is zero, so the elimination must pivot on index 1 first.
    # M^2 = 3I - J, hence M+ = M/3.
    M = RatMatrix([[0, 1, -1], [1, -1, 0], [-1, 0, 1]])
    P = fb.pseudoinverse(M)
    assert P.mplus.entries == tuple(tuple(x / 3 for x in row) for row in M.entries)
    assert P.rank == 2


def test_penrose_axioms_exact(banana111, fermat72):
    for prepared in (banana111, fermat72):
        m = object_matrix(prepared.M)
        p = object_matrix(prepared.P.mplus)
        assert np.array_equal(m @ p @ m, m)
        assert np.array_equal(p @ m @ p, p)


def tampered_mplus(P):
    """Two wrong M+ that keep symmetry and zero row sums, so only products tell."""
    d = rat(1, 7)
    moves = (
        # one off-diagonal pair, balanced on the diagonal
        ((0, 1, d), (0, 0, -d), (1, 1, -d)),
        # a 4-cycle of off-diagonal pairs: diagonal and trace unchanged too
        ((0, 2, d), (0, 3, -d), (1, 2, -d), (1, 3, d)),
    )
    for move in moves:
        rows = [list(row) for row in P.mplus.entries]
        for i, k, delta in move:
            rows[i][k] += delta
            if i != k:
                rows[k][i] += delta
        tampered = RatMatrix(rows)
        assert tampered.is_symmetric()
        assert all(s == 0 for s in tampered.row_sums())
        yield tampered


def test_sparse_penrose_oracle_accepts_true_rejects_tampered(fermat72):
    # the sparse oracle behind criterion 1 accepts the M+ that the dense
    # object-array products above accept, and rejects the tampered M+
    M, P = fermat72.M, fermat72.P
    assert_penrose_sparse(M, P.mplus.entries, P.trace)
    m = object_matrix(M)
    for tampered in tampered_mplus(P):
        assert not np.array_equal(m @ object_matrix(tampered) @ m, m)
        with pytest.raises(AssertionError, match=r"M M\+ M != M"):
            assert_penrose_sparse(M, tampered.entries, P.trace)


def test_engine_penrose_check_rejects_tampered(fermat72):
    # the engine's own check on the dense M+ accepts the true M+ and
    # rejects the same two tampered ones
    M, P = fermat72.M, fermat72.P
    linalg._verify_penrose(M, P.mplus, P.trace)
    for tampered in tampered_mplus(P):
        with pytest.raises(AssertionError, match=r"pseudoinverse postcondition: \(M\+ M\)"):
            linalg._verify_penrose(M, tampered, P.trace)
    # a wrong trace leaves the products right: only the trace identity tells
    with pytest.raises(AssertionError, match="trace identity"):
        linalg._verify_penrose(M, P.mplus, P.trace + rat(1, 3))


def fractional_fiber():
    """A valid fiber with non-integral intersection numbers of mixed denominators."""
    components = (
        fb.Component("A", 1, 0, rat(-11, 2)),
        fb.Component("B", 2, 0, rat(-1)),
        fb.Component("C", 3, 1, rat(-5, 6)),
    )
    intersections = {("A", "B"): rat(1, 2), ("B", "C"): rat(1, 2), ("A", "C"): rat(3, 2)}
    return fb.SpecialFiber("fractional", components, intersections, genus=3)


def test_common_denominators_on_fractional_intersections():
    # M, M+, the solves and V_D all have mixed denominators here, so every
    # certificate runs with nontrivial common denominators
    fiber = fractional_fiber()
    assert fb.validate(fiber).ok
    M = fb.build_laplacian(fiber)
    assert {x.denominator for row in M.entries for x in row} > {1}
    P = fb.pseudoinverse(M)
    reference = bordered_pseudoinverse(M)
    v = [rat(1, 3), rat(-2, 5), rat(7)]
    want = [sum(reference[i][j] * v[j] for j in range(3)) for i in range(3)]
    assert P.solve(v) == want
    assert len({x.denominator for x in want}) > 1
    D = fb.HorizontalIncidence("D", rat(3, 2), {"A": rat(1, 2), "C": rat(1)})
    vd = fb.solve_vertical(fiber, P, D)
    ap = fiber.normalized_degrees
    for i in range(3):
        pairing = sum(vd.coefficients[j] * fiber.pair_value(i, j) for j in range(3))
        assert pairing + D.vector(fiber)[i] / fiber.multiplicities[i] == D.degree * ap[i]
    assert P.mplus.entries == tuple(tuple(row) for row in reference)


def test_bordering_formula_identity(banana111, fermat50):
    # the stated closed formula (M + J/r)^-1 - J/r, via an independent
    # Fraction elimination, reproduces the production pseudoinverse
    for prepared in (banana111, fermat50):
        reference = bordered_pseudoinverse(prepared.M)
        n = prepared.M.rows
        for i in range(n):
            for j in range(n):
                assert prepared.P.entry(i, j) == reference[i][j]


def test_product_and_trace_identities(battery):
    for prepared in battery[:6]:
        M, P = prepared.M, prepared.P
        n = M.rows
        m = object_matrix(M)
        p = object_matrix(P.mplus)
        prod = p @ m
        for i in range(n):
            for k in range(n):
                assert prod[i][k] == rat(-1, n) + (1 if i == k else 0)
        diag = [P.entry(i, i) for i in range(n)]
        target = P.trace / n
        for i in range(n):
            s = sum(P.entry(i, j) * diag[k] * M.entry(j, k) for j in range(n) for k in range(n))
            assert diag[i] - s == target


def test_effective_resistance_examples(banana111, fermat50):
    assert fb.effective_resistance(banana111.P, 0, 1) == 1
    assert fb.effective_resistance(fermat50.P, 1, 3) == rat(2, 5)
    assert fb.effective_resistance(fermat50.P, 2, 2) == 0
    with pytest.raises(MalformedInput):
        fb.effective_resistance(banana111.P, 0, 5)


def test_resistance_bounded_by_edge_length(battery):
    # r(i, j) <= -1/m_ij whenever (i, j) is an edge of the dual graph
    for prepared in battery:
        fiber, M, P = prepared.fiber, prepared.M, prepared.P
        for i in range(fiber.r):
            for j in fiber.neighbors[i]:
                if j > i:
                    assert fb.effective_resistance(P, i, j) <= -1 / M.entry(i, j)


def test_psd_certificate_examples(banana111):
    assert fb.psd_certificate(banana111.M).is_psd
    assert fb.psd_certificate(RatMatrix([[0]])).is_psd
    cert = fb.psd_certificate(RatMatrix([[-1]]))
    assert not cert.is_psd
    assert "-1" in cert.witness
    indefinite = fb.psd_certificate(RatMatrix([[0, 1], [1, 0]]))
    assert not indefinite.is_psd
    assert "indefinite" in indefinite.witness


def test_psd_certificate_matches_principal_minor_oracle():
    # seeded small symmetric integer matrices: random ones (often
    # indefinite), random ones with a zero diagonal, and B B^t of rank
    # k <= n (psd, singular when k < n)
    rng = random.Random(20261018)
    outcomes = collections.Counter()
    for t in range(600):
        n = rng.randint(1, 6)
        if t % 3 == 2:
            k = rng.randint(1, n)
            b = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
            a = [[sum(x * y for x, y in zip(b[i], b[j])) for j in range(n)] for i in range(n)]
        else:
            zero_diagonal = t % 3 == 0
            sparsity = rng.random()
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i if zero_diagonal else i + 1):
                    if rng.random() >= sparsity:
                        a[i][j] = a[j][i] = rng.randint(-3, 3)
        cert = fb.psd_certificate(RatMatrix(a))
        assert cert.is_psd == psd_by_principal_minors(a), a
        assert bool(cert.witness) == (not cert.is_psd), a
        if cert.is_psd:
            outcomes["singular" if len(cert.pivots) < n else "definite"] += 1
        else:
            outcomes[cert.witness.split()[0]] += 1  # "indefinite" or "negative"
    assert set(outcomes) == {"definite", "singular", "indefinite", "negative"}, outcomes


def test_psd_certificate_on_catalog(battery):
    for prepared in battery[:8]:
        assert fb.psd_certificate(prepared.M).is_psd
        assert fb.psd_certificate(prepared.P.mplus).is_psd


def test_float_oracle_agreement(banana111, fermat72):
    for prepared in (banana111, fermat72):
        approx = spectral_pinv(prepared.M)
        exact = np.array(
            [[float(x) for x in row] for row in prepared.P.mplus.entries]
        )
        assert np.max(np.abs(approx - exact)) <= 1e-9


def test_ratmatrix_validation():
    with pytest.raises(MalformedInput):
        RatMatrix([])
    with pytest.raises(MalformedInput):
        RatMatrix([[1, 2], [3]])
    m = RatMatrix([[1, 2], [2, 1]])
    assert m.is_symmetric()
    assert m.trace() == 2


# -- the factored path against the dense M+ ------------------------------------


def assert_factored_equals_dense(M, P, rng):
    """diag, edge entries, trace and solves from the factor equal the dense M+."""
    n = M.rows
    diag, edges, trace = P.diag(), P.edge_entries(), P.trace
    solves = []
    for _ in range(3):
        v = [rat(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        solves.append((v, P.solve(v)))
    assert "mplus" not in vars(P)
    dense = P.mplus
    assert diag == dense.diagonal()
    assert trace == dense.trace()
    assert edges == {
        (i, j): dense.entry(i, j) for i in range(n) for j in M.nonzero_columns[i] if i < j
    }
    for v, x in solves:
        assert x == dense.matvec(v)


def test_factored_path_equals_dense_on_battery(battery):
    rng = random.Random(4)
    for prepared in battery:
        assert_factored_equals_dense(prepared.M, fb.pseudoinverse(prepared.M), rng)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reduced=st.booleans())
def test_factored_path_equals_dense_on_random_fibers(seed, reduced):
    rng = random.Random(seed)
    fiber = random_fiber(rng) if reduced else random_nonreduced_fiber(rng)
    M = fb.build_laplacian(fiber)
    assert_factored_equals_dense(M, fb.pseudoinverse(M), rng)


def test_factored_path_survives_cancelled_fill():
    # symmetric zero-row-sum integer matrices with entries of both signs:
    # elimination can cancel an entry to zero, and selected inversion must
    # still reach the G_ij it needs through the closed filled pattern
    rng = random.Random(1975)
    cancelled = 0
    for _ in range(400):
        n = rng.randint(2, 7)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.5:
                    a[i][j] = a[j][i] = rng.choice([-2, -1, -1, 1, 2])
            a[i][i] = 0
        for i in range(n):
            a[i][i] = -sum(a[i])
        M = RatMatrix(a)
        try:
            P = fb.pseudoinverse(M)
        except SingularBeyondKernel:
            continue
        ops, _ = linalg._grounded_factor(M)
        pattern = linalg._filled_pattern(ops)
        cancelled += any(set(factors) != pattern[i] for i, factors in ops)
        assert_factored_equals_dense(M, P, rng)
    assert cancelled >= 5


def test_factored_certificates_reject_tampering(fermat72, monkeypatch):
    M = fermat72.M
    d = rat(1, 11)

    def tampered(fn, change):
        def wrapper(*args):
            out = fn(*args)
            change(out)
            return out
        return wrapper

    def bump_factor(out):
        ops, _ = out
        i, factors = next((i, f) for i, f in ops if f)
        j = next(iter(factors))
        factors[j] += d

    with monkeypatch.context() as m:
        m.setattr(linalg, "_grounded_factor", tampered(linalg._grounded_factor, bump_factor))
        with pytest.raises(AssertionError, match="factor certificate"):
            fb.pseudoinverse(M)

    def bump_selected(g):
        i = next(i for i in g if len(g[i]) > 1)
        j = next(j for j in g[i] if j != i)
        g[i][j] += d  # mirror kept equal: only the Takahashi equations can tell
        g[j][i] = g[i][j]

    def bump_diagonal(g):
        i = next(iter(g))
        g[i][i] += d

    for change in (bump_selected, bump_diagonal):
        with monkeypatch.context() as m:
            m.setattr(linalg, "_selected_inverse", tampered(linalg._selected_inverse, change))
            P = fb.pseudoinverse(M)
            with pytest.raises(AssertionError, match="selected inverse certificate"):
                P.diag()
            # with the Takahashi check gone, Foster's identity still fails
            m.setattr(linalg, "_verify_selected", lambda *args: None)
            with pytest.raises(AssertionError, match="Foster certificate"):
                fb.pseudoinverse(M).edge_entries()

    def bump_solve(x):
        x[0] += d

    with monkeypatch.context() as m:
        m.setattr(linalg, "_grounded_solve", tampered(linalg._grounded_solve, bump_solve))
        P = fb.pseudoinverse(M)
        with pytest.raises(AssertionError, match="solve certificate"):
            P.solve([rat(1)] + [rat(0)] * (M.rows - 1))


@pytest.mark.parametrize("kind, params", [("fermat", (11, 3)), ("VII", (3, 4, 5))])
def test_production_callers_never_build_the_dense_mplus(kind, params):
    # a later change must not bring the O(r^2) dense M+ back onto these
    # paths; fermat(11,3) is not reduced, so VII(3,4,5) covers the closed forms
    fiber = fb.fermat_fiber(*params) if kind == "fermat" else fb.genus2_type(kind, params)
    P = fb.pseudoinverse(fb.build_laplacian(fiber))
    D = fb.unit_incidence(fiber, fiber.ids[0])
    fb.solve_vertical(fiber, P, D)
    fb.gamma_u(fiber, P, D)
    fb.beta_direct(fiber, P, D)
    fb.semipositivity_certificate(fiber, P, D)
    fb.u_dot_component_closed(fiber, P, D, 0)
    i = 0
    j = fiber.neighbors[i][0]
    fb.effective_resistance(P, i, j)
    if fiber.is_reduced:
        fb.beta_closed(fiber, P)
        fb.u_dot_k_closed(fiber, P)
    assert "mplus" not in vars(P)
    # control: a pair off the dual graph's edges does build it
    far = next(k for k in range(fiber.r) if k != i and k not in fiber.neighbors[i])
    fb.effective_resistance(P, i, far)
    assert "mplus" in vars(P)
