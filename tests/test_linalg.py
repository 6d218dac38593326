import collections
import contextlib
import io
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberbeta as fb
from fiberbeta import MalformedInput, RatMatrix, SingularBeyondKernel, WorkLimitExceeded, cli, linalg, rat
from fiberbeta.rationals import _integer_vector

from oracles import (
    assert_penrose_sparse,
    bordered_pseudoinverse,
    fraction_grounded_solve,
    min_degree_eliminate,
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
        (i, j): dense.entry(i, j) for i, row in enumerate(M.sparse_rows) for j in row if i < j
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
        steps = linalg._grounded_factor(M)
        pattern = linalg._filled_pattern(steps)
        cancelled += any(set(factors) != pattern[i] for i, _, factors in steps)
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
        factors = next(f for _, _, f in out if f)
        j = next(iter(factors))
        factors[j] += d

    with monkeypatch.context() as m:
        m.setattr(linalg, "_grounded_factor", tampered(linalg._grounded_factor, bump_factor))
        with pytest.raises(AssertionError, match="factor certificate"):
            fb.pseudoinverse(M)

    def bump_selected(g):
        i = next(i for i in g if len(g[i]) > 1)
        j = next(j for j in g[i] if j != i)
        g[i][j] += d  # mirror kept equal: only a check on G's values can tell
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
            # with the selected-inverse check gone, Foster's identity still fails
            m.setattr(linalg, "_verify_selected", lambda *args: None)
            m.setattr(linalg, "_verify_takahashi", lambda *args: None)
            with pytest.raises(AssertionError, match="Foster certificate"):
                fb.pseudoinverse(M).edge_entries()

    def bump_column(columns):
        col = next(column[4] for column in columns if column[4])
        col[0] = (col[0][0], col[0][1] + 1)

    def bump_lcm(columns):
        k = next(k for k, column in enumerate(columns) if column[4])
        i, dn, dd, c, col = columns[k]
        columns[k] = (i, dn, dd, c + 1, col)

    for change in (bump_column, bump_lcm):
        with monkeypatch.context() as m:
            m.setattr(linalg, "_integer_columns", tampered(linalg._integer_columns, change))
            with pytest.raises(AssertionError, match="factor certificate"):
                fb.pseudoinverse(M)

    def bump_solve(out):
        X, _ = out
        X[0] += 1

    with monkeypatch.context() as m:
        m.setattr(linalg, "_grounded_solve", tampered(linalg._grounded_solve, bump_solve))
        P = fb.pseudoinverse(M)
        with pytest.raises(AssertionError, match="solve certificate"):
            P.solve([rat(1)] + [rat(0)] * (M.rows - 1))


def test_integer_replay_equals_the_fraction_replay(battery):
    # (X, s) is the Fraction replay's G0 w over the lcm of its denominators,
    # on unit, dense random and zero right-hand sides; a non-integer value
    # met at a pivot means the forward pass rescaled, s > 1 the backward
    rng = random.Random(14)
    matrices = [prepared.M for prepared in battery] + [
        fb.build_laplacian(fb.genus2_type("VII", (50, 50, 51))),
        fb.build_laplacian(fb.fermat_fiber(31, 14)),
    ]
    rescaled = set()
    for M in matrices:
        P = fb.pseudoinverse(M)
        r = M.rows
        units = range(r) if r <= 40 else (0, r // 2, r - 2, r - 1)
        rhs = [[int(k == c) for k in range(r)] for c in units]
        rhs += [[rng.randint(-9, 9) for _ in range(r)] for _ in range(2)] + [[0] * r]
        for W in rhs:
            X, s = linalg._grounded_solve(P._columns, W)
            x, forward = fraction_grounded_solve(P._steps, W)
            assert (X, s) == _integer_vector(x)
            if any(z.denominator != 1 for z in forward.values()):
                rescaled.add("forward")
            if s != 1:
                rescaled.add("backward")
    assert rescaled == {"forward", "backward"}


@pytest.mark.parametrize("kind, params", [("fermat", (7, 2)), ("VII", (2, 3, 4)), ("fermat", (13, 0))])
def test_selected_inverse_certificate_catches_a_wrong_factor(kind, params):
    # the selected inverse of a factor changed after its own certificate ran
    # still satisfies the Takahashi equations of that factor; only G M = I,
    # which reads M, can tell
    fiber = fb.fermat_fiber(*params) if kind == "fermat" else fb.genus2_type(kind, params)
    M = fb.build_laplacian(fiber)
    steps = [(i, d, dict(factors)) for i, d, factors in linalg._grounded_factor(M)]
    factors = next(factors for _, _, factors in steps if factors)
    factors[next(iter(factors))] += rat(1, 11)
    P = linalg.PseudoinverseResult(M, steps)
    with pytest.raises(AssertionError, match="selected inverse certificate"):
        P._selected


# Moves of the stored G, in units of 1/7, that keep every Foster row
# sum_j m_ij n_ij; each names the one kind of equation of the selected-
# inverse check that tells.  `mirror` copies each move to G_ji; otherwise
# both halves are listed.
SELECTED_INVERSE_TAMPERS = [
    # around a 4-cycle of the 13-clique, every row of which (G M) pins
    (("fermat", (13, 0)), {("x", "y"): 1, ("y", "z"): -1, ("z", "beta1"): 1, ("beta1", "x"): -1}, True, "(G M)"),
    # around a 4-cycle of alpha hubs: keeps every (G M) identity, every
    # mirror and the Takahashi equations of the diagonal
    (
        ("fermat", (11, 4)),
        {("alpha1", "alpha3"): 1, ("alpha3", "alpha2"): -1, ("alpha2", "alpha4"): 1, ("alpha4", "alpha1"): -1},
        True,
        "(G L)",
    ),
    # keeps every (G M) identity and moves n_uu and n_n2n2, the diagonal of M+
    (("VII", (2, 3, 4)), {("u", "u"): 1, ("n2", "n2"): rat(3, 2), ("u", "n2"): 3}, True, "(G L)"),
    # G_ij and G_ji apart: keeps every (G M) identity and Takahashi equation
    (
        ("fermat", (13, 5)),
        {
            ("alpha1", "alpha5"): 1, ("alpha2", "alpha5"): -1, ("alpha1", "alpha4"): -1, ("alpha4", "alpha3"): 3,
            ("alpha4", "alpha1"): 4, ("alpha5", "alpha1"): -4, ("alpha5", "alpha2"): 7, ("alpha4", "alpha2"): -7,
            ("alpha5", "alpha3"): -3, ("alpha2", "alpha4"): 1,
        },
        False,
        "G[",
    ),
]


@pytest.mark.parametrize("fiber, moves, mirror, caught_by", SELECTED_INVERSE_TAMPERS)
def test_selected_inverse_certificate_catches_moves_the_foster_rows_keep(fiber, moves, mirror, caught_by, monkeypatch):
    kind, params = fiber
    fiber = fb.fermat_fiber(*params) if kind == "fermat" else fb.genus2_type(kind, params)
    M = fb.build_laplacian(fiber)
    P = fb.pseudoinverse(M)
    clean = P.diag(), P.edge_entries()
    selected = linalg._selected_inverse

    def tampered(*args):
        g = selected(*args)
        for (a, b), c in moves.items():
            i, j = fiber.index[a], fiber.index[b]
            g[i][j] += c * rat(1, 7)
            if mirror:
                g[j][i] = g[i][j]
        return g

    monkeypatch.setattr(linalg, "_selected_inverse", tampered)
    with pytest.raises(AssertionError, match="selected inverse certificate: " + re.escape(caught_by)):
        fb.pseudoinverse(M).diag()
    # with the selected-inverse check gone, the Foster rows hold and M+ moves
    monkeypatch.setattr(linalg, "_verify_selected", lambda *args: None)
    monkeypatch.setattr(linalg, "_verify_takahashi", lambda *args: None)
    P = fb.pseudoinverse(M)
    assert (P.diag(), P.edge_entries()) != clean


@pytest.mark.parametrize("kind, params", [("fermat", (7, 2)), ("VII", (2, 3, 4))])
def test_foster_rows_catch_a_tamper_that_keeps_fosters_sum(kind, params, monkeypatch):
    # n_ij moves by delta and n_kl by -m_ij delta / m_kl: the edge terms
    # -m r of Foster's sum move by -2 m_ij delta and +2 m_ij delta, so the
    # sum still reads r - 1, while rows i and j of M+ M do not
    fiber = fb.fermat_fiber(*params) if kind == "fermat" else fb.genus2_type(kind, params)
    M = fb.build_laplacian(fiber)
    edges = sorted(fb.pseudoinverse(M).edge_entries())
    (i, j), (k, l) = edges[0], edges[-1]
    delta = rat(1, 7)
    shift = {(i, j): delta, (k, l): -M.entry(i, j) * delta / M.entry(k, l)}
    n = linalg.PseudoinverseResult._n
    monkeypatch.setattr(
        linalg.PseudoinverseResult, "_n", lambda P, a, b: n(P, a, b) + shift.get((a, b), 0)
    )
    P = fb.pseudoinverse(M)
    diag = P.diag()
    foster = sum(
        -M.entry(a, b) * (diag[a] + diag[b] - 2 * P._n(a, b)) for a, b in edges
    )
    assert foster == M.rows - 1
    with pytest.raises(AssertionError, match="Foster certificate"):
        P.edge_entries()


@pytest.mark.parametrize("kind, params", [("fermat", (11, 3)), ("VII", (3, 4, 5))])
def test_production_callers_never_build_the_dense_mplus(kind, params, tmp_path, monkeypatch):
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
    # a pair off the dual graph's edges takes one column solve
    far = next(k for k in range(fiber.r) if k != i and k not in fiber.neighbors[i])
    fb.effective_resistance(P, i, far)
    assert "mplus" not in vars(P)
    # the CLI's all-pairs table streams from column solves as well
    made = []
    monkeypatch.setattr(cli, "pseudoinverse", lambda M: made.append(fb.pseudoinverse(M)) or made[-1])
    doc = tmp_path / "fiber.json"
    doc.write_text(fb.serialize_fiber(fiber), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["compute", str(doc), "--op", "resistance"]) == 0
    assert out.getvalue().count("\n") == 1 + fiber.r * (fiber.r - 1) // 2
    assert len(made) == 1 and "mplus" not in vars(made[0])


def assert_streamed_table_equals_dense(P):
    """resistance_rows equals n_ii + n_jj - 2 n_ij read from the dense M+."""
    n = P.r
    rows = list(fb.resistance_rows(P))
    assert "mplus" not in vars(P)
    dense = P.mplus
    assert len(rows) == max(n - 1, 0)
    for i, row in enumerate(rows):
        assert row == [
            dense.entry(i, i) + dense.entry(j, j) - 2 * dense.entry(i, j) for j in range(i + 1, n)
        ]


def test_streamed_resistance_table_equals_dense_on_battery(battery):
    for prepared in battery:
        assert_streamed_table_equals_dense(fb.pseudoinverse(prepared.M))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), reduced=st.booleans())
def test_streamed_resistance_table_equals_dense_on_random_fibers(seed, reduced):
    rng = random.Random(seed)
    fiber = random_fiber(rng) if reduced else random_nonreduced_fiber(rng)
    assert_streamed_table_equals_dense(fb.pseudoinverse(fb.build_laplacian(fiber)))


def assert_same_elimination(work, monkeypatch, M=None):
    """The pivot heap gives the brute-force min rule's (steps, left) and
    leftover rows on `work`, and, for a matrix M, the same psd_certificate."""
    copy = [dict(row) for row in work]
    assert linalg._eliminate(work) == min_degree_eliminate(copy)
    assert work == copy
    if M is not None:
        cert = fb.psd_certificate(M)
        with monkeypatch.context() as m:
            m.setattr(linalg, "_eliminate", min_degree_eliminate)
            assert fb.psd_certificate(M) == cert


def test_pivot_heap_matches_min_rule_on_battery(battery, monkeypatch):
    for prepared in battery:
        M = prepared.M
        last = M.rows - 1
        grounded = [{j: x for j, x in row.items() if j != last} for row in M.sparse_rows[:last]]
        assert_same_elimination(grounded, monkeypatch)
        assert_same_elimination([dict(row) for row in M.sparse_rows], monkeypatch, M)


def test_pivot_heap_matches_min_rule_on_random_matrices(monkeypatch):
    # seeded symmetric integer matrices of every sparsity, with and without
    # zero diagonals: fill-in, cancellation and leftover blocks all occur
    rng = random.Random(20261019)
    for t in range(3000):
        n = rng.randint(1, 9)
        sparsity = rng.random()
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1 if t % 2 else i):
                if rng.random() >= sparsity:
                    a[i][j] = a[j][i] = rng.randint(-3, 3)
        M = RatMatrix(a)
        assert_same_elimination([dict(row) for row in M.sparse_rows], monkeypatch, M)


@pytest.mark.parametrize("n", [2, 5, 13])
def test_elimination_work_of_a_clique_is_a_sum_of_squares(monkeypatch, n):
    # every pivot of a clique meets all rows left, and the Schur complement
    # stays a clique: the k-th last pivot makes k^2 updates.  The grounded
    # factor eliminates n - 1 rows, psd_certificate all n
    M = RatMatrix([[n - 1 if i == j else -1 for j in range(n)] for i in range(n)])
    for run, rows in ((fb.pseudoinverse, n - 1), (fb.psd_certificate, n)):
        work = sum(k * k for k in range(rows))
        monkeypatch.setattr(linalg, "MAX_ELIMINATION_WORK", work)
        run(M)
        monkeypatch.setattr(linalg, "MAX_ELIMINATION_WORK", work - 1)
        with pytest.raises(WorkLimitExceeded, match=f"more than {work - 1} entry updates"):
            run(M)
