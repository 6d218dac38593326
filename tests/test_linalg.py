import collections
import random

import numpy as np
import pytest

import fiberbeta as fb
from fiberbeta import MalformedInput, RatMatrix, SingularBeyondKernel, rat

from oracles import (
    assert_penrose_sparse,
    bordered_pseudoinverse,
    object_matrix,
    psd_by_principal_minors,
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


def test_sparse_penrose_oracle_accepts_true_rejects_tampered(fermat72):
    # the sparse oracle behind criterion 1 accepts the M+ that the dense
    # object-array products above accept, and rejects M+ moved in ways
    # that keep symmetry and zero row sums, so only the products can tell
    M, P = fermat72.M, fermat72.P
    assert_penrose_sparse(M, P.mplus.entries, P.trace)
    d = rat(1, 7)
    moves = (
        # one off-diagonal pair, balanced on the diagonal
        ((0, 1, d), (0, 0, -d), (1, 1, -d)),
        # a 4-cycle of off-diagonal pairs: diagonal and trace unchanged too
        ((0, 2, d), (0, 3, -d), (1, 2, -d), (1, 3, d)),
    )
    m = object_matrix(M)
    for move in moves:
        rows = [list(row) for row in P.mplus.entries]
        for i, k, delta in move:
            rows[i][k] += delta
            if i != k:
                rows[k][i] += delta
        tampered = RatMatrix(rows)
        assert tampered.is_symmetric()
        assert all(s == 0 for s in tampered.row_sums())
        assert not np.array_equal(m @ object_matrix(tampered) @ m, m)
        with pytest.raises(AssertionError, match=r"M M\+ M != M"):
            assert_penrose_sparse(M, tampered.entries, P.trace)


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
