"""Independent oracles used by the tests.

These deliberately avoid the production code paths: the spectral
pseudoinverse goes through numpy's SVD in floating point, the exact
inverse is a plain Fraction Gauss-Jordan, and the random-fiber generator
builds connected configurations from spanning trees.

`object_matrix` gives numpy object arrays for exact products on small
fibers.  Their element operations are Python-level rational arithmetic,
so every dense product costs O(r^3) interpreted multiply-adds.
`assert_penrose_sparse` checks the Penrose identities exactly in
O(r * nnz(M)) by walking M's nonzeros, read straight from `M.entries`
rather than through any engine helper, over a common denominator so the
inner loops multiply plain integers.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np

import fiberbeta as fb
from fiberbeta.fiber import MAX_COMPONENTS


def to_float_matrix(M: fb.RatMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in M.entries], dtype=float)


def spectral_pinv(M: fb.RatMatrix) -> np.ndarray:
    return np.linalg.pinv(to_float_matrix(M))


def object_matrix(M: fb.RatMatrix) -> np.ndarray:
    return np.array([list(row) for row in M.entries], dtype=object)


def integer_rows(rows):
    """(A, d): an integer matrix A and an integer d > 0 with rows = A / d."""
    d = math.lcm(*(int(x.denominator) for row in rows for x in row))
    scaled = [[int(x.numerator) * (d // int(x.denominator)) for x in row] for row in rows]
    return scaled, d


def assert_penrose_sparse(M: fb.RatMatrix, mplus, trace, label: str = "") -> None:
    """Assert the exact Penrose identities of M+ against M, using M's sparsity.

    `mplus` is M+ as a sequence of rows and `trace` its claimed trace;
    `label` prefixes every failure message.  Checked exactly, entry by
    entry:

    * M M+ M = M, as (M M+) M: sparse-times-dense, then dense-times-sparse;
    * M+ M = I - J/r;
    * M+ M M+ = M+, as (M+ M) M+ with M+ M already shown equal to I - J/r,
      so it is M+ - J M+ / r and needs no O(r^3) product;
    * zero row sums of M and of M+;
    * diag(M+) - M+ (M diag(M+)) = trace / r.

    Every product walks the nonzeros of M, so the cost is O(r * nnz(M)).
    Both matrices are put over a common denominator, M = A / a and
    M+ = B / b, and each identity is checked multiplied through by a
    nonzero integer, so the products are exact integer arithmetic rather
    than a normalised rational per multiply-add.
    """
    n = M.rows
    A, a = integer_rows(M.entries)
    B, b = integer_rows(mplus)
    rows = [[(j, x) for j, x in enumerate(A[i]) if x] for i in range(n)]
    cols = [[(j, A[j][k]) for j in range(n) if A[j][k]] for k in range(n)]

    def times_m(v):  # dense row v times sparse A
        return [sum(v[j] * x for j, x in col) for col in cols]

    # M M+ M = M  <=>  (A B) A = a b A
    for i in range(n):
        ab_row = [sum(x * B[j][k] for j, x in rows[i]) for k in range(n)]
        assert times_m(ab_row) == [a * b * x for x in A[i]], (
            f"{label}: M M+ M != M in row {i}"
        )
    # M+ M = I - J/r  <=>  r (B A) = a b (r I - J)
    for i in range(n):
        expected = [a * b * ((n if i == k else 0) - 1) for k in range(n)]
        assert [n * x for x in times_m(B[i])] == expected, (
            f"{label}: M+ M != I - J/r in row {i}"
        )
    # (M+ M) M+ = M+ - J M+ / r = M+  <=>  r B - J B = r B
    col_sums = [sum(B[j][k] for j in range(n)) for k in range(n)]
    for i in range(n):
        assert [n * x - c for x, c in zip(B[i], col_sums)] == [n * x for x in B[i]], (
            f"{label}: M+ M M+ != M+ in row {i}"
        )
    assert all(sum(row) == 0 for row in A), f"{label}: row sums of M"
    assert all(sum(row) == 0 for row in B), f"{label}: row sums of M+"
    # diag(M+) - M+ M diag(M+) = trace / r, multiplied through by a b^2
    diag = [B[i][i] for i in range(n)]
    a_diag = [sum(x * diag[j] for j, x in rows[i]) for i in range(n)]
    target = trace * a * b * b / n
    for i in range(n):
        correction = sum(x * y for x, y in zip(B[i], a_diag))
        assert a * b * diag[i] - correction == target, (
            f"{label}: diagonal identity in row {i}"
        )


def min_degree_eliminate(work: list):
    """The elimination of `linalg._eliminate`, choosing each pivot by a
    brute-force `min` over every row left (fewest stored entries, ties by
    index), with the same (steps, left) result and in-place effect."""
    steps, left = [], set(range(len(work)))
    while True:
        i = min(
            (k for k in left if work[k].get(k, 0) != 0),
            key=lambda k: (len(work[k]), k),
            default=None,
        )
        if i is None:
            return steps, left
        d = work[i][i]
        items = [(k, v) for k, v in work[i].items() if k != i]
        factors = {}
        for j, vij in items:
            factors[j] = f = vij / d
            for k, vik in items:
                nv = work[j].get(k, 0) - f * vik
                if nv:
                    work[j][k] = nv
                else:
                    work[j].pop(k, None)
            work[j].pop(i, None)
        steps.append((i, d, factors))
        left.discard(i)


def fraction_grounded_solve(steps, w):
    """G0 w by replaying the grounded factor's steps (i, d_i, {j: L_ji}) in
    Fraction arithmetic, one gcd per multiply-add: the reference for the
    engine's integer replay.  Returns (x, forward) with forward[i] the value
    the forward pass meets at pivot i, before it divides by d_i."""
    x = list(w)
    x[-1] = 0
    forward = {}
    for i, d, factors in steps:
        xi = forward[i] = x[i]
        if xi:
            for j, f in factors.items():
                x[j] = x[j] - f * xi
            x[i] = xi / d
    for i, _, factors in reversed(steps):
        xi = x[i]
        for j, f in factors.items():
            if x[j]:
                xi = xi - f * x[j]
        x[i] = xi
    return x, forward


def fraction_inverse(rows):
    """Gauss-Jordan inverse over Fraction; raises ZeroDivisionError if singular."""
    n = len(rows)
    a = [[Fraction(int(x.numerator), int(x.denominator)) for x in row] for row in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        inv[col] = [x / d for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def fraction_det(rows):
    """Exact determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def psd_by_principal_minors(rows) -> bool:
    """A symmetric matrix is PSD iff every principal minor is >= 0."""
    n = len(rows)
    return all(
        fraction_det([[rows[i][j] for j in subset] for i in subset]) >= 0
        for size in range(1, n + 1)
        for subset in itertools.combinations(range(n), size)
    )


def bordered_pseudoinverse(M: fb.RatMatrix):
    """Reference formula: (M + J/r)^-1 - J/r, computed over Fraction."""
    n = M.rows
    shift = Fraction(1, n)
    rows = [
        [Fraction(int(x.numerator), int(x.denominator)) + shift for x in row]
        for row in M.entries
    ]
    inv = fraction_inverse(rows)
    return [[inv[i][j] - shift for j in range(n)] for i in range(n)]


def limit_document(extra_components: int = 0, extra_entries: int = 0) -> str:
    """A valid fiber document exactly at the size limits, plus any extras.

    A 128-clique with 1872 pendant components spread over it has
    MAX_COMPONENTS = 2000 components and 8128 + 1872 = MAX_INTERSECTIONS
    = 10000 entries.  Every intersection number is 1, self-intersections
    close the fiber relation and all component genera are 0.  Extra
    components are isolated; extra entries join consecutive pendants.
    """
    core, n = 128, MAX_COMPONENTS + extra_components
    pairs = list(itertools.combinations(range(core), 2))
    pairs += [(k % core, k) for k in range(core, MAX_COMPONENTS)]
    pairs += [(core + k, core + k + 1) for k in range(extra_entries)]
    degree = [0] * n
    for i, j in pairs:
        degree[i] += 1
        degree[j] += 1
    return json.dumps({
        "schema_version": 1,
        "name": "limit",
        "genus": len(pairs) - n + 1,  # sum_i (deg_i - 2) = 2g - 2
        "components": [
            {"id": f"C{i}", "multiplicity": 1, "genus": 0, "self_intersection": -degree[i]}
            for i in range(n)
        ],
        "intersections": [{"a": f"C{i}", "b": f"C{j}", "value": 1} for i, j in pairs],
        "horizontal": [{"id": "D", "degree": 1, "incidence": {"C0": 1}}],
    })


def random_fiber(rng: random.Random, max_components: int = 6) -> fb.SpecialFiber:
    """A random valid fiber: spanning tree plus extra edges, derived genera.

    Multiplicities are 1 and intersection numbers are random positive
    integers, so the fiber relation and genus consistency can be arranged
    exactly: self-intersections are set to close the fiber relation, and
    every vertex gets a random arithmetic genus; the fiber genus then
    follows from sum a_i = 2g - 2 (adjusted to stay an integer > 1 by
    bumping one vertex genus).
    """
    n = rng.randint(1, max_components)
    ids = [f"C{i}" for i in range(n)]
    weights = {}
    for i in range(1, n):
        j = rng.randrange(i)
        weights[(j, i)] = rng.randint(1, 3)
    for _ in range(rng.randint(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            key = (min(i, j), max(i, j))
            weights[key] = weights.get(key, 0) + rng.randint(1, 2)
    degree = [0] * n
    for (i, j), w in weights.items():
        degree[i] += w
        degree[j] += w
    genera = [rng.randint(0, 2) for _ in range(n)]
    # sum a_i = sum(degree_i + 2 genus_i - 2) must be even and >= 2
    total = sum(degree) + 2 * sum(genera) - 2 * n
    if total % 2 == 1:
        # impossible for integer weights (sum of degrees is even); guard anyway
        genera[0] += 1
        total += 2
    while total < 2:
        genera[0] += 1
        total += 2
    g = total // 2 + 1
    components = [
        fb.Component(ids[i], 1, genera[i], -degree[i]) for i in range(n)
    ]
    intersections = {(ids[i], ids[j]): w for (i, j), w in weights.items()}
    return fb.SpecialFiber(
        name=f"random({rng.random():.6f})",
        components=components,
        intersections=intersections,
        genus=g,
    )


def random_nonreduced_fiber(rng: random.Random) -> fb.SpecialFiber:
    """A random valid fiber with multiplicities in 1..3.

    Self-intersections close the fiber relation (they come out as
    genuine non-integral rationals when multiplicities mix), and one
    edge weight may be bumped to keep sum w_ij (b_i + b_j) even, which
    an integer genus requires.
    """
    n = rng.randint(2, 6)
    ids = [f"C{i}" for i in range(n)]
    mult = [rng.randint(1, 3) for _ in range(n)]
    weights = {}
    for i in range(1, n):
        j = rng.randrange(i)
        weights[(j, i)] = rng.randint(1, 2)
    for _ in range(rng.randint(0, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            key = (min(i, j), max(i, j))
            weights[key] = weights.get(key, 0) + 1
    parity = sum(w * (mult[i] + mult[j]) for (i, j), w in weights.items()) % 2
    if parity:
        key = next(k for k in weights if (mult[k[0]] + mult[k[1]]) % 2 == 1)
        weights[key] += 1
    load = [fb.rat(0)] * n
    for (i, j), w in weights.items():
        load[i] += mult[j] * w
        load[j] += mult[i] * w
    selfint = [-load[i] / mult[i] for i in range(n)]
    genera = [rng.randint(0, 2) for _ in range(n)]
    total = sum(mult[i] * (-selfint[i] + 2 * genera[i] - 2) for i in range(n))
    while total < 2:
        genera[0] += 1
        total += 2 * mult[0]
    g = int(total) // 2 + 1
    components = [
        fb.Component(ids[i], mult[i], genera[i], selfint[i]) for i in range(n)
    ]
    intersections = {(ids[i], ids[j]): w for (i, j), w in weights.items()}
    return fb.SpecialFiber(
        name=f"nonreduced({rng.random():.6f})",
        components=components,
        intersections=intersections,
        genus=g,
    )


def random_horizontal(
    rng: random.Random, fiber: fb.SpecialFiber, degree, max_support: int = 4
) -> fb.HorizontalIncidence:
    """Random incidence with the given degree and small support."""
    d = fb.rat(degree)
    support = rng.sample(range(fiber.r), k=min(fiber.r, rng.randint(1, max_support)))
    raw = [fb.rat(rng.randint(1, 5)) for _ in support]
    total = sum(raw, fb.rat(0))
    incidence = {fiber.ids[i]: x * d / total for i, x in zip(support, raw)}
    return fb.HorizontalIncidence(
        id=f"rand{rng.randrange(10**6)}", degree=d, incidence=incidence
    )
