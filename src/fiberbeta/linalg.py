"""Exact rational linear algebra for intersection matrices.

The central object is M = (-(b_i Gamma_i . b_j Gamma_j))_ij, a weighted
graph Laplacian whose kernel is spanned by the all-ones vector exactly
when the fiber is connected.  One sparse symmetric elimination,
`_eliminate`, serves both exact decompositions.  It pivots only on nonzero
diagonal entries (fewest stored entries first, ties by index, so runs are
bit-deterministic) and leaves behind the indices it could not pivot.

`pseudoinverse` grounds the last vertex and factors the resulting minor
as L D L^t (an index left over means rank below r-1).  It returns the
factor, not a matrix: `PseudoinverseResult` offers M+ v by one replay of
the factor (`solve`), and the diagonal and the entries on the edges of
the dual graph (`diag`, `edge_entries`) by selected inversion, i.e. the
Takahashi-Fagan-Chin recurrences over the factor's filled pattern
(Erisman-Tinney, CACM 18(3), 1975).  Each piece carries an exact
certificate that costs about as much as the work it checks:

- the factor: L D L^t equals the grounded M entry for entry;
- the selected inverse: the Takahashi equations hold on its pattern;
- every solve: the residual M x = v - mean(v) 1 is zero and sum(x) = 0;
- the edge entries: Foster's identity sum_edges -m_ij r(i, j) = r - 1.

The dense r x r M+ is built only when a caller reads all of it (`mplus`,
or `entry` off the diagonal and the edges, as the all-pairs resistance
table does).  It comes from the same factor, one solve per column, and is
then re-verified against the Penrose data exactly: symmetry, zero row
sums, sum_j n_ij m_jk = delta_ik - 1/r, and the trace identity.  Together
with zero row sums of M these force MM+M = M and M+MM+ = M+.

The solve and Penrose certificates, like the defining-property check of
`divisors.solve_vertical`, run over integers: each vector is put over one
common denominator (`rationals._integer_vector`, the lcm of its
denominators), M over one scale once (`RatMatrix.integer_rows`), and each
identity is multiplied through by these scales, so a check is plain
integer multiply-adds (`_integer_matvec`) with no gcd per step.

`psd_certificate` eliminates the whole matrix: the verdict is the pivot
signs, and a leftover nonzero off-diagonal entry is an indefinite 2x2 minor.

Leaf-heavy fibers (each pendant chain eliminates with no fill-in) factor
in O(edges), and each solve, the selected inversion and their
certificates cost O(fill); only the dense M+ costs O(r^2) entries.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedInput, SingularBeyondKernel
from .fiber import SpecialFiber
from .rationals import ONE, Rat, ZERO, _integer_rows, _integer_vector, rat


@dataclass(frozen=True)
class RatMatrix:
    """Dense immutable matrix of exact rationals."""

    entries: tuple

    def __init__(self, entries):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise MalformedInput("matrix must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise MalformedInput("ragged matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def entry(self, i: int, j: int) -> Rat:
        return self.entries[i][j]

    def row(self, i: int) -> tuple:
        return self.entries[i]

    def is_symmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        e = self.entries
        return all(
            e[j][i] == e[i][j] for i in range(self.rows) for j in self.nonzero_columns[i]
        )

    def row_sums(self) -> tuple:
        return tuple(
            sum((row[j] for j in cols), ZERO)
            for row, cols in zip(self.entries, self.nonzero_columns)
        )

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(min(self.rows, self.cols)))

    def trace(self) -> Rat:
        return sum(self.diagonal(), ZERO)

    def matvec(self, v) -> list:
        return [sum((row[j] * v[j] for j in range(self.cols) if v[j] != 0), ZERO)
                for row in self.entries]

    @cached_property
    def nonzero_columns(self) -> tuple:
        """Per row, the indices of nonzero entries (sparse iteration aid)."""
        return tuple(
            tuple(j for j, x in enumerate(row) if x != 0) for row in self.entries
        )

    @cached_property
    def integer_rows(self) -> tuple:
        """(rows, a): row i lists (j, a m_ij) over its nonzero entries, all
        integers over one common scale a."""
        return _integer_rows(
            [[(j, row[j]) for j in cols] for row, cols in zip(self.entries, self.nonzero_columns)]
        )


def _integer_matvec(rows, x) -> list:
    """sum_j R_ij x_j for each sparse integer row [(j, R_ij)]."""
    return [sum([v * x[j] for j, v in row]) for row in rows]


def _laplacian_row(fiber: SpecialFiber, i: int):
    """The stored entries (j, m_ij) of row i of M, diagonal first."""
    b = fiber.multiplicities
    yield i, -rat(b[i] * b[i]) * fiber.components[i].self_intersection
    for j in fiber.neighbors[i]:
        yield j, -rat(b[i] * b[j]) * fiber.pair_value(i, j)


def _laplacian_row_dot(fiber: SpecialFiber, i: int, y) -> Rat:
    """sum_j m_ij y_j over the sparse row i of M, rebuilt from the fiber."""
    return sum((m * y[j] for j, m in _laplacian_row(fiber, i)), ZERO)


def build_laplacian(fiber: SpecialFiber) -> RatMatrix:
    """M with m_ij = -(b_i Gamma_i . b_j Gamma_j); expects a validated fiber."""
    n = fiber.r
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j, m in _laplacian_row(fiber, i):
            rows[i][j] = m
    M = RatMatrix(rows)
    if any(s != 0 for s in M.row_sums()):
        raise MalformedInput(
            f"fiber {fiber.name!r} violates the fiber relation; validate() it first"
        )
    return M


def _eliminate(work: list, active: set):
    """Sparse symmetric elimination of the rows in `work`, in place.

    `work` holds one {column: nonzero value} dict per row, with a symmetric
    pattern.  The pivot is the active row with a nonzero diagonal and the
    fewest stored entries, ties broken by index.  Returns (ops, pivots):
    ops lists (pivot_index, {j: factor}) in the order applied, pivots the
    matching (index, pivot_value).  Indices that could not be pivoted stay
    in `active`; their rows hold the remaining Schur complement, whose
    diagonal is zero.
    """
    ops = []
    pivots = []
    while True:
        i = min(
            (k for k in active if work[k].get(k, ZERO) != 0),
            key=lambda k: (len(work[k]), k),
            default=None,
        )
        if i is None:
            return ops, pivots
        d = work[i][i]
        factors = {}
        items = [(k, v) for k, v in work[i].items() if k != i]
        for j, vij in items:
            f = vij / d
            factors[j] = f
            wj = work[j]
            for k, vik in items:
                nv = wj.get(k, ZERO) - f * vik
                if nv:
                    wj[k] = nv
                elif k in wj:
                    del wj[k]
            wj.pop(i, None)
        ops.append((i, factors))
        pivots.append((i, d))
        active.discard(i)


def _grounded_factor(M: RatMatrix):
    """Eliminate M without its last row/column; return _eliminate's (ops, pivots).

    Raises SingularBeyondKernel when an index cannot be pivoted, which
    under zero row sums and symmetry means ker M is larger than span(1).
    """
    last = M.rows - 1
    work = [
        {j: M.entries[i][j] for j in M.nonzero_columns[i] if j != last}
        for i in range(last)
    ]
    active = set(range(last))
    ops, pivots = _eliminate(work, active)
    if active:
        raise SingularBeyondKernel(
            f"rank below r-1 (zero pivot at index {min(active)}); fiber is disconnected"
        )
    return ops, pivots


def _grounded_solve(ops, pivots, w) -> list:
    """G0 w with G0 the grounded inverse padded by a zero last row/column.

    Replays the recorded elimination on w's first r-1 entries; the last
    entry of the result is zero.
    """
    x = list(w)
    x[-1] = ZERO
    for i, factors in ops:
        xi = x[i]
        if xi:
            for j, f in factors.items():
                x[j] = x[j] - f * xi
    for i, d in pivots:
        if x[i]:
            x[i] = x[i] / d
    for i, factors in reversed(ops):
        xi = x[i]
        for j, f in factors.items():
            if x[j]:
                xi = xi - f * x[j]
        x[i] = xi
    return x


def _verify_factor(M: RatMatrix, ops, pivots) -> None:
    """L D L^t, summed over the factor's pattern, equals the grounded M exactly."""
    last = M.rows - 1
    ldl = [{} for _ in range(last)]
    for (i, factors), (_, d) in zip(ops, pivots):
        col = [(i, ONE), *factors.items()]
        for j, lj in col:
            dl = d * lj
            row = ldl[j]
            for k, lk in col:
                row[k] = row.get(k, ZERO) + dl * lk
    for j in range(last):
        want = {k: M.entries[j][k] for k in M.nonzero_columns[j] if k != last}
        if {k: v for k, v in ldl[j].items() if v} != want:
            raise AssertionError(f"factor certificate: row {j} of L D L^t != grounded M")


def _filled_pattern(ops) -> dict:
    """Per pivot i, the later indices j at which selected inversion computes G_ij.

    The numeric factor pattern, closed under the elimination tree (each
    column's pattern joins its parent's), so an entry cancelled to zero
    during elimination still gets its G_ij.
    """
    rank = {i: k for k, (i, _) in enumerate(ops)}
    pattern = {i: set(factors) for i, factors in ops}
    for i, _ in ops:
        below = pattern[i]
        if below:
            parent = min(below, key=rank.__getitem__)
            pattern[parent] |= below - {parent}
    return pattern


def _selected_inverse(ops, pivots) -> dict:
    """G = (grounded M)^-1 on the filled pattern, as {i: {j: G_ij}} per row.

    Takahashi-Fagan-Chin recurrences in reverse pivot order, with
    L_ji = factors[j] and D_ii = d:
        G_ji = -sum_k G_jk L_ki  (j later than i),
        G_ii = 1/d - sum_k L_ki G_ki.
    """
    pattern = _filled_pattern(ops)
    g = {}
    for (i, factors), (_, d) in zip(reversed(ops), reversed(pivots)):
        gi = {}
        for j in pattern[i]:
            gj = g[j]
            gi[j] = -sum((gj[k] * f for k, f in factors.items()), ZERO)
            gj[i] = gi[j]
        gi[i] = ONE / d - sum((f * gi[k] for k, f in factors.items()), ZERO)
        g[i] = gi
    return g


def _verify_selected(ops, pivots, g) -> None:
    """The Takahashi equations (G L)_ji = [j = i]/d_i on every stored G_ji.

    G L = L^-t D^-1 is upper triangular, so for j not before i in pivot
    order its (j, i) entry is 1/d_i on the diagonal and zero below it.
    Each entry is checked once, with its mirror G_ij.
    """
    done = set()
    for (i, factors), (_, d) in zip(ops, pivots):
        done.add(i)
        for j, gji in g[i].items():
            if j in done and j != i:
                continue  # the mirror of an entry checked at pivot j
            gj = g[j]
            s = gji + sum((gj[k] * f for k, f in factors.items()), ZERO)
            if s != (ONE / d if j == i else ZERO) or gj[i] != gji:
                raise AssertionError(
                    f"selected inverse certificate: (G L)[{j},{i}] = {s}"
                )


def _verify_solve(M: RatMatrix, W, dw, Y, dy) -> None:
    """y = Y / dy solves M y = w for w = W / dw, and sum(y) = 0, exactly.

    With M = A / a the residual check is dw (A Y)_i = a dy W_i over integers.
    """
    rows, a = M.integer_rows
    ady = a * dy
    for i, s in enumerate(_integer_matvec(rows, Y)):
        if dw * s != ady * W[i]:
            raise AssertionError(f"solve certificate: (M y)[{i}] != w[{i}]")
    if sum(Y) != 0:
        raise AssertionError("solve certificate: sum(y) != 0")


def _verify_penrose(M: RatMatrix, mp: RatMatrix, trace: Rat) -> None:
    """Exact postcondition check of a dense M+; failures mean an implementation bug.

    Runs over integers on B = b M+ and M = A / a (M symmetric, so A's
    rows are its columns): symmetry and zero row sums of B,
    r (B A)_ik = a b (r delta_ik - 1), and the trace identity
    diag(M+) - M+ M diag(M+) = trace / r multiplied through by a b^2 r.
    """
    n = M.rows
    rows, a = M.integer_rows
    flat, b = _integer_vector([x for row in mp.entries for x in row])
    B = [flat[i * n:(i + 1) * n] for i in range(n)]
    if [list(col) for col in zip(*B)] != B:
        raise AssertionError("pseudoinverse postcondition: symmetry")
    if any(sum(row) for row in B):
        raise AssertionError("pseudoinverse postcondition: row sums")
    ab = a * b
    expect = [-ab] * n
    for i in range(n):
        expect[i] = ab * (n - 1)
        prod = [n * s for s in _integer_matvec(rows, B[i])]
        if prod != expect:
            k = next(k for k in range(n) if prod[k] != expect[k])
            raise AssertionError(
                f"pseudoinverse postcondition: (M+ M)[{i},{k}] = {rat(prod[k], n * ab)}"
            )
        expect[i] = -ab
    diag = [B[i][i] for i in range(n)]
    md = _integer_matvec(rows, diag)  # a b M diag(M+)
    scale = n * trace.denominator
    target = ab * b * trace.numerator
    for i in range(n):
        if scale * (ab * diag[i] - sum(map(operator.mul, B[i], md))) != target:
            raise AssertionError(f"pseudoinverse postcondition: trace identity at {i}")


class PseudoinverseResult:
    """M+ of a symmetric zero-row-sum M with kernel span(1), held as a factor.

    The grounded factor (ops, pivots) of M with its last row and column
    removed gives G0, the grounded inverse padded with zeros, and
    M+ = (I - J/r) G0 (I - J/r).  With y = M+ e_last this reads
    M+_ij = G0_ij + y_i + y_j - y_last, so the diagonal and the edge
    entries need only G on the factor's pattern plus one solve.
    """

    def __init__(self, M: RatMatrix, ops, pivots):
        self._M = M
        self._ops = ops
        self._pivots = pivots
        self.r = M.rows
        self.rank = self.r - 1 if self.r > 1 else 0
        self.kernel_certificate = ((ONE,) * self.r,)

    def solve(self, v) -> list:
        """M+ v, with the exact residual certificate M (M+ v) = v - mean(v) 1."""
        r = self.r
        V, dv = _integer_vector([rat(x) for x in v])
        total = sum(V)
        W, dw = [r * x - total for x in V], r * dv  # w = v - mean(v) 1 = W / dw
        x = _grounded_solve(self._ops, self._pivots, [rat(x, dw) for x in W])
        X, dx = _integer_vector(x)
        total = sum(X)
        Y, dy = [r * x - total for x in X], r * dx  # y = x - mean(x) 1 = Y / dy
        _verify_solve(self._M, W, dw, Y, dy)
        return [rat(x, dy) for x in Y]

    @cached_property
    def _selected(self) -> dict:
        g = _selected_inverse(self._ops, self._pivots)
        _verify_selected(self._ops, self._pivots, g)
        return g

    @cached_property
    def _last_column(self) -> list:
        return self.solve([ZERO] * (self.r - 1) + [ONE])

    def _g0(self, i: int, j: int) -> Rat:
        return self._selected.get(i, {}).get(j, ZERO)

    @cached_property
    def _diagonal(self) -> tuple:
        y = self._last_column
        return tuple(self._g0(i, i) + 2 * y[i] - y[-1] for i in range(self.r))

    def diag(self) -> tuple:
        """(n_11, ..., n_rr) by selected inversion."""
        return self._diagonal

    @cached_property
    def _edges(self) -> dict:
        y, M = self._last_column, self._M
        edges = {
            (i, j): self._g0(i, j) + y[i] + y[j] - y[-1]
            for i in range(self.r)
            for j in M.nonzero_columns[i]
            if i < j
        }
        # Foster's identity: sum over edges of -m_ij r(i, j) equals rank M
        diag = self.diag()
        foster = sum(
            (-M.entries[i][j] * (diag[i] + diag[j] - 2 * nij) for (i, j), nij in edges.items()),
            ZERO,
        )
        if foster != self.rank:
            raise AssertionError(f"Foster certificate: sum -m_ij r_ij = {foster}, not {self.rank}")
        return edges

    def edge_entries(self) -> dict:
        """{(i, j): n_ij} for i < j with m_ij != 0, by selected inversion."""
        return self._edges

    @cached_property
    def trace(self) -> Rat:
        return sum(self.diag(), ZERO)

    @cached_property
    def mplus(self) -> RatMatrix:
        """The dense M+, built column by column from the same factor and
        verified against the Penrose identities."""
        n, y = self.r, self._last_column
        entries = []
        for c in range(n):
            unit = [ONE if k == c else ZERO for k in range(n)]
            g = _grounded_solve(self._ops, self._pivots, unit)
            entries.append([g[k] + y[c] + y[k] - y[-1] for k in range(n)])
        mplus = RatMatrix(entries)
        _verify_penrose(self._M, mplus, self.trace)
        return mplus

    def entry(self, i: int, j: int) -> Rat:
        """n_ij: from the factor on the diagonal and on edges, else from the dense M+."""
        if i == j:
            return self.diag()[i]
        e = self.edge_entries().get((min(i, j), max(i, j)))
        return self.mplus.entry(i, j) if e is None else e


def pseudoinverse(M: RatMatrix) -> PseudoinverseResult:
    """M+ for a symmetric zero-row-sum M with kernel span(1), as a lazy factor.

    Raises SingularBeyondKernel when rank < r-1 (disconnected fiber).  The
    factor is certified here; each quantity read from it carries its own
    exact certificate (see the module docstring).
    """
    if M.rows != M.cols or not M.is_symmetric():
        raise MalformedInput("pseudoinverse needs a symmetric square matrix")
    if any(s != 0 for s in M.row_sums()):
        raise MalformedInput("pseudoinverse needs zero row sums")
    ops, pivots = _grounded_factor(M)
    _verify_factor(M, ops, pivots)
    return PseudoinverseResult(M, ops, pivots)


def effective_resistance(P: PseudoinverseResult, i: int, j: int) -> Rat:
    """r(Gamma_i, Gamma_j) = n_ii + n_jj - 2 n_ij on the metrized dual graph."""
    n = P.r
    if not (0 <= i < n and 0 <= j < n):
        raise MalformedInput(f"resistance indices ({i}, {j}) out of range")
    return P.entry(i, i) + P.entry(j, j) - 2 * P.entry(i, j)


@dataclass(frozen=True)
class PsdCertificate:
    """Outcome of an exact congruence decomposition of a symmetric matrix."""

    is_psd: bool
    pivots: tuple
    witness: str = ""


def psd_certificate(M: RatMatrix) -> PsdCertificate:
    """Exact LDL^t-style certificate of positive semidefiniteness.

    The shared elimination pivots only on nonzero diagonal entries.  A
    remaining block with zero diagonal and a nonzero off-diagonal entry
    exhibits an indefinite 2x2 minor; a zero remaining block is kernel.
    Otherwise the verdict is True iff every pivot is positive.
    """
    if M.rows != M.cols or not M.is_symmetric():
        raise MalformedInput("psd_certificate needs a symmetric square matrix")
    work = [{j: M.entries[i][j] for j in M.nonzero_columns[i]} for i in range(M.rows)]
    active = set(range(M.rows))
    _, steps = _eliminate(work, active)
    pivots = tuple(d for _, d in steps)
    for k in sorted(active):
        if work[k]:
            j, v = min(work[k].items())
            witness = f"indefinite 2x2 minor at ({k},{j}): [[0, {v}], [{v}, 0]]"
            return PsdCertificate(False, pivots, witness)
    negative = [p for p in pivots if p < 0]
    witness = f"negative pivot {negative[0]}" if negative else ""
    return PsdCertificate(not negative, pivots, witness)
