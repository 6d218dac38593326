"""Exact rational linear algebra for intersection matrices.

The central object is M = (-(b_i Gamma_i . b_j Gamma_j))_ij, a weighted
graph Laplacian whose kernel is spanned by the all-ones vector exactly
when the fiber is connected.  One sparse symmetric elimination,
`_eliminate`, serves both exact decompositions.  It pivots only on nonzero
diagonal entries (fewest stored entries first, ties by index, so runs are
bit-deterministic) and leaves behind the indices it could not pivot.

`pseudoinverse` grounds the last vertex, eliminates the resulting minor
(an index left over means rank below r-1), solves for every column of the
grounded inverse G and projects M+ = (I - J/r) G (I - J/r).  Rather than
trusting that this is the Moore-Penrose pseudoinverse, every call
re-verifies the Penrose data exactly: symmetry, zero row sums,
sum_j n_ij m_jk = delta_ik - 1/r, and the trace identity.  Together with
zero row sums of M these identities force MM+M = M and M+MM+ = M+.
`psd_certificate` eliminates the whole matrix: the verdict is the pivot
signs, and a leftover nonzero off-diagonal entry is an indefinite 2x2 minor.

Leaf-heavy fibers (each pendant chain eliminates with no fill-in) factor
in O(edges); the dense M+ costs O(r^2) entries to solve, project and
verify.  On the fractions.Fraction backend, pseudoinverse on the
451-component fermat(31,14) takes about 15 s, of which the factor is 0.1 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedInput, SingularBeyondKernel
from .fiber import SpecialFiber
from .rationals import ONE, Rat, ZERO, rat


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
        return all(e[i][j] == e[j][i] for i in range(self.rows) for j in range(i))

    def row_sums(self) -> tuple:
        return tuple(sum(row, ZERO) for row in self.entries)

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


@dataclass(frozen=True)
class PseudoinverseResult:
    """Exact Moore-Penrose pseudoinverse with rank and kernel certificates."""

    mplus: RatMatrix
    trace: Rat
    rank: int
    kernel_certificate: tuple  # basis vectors of ker M

    def entry(self, i: int, j: int) -> Rat:
        return self.mplus.entry(i, j)

    @property
    def r(self) -> int:
        return self.mplus.rows


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


def _grounded_column(ops, pivots, n: int, col: int) -> list:
    """Solve (grounded M) x = e_col by replaying the recorded operations."""
    x = [ZERO] * n
    x[col] = rat(1)
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


def _verify_penrose(M: RatMatrix, P: PseudoinverseResult) -> None:
    """Exact postcondition check; failures mean an implementation bug."""
    n = M.rows
    mp = P.mplus
    if not mp.is_symmetric():
        raise AssertionError("pseudoinverse postcondition: symmetry")
    if any(s != 0 for s in mp.row_sums()):
        raise AssertionError("pseudoinverse postcondition: row sums")
    minus_inv_r = rat(-1, n)
    for k in range(n):
        cols = M.nonzero_columns[k]
        mk = M.entries[k]
        for i in range(n):
            row = mp.entries[i]
            s = sum((row[j] * mk[j] for j in cols), ZERO)
            expect = minus_inv_r + (1 if i == k else 0)
            if s != expect:
                raise AssertionError(
                    f"pseudoinverse postcondition: (M+ M)[{i},{k}] = {s}"
                )
    diag = mp.diagonal()
    md = M.matvec(list(diag))
    target = P.trace / n
    for i in range(n):
        row = mp.entries[i]
        s = diag[i] - sum((row[j] * md[j] for j in range(n) if md[j] != 0), ZERO)
        if s != target:
            raise AssertionError(f"pseudoinverse postcondition: trace identity at {i}")


def pseudoinverse(M: RatMatrix) -> PseudoinverseResult:
    """Exact M+ for a symmetric zero-row-sum M with kernel span(1).

    Raises SingularBeyondKernel when rank < r-1 (disconnected fiber).
    The returned data satisfies the Penrose axioms exactly; this is
    re-verified on every call, not assumed.
    """
    n = M.rows
    if M.rows != M.cols or not M.is_symmetric():
        raise MalformedInput("pseudoinverse needs a symmetric square matrix")
    if any(s != 0 for s in M.row_sums()):
        raise MalformedInput("pseudoinverse needs zero row sums")
    ops, pivots = _grounded_factor(M)
    columns = [_grounded_column(ops, pivots, n - 1, c) for c in range(n - 1)]
    # project: M+ = (I - J/n) G (I - J/n) with G the zero-padded grounded inverse
    row_sums = [sum(col, ZERO) for col in columns] + [ZERO]
    total = sum(row_sums, ZERO)
    inv_n = rat(1, n)
    shift = total * inv_n * inv_n
    entries = []
    for i in range(n):
        gi = columns[i] if i < n - 1 else None
        ri = row_sums[i] * inv_n
        row = []
        for j in range(n):
            gij = gi[j] if (gi is not None and j < n - 1) else ZERO
            row.append(gij - ri - row_sums[j] * inv_n + shift)
        entries.append(row)
    mplus = RatMatrix(entries)
    result = PseudoinverseResult(
        mplus=mplus,
        trace=mplus.trace(),
        rank=n - 1 if n > 1 else 0,
        kernel_certificate=((ONE,) * n,),
    )
    _verify_penrose(M, result)
    return result


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
