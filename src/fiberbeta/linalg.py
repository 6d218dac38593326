"""Exact rational linear algebra for intersection matrices.

The central object is M = (-(b_i Gamma_i . b_j Gamma_j))_ij, a weighted
graph Laplacian whose kernel is spanned by the all-ones vector exactly
when the fiber is connected.  M is stored as sparse rows, and one sparse
symmetric elimination, `_eliminate`, serves both exact decompositions.  It
pivots only on nonzero diagonal entries (fewest stored entries first, ties
by index, kept in a heap, so runs are bit-deterministic), records one
step (i, d_i, {j: L_ji}) per pivot, and leaves behind the indices it
could not pivot.

`pseudoinverse` grounds the last vertex and factors the resulting minor
as L D L^t (an index left over means rank below r-1).  It returns the
factor, not a matrix: `PseudoinverseResult` offers M+ v by one replay of
the factor (`solve`), and the diagonal and the entries on the edges of
the dual graph (`diag`, `edge_entries`) by selected inversion, i.e. the
Takahashi-Fagan-Chin recurrences over the factor's filled pattern
(Erisman-Tinney, CACM 18(3), 1975).  Any other n_ij comes from column i
of M+, one solve, as do the rows streamed by `resistance_rows`.  Each piece
carries an exact certificate that costs about as much as the work it checks:

- the factor: L D L^t equals the grounded M entry for entry, over integers;
- the selected inverse: (G M)_ij = [i = j], read from M, at each stored
  G_ij whose column j of M lies in row i's pattern (every diagonal entry
  does), which pins each row where every stored entry qualifies; every
  other row satisfies the Takahashi equations of the certified factor and
  equals its mirror, and together these fix G on its whole pattern;
- every solve: the residual M x = v - mean(v) 1 is zero and sum(x) = 0;
- the edge entries: (M+ M)_ii = 1 - 1/r for every i, a sum over row i of
  M that reads only n_ii and the entries on i's edges.  Summed over i this
  is Foster's identity sum_edges -m_ij r(i, j) = r - 1, which one wrong
  entry can offset by another.

The factor keeps the M it was built from as `P.M`.  The closed forms in
`invariants` and `divisors` read its stored rows, M diag by `RatMatrix.matvec`,
and never rebuild M from the fiber.

The dense M (`RatMatrix.entries`) and the dense M+ (`mplus`, one column
solve per column) are reference views that no production path reads.  M+
is re-verified against the Penrose data exactly: symmetry, zero row sums,
sum_j n_ij m_jk = delta_ik - 1/r, and the trace identity.  Together with
zero row sums of M these force MM+M = M and M+MM+ = M+.

The solve, selected-inverse and Penrose certificates, like the check of
V_D's defining equations in `divisors`, run over integers: each vector
is put over one common denominator (`rationals._integer_vector`, the lcm
of its denominators), M over one scale once (`RatMatrix.integer_rows`),
and each identity is multiplied through by these scales, so a check is
plain integer multiply-adds (`_integer_matvec`) with no gcd per step.

The two replays of the factor that cost the most run over integers too.
The factor is turned once into integer columns (`_integer_columns`):
(i, dn_i, dd_i, c_i, [(j, F_ji)]) with d_i = dn_i / dd_i, L_ji = F_ji / c_i
and c_i the lcm of column i's denominators.  `_verify_factor` certifies
exactly these columns, and `_grounded_solve` replays them with a gcd per
pivot, not per entry:

- forward, the pending entries share one denominator t; at pivot i, when
  c_i does not divide Z_i, they and t are scaled by c_i / gcd(c_i, Z_i),
  so each update Z_j -= F_ji (Z_i / c_i) is exact;
- backward, the finished entries share one denominator s; x_i, once
  reduced, scales them and s by whatever denominator it has beyond s, so
  s ends as the lcm of the solution's denominators.

This is not fraction-free (Bareiss) elimination: the elimination itself,
the selected inverse and its Takahashi check stay in Fraction, and the
common denominators are those of the exact values (s has at most 13 bits
on VII(50,50,51) and 7 on fermat(61,29)), where Bareiss minors of a clique
Laplacian grow to about 1000 bits at r = 139.

`psd_certificate` eliminates the whole matrix: the verdict is the pivot
signs, and a leftover nonzero off-diagonal entry is an indefinite 2x2 minor.

Leaf-heavy fibers (each pendant chain eliminates with no fill-in) factor
in O(edges); building M, each solve, the selected inversion and their
certificates cost O(r + fill).
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from functools import cached_property

from .errors import MalformedInput, SingularBeyondKernel, WorkLimitExceeded
from .fiber import MAX_ELIMINATION_WORK, SpecialFiber
from .rationals import ONE, Rat, ZERO, _integer_rows, _integer_vector, rat


class RatMatrix:
    """Immutable matrix of exact rationals: `sparse_rows[i]` holds row i's
    nonzero entries as {j: x}, keys sorted.  Built from dense rows, or from
    the stored rows by `from_sparse_rows`; `entries` is the dense view.
    `fiber` is the fiber whose M this is, when `build_laplacian` built it."""

    fiber = None

    def __init__(self, entries):
        rows = tuple(tuple(rat(x) for x in row) for row in entries)
        if not rows or not rows[0]:
            raise MalformedInput("matrix must be nonempty")
        if any(len(row) != len(rows[0]) for row in rows):
            raise MalformedInput("ragged matrix")
        self.sparse_rows = tuple({j: x for j, x in enumerate(row) if x} for row in rows)
        self.cols = len(rows[0])
        self.entries = rows

    @classmethod
    def from_sparse_rows(cls, rows, cols: int) -> "RatMatrix":
        M = cls.__new__(cls)
        M.sparse_rows = tuple(rows)
        M.cols = cols
        return M

    @cached_property
    def entries(self) -> tuple:
        return tuple(
            tuple(row.get(j, ZERO) for j in range(self.cols)) for row in self.sparse_rows
        )

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    def entry(self, i: int, j: int) -> Rat:
        return self.sparse_rows[i].get(j, ZERO)

    def is_symmetric(self) -> bool:
        rows = self.sparse_rows
        return self.rows == self.cols and all(
            rows[j].get(i) == x for i, row in enumerate(rows) for j, x in row.items()
        )

    def row_sums(self) -> tuple:
        return tuple(sum(row.values(), ZERO) for row in self.sparse_rows)

    def diagonal(self) -> tuple:
        return tuple(self.entry(i, i) for i in range(min(self.rows, self.cols)))

    def trace(self) -> Rat:
        return sum(self.diagonal(), ZERO)

    def matvec(self, v) -> list:
        return [sum((x * v[j] for j, x in row.items()), ZERO) for row in self.sparse_rows]

    @cached_property
    def integer_rows(self) -> tuple:
        """(rows, a): row i lists (j, a m_ij) over its nonzero entries, all
        integers over one common scale a."""
        return _integer_rows([row.items() for row in self.sparse_rows])


def _integer_matvec(rows, x) -> list:
    """sum_j R_ij x_j for each sparse integer row [(j, R_ij)]."""
    return [sum([v * x[j] for j, v in row]) for row in rows]


def build_laplacian(fiber: SpecialFiber) -> RatMatrix:
    """M with m_ij = -(b_i Gamma_i . b_j Gamma_j); expects a validated fiber."""
    b = fiber.multiplicities
    rows = [
        {j: m for j, v in row.items() if (m := -rat(b[i] * b[j]) * v)}
        for i, row in enumerate(fiber.pairing_rows)
    ]
    M = RatMatrix.from_sparse_rows(rows, fiber.r)
    if any(s != 0 for s in M.row_sums()):
        raise MalformedInput(
            f"fiber {fiber.name!r} violates the fiber relation; validate() it first"
        )
    M.fiber = fiber
    return M


def _eliminate(work: list):
    """Sparse symmetric elimination of the rows in `work`, in place.

    `work` holds one {column: nonzero value} dict per row, with a symmetric
    pattern.  The pivot is the row left with a nonzero diagonal and the
    fewest stored entries, ties broken by index.  Returns (steps, left):
    steps lists (i, d_i, {j: L_ji}) in pivot order, left the indices that
    could not be pivoted; their rows hold the remaining Schur complement,
    whose diagonal is zero.  A pivot whose row holds k other entries makes
    k^2 updates; past MAX_ELIMINATION_WORK of them in all it raises
    WorkLimitExceeded.
    """
    left = set(range(len(work)))
    steps = []
    work_done = 0
    # (len(row), index) of every pivotable row; an entry that no longer
    # matches its row is stale and skipped, and each row an elimination
    # step touches is pushed again
    heap = [(len(row), k) for k, row in enumerate(work) if row.get(k)]
    heapq.heapify(heap)
    while heap:
        n, i = heapq.heappop(heap)
        wi = work[i]
        if i not in left or len(wi) != n or not wi.get(i):
            continue
        d = wi[i]
        factors = {}
        items = [(k, v) for k, v in wi.items() if k != i]
        work_done += len(items) ** 2
        if work_done > MAX_ELIMINATION_WORK:
            raise WorkLimitExceeded(
                f"eliminating M needs more than {MAX_ELIMINATION_WORK} entry updates, "
                f"the limit; stopped after {len(steps)} pivots"
            )
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
            if wj.get(j):
                heapq.heappush(heap, (len(wj), j))
        steps.append((i, d, factors))
        left.discard(i)
    return steps, left


def _grounded_factor(M: RatMatrix) -> list:
    """Eliminate M without its last row/column; return _eliminate's steps.

    Raises SingularBeyondKernel when an index cannot be pivoted, which
    under zero row sums and symmetry means ker M is larger than span(1).
    """
    last = M.rows - 1
    work = [{j: x for j, x in row.items() if j != last} for row in M.sparse_rows[:last]]
    steps, left = _eliminate(work)
    if left:
        raise SingularBeyondKernel(
            f"rank below r-1 (zero pivot at index {min(left)}); fiber is disconnected"
        )
    return steps


def _integer_columns(steps) -> list:
    """The factor over integers: (i, dn_i, dd_i, c_i, [(j, F_ji)]) per step,
    with d_i = dn_i / dd_i, L_ji = F_ji / c_i and c_i the lcm of the
    denominators in column i, all plain ints."""
    columns = []
    for i, d, factors in steps:
        c = math.lcm(*(int(f.denominator) for f in factors.values()))
        col = [(j, int(f.numerator) * (c // int(f.denominator))) for j, f in factors.items()]
        columns.append((i, int(d.numerator), int(d.denominator), c, col))
    return columns


def _grounded_solve(columns, W) -> tuple:
    """(X, s) with G0 W = X / s for integers W, G0 the grounded inverse
    padded by a zero last row/column, and s the lcm of the denominators.

    The forward pass keeps the pending nonzero entries z = Z / t; at pivot
    i it scales them and t by c_i / gcd(c_i, Z_i) when c_i does not divide
    Z_i, so that z_j -= L_ji z_i is Z_j -= F_ji (Z_i / c_i), and it records
    u_i = z_i / d_i.  The backward pass reads x_i = u_i - sum_j L_ji x_j
    over the finished X / s and scales them by whatever denominator x_i
    has beyond s, so gcd(s, X) stays 1 and s ends as the lcm.
    """
    pending = {j: int(x) for j, x in enumerate(W[:-1]) if x}
    t = 1
    u = []
    for i, dn, dd, c, col in columns:
        z = pending.pop(i, 0)
        if not z:
            u.append((0, 1))
            continue
        if z % c:
            q = c // math.gcd(c, z)
            for j in pending:
                pending[j] *= q
            z *= q
            t *= q
        k = z // c
        for j, f in col:
            pending[j] = pending.get(j, 0) - f * k
        num, den = z * dd, t * dn
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        u.append((num // g, den // g))
    X = [0] * len(W)
    s = 1
    for (i, _, _, c, col), (un, ud) in zip(reversed(columns), reversed(u)):
        num = s * un * c - sum([f * X[j] for j, f in col]) * ud
        den = ud * c
        if den != 1:
            g = math.gcd(num, den)
            num //= g
            if g != den:
                den //= g
                s *= den
                X = [x * den for x in X]
        X[i] = num
    return X, s


def _verify_factor(M: RatMatrix, columns) -> None:
    """L D L^t, summed over the factor's pattern, equals the grounded M exactly.

    Over integers, for the columns (i, dn_i, dd_i, c_i, F) the solves read
    and M = A / a: with e_j the lcm of dd_i c_i^2 over the columns i that
    hold row j (column i holds i, with F_ii = c_i),
    sum_i dn_i F_ji F_ki (e_j a / (dd_i c_i^2)) = e_j A_jk.
    """
    rows, a = M.integer_rows
    a = int(a)
    last = M.rows - 1
    full = [(dn, dd * c * c, [(i, c), *col]) for i, dn, dd, c, col in columns]
    e = [1] * last
    for _, w, col in full:
        for j, _ in col:
            e[j] = math.lcm(e[j], w)
    ldl = [{} for _ in range(last)]
    for dn, w, col in full:
        for j, fj in col:
            scale = dn * fj * (e[j] * a // w)
            row = ldl[j]
            for k, fk in col:
                row[k] = row.get(k, 0) + scale * fk
    for j in range(last):
        want = {k: x * e[j] for k, x in rows[j] if k != last}
        if {k: v for k, v in ldl[j].items() if v} != want:
            raise AssertionError(f"factor certificate: row {j} of L D L^t != grounded M")


def _filled_pattern(steps) -> dict:
    """Per pivot i, the later indices j at which selected inversion computes G_ij.

    The numeric factor pattern, closed under the elimination tree (each
    column's pattern joins its parent's), so an entry cancelled to zero
    during elimination still gets its G_ij.
    """
    rank = {i: k for k, (i, _, _) in enumerate(steps)}
    pattern = {i: set(factors) for i, _, factors in steps}
    for below in pattern.values():
        if below:
            parent = min(below, key=rank.__getitem__)
            pattern[parent] |= below - {parent}
    return pattern


def _selected_inverse(steps) -> dict:
    """G = (grounded M)^-1 on the filled pattern, as {i: {j: G_ij}} per row.

    Takahashi-Fagan-Chin recurrences in reverse pivot order, with
    L_ji = factors[j] and D_ii = d:
        G_ji = -sum_k G_jk L_ki  (j later than i),
        G_ii = 1/d - sum_k L_ki G_ki.
    """
    pattern = _filled_pattern(steps)
    g = {}
    for i, d, factors in reversed(steps):
        gi = {}
        for j in pattern[i]:
            gj = g[j]
            gi[j] = -sum((gj[k] * f for k, f in factors.items()), ZERO)
            gj[i] = gi[j]
        gi[i] = ONE / d - sum((f * gi[k] for k, f in factors.items()), ZERO)
        g[i] = gi
    return g


def _verify_selected(M: RatMatrix, g) -> set:
    """(G M)_ij = [i = j] for the grounded G and M at each stored G_ij whose
    column j of M meets only rows k with G_ik stored.  Over integers: with
    row i of G = H / h and M = A / a, sum_k H_ik A_kj = [i = j] h a.

    A row that qualifies at every stored j is exact: its error e has
    e M_P = 0 for M_P, M on the row's pattern, a principal minor of the
    grounded Laplacian and so definite.  Returns the other rows.
    """
    rows, a = M.integer_rows
    last = M.rows - 1
    partial = set()
    for i, gi in g.items():
        H, h = _integer_vector(list(gi.values()))
        hi = dict(zip(gi, H))
        for j in gi:
            try:
                s = sum([hi[k] * v for k, v in rows[j] if k != last])
            except KeyError:
                partial.add(i)
                continue  # column j of M leaves row i's pattern
            if s != (h * a if i == j else 0):
                raise AssertionError(
                    f"selected inverse certificate: (G M)[{i},{j}] = {rat(s, h * a)}"
                )
    return partial


def _verify_takahashi(steps, g, partial) -> None:
    """G_ij = G_ji, and on the rows `_verify_selected` could not pin (each
    row j in `partial`) the Takahashi equations (G L)_ji = [j = i]/d_i at
    every stored G_ji with i not after j in pivot order.  With the certified
    factor and the exact rows these fix G on its whole pattern: taken in
    reverse pivot order, each equation reads only entries already fixed."""
    done = set()
    for i, d, factors in steps:
        done.add(i)
        for j, gji in g[i].items():
            if j in done and j != i:
                continue  # the mirror of an entry checked at pivot j
            gj = g[j]
            if gj[i] != gji:
                raise AssertionError(f"selected inverse certificate: G[{j},{i}] != G[{i},{j}]")
            if j not in partial:
                continue
            s = gji + sum((gj[k] * f for k, f in factors.items()), ZERO)
            if s != (ONE / d if j == i else ZERO):
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

    The grounded factor (the elimination steps) of M with its last row and column
    removed gives G0, the grounded inverse padded with zeros, and
    M+ = (I - J/r) G0 (I - J/r).  With y = M+ e_last this reads
    M+_ij = G0_ij + y_i + y_j - y_last, so the diagonal and the edge
    entries need only G on the factor's pattern plus one solve.
    """

    def __init__(self, M: RatMatrix, steps):
        self.M = M
        self._steps = steps
        self._columns = _integer_columns(steps)
        self.r = M.rows
        self.rank = self.r - 1 if self.r > 1 else 0
        self.kernel_certificate = ((ONE,) * self.r,)

    def solve(self, v) -> list:
        """M+ v, with the exact residual certificate M (M+ v) = v - mean(v) 1."""
        Y, dy = self.solve_integers(*_integer_vector([rat(x) for x in v]))
        return [rat(y, dy) for y in Y]

    def solve_integers(self, W, dw) -> tuple:
        """(Y, dy) with M+ w = Y / dy for integers W and w = W / dw: the
        certified integer core of `solve`, for callers that keep working
        over one common denominator."""
        r = self.r
        total = sum(W)
        if total:
            W, dw = [r * x - total for x in W], r * dw  # w - mean(w) 1
        X, dx = _grounded_solve(self._columns, W)
        total = sum(X)
        Y, dy = [r * x - total for x in X], r * dx * dw  # y = (x - mean(x) 1) / dw
        _verify_solve(self.M, W, dw, Y, dy)
        return Y, dy

    @cached_property
    def _selected(self) -> dict:
        g = _selected_inverse(self._steps)
        _verify_takahashi(self._steps, g, _verify_selected(self.M, g))
        return g

    @cached_property
    def _last_integers(self) -> tuple:
        """(L, dl) with M+ e_last = L / dl."""
        return self.solve_integers([0] * (self.r - 1) + [1], 1)

    def _column(self, c: int) -> tuple:
        """(C, dc) with M+ e_c = C / dc: one certified solve on e_c - e_last,
        whose forward replay stays sparse, plus M+ e_last."""
        w = [0] * self.r
        w[c] += 1
        w[-1] -= 1
        Y, dy = self.solve_integers(w, 1)
        L, dl = self._last_integers
        dc = math.lcm(dy, dl)
        s, t = dc // dy, dc // dl
        return [y * s + x * t for y, x in zip(Y, L)], dc

    def _n(self, i: int, j: int) -> Rat:
        """n_ij = G0_ij + y_i + y_j - y_last, for (i, j) on the factor's pattern."""
        L, dl = self._last_integers
        return self._selected.get(i, {}).get(j, ZERO) + rat(L[i] + L[j] - L[-1], dl)

    @cached_property
    def _diagonal(self) -> tuple:
        return tuple(self._n(i, i) for i in range(self.r))

    def diag(self) -> tuple:
        """(n_11, ..., n_rr) by selected inversion."""
        return self._diagonal

    @cached_property
    def _edges(self) -> dict:
        M = self.M
        edges = {(i, j): self._n(i, j) for i, row in enumerate(M.sparse_rows) for j in row if i < j}
        # Foster's identity row by row: (M+ M)_ii = sum_j m_ij n_ij = 1 - 1/r
        diag = self.diag()
        want = ONE - rat(1, self.r)
        for i, row in enumerate(M.sparse_rows):
            s = sum(
                (m * (diag[i] if j == i else edges[min(i, j), max(i, j)]) for j, m in row.items()),
                ZERO,
            )
            if s != want:
                raise AssertionError(f"Foster certificate: (M+ M)[{i},{i}] = {s}, not {want}")
        return edges

    def edge_entries(self) -> dict:
        """{(i, j): n_ij} for i < j with m_ij != 0, by selected inversion."""
        return self._edges

    @cached_property
    def trace(self) -> Rat:
        return sum(self.diag(), ZERO)

    @cached_property
    def mplus(self) -> RatMatrix:
        """The dense M+, one column solve per column, verified against the
        Penrose identities: the reference view, read by no production path."""
        columns = map(self._column, range(self.r))
        mplus = RatMatrix([[rat(x, dc) for x in C] for C, dc in columns])
        _verify_penrose(self.M, mplus, self.trace)
        return mplus

    def entry(self, i: int, j: int) -> Rat:
        """n_ij: from the factor on the diagonal and on edges, else from one
        column solve."""
        if i == j:
            return self.diag()[i]
        e = self.edge_entries().get((min(i, j), max(i, j)))
        if e is not None:
            return e
        C, dc = self._column(i)
        return rat(C[j], dc)


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
    P = PseudoinverseResult(M, _grounded_factor(M))
    _verify_factor(M, P._columns)
    return P


def effective_resistance(P: PseudoinverseResult, i: int, j: int) -> Rat:
    """r(Gamma_i, Gamma_j) = n_ii + n_jj - 2 n_ij on the metrized dual graph."""
    n = P.r
    if not (0 <= i < n and 0 <= j < n):
        raise MalformedInput(f"resistance indices ({i}, {j}) out of range")
    return P.entry(i, i) + P.entry(j, j) - 2 * P.entry(i, j)


def resistance_rows(P: PseudoinverseResult):
    """Yield [r(Gamma_i, Gamma_j) for j > i] for i = 0 .. r-2, one at a time.

    r(i, j) = n_ii + n_jj - 2 n_ij over one common denominator, from the
    certified diagonal and column i of M+ (one solve): O(r + fill) a row."""
    n = P.r
    D, k = _integer_vector(P.diag())
    for i in range(n - 1):
        C, dc = P._column(i)
        den = math.lcm(k, dc)
        s, t = den // k, 2 * (den // dc)
        yield [rat((D[i] + D[j]) * s - t * C[j], den) for j in range(i + 1, n)]


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
    work = [dict(row) for row in M.sparse_rows]
    steps, left = _eliminate(work)
    pivots = tuple(d for _, d, _ in steps)
    for k in sorted(left):
        if work[k]:
            j, v = min(work[k].items())
            witness = f"indefinite 2x2 minor at ({k},{j}): [[0, {v}], [{v}, 0]]"
            return PsdCertificate(False, pivots, witness)
    negative = [p for p in pivots if p < 0]
    witness = f"negative pivot {negative[0]}" if negative else ""
    return PsdCertificate(not negative, pivots, witness)
