"""Special fibers of arithmetic surfaces as combinatorial data.

A fiber is a list of irreducible components (multiplicity, arithmetic
genus, self-intersection) together with the symmetric pairwise
intersection numbers at one non-archimedean place.  Everything downstream
(intersection matrix, vertical divisors, lower bounds) is derived from
this data, so validation is deliberately paranoid: self-intersections are
stored rather than derived, and the fiber relation is recomputed instead
of trusted, which catches transcription errors in hand-entered fibers.

The constructor keeps one store of the intersection matrix, built once:
`index` (id -> component index) and `pairing_rows`, row i being
{j: (Gamma_i . Gamma_j)} over i and its neighbours, keys in index order.
The adjacency, the pairings, the fiber relation and `linalg.build_laplacian`
all read these rows.

Mathematically inconsistent fibers yield failed checks in the
ValidationReport; only structurally broken input (unknown ids, asymmetric
maps) raises MalformedInput.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .errors import FiberMismatch, MalformedInput
from .rationals import Rat, ZERO, _integer_rows, _integer_vector, format_rat, rat

#: Most components a fiber may have, whether a catalog generator builds it
#: or a document (`documents.parse_fiber`) describes it.  The size limits
#: bound the input and the memory, MAX_ELIMINATION_WORK the number of updates,
#: and none of them the time, which also grows with the entries' size: a
#: 20-clique needs 2 109 updates, yet with intersection numbers m/(10^D + 7)
#: `compute --op beta` took 0.35 s at D = 10 and 108.9 s at D = 1000.  At the
#: size limits, `compute --op beta` on a 128-clique carrying 1872 pendant
#: components (2000 components, 10000 entries) took 17.5 s and 33 MB peak RSS
#: (fractions backend, one Intel Xeon core); fermat(61,29) takes about 1 s.
MAX_COMPONENTS = 2000
#: Most stored (nonzero, off-diagonal) intersection entries it may have.
MAX_INTERSECTIONS = 10000
#: Most work one elimination of M may do, counted as k^2 for each pivot
#: whose row has k other entries when it is eliminated.  The densest fiber
#: the size limits admit, a 141-clique, needs 904 890 and fermat(139,0)
#: 866 525.  Random connected graphs with five entries per component fill
#: in almost completely: they need about 60 000 at 100 components, 0.4
#: million at 200 and 3 million at 400, where an unbounded `compute --op
#: beta` took 518 s.
MAX_ELIMINATION_WORK = 10**6


@dataclass(frozen=True)
class Component:
    """One irreducible component of a special fiber.

    `genus` is the arithmetic genus p_a; the derived canonical degree is
    a = -self_intersection + 2*p_a - 2 (adjunction).
    """

    id: str
    multiplicity: int
    genus: int
    self_intersection: Rat

    def __post_init__(self):
        if not self.id:
            raise MalformedInput("component id must be nonempty")
        if not isinstance(self.multiplicity, int) or self.multiplicity < 1:
            raise MalformedInput(f"{self.id}: multiplicity must be a positive integer")
        if not isinstance(self.genus, int) or self.genus < 0:
            raise MalformedInput(f"{self.id}: arithmetic genus must be a nonnegative integer")
        object.__setattr__(self, "self_intersection", rat(self.self_intersection))

    @property
    def canonical_degree(self) -> Rat:
        return -self.self_intersection + 2 * self.genus - 2


@dataclass(frozen=True)
class SpecialFiber:
    """A special fiber: components plus symmetric intersection numbers.

    `intersections` may be given as a mapping {(id_a, id_b): value} or an
    iterable of (id_a, id_b, value) triples; it is normalized to a sorted
    tuple of triples with ids in component order and zero entries dropped.
    Off-diagonal intersection numbers must be nonnegative rationals
    (non-integral values are allowed).  `index` and `pairing_rows` (see the
    module docstring) are plain attributes, not fields.
    """

    name: str
    components: tuple
    intersections: tuple
    genus: int

    def __init__(self, name, components, intersections, genus):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "components", tuple(components))
        if not self.components:
            raise MalformedInput("fiber needs at least one component")
        if not isinstance(genus, int):
            raise MalformedInput("fiber genus must be an integer")
        object.__setattr__(self, "genus", genus)
        index = {}
        for i, comp in enumerate(self.components):
            if not isinstance(comp, Component):
                raise MalformedInput("components must be Component instances")
            if comp.id in index:
                raise MalformedInput(f"duplicate component id {comp.id!r}")
            index[comp.id] = i
        if isinstance(intersections, Mapping):
            triples = [(a, b, v) for (a, b), v in intersections.items()]
        else:
            triples = [tuple(t) for t in intersections]
        seen = {}
        for a, b, v in triples:
            if a not in index or b not in index:
                raise MalformedInput(f"intersection references unknown id: ({a!r}, {b!r})")
            if a == b:
                raise MalformedInput(f"self-pair ({a!r}, {a!r}); self-intersections live on the component")
            value = rat(v)
            if value < 0:
                raise MalformedInput(f"negative intersection number for ({a!r}, {b!r})")
            key = (min(index[a], index[b]), max(index[a], index[b]))
            if key in seen and seen[key] != value:
                raise MalformedInput(f"asymmetric intersection map at ({a!r}, {b!r})")
            seen[key] = value
        rows = [{i: comp.self_intersection} for i, comp in enumerate(self.components)]
        normalized = []
        for (i, j), value in sorted(seen.items()):
            if value:
                rows[i][j] = rows[j][i] = value
                normalized.append((self.components[i].id, self.components[j].id, value))
        object.__setattr__(self, "intersections", tuple(normalized))
        # plain attributes, not fields, so eq, hash and repr see only the above
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "pairing_rows", tuple(dict(sorted(row.items())) for row in rows))

    # -- indexed access -----------------------------------------------------

    @cached_property
    def ids(self) -> tuple:
        return tuple(c.id for c in self.components)

    @property
    def r(self) -> int:
        return len(self.components)

    def pair_value(self, i: int, j: int) -> Rat:
        """(Gamma_i . Gamma_j) by component index; diagonal included."""
        return self.pairing_rows[i].get(j, ZERO)

    def intersection(self, id_a: str, id_b: str) -> Rat:
        return self.pair_value(self.index[id_a], self.index[id_b])

    @cached_property
    def neighbors(self) -> tuple:
        """Adjacency lists of the dual graph (indices with positive pairing)."""
        return tuple(tuple(j for j in row if j != i) for i, row in enumerate(self.pairing_rows))

    @cached_property
    def integer_pairing_rows(self) -> tuple:
        """(rows, s): row i lists (j, s (Gamma_i . Gamma_j)) over i and its
        neighbors, all integers over one common scale s."""
        return _integer_rows([row.items() for row in self.pairing_rows])

    @cached_property
    def integer_degree_weights(self) -> tuple:
        """(Q, s) with q_i = b_i a'_i = Q_i / s, all integers over one scale s:
        the canonical part of every weight vector d q - v of a vertical divisor."""
        b = self.multiplicities
        return _integer_vector([b[i] * a for i, a in enumerate(self.normalized_degrees)])

    # -- derived data --------------------------------------------------------

    @cached_property
    def multiplicities(self) -> tuple:
        return tuple(c.multiplicity for c in self.components)

    @cached_property
    def canonical_degrees(self) -> tuple:
        """a_i = (Gamma_i . K) via adjunction."""
        return tuple(c.canonical_degree for c in self.components)

    @cached_property
    def normalized_degrees(self) -> tuple:
        """a'_i = a_i / (2g - 2)."""
        d = 2 * self.genus - 2
        if d == 0:
            raise MalformedInput("normalized degrees need genus != 1")
        return tuple(a / rat(d) for a in self.canonical_degrees)

    @property
    def is_reduced(self) -> bool:
        return all(c.multiplicity == 1 for c in self.components)

    def fiber_relation_defect(self, i: int) -> Rat:
        """b_i Gamma_i^2 + sum_j b_j (Gamma_i.Gamma_j); zero for honest fibers."""
        b = self.multiplicities
        return sum((b[j] * v for j, v in self.pairing_rows[i].items()), ZERO)


@dataclass(frozen=True)
class HorizontalIncidence:
    """A horizontal Q-divisor seen only through its incidence numbers.

    `incidence` maps component ids to v_i = (b_i Gamma_i . D); components
    not mentioned have v_i = 0.  An honest horizontal divisor has
    nonnegative entries summing to its (positive) degree, which the
    consuming operations check; degree-zero differences such as P - Q are
    represented with signed entries and degree 0.
    """

    id: str
    degree: Rat
    incidence: tuple

    def __init__(self, id, degree, incidence):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "degree", rat(degree))
        if isinstance(incidence, Mapping):
            items = incidence.items()
        else:
            items = [tuple(t) for t in incidence]
        object.__setattr__(
            self,
            "incidence",
            tuple(sorted((cid, rat(v)) for cid, v in items if rat(v) != 0)),
        )

    def vector(self, fiber: SpecialFiber) -> list:
        """Incidence entries in fiber component order."""
        v = [ZERO] * fiber.r
        for cid, val in self.incidence:
            if cid not in fiber.index:
                raise FiberMismatch(f"incidence id {cid!r} not in fiber {fiber.name!r}")
            v[fiber.index[cid]] = val
        return v


def unit_incidence(fiber: SpecialFiber, component_id: str) -> HorizontalIncidence:
    """Degree-1 divisor meeting only the named component: v = e_l."""
    if component_id not in fiber.index:
        raise MalformedInput(f"unknown component id {component_id!r}")
    return HorizontalIncidence(f"unit({component_id})", 1, {component_id: rat(1)})


# -- validation ---------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ValidationReport:
    fiber_name: str
    checks: tuple
    reduced: bool
    minimal: bool
    canonical_degrees: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple:
        return tuple(c for c in self.checks if not c.passed)


def _check(name: str, passed: bool, witness: str) -> Check:
    """A named check; its witness text is kept only when it failed."""
    return Check(name, passed, "" if passed else witness)


def validate(fiber: SpecialFiber) -> ValidationReport:
    """Recompute the standing hypotheses on a fiber and report the results.

    Covered: fiber relation per component, genus consistency
    (sum b_i a_i = 2g - 2), connectivity of the dual graph, g > 1.
    Also reports the reducedness flag and a heuristic minimality flag
    (no genus-0 multiplicity-1 component of self-intersection -1); full
    minimality needs data this model does not carry.
    """
    checks = []
    for i, comp in enumerate(fiber.components):
        defect = fiber.fiber_relation_defect(i)
        witness = f"(X_s . {comp.id}) = {format_rat(defect)} != 0"
        checks.append(_check(f"fiber-relation[{comp.id}]", defect == 0, witness))
    total = sum((b * a for b, a in zip(fiber.multiplicities, fiber.canonical_degrees)), ZERO)
    expected = rat(2 * fiber.genus - 2)
    witness = f"sum b_i a_i = {format_rat(total)}, 2g-2 = {format_rat(expected)}"
    checks.append(_check("genus-consistency", total == expected, witness))
    seen, stack = {0}, [0]
    while stack:
        for j in fiber.neighbors[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    missing = [fiber.ids[i] for i in range(fiber.r) if i not in seen]
    witness = f"unreachable from {fiber.ids[0]!r}: {missing}"
    checks.append(_check("connectivity", not missing, witness))
    checks.append(_check("genus-above-one", fiber.genus > 1, f"g = {fiber.genus}"))
    minimal = not any(
        c.genus == 0 and c.multiplicity == 1 and c.self_intersection == -1
        for c in fiber.components
    )
    return ValidationReport(
        fiber_name=fiber.name,
        checks=tuple(checks),
        reduced=fiber.is_reduced,
        minimal=minimal,
        canonical_degrees=fiber.canonical_degrees,
    )


# -- dual graph ----------------------------------------------------------------


@dataclass(frozen=True)
class DualGraph:
    """Metrized dual graph: one edge per off-diagonal nonzero of M."""

    vertices: tuple
    edges: tuple  # (id_a, id_b, length) with length = -1/m_ij > 0


def dual_graph(fiber: SpecialFiber, M) -> DualGraph:
    """Vertices are the components; (i,j) is an edge iff m_ij != 0.

    Expects M from build_laplacian on a validated fiber, so off-diagonal
    entries are <= 0 and edge lengths -1/m_ij come out positive.
    """
    edges = []
    for i, row in enumerate(M.sparse_rows):
        for j, m in row.items():
            if j > i:
                if m > 0:
                    raise MalformedInput(
                        f"positive off-diagonal m_[{i},{j}]; not an intersection matrix"
                    )
                edges.append((fiber.ids[i], fiber.ids[j], -1 / m))
    return DualGraph(vertices=fiber.ids, edges=tuple(edges))
