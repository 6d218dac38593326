"""Generators for the reference fibers audited by this package.

Covers the two-component fibers meeting in s points ("banana"), the
semistable genus-2 reduction types I..VII realized from their metrized
graphs, the modular-curve fibers of level N at each bad prime, and the
Fermat-curve fibers of prime exponent.  Every fiber is built from its
dual graph by one `_graph_fiber`, which derives the self-intersections
from the fiber relation, and each generator validates its output.  The
Fermat constructor validates inside a self-check that also puts the
reference vertical divisors into their defining equations on the fiber's
own intersection data, and it refuses to return a fiber that fails it,
which makes the reconstructed incidence structure falsifiable.

Every generator bounds its output before it allocates anything: a fiber
has at most MAX_COMPONENTS components and MAX_INTERSECTIONS stored
intersection entries, counted from the parameters alone, and a
modular-curve level is at most MAX_LEVEL, so that factoring it by trial
division stays fast.  Larger parameters raise InvalidParams.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

from .divisors import _defining_defect
from .errors import (
    InvalidGenus,
    InvalidN,
    InvalidParams,
    NotADivisor,
    SelfCheckFailed,
)
from .fiber import (
    MAX_COMPONENTS,
    MAX_INTERSECTIONS,
    Component,
    SpecialFiber,
    unit_incidence,
    validate,
)
from .logsum import GlobalModel, Place, is_prime
from .rationals import Rat, rat

#: Largest modular-curve level N.
MAX_LEVEL = 10**10


def _check_size(name: str, components: int, entries: int) -> None:
    """Refuse a fiber whose size, counted from its parameters, is over the limits."""
    if components > MAX_COMPONENTS or entries > MAX_INTERSECTIONS:
        raise InvalidParams(
            f"{name} would have {components} components and {entries} intersection "
            f"entries; the limits are {MAX_COMPONENTS} and {MAX_INTERSECTIONS}"
        )


def _graph_fiber(name: str, genus: int, vertices: list, edges: dict) -> SpecialFiber:
    """The fiber of a dual graph, not yet validated.

    `vertices` lists (id, multiplicity, p_a) in component order and `edges`
    maps (a, b) to the intersection number (Gamma_a . Gamma_b).  Each
    self-intersection follows from the fiber relation
    b_i Gamma_i^2 = -sum_j b_j (Gamma_i . Gamma_j).
    """
    b = {x: m for x, m, _ in vertices}
    meets = dict.fromkeys(b, 0)
    for (x, y), n in edges.items():
        meets[x] += b[y] * n
        meets[y] += b[x] * n
    return SpecialFiber(
        name=name,
        components=[Component(x, m, g, rat(-meets[x], m)) for x, m, g in vertices],
        intersections=edges,
        genus=genus,
    )


def _validated(fiber: SpecialFiber) -> SpecialFiber:
    """The fiber, or InvalidParams naming the validation checks it fails."""
    report = validate(fiber)
    if not report.ok:
        raise InvalidParams(
            f"{fiber.name} is inconsistent: " + "; ".join(c.name for c in report.failures())
        )
    return fiber


# -- small number theory -------------------------------------------------------


def prime_factors(n: int) -> list:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return out


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def divisors_of(n: int) -> list:
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


# -- banana fibers --------------------------------------------------------------


def banana(s: int, p1: int, p2: int) -> SpecialFiber:
    """Two multiplicity-1 components of genera (p1, p2) meeting in s points."""
    if not (isinstance(s, int) and s >= 1):
        raise InvalidParams(f"banana needs s >= 1, got {s}")
    if p1 < 0 or p2 < 0:
        raise InvalidParams("banana genera must be nonnegative")
    g = p1 + p2 + s - 1
    if g <= 1:
        raise InvalidGenus(f"banana({s},{p1},{p2}) has genus {g} <= 1")
    return _validated(
        _graph_fiber(f"banana({s},{p1},{p2})", g, [("G1", 1, p1), ("G2", 1, p2)], {("G1", "G2"): s})
    )


# -- genus-2 reduction types ----------------------------------------------------

#: Each type's metrized graph: its (id, genus) vertices and the ends (u, v)
#: of its chains; the k-th chain has the k-th parameter as its length.
GENUS2_GRAPHS = {
    "I": ((("u", 2),), ()),
    "II": ((("u", 1), ("v", 1)), (("u", "v"),)),
    "III": ((("u", 1),), (("u", "u"),)),
    "IV": ((("u", 1), ("w", 0)), (("u", "w"), ("w", "w"))),
    "V": ((("u", 0),), (("u", "u"), ("u", "u"))),
    "VI": ((("u", 0), ("w", 0)), (("u", "w"), ("u", "u"), ("w", "w"))),
    "VII": ((("u", 0), ("w", 0)), (("u", "w"), ("u", "w"), ("u", "w"))),
}
GENUS2_ARITY = {kind: len(ends) for kind, (_, ends) in GENUS2_GRAPHS.items()}


def _realize(name: str, vertices: tuple, chains: list) -> SpecialFiber:
    """The reduced genus-2 fiber of a metrized graph.

    A chain (u, v, L) inserts L-1 genus-0 multiplicity-1 components
    n1, n2, ... between u and v, numbered in chain order, except that
    (v, v, 1) raises p_a(v) by one.
    """
    # a chain of length L adds L - 1 components and L entries, (v, v, 1) none
    _check_size(
        name,
        len(vertices) + sum(n - 1 for *_, n in chains),
        sum(n for u, v, n in chains if u != v or n > 1),
    )
    genus = dict(vertices)
    fresh = (f"n{k}" for k in itertools.count(1))
    edges = []
    for u, v, n in chains:
        if u == v and n == 1:
            genus[v] += 1
            continue
        path = [u, *(next(fresh) for _ in range(n - 1)), v]
        genus.update((x, 0) for x in path[1:-1])
        edges += zip(path, path[1:])
    weight = Counter(tuple(sorted(edge)) for edge in edges)
    return _validated(_graph_fiber(name, 2, [(x, 1, g) for x, g in genus.items()], weight))


def genus2_type(kind: str, params=()) -> SpecialFiber:
    """Semistable genus-2 reduction types I..VII with positive integer params."""
    kind = kind.upper()
    if kind not in GENUS2_ARITY:
        raise InvalidParams(f"unknown genus-2 type {kind!r}")
    params = tuple(params)
    if len(params) != GENUS2_ARITY[kind]:
        raise InvalidParams(
            f"type {kind} takes {GENUS2_ARITY[kind]} parameter(s), got {len(params)}"
        )
    if not all(isinstance(x, int) and x >= 1 for x in params):
        raise InvalidParams(f"type {kind} parameters must be positive integers")
    name = f"{kind}({','.join(str(x) for x in params)})" if params else "I"
    vertices, ends = GENUS2_GRAPHS[kind]
    return _realize(name, vertices, [(u, v, n) for (u, v), n in zip(ends, params)])


@dataclass(frozen=True)
class ReferenceRow:
    """One tabulated genus-2 row: closed-form beta and epsilon values."""

    label: str
    beta: Rat
    epsilon: Rat
    note: str = "reference closed form, genus-2 table"


def table1_reference(kind: str, params=()) -> ReferenceRow:
    """Exact evaluation of the tabulated genus-2 closed forms for (beta, eps)."""
    kind = kind.upper()
    params = tuple(params)
    if kind not in GENUS2_ARITY or len(params) != GENUS2_ARITY[kind]:
        raise InvalidParams(f"no tabulated row for {kind}{params}")
    if not all(isinstance(x, int) and x >= 1 for x in params):
        raise InvalidParams("tabulated rows need positive integer parameters")
    label = f"{kind}({','.join(str(x) for x in params)})" if params else "I"
    if kind == "I":
        beta, eps = rat(0), rat(0)
    elif kind == "II":
        (a,) = params
        beta, eps = rat(a - 1), rat(a)
    elif kind == "III":
        (a,) = params
        eps = rat(a, 6)
        beta = eps - rat(1, 6 * a)
    elif kind == "IV":
        a, b = params
        eps = rat(a) + rat(b, 6)
        beta = eps - rat(1, 6 * b)
    elif kind == "V":
        a, b = params
        eps = rat(a + b, 6)
        beta = eps - rat(1, 6 * a) - rat(1, 6 * b)
    elif kind == "VI":
        a, b, c = params
        eps = rat(a) + rat(b + c, 6)
        beta = eps - rat(1, 6 * b) - rat(1, 6 * c)
    else:  # VII
        a, b, c = params
        sym = a * b + a * c + b * c
        eps = rat(a + b + c, 6) + rat(a * b * c, 6 * sym)
        cross = (
            a * a * b + a * a * c + a * b * b + 6 * a * b * c
            + a * c * c + b * b * c + b * c * c
        )
        beta = eps - rat(cross, 6 * sym * sym)
    return ReferenceRow(label=label, beta=beta, epsilon=eps)


# -- modular-curve fibers -------------------------------------------------------


def _x1n_check_level(N: int) -> list:
    """Hypotheses on N: squarefree with a coprime split Q, R >= 4 dividing N."""
    if not (isinstance(N, int) and N > 1):
        raise InvalidN(f"level must be an integer > 1, got {N!r}")
    if N > MAX_LEVEL:
        raise InvalidN(f"level {N} is over the limit {MAX_LEVEL}")
    primes = prime_factors(N)
    if math.prod(primes) != N:
        raise InvalidN(f"level {N} is not squarefree")
    # N is squarefree, so each divisor d is coprime to N // d
    if any(d >= 4 and N // d >= 4 for d in divisors_of(N)):
        return primes
    raise InvalidN(f"level {N} admits no coprime factorization Q*R with Q, R >= 4")


def x1n_genus(N: int) -> int:
    """Genus of the level-N modular curve from the standard formula."""
    primes = _x1n_check_level(N)
    main = rat(euler_phi(N) * N, 24)
    for p in primes:
        main *= 1 + rat(1, p)
    cusps = rat(sum(euler_phi(d) * euler_phi(N // d) for d in divisors_of(N)), 4)
    g = 1 + main - cusps
    if g.denominator != 1:
        raise InvalidN(f"genus formula gave a non-integer for N={N}")
    return int(g)


def x1n_fiber(N: int, p: int) -> SpecialFiber:
    """Special fiber at a prime p | N: two isomorphic curves meeting s_p times.

    s_p = ((p-1)/24) (phi(N/p) N / p) prod_{q | N/p} (1 + 1/q), and the
    common arithmetic genus is q_p = (g_N - s_p + 1)/2, so the banana
    consistency 2 q_p + s_p - 1 = g_N holds by construction.
    """
    primes = _x1n_check_level(N)
    if p not in primes:
        raise NotADivisor(f"{p} is not a prime divisor of {N}")
    g = x1n_genus(N)
    s = rat((p - 1) * euler_phi(N // p) * N, 24 * p)
    for q in prime_factors(N // p):
        s *= 1 + rat(1, q)
    if s.denominator != 1 or s <= 0:
        raise InvalidN(f"s_p formula gave {s} for N={N}, p={p}")
    qp = rat(g - int(s) + 1, 2)
    if qp.denominator != 1 or qp < 0:
        raise InvalidN(f"component genus formula gave {qp} for N={N}, p={p}")
    q = int(qp)
    return _validated(
        _graph_fiber(f"x1n({N})@p={p}", g, [("G1", 1, q), ("G2", 1, q)], {("G1", "G2"): int(s)})
    )


def x1n_model(N: int) -> GlobalModel:
    """Global model: one aggregated place per p | N with weight phi(N/p)."""
    primes = _x1n_check_level(N)
    places = tuple(
        Place(
            place_id=f"p={p}",
            residue_prime=p,
            residue_degree=euler_phi(N // p),
            fiber=x1n_fiber(N, p),
            divisor=None,
        )
        for p in primes
    )
    return GlobalModel(name=f"x1n({N})", places=places)


# -- Fermat fibers --------------------------------------------------------------


def fermat_component_ids(p: int, r: int) -> dict:
    """Component ids by family: x, y, z, beta_j, alpha_i, alpha_i pendants."""
    s = p - 3 - 2 * r
    out = {"x": ["x"], "yz": ["y", "z"], "beta": [f"beta{j+1}" for j in range(s)]}
    out["alpha"] = [f"alpha{i+1}" for i in range(r)]
    out["pendant"] = [
        f"alpha{i+1}.{j+1}" for i in range(r) for j in range(p)
    ]
    return out


def _build_fermat(p: int, r: int) -> SpecialFiber:
    """fermat(p, r) from its dual graph, not yet validated: the main
    components meet pairwise once, each alpha its p pendants once."""
    fam = fermat_component_ids(p, r)
    reduced = fam["x"] + fam["yz"] + fam["beta"]
    vertices = [(x, 1, 0) for x in reduced]
    edges = dict.fromkeys(itertools.combinations(reduced + fam["alpha"], 2), 1)
    for alpha in fam["alpha"]:
        pendants = [f"{alpha}.{j+1}" for j in range(p)]
        vertices += [(alpha, 2, 0), *((x, 1, 0) for x in pendants)]
        edges.update(dict.fromkeys(((alpha, x) for x in pendants), 1))
    return _graph_fiber(f"fermat({p},{r})", (p - 1) * (p - 2) // 2, vertices, edges)


def _verify_fermat(fiber: SpecialFiber, p: int, r: int) -> None:
    """Check the reference vertical divisors against the incidence data.

    The reference divisors (1/p) L_i for i in {x, y, z, beta_j} and
    (1/p) L_alpha + (1/2p) sum_j L_alpha.j for each alpha must satisfy
    V_i's defining equations; a validated fiber is connected, so each then
    equals V_i modulo the full fiber, with no factorization.  (The analogous
    tabulated pendant divisor is inconsistent with the defining
    equations and is handled by the audit suite, not asserted here; see
    the fermat audit rows.)
    """
    report = validate(fiber)
    if not report.ok:
        raise SelfCheckFailed(
            f"{fiber.name}: validation failed: "
            + "; ".join(c.name for c in report.failures())
        )
    fam = fermat_component_ids(p, r)
    alphas = set(fam["alpha"])
    for cid in fam["x"] + fam["yz"] + fam["beta"] + fam["alpha"]:
        want = [rat(0)] * fiber.r
        want[fiber.index[cid]] = rat(1, p)
        tail = ""
        if cid in alphas:
            tail = f" + (1/{2*p}) sum L_{cid}.j"
            for j in range(p):
                want[fiber.index[f"{cid}.{j+1}"]] = rat(1, 2 * p)
        if _defining_defect(fiber, unit_incidence(fiber, cid), want) is not None:
            raise SelfCheckFailed(f"{fiber.name}: V_{cid} != (1/{p}) L_{cid}{tail} mod fiber")


def fermat_fiber(p: int, r: int) -> SpecialFiber:
    """Fermat-curve special fiber of prime exponent p > 3 with 2r + s = p - 3.

    Components: L_x, L_y, L_z and s components L_beta_j (multiplicity 1,
    genus 0, self-intersection 1-p), r components L_alpha_i (multiplicity
    2, genus 0, self-intersection 1-p) each carrying p pendant components
    (multiplicity 1, genus 0, self-intersection -2, meeting only their
    alpha once); all non-pendant components pairwise meet exactly once.
    The genus is (p-1)(p-2)/2.  The fiber is returned only once it passes
    the reference-divisor self-check.
    """
    if not (isinstance(p, int) and p > 3):
        raise InvalidParams(f"exponent must be a prime > 3, got {p}")
    if not (isinstance(r, int) and r >= 0):
        raise InvalidParams(f"r must be a nonnegative integer, got {r}")
    if p - 3 - 2 * r < 0:
        raise InvalidParams(f"fermat({p},{r}) needs s = p - 3 - 2r >= 0")
    # p - r mutually meeting main components, and p pendants on each alpha
    mains = p - r
    _check_size(f"fermat({p},{r})", mains + r * p, mains * (mains - 1) // 2 + r * p)
    if not is_prime(p):
        raise InvalidParams(f"exponent must be a prime > 3, got {p}")
    fiber = _build_fermat(p, r)
    _verify_fermat(fiber, p, r)
    return fiber


# -- catalog enumeration for the CLI and the acceptance suite -------------------


def valid_fermat_r(p: int) -> list:
    return [r for r in range((p - 3) // 2 + 1)]


def acceptance_fibers() -> list:
    """The catalog battery: banana grid, genus-2 grid, x1n(35), Fermat set."""
    fibers = [
        banana(1, 1, 1),
        banana(2, 1, 0),
        banana(3, 0, 0),
        banana(1, 2, 1),
        banana(2, 2, 2),
        banana(5, 0, 0),
        genus2_type("I"),
        genus2_type("II", (2,)),
        genus2_type("III", (2,)),
        genus2_type("IV", (1, 2)),
        genus2_type("V", (2, 1)),
        genus2_type("VI", (2, 1, 1)),
        genus2_type("VII", (1, 1, 1)),
        genus2_type("VII", (2, 3, 4)),
        x1n_fiber(35, 5),
        x1n_fiber(35, 7),
        fermat_fiber(5, 0),
        fermat_fiber(7, 2),
    ]
    for rr in valid_fermat_r(11):
        fibers.append(fermat_fiber(11, rr))
    for rr in valid_fermat_r(13):
        fibers.append(fermat_fiber(13, rr))
    return fibers


GENERATORS = {
    "banana": "banana s,p1,p2 (s >= 1 intersection points, genera p1, p2)",
    "genus2": "genus2 TYPE[,a[,b[,c]]] with TYPE in I..VII",
    "x1n": "x1n N,p (squarefree level N with coprime Q,R >= 4; prime p | N)",
    "fermat": "fermat p,r (prime exponent p > 3; 0 <= r <= (p-3)/2)",
}


def catalog_entry(name: str, params: list) -> SpecialFiber:
    """Dispatch a generator by name with string parameters (CLI surface)."""
    if name == "genus2":
        if not params:
            raise InvalidParams("genus2 takes TYPE[,a,b,c]")
        return genus2_type(params[0], tuple(int(x) for x in params[1:]))
    # the generators with integer parameters, and those parameters' names;
    # looked up per call, so a wrapper bound over a generator is called
    integer_generators = {
        "banana": (banana, "s,p1,p2"),
        "x1n": (x1n_fiber, "N,p"),
        "fermat": (fermat_fiber, "p,r"),
    }
    if name not in integer_generators:
        raise InvalidParams(f"unknown catalog generator {name!r}")
    generator, usage = integer_generators[name]
    if len(params) != len(usage.split(",")):
        raise InvalidParams(f"{name} takes {usage}")
    return generator(*map(int, params))
