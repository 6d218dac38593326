"""Generators for the reference fibers audited by this package.

Covers the two-component fibers meeting in s points ("banana"), the
semistable genus-2 reduction types I..VII realized from their metrized
graphs, the modular-curve fibers of level N at each bad prime, and the
Fermat-curve fibers of prime exponent.  Each generator validates its
output; the Fermat constructor additionally re-derives the reference
vertical divisors from its own intersection data and refuses to return a
fiber that fails that self-check, which makes the reconstructed incidence
structure falsifiable.

Every generator bounds its output before it allocates anything: a fiber
has at most MAX_COMPONENTS components and MAX_INTERSECTIONS stored
intersection entries, counted from the parameters alone, and a
modular-curve level is at most MAX_LEVEL, so that factoring it by trial
division stays fast.  Larger parameters raise InvalidParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .divisors import solve_vertical
from .errors import (
    InvalidGenus,
    InvalidN,
    InvalidParams,
    NotADivisor,
    SelfCheckFailed,
)
from .fiber import Component, SpecialFiber, unit_incidence, validate
from .linalg import build_laplacian, pseudoinverse
from .logsum import GlobalModel, Place, is_prime
from .rationals import Rat, rat

#: Most components a generated fiber may have.
MAX_COMPONENTS = 2000
#: Most stored (nonzero, off-diagonal) intersection entries it may have.
MAX_INTERSECTIONS = 10000
#: Largest modular-curve level N.
MAX_LEVEL = 10**10


def _check_size(name: str, components: int, entries: int) -> None:
    """Refuse a fiber whose size, counted from its parameters, is over the limits."""
    if components > MAX_COMPONENTS or entries > MAX_INTERSECTIONS:
        raise InvalidParams(
            f"{name} would have {components} components and {entries} intersection "
            f"entries; the limits are {MAX_COMPONENTS} and {MAX_INTERSECTIONS}"
        )


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


# -- graph realizations ---------------------------------------------------------


@dataclass(frozen=True)
class EdgePrimitive:
    u: str
    v: str


@dataclass(frozen=True)
class PathPrimitive:
    u: str
    v: str
    length: int


@dataclass(frozen=True)
class LoopPrimitive:
    v: str
    length: int


@dataclass(frozen=True)
class GraphRealization:
    """A polarized metrized graph to be realized as a reduced fiber.

    path(u, v, L) inserts L-1 genus-0 multiplicity-1 components in a
    chain; loop(v, 1) increments p_a(v); loop(v, L >= 2) inserts L-1
    genus-0 components forming a cycle through v.  Self-intersections are
    then derived from the fiber relation.
    """

    vertices: tuple  # (id, genus) pairs
    primitives: tuple

    def realize(self, name: str, genus: int) -> SpecialFiber:
        chains = [
            prim.length
            for prim in self.primitives
            if isinstance(prim, PathPrimitive)
            or (isinstance(prim, LoopPrimitive) and prim.length >= 2)
        ]
        # a chain of length L adds L - 1 components and L edges
        edges = sum(isinstance(prim, EdgePrimitive) for prim in self.primitives)
        _check_size(name, len(self.vertices) + sum(chains) - len(chains), edges + sum(chains))
        ids = [v for v, _ in self.vertices]
        pa = {v: g for v, g in self.vertices}
        if len(pa) != len(ids):
            raise InvalidParams("duplicate vertex id in realization")
        edges = []
        counter = 0

        def fresh() -> str:
            nonlocal counter
            counter += 1
            nid = f"n{counter}"
            ids.append(nid)
            pa[nid] = 0
            return nid

        def chain(u: str, v: str, length: int) -> None:
            prev = u
            for _ in range(length - 1):
                nid = fresh()
                edges.append((prev, nid))
                prev = nid
            edges.append((prev, v))

        for prim in self.primitives:
            if isinstance(prim, EdgePrimitive):
                edges.append((prim.u, prim.v))
            elif isinstance(prim, PathPrimitive):
                if prim.length < 1:
                    raise InvalidParams("path length must be >= 1")
                chain(prim.u, prim.v, prim.length)
            elif isinstance(prim, LoopPrimitive):
                if prim.length < 1:
                    raise InvalidParams("loop length must be >= 1")
                if prim.length == 1:
                    pa[prim.v] += 1
                else:
                    chain(prim.v, prim.v, prim.length)
            else:
                raise InvalidParams(f"unknown primitive {prim!r}")
        weight = {}
        degree = {v: 0 for v in ids}
        for u, v in edges:
            if u == v:
                raise InvalidParams("realized self-loop; use LoopPrimitive")
            key = (u, v) if ids.index(u) < ids.index(v) else (v, u)
            weight[key] = weight.get(key, 0) + 1
            degree[u] += 1
            degree[v] += 1
        components = tuple(
            Component(
                id=v, multiplicity=1, genus=pa[v], self_intersection=rat(-degree[v])
            )
            for v in ids
        )
        fiber = SpecialFiber(
            name=name,
            components=components,
            intersections={(u, v): rat(w) for (u, v), w in weight.items()},
            genus=genus,
        )
        report = validate(fiber)
        if not report.ok:
            raise InvalidParams(
                f"realization {name!r} is inconsistent: "
                + "; ".join(c.name for c in report.failures())
            )
        return fiber


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
    components = (
        Component("G1", 1, p1, rat(-s)),
        Component("G2", 1, p2, rat(-s)),
    )
    fiber = SpecialFiber(
        name=f"banana({s},{p1},{p2})",
        components=components,
        intersections={("G1", "G2"): rat(s)},
        genus=g,
    )
    report = validate(fiber)
    if not report.ok:
        raise InvalidParams(f"banana({s},{p1},{p2}) failed validation")
    return fiber


# -- genus-2 reduction types ----------------------------------------------------

GENUS2_ARITY = {"I": 0, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3, "VII": 3}


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
    if kind == "I":
        real = GraphRealization((("u", 2),), ())
    elif kind == "II":
        (a,) = params
        real = GraphRealization((("u", 1), ("v", 1)), (PathPrimitive("u", "v", a),))
    elif kind == "III":
        (a,) = params
        real = GraphRealization((("u", 1),), (LoopPrimitive("u", a),))
    elif kind == "IV":
        a, b = params
        real = GraphRealization(
            (("u", 1), ("w", 0)),
            (PathPrimitive("u", "w", a), LoopPrimitive("w", b)),
        )
    elif kind == "V":
        a, b = params
        real = GraphRealization(
            (("u", 0),), (LoopPrimitive("u", a), LoopPrimitive("u", b))
        )
    elif kind == "VI":
        a, b, c = params
        real = GraphRealization(
            (("u", 0), ("w", 0)),
            (
                PathPrimitive("u", "w", a),
                LoopPrimitive("u", b),
                LoopPrimitive("w", c),
            ),
        )
    else:  # VII
        a, b, c = params
        real = GraphRealization(
            (("u", 0), ("w", 0)),
            (
                PathPrimitive("u", "w", a),
                PathPrimitive("u", "w", b),
                PathPrimitive("u", "w", c),
            ),
        )
    return real.realize(name, genus=2)


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
    sf = 1
    for p in primes:
        sf *= p
    if sf != N:
        raise InvalidN(f"level {N} is not squarefree")
    k = len(primes)
    for mask in range(1, 2**k - 1):
        q = 1
        r = 1
        for bit, p in enumerate(primes):
            if mask >> bit & 1:
                q *= p
            else:
                r *= p
        if q >= 4 and r >= 4:
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
    fiber = banana(int(s), int(qp), int(qp))
    return SpecialFiber(
        name=f"x1n({N})@p={p}",
        components=fiber.components,
        intersections=fiber.intersections,
        genus=fiber.genus,
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
    s = p - 3 - 2 * r
    fam = fermat_component_ids(p, r)
    mains = fam["x"] + fam["yz"] + fam["beta"] + fam["alpha"]
    components = []
    for cid in fam["x"] + fam["yz"] + fam["beta"]:
        components.append(Component(cid, 1, 0, rat(1 - p)))
    inter = {}
    for i, a in enumerate(mains):
        for b in mains[i + 1:]:
            inter[(a, b)] = rat(1)
    for i in range(r):
        alpha = fam["alpha"][i]
        components.append(Component(alpha, 2, 0, rat(1 - p)))
        for j in range(p):
            pend = f"{alpha}.{j+1}"
            components.append(Component(pend, 1, 0, rat(-2)))
            inter[(alpha, pend)] = rat(1)
    g = (p - 1) * (p - 2) // 2
    order = fam["x"] + fam["yz"] + fam["beta"]
    for i in range(r):
        order.append(fam["alpha"][i])
        order.extend(f"{fam['alpha'][i]}.{j+1}" for j in range(p))
    by_id = {c.id: c for c in components}
    return SpecialFiber(
        name=f"fermat({p},{r})",
        components=tuple(by_id[cid] for cid in order),
        intersections=inter,
        genus=g,
    )


def _equal_mod_fiber(fiber: SpecialFiber, y1, y2) -> bool:
    """Do two coefficient vectors differ by a rational multiple of X_s?"""
    b = fiber.multiplicities
    shifts = {(y1[i] - y2[i]) / rat(b[i]) for i in range(fiber.r)}
    return len(shifts) == 1


def _verify_fermat(fiber: SpecialFiber, p: int, r: int) -> None:
    """Re-derive the reference vertical divisors from the incidence data.

    solve_vertical must reproduce, modulo the full fiber, the reference
    coefficient divisors (1/p) L_i for i in {x, y, z, beta_j} and
    (1/p) L_alpha + (1/2p) sum_j L_alpha.j for each alpha; these pin down
    the reconstructed intersection configuration.  (The analogous
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
    P = pseudoinverse(build_laplacian(fiber))
    fam = fermat_component_ids(p, r)
    inv_p = rat(1, p)
    for cid in fam["x"] + fam["yz"] + fam["beta"]:
        got = solve_vertical(fiber, P, unit_incidence(fiber, cid)).coefficients
        want = [rat(0)] * fiber.r
        want[fiber.index[cid]] = inv_p
        if not _equal_mod_fiber(fiber, got, want):
            raise SelfCheckFailed(f"{fiber.name}: V_{cid} != (1/{p}) L_{cid} mod fiber")
    for alpha in fam["alpha"]:
        got = solve_vertical(fiber, P, unit_incidence(fiber, alpha)).coefficients
        want = [rat(0)] * fiber.r
        want[fiber.index[alpha]] = inv_p
        for j in range(p):
            want[fiber.index[f"{alpha}.{j+1}"]] = rat(1, 2 * p)
        if not _equal_mod_fiber(fiber, got, want):
            raise SelfCheckFailed(
                f"{fiber.name}: V_{alpha} != (1/{p}) L_{alpha} "
                f"+ (1/{2*p}) sum L_{alpha}.j mod fiber"
            )


def fermat_fiber(p: int, r: int, self_check: bool = True) -> SpecialFiber:
    """Fermat-curve special fiber of prime exponent p > 3 with 2r + s = p - 3.

    Components: L_x, L_y, L_z and s components L_beta_j (multiplicity 1,
    genus 0, self-intersection 1-p), r components L_alpha_i (multiplicity
    2, genus 0, self-intersection 1-p) each carrying p pendant components
    (multiplicity 1, genus 0, self-intersection -2, meeting only their
    alpha once); all non-pendant components pairwise meet exactly once.
    The genus is (p-1)(p-2)/2.
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
    if self_check:
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
    if name == "banana":
        if len(params) != 3:
            raise InvalidParams("banana takes s,p1,p2")
        return banana(int(params[0]), int(params[1]), int(params[2]))
    if name == "genus2":
        if not params:
            raise InvalidParams("genus2 takes TYPE[,a,b,c]")
        return genus2_type(params[0], tuple(int(x) for x in params[1:]))
    if name == "x1n":
        if len(params) != 2:
            raise InvalidParams("x1n takes N,p")
        return x1n_fiber(int(params[0]), int(params[1]))
    if name == "fermat":
        if len(params) != 2:
            raise InvalidParams("fermat takes p,r")
        return fermat_fiber(int(params[0]), int(params[1]))
    raise InvalidParams(f"unknown catalog generator {name!r}")
