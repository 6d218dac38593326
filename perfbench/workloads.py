"""Seeded fiber documents and op lists for the three benchmark workloads.

The generators here are written from the fiber definitions (genus-2 types
realized from their metrized graphs, bananas, Fermat fibers of prime
exponent) and never import fiberbeta, so the program under test receives
only documents and argv made by the benchmark.  The seed changes what can
change without changing the amount of work: component and intersection
order in every document, the split of fixed parameter sums, the divisor
component on reduced fibers, log-sum coefficients and the op order.
"""

from __future__ import annotations

import json
import random

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

# (type, arity) of the semistable genus-2 reduction types used here.
COMPUTE_OPS = ("beta", "vdiv", "udiv", "semipos", "resistance")

GENUS2_ARITY = {"I": 0, "II": 1, "III": 1, "IV": 2, "V": 2, "VI": 3, "VII": 3}


class Fiber:
    """Components as (id, multiplicity, genus, self_intersection) plus pairs."""

    def __init__(self, name, genus, components, pairs):
        self.name = name
        self.genus = genus
        self.components = components
        self.pairs = pairs  # {(id_a, id_b): value}

    @property
    def r(self):
        return len(self.components)

    @property
    def nnz(self):
        return self.r + 2 * len(self.pairs)

    @property
    def reduced(self):
        return all(m == 1 for _, m, _, _ in self.components)

    @property
    def dense(self):
        """Complete dual graph: every pair of components meets."""
        return self.r > 2 and len(self.pairs) == self.r * (self.r - 1) // 2


def genus2(kind: str, params) -> Fiber:
    """Realize a genus-2 type: paths add chains, loops add cycles or genus."""
    genus = {}
    edges = []
    fresh = iter(f"c{k}" for k in range(1, 10**6))

    def vertex(vid, g):
        genus[vid] = g

    def chain(u, v, length):
        prev = u
        for _ in range(length - 1):
            nid = next(fresh)
            vertex(nid, 0)
            edges.append((prev, nid))
            prev = nid
        edges.append((prev, v))

    def loop(v, length):
        if length == 1:
            genus[v] += 1
        else:
            chain(v, v, length)

    if kind == "I":
        vertex("u", 2)
    elif kind == "II":
        vertex("u", 1)
        vertex("v", 1)
        chain("u", "v", params[0])
    elif kind == "III":
        vertex("u", 1)
        loop("u", params[0])
    elif kind == "IV":
        vertex("u", 1)
        vertex("w", 0)
        chain("u", "w", params[0])
        loop("w", params[1])
    elif kind == "V":
        vertex("u", 0)
        loop("u", params[0])
        loop("u", params[1])
    elif kind == "VI":
        vertex("u", 0)
        vertex("w", 0)
        chain("u", "w", params[0])
        loop("u", params[1])
        loop("w", params[2])
    elif kind == "VII":
        vertex("u", 0)
        vertex("w", 0)
        for length in params:
            chain("u", "w", length)
    else:
        raise ValueError(f"unknown genus-2 type {kind!r}")
    pairs = {}
    degree = {v: 0 for v in genus}
    for u, v in edges:
        key = (u, v) if u < v else (v, u)
        pairs[key] = pairs.get(key, 0) + 1
        degree[u] += 1
        degree[v] += 1
    name = f"{kind}({','.join(map(str, params))})" if params else kind
    comps = [(v, 1, genus[v], -degree[v]) for v in genus]
    return Fiber(name, 2, comps, pairs)


def banana(s: int, p1: int, p2: int) -> Fiber:
    comps = [("G1", 1, p1, -s), ("G2", 1, p2, -s)]
    return Fiber(f"banana({s},{p1},{p2})", p1 + p2 + s - 1, comps, {("G1", "G2"): s})


def fermat(p: int, r: int) -> Fiber:
    """Fermat fiber: a clique of x, y, z, beta_j, alpha_i; p pendants per alpha."""
    s = p - 3 - 2 * r
    mains = ["x", "y", "z"] + [f"beta{j + 1}" for j in range(s)]
    alphas = [f"alpha{i + 1}" for i in range(r)]
    comps = [(c, 1, 0, 1 - p) for c in mains]
    pairs = {}
    clique = mains + alphas
    for i, a in enumerate(clique):
        for b in clique[i + 1:]:
            pairs[(a, b)] = 1
    for alpha in alphas:
        comps.append((alpha, 2, 0, 1 - p))
        for j in range(p):
            pend = f"{alpha}.{j + 1}"
            comps.append((pend, 1, 0, -2))
            pairs[(alpha, pend)] = 1
    return Fiber(f"fermat({p},{r})", (p - 1) * (p - 2) // 2, comps, pairs)


def document(fiber: Fiber, divisor: str, rng=None) -> str:
    """Fiber document with one degree-1 horizontal S_<divisor>.

    With an rng the components, the intersections and the ends of each
    intersection come in a seeded order; without one the order is the
    generator's.
    """
    comps = list(fiber.components)
    pairs = [(a, b, v) for (a, b), v in fiber.pairs.items()]
    if rng is not None:
        rng.shuffle(comps)
        rng.shuffle(pairs)
        pairs = [(b, a, v) if rng.random() < 0.5 else (a, b, v) for a, b, v in pairs]
    doc = {
        "schema_version": 1,
        "name": fiber.name,
        "genus": fiber.genus,
        "components": [
            {"id": c, "multiplicity": m, "genus": g, "self_intersection": si}
            for c, m, g, si in comps
        ],
        "intersections": [{"a": a, "b": b, "value": v} for a, b, v in pairs],
        "horizontal": [{"id": f"S_{divisor}", "degree": 1, "incidence": {divisor: 1}}],
    }
    return json.dumps(doc, indent=1)


def _split(rng, total: int, parts: int, low: int, high: int) -> tuple:
    """Seeded composition of total into parts, each within [low, high]."""
    while True:
        cuts = sorted(rng.sample(range(1, total), parts - 1))
        out = tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (total,)))
        if all(low <= x <= high for x in out):
            return out


class Workload:
    """Documents (name -> text and metadata) and the op list of one pass."""

    def __init__(self):
        self.docs = {}
        self.ops = []

    def add_doc(self, key, fiber, divisor, rng, family, kind=None, params=None):
        self.docs[key] = {
            "text": document(fiber, divisor, rng),
            "canonical": document(fiber, divisor),
            "family": family,
            "kind": kind,
            "params": list(params) if params is not None else None,
            "divisor": divisor,
            "r": fiber.r,
            "nnz": fiber.nnz,
            "reduced": fiber.reduced,
            "dense": fiber.dense,
        }

    def compute(self, key, op, oracle, divisor=False, relabel=False):
        argv = ["compute", f"{key}.json", "--op", op]
        if divisor:
            argv += ["--divisor", f"S_{self.docs[key]['divisor']}"]
        self.ops.append({"argv": argv, "doc": key, "oracle": oracle, "relabel": relabel})


def oracle_for(doc: dict) -> dict:
    """Closed-form Fermat references on non-reduced Fermat fibers, else the dense M+."""
    if doc["family"] == "fermat" and not doc["reduced"]:
        p, r = doc["params"]
        return {"name": "fermat", "p": p, "r": r}
    return {"name": "dense"}


def sweep_small(seed: int) -> Workload:
    """84 small documents under one compute op each, plus 10 evaluates."""
    rng = random.Random(seed)
    wl = Workload()
    sums = {2: (2, 4, 6, 8, 10, 12, 14, 16), 3: (3, 5, 8, 10, 12, 15, 18, 24)}
    fibers = [("I", ())]
    for kind, arity in GENUS2_ARITY.items():
        if arity == 1:
            fibers += [(kind, (a,)) for a in range(1, 9)]
        elif arity > 1:
            fibers += [(kind, _split(rng, t, arity, 1, 8)) for t in sums[arity]]
    for kind, params in fibers:
        fiber = genus2(kind, params)
        cid = rng.choice([c for c, *_ in fiber.components])
        wl.add_doc(f"g2-{len(wl.docs)}", fiber, cid, rng, "genus2", kind, params)
    for s, p1, p2 in ((1, 1, 1), (2, 1, 0), (3, 0, 0), (1, 2, 1), (2, 2, 2), (5, 0, 0),
                      (4, 1, 2), (7, 0, 3)):
        fiber = banana(s, p1, p2)
        wl.add_doc(f"banana-{len(wl.docs)}", fiber, rng.choice(["G1", "G2"]), rng,
                   "banana", params=(s, p1, p2))
    # fermat(11,3) and fermat(13,2) come four times each: their ops sit at
    # the 90th percentile of op latency, and a cluster there keeps op_ms.p90
    # from jumping between neighbouring fiber sizes.
    cases = [(5, 1), (7, 1), (7, 2), (11, 1), (11, 2), (11, 4)] + [(11, 3)] * 4
    cases += [(13, 1), (13, 3), (13, 4), (13, 5)] + [(13, 2)] * 4
    cases += [(p, 0) for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)]
    for p, r in cases:
        wl.add_doc(f"fermat-{p}-{r}-{len(wl.docs)}", fermat(p, r), "x", rng, "fermat",
                   params=(p, r))

    # One op per document, rotating over the five compute ops in generation
    # order, so every seed pairs the same documents with the same ops and
    # the pass does the same work; the seed only reorders.
    for k, (key, doc) in enumerate(list(wl.docs.items())):
        oracle = oracle_for(doc)
        op = COMPUTE_OPS[k % 5]
        relabel = rng.random() < 0.125
        if op != "beta":
            wl.compute(key, op, oracle, relabel=relabel)
        elif doc["kind"] in ("I", "III", "V", "VII"):
            # closed path, where the genus-2 table asserts beta
            table1 = {"kind": doc["kind"], "params": doc["params"]}
            wl.compute(key, op, dict(oracle, table1=table1), relabel=relabel)
        else:
            # direct path: prints the parts and, if reduced, beta_closed
            wl.compute(key, op, oracle, divisor=True, relabel=relabel)

    for k in range(10):
        primes = rng.sample(PRIMES, rng.randint(1, 4))
        terms = {str(p): f"{rng.choice([-1, 1]) * rng.randint(1, 60)}/{rng.randint(1, 30)}"
                 for p in primes}
        key = f"logsum-{k}"
        wl.docs[key] = {"text": json.dumps(terms), "family": "logsum"}
        digits = rng.randint(5, 60)
        wl.ops.append({
            "argv": ["evaluate", f"{key}.json", "--digits", str(digits)],
            "doc": key,
            "oracle": {"name": "evaluate", "terms": terms, "digits": digits},
            "relabel": False,
        })
    rng.shuffle(wl.ops)
    return wl


def sparse_large(seed: int) -> Workload:
    """A few fibers with r = 150..243 where the dense M+ dominates.

    Seven ops of one to four seconds, 11-16 s a pass, so that a run holds
    two or three passes and each op's latency is a mean over them.  Larger
    fibers (fermat(31,14) takes about 12 s alone) would leave every op a
    single sample per run, which the host's drifting speed makes unsteady.
    """
    rng = random.Random(seed)
    wl = Workload()
    for p, r in ((23, 10), (19, 8)):
        wl.add_doc(f"fermat-{p}-{r}", fermat(p, r), "x", rng, "fermat", params=(p, r))
    params = _split(rng, 151, 3, 30, 70)
    vii = genus2("VII", params)
    wl.add_doc("vii", vii, rng.choice([c for c, *_ in vii.components]), rng, "genus2",
               "VII", params)

    wl.compute("fermat-23-10", "semipos", oracle_for(wl.docs["fermat-23-10"]))
    wl.compute("fermat-19-8", "beta", oracle_for(wl.docs["fermat-19-8"]), divisor=True)
    wl.compute("fermat-19-8", "udiv", oracle_for(wl.docs["fermat-19-8"]))
    wl.ops.append({
        "argv": ["catalog", "emit", "fermat", "--params", "19,8"],
        "doc": "fermat-19-8",
        "oracle": {"name": "emit"},
        "relabel": False,
    })
    wl.ops.append({
        "pipeline": "fermat-19-8.json",
        "doc": "fermat-19-8",
        "oracle": oracle_for(wl.docs["fermat-19-8"]),
        "relabel": False,
    })
    wl.compute("vii", "beta", {"name": "none", "table1": {"kind": "VII", "params": list(params)}})
    wl.compute("vii", "resistance", {"name": "none"})
    rng.shuffle(wl.ops)
    return wl


# Report summary counts (rows, match, mismatch, info) and the SHA-256 of
# the report text, recorded at the commit that introduced this benchmark.
AUDIT_EXPECTED = {
    "table1": ((169, 85, 0, 84),
               "3cf3ad4d03c24fbb0941df04e754fbea3a88069f2fa4cdd18cf4fc0cac15fae7"),
    "fermat": ((152, 91, 0, 61),
               "134495a7dfa02566115c64101933762876771695275d68fae46684690d088a5a"),
    "x1n": ((22, 20, 0, 2),
            "2573fdb8831b2fcee549debaca1f4fbdc6d5a1b2bb70c78d8b67d8fc86bbfa12"),
}


def audit_suites(seed: int) -> Workload:
    """The three reproduction audits; the seed only orders them."""
    rng = random.Random(seed)
    wl = Workload()
    for suite, (counts, digest) in AUDIT_EXPECTED.items():
        wl.ops.append({
            "argv": ["audit", "--suite", suite],
            "doc": None,
            "oracle": {"name": "audit", "counts": list(counts), "sha256": digest},
            "relabel": False,
        })
    rng.shuffle(wl.ops)
    return wl


WORKLOADS = {"sweep-small": sweep_small, "sparse-large": sparse_large,
             "audit-suites": audit_suites}


def warmup_document() -> str:
    """The smallest input: a two-component banana."""
    return document(banana(2, 1, 0), "G1")
