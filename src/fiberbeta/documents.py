"""Input documents: a fiber's intersection data, and the log-sum
{"p": q_p} standing for sum_p q_p log p, which `evaluate` renders.

Both are JSON read by one strict loader: UTF-8 only, float and non-finite
literals rejected (ExactnessError), repeated keys and over-long integers
refused (SchemaError), so exactness is preserved end to end.  A fiber
document has a fixed schema: schema_version, name, genus, a components
array (id, multiplicity, genus, self_intersection), an intersections array
of {a, b, value} entries, and an optional horizontal array of incidence
data.  Rationals travel as integers or "n/d" strings.  Unknown fields are
rejected.

Serialization is canonical: fixed key order, components in fiber order,
intersections sorted by component index with a before b, incidence maps
sorted by id.  parse . serialize is the identity on canonical documents
and serialize . parse canonicalizes any accepted document; errors carry
the JSON path of the offending field.  A document of more than
fiber.MAX_COMPONENTS components or fiber.MAX_INTERSECTIONS intersection
entries is refused (SchemaError) before any component is built.
"""

from __future__ import annotations

import json
from typing import Mapping, Tuple

from .errors import ExactnessError, MalformedInput, SchemaError
from .fiber import MAX_COMPONENTS, MAX_INTERSECTIONS, Component, HorizontalIncidence, SpecialFiber
from .logsum import MAX_TERMS, FormalLogSum
from .rationals import Rat, format_rat, parse_int, rat

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "name", "genus", "components", "intersections", "horizontal"}
_COMPONENT_KEYS = {"id", "multiplicity", "genus", "self_intersection"}
_INTERSECTION_KEYS = {"a", "b", "value"}
_HORIZONTAL_KEYS = {"id", "degree", "incidence"}


def _reject_float(text: str):
    raise ExactnessError(f"float literal {text!r} rejected; use 'n/d' strings")


def _reject_constant(text: str):
    raise ExactnessError(f"non-finite literal {text!r} rejected")


def _no_duplicate_keys(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        dup = sorted(k for k in set(keys) if keys.count(k) > 1)
        raise SchemaError(f"duplicate object key(s): {dup}")
    return dict(pairs)


def _expect_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise SchemaError(f"{path}: missing field(s) {sorted(missing)}")


def _expect_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {value!r}")
    return value


def _expect_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise SchemaError(f"{path}: expected a nonempty string, got {value!r}")
    return value


def _expect_rat(value, path: str) -> Rat:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise SchemaError(f"{path}: expected an integer or 'n/d' string, got {value!r}")
    try:
        return rat(value)
    except ExactnessError as exc:
        raise ExactnessError(f"{path}: {exc}") from exc
    except MalformedInput as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _load(document):
    """The JSON value of a document (bytes or str), read strictly."""
    if isinstance(document, (bytes, bytearray)):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(f"document is not UTF-8: {exc}") from exc
    try:
        return json.loads(
            document,
            parse_float=_reject_float,
            parse_int=parse_int,
            parse_constant=_reject_constant,
            object_pairs_hook=_no_duplicate_keys,
        )
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise SchemaError("document nests arrays or objects too deeply") from None


def parse_logsum(document) -> FormalLogSum:
    """Parse a log-sum document {"p": q_p}: decimal primes, MAX_TERMS at most."""
    data = _load(document)
    if not isinstance(data, dict):
        raise SchemaError("log-sum document must be an object {prime: coefficient}")
    if len(data) > MAX_TERMS:
        raise SchemaError(f"log-sum has {len(data)} terms; the limit is {MAX_TERMS}")
    return FormalLogSum(
        (parse_int(key) if key.isdecimal() else key, rat(value)) for key, value in data.items()
    )


def parse_fiber(document) -> Tuple[SpecialFiber, dict]:
    """Parse a document (bytes or str) into a fiber plus named horizontals."""
    data = _load(document)
    if not isinstance(data, dict):
        raise SchemaError("top level: expected an object")
    _expect_keys(data, _TOP_KEYS, _TOP_KEYS - {"horizontal"}, "top level")
    version = _expect_int(data["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"schema_version: unsupported version {version}")
    name = _expect_str(data["name"], "name")
    genus = _expect_int(data["genus"], "genus")

    if not isinstance(data["components"], list) or not data["components"]:
        raise SchemaError("components: expected a nonempty array")
    if not isinstance(data["intersections"], list):
        raise SchemaError("intersections: expected an array")
    size = len(data["components"]), len(data["intersections"])
    if size[0] > MAX_COMPONENTS or size[1] > MAX_INTERSECTIONS:
        raise SchemaError(
            f"document has {size[0]} components and {size[1]} intersection entries; "
            f"the limits are {MAX_COMPONENTS} and {MAX_INTERSECTIONS}"
        )
    components = []
    for k, entry in enumerate(data["components"]):
        path = f"components[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: expected an object")
        _expect_keys(entry, _COMPONENT_KEYS, _COMPONENT_KEYS, path)
        try:
            components.append(
                Component(
                    id=_expect_str(entry["id"], f"{path}.id"),
                    multiplicity=_expect_int(entry["multiplicity"], f"{path}.multiplicity"),
                    genus=_expect_int(entry["genus"], f"{path}.genus"),
                    self_intersection=_expect_rat(
                        entry["self_intersection"], f"{path}.self_intersection"
                    ),
                )
            )
        except SchemaError:
            raise
        except MalformedInput as exc:
            raise SchemaError(f"{path}: {exc}") from exc

    triples = []
    seen_pairs = set()
    for k, entry in enumerate(data["intersections"]):
        path = f"intersections[{k}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{path}: expected an object")
        _expect_keys(entry, _INTERSECTION_KEYS, _INTERSECTION_KEYS, path)
        a = _expect_str(entry["a"], f"{path}.a")
        b = _expect_str(entry["b"], f"{path}.b")
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            raise SchemaError(f"{path}: duplicate intersection pair ({a!r}, {b!r})")
        seen_pairs.add(pair)
        triples.append((a, b, _expect_rat(entry["value"], f"{path}.value")))

    try:
        fiber = SpecialFiber(
            name=name, components=components, intersections=triples, genus=genus
        )
    except MalformedInput as exc:
        raise SchemaError(f"fiber data: {exc}") from exc

    horizontals = {}
    if "horizontal" in data:
        if not isinstance(data["horizontal"], list):
            raise SchemaError("horizontal: expected an array")
        for k, entry in enumerate(data["horizontal"]):
            path = f"horizontal[{k}]"
            if not isinstance(entry, dict):
                raise SchemaError(f"{path}: expected an object")
            _expect_keys(entry, _HORIZONTAL_KEYS, _HORIZONTAL_KEYS, path)
            hid = _expect_str(entry["id"], f"{path}.id")
            if hid in horizontals:
                raise SchemaError(f"{path}.id: duplicate horizontal id {hid!r}")
            if not isinstance(entry["incidence"], dict):
                raise SchemaError(f"{path}.incidence: expected an object")
            incidence = {}
            for cid, value in entry["incidence"].items():
                if cid not in fiber.index:
                    raise SchemaError(
                        f"{path}.incidence: unknown component id {cid!r}"
                    )
                incidence[cid] = _expect_rat(value, f"{path}.incidence[{cid!r}]")
            horizontals[hid] = HorizontalIncidence(
                id=hid,
                degree=_expect_rat(entry["degree"], f"{path}.degree"),
                incidence=incidence,
            )
    return fiber, horizontals


def _rat_json(x: Rat):
    return int(x) if x.denominator == 1 else format_rat(x)


def serialize_fiber(fiber: SpecialFiber, horizontals=None) -> str:
    """Canonical document text for a fiber (and optional horizontals)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": fiber.name,
        "genus": fiber.genus,
        "components": [
            {
                "id": c.id,
                "multiplicity": c.multiplicity,
                "genus": c.genus,
                "self_intersection": _rat_json(c.self_intersection),
            }
            for c in fiber.components
        ],
        "intersections": [
            {"a": a, "b": b, "value": _rat_json(v)} for a, b, v in fiber.intersections
        ],
    }
    if horizontals:
        if isinstance(horizontals, Mapping):
            items = [horizontals[k] for k in sorted(horizontals)]
        else:
            items = sorted(horizontals, key=lambda h: h.id)
        doc["horizontal"] = [
            {
                "id": h.id,
                "degree": _rat_json(h.degree),
                "incidence": {cid: _rat_json(v) for cid, v in h.incidence},
            }
            for h in items
        ]
    return json.dumps(doc, indent=2, ensure_ascii=True)
