import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberbeta as fb
from fiberbeta import ExactnessError, SchemaError, rat

from oracles import limit_document, random_fiber, random_horizontal

BANANA_DOC = """
{
  "schema_version": 1,
  "name": "banana(1,1,1)",
  "genus": 2,
  "components": [
    {"id": "G1", "multiplicity": 1, "genus": 1, "self_intersection": -1},
    {"id": "G2", "multiplicity": 1, "genus": 1, "self_intersection": -1}
  ],
  "intersections": [{"a": "G1", "b": "G2", "value": 1}],
  "horizontal": [
    {"id": "D1", "degree": 1, "incidence": {"G1": 1}},
    {"id": "Dsym", "degree": 1, "incidence": {"G1": "1/2", "G2": "1/2"}}
  ]
}
"""


def test_parse_banana_document():
    fiber, horizontals = fb.parse_fiber(BANANA_DOC)
    M = fb.build_laplacian(fiber)
    assert M.entries == ((rat(1), rat(-1)), (rat(-1), rat(1)))
    assert set(horizontals) == {"D1", "Dsym"}
    assert horizontals["Dsym"].incidence == (
        ("G1", rat(1, 2)),
        ("G2", rat(1, 2)),
    )


def test_float_literals_rejected():
    doc = BANANA_DOC.replace('"1/2"', '"0.5"')
    with pytest.raises(ExactnessError):
        fb.parse_fiber(doc)
    doc = BANANA_DOC.replace('"value": 1', '"value": 1.0')
    with pytest.raises(ExactnessError):
        fb.parse_fiber(doc)


def test_schema_errors_carry_paths():
    doc = json.loads(BANANA_DOC)
    del doc["genus"]
    with pytest.raises(SchemaError, match="genus"):
        fb.parse_fiber(json.dumps(doc))
    doc = json.loads(BANANA_DOC)
    doc["surprise"] = 1
    with pytest.raises(SchemaError, match="surprise"):
        fb.parse_fiber(json.dumps(doc))
    doc = json.loads(BANANA_DOC)
    doc["components"][0]["multiplicity"] = "one"
    with pytest.raises(SchemaError, match=r"components\[0\].multiplicity"):
        fb.parse_fiber(json.dumps(doc))
    doc = json.loads(BANANA_DOC)
    doc["intersections"].append({"a": "G2", "b": "G1", "value": 1})
    with pytest.raises(SchemaError, match="duplicate intersection"):
        fb.parse_fiber(json.dumps(doc))
    doc = json.loads(BANANA_DOC)
    doc["horizontal"][0]["incidence"] = {"NOPE": 1}
    with pytest.raises(SchemaError, match="NOPE"):
        fb.parse_fiber(json.dumps(doc))
    with pytest.raises(SchemaError):
        fb.parse_fiber(b"\xff\xfe not utf8")
    with pytest.raises(SchemaError):
        fb.parse_fiber("[1, 2]")
    with pytest.raises(SchemaError, match="duplicate object key"):
        fb.parse_fiber('{"schema_version": 1, "schema_version": 1}')
    doc = json.loads(BANANA_DOC)
    doc["schema_version"] = 99
    with pytest.raises(SchemaError, match="unsupported"):
        fb.parse_fiber(json.dumps(doc))


def test_oversized_integer_literals_are_schema_errors():
    # int() refuses strings longer than the interpreter's digit limit
    # (4300 digits by default); that must surface as bad input
    big = "7" * 5000
    with pytest.raises(SchemaError, match="integer literal of 5000 characters"):
        fb.parse_fiber(BANANA_DOC.replace('"value": 1', f'"value": {big}'))
    doc = BANANA_DOC.replace('"G1": "1/2"', f'"G1": "1/{big}"')
    with pytest.raises(SchemaError, match=r"horizontal\[1\]\.incidence\['G1'\]: integer literal"):
        fb.parse_fiber(doc)


def test_round_trip_canonicalizes():
    fiber, horizontals = fb.parse_fiber(BANANA_DOC)
    text = fb.serialize_fiber(fiber, horizontals)
    fiber2, horizontals2 = fb.parse_fiber(text)
    assert fiber2 == fiber
    assert horizontals2 == horizontals
    assert fb.serialize_fiber(fiber2, horizontals2) == text


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_round_trip_random_fibers(seed):
    rng = random.Random(seed)
    fiber = random_fiber(rng)
    horizontals = {}
    for k in range(rng.randint(0, 2)):
        h = random_horizontal(rng, fiber, degree=rng.randint(1, 3))
        horizontals[h.id] = h
    text = fb.serialize_fiber(fiber, horizontals)
    fiber2, horizontals2 = fb.parse_fiber(text)
    assert fiber2 == fiber
    assert fb.serialize_fiber(fiber2, horizontals2) == text


def test_serialized_rationals_are_canonical(fermat72):
    text = fb.serialize_fiber(fermat72.fiber)
    data = json.loads(text)
    assert data["components"][0]["self_intersection"] == -6
    again, _ = fb.parse_fiber(text)
    assert again == fermat72.fiber


def test_deeply_nested_document_is_a_schema_error():
    with pytest.raises(SchemaError, match="too deeply"):
        fb.parse_fiber("[" * 100000)
    with pytest.raises(SchemaError, match="too deeply"):
        fb.parse_fiber('{"a": ' * 100000)


def test_documents_at_the_size_limits_parse():
    fiber, horizontals = fb.parse_fiber(limit_document())
    assert (fiber.r, len(fiber.intersections)) == (2000, 10000)
    assert fb.validate(fiber).ok and set(horizontals) == {"D"}


@pytest.mark.parametrize("extra, counts", [
    ({"extra_components": 1}, "2001 components and 10000"),
    ({"extra_entries": 1}, "2000 components and 10001"),
])
def test_oversized_documents_are_schema_errors(extra, counts):
    with pytest.raises(SchemaError, match=f"document has {counts} intersection entries"):
        fb.parse_fiber(limit_document(**extra))


def test_oversized_documents_are_refused_before_building_anything():
    # not one component entry is a valid object: the size is checked first
    data = {"schema_version": 1, "name": "big", "genus": 2,
            "components": [None] * 2001, "intersections": []}
    with pytest.raises(SchemaError, match="the limits are 2000 and 10000"):
        fb.parse_fiber(json.dumps(data))
    data["components"], data["intersections"] = [None], [None] * 10001
    with pytest.raises(SchemaError, match="1 components and 10001 intersection entries"):
        fb.parse_fiber(json.dumps(data))
