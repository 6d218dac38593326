import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fiberbeta import ExactnessError, MalformedInput, format_rat, rat
from fiberbeta.rationals import _integer_vector


def test_parsing_and_normalization():
    assert rat("3/6") == Fraction(1, 2)
    assert rat("-4/6") == Fraction(-2, 3)
    assert rat("4/-6") == Fraction(-2, 3)
    assert rat(7) == 7
    assert rat(Fraction(10, 4)) == Fraction(5, 2)
    assert rat(3, 6) == Fraction(1, 2)
    assert rat(" 5 ") == 5


def test_float_literals_rejected():
    with pytest.raises(ExactnessError):
        rat(0.25)
    with pytest.raises(ExactnessError):
        rat("0.25")
    with pytest.raises(ExactnessError):
        rat("1e-3")


def test_malformed():
    with pytest.raises(MalformedInput):
        rat("1/0")
    with pytest.raises(MalformedInput):
        rat(1, 0)
    with pytest.raises(MalformedInput):
        rat(True)
    with pytest.raises(MalformedInput):
        rat(None)


def test_format_rat():
    assert format_rat(rat(5)) == "5"
    assert format_rat(rat(-10, 4)) == "-5/2"
    assert format_rat(rat(0)) == "0"


def test_format_rat_past_the_int_string_limit():
    # Python refuses str() on ints over 4300 digits; format_rat stays exact
    n = 3**20000  # 9543 digits
    text = format_rat(rat(-n, 7))
    num, den = text.split("/")
    assert den == "7" and num.startswith("-") and len(num) == 9544
    value = 0
    for start in range(1, len(num), 1000):
        chunk = num[start:start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == n
    assert format_rat(rat(10**5000)) == "1" + "0" * 5000


@pytest.mark.parametrize(
    "xs, d",
    [
        ([], 1),
        ([rat(0), rat(0)], 1),
        ([rat(-3), rat(-7, 2)], 2),
        ([rat(1, 4), rat(-5, 6), rat(0), rat(7, 9), rat(-2)], 36),
        ([rat(3, 10**30), rat(-1, 6)], 3 * 10**30),
    ],
)
def test_integer_vector_round_trips(xs, d):
    X, scale = _integer_vector(xs)
    assert scale == d
    assert all(int(x) == x for x in X)  # Python ints, or mpz under gmpy2
    assert [rat(x, scale) for x in X] == xs


TESTS = Path(__file__).resolve().parent
# the byte pins of the CLI: every compute op, catalog emit, refused
# parameters and validate
CLI_PINS = (
    "test_resistance_table_bytes_are_pinned",
    "test_genus2_emit_bytes_are_pinned",
    "test_catalog_emit_bytes_are_pinned",
    "test_refused_catalog_parameters_print_one_pinned_line",
    "test_validate_bytes_are_pinned",
)


def test_gmpy2_backend_passes_the_audit_and_cli_pins_on_a_stand_in():
    # tests/standin/gmpy2.py has mpz and mpq types that, as in gmpy2, are
    # not int or Fraction subclasses, so an isinstance slip fails here
    path = [str(TESTS / "standin"), str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    check = (
        "from fiberbeta import rationals as r; "
        "assert r.BACKEND == 'gmpy2', r.BACKEND; "
        "assert type(r.rat(3).numerator) is not int"
    )
    subprocess.run([sys.executable, "-c", check], env=env, check=True, timeout=60)
    tests = ["tests/test_audit.py"] + [f"tests/test_cli.py::{name}" for name in CLI_PINS]
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
        cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
