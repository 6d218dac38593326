from fractions import Fraction

import pytest

from fiberbeta import ExactnessError, MalformedInput, format_rat, rat


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
