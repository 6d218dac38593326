import mpmath
import pytest

import fiberbeta as fb
from fiberbeta import (
    FormalLogSum,
    GlobalModel,
    MalformedInput,
    NotReduced,
    Place,
    rat,
)


def test_formal_log_sum_basics():
    s = FormalLogSum({5: rat(1, 2), 7: rat(0)})
    assert s.terms == ((5, rat(1, 2)),)
    assert s.coefficient(7) == 0
    t = FormalLogSum({5: rat(-1, 2), 11: rat(3)})
    assert (s + t).terms == ((11, rat(3)),)
    assert str(FormalLogSum({})) == "0"
    assert str(FormalLogSum({5: rat(18), 7: rat(16)})) == "18*log(5) + 16*log(7)"
    with pytest.raises(MalformedInput):
        FormalLogSum({1: rat(1)})


def test_evaluate_examples():
    assert fb.evaluate(FormalLogSum({5: 1}), 6) == "1.609438"
    assert fb.evaluate(FormalLogSum({}), 3) == "0"
    # correctly rounded: 188/125 * log 5 = 2.42059462...
    assert fb.evaluate(FormalLogSum({5: rat(188, 125)}), 4) == "2.4206"
    assert fb.evaluate(FormalLogSum({2: rat(-1)}), 5) == "-0.69315"
    assert fb.evaluate(FormalLogSum({2: 10}), 1) == "6.9"
    with pytest.raises(MalformedInput):
        fb.evaluate(FormalLogSum({5: 1}), 0)


def test_evaluate_past_the_int_to_string_limit_matches_mpmath():
    # Python refuses str() of an int past 4300 digits; 4300 places need 4301
    s = FormalLogSum({5: rat(188, 125), 7: rat(-1, 3)})
    with mpmath.workdps(4400):
        value = mpmath.mpf(188) / 125 * mpmath.log(5) - mpmath.log(7) / 3
        want = mpmath.nstr(value, 4301, strip_zeros=False)
    assert fb.evaluate(s, 4300) == want
    with pytest.raises(MalformedInput, match=f"digits past {fb.logsum.MAX_DIGITS}"):
        fb.evaluate(s, fb.logsum.MAX_DIGITS + 1)


def test_evaluate_starts_past_a_long_integer_part(monkeypatch):
    # 7...7 log 5 has 4001 integer digits: the first working precision
    # covers them, so two evaluations settle the rounding
    s = FormalLogSum({5: 7 * (10**4000 - 1) // 9})
    calls = []
    to_mpf = FormalLogSum.to_mpf
    monkeypatch.setattr(FormalLogSum, "to_mpf", lambda self: calls.append(1) or to_mpf(self))
    got = fb.evaluate(s, 100)
    assert len(calls) <= 2
    with mpmath.workdps(4200):
        want = int(mpmath.nint(to_mpf(s) * mpmath.power(10, 100)))
    assert got == f"{str(want)[:-100]}.{str(want)[-100:]}"


def test_global_beta_examples(single_component):
    one = GlobalModel(
        name="one-place",
        places=(
            Place("v1", 3, 1, fb.banana(1, 1, 1)),
        ),
    )
    assert fb.global_beta(one).terms == ((3, rat(1)),)
    trivial = GlobalModel(
        name="good-reduction",
        places=(
            Place("v1", 3, 2, single_component.fiber),
            Place("v2", 5, 1, single_component.fiber),
        ),
    )
    assert fb.global_beta(trivial).is_zero()
    model = fb.x1n_model(35)
    beta = fb.global_beta(model)
    assert beta.terms == ((5, rat(18)), (7, rat(16)))
    # the local betas, before the weights phi(N/p) = 6 and 4
    local = [fb.beta_closed(pl.fiber, fb.pseudoinverse(fb.build_laplacian(pl.fiber))).beta for pl in model.places]
    assert local == [3, 4]


def test_global_beta_additive_over_places():
    m35 = fb.x1n_model(35)
    first = GlobalModel("p5-only", (m35.places[0],))
    second = GlobalModel("p7-only", (m35.places[1],))
    assert fb.global_beta(first) + fb.global_beta(second) == fb.global_beta(m35)


def test_global_model_validation(fermat72, single_component):
    with pytest.raises(MalformedInput):
        GlobalModel(
            name="mixed-genus",
            places=(
                Place("a", 3, 1, fb.banana(1, 1, 1)),
                Place("b", 5, 1, fb.banana(2, 1, 1)),
            ),
        )
    nonreduced = GlobalModel(
        name="fermat7",
        places=(Place("p7", 7, 1, fermat72.fiber),),
    )
    with pytest.raises(NotReduced):
        fb.global_beta(nonreduced)
    chosen = GlobalModel(
        name="fermat7",
        places=(
            Place(
                "p7",
                7,
                1,
                fermat72.fiber,
                divisor=fb.unit_incidence(fermat72.fiber, "x"),
            ),
        ),
    )
    assert fb.global_beta(chosen).terms == ((7, rat(11365, 1029)),)
    with pytest.raises(MalformedInput):
        Place("bad", 1, 1, single_component.fiber)
    with pytest.raises(MalformedInput):
        Place("bad", 5, 0, single_component.fiber)


def test_formal_log_sum_keys_must_be_prime():
    # {4: 1, 2: -2} is worth 0 but would be two nonzero terms
    for key in (4, 9, 561, 2047, 3215031751, 2**61 + 1, 0, -7, True):
        with pytest.raises(MalformedInput, match="integer prime"):
            FormalLogSum({key: rat(1)})
    with pytest.raises(MalformedInput):
        FormalLogSum({4: 1, 2: -2})
    # 2^89 - 1 is prime, but past the bound where primality is decided exactly
    with pytest.raises(MalformedInput, match="not decided exactly"):
        FormalLogSum({2**89 - 1: 1})
    assert FormalLogSum({2**61 - 1: 1, 3: 2}).terms == ((3, rat(2)), (2**61 - 1, rat(1)))
    assert FormalLogSum({2: 1}) + FormalLogSum({3: 1}) == FormalLogSum({3: 1, 2: 1})


def test_is_prime_matches_trial_division():
    from fiberbeta.logsum import is_prime

    def trial(n):
        return n >= 2 and all(n % k for k in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
