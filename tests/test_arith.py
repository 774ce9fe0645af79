"""Exact rational arithmetic and valuation helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rhagames.arith import advance, fmt, make_valuation, rat, reset, restore, zero_valuation
from rhagames.errors import ParseError


def test_rat_parses_fraction_strings():
    assert rat("1/3") == Fraction(1, 3)
    assert rat("-2/8") == Fraction(-1, 4)
    assert rat(7) == Fraction(7)
    assert rat(Fraction(5, 10)) == Fraction(1, 2)


@pytest.mark.parametrize("text", ["1/0", " -3/0 ", "abc", "1/2/3", ""])
def test_rat_rejects_text_that_is_not_a_rational(text):
    with pytest.raises(ParseError, match=repr(text.strip())):
        rat(text)


def test_fmt_round_trips():
    assert fmt(Fraction(1, 12)) == "1/12"
    assert fmt(Fraction(4)) == "4/1"
    assert rat(fmt(Fraction(-3, 7))) == Fraction(-3, 7)


@given(
    a=st.integers(-10**9, 10**9), b=st.integers(1, 10**9),
    c=st.integers(-10**9, 10**9), d=st.integers(1, 10**9),
)
def test_sum_satisfies_cross_multiplication(a, b, c, d):
    # (a/b + c/d) must equal (ad + cb) / bd exactly, in lowest terms
    total = Fraction(a, b) + Fraction(c, d)
    assert total * (b * d) == a * d + c * b
    import math
    assert math.gcd(total.numerator, total.denominator) == 1
    assert total.denominator > 0


def test_zero_valuation_covers_variable_set():
    v = zero_valuation(("x", "y", "z"))
    assert v == {"x": 0, "y": 0, "z": 0}
    assert all(isinstance(q, Fraction) for q in v.values())


def test_advance_reset_restore():
    v = make_valuation(("x", "y"), {"x": "1/2"})
    flow = {"x": Fraction(1), "y": Fraction(0)}
    moved = advance(v, flow, Fraction(1, 3))
    assert moved == {"x": Fraction(5, 6), "y": Fraction(0)}
    assert reset(moved, ("x",)) == {"x": Fraction(0), "y": Fraction(0)}
    assert restore(moved, ("y",), {"x": Fraction(9), "y": Fraction(7)}) == {
        "x": Fraction(5, 6),
        "y": Fraction(7),
    }
    # inputs are never mutated
    assert v == {"x": Fraction(1, 2), "y": Fraction(0)}
