"""Exact rational arithmetic and variable valuations.

Every real-valued quantity in this package (delays, clock values, guard
bounds, durations) is an exact rational.  Floating point is never used:
the counter encodings manipulated by the gadget compiler live at
denominators like 2^k * 3^k and are destroyed by rounding.

``Rational`` is ``fractions.Fraction``: it already guarantees lowest
terms, a positive denominator and structural equality, which is exactly
the contract required here.
"""

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Union

from .errors import ParseError

Rational = Fraction

RationalLike = Union[Rational, int, str]

#: A valuation maps every automaton variable to an exact rational.
Valuation = Dict[str, Rational]


def rat(value: RationalLike) -> Rational:
    """Coerce an int, Fraction, or ``"p/q"`` string to an exact rational;
    text that is not a rational (a zero denominator included) raises
    ``ParseError``."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, int):
        return Rational(value)
    text = str(value).strip()
    try:
        return Rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{text!r} is not a rational") from exc


def fmt(value: Rational) -> str:
    """Serialize a rational as ``"p/q"`` (``"p/1"`` for integers)."""
    q = rat(value)
    return f"{q.numerator}/{q.denominator}"


def zero_valuation(variables: Iterable[str]) -> Valuation:
    """The valuation mapping every variable to 0."""
    return {x: Rational(0) for x in variables}


def make_valuation(variables: Iterable[str], values: Mapping[str, RationalLike]) -> Valuation:
    """Build a valuation over exactly ``variables``, defaulting to 0."""
    return {x: rat(values.get(x, 0)) for x in variables}


def advance(valuation: Valuation, flow: Mapping[str, Rational], delay: Rational) -> Valuation:
    """Let time pass: each variable grows by its flow rate times ``delay``."""
    return {x: v + flow[x] * delay for x, v in valuation.items()}


def reset(valuation: Valuation, variables: Iterable[str]) -> Valuation:
    """Set the named variables to 0, leaving the rest untouched."""
    cleared = set(variables)
    return {x: (Rational(0) if x in cleared else v) for x, v in valuation.items()}


def restore(valuation: Valuation, variables: Iterable[str], saved: Mapping[str, Rational]) -> Valuation:
    """Overwrite the named variables with their values in ``saved``."""
    chosen = set(variables)
    return {x: (saved[x] if x in chosen else v) for x, v in valuation.items()}
