"""Rigorous rational lower bounds on fractional powers.

The decay estimates compare exact rationals against bounds involving
``k^(7/2)``, ``k^(7/4)`` and similar irrational constants.  These helpers
produce rational lower bounds with ``ROOT_DIGITS`` decimal digits, so
inequality checks stay exact: substituting a lower bound into a
monotone-increasing right-hand side only strengthens the assertion.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

#: Decimal digits of the rational lower bounds from ``root_lower``.
ROOT_DIGITS = 24


def integer_root(x: int, degree: int) -> int:
    """floor(x ** (1/degree)) for nonnegative integers, exactly."""
    if x < 0:
        raise ValueError("negative radicand")
    if degree < 1:
        raise ValueError("degree must be positive")
    if degree == 1 or x in (0, 1):
        return x
    if degree == 2:
        return isqrt(x)
    if degree == 4:
        return isqrt(isqrt(x))
    root = 1 << -(-x.bit_length() // degree)
    while True:
        refined = ((degree - 1) * root + x // root ** (degree - 1)) // degree
        if refined >= root:
            break
        root = refined
    while root**degree > x:
        root -= 1
    return root


def root_lower(value: Fraction | int, degree: int) -> Fraction:
    """A rational r with r <= value ** (1/degree), to ``ROOT_DIGITS`` decimals."""
    value = Fraction(value)
    if value < 0:
        raise ValueError("negative radicand")
    scale = 10**ROOT_DIGITS
    scaled = (value.numerator * scale**degree) // value.denominator
    return Fraction(integer_root(scaled, degree), scale)

