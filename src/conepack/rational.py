"""Exact rational scalars: integer reading, rounding and text form.

The rational type ``Rat`` is ``fractions.Fraction``: numerator and
denominator in lowest terms with a positive denominator, exact comparison,
and a hash equal to that of an equal int.

Vectors are plain tuples.  Everything here is deterministic and
allocation-light.  The hot loops of the exact simplex and of parallelepiped
membership run on plain ints; ``Rat`` is their input and answer type, and
the arithmetic of the geometry, the oracles and the instance data.
"""

from __future__ import annotations

from fractions import Fraction as Rat

from .errors import InputError

ZERO = Rat(0)
ONE = Rat(1)


def format_rat(value) -> str:
    """Canonical text form: ``p`` when integral, else ``p/q`` in lowest terms."""
    value = Rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_int(value) -> int:
    """Exact conversion to int; raises InputError-grade ValueError if not integral."""
    value = Rat(value)
    if value.denominator != 1:
        raise ValueError(f"{format_rat(value)} is not an integer")
    return int(value.numerator)


def integer(value, what: str) -> int:
    """``value`` as an int; an ``InputError`` naming ``what`` unless it is
    integral.

    The package's one reader of integer input: every entry point that
    needs integers reads them here, so an integral rational or float is
    accepted and anything else, text included, raises.  A plain int
    returns at once.
    """
    if type(value) is int:
        return value
    if isinstance(value, str):
        raise InputError(f"{what} {value!r} is text, not an integer")
    try:
        return as_int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} {value} must be an integer") from exc


def rat_floor(value) -> int:
    value = Rat(value)
    return value.numerator // value.denominator


def rat_ceil(value) -> int:
    value = Rat(value)
    return -((-value.numerator) // value.denominator)
