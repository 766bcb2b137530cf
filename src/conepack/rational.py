"""Exact rational scalars: input reading, rounding and text form.

The rational type ``Rat`` is ``fractions.Fraction``: numerator and
denominator in lowest terms with a positive denominator, exact comparison,
and a hash equal to that of an equal int.

Every exact input of the package is read here.  A scalar is read by
``exact`` (a rational) or ``integer`` (an int); a vector by ``rationals``
(a tuple of rationals), ``integers`` (a tuple of ints) or ``cleared``
(rationals as ints over the lcm of their denominators); and a system by
``integer_rows`` (the rows and right-hand sides of ``A x <= b``).  Every
vector reader reads its entries through ``sequence``, the one test of
what a vector is: a value that cannot be iterated, or text, is not one.
Each reader names the field it reads in the ``InputError`` it raises for
text, None, a non-finite number, a scalar where a sequence belongs or,
where an integer is asked for, a non-integral value.  No other module
reads a vector entry by entry, or a numerator or a denominator.

Vectors are plain tuples.  Everything here is deterministic and
allocation-light.  The hot loops of the exact simplex and of parallelepiped
membership run on plain ints; ``Rat`` is their input and answer type, and
the arithmetic of the geometry, the oracles and the instance data.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from math import lcm

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


def exact(value, what: str) -> Rat:
    """``value`` as a ``Rat``; an ``InputError`` naming ``what`` for text,
    None or a non-finite number.

    A ``Rat`` comes back as it is, and a float as its exact value.
    """
    if type(value) is Rat:
        return value
    if isinstance(value, str):
        raise InputError(f"{what} {value!r} is text, not a number")
    try:
        return Rat(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} {value} must be a finite rational") from exc


def sequence(values, what: str):
    """``values`` as a sequence: a tuple or a list as it is, any other
    iterable as a tuple; an ``InputError`` naming ``what`` for text or a
    value that cannot be iterated.

    The package's one test of what a vector is.
    """
    if type(values) is tuple or type(values) is list:
        return values
    if isinstance(values, str):
        raise InputError(f"{what} {values!r} is text, not a sequence")
    try:
        entries = iter(values)
    except TypeError:
        raise InputError(f"{what} {values!r} is not a sequence") from None
    return tuple(entries)


def integers(values, what: str) -> tuple:
    """``values`` as a tuple of ints, each read through ``integer``: the
    package's one reader of an integer vector.  A tuple of ints comes back
    as it is."""
    if type(values) is not tuple:
        values = tuple(sequence(values, what))
    for v in values:
        if type(v) is not int:
            return tuple([integer(v, what) for v in values])
    return values


def rationals(values, what: str) -> tuple:
    """``values`` as a tuple of ``Rat``, each read through ``exact``: the
    package's one reader of a rational vector."""
    return tuple([exact(v, what) for v in sequence(values, what)])


def cleared(values, what: str) -> tuple:
    """``(ints, scale)``: each of ``values`` read through ``exact`` and
    multiplied by ``scale``, the lcm of their denominators, which leaves
    the ints in lowest terms.  A list of ints comes back with scale 1.

    The package's one clearing of denominators.
    """
    values = sequence(values, what)
    if all(type(v) is int for v in values):
        return list(values), 1
    values = [v if type(v) is int else exact(v, what) for v in values]
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def integer_rows(rows, rhs) -> tuple:
    """``(rows, rhs)`` as a list of int tuples and a tuple of ints, read
    through ``integers``: the one reader of integer rows.  ``InputError``
    when the rows are ragged or their count is not the right-hand
    sides'."""
    rows = sequence(rows, "constraint matrix")
    rhs = sequence(rhs, "right-hand side")
    if len(rows) != len(rhs):
        raise InputError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    rows = [integers(row, "constraint coefficient") for row in rows]
    if any(len(row) != len(rows[0]) for row in rows):
        raise InputError("ragged constraint matrix")
    return rows, integers(rhs, "right-hand side")


def rat_floor(value) -> int:
    value = Rat(value)
    return value.numerator // value.denominator


def rat_ceil(value) -> int:
    value = Rat(value)
    return -((-value.numerator) // value.denominator)
