"""JSON number encoding shared by the library and the CLI.

Integers stay exact, reals become doubles, complex values become
[re, im] pairs.  Exact rationals that are not integers are emitted as
doubles; the library keeps exactness internally, JSON is a display
surface.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EntryOverflowError

Number = int | float | complex | Fraction


def encode_number(x: Number):
    if isinstance(x, bool):
        raise TypeError("booleans are not numeric values here")
    if isinstance(x, int):
        return x
    if isinstance(x, float):
        return int(x) if x.is_integer() else x
    if isinstance(x, complex):
        if x.imag == 0:
            return encode_number(x.real)
        return [x.real, x.imag]
    if isinstance(x, Fraction):  # last: an ABC check, far slower than the others
        return int(x) if x.denominator == 1 else float(x)
    raise TypeError(f"cannot encode {type(x).__name__} as a JSON number")


def decode_number(obj) -> Number:
    """A JSON number, or an ``[re, im]`` pair of JSON numbers, whose parts
    must fit a float (``EntryOverflowError`` otherwise)."""
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = map(_decode_real, obj)
        try:
            return complex(float(re), float(im))
        except OverflowError:
            raise EntryOverflowError("a part of an [re, im] pair is too large for a float") from None
    return _decode_real(obj)


def _decode_real(obj) -> int | float:
    if isinstance(obj, bool):
        raise TypeError("booleans are not numeric values here")
    if isinstance(obj, (int, float)):
        return obj
    raise TypeError(f"cannot decode {obj!r} as a number")


def encode_values(values) -> list:
    return [encode_number(x) for x in values]


def decode_values(obj) -> tuple[Number, ...]:
    return tuple(decode_number(x) for x in obj)
