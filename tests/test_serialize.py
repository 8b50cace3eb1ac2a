from fractions import Fraction

import numpy as np
import pytest

from loopatlas import serialize


@pytest.mark.parametrize(
    "x,expected",
    [
        (0, 0),
        (-3, -3),
        (10**30, 10**30),
        (2.0, 2),
        (-0.0, 0),
        (2.5, 2.5),
        (complex(3, 0), 3),
        (complex(1.5, -0.0), 1.5),
        (complex(2, 1), [2.0, 1.0]),
        (Fraction(4, 2), 2),
        (Fraction(1, 4), 0.25),
        (np.float64(2.0), 2),
        (np.float64(1.25), np.float64(1.25)),
        (np.complex128(2 + 0j), 2),
        (np.complex128(1 + 2j), [np.float64(1.0), np.float64(2.0)]),
    ],
)
def test_encode_number(x, expected):
    # repr tells 2 from 2.0 and numpy scalars from Python ones
    assert repr(serialize.encode_number(x)) == repr(expected)


@pytest.mark.parametrize("x", [True, False, "1", None])
def test_encode_number_rejects(x):
    with pytest.raises(TypeError):
        serialize.encode_number(x)
