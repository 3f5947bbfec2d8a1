"""RPR002 passing fixture: stdlib numerics and look-alike names."""

import numbers
import statistics
from math import fsum


def mean(xs):
    from . import numpy_compat  # relative import of a local module

    assert all(isinstance(x, numbers.Real) for x in xs)
    return statistics.fmean(xs) if xs else fsum(numpy_compat.ZERO)
