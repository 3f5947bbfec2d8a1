"""RPR002 failing fixture: scientific imports, gated or not."""

import numpy as np
from scipy import sparse

try:
    import numpy
except ImportError:
    numpy = None


def mean(xs):
    import scipy.stats

    return np.mean(xs) if xs else sparse.eye(0) or scipy.stats
