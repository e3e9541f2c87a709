"""Dense test inputs as crsphere.galerkin.CSR matrices.

The weight's multiplier and the Taylor sum take a CSR matrix alone; the
tests write small multipliers densely and store their nonzero entries.
"""

import numpy as np

from crsphere.galerkin import CSR


def csr(X):
    """X as a CSR matrix of its nonzero entries, in X's dtype."""
    X = np.asarray(X)
    rows, cols = np.nonzero(X)
    return CSR.from_coo(X[rows, cols], rows, cols, X.shape, dtype=X.dtype)


def csr_zeros(shape):
    """The float CSR matrix of this shape with no stored entry."""
    return csr(np.zeros(shape))
