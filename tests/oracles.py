"""Oracles shared by the tests."""

import numpy as np


def dense(A):
    """Dense ``(n, n)`` copy of a ``BandedMatrix``, corners included."""
    D = (np.diag(A.bands[1]) + np.diag(A.bands[0, 1:], 1)
         + np.diag(A.bands[2, :-1], -1))
    if A.corners:
        D[0, -1] += A.corners[0]
        D[-1, 0] += A.corners[1]
    return D
