"""The four-point scan over a matrix of exponential Gromov values."""
import numpy as np


def backend_name():
    """Name of the four-point scan implementation, reported by benchmarks."""
    return "python"


def fourpoint_scan(e):
    """(best, x, y, z) maximizing (E[x,y]-E[x,z])-E[z,y], lex-first.

    The association order is fixed, so results are reproducible bit for
    bit; the reported triple is the lexicographically first maximizer.
    """
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    et = e.T
    best = -np.inf
    best_x = -1
    s = np.empty((n, n))
    for x in range(n):
        row = e[x]
        np.subtract(row[:, None], row[None, :], out=s)
        s -= et
        m = s.max()
        if m > best:
            best = m
            best_x = x
    row = e[best_x]
    np.subtract(row[:, None], row[None, :], out=s)
    s -= et
    flat = int(np.argmax(s))
    return float(best), best_x, flat // n, flat % n
