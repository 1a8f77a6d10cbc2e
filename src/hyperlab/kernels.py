"""The four-point scan over a matrix of exponential Gromov values."""
import numpy as np


def backend_name():
    """Name of the four-point scan implementation, reported by benchmarks."""
    return "python"


def _fill(s, e, et, x):
    """s[y, z] = (E[x,y]-E[x,z])-E[z,y] for the one row x."""
    row = e[x]
    np.copyto(s, row[:, None])
    s -= row
    s -= et


def fourpoint_scan(e, rows=None):
    """(best, x, y, z) maximizing (E[x,y]-E[x,z])-E[z,y], lex-first, over
    x in `rows` (ascending; every row by default) and all y, z.

    The association order is fixed, so results are reproducible bit for
    bit; the reported triple is the lexicographically first maximizer
    among the rows scanned.  Working memory is O(n^2): one x row's n x n
    buffer at a time, with a contiguous copy of E transposed.
    """
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    rows = range(n) if rows is None else rows
    et = np.ascontiguousarray(e.T)
    s = np.empty((n, n))
    best = -np.inf
    best_x = -1
    for x in rows:
        _fill(s, e, et, x)
        m = s.max()
        if m > best:
            best = m
            best_x = int(x)
    _fill(s, e, et, best_x)
    flat = int(np.argmax(s))
    return float(best), best_x, flat // n, flat % n
