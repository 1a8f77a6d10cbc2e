"""The four-point scan over a matrix of exponential Gromov values."""
import numpy as np

# float64 entries per scan buffer: several x rows share one numpy call
# while n*n is small, so the buffer stays near 512 KB
SCAN_BUFFER_ENTRIES = 1 << 16


def backend_name():
    """Name of the four-point scan implementation, reported by benchmarks."""
    return "python"


def _fill(s, e, et, xs):
    """s[i, y, z] = (E[x,y]-E[x,z])-E[z,y] for x in the slice xs."""
    rows = e[xs]
    np.copyto(s, rows[:, :, None])
    s -= rows[:, None, :]
    s -= et


def fourpoint_scan(e):
    """(best, x, y, z) maximizing (E[x,y]-E[x,z])-E[z,y], lex-first.

    The association order is fixed, so results are reproducible bit for
    bit; the reported triple is the lexicographically first maximizer.
    Working memory is O(n^2): one block of x rows at a time, with a
    contiguous copy of E transposed.
    """
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    et = np.ascontiguousarray(e.T)
    rows = max(1, SCAN_BUFFER_ENTRIES // (n * n))
    s = np.empty((rows, n, n))
    best = -np.inf
    best_x = -1
    for x0 in range(0, n, rows):
        xs = slice(x0, min(x0 + rows, n))
        block = s[:xs.stop - x0]
        _fill(block, e, et, xs)
        for i, m in enumerate(block.reshape(len(block), -1).max(axis=1)):
            if m > best:
                best = m
                best_x = x0 + i
    block = s[:1]
    _fill(block, e, et, slice(best_x, best_x + 1))
    flat = int(np.argmax(block))
    return float(best), best_x, flat // n, flat % n
