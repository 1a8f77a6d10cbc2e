"""The four-point scan over a matrix of exponential Gromov values."""
import numpy as np

# float64 entries per scan buffer: several x rows share one numpy call
# while n*n is small, so the buffer stays near 512 KB
SCAN_BUFFER_ENTRIES = 1 << 16


def backend_name():
    """Name of the four-point scan implementation, reported by benchmarks."""
    return "python"


def _fill(s, e, et, xs):
    """s[i, y, z] = (E[x,y]-E[x,z])-E[z,y] for x in xs, a slice or rows."""
    rows = e[xs]
    np.copyto(s, rows[:, :, None])
    s -= rows[:, None, :]
    s -= et


def fourpoint_scan(e, rows=None):
    """(best, x, y, z) maximizing (E[x,y]-E[x,z])-E[z,y], lex-first, over
    x in `rows` (ascending; every row by default) and all y, z.

    The association order is fixed, so results are reproducible bit for
    bit; the reported triple is the lexicographically first maximizer
    among the rows scanned.  Working memory is O(n^2): one block of x
    rows at a time, with a contiguous copy of E transposed.
    """
    e = np.asarray(e, dtype=np.float64)
    n = e.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows)
    et = np.ascontiguousarray(e.T)
    per = max(1, SCAN_BUFFER_ENTRIES // (n * n))
    s = np.empty((min(per, len(rows)), n, n))
    best = -np.inf
    best_x = -1
    for k in range(0, len(rows), per):
        xs = rows[k:k + per]
        block = s[:len(xs)]
        _fill(block, e, et, xs)
        for x, m in zip(xs, block.reshape(len(xs), -1).max(axis=1)):
            if m > best:
                best = m
                best_x = int(x)
    block = s[:1]
    _fill(block, e, et, slice(best_x, best_x + 1))
    flat = int(np.argmax(block))
    return float(best), best_x, flat // n, flat % n
