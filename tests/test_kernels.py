import numpy as np
import pytest

from hyperlab import kernels


def test_pure_scan_matches_brute_force():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        e = rng.uniform(0.0, 1.0, size=(n, n))
        best, x, y, z = kernels.fourpoint_scan(e)
        vals = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    vals[(i, j, k)] = (e[i, j] - e[i, k]) - e[k, j]
        top = max(vals.values())
        assert best == top
        assert vals[(x, y, z)] == top


def test_pure_scan_tie_break_is_lex_first():
    e = np.full((3, 3), 0.25)
    best, x, y, z = kernels.fourpoint_scan(e)
    assert (x, y, z) == (0, 0, 0)
    assert best == -0.25


def test_backend_name_is_declared():
    assert kernels.backend_name() == "python"


def _scan_oracle(e):
    # every (x, y, z) at once, in the kernel's association order
    vals = (e[:, :, None] - e[:, None, :]) - e.T[None, :, :]
    flat = int(np.argmax(vals))
    n = e.shape[0]
    return float(vals.max()), flat // (n * n), flat // n % n, flat % n


@pytest.mark.parametrize("n", [7, 10, 13, 65, 161])
def test_scan_matches_the_cube_oracle(n):
    rows = 3
    rng = np.random.default_rng(n)
    # asymmetric, so reading E[y,z] for E[z,y] would show
    e = rng.uniform(0.0, 1.0, size=(n, n))
    assert kernels.fourpoint_scan(e) == _scan_oracle(e)
    # ties: the first rows cannot reach the maximum, two later rows can
    e = rng.integers(0, 3, size=(n, n)).astype(np.float64)
    e[:rows] = 0.0
    e[n - 1] = e[rows + 1]
    got = kernels.fourpoint_scan(e)
    assert got == _scan_oracle(e)
    assert got[0] == 2.0 and got[1] >= rows
    e = np.full((n, n), 0.25)
    assert kernels.fourpoint_scan(e) == (-0.25, 0, 0, 0)
