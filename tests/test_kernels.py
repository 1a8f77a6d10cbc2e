import numpy as np

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
