"""Reference routes that tests compare the library against."""
from hyperlab.groups import GroupElement


def rough_geodesic(metric, x, y):
    """Canonical-word path from x to y parametrized by distance from x."""
    metric._check(x, y)
    pres = metric.pres
    letters = pres.left_quotient(x.word, y.word)
    points = [(0 if metric.exact else 0.0, x)]
    g = x
    for sym in letters:
        g = GroupElement(pres, pres.multiply(g.word, (sym,)))
        points.append((metric.distance(x, g), g))
    return points
