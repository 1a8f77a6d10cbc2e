import math
import random
from fractions import Fraction

import pytest

from hyperlab import cocycles, groups, metrics
from hyperlab.errors import InputError, ResourceLimitError


@pytest.fixture(scope="module")
def free2():
    return groups.free_group(2)


@pytest.fixture(scope="module")
def word2(free2):
    return metrics.word_metric(free2)


@pytest.fixture(scope="module")
def band6(word2):
    return cocycles.build_pair_band(word2, 1, 6, C=0)


def test_band_pair_count(word2):
    band = cocycles.build_pair_band(word2, 1, 2, C=0)
    assert len(band) == 32
    assert not band.empty


def test_band_membership(band6, free2):
    assert band6.contains_pair(free2.element("a"), free2.identity)
    assert not band6.contains_pair(free2.element("ab"), free2.identity)


def test_band_requires_k_above_2c(word2):
    with pytest.raises(InputError):
        cocycles.build_pair_band(word2, 1, 3, C=0.5)


def test_band_can_be_empty_without_error(word2):
    band = cocycles.build_pair_band(word2, 5, 2, C=0)
    assert band.empty
    assert len(band) == 0


def test_haagerup_values_on_edges(word2, free2):
    a = free2.element("a")
    e = free2.identity
    assert cocycles.haagerup_value(word2, a, a, e) == 1
    assert cocycles.haagerup_value(word2, a, e, a) == -1
    assert cocycles.haagerup_value(word2, a, free2.element("b"),
                                   free2.element("ba")) == 0


def test_haagerup_antisymmetry(word2, free2):
    ball = groups.enumerate_ball(free2, 2).elements
    rng = random.Random(1)
    for _ in range(30):
        g, x, y = (rng.choice(ball) for _ in range(3))
        v = cocycles.haagerup_value(word2, g, x, y)
        assert cocycles.haagerup_value(word2, g, y, x) == -v


def test_cocycle_identity_pointwise(word2, free2):
    # c(gh) = c(g) + translate-by-g of c(h), checked value by value
    ball = groups.enumerate_ball(free2, 2).elements
    rng = random.Random(2)
    for _ in range(40):
        g, h, x, y = (rng.choice(ball) for _ in range(4))
        lhs = cocycles.haagerup_value(word2, g * h, x, y)
        rhs = cocycles.haagerup_value(word2, g, x, y) + \
            cocycles.haagerup_value(word2, h, g.inverse() * x,
                                    g.inverse() * y)
        assert lhs == rhs


def test_busemann_group_matches_haagerup_at_identity(word2, free2):
    # b(g)(x) = |x| - |g^-1 x| = 2 (g|x) - |g|
    ball = groups.enumerate_ball(free2, 2).elements
    for g in ball:
        for x in ball[::3]:
            twice_product = 2 * cocycles.haagerup_value(word2, g, x,
                                                        free2.identity)
            assert cocycles.busemann_group(g, x) == \
                twice_product - g.length()


def test_identity_scan_free(word2):
    band = cocycles.build_pair_band(word2, 2, 6, C=0)
    scan = cocycles.cocycle_identity_scan(band, 2)
    assert scan.mismatches == 0
    assert scan.product_pairs == 17 ** 2
    assert scan.pair_count == 5820
    assert scan.max_sample_defect == 0


def test_identity_scan_surface():
    s = groups.surface_group(2)
    band = cocycles.build_pair_band(metrics.word_metric(s), 3, 2)
    scan = cocycles.cocycle_identity_scan(band, 1, samples=50)
    assert scan.mismatches == 0
    assert scan.max_sample_defect == 0


def test_edge_norm_law(band6, free2):
    # every positive-length jump on a length-1 band contributes value 1,
    # and there are exactly 2|g| of them, at any exponent
    for text in ("a", "ab", "ab'a", "abab"):
        g = free2.element(text)
        for p in (1, 2, 3, Fraction(3, 2)):
            rep = cocycles.lp_norm(band6, g, p)
            assert rep.norm_p == 2 * g.length()
            assert rep.tail_bound == 0.0


def test_lp_norm_matches_literal_sum(word2, free2):
    # g = ab' reads its row off the band's distance matrix; ababab lies
    # outside the radius-2 ball and goes through bulk_product_lengths
    band = cocycles.build_pair_band(word2, 2, 2, C=0)
    for text in ("ab'", "ababab"):
        g = free2.element(text)
        for p in (1, 2, 3):
            literal = sum(abs(cocycles.haagerup_value(word2, g, x, y)) ** p
                          for x, y in band.element_pairs())
            assert cocycles.lp_norm(band, g, p).norm_p == literal


def test_norm_report_fields(band6, free2):
    rep = cocycles.lp_norm(band6, free2.element("ab"), 2)
    assert (rep.p, rep.K, rep.C, rep.radius) == (2, 1, 0, 6)
    assert rep.norm_p == Fraction(4)
    assert rep.n == 1
    assert rep.lower_bound == Fraction(1)


def test_properness_certificate_examples(band6, free2, word2):
    cert = cocycles.properness_check(band6, free2.element("ababab"), 1)
    assert (cert.n, cert.lower_bound, cert.actual) == (6, 6, 12)
    assert cert.actual >= cert.lower_bound

    band2 = cocycles.build_pair_band(word2, 2, 6, C=0)
    cert2 = cocycles.properness_check(band2, free2.element("abab"), 2)
    assert (cert2.n, cert2.lower_bound, cert2.actual) == (2, 8, 60)


def test_properness_partition_points_line_up(band6, free2):
    cert = cocycles.properness_check(band6, free2.element("ababab"), 1)
    assert len(cert.points) == cert.n + 1
    assert cert.points[0] == 0
    assert cert.points[-1] == cert.n * band6.K
    assert len(cert.segment_values) == cert.n
    for value in cert.segment_values:
        assert value >= band6.K - 2 * band6.C


def test_properness_whole_ball(band6, free2):
    ball = groups.enumerate_ball(free2, 4)
    for g in ball.elements:
        if g.is_identity():
            continue
        cert = cocycles.properness_check(band6, g, 1)
        assert cert.n >= g.length() - 1
        assert cert.actual >= cert.lower_bound


def test_properness_needs_room(word2, free2):
    small = cocycles.build_pair_band(word2, 1, 2, C=0)
    from hyperlab.errors import InvariantViolation
    with pytest.raises(InvariantViolation):
        cocycles.properness_check(small, free2.element("ababab"), 1)


def test_exponent_scan_ratios_and_verdicts(band6):
    rows = cocycles.critical_exponent_scan(band6, (1.0, 1.2, 2.0, 40.0))
    for row in rows:
        assert row.ratios[-1] == pytest.approx(3 * math.exp(-row.p),
                                               rel=1e-12)
    verdicts = {row.p: row.verdict for row in rows}
    assert verdicts[1.0] == "diverges"
    assert verdicts[1.2] == "converges"
    assert verdicts[2.0] == "converges"
    assert verdicts[40.0] == "converges"


def test_exponent_scan_large_p_limit(band6):
    # at huge p only the eight single-letter jumps survive
    row = cocycles.critical_exponent_scan(band6, (40.0,))[0]
    assert row.partial_sums[-1] == 8.0


def test_exponent_scan_rejects_p_below_one(band6):
    with pytest.raises(InputError):
        cocycles.critical_exponent_scan(band6, (0.5,))


def test_affine_action_axioms(band6, free2):
    # the radius-2 version lives in the acceptance suite; radius 1 here
    ball = groups.enumerate_ball(free2, 1)
    rep = cocycles.affine_action_check(band6, ball.elements, 2)
    assert rep.identity_exact
    assert rep.isometry_exact
    assert rep.pairs_checked == 5 ** 2
    for spelled, value in rep.displacements:
        g = free2.element(spelled)
        assert value == 2 * g.length()


def test_affine_action_support_escape(word2, free2):
    band3 = cocycles.build_pair_band(word2, 1, 3, C=0)
    ball = groups.enumerate_ball(free2, 2)
    with pytest.raises(ResourceLimitError):
        cocycles.affine_action_check(band3, ball.elements, 2)


def test_pointwise_bound(word2, free2):
    # on the K=1 band the cocycle takes values in {-1, 0, 1}
    band = cocycles.build_pair_band(word2, 1, 3, C=0)
    ball = groups.enumerate_ball(free2, 2).elements
    for g in ball:
        for x, y in band.element_pairs()[::5]:
            assert abs(cocycles.haagerup_value(word2, g, x, y)) <= 1
