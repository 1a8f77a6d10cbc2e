import cmath
import math
from fractions import Fraction

import pytest

from hyperlab import boundary, crossed, groups
from hyperlab.errors import InputError


@pytest.fixture(scope="module")
def free2():
    return groups.free_group(2)


@pytest.fixture(scope="module")
def worked_pair(free2):
    a = free2.element("a")
    A = crossed.CrossedElement.monomial(free2, "a", a)
    B = crossed.CrossedElement.monomial(free2, "aa", a.inverse())
    return A, B


def test_step_function_constant_and_indicator(free2):
    one = crossed.StepFunction.constant(free2, Fraction(1))
    assert one.depth == 0
    assert one.integral() == 1

    ind = crossed.StepFunction.indicator(free2, "ab")
    assert ind.depth == 2
    xi = boundary.boundary_point(free2, "", "ab")
    eta = boundary.boundary_point(free2, "", "ba")
    assert ind.evaluate(xi) == 1
    assert ind.evaluate(eta) == 0
    assert ind.integral() == Fraction(1, 12)


def test_step_function_refine_preserves_values(free2):
    ind = crossed.StepFunction.indicator(free2, "a")
    fine = ind.refine(3)
    assert fine.depth == 3
    assert fine == ind
    assert fine.integral() == Fraction(1, 4)


def test_step_function_algebra(free2):
    f = crossed.StepFunction.indicator(free2, "a")
    g = crossed.StepFunction.indicator(free2, "ab")
    assert (f * g) == g          # nested cylinders multiply to the deeper one
    assert (f + g).evaluate(boundary.boundary_point(free2, "", "ab")) == 2
    assert (f * Fraction(3)).integral() == Fraction(3, 4)


def test_step_function_translate(free2):
    # a . 1_{C_aa} has support a C_aa = C_aaa
    a = free2.element("a")
    ind = crossed.StepFunction.indicator(free2, "aa")
    moved = ind.translate(a)
    assert moved == crossed.StepFunction.indicator(free2, "aaa")
    # and translation composes through the product
    b = free2.element("b")
    both = ind.translate(a).translate(b)
    assert both == ind.translate(b * a)


def test_translate_by_inverse_letter_spreads(free2):
    # a^-1 . C_a covers the three depth-1 cylinders other than C_a',
    # so the translate of 1_{C_a} integrates to 3/4
    ind = crossed.StepFunction.indicator(free2, "a")
    moved = ind.translate(free2.element("a'"))
    assert moved.integral() == Fraction(3, 4)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_translate_matches_the_product_formula(free2, depth):
    # reference: renormalize g^-1 w as a whole word and read its prefix
    words = boundary.reduced_words(free2, depth)
    phi = crossed.StepFunction(free2, depth,
                               {w: Fraction(i) for i, w in enumerate(words)})
    for g in groups.enumerate_ball(free2, 2).elements[1:]:
        gi = g.inverse()
        expected = {
            w: phi.values[free2.normalize(gi.word + w)[:depth]]
            for w in boundary.reduced_words(free2, depth + g.length())}
        assert phi.translate(g).values == expected


def test_worked_product_is_deeper_indicator(free2, worked_pair):
    A, B = worked_pair
    AB = A * B
    assert list(AB.terms) == [free2.identity]
    assert AB.terms[free2.identity] == crossed.StepFunction.indicator(
        free2, "aaa")


def test_unit_laws(free2, worked_pair):
    A, _ = worked_pair
    unit = crossed.CrossedElement.unit(free2)
    assert unit * A == A
    assert A * unit == A
    assert unit.adjoint() == unit


def test_cancelling_coefficients_drop_out(free2):
    ind = crossed.StepFunction.indicator(free2, "a")
    a = free2.element("a")
    plus = crossed.CrossedElement.monomial(free2, "a", a)
    minus = crossed.CrossedElement(free2, {a: ind.scale(-1)})
    total = plus + minus
    assert total.terms == {}
    assert total * plus == total


def test_adjoint_laws(free2, worked_pair):
    A, B = worked_pair
    assert A.adjoint().adjoint() == A
    assert (A * B).adjoint() == B.adjoint() * A.adjoint()
    assert (A + B).adjoint() == A.adjoint() + B.adjoint()


def test_associativity_samples(free2):
    import random

    rng = random.Random(0)
    words = [w for d in (1, 2) for w in boundary.reduced_words(free2, d)]
    els = groups.enumerate_ball(free2, 2).elements
    for _ in range(10):
        xs = [crossed.CrossedElement.monomial(
            free2, _raw_spell(free2, rng.choice(words)), rng.choice(els))
            for _ in range(3)]
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


def _raw_spell(pres, word):
    out = []
    for s in word:
        sym = pres.alphabet.symbols[s]
        out.append(sym)
    return "".join(out)


def test_busemann_step_matches_boundary_route(free2):
    for text in ("a", "ab", "ba'", "abb"):
        g = free2.element(text)
        step = crossed.busemann_step(free2, g)
        assert step.depth == g.length() + 1
        for xi in boundary.seeded_family(free2, count=10, seed=6):
            assert step.evaluate(xi) == boundary.busemann_boundary(g, xi)


def test_flow_at_dimension_beta(free2, worked_pair):
    A, _ = worked_pair
    flowed = crossed.apply_flow(A, crossed.FlowParameter.imaginary(
        math.log(3)))
    ((g, phi),) = list(flowed.terms.items())
    assert g == free2.element("a")
    masses = dict(crossed.crossed_records(flowed)[0][1])
    assert masses["aa"] == Fraction(1, 3)
    assert masses["ab"] == Fraction(1, 3)
    assert masses["ab'"] == Fraction(1, 3)
    assert masses["ba"] == 0


def test_flow_rejects_incompatible_beta(free2, worked_pair):
    A, _ = worked_pair
    with pytest.raises(InputError):
        crossed.apply_flow(A, crossed.FlowParameter.imaginary(0.5))


def test_flow_at_zero_is_identity(free2, worked_pair):
    A, _ = worked_pair
    assert crossed.apply_flow(A, crossed.FlowParameter.imaginary(0.0)) == A


def test_real_flow_has_unit_modulus(free2, worked_pair):
    A, _ = worked_pair
    flowed = crossed.apply_flow(A, crossed.FlowParameter.real(0.7))
    for _, values in crossed.crossed_records(flowed):
        for _, v in values:
            if v:
                assert abs(abs(v) - 1.0) < 1e-12


def test_real_flow_group_law_numerically(free2, worked_pair):
    A, _ = worked_pair
    one = crossed.apply_flow(crossed.apply_flow(
        A, crossed.FlowParameter.real(0.3)), crossed.FlowParameter.real(0.4))
    two = crossed.apply_flow(A, crossed.FlowParameter.real(0.7))
    for (g1, v1), (g2, v2) in zip(crossed.crossed_records(one),
                                  crossed.crossed_records(two)):
        assert g1 == g2
        for (w1, a1), (w2, a2) in zip(v1, v2):
            assert w1 == w2
            assert cmath.isclose(a1, a2, abs_tol=1e-12)


def test_flow_is_multiplicative_at_exact_beta(free2):
    import random

    rng = random.Random(1)
    flow = crossed.FlowParameter.imaginary(math.log(3))
    words = boundary.reduced_words(free2, 2)
    els = groups.enumerate_ball(free2, 2).elements
    for _ in range(8):
        one = crossed.CrossedElement.monomial(
            free2, _raw_spell(free2, rng.choice(words)), rng.choice(els))
        two = crossed.CrossedElement.monomial(
            free2, _raw_spell(free2, rng.choice(words)), rng.choice(els))
        assert crossed.apply_flow(one * two, flow) == \
            crossed.apply_flow(one, flow) * crossed.apply_flow(two, flow)


def test_state_values(free2, worked_pair):
    A, _ = worked_pair
    assert crossed.state_omega(crossed.CrossedElement.unit(free2)) == 1
    assert crossed.state_omega(A) == 0
    one = crossed.CrossedElement.monomial(free2, "a", free2.identity)
    assert crossed.state_omega(one) == Fraction(1, 4)


def test_state_positivity_samples(free2):
    import random

    rng = random.Random(2)
    words = boundary.reduced_words(free2, 2)
    els = groups.enumerate_ball(free2, 2).elements
    for _ in range(10):
        one = crossed.CrossedElement.monomial(
            free2, _raw_spell(free2, rng.choice(words)), rng.choice(els))
        two = crossed.CrossedElement.monomial(
            free2, _raw_spell(free2, rng.choice(words)), rng.choice(els))
        x = one + two
        val = crossed.state_omega(x.adjoint() * x)
        assert val >= 0


def test_kms_worked_pair(free2, worked_pair):
    A, B = worked_pair
    D = math.log(3)
    rep = crossed.kms_check(A, B, D)
    assert rep.lhs == rep.rhs == Fraction(1, 36)
    assert rep.equal

    hot = crossed.kms_check(A, B, 2 * D)
    assert hot.lhs == Fraction(1, 108)
    assert hot.rhs == Fraction(1, 36)
    assert not hot.equal


def test_kms_scan_at_dimension(free2):
    D = math.log(3)
    scan = crossed.kms_monomial_scan(free2, 2, 3, D)
    assert scan.equal
    assert scan.monomials == 612
    assert scan.pairs == 612 ** 2
    assert scan.zero_pairs + scan.checked_pairs == scan.pairs
    assert scan.crosschecked == 50
    assert not scan.failures


def test_kms_scan_detects_wrong_temperature(free2):
    scan = crossed.kms_monomial_scan(free2, 2, 3, 2 * math.log(3))
    assert not scan.equal
    assert len(scan.failures) == 5  # capped
    g, w, z, lhs, rhs = scan.failures[0]
    assert lhs != rhs


def test_kms_scan_depth_guard(free2):
    with pytest.raises(InputError):
        crossed.kms_monomial_scan(free2, 3, 3, math.log(3))


def test_nonvanishing_certificate(free2):
    ball = groups.enumerate_ball(free2, 2)
    rep = crossed.nonvanishing_certificate(ball)
    assert rep.all_ok
    assert len(rep.records) == 16   # non-identity elements
    for rec in rep.records:
        assert rec.at_plus == rec.translation > 0
        assert rec.at_minus == -rec.translation
