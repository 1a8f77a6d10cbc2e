import math
import random
from fractions import Fraction

import pytest

from hyperlab import boundary, cli, crossed, groups
from hyperlab.errors import InputError, InvariantViolation
from hyperlab.suites import ScenarioConfig, run_scenario
from oracles import (busemann_boundary, dense_adjoint, dense_element,
                     dense_flow, dense_multiply, dense_state, same_element)


@pytest.fixture(scope="module")
def free2():
    return groups.free_group(2)


def _value_at(phi, xi):
    """phi's value on the cylinder that holds the boundary point xi."""
    words = boundary.reduced_words(phi.pres, phi.depth)
    return phi.support.get(words.index(xi.prefix(phi.depth)), 0)


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
    assert _value_at(ind, xi) == 1
    assert _value_at(ind, eta) == 0
    assert ind.integral() == Fraction(1, 12)


def test_indicator_rejects_a_word_that_is_not_reduced(free2):
    # "a a'" names no cylinder, so it is an input error rather than the
    # zero function
    with pytest.raises(InputError, match="cylinder word \"aa'\" is not "
                                         "reduced"):
        crossed.StepFunction.indicator(free2, "a a'")
    with pytest.raises(InputError, match="not reduced"):
        crossed.CrossedElement.monomial(free2, "a a'", free2.element("b"))


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
    assert _value_at(f + g, boundary.boundary_point(free2, "", "ab")) == 2
    assert (f * Fraction(3)).integral() == Fraction(3, 4)


def test_products_keep_only_the_common_support(free2):
    # disjoint cylinders multiply to the empty support: no zero is stored
    ind = crossed.StepFunction.indicator(free2, "a")
    prod = ind * crossed.StepFunction.indicator(free2, "bb")
    assert prod.depth == 2
    assert prod.support == {}
    assert prod.is_zero()
    assert type(prod.integral()) is Fraction and prod.integral() == 0
    # cancelling sums and a zero scalar leave no stored zero either
    assert (ind + ind.scale(-1)).support == {}
    assert ind.scale(Fraction(0)).support == {}
    # b(a) is +1 on the depth-2 cylinders under C_a and -1 elsewhere; the
    # product with 1_{C_b} keeps the four under C_b, as Fractions
    b = free2.parse_word("b")[0]
    step = crossed.busemann_step(free2, free2.element("a"))
    mixed = step * crossed.StepFunction.indicator(free2, "b")
    words = boundary.reduced_words(free2, 2)
    assert mixed.support == {i: -1 for i, w in enumerate(words) if w[0] == b}
    assert all(type(v) is Fraction for v in mixed.support.values())


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


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_translate_matches_the_product_formula(depth):
    # references: refine reads the value at w[:d], translate renormalizes
    # g^-1 w as a whole word and reads its prefix.  One function holds
    # Fraction values on every other cylinder, the other float values on
    # all but the first; each position of the result's support must carry
    # the very object the reference names, no other position may be
    # stored, and a second (cached) call must agree.
    # Refinement by repetition rests on that order being strictly
    # increasing.  Rank 4 translates by letters only, which
    # bounds the reference route's normalize calls
    for rank, radius in ((2, 2), (3, 2), (4, 1)):
        pres = groups.free_group(rank)
        words = boundary.reduced_words(pres, depth)
        for n in (depth, depth + 1, depth + 2):
            partition = boundary.reduced_words(pres, n)
            assert all(u < v for u, v in zip(partition, partition[1:]))
        index = {w: i for i, w in enumerate(words)}
        exact = crossed.StepFunction(pres, depth, {
            i: Fraction(i) for i in range(1, len(words), 2)})
        floats = crossed.StepFunction(pres, depth, {
            i: 0.5 * i for i in range(1, len(words))})

        def carries(moved, phi, positions):
            """moved stores phi's very value at position positions[j] on
            each j that has one, and nothing else"""
            want = {j: phi.support[i] for j, i in enumerate(positions)
                    if i in phi.support}
            return moved.support == want and all(
                moved.support[j] is v for j, v in want.items())

        for phi in (exact, floats):
            for deeper in (depth + 1, depth + 2):
                finer = boundary.reduced_words(pres, deeper)
                assert carries(phi.refine(deeper), phi,
                               [index[w[:depth]] for w in finer])
        for g in groups.enumerate_ball(pres, radius).elements[1:]:
            gi = g.inverse()
            deeper = boundary.reduced_words(pres, depth + g.length())
            expected = [pres.normalize(gi.word + w)[:depth] for w in deeper]
            for phi in (exact, floats):
                moved = phi.translate(g)
                if depth == 0:
                    # a constant function is translation invariant
                    assert moved is phi
                    continue
                assert moved.depth == depth + g.length()
                assert carries(moved, phi, [index[w] for w in expected])
                assert phi.translate(g).support == moved.support
        assert all(type(v) is Fraction for v in exact.translate(
            pres.element("a")).support.values())
        assert all(type(v) is float for v in floats.translate(
            pres.element("a")).support.values())


def test_step_function_values_are_positional(free2):
    # the support is keyed by position in the partition; words, positions
    # past its end and bools are refused rather than read
    words = boundary.reduced_words(free2, 1)
    for bad in ({w: Fraction(1) for w in words}, {len(words): Fraction(1)},
                {True: Fraction(1)}):
        with pytest.raises(InputError, match=r"keyed by position 0\.\.3 in "
                                             r"reduced_words\(pres, 1\), not "
                                             "by word"):
            crossed.StepFunction(free2, 1, bad)
    # pairs are accepted, and zeros are dropped
    phi = crossed.StepFunction(free2, 1, iter([(0, Fraction(1)),
                                               (2, Fraction(0))]))
    assert phi.support == {0: Fraction(1)}
    assert crossed.StepFunction.constant(free2, 0).support == {}


@pytest.mark.parametrize("rank,radius", [(2, 2), (3, 1)])
def test_sparse_engine_matches_the_dense_reference(rank, radius):
    # seeded sums of up to three monomials, rational multiples of
    # depth-1 and depth-2 cylinders: products, adjoints, flows at lam and
    # lam^2 and states equal the dense engine's exactly, term by term
    pres = groups.free_group(rank)
    rng = random.Random(rank)
    words = [w for d in (1, 2) for w in boundary.reduced_words(pres, d)]
    els = groups.enumerate_ball(pres, radius).elements
    lam = Fraction(1, 2 * rank - 1)

    def random_sum():
        x = crossed.CrossedElement(pres, {})
        for _ in range(rng.randint(1, 3)):
            phi = crossed.StepFunction.indicator(pres, rng.choice(words))
            x = x + crossed.CrossedElement.monomial(
                pres, phi.scale(Fraction(rng.choice((-2, -1, 1, 3)),
                                         rng.randint(1, 3))),
                rng.choice(els))
        return x

    for _ in range(12):
        x, y = random_sum(), random_sum()
        dx, dy = dense_element(x), dense_element(y)
        assert same_element(x, dx)
        xy, dxy = x * y, dense_multiply(dx, dy)
        assert same_element(xy, dxy)
        assert same_element(x.adjoint(), dense_adjoint(dx))
        for at in (lam, lam ** 2):
            assert same_element(crossed.apply_flow(xy, at),
                                dense_flow(dxy, at))
            assert crossed.state_omega(y * crossed.apply_flow(x, at)) == \
                dense_state(dense_multiply(dy, dense_flow(dx, at)), pres)
        assert crossed.state_omega(xy) == dense_state(dxy, pres)
        assert crossed.state_omega(x.adjoint() * x) == dense_state(
            dense_multiply(dense_adjoint(dx), dx), pres)


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
            assert _value_at(step, xi) == busemann_boundary(g, xi)


def test_flow_at_dimension_beta(free2, worked_pair):
    A, _ = worked_pair
    flowed = crossed.apply_flow(A, Fraction(1, 3))
    ((g, phi),) = list(flowed.terms.items())
    assert g == free2.element("a")
    masses = {_raw_spell(free2, w): phi.support.get(i, 0) for i, w in
              enumerate(boundary.reduced_words(free2, phi.depth))}
    assert masses["aa"] == Fraction(1, 3)
    assert masses["ab"] == Fraction(1, 3)
    assert masses["ab'"] == Fraction(1, 3)
    assert masses["ba"] == 0


@pytest.mark.parametrize("lam", [
    1 / 3, math.inf, True, 0, -3, Fraction(-1, 3), "1/3",
], ids=["float", "inf", "bool", "zero", "negative", "negative-fraction",
        "text"])
def test_flow_rejects_a_lambda_that_is_not_a_positive_rational(
        free2, worked_pair, lam):
    A, _ = worked_pair
    with pytest.raises(InputError, match="positive int or Fraction"):
        crossed.apply_flow(A, lam)


def test_lambda_power_tables_are_built_once():
    # the kms suite on free:2 reads 82 power tables, at 4 distinct
    # (lam, reach): lam = 1/3 at reach 0, 1, 2 and its square at 1
    crossed._power_table.cache_clear()
    run_scenario(ScenarioConfig(suite="kms", group="free:2", seed=7))
    info = crossed._power_table.cache_info()
    assert (info.misses, info.hits + info.misses) == (4, 82)


def test_flow_at_zero_is_identity(free2, worked_pair):
    A, _ = worked_pair
    assert crossed.apply_flow(A, 1) == A
    assert crossed.apply_flow(A, Fraction(1)) == A


@pytest.mark.parametrize("rank", [2, 3])
def test_busemann_step_cocycle_identities(rank):
    # b(gh) = b(g) + g.b(h) and b(g^-1) = -g^-1.b(g), exactly: sigma_t
    # weights the g term by e^(i t b(g)), so these integer identities make
    # the flow multiplicative and *-compatible at every real t at once
    pres = groups.free_group(rank)
    ball = groups.enumerate_ball(pres, 2).elements
    for g in ball:
        bg = crossed.busemann_step(pres, g)
        gi = g.inverse()
        assert crossed.busemann_step(pres, gi) == \
            bg.translate(gi).scale(-1)
        for h in ball:
            assert crossed.busemann_step(pres, g * h) == \
                bg + crossed.busemann_step(pres, h).translate(g)


def test_flow_is_multiplicative_at_exact_beta(free2):
    import random

    rng = random.Random(1)
    flow = Fraction(1, 3)
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
    rep = crossed.kms_check(A, B, Fraction(1, 3))
    assert rep.lhs == rep.rhs == Fraction(1, 36)
    assert rep.equal

    hot = crossed.kms_check(A, B, Fraction(1, 9))
    assert hot.lhs == Fraction(1, 108)
    assert hot.rhs == Fraction(1, 36)
    assert not hot.equal


def test_kms_scan_at_dimension(free2):
    scan = crossed.kms_monomial_scan(free2, 2, 3)
    assert scan.lam == Fraction(1, 3)
    assert scan.equal
    assert scan.monomials == 612
    assert scan.pairs == 612 ** 2
    assert scan.zero_pairs + scan.checked_pairs == scan.pairs
    assert scan.crosschecked == 50
    assert not scan.failures


def test_kms_scan_detects_wrong_temperature(free2):
    # the first forcing pair holds at the solved lam and fails at lam^2
    scan = crossed.kms_monomial_scan(free2, 2, 3)
    g, w, v = scan.first_forcing
    assert (g.spelled(), w, v) == ("a", (0, 0, 0), (0, 0, 0))
    *_, lhs, rhs = crossed.monomial_pair_kms(g, w, v, Fraction(1, 3))
    assert lhs == rhs == Fraction(1, 108)
    assert crossed.monomial_pair_kms(g, w, v, Fraction(1, 9)) == (
        "a", "aaa", "aaa", Fraction(1, 324), Fraction(1, 108))


@pytest.mark.parametrize("rank,radius,depth,lam,forcing,neutral", [
    (2, 2, 3, Fraction(1, 3), 864, 108), (3, 2, 3, Fraction(1, 5), 9000, 750),
    (2, 2, 4, Fraction(1, 3), 2592, 324), (2, 3, 4, Fraction(1, 3), 9720, 324),
    (2, 0, 1, None, 0, 4),
], ids=["free2-r2-d3", "free3-r2-d3", "free2-r2-d4", "free2-r3-d4",
        "free2-r0-d1"])
def test_binomials_force_the_dimension(rank, radius, depth, lam, forcing,
                                       neutral):
    # lam^b * mass(C_(g^-1 z)) = mass(C_z) holds at lam = 1/(2k-1) for
    # every meeting pair: the pairs with b != 0 force it, and the others
    # have equal masses; a radius-0 ball has only the latter
    pres = groups.free_group(rank)
    scan = crossed.kms_monomial_scan(pres, radius, depth)
    assert (scan.lam, scan.forcing_pairs, scan.neutral_pairs) == (
        lam, forcing, neutral)
    assert scan.equal and scan.failures == ()
    if lam is None:
        assert scan.first_forcing is None


@pytest.mark.parametrize("rank,radius,depth", [
    (2, 2, 3), (3, 2, 3), (2, 2, 4), (2, 3, 4),
], ids=["free2-r2-d3", "free3-r2-d3", "free2-r2-d4", "free2-r3-d4"])
def test_kept_binomials_answer_a_second_temperature(rank, radius, depth):
    # the first forcing pair the scan keeps balances at the solved lam
    # = 1/(2k-1) and, through the engine, fails at lam^2: there lhs/rhs
    # is lam^b for its b != 0
    pres = groups.free_group(rank)
    scan = crossed.kms_monomial_scan(pres, radius, depth)
    lam = Fraction(1, 2 * rank - 1)
    assert scan.lam == lam and scan.failures == ()
    *_, lhs, rhs = crossed.monomial_pair_kms(*scan.first_forcing, lam)
    assert lhs == rhs
    *_, lhs, rhs = crossed.monomial_pair_kms(*scan.first_forcing, lam ** 2)
    assert lhs != rhs
    assert any(lhs / rhs == lam ** b for b in range(-radius, radius + 1) if b)


def _skew_the_measure(monkeypatch):
    """Patch both KMS routes onto a Markov measure that is not uniform: a
    first letter has mass 1/(2k), and each further letter repeats the one
    before it with probability 1/2 and is each of the other 2k - 2
    reduced continuations with probability 1/(4(k - 1))."""
    def mass(pres, word):
        m = Fraction(1, 2 * pres.rank) if word else Fraction(1)
        for x, y in zip(word, word[1:]):
            m *= Fraction(1, 2) if x == y else Fraction(1, 4 * pres.rank - 4)
        return m

    def integral(phi):
        words = boundary.reduced_words(phi.pres, phi.depth)
        return sum((v * mass(phi.pres, words[j])
                    for j, v in phi.support.items()), Fraction(0))

    monkeypatch.setattr(boundary.BoundaryMeasure, "word_mass",
                        lambda self, word: mass(self.pres, word))
    monkeypatch.setattr(crossed.StepFunction, "integral", integral)


def test_failures_at_confirms_each_witness(free2, monkeypatch):
    # under a measure that no single temperature balances, the scan
    # solves lam = 1/2 from its first |b| = 1 equation, that of the pair
    # a, aaa, aaa, and reports one failing pair per failing equation,
    # each with the engine's own values
    _skew_the_measure(monkeypatch)
    scan = crossed.kms_monomial_scan(free2, 2, 3)
    assert scan.lam == Fraction(1, 2)
    assert not scan.equal
    assert len(scan.failures) == 22
    assert scan.failures[0] == ("a", "aba", "baa", Fraction(1, 64),
                                Fraction(1, 128))
    for g, w, v, lhs, rhs in scan.failures:
        assert lhs != rhs
        assert crossed.monomial_pair_kms(
            free2.element(g), free2.parse_word(w), free2.parse_word(v),
            scan.lam) == (g, w, v, lhs, rhs)
    # an engine that disagrees with a failing pair's closed form is an
    # internal fault, not a witness
    real = crossed.kms_check

    def skewed(a, b, lam):
        rep = real(a, b, lam)
        if rep.lhs != rep.rhs:
            return crossed.KmsReport(lam, rep.lhs + 1, rep.rhs, False)
        return rep

    monkeypatch.setattr(crossed, "kms_check", skewed)
    monkeypatch.setattr(crossed, "KMS_CROSSCHECKS", 0)
    with pytest.raises(InvariantViolation,
                       match="disagree with the generic engine"):
        crossed.kms_monomial_scan(free2, 2, 3)


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("hot", [False, True], ids=["critical", "hot"])
def test_closed_form_matches_the_engine_on_every_pair(monkeypatch, rank,
                                                      hot):
    # every pair whose cylinders meet goes through the generic engine,
    # which raises on any closed-form value it does not reproduce; "hot"
    # runs both routes on a measure that no temperature balances, where
    # some equations fail at the solved lam
    pres = groups.free_group(rank)
    if hot:
        _skew_the_measure(monkeypatch)
    monkeypatch.setattr(crossed, "KMS_CROSSCHECKS", 10 ** 9)
    scan = crossed.kms_monomial_scan(pres, 1, 2)
    words = boundary.reduced_words(pres, 2)
    meeting = 0
    for g in groups.enumerate_ball(pres, 1).elements:
        for v in words:
            gv = pres.multiply(g.word, v)
            meeting += sum(1 for w in words
                           if w[:len(gv)] == gv or gv[:len(w)] == w)
    assert scan.crosschecked == meeting
    assert scan.lam == Fraction(1, 2 if hot else 2 * rank - 1)
    assert scan.equal is not hot


def test_kms_suite_enumerates_each_partition_once(tmp_path):
    boundary.reduced_words.cache_clear()
    code = cli.main(["check", "--suite", "kms", "--group", "free:2",
                     "--out", str(tmp_path / "report.json")])
    assert code == 0
    info = boundary.reduced_words.cache_info()
    # nothing was evicted, so every miss built a partition still cached
    assert info.misses == info.currsize < info.maxsize
    assert info.hits > info.misses


def test_kms_suite_tests_few_fractions_for_zero(tmp_path, monkeypatch):
    # a work count, not a timer: the dense engine tested 236,967 Fraction
    # values for zero on this run, the support-based one 55
    tests = []
    real = Fraction.__bool__

    def counted(self):
        tests.append(None)
        return real(self)

    monkeypatch.setattr(Fraction, "__bool__", counted)
    code = cli.main(["check", "--suite", "kms", "--group", "free:2",
                     "--seed", "3", "--depth", "4",
                     "--out", str(tmp_path / "report.json")])
    monkeypatch.undo()
    assert code == 0
    assert len(tests) <= 10_000


def test_cylinder_caches_are_bounded(tmp_path):
    caches = [
        (crossed._cylinder_index, boundary.PARTITION_CACHE_SIZE),
        (crossed._preimages, crossed.TRANSLATE_CACHE_SIZE),
        (boundary._cylinder_mass, boundary.MASS_CACHE_SIZE),
    ]
    code = cli.main(["check", "--suite", "kms", "--group", "free:3",
                     "--seed", "3", "--out", str(tmp_path / "report.json")])
    assert code == 0
    for cache, size in caches:
        info = cache.cache_info()
        assert info.maxsize == size
        assert info.currsize <= size
    # more distinct keys than each bound: (g^-1, depth) pairs for
    # translate, fresh presentations for the partition maps, (rank,
    # length) for the masses
    pres = groups.free_group(2)
    elements = groups.enumerate_ball(pres, 4).elements[1:]
    for word in ("a", "ab"):
        phi = crossed.StepFunction.indicator(pres, word)
        for g in elements:
            phi.translate(g)
    assert 2 * len(elements) > crossed.TRANSLATE_CACHE_SIZE
    for _ in range(boundary.PARTITION_CACHE_SIZE + 1):
        crossed.StepFunction.indicator(groups.free_group(2), "a")
    measure = boundary.BoundaryMeasure(pres)
    for n in range(boundary.MASS_CACHE_SIZE + 1):
        measure.word_mass((0,) * n)
    for cache, size in caches:
        assert cache.cache_info().currsize == size


def test_kms_scan_depth_guard(free2):
    with pytest.raises(InputError):
        crossed.kms_monomial_scan(free2, 3, 3)


def test_nonvanishing_certificate(free2):
    ball = groups.enumerate_ball(free2, 2)
    rep = crossed.nonvanishing_certificate(ball)
    assert rep.all_ok
    assert len(rep.records) == 16   # non-identity elements
    for rec in rep.records:
        assert rec.at_plus == rec.translation > 0
        assert rec.at_minus == -rec.translation
