import random
from fractions import Fraction

import pytest

from gsvindex import (
    INFINITE,
    Polynomial,
    ideal_membership,
    linear_substitute,
    negdeglex,
    negdegrevlex,
    normal_form,
    quotient_dimension,
    staircase,
    standard_basis,
    transform_vector_field,
)
from gsvindex.errors import DegreeCapExceededError
from gsvindex.index import random_unimodular
from gsvindex import localstd
from gsvindex.localstd import membership_by_basis

from graded_oracle import staircase_count
from problems import dk_problem

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)


def test_local_orders_make_one_largest():
    for order in (negdegrevlex(2), negdeglex(2)):
        assert order.greater((0, 0), (1, 0))
        assert order.greater((1, 0), (2, 0))
        assert order.greater((1, 0), (0, 1))  # x before y on ties


def test_leading_monomial_picks_lowest_degree():
    sb = standard_basis([y - x * x], negdeglex(2))
    assert sb.leading_monomials == ((0, 1),)
    sb = standard_basis([y - x * x], negdegrevlex(2))
    assert sb.leading_monomials == ((0, 1),)


def test_maximal_ideal_basis():
    sb = standard_basis([y, x])
    assert sorted(sb.leading_monomials) == [(0, 1), (1, 0)]
    assert len(sb.basis) == 2


def test_dk_staircase_has_twelve_monomials():
    sb = standard_basis([x * x * y + y ** 3, x ** 4])
    st = staircase(sb)
    assert st.finite and len(st.basis_monomials) == 12
    # the staircase is closed under divisors
    monos = set(st.basis_monomials)
    for (a, b) in monos:
        for da in range(a + 1):
            for db in range(b + 1):
                assert (da, db) in monos


def test_quotient_dimension_examples():
    assert quotient_dimension([x * x, y * y]) == 4
    assert quotient_dimension([y - x * x, x ** 3]) == 3
    assert quotient_dimension([x * x * y + y ** 3, x ** 4]) == 12
    assert quotient_dimension([y - x * x]) == INFINITE
    assert quotient_dimension([Polynomial.zero(2)]) == INFINITE


def test_quotient_dimension_monomial_ideals_against_lattice_count():
    rng = random.Random(5)
    for _ in range(100):
        lms = set()
        # always include pure powers so the quotient is finite
        lms.add((rng.randint(1, 5), 0))
        lms.add((0, rng.randint(1, 5)))
        for _ in range(rng.randint(0, 3)):
            lms.add((rng.randint(0, 5), rng.randint(0, 5)))
        lms.discard((0, 0))
        gens = [Polynomial.term(2, m, 1) for m in sorted(lms)]
        expected = staircase_count(sorted(lms), 2)
        assert quotient_dimension(gens) == expected


def test_normal_form_examples():
    sb = standard_basis([y - x * x, x ** 3])
    # substitution oracle: y = x^2 reduces everything to univariate mod x^3
    assert normal_form(y, sb) == x * x
    assert normal_form(x ** 3, sb).is_zero
    assert normal_form(y * y, sb).is_zero  # y^2 -> x^4 -> 0
    assert normal_form(x * y, sb).is_zero  # x*y -> x^3 -> 0
    proper = standard_basis([x, y])
    assert normal_form(Polynomial.one(2), proper) == Polynomial.one(2)
    for g in (y - x * x, x ** 3):
        assert normal_form(g, sb).is_zero


def test_normal_form_positive_dimensional():
    sb = standard_basis([y - x * x])
    assert normal_form(y, sb) == x * x
    assert normal_form(y ** 2, sb) == x ** 4


def test_normal_form_idempotent():
    rng = random.Random(13)
    sb = standard_basis([x * x * y + y ** 3, x ** 4])
    for _ in range(50):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(
                rng.randint(-4, 4), rng.randint(1, 3)
            )
            for _ in range(4)
        }
        p = Polynomial(2, terms)
        r = normal_form(p, sb)
        assert normal_form(r, sb) == r


def test_normal_form_terms_avoid_leading_ideal():
    sb = standard_basis([x * x * y + y ** 3, x ** 4])
    lead = set(sb.leading_monomials)

    def divisible(m):
        return any(all(a <= b for a, b in zip(lm, m)) for lm in lead)

    rng = random.Random(17)
    for _ in range(30):
        p = Polynomial(
            2,
            {
                (rng.randint(0, 5), rng.randint(0, 5)): rng.randint(1, 3)
                for _ in range(3)
            },
        )
        r = normal_form(p, sb)
        assert not any(divisible(m) for m in r.terms)


def test_membership_examples_and_witness_soundness():
    ok, w = ideal_membership(x ** 3, [2 * x * y, x * x + 3 * y * y])
    assert ok
    lhs = w.denominator * x ** 3
    rhs = w.coefficients[0] * (2 * x * y) + w.coefficients[1] * (x * x + 3 * y * y)
    assert lhs == rhs and w.denominator.constant_term != 0

    ok, w = ideal_membership(Polynomial.one(2), [x, y])
    assert not ok and w is None

    ok, w = ideal_membership(Polynomial.zero(2), [x * y])
    assert ok and all(c.is_zero for c in w.coefficients)


def test_membership_requiring_unit_denominator():
    # x is in (x - x^2) only after inverting the unit 1 - x
    ok, w = ideal_membership(x, [x - x * x])
    assert ok
    assert w.denominator * x == w.coefficients[0] * (x - x * x)
    assert not w.denominator.is_constant()


def test_membership_iff_normal_form_zero_for_finite_quotients():
    rng = random.Random(19)
    gens = [x * x - y * y, x * y]
    sb = standard_basis(gens)
    for _ in range(60):
        p = Polynomial(
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                for _ in range(3)
            },
        )
        member, _ = ideal_membership(p, gens)
        assert member == normal_form(p, sb).is_zero


def test_lift_witnesses_verify():
    for gens in (
        [x * x * y + y ** 3, x ** 4],
        [x * x - y * y, 2 * x * y],
        [y - x * x, x ** 3],
        [x - x * x],
    ):
        sb = standard_basis(gens)
        for b, (den, coeffs) in zip(sb.basis, sb.lift):
            rhs = Polynomial.zero(2)
            for c, g in zip(coeffs, gens):
                rhs = rhs + c * g
            assert den * b == rhs
            assert den.constant_term != 0


def test_basis_leading_monomials_are_minimal():
    for gens in ([x * x * y + y ** 3, x ** 4], [x * x, x * y, y * y, x ** 3]):
        sb = standard_basis(gens)
        lms = sb.leading_monomials
        for i, a in enumerate(lms):
            for j, b in enumerate(lms):
                if i != j:
                    assert not all(p <= q for p, q in zip(a, b))


def test_staircase_count_matches_dimension():
    sb = standard_basis([x * x * y + y ** 3, x ** 4])
    st = staircase(sb)
    assert len(st.basis_monomials) == quotient_dimension(
        [x * x * y + y ** 3, x ** 4]
    )


def test_degree_cap_guard():
    # completion of this pair needs a pure y power of degree 2k-3 = 77
    with pytest.raises(DegreeCapExceededError):
        standard_basis([x * x * y + y ** 39, x ** 4], degree_cap=8)


def test_default_degree_cap_follows_the_generator_degrees():
    # the staircase of (x y, y - x^70) reaches x^70, past a fixed cap of 64;
    # the derived cap is the degree product 2 * 70
    assert quotient_dimension([x * y, y - x ** 70]) == 71
    assert quotient_dimension([x * y + y * y, y - x ** 66]) == 67
    with pytest.raises(DegreeCapExceededError):
        quotient_dimension([x * y, y - x ** 70], degree_cap=64)


def test_negdeglex_cross_check():
    for gens in ([x * x * y + y ** 3, x ** 4], [x * x - y * y, 2 * x * y]):
        assert quotient_dimension(gens, negdeglex(2)) == quotient_dimension(
            gens, negdegrevlex(2)
        )


TEST_IDEALS = (
    [y - x * x],
    [y, x],
    [x * x * y + y ** 3, x ** 4],
    [x * x, y * y],
    [y - x * x, x ** 3],
    [x * x - y * y, x * y],
    [x * x - y * y, 2 * x * y],
    [x - x * x],
    [x * x, x * y, y * y, x ** 3],
)


def _mixed_dk_ideal(seed):
    """(f, X_1) of dk(5, 4) after a seeded unimodular coordinate change."""
    P = dk_problem(5, 4)
    A = random_unimodular(2, random.Random(seed))
    return [linear_substitute(P.f[0], A), transform_vector_field(list(P.X), A)[0]]


def test_lift_free_completion_gives_the_certified_basis():
    ideals = list(TEST_IDEALS) + [_mixed_dk_ideal(s) for s in (2, 4, 5)]
    finite = 0
    for gens in ideals:
        for order in (negdegrevlex(2), negdeglex(2)):
            certified = standard_basis(gens, order)
            bare = standard_basis(gens, order, certify=False)
            assert bare.lift is None
            assert certified.lift is not None
            assert bare.basis == certified.basis
            assert bare.leading_monomials == certified.leading_monomials
            assert staircase(bare) == staircase(certified)
            finite += staircase(bare).finite
    assert finite == 2 * 9  # 7 test ideals, and the seed 2 and 5 dk(5, 4) ideals
    with pytest.raises(DegreeCapExceededError):
        standard_basis([x * x * y + y ** 39, x ** 4], degree_cap=8, certify=False)


def test_membership_needs_a_basis_with_lifts():
    gens = [x * x * y + y ** 3, x ** 4]
    bare = standard_basis(gens, certify=False)
    with pytest.raises(ValueError):
        membership_by_basis(x ** 4, bare, gens)
    ok, _ = membership_by_basis(x ** 4, standard_basis(gens), gens)
    assert ok


def test_normal_form_builds_one_canonical_quotient_per_basis(monkeypatch):
    sb = standard_basis([x * x * y + y ** 7, x ** 6])
    built = []
    original = localstd.CanonicalQuotient.__init__

    def counted(self, *args):
        built.append(1)
        original(self, *args)

    monkeypatch.setattr(localstd.CanonicalQuotient, "__init__", counted)
    results = [normal_form(x ** i * y ** (9 - i), sb) for i in range(10)]
    assert len(built) == 1
    fresh = standard_basis([x * x * y + y ** 7, x ** 6])
    assert fresh == sb and "quotient" not in vars(fresh)
    assert [normal_form(x ** i * y ** (9 - i), fresh)
            for i in range(10)] == results
