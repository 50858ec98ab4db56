import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import neg

import pytest

from gsvindex import (
    LocalOrder,
    Polynomial,
    ideal_membership,
    jacobian,
    linear_substitute,
    minor_det,
    quotient_dimension,
    staircase,
    standard_basis,
    transform_vector_field,
)
from gsvindex.errors import DegreeCapExceededError, InfiniteDimensionError
from gsvindex.index import random_unimodular
from gsvindex import _linalg, localstd
from gsvindex.localstd import CanonicalQuotient
from gsvindex.poly import mono_divides, mono_lcm, mono_mul

from graded_oracle import staircase_count
from problems import dk_problem, normal_form

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)


def _is_finite(sb):
    """Whether the quotient by the ideal of sb is finite (staircase raises
    InfiniteDimensionError when it is not)."""
    try:
        staircase(sb)
    except InfiniteDimensionError:
        return False
    return True


def test_local_orders_make_one_largest():
    order = LocalOrder(2)
    assert order.key((0, 0)) > order.key((1, 0))
    assert order.key((1, 0)) > order.key((2, 0))
    assert order.key((1, 0)) > order.key((0, 1))  # x before y on ties


def _ref_key(mono):
    """The tuple sort key of negdegrevlex before packed codes."""
    return (-sum(mono), tuple(map(neg, reversed(mono))))


def test_packed_codes_match_the_tuple_orders():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # every degree below DEGREE_LIMIT / 2, so products stay below it too
    exponent = st.integers(0, 4) | st.integers(0, localstd.DEGREE_LIMIT // 8 - 1)

    @hypothesis.settings(derandomize=True, database=None, max_examples=400,
                         deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 4))
        order = LocalOrder(n)
        monos = st.lists(exponent, min_size=n, max_size=n).map(tuple)
        a = data.draw(monos)
        # a permutation of a is a tie within a degree
        b = data.draw(monos | st.permutations(a).map(tuple))
        ka, kb = order.key(a), order.key(b)
        assert (ka > kb) == (_ref_key(a) > _ref_key(b))
        assert (ka == kb) == (a == b)
        assert order.key(localstd.mono_mul(a, b)) == ka + kb
        assert order.key((0,) * n) == 0
        assert order.divides(ka, kb) == localstd.mono_divides(a, b)
        assert order.divides(kb, ka) == localstd.mono_divides(b, a)
        assert order.divides(ka, ka + kb)
        assert order.degree(ka) == sum(a)
        assert order.decode(ka) == a

    check()


def test_degrees_at_the_packed_limit_raise():
    limit = localstd.DEGREE_LIMIT
    with pytest.raises(DegreeCapExceededError):
        standard_basis([x ** limit - y, y])
    with pytest.raises(DegreeCapExceededError):
        LocalOrder(2).key((limit - 1, 1))
    order = LocalOrder(2)
    assert order.decode(order.key((limit - 1, 0))) == (limit - 1, 0)
    # y^2 -> x^K y -> x^2K: the weak normal form reaches the limit mid-way
    g = y - x ** (limit // 2)
    with pytest.raises(DegreeCapExceededError):
        ideal_membership(y ** 2, standard_basis([g]))
    T = [localstd._generator(localstd._integer_terms(g.terms, order)[0], order, 0)]
    with pytest.raises(DegreeCapExceededError):
        localstd._weak_nf({order.key((0, 2)): 1}, T, order, False)


def test_leading_monomial_picks_lowest_degree():
    sb = standard_basis([y - x * x])
    assert sb.leading_monomials == ((0, 1),)


def test_maximal_ideal_basis():
    sb = standard_basis([y, x])
    assert sorted(sb.leading_monomials) == [(0, 1), (1, 0)]
    assert len(sb.basis) == 2


def test_dk_staircase_has_twelve_monomials():
    sb = standard_basis([x * x * y + y ** 3, x ** 4])
    st = staircase(sb)
    assert len(st.basis_monomials) == 12
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
    with pytest.raises(InfiniteDimensionError):
        quotient_dimension([y - x * x])
    with pytest.raises(InfiniteDimensionError):
        quotient_dimension([Polynomial.zero(2)])
    # the zero ideal is an ordinary ideal, with the empty standard basis
    assert standard_basis([Polynomial.zero(2)]).basis == ()


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
    nf = normal_form(standard_basis([y - x * x, x ** 3]))
    # substitution oracle: y = x^2 reduces everything to univariate mod x^3
    assert nf(y) == x * x
    assert nf(x ** 3).is_zero
    assert nf(y * y).is_zero  # y^2 -> x^4 -> 0
    assert nf(x * y).is_zero  # x*y -> x^3 -> 0
    proper = normal_form(standard_basis([x, y]))
    assert proper(Polynomial.one(2)) == Polynomial.one(2)
    for g in (y - x * x, x ** 3):
        assert nf(g).is_zero


def test_normal_form_rejects_infinite_quotients():
    with pytest.raises(InfiniteDimensionError):
        normal_form(standard_basis([y - x * x]))


def test_normal_form_idempotent():
    rng = random.Random(13)
    nf = normal_form(standard_basis([x * x * y + y ** 3, x ** 4]))
    for _ in range(50):
        terms = {
            (rng.randint(0, 4), rng.randint(0, 4)): Fraction(
                rng.randint(-4, 4), rng.randint(1, 3)
            )
            for _ in range(4)
        }
        p = Polynomial(2, terms)
        r = nf(p)
        assert nf(r) == r


def test_normal_form_terms_avoid_leading_ideal():
    sb = standard_basis([x * x * y + y ** 3, x ** 4])
    nf = normal_form(sb)
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
        r = nf(p)
        assert not any(divisible(m) for m in r.terms)


def test_membership_examples_and_witness_soundness():
    ok, w = ideal_membership(x ** 3,
                             standard_basis([2 * x * y, x * x + 3 * y * y]))
    assert ok
    lhs = w.denominator * x ** 3
    rhs = w.coefficients[0] * (2 * x * y) + w.coefficients[1] * (x * x + 3 * y * y)
    assert lhs == rhs and w.denominator.constant_term != 0

    ok, w = ideal_membership(Polynomial.one(2), standard_basis([x, y]))
    assert not ok and w is None

    ok, w = ideal_membership(Polynomial.zero(2), standard_basis([x * y]))
    assert ok and all(c.is_zero for c in w.coefficients)


def test_membership_requiring_unit_denominator():
    # x is in (x - x^2) only after inverting the unit 1 - x
    ok, w = ideal_membership(x, standard_basis([x - x * x]))
    assert ok
    assert w.denominator * x == w.coefficients[0] * (x - x * x)
    assert not w.denominator.is_constant()


def test_membership_iff_normal_form_zero_for_finite_quotients():
    rng = random.Random(19)
    gens = [x * x - y * y, x * y]
    nf = normal_form(standard_basis(gens))
    for _ in range(60):
        p = Polynomial(
            2,
            {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-3, 3)
                for _ in range(3)
            },
        )
        member, _ = ideal_membership(p, standard_basis(gens))
        assert member == nf(p).is_zero


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


def _ref_staircase_monomials(lms, nvars):
    """The staircase as the box the pure powers bound, filtered."""
    bounds = []
    for i in range(nvars):
        pure = [m[i] for m in lms if sum(m) == m[i]]
        if not pure:
            return None
        bounds.append(min(pure))
    return [m for m in product(*map(range, bounds))
            if not any(mono_divides(lm, m) for lm in lms)]


def test_staircase_walk_matches_the_box_enumeration():
    rng = random.Random(21)
    finite = 0
    for t in range(400):
        n = 2 + t % 2
        lms = [tuple(rng.randint(0, 4) for _ in range(n))
               for _ in range(rng.randint(1, 4))]
        lms = [m for m in lms if any(m)]
        for i in range(n):
            if rng.random() < 0.8:  # a pure power of x_i, mostly
                lms.append(tuple(rng.randint(1, 6) if k == i else 0
                                 for k in range(n)))
        ref = _ref_staircase_monomials(lms, n)
        if ref is None:
            with pytest.raises(InfiniteDimensionError):
                localstd.staircase_monomials(lms, n)
        else:
            walk = localstd.staircase_monomials(lms, n)
            assert len(walk) == len(ref) and sorted(walk) == ref, lms
            finite += 1
    assert finite >= 100
    assert localstd.staircase_monomials([(0, 0, 0), (1, 0, 0)], 3) == []
    with pytest.raises(InfiniteDimensionError):
        localstd.staircase_monomials([(2, 0), (1, 1)], 2)


def test_thin_staircase_walk_touches_only_its_monomials():
    # (x^N, y^N, z^N, xy, xz, yz): 3N - 2 monomials in a box of N^3
    N = 400
    lms = [(N, 0, 0), (0, N, 0), (0, 0, N), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    walk = localstd.staircase_monomials(lms, 3)
    assert len(walk) == 3 * N - 2
    assert set(walk) == {(0, 0, 0)} | {
        tuple(e if k == i else 0 for k in range(3))
        for i in range(3) for e in range(1, N)}


def test_integer_coordinates_match_the_rank_table_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(-9, 9, max_denominator=6).filter(bool)

    def polys(degree, min_size):
        monos = st.tuples(st.integers(0, degree), st.integers(0, degree))
        return st.dictionaries(monos, coeff, min_size=min_size,
                               max_size=5).map(lambda t: Polynomial(2, t))

    @hypothesis.settings(derandomize=True, database=None, max_examples=50,
                         deadline=None)
    @hypothesis.given(st.lists(polys(3, 2).filter(lambda g: not g.constant_term),
                               min_size=1, max_size=2),
                      st.integers(2, 8), st.integers(2, 8), polys(5, 1))
    def check(gens, a, b, p):
        gens = gens + [x ** a, y ** b]
        sb = standard_basis(gens, certify=False)
        stairs = staircase(sb)
        ints, den = CanonicalQuotient(sb, stairs).integer_coordinates(p)
        assert den > 0 and gcd(den, *ints) == 1
        assert [Fraction(c, den) for c in ints] == \
            _ref_coordinates(sb, stairs, p)

    check()


def test_degree_cap_guard():
    # completion of this pair needs a pure y power of degree 2k-3 = 77
    with pytest.raises(DegreeCapExceededError):
        standard_basis([x * x * y + y ** 39, x ** 4], degree_cap=8)
    # the cap is keyword-only: a local order passed by position is refused,
    # never read as a cap
    with pytest.raises(TypeError):
        standard_basis([x ** 4, y], LocalOrder(2))


def test_default_degree_cap_follows_the_generator_degrees():
    # the staircase of (x y, y - x^70) reaches x^70, past a fixed cap of 64;
    # the derived cap is the degree product 2 * 70
    assert quotient_dimension([x * y, y - x ** 70]) == 71
    assert quotient_dimension([x * y + y * y, y - x ** 66]) == 67
    with pytest.raises(DegreeCapExceededError):
        standard_basis([x * y, y - x ** 70], degree_cap=64, certify=False)


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
        certified = standard_basis(gens)
        bare = standard_basis(gens, certify=False)
        assert bare.lift is None
        assert certified.lift is not None
        assert bare.basis == certified.basis
        assert bare == certified  # the certificates take no part in ==
        assert bare.leading_monomials == certified.leading_monomials
        if _is_finite(bare):
            assert staircase(bare) == staircase(certified)
            finite += 1
        else:
            assert not _is_finite(certified)
    assert finite == 9  # 7 test ideals, and the seed 2 and 5 dk(5, 4) ideals
    with pytest.raises(DegreeCapExceededError):
        standard_basis([x * x * y + y ** 39, x ** 4], degree_cap=8, certify=False)


def test_membership_needs_a_basis_with_lifts():
    gens = [x * x * y + y ** 3, x ** 4]
    bare = standard_basis(gens, certify=False)
    with pytest.raises(ValueError):
        ideal_membership(x ** 4, bare)
    ok, _ = ideal_membership(x ** 4, standard_basis(gens))
    assert ok


def test_membership_refuses_a_polynomial_from_another_ring():
    # unchecked, the third variable z of a longer ring read as not a member
    sb = standard_basis([x * x, y * y])
    x3, z3 = Polynomial.variable(3, 0), Polynomial.variable(3, 2)
    for p in (z3, x3 * x3, Polynomial.variable(1, 0)):
        with pytest.raises(ValueError, match="different rings"):
            ideal_membership(p, sb)
    assert ideal_membership(x * x, sb)[0]


def test_bases_and_witnesses_survive_pickle_and_deepcopy():
    gens = _mixed_dk_ideal(2)
    sb = standard_basis(gens)
    ok, witness = ideal_membership(gens[0] * (x + 2 * y), sb)
    assert ok
    for back in (pickle.loads(pickle.dumps(sb)), copy.deepcopy(sb)):
        assert back == sb and back.lift == sb.lift
        assert back.leading_monomials == sb.leading_monomials
        assert ideal_membership(gens[0] * (x + 2 * y), back) == (True, witness)
    for back in (pickle.loads(pickle.dumps(witness)), copy.deepcopy(witness)):
        assert back == witness


# ------------------------------------------- integer kernels against Fraction
# The references below are the Fraction versions of the Mora weak normal
# form, the completion and the truncated staircase division that ran before
# those loops moved to Python ints. Bases, lifts, witnesses, remainders and
# coordinates must be identical, not just equivalent.

class _RefReducer:
    __slots__ = ("poly", "lm", "lc", "ecart", "gen_index", "den", "vec")

    def __init__(self, poly, lm, lc, ecart, gen_index=None, den=None, vec=None):
        self.poly, self.lm, self.lc, self.ecart = poly, lm, lc, ecart
        self.gen_index, self.den, self.vec = gen_index, den, vec


def _ref_lm(p, order):
    return max(p.terms, key=order.key)


def _ref_quotient(a, b):
    """The monomial a / b, for b dividing a."""
    return tuple(x - y for x, y in zip(a, b))


def _ref_ecart(p, lm):
    return p.total_degree() - sum(lm)


def _ref_mora_weak_nf(p, reducers, order, certify=True):
    n = p.nvars
    T = []
    for i, g in enumerate(reducers):
        lm = _ref_lm(g, order)
        T.append(_RefReducer(g, lm, g.terms[lm], _ref_ecart(g, lm), gen_index=i))
    h = p
    den = vec = None
    if certify:
        den = Polynomial.one(n)
        vec = [Polynomial.zero(n)] * len(reducers)
    while not h.is_zero:
        lm_h = _ref_lm(h, order)
        candidates = [t for t in T if localstd.mono_divides(t.lm, lm_h)]
        if not candidates:
            break
        g = min(candidates, key=lambda t: t.ecart)
        e_h = _ref_ecart(h, lm_h)
        if g.ecart > e_h:
            T.append(_RefReducer(h, lm_h, h.terms[lm_h], e_h, den=den,
                                 vec=list(vec) if certify else None))
        t = Polynomial.term(n, _ref_quotient(lm_h, g.lm),
                            Fraction(h.terms[lm_h]) / g.lc)
        h = h - g.poly * t
        if not certify:
            continue
        if g.gen_index is not None:
            j = g.gen_index
            vec[j] = vec[j] + t
        else:
            den = den - g.den * t
            vec = [v - gv * t for v, gv in zip(vec, g.vec)]
    return h, den, vec


def _ref_combine_units(dens):
    n = dens[0].nvars if dens else 0
    total = Polynomial.one(n)
    for d in dens:
        total = total * d
    cof = []
    for i in range(len(dens)):
        c = Polynomial.one(n)
        for j, d in enumerate(dens):
            if j != i:
                c = c * d
        cof.append(c)
    return total, cof


def _ref_witness_over_generators(sb, den, vec):
    n = den.nvars
    support = [i for i, v in enumerate(vec) if not v.is_zero]
    total, cof = _ref_combine_units([sb.lift[i][0] for i in support])
    coeffs = [Polynomial.zero(n)] * len(sb.generators)
    for pos, i in enumerate(support):
        factor = vec[i] * cof[pos]
        for j, w in enumerate(sb.lift[i][1]):
            if not w.is_zero:
                coeffs[j] = coeffs[j] + factor * w
    return den * total, tuple(coeffs)


def _ref_standard_basis(gens, order, degree_cap=None, certify=True,
                        chain=True):
    """The Fraction completion; chain=False runs it without the chain
    criterion, with only the product criterion skipping pairs."""
    from math import prod
    from gsvindex.localstd import DEGREE_CAP_FLOOR
    import heapq

    gens = tuple(gens)
    nonzero = [(j, g) for j, g in enumerate(gens) if not g.is_zero]
    n = nonzero[0][1].nvars
    if degree_cap is None:
        degrees = sorted((g.total_degree() for _, g in nonzero), reverse=True)
        degree_cap = max(DEGREE_CAP_FLOOR, prod(degrees[:n]))
    zero, one = Polynomial.zero(n), Polynomial.one(n)
    G, lms, certs = [], [], []
    for j, g in nonzero:
        lm = _ref_lm(g, order)
        lc = g.terms[lm]
        G.append(g.scale(Fraction(1) / lc))
        lms.append(lm)
        if certify:
            coeffs = [zero] * len(gens)
            coeffs[j] = Polynomial.constant(n, Fraction(1) / lc)
            certs.append((one, coeffs))
    heap = []
    for i in range(len(G)):
        for j in range(i):
            heapq.heappush(heap, (sum(mono_lcm(lms[i], lms[j])), j, i))
    popped = set()
    while heap:
        _, i, j = heapq.heappop(heap)
        popped.add(frozenset((i, j)))
        lcm = mono_lcm(lms[i], lms[j])
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        if chain and any(
                k not in (i, j) and mono_divides(lms[k], lcm)
                and frozenset((i, k)) in popped and frozenset((j, k)) in popped
                for k in range(len(G))):
            continue
        ti = Polynomial.term(n, _ref_quotient(lcm, lms[i]), 1)
        tj = Polynomial.term(n, _ref_quotient(lcm, lms[j]), 1)
        s = G[i] * ti - G[j] * tj
        if s.is_zero:
            continue
        h, den, vec = _ref_mora_weak_nf(s, G, order, certify)
        if h.is_zero:
            continue
        lm = _ref_lm(h, order)
        if sum(lm) > degree_cap:
            raise DegreeCapExceededError("cap")
        lc = h.terms[lm]
        G.append(h.scale(Fraction(1) / lc))
        lms.append(lm)
        if certify:
            u = [-v for v in vec]
            u[i] = u[i] + den * ti
            u[j] = u[j] - den * tj
            support = [k for k, uk in enumerate(u) if not uk.is_zero]
            total, cof = _ref_combine_units([certs[k][0] for k in support])
            coeffs = [zero] * len(gens)
            for pos, k in enumerate(support):
                factor = u[k] * cof[pos]
                for jj, w in enumerate(certs[k][1]):
                    if not w.is_zero:
                        coeffs[jj] = coeffs[jj] + factor * w
            certs.append((total, [c.scale(Fraction(1) / lc) for c in coeffs]))
        k = len(G) - 1
        for t in range(k):
            heapq.heappush(heap, (sum(mono_lcm(lms[t], lm)), t, k))
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and mono_divides(other, lm) and (other != lm or j < i)
                       for j, other in enumerate(lms))]
    basis = tuple(G[i] for i in keep)
    lift = (tuple((certs[i][0], tuple(certs[i][1])) for i in keep)
            if certify else None)
    return basis, lift


def _ref_coordinates(sb, stairs, p):
    import heapq

    index = {m: i for i, m in enumerate(stairs.basis_monomials)}
    delta = max(map(sum, stairs.basis_monomials), default=-1)
    nvars = sb.basis[0].nvars
    monos = sb.order.sort_descending(
        m for m in product(range(delta + 1), repeat=nvars) if sum(m) <= delta)
    rank = {m: r for r, m in enumerate(monos)}
    reducers = []
    for b, lm in zip(sb.basis, sb.leading_monomials):
        tail = [(m, c) for m, c in b.terms.items() if m != lm and sum(m) <= delta]
        reducers.append((lm, b.terms[lm], tail))
    work = {}
    for m, c in p.terms.items():
        r = rank.get(m)
        if r is not None:
            work[r] = c
    heap = list(work)
    heapq.heapify(heap)
    out = [Fraction(0)] * len(index)
    while heap:
        r = heapq.heappop(heap)
        c = work.pop(r)
        if not c:
            continue
        m = monos[r]
        i = index.get(m)
        if i is not None:
            out[i] = c
            continue
        lm, lc, tail = next(red for red in reducers if mono_divides(red[0], m))
        q, f = _ref_quotient(m, lm), Fraction(c) / lc
        for tm, tc in tail:
            r2 = rank.get(mono_mul(q, tm))
            if r2 is None:
                continue
            if r2 in work:
                work[r2] -= f * tc
            else:
                work[r2] = -f * tc
                heapq.heappush(heap, r2)
    return out


def _random_poly(rng, nvars, terms, degree, bits=6):
    return Polynomial(nvars, {
        tuple(rng.randint(0, degree) for _ in range(nvars)):
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** bits),
                     rng.randint(1, 2 ** bits))
        for _ in range(terms)})


def _kernel_ideals():
    """(name, generators) covering the cases the integer kernels must match."""
    from problems import space_curve_problem

    out = []
    for seed in (2, 5, 9):
        A = random_unimodular(2, random.Random(seed))
        for k, m in ((4, 3), (5, 4), (6, 5)):
            P = dk_problem(k, m)
            out.append((f"dk({k},{m}) seed {seed}",
                        [linear_substitute(P.f[0], A),
                         transform_vector_field(list(P.X), A)[0]]))
    for l in range(1, 5):
        P = space_curve_problem(l)
        A = random_unimodular(3, random.Random(2))
        out.append((f"space l={l}",
                    [linear_substitute(f, A) for f in P.f]
                    + [transform_vector_field(list(P.X), A)[0]]))
    P = space_curve_problem(1)
    out.append(("space l=1, infinite", list(P.f) + [P.X[0]]))
    rng = random.Random(40)
    for t in range(4):
        # non-unit leading coefficients and 40-bit coefficients
        big = [Fraction(rng.randint(2, 2 ** 40), rng.randint(1, 2 ** 40))
               for _ in range(6)]
        out.append((f"wide {t}", [
            big[0] * x * x * y + big[1] * y ** 4 + big[2] * x ** 3 * y,
            big[3] * x ** 3 + big[4] * x * y * y + big[5] * y ** 5,
        ]))
    out.append(("unit", [3 * x - 5 * x * x, 7 * y + 2 * x * y]))
    return out


def _uncertified_weak_nf(p, reducers, order):
    """The weak normal form of p by reducers, from _weak_nf run without a
    certificate: it returns no den and no vec, and the certified run's h
    over its content. That h over its den(0) is the reference's h."""
    if p.is_zero:
        return p
    h0, kn, kd = localstd._integer_terms(p.terms, order)
    T = [localstd._generator(localstd._integer_terms(g.terms, order)[0],
                             order, i) for i, g in enumerate(reducers)]
    h, den, vec = localstd._weak_nf(h0, list(T), order, False)
    assert den is None and vec is None
    certified, den, _ = localstd._weak_nf(h0, list(T), order, True)
    c = localstd._content(0, [certified])
    assert h == {k: v // c for k, v in certified.items()}
    return localstd._rational_terms(order, certified, kd, den[0] * kn)


def _is_canonical(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def test_boundary_coefficients_are_canonical():
    # bases, lifts, witnesses and normal forms come back from integer loops
    # as exact quotients: an int wherever the value is integral
    rng = random.Random(12)
    ideals = [(name, gens) for name, gens in _kernel_ideals()
              if name in ("dk(4,3) seed 2", "space l=1", "wide 0", "unit")]
    ideals.append(("integral", [x ** 3 - 2 * y * y, 3 * x * y + y ** 3]))
    for name, gens in ideals:
        n = gens[0].nvars
        sb = standard_basis(gens)
        assert all(map(_is_canonical, sb.basis)), name
        for den, coeffs in sb.lift:
            assert _is_canonical(den) and all(map(_is_canonical, coeffs)), name
            assert den.constant_term == 1, name
        for g in gens:
            p = g * _random_poly(rng, n, 2, 2)
            ok, witness = ideal_membership(p, sb)
            assert ok, name
            assert _is_canonical(witness.denominator), name
            assert witness.denominator.constant_term == 1, name
            assert all(map(_is_canonical, witness.coefficients)), name
        if _is_finite(sb):
            nf = normal_form(sb)
            for p in (_random_poly(rng, n, 3, 3), (5 * x + 7 * x * y).extend(n)):
                assert _is_canonical(nf(p)), name
    # an integral ideal and probe: the normal form is all ints
    sb = standard_basis([x ** 3 - 2 * y * y, 3 * x * y + y ** 3])
    r = normal_form(sb)(5 * x + 7 * x * y * y + 4 * y)
    assert r and all(type(c) is int for c in r.terms.values())


def _goodness_ideals():
    """(name, minors, probes): the maximal minors of D(x^2 + y^2 + z^2, x y),
    the ideal is_good_sufficient tests the space curves' C entries
    2 z^l (x - y), l = 1..6, against; and a copy with f scaled by 7/2 and the
    probes by 2/5, so that the coefficients are not integral."""
    u, v, w = (Polynomial.variable(3, i) for i in range(3))
    out = []
    for name, a, b in (("goodness", 1, 1),
                       ("goodness scaled", Fraction(7, 2), Fraction(2, 5))):
        Df = jacobian([(u * u + v * v + w * w).scale(a), (u * v).scale(a)], 3)
        minors = [minor_det(Df, [0, 1], list(cols))
                  for cols in combinations(range(3), 2)]
        out.append((name, minors,
                    [(2 * w ** l * (u - v)).scale(b) for l in range(1, 7)]))
    return out


def test_integer_kernels_match_the_fraction_references():
    rng = random.Random(8)
    members = 0
    cases = [(name, gens, []) for name, gens in _kernel_ideals()]
    for name, gens, extra in cases + _goodness_ideals():
        n = gens[0].nvars
        order = LocalOrder(n)
        ref_basis, ref_lift = _ref_standard_basis(gens, order)
        sb = standard_basis(gens)
        assert sb.basis == ref_basis, name
        assert sb.lift == ref_lift, name
        bare = standard_basis(gens, certify=False)
        assert bare.basis == ref_basis and bare.lift is None, name
        probes = [_random_poly(rng, n, 3, 3) for _ in range(2)]
        probes += [g * _random_poly(rng, n, 2, 2) for g in gens]
        for p in probes + extra:
            ref = _ref_mora_weak_nf(p, list(sb.basis), order)
            assert _uncertified_weak_nf(p, list(sb.basis), order) == ref[0]
            ok, witness = ideal_membership(p, sb)
            assert ok == ref[0].is_zero, name
            assert ok or p not in extra, name
            members += ok
            if ok:
                assert (witness.denominator, witness.coefficients) == \
                    _ref_witness_over_generators(sb, *ref[1:]), name
        if not _is_finite(sb):
            continue
        stairs = staircase(sb)
        canonical = CanonicalQuotient(sb, stairs)
        top = max(map(sum, stairs.basis_monomials)) + 1
        for p in probes + [_random_poly(rng, n, 8, top) for _ in range(4)]:
            assert _linalg.fractions(*canonical.integer_coordinates(p)) == \
                _ref_coordinates(sb, stairs, p), name
    assert members >= 2 * len(_kernel_ideals())  # the multiples of gens


def test_integer_weak_normal_form_stays_primitive(monkeypatch):
    # the working polynomial is a primitive integer multiple of the rational
    # one; with certify the content is taken over h, den and vec together
    content, taken = localstd._content, []

    def spy(g, maps):  # records every content _weak_nf takes
        taken.append(content(g, maps))
        return taken[-1]

    monkeypatch.setattr(localstd, "_content", spy)
    rng = random.Random(12)
    removed = 0
    for name, gens in _kernel_ideals():
        n = gens[0].nvars
        order = LocalOrder(n)
        T = [localstd._generator(localstd._integer_terms(g.terms, order)[0],
                                 order, i)
             for i, g in enumerate(gens)]
        # the first S-polynomial of the completion, and a random combination
        lcm = order.key(localstd.mono_lcm(order.decode(T[0].lm),
                                          order.decode(T[1].lm)))
        s = localstd._combine(
            localstd._combine({}, 1, -T[1].lc, lcm - T[0].lm, T[0].poly),
            1, T[0].lc, lcm - T[1].lm, T[1].poly)
        p = sum((g * _random_poly(rng, n, 3, 2) for g in gens),
                _random_poly(rng, n, 3, 4))
        c = content(0, [s])
        for h0 in ({m: v // c for m, v in s.items()},
                   localstd._integer_terms(p.terms, order)[0]):
            for certify in (True, False):
                taken.clear()
                h, den, vec = localstd._weak_nf(h0, list(T), order, certify)
                removed += not certify and max(taken, default=0) > 1
                assert content(0, [h, den or {}] + (vec or [])) in (0, 1), name
    assert removed >= 3  # some runs had a content to remove


def test_integer_completion_hits_the_degree_cap_where_the_reference_does():
    dk = _kernel_ideals()[2][1]  # passes from cap 16 on
    order = LocalOrder(2)
    for gens, caps in (([x * x * y + y ** 39, x ** 4], (8, 38, 75, 76, 77)),
                       ([x * y, y - x ** 70], (69, 70, 71)),
                       (dk, range(12, 18))):
        outcomes = []
        for cap in caps:
            outcome = []
            for run in (lambda: _ref_standard_basis(gens, order, cap, False),
                        lambda: standard_basis(gens, degree_cap=cap,
                                               certify=False),
                        lambda: standard_basis(gens, degree_cap=cap)):
                try:
                    run()
                    outcome.append(False)
                except DegreeCapExceededError:
                    outcome.append(True)
            assert len(set(outcome)) == 1, (gens, cap)
            outcomes.append(outcome[0])
        assert outcomes[0] and not outcomes[-1]  # the scan crosses the cap


def _chain_criterion_ideals():
    """The kernel ideals, mixed dk(8,6) and dk(10,8) under the shear
    [[-1, -1], [-2, -3]], and the space curves l = 1..4 under
    random_unimodular seeds 0..3."""
    from problems import space_curve_problem

    out = list(_kernel_ideals())
    A = [[-1, -1], [-2, -3]]
    for k, m in ((8, 6), (10, 8)):
        P = dk_problem(k, m)
        out.append((f"mixed dk({k},{m})", [linear_substitute(P.f[0], A),
                    transform_vector_field(list(P.X), A)[0]]))
    for l in range(1, 5):
        P = space_curve_problem(l)
        for seed in range(4):
            A = random_unimodular(3, random.Random(seed))
            out.append((f"space l={l} seed {seed}",
                        [linear_substitute(f, A) for f in P.f]
                        + [transform_vector_field(list(P.X), A)[0]]))
    return out


def test_chain_criterion_leaves_a_standard_basis_and_its_staircase():
    # every S-polynomial of the returned basis, the pairs the criteria
    # skipped included, has weak normal form 0, and the leading ideal is
    # that of the completion that reduces every pair but the coprime ones
    for name, gens in _chain_criterion_ideals():
        n = gens[0].nvars
        order = LocalOrder(n)
        sb = standard_basis(gens, certify=False)
        basis, lms = list(sb.basis), sb.leading_monomials
        for (i, bi), (j, bj) in combinations(enumerate(basis), 2):
            lcm = mono_lcm(lms[i], lms[j])
            s = (bi * Polynomial.term(n, _ref_quotient(lcm, lms[i]), 1)
                 - bj * Polynomial.term(n, _ref_quotient(lcm, lms[j]), 1))
            h = _ref_mora_weak_nf(s, basis, order, certify=False)[0]
            assert h.is_zero, (name, i, j)
        full, _ = _ref_standard_basis(gens, order, certify=False,
                                      chain=False)
        full_lms = [_ref_lm(b, order) for b in full]
        assert sorted(lms) == sorted(full_lms), name
        if not _is_finite(sb):
            with pytest.raises(InfiniteDimensionError):
                localstd.staircase_monomials(full_lms, n)
            continue
        monos = localstd.staircase_monomials(full_lms, n)
        assert staircase(sb).basis_monomials == tuple(
            order.sort_descending(monos)), name
