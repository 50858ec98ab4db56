import random
from fractions import Fraction

import pytest

from gsvindex import (
    Polynomial,
    annihilator_quotient,
    build_algebra,
    choose_linear_form,
    ensure_regular_sequence,
    signature_of,
)
from gsvindex import sigform
from gsvindex.errors import C1ClassZeroError
from gsvindex.index import (
    _c0_algebra,
    c_coefficient,
    random_unimodular,
)
from gsvindex.poly import jacobian, minor_det

from problems import dk_problem, substitute_problem, zk_map
from reference_linalg import _ref_det, _ref_scaled

x = Polynomial.variable(2, 0)
y = Polynomial.variable(2, 1)
F = Fraction


def gram(rows):
    return tuple(tuple(F(v) for v in r) for r in rows)


def test_signature_examples():
    s = signature_of(gram([[1]]))
    assert (s.p_plus, s.p_minus, s.rank, s.signature) == (1, 0, 1, 1)
    s = signature_of(gram([[0, 1], [1, 0]]))
    assert (s.p_plus, s.p_minus, s.rank, s.signature) == (1, 1, 2, 0)
    s = signature_of(gram([[2, 0, 0], [0, -3, 0], [0, 0, 5]]))
    assert (s.p_plus, s.p_minus, s.rank) == (2, 1, 3)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        signature_of(gram([[0, 1], [2, 0]]))
    for rows in ([[1, 0]], [[1, 0], [0]], [[1], [0, 1]]):
        with pytest.raises(ValueError, match="wrong shape"):
            signature_of(gram(rows))


def random_symmetric(rng, d):
    m = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            v = F(rng.randint(-4, 4), rng.randint(1, 3))
            m[i][j] = m[j][i] = v
    return m


def random_invertible(rng, d):
    while True:
        S = [[F(rng.randint(-3, 3)) for _ in range(d)] for _ in range(d)]
        if _ref_det(S) != 0:
            return S


def test_sylvester_on_random_diagonals():
    rng = random.Random(3)
    for _ in range(100):
        d = rng.randint(1, 6)
        diag = [F(rng.randint(-5, 5)) for _ in range(d)]
        m = [[diag[i] if i == j else F(0) for j in range(d)] for i in range(d)]
        s = signature_of(gram(m))
        assert s.p_plus == sum(1 for v in diag if v > 0)
        assert s.p_minus == sum(1 for v in diag if v < 0)


def test_congruence_invariance():
    from gsvindex import _linalg

    rng = random.Random(5)
    for _ in range(100):
        d = rng.randint(1, 5)
        G = random_symmetric(rng, d)
        S = random_invertible(rng, d)
        St = [[S[j][i] for j in range(d)] for i in range(d)]
        H = _linalg.matmul(St, _linalg.matmul(G, S))
        assert signature_of(gram(H)) == signature_of(gram(G))


def _reference_signature(matrix):
    """Full-matrix congruence diagonalization (rows, then columns, at every
    step), kept as an independent reference for signature_of."""
    d = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    plus = minus = 0
    for k in range(d):
        piv = next((j for j in range(k, d) if a[j][j] != 0), None)
        if piv is None:
            pair = next(
                (
                    (i, j)
                    for i in range(k, d)
                    for j in range(i + 1, d)
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                break
            i, j = pair
            for t in range(d):
                a[i][t] += a[j][t]
            for t in range(d):
                a[t][i] += a[t][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for t in range(d):
                a[t][k], a[t][piv] = a[t][piv], a[t][k]
        p = a[k][k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        for r in range(k + 1, d):
            if a[r][k]:
                f = a[r][k] / p
                for t in range(d):
                    a[r][t] -= f * a[k][t]
                for t in range(d):
                    a[t][r] -= f * a[t][k]
    return plus, minus, plus + minus


def _sparse_symmetric(rng, d, density, zero_diagonal):
    m = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1):
            if (i != j or not zero_diagonal) and rng.random() < density:
                m[i][j] = m[j][i] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return m


def _low_rank_symmetric(rng, d, density):
    """B^T D B with B of r < d rows, D = diag(+-1): rank at most r."""
    r = rng.randint(0, d - 1)
    B = [[rng.randint(-3, 3) if rng.random() < density else 0
          for _ in range(d)] for _ in range(r)]
    D = [rng.choice((-1, 1)) for _ in range(r)]
    return [[F(sum(D[k] * B[k][i] * B[k][j] for k in range(r)))
             for j in range(d)] for i in range(d)]


def test_signature_matches_full_matrix_reference():
    rng = random.Random(2024)
    kinds = {"dense": 0, "zero diagonal": 0, "low rank": 0}
    for trial in range(1200):
        d = rng.randint(1, rng.choice((6, 12)))
        density = (0.15, 0.4, 0.7, 1.0)[trial % 4]
        kind = ("dense", "zero diagonal", "low rank")[trial % 3]
        if kind == "low rank":
            m = _low_rank_symmetric(rng, d, density)
        else:
            m = _sparse_symmetric(rng, d, density, kind == "zero diagonal")
        form = gram(m)
        s = signature_of(form)
        assert (s.p_plus, s.p_minus, s.rank) == _reference_signature(form), m
        if kind == "low rank":
            assert s.rank < d
        kinds[kind] += 1
    assert min(kinds.values()) >= 400


def test_choose_linear_form_default_policy():
    A = build_algebra([y, x * x])
    C = annihilator_quotient(A, Polynomial.one(2))
    l, value = choose_linear_form(C, 2 * x)
    assert value == 1 and l == (F(0), F(1, 2))

    A1 = build_algebra([x, y])
    C1 = annihilator_quotient(A1, Polynomial.one(2))
    l, value = choose_linear_form(C1, Polynomial.constant(2, 5))
    assert l == (F(1, 5),) and value == 1


def test_choose_linear_form_seeded_positivity():
    A = build_algebra([y, x ** 3])
    C = annihilator_quotient(A, Polynomial.one(2))
    for seed in range(40):
        l, value = choose_linear_form(C, x + 2 * x * x, seed=seed)
        assert value > 0


def test_choose_linear_form_zero_class():
    A = build_algebra([x, y])
    C = annihilator_quotient(A, Polynomial.one(2))
    with pytest.raises(C1ClassZeroError):
        choose_linear_form(C, x)


def test_gram_examples():
    A1 = build_algebra([x, y])
    C1 = annihilator_quotient(A1, Polynomial.one(2))
    assert C1.scaled_gram_matrix((F(1),)) == ((1,),)

    A = build_algebra([y, x * x])
    C = annihilator_quotient(A, Polynomial.one(2))
    for a in (F(0), F(3), F(-2, 7)):
        G = C.scaled_gram_matrix((a, F(1, 2)))
        assert G == _ref_scaled(((a, F(1, 2)), (F(1, 2), F(0))))
        assert signature_of(G).signature == 0

    A3 = build_algebra([y, x ** 3])
    C3 = annihilator_quotient(A3, Polynomial.one(2))
    G = C3.scaled_gram_matrix((F(0), F(0), F(1)))
    assert G == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert signature_of(G).signature == 1


def test_l_independence_on_annihilator_quotient():
    # fixed quotient C0 and trace coefficient: 20 admissible forms must give
    # one signature, with full rank every time
    d4 = build_algebra([x * x * y + y ** 3, x ** 4])
    C0 = annihilator_quotient(d4, x * x + 3 * y * y)
    c1 = 4 * x ** 3
    results = set()
    for seed in range(20):
        l, _ = choose_linear_form(C0, c1, seed=seed)
        s = signature_of(C0.scaled_gram_matrix(l))
        assert s.rank == C0.dim
        results.add(s.signature)
    assert len(results) == 1


# ------------------------------------------- Witt reduction of the pairing

FUNCTIONAL_SEEDS = (None, 1, 576420752)


def _spy_signature_of(monkeypatch):
    """Record every matrix that sigform.signature_of is handed."""
    seen = []

    def spy(matrix):
        seen.append(matrix)
        return signature_of(matrix)

    monkeypatch.setattr(sigform, "signature_of", spy)
    return seen


def _check_witt_reduction(monkeypatch, algebra, element):
    """Across the functional seeds, the reduced signature equals the full
    one and runs on a smaller matrix; returns the set of signatures."""
    degrees = [sum(m) for m in algebra.basis]
    top = sum(e > max(degrees) // 2 for e in degrees)
    assert top > 0
    signatures = set()
    for seed in FUNCTIONAL_SEEDS:
        l, _ = choose_linear_form(algebra, element, seed=seed)
        G = algebra.scaled_gram_matrix(l)
        full = signature_of(G)
        seen = _spy_signature_of(monkeypatch)
        assert sigform._witt_signature(G, degrees) == full, (algebra.basis, seed)
        assert [len(m) for m in seen] == [algebra.dim - 2 * top]
        monkeypatch.undo()
        signatures.add(full.signature)
    return signatures


def test_witt_reduction_matches_the_full_signature_on_dk(monkeypatch):
    shear = [[-1, -1], [-2, -3]]
    for k, m in ((4, 3), (5, 4), (6, 5), (7, 5), (8, 6), (10, 8)):
        P = dk_problem(k, m, field="real")
        changes = [shear] + [random_unimodular(2, random.Random(s))
                             for s in range(4)]
        for Q in [P] + [substitute_problem(P, A) for A in changes]:
            norm = ensure_regular_sequence(Q)
            N = norm.problem
            c1 = c_coefficient(jacobian(list(N.X), N.nvars), N.C)
            # the real index does not depend on the functional
            index = 0 if m % 2 else (1 if k % 2 == 0 else 2)
            assert _check_witt_reduction(monkeypatch, _c0_algebra(norm),
                                         c1) == {index}


def test_witt_reduction_matches_the_full_signature_on_zk(monkeypatch):
    for k in range(2, 9):
        g = zk_map(k)
        Q = build_algebra(g)
        Jg = minor_det(jacobian(g, 2), [0, 1], [0, 1])
        assert Q.dim == k * k
        assert _check_witt_reduction(monkeypatch, Q, Jg) == {k}


def test_witt_reduction_falls_back_to_the_full_matrix(monkeypatch):
    # degrees (0, 1): J is the second basis element. The first Gram fails
    # the isotropy check G[J][J] = 0, the second has rank B = 0 < |J| = 1
    for G, want in ((((0, 1), (1, 1)), (1, 1, 2)), (((1, 0), (0, 0)), (1, 0, 1))):
        seen = _spy_signature_of(monkeypatch)
        s = sigform._witt_signature(G, (0, 1))
        assert s == signature_of(G) and (s.p_plus, s.p_minus, s.rank) == want
        assert len(seen) == 1 and seen[0] is G
        monkeypatch.undo()
