import random
from fractions import Fraction

import pytest

from wfci.poly import (Coeff, GradedPolynomial, eligible_partners,
                       generic_member, monomials_of_degree, poly_mul,
                       representable, semigroup_mask, substitute,
                       weighted_degree)

from oracles import brute_partners, dfs_representable


# --- coefficients ---------------------------------------------------------

def test_coeff_rational_field_ops():
    rng = random.Random(3)
    for _ in range(200):
        p = Fraction(rng.randrange(-30, 31), rng.randrange(1, 12))
        if p == 0:
            continue
        c = Coeff(p)
        assert (c * c.inverse()) == Coeff(Fraction(1))


def test_coeff_radical_arithmetic():
    a = Coeff(Fraction(1), Fraction(2), 5)      # 1 + 2*sqrt(5)
    b = Coeff(Fraction(3), Fraction(-1), 5)     # 3 - sqrt(5)
    prod = a * b
    assert prod == Coeff(Fraction(3 - 10), Fraction(6 - 1), 5)
    assert (a * a.inverse()) == Coeff(Fraction(1))
    with pytest.raises(ValueError):
        a * Coeff(Fraction(0), Fraction(1), 7)


def test_coeff_sqrt_normalizes_radicand():
    r = Coeff.sqrt_of(Fraction(8))              # 2*sqrt(2)
    assert (r.rad, r.m) == (Fraction(2), 2)
    assert r * r == Coeff(Fraction(8))
    assert Coeff.sqrt_of(Fraction(9, 4)) == Coeff(Fraction(3, 2))
    neg = Coeff.sqrt_of(Fraction(-4))
    assert neg.m == -1 and neg * neg == Coeff(Fraction(-4))


def test_coeff_sqrt_one_collapses():
    c = Coeff(Fraction(2), Fraction(3), 1)
    assert c.is_rational and c.base == 5


# --- degrees and representability ----------------------------------------

def test_weighted_degree_examples():
    w = (1, 7, 12, 18)
    assert weighted_degree((2, 0, 0, 0), w) == 2
    assert weighted_degree((1, 5, 0, 0), w) == 36
    assert weighted_degree((0, 0, 0, 2), w) == 36
    with pytest.raises(ValueError):
        weighted_degree((1, 0), w)


def test_representable_examples():
    w = (1, 7, 12, 18)
    assert representable(w, (3,), 36) == (0, 0, 0, 2)
    assert representable(w, (1,), 36) is None
    assert representable((2, 3), (0, 1), 7) == (2, 1)
    assert representable(w, (0, 1), 0) == (0, 0, 0, 0)
    assert representable(w, (0,), -5) is None


def test_representable_matches_dfs_oracle():
    rng = random.Random(11)
    for _ in range(400):
        n1 = rng.randrange(2, 7)
        ws = tuple(rng.randrange(1, 13) for _ in range(n1))
        size = rng.randrange(1, n1 + 1)
        subset = tuple(sorted(rng.sample(range(n1), size)))
        d = rng.randrange(0, 61)
        mono = representable(ws, subset, d)
        expected = dfs_representable(tuple(ws[i] for i in subset), d)
        assert (mono is not None) == expected
        if mono is not None:
            assert weighted_degree(mono, ws) == d
            assert all(e == 0 for i, e in enumerate(mono) if i not in subset)
        partners = eligible_partners(ws, subset, d)
        assert partners == tuple(sorted(brute_partners(ws, subset, d)))


def test_representable_is_lex_smallest():
    # exhaustive comparison on a small case
    ws = (2, 3, 5)
    for d in range(0, 40):
        best = None
        for mono in monomials_of_degree(ws, d):
            best = mono if best is None else min(best, mono)
        assert representable(ws, (0, 1, 2), d) == best


def test_semigroup_mask_basics():
    mask = semigroup_mask([3, 5], 20)
    members = {d for d in range(21) if (mask >> d) & 1}
    assert members == {0, 3, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}


def test_eligible_partners_examples():
    assert 0 in eligible_partners((1, 7, 12, 18), (1,), 36)
    assert eligible_partners((1, 1, 1, 1), (1,), 3) == (0, 2, 3)
    assert eligible_partners((2, 3, 4, 5), (3,), 12) == (0,)
    # degree equal to a weight: the empty monomial on the subset is allowed
    assert 2 in eligible_partners((1, 1, 5), (0,), 5)
    assert eligible_partners((1, 2, 3), (), 3) == (2,)
    assert eligible_partners((1, 2, 3), (0,), -1) == ()
    with pytest.raises(ValueError):
        eligible_partners((1, 2, 3), (0, 3), 9)


# --- polynomials ----------------------------------------------------------

def test_graded_polynomial_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        GradedPolynomial((1, 1), 2, {(1, 0): 1, (1, 1): 1})


def test_zero_coefficients_dropped():
    p = GradedPolynomial((1, 1), 2, {(2, 0): 0, (1, 1): 1})
    assert list(p.terms) == [(1, 1)]
    # repeated exponents merge, and a cancelling pair vanishes
    q = GradedPolynomial((1, 1), 2, [((2, 0), 1), ((1, 1), 3), ((2, 0), 2),
                                     ((0, 2), 5), ((0, 2), -5)])
    assert q.terms == {(2, 0): Coeff(Fraction(3)), (1, 1): Coeff(Fraction(3))}
    assert (p - p).terms == {}


def test_substitute_examples():
    w = (1, 1)
    p = GradedPolynomial(w, 2, {(1, 1): 1})                    # x0*x1
    repl = GradedPolynomial(w, 1, {(0, 1): 1, (1, 0): 1})      # x1 + x0
    q = substitute(p, 1, repl)
    assert q == GradedPolynomial(w, 2, {(1, 1): 1, (2, 0): 1})
    back = substitute(q, 1, GradedPolynomial(w, 1, {(0, 1): 1, (1, 0): -1}))
    assert back == p


def test_substitute_triangular_round_trip_random():
    rng = random.Random(5)
    for _ in range(60):
        w = tuple(rng.choice([1, 1, 2, 3]) for _ in range(4))
        d = rng.randrange(2, 9)
        try:
            p = generic_member(w, d, seed=rng.randrange(10**6))
        except ValueError:
            continue
        i = rng.randrange(4)
        # h: polynomial of degree w[i] in the other variables
        terms = {m: Fraction(rng.randrange(-3, 4))
                 for m in monomials_of_degree(w, w[i]) if m[i] == 0}
        h = GradedPolynomial(w, w[i], terms)
        if h.is_zero():
            continue
        forward = substitute(p, i, GradedPolynomial(w, w[i], {**h.terms, tuple(
            int(k == i) for k in range(4)): 1}))
        backward = substitute(forward, i, GradedPolynomial(w, w[i], {
            **{m: -c for m, c in h.terms.items()},
            tuple(int(k == i) for k in range(4)): 1}))
        assert backward == p


def test_substitute_degree_guard():
    p = GradedPolynomial((1, 2), 2, {(0, 1): 1})
    bad = GradedPolynomial((1, 2), 1, {(1, 0): 1})
    with pytest.raises(ValueError):
        substitute(p, 1, bad)


def test_generic_member_counts_and_determinism():
    assert len(generic_member((1, 1, 1), 1, seed=0).terms) == 3
    w, d = (1, 7, 12, 18), 36
    count = sum(1 for _ in monomials_of_degree(w, d))
    p = generic_member(w, d, seed=42)
    assert len(p.terms) == count
    assert p == generic_member(w, d, seed=42)
    assert p != generic_member(w, d, seed=43)
    with pytest.raises(ValueError):
        generic_member((1, 1, 1, 1), 40, seed=1, cap=10)


def test_poly_mul_degree_and_values():
    w = (1, 2)
    p = GradedPolynomial(w, 2, {(2, 0): 2, (0, 1): 3})
    q = poly_mul(p, p)
    assert q.degree == 4
    assert q.coefficient((4, 0)) == Coeff(Fraction(4))
    assert q.coefficient((2, 1)) == Coeff(Fraction(12))
    assert q.coefficient((0, 2)) == Coeff(Fraction(9))
    # (x0 + x1)(x0 - x1): the cross terms cancel
    s = GradedPolynomial((1, 1), 1, {(1, 0): 1, (0, 1): 1})
    t = GradedPolynomial((1, 1), 1, {(1, 0): 1, (0, 1): -1})
    assert poly_mul(s, t).terms == {(2, 0): Coeff(Fraction(1)),
                                    (0, 2): Coeff(Fraction(-1))}


def test_json_round_trip():
    p = GradedPolynomial((1, 1, 2), 4, {
        (4, 0, 0): Coeff(Fraction(1, 3)),
        (0, 0, 2): Coeff(Fraction(1), Fraction(-2), 7),
    })
    assert GradedPolynomial.from_json(p.to_json()) == p
