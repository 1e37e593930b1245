import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest

from wfci import poly
from wfci.intarith import factorize
from wfci.poly import (Coeff, GradedPolynomial, eligible_partners,
                       generic_member, monomials_of_degree, poly_mul,
                       representable, semigroup_mask, substitute,
                       weighted_degree)
from wfci.cylinder import NormalFormError, normal_form

from oracles import (brute_partners, dfs_representable, literal_product,
                     literal_replay, literal_substitute)


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


def test_squarefree_split_matches_the_factorization():
    # division to the cube root leaves a rest with at most two prime factors,
    # a square or square-free: compare with the full factorization, on random
    # n and on primes, prime squares and prime pairs near RADICAND_CAP
    def literal(n):
        u, m = 1, 1
        for p, e in factorize(abs(n)):
            u, m = u * p ** (e // 2), m * p ** (e % 2)
        return u, m if n > 0 else -m

    rng = random.Random(29)
    big = (999_983, 999_979, 10**12 - 11)
    cases = [rng.randint(-10**9, 10**9) or 1 for _ in range(3000)]
    cases += [a * b * s * c for a in big[:2] for b in (1, *big[:2]) for s in (1, -1)
              for c in (1, 2, 4) if a * b * c <= poly.RADICAND_CAP] + [big[2], -big[2]]
    for n in cases:
        assert poly._squarefree_split(n) == literal(n), n
    assert poly._squarefree_split(-poly.RADICAND_CAP) == (10**6, -1)
    for n in (poly.RADICAND_CAP + 1, -(10**24 + 7)):
        with pytest.raises(ValueError, match=f"^radicand of magnitude above {poly.RADICAND_CAP} refused$"):
            poly._squarefree_split(n)
    with pytest.raises(ValueError, match="^radicand 8 is not square-free$"):
        Coeff.from_json({"coeff": "2", "radical": "-1", "radicand": 8})


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


def test_semigroup_mask_matches_dfs_oracle():
    # seeded generator sets, with generators above the limit, limit 0 and
    # repeated generators; every bit up to the limit, and none above it
    rng = random.Random(8)
    cases = [([7], 3), ([4, 9], 0), ([5, 5, 5], 40), ([6, 6, 10, 15], 60), ([], 9)]
    for _ in range(300):
        gens = [rng.randint(1, 40) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            gens.append(rng.choice(gens))
        cases.append((gens, rng.randint(0, 150)))
    for gens, limit in cases:
        mask = semigroup_mask(gens, limit)
        assert mask >> (limit + 1) == 0, (gens, limit)
        assert [(mask >> d) & 1 for d in range(limit + 1)] == \
            [dfs_representable(tuple(gens), d) for d in range(limit + 1)], (gens, limit)


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


def test_substitute_refuses_beyond_the_term_cap(monkeypatch):
    # (x0 + x1/2)^k has k + 1 terms: building the powers up to 9 takes
    # 2 * (1 + 2 + ... + 9) = 90 term products, and the ten terms of p then
    # take 1 + 2 + ... + 10 = 55 more; that count is also the lower bound of
    # the k + 1 terms a power of x_i + R has, so a refusal makes no product
    w = (1, 1)
    p = generic_member(w, 9, seed=5)
    r = GradedPolynomial(w, 1, {(1, 0): 1, (0, 1): Fraction(1, 2)})
    made = []
    real = poly._mul_into

    def counting(table, left, right):
        made.append(len(left) * len(right))
        return real(table, left, right)
    monkeypatch.setattr(poly, "_mul_into", counting)
    monkeypatch.setattr(poly, "SUBSTITUTE_TERM_CAP", 145)
    expected = substitute(p, 0, r)
    assert sum(made) == 145
    for cap in (144, 89):
        made.clear()
        monkeypatch.setattr(poly, "SUBSTITUTE_TERM_CAP", cap)
        with pytest.raises(ValueError, match=f"^substitution needs more than {cap} term products$"):
            substitute(p, 0, r)
        assert made == []
    monkeypatch.setattr(poly, "SUBSTITUTE_TERM_CAP", 10**6)
    assert substitute(p, 0, r) == expected

    # (x0 + x1 + x2/2)^k has (k + 1)(k + 2)/2 terms, more than the bound:
    # the powers up to 4 take 3 * (1 + 3 + 6 + 10) = 60 products and the 15
    # terms of p 5*1 + 4*3 + 3*6 + 2*10 + 1*15 = 70 more, against a bound of
    # 3 * (1 + 2 + 3 + 4) + (5*1 + 4*2 + 3*3 + 2*4 + 1*5) = 65; between the
    # two the exact count refuses after the powers
    w = (1, 1, 1)
    p = generic_member(w, 4, seed=2)
    r = GradedPolynomial(w, 1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): Fraction(1, 2)})
    for cap, products in ((130, 130), (129, 60), (65, 60), (64, 0)):
        made.clear()
        monkeypatch.setattr(poly, "SUBSTITUTE_TERM_CAP", cap)
        if cap == 130:
            assert substitute(p, 0, r).terms == literal_substitute(p.terms, 0, r.terms, 3)
        else:
            with pytest.raises(ValueError, match="term products$"):
                substitute(p, 0, r)
        assert sum(made) == products, cap

    # a zero replacement has no power beyond the 0th, so the bound counts
    # only the terms free of x_i
    made.clear()
    monkeypatch.setattr(poly, "SUBSTITUTE_TERM_CAP", 5)
    assert substitute(p, 0, GradedPolynomial(w, 1, {})) == GradedPolynomial(
        w, 4, {e: c for e, c in p.terms.items() if e[0] == 0})
    assert sum(made) == 5


def test_generic_member_counts_and_determinism(monkeypatch):
    assert len(generic_member((1, 1, 1), 1, seed=0).terms) == 3
    w, d = (1, 7, 12, 18), 36
    count = sum(1 for _ in monomials_of_degree(w, d))
    p = generic_member(w, d, seed=42)
    assert len(p.terms) == count
    assert p == generic_member(w, d, seed=42)
    assert p != generic_member(w, d, seed=43)

    # over the cap it refuses before drawing any coefficient
    def no_coefficients(*args):
        raise AssertionError("coefficient drawn")

    monkeypatch.setattr(random, "Random", no_coefficients)
    with pytest.raises(ValueError, match="monomial count exceeds cap 10"):
        generic_member((1, 1, 1, 1), 40, seed=1, cap=10)


def test_generic_member_cap_stops_the_walk(monkeypatch):
    # 12,341 monomials of degree 40 in four variables of weight 1: over a cap
    # of 10, generic_member takes at most 11 of them and draws no coefficient
    walk, taken = poly.monomials_of_degree, []

    def counting(weights, d):
        for mono in walk(weights, d):
            taken.append(mono)
            yield mono

    def no_coefficients(*args):
        raise AssertionError("coefficient drawn")

    monkeypatch.setattr(poly, "monomials_of_degree", counting)
    monkeypatch.setattr(random, "Random", no_coefficients)
    with pytest.raises(ValueError, match="^monomial count exceeds cap 10$"):
        generic_member((1, 1, 1, 1), 40, seed=1, cap=10)
    assert 0 < len(taken) <= 11


def test_monomial_walk_enters_only_live_branches():
    # same monomials in the same order as a literal walk of the exponent box
    rng = random.Random(391)
    for _ in range(200):
        w = tuple(rng.randrange(1, 7) for _ in range(rng.randrange(1, 5)))
        d = rng.randrange(-1, 25)
        box = product(*(range(max(d, 0) // a + 1) for a in w))
        assert list(monomials_of_degree(w, d)) == \
            [e for e in box if weighted_degree(e, w) == d], (w, d)

    # only x_2 reaches the odd degree: the walk reads one weight per level on
    # the way to it, where a walk of dead branches also visits the 125,751
    # exponent pairs of the two 2s
    class CountingWeights(tuple):
        reads = 0

        def __getitem__(self, i):
            CountingWeights.reads += isinstance(i, int)
            return tuple.__getitem__(self, i)

    assert list(monomials_of_degree(CountingWeights((2, 2, 1001)), 1001)) == [(0, 0, 1)]
    assert CountingWeights.reads == 3


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
    # (1 + sqrt(2))(1 - sqrt(2)) = -1: the radical cancels, and the product
    # equals, and hashes as, the rational polynomial
    r = GradedPolynomial(w, 1, {(1, 0): Coeff(Fraction(1), Fraction(1), 2)})
    c = GradedPolynomial(w, 1, {(1, 0): Coeff(Fraction(1), Fraction(-1), 2)})
    assert poly_mul(r, c) == GradedPolynomial(w, 2, {(2, 0): -1})
    assert hash(poly_mul(r, c)) == hash(GradedPolynomial(w, 2, {(2, 0): -1}))


def _random_poly(rng, w, d, m, mixed):
    """Some monomials of degree d with coefficients over mixed denominators,
    a share of them carrying sqrt(m); `mixed` puts sqrt(11) on one term."""
    monos = list(monomials_of_degree(w, d))
    if not monos:
        return None
    terms = {}
    for exps in rng.sample(monos, min(len(monos), rng.randint(1, 8))):
        base = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        rad = Fraction(rng.randint(1, 9), rng.randint(1, 12)) if m != 1 and rng.random() < 0.4 else 0
        terms[exps] = Coeff(base, Fraction(rad), m)
    if mixed:
        terms[rng.choice(sorted(terms))] = Coeff(Fraction(1), Fraction(1), 11)
    return GradedPolynomial(w, d, terms)


def _agree(fast, literal):
    """Both raise the incompatible-radicands ValueError, or give equal terms."""
    try:
        want = literal()
    except ValueError as exc:
        assert "incompatible radicands" in str(exc)
        with pytest.raises(ValueError, match="incompatible radicands"):
            fast()
        return False
    assert fast().terms == want
    return True


def test_substitute_and_poly_mul_match_literal_oracle():
    rng = random.Random(17)
    seen = {"subst": 0, "mul": 0, "clash": 0, "radical": 0, "high_power": 0}
    for k in range(400):
        n = rng.randint(2, 4)
        w = tuple(rng.choice((1, 1, 2, 3)) for _ in range(n))
        i = rng.randrange(n)
        d = rng.randint(1, 9 if w[i] == 1 else 12)
        m = rng.choice((1, 2, 3, 5, -1, -7))
        p = _random_poly(rng, w, d, m, mixed=k % 7 == 0)
        if p is None:
            continue                            # no monomial of degree d
        if k % 2:
            q = _random_poly(rng, w, rng.randint(1, 6), rng.choice((1, m, 3)), mixed=False)
            if q is None:
                continue
            ok = _agree(lambda: poly_mul(p, q), lambda: literal_product(p.terms, q.terms))
            seen["mul"] += ok
        else:
            rest = [e for e in monomials_of_degree(w, w[i]) if e[i] == 0]
            terms = {e: Coeff(Fraction(rng.randint(-5, 5), rng.randint(1, 7)),
                              Fraction(rng.randint(0, 3), rng.randint(1, 5)),
                              rng.choice((m, m, 3)))
                     for e in rng.sample(rest, min(len(rest), rng.randint(0, 3)))}
            if rng.random() < 0.7:
                terms[tuple(int(j == i) for j in range(n))] = Coeff(Fraction(1))
            r = GradedPolynomial(w, w[i], terms)
            ok = _agree(lambda: substitute(p, i, r),
                        lambda: literal_substitute(p.terms, i, r.terms, n))
            seen["subst"] += ok
            seen["high_power"] += ok and max(e[i] for e in p.terms) >= 6
        seen["clash"] += not ok
        seen["radical"] += ok and any(not c.is_rational for c in p.terms.values())
    assert min(seen.values()) >= 10, seen


def test_incompatible_radicands_raise_from_substitute_and_poly_mul():
    w = (1, 1, 2)
    p = GradedPolynomial(w, 2, {(1, 1, 0): Coeff(Fraction(1), Fraction(1), 2),
                                (0, 0, 1): Coeff(Fraction(1, 3))})
    r = GradedPolynomial(w, 1, {(1, 0, 0): 1, (0, 1, 0): Coeff(Fraction(0), Fraction(1), 3)})
    with pytest.raises(ValueError, match="^incompatible radicands 2 and 3$"):
        substitute(p, 0, r)
    with pytest.raises(ValueError, match="^incompatible radicands 2 and 3$"):
        poly_mul(p, r)
    # no product clashes here: sqrt(5)*x0*x1 comes first, then sqrt(3)*x0*x1
    # meets it while like terms merge, and the earlier term is named first
    q = GradedPolynomial(w, 1, {(0, 1, 0): Coeff(Fraction(1)),
                                (1, 0, 0): Coeff(Fraction(0), Fraction(1), 3)})
    s = GradedPolynomial(w, 1, {(0, 1, 0): Coeff(Fraction(1)),
                                (1, 0, 0): Coeff(Fraction(0), Fraction(1), 5)})
    with pytest.raises(ValueError, match="^incompatible radicands 5 and 3$"):
        poly_mul(q, s)


def _kernel_outputs(kind):
    """(output, its literal expansion as {exps: Coeff}, the product of the
    input denominators it was computed over, or None) for seeded inputs of
    one kernel: coefficients over mixed denominators, a share with radicals."""
    rng = random.Random(23)
    out = []
    while len(out) < 40:
        n = rng.randint(2, 4)
        w = tuple(rng.choice((1, 1, 2, 3)) for _ in range(n))
        i, j = rng.sample(range(n), 2)
        m = rng.choice((1, 2, 3, -1))
        p = _random_poly(rng, w, rng.randint(1, 8), m, mixed=False)
        q = _random_poly(rng, w, p.degree if kind == "sum" else rng.randint(1, 5),
                         m, mixed=False) if p else None
        if q is None:
            continue
        if kind == "product":
            out.append((poly_mul(p, q), literal_product(p.terms, q.terms), p.D * q.D))
        elif kind == "sum":
            want = {e: p.coefficient(e) - q.coefficient(e) for e in {*p.terms, *q.terms}}
            out.append((p - q, {e: c for e, c in want.items() if not c.is_zero},
                        math.lcm(p.D, q.D)))
        elif kind == "scale":
            factor = Coeff(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                           Fraction(rng.randint(0, 3), rng.randint(1, 5)), m)
            out.append((p.scale(factor), literal_product(p.terms, {(0,) * n: factor}),
                        p.D * math.lcm(factor.base.denominator, factor.rad.denominator)))
        elif kind == "substitution":
            rest = [e for e in monomials_of_degree(w, w[i]) if e[i] == 0]
            r = GradedPolynomial(w, w[i], {tuple(int(k == i) for k in range(n)): 1, **{
                e: Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for e in rest[:2]}})
            out.append((substitute(p, i, r), literal_substitute(p.terms, i, r.terms, n),
                        p.D * r.D ** max(e[i] for e in p.terms)))
        else:
            F = generic_member(w, w[i] + w[j], rng.randrange(1000))
            try:
                nf = normal_form(F, (i, j))
            except NormalFormError:
                continue
            out.append((nf.result, literal_replay(dict(F.terms), nf.change_sequence, n), None))
    return out


@pytest.mark.parametrize("kind", ["product", "sum", "scale", "substitution", "normal form"])
def test_kernel_outputs_are_stored_over_the_least_denominator(kind, monkeypatch):
    # each output holds integer numerators over D with gcd(D, numerators) = 1
    # and no zero term, equals its literal expansion, and keeps the contract
    # of the `terms` view: keys and length make no Coeff, and get(exps) is a
    # Coeff, or None for an absent exponent
    outputs = _kernel_outputs(kind)
    assert sum(any(b for _, b, _ in got.table.values()) for got, _, _ in outputs) >= 5
    # the denominator a kernel computes over is not always the least one
    assert kind == "normal form" or any(got.D < D for got, _, D in outputs)
    for got, want, _ in outputs:
        numerators = [x for a, b, _ in got.table.values() for x in (a, b)]
        assert got.D > 0 and math.gcd(got.D, *numerators) == 1
        assert all(a or b for a, b, _ in got.table.values())
        assert dict(got.terms.items()) == want
        with monkeypatch.context() as patch:
            patch.setattr(poly, "Coeff", None)
            assert len(got.terms) == len(want) and list(got.terms) == list(got.table)
        for e, (a, b, _) in got.table.items():
            assert got.terms.get(e).base == Fraction(a, got.D)
        assert got.terms.get((0,) * (got.nvars + 1)) is None


def test_json_round_trip():
    p = GradedPolynomial((1, 1, 2), 4, {
        (4, 0, 0): Coeff(Fraction(1, 3)),
        (0, 0, 2): Coeff(Fraction(1), Fraction(-2), 7),
    })
    assert GradedPolynomial.from_json(p.to_json()) == p


def _json_conic(**changes):
    doc = {"weights": [1, 1, 1], "degree": 2,
           "terms": [{"exps": [1, 1, 0], "coeff": "-3/4"},
                     {"exps": [0, 0, 2], "coeff": "1"}]}
    doc.update(changes)
    return doc


def _json_term(**fields):
    return _json_conic(terms=[{"exps": [1, 1, 0], "coeff": "1", **fields}])


@pytest.mark.parametrize("doc, message", [
    (_json_conic(weights=[1, True, 1]), "weights [1, True, 1] are not"),
    (_json_conic(weights=[1, 0, 1]), "weights [1, 0, 1] are not"),
    (_json_conic(weights=[2]), "weights [2] are not"),
    (_json_conic(weights="111"), "weights '111' are not"),
    (_json_conic(degree=2.0), "degree 2.0 is not"),
    (_json_conic(degree=-2), "degree -2 is not"),
    (_json_term(exps=[1, 1]), "exponents [1, 1] are not 3"),
    (_json_term(exps=[1, 1, False]), "exponents [1, 1, False] are not 3"),
    (_json_term(exps=[2, 0.0, 0]), "exponents [2, 0.0, 0] are not 3"),
    (_json_term(coeff=1), "coeff 1 is not an integer or a fraction"),
    (_json_term(coeff=" 1"), "coeff ' 1' is not an integer or a fraction"),
    (_json_term(coeff="1.5"), "coeff '1.5' is not an integer or a fraction"),
    (_json_term(coeff="\u0661"), "coeff '\u0661' is not an integer or a fraction"),
    (_json_term(coeff="3/00"), "coeff '3/00' has a zero denominator"),
    (_json_term(radical="2/-3", radicand=2), "radical '2/-3' is not"),
    (_json_term(radical="1", radicand=2.0), "radicand 2.0 is not an integer"),
])
def test_from_json_refuses_what_the_schema_refuses(doc, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        GradedPolynomial.from_json(doc)


def test_from_json_needs_a_coefficient_per_term():
    # a term without "coeff" was once read as a zero term and dropped
    doc = _json_conic()
    del doc["terms"][1]["coeff"]
    with pytest.raises(KeyError):
        GradedPolynomial.from_json(doc)


def test_from_json_reads_what_the_schema_allows():
    p = GradedPolynomial.from_json(_json_conic())
    assert p.coefficient((1, 1, 0)) == Coeff(Fraction(-3, 4))
    q = GradedPolynomial.from_json(_json_term(coeff="-0", radical="6/4", radicand=-7))
    assert q.coefficient((1, 1, 0)) == Coeff(Fraction(0), Fraction(3, 2), -7)
