"""Independent brute-force oracles used to validate the library's fast paths.

These deliberately avoid the residue-DP / counting shortcuts of the package:
monomial existence is decided by depth-first exponent search, partner
distinctness by literal subset search, and intersection numbers by lattice
point counting with finite differences.  Polynomial products and graded
substitutions are expanded literally, term by term, in `Coeff` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import gcd

from wfci.poly import Coeff

_dfs_memo: dict[tuple, bool] = {}


def dfs_representable(gens: tuple[int, ...], target: int) -> bool:
    """Exists a nonnegative combination of gens summing to target (DFS)."""
    if target == 0:
        return True
    if target < 0 or not gens:
        return False
    key = (tuple(sorted(gens)), target)
    hit = _dfs_memo.get(key)
    if hit is not None:
        return hit
    g = 0
    for a in gens:
        g = gcd(g, a)
    if target % g:
        _dfs_memo[key] = False
        return False
    head, tail = gens[0], gens[1:]
    result = False
    for e in range(target // head, -1, -1):
        if dfs_representable(tail, target - e * head):
            result = True
            break
    _dfs_memo[key] = result
    return result


def brute_monomial_on(ws, subset, d) -> bool:
    return dfs_representable(tuple(ws[i] for i in subset), d)


def brute_partners(ws, subset, d) -> set[int]:
    """Indices e outside the subset with a monomial (subset-supported) * x_e."""
    inside = set(subset)
    out = set()
    for e in range(len(ws)):
        if e in inside:
            continue
        if d - ws[e] >= 0 and brute_monomial_on(ws, subset, d - ws[e]):
            out.add(e)
    return out


def brute_qs_hypersurface(ws: tuple[int, ...], d: int) -> bool:
    """Literal general-hypersurface quasi-smoothness check: every nonempty
    subset has a degree-d monomial, or |subset| distinct outside partners."""
    n1 = len(ws)
    for k in range(1, n1 + 1):
        for subset in combinations(range(n1), k):
            if brute_monomial_on(ws, subset, d):
                continue
            partners = brute_partners(ws, subset, d)
            # literal distinctness: choose k distinct partner indices
            if not any(True for _ in combinations(sorted(partners), k)):
                return False
    return True


def brute_qs_ci2(ws: tuple[int, ...], d1: int, d2: int) -> bool:
    """Literal codimension-2 criterion with explicit subset searches for the
    distinct-partner clauses."""
    n1 = len(ws)
    for k in range(1, n1 + 1):
        for subset in combinations(range(n1), k):
            has1 = brute_monomial_on(ws, subset, d1)
            has2 = brute_monomial_on(ws, subset, d2)
            if has1 and has2:
                continue
            e1 = sorted(brute_partners(ws, subset, d1))
            e2 = sorted(brute_partners(ws, subset, d2))
            if has1 and any(True for _ in combinations(e2, k - 1)):
                continue
            if has2 and any(True for _ in combinations(e1, k - 1)):
                continue
            ok = any(len(set(s1) | set(s2)) >= k + 1
                     for s1 in combinations(e1, k)
                     for s2 in combinations(e2, k))
            if not ok:
                return False
    return True


def literal_pair(ws, d):
    """First index pair i < j, in combinations order, with a_i + a_j = d;
    None when the degree is no sum of two weights."""
    return next(((i, j) for i, j in combinations(range(len(ws)), 2)
                 if ws[i] + ws[j] == d), None)


def literal_codim3_assignment(ws, ds):
    """First codimension-3 multi-projection assignment, from the definition:
    pivot triples in combinations order; for each, the nine slots (degree j,
    pivot l) degree-major, each ranging over the indices k with
    a_pivot + a_k = d_j, and the first tuple of itertools.product over the
    slots whose twelve indices, pivots included, are all distinct.
    Returns (pivots, partners) with partners[l][j], or None."""
    n1 = len(ws)
    for pivots in combinations(range(n1), 3):
        slots = [[k for k in range(n1) if ws[p] + ws[k] == d]
                 for d in ds for p in pivots]
        for flat in product(*slots):
            if len(set(pivots + flat)) == 12:
                return pivots, tuple(flat[l::3] for l in range(3))
    return None


def hilbert_dim(weights, m: int) -> int:
    """Number of monomials of weighted degree m (plain coin-count DP)."""
    table = [0] * (m + 1)
    table[0] = 1
    for a in weights:
        for s in range(a, m + 1):
            table[s] += table[s - a]
    return table[m]


def hilbert_dims_upto(weights, bound: int) -> list[int]:
    table = [0] * (bound + 1)
    table[0] = 1
    for a in weights:
        for s in range(a, bound + 1):
            table[s] += table[s - a]
    return table


def lattice_degree(weights, degrees) -> Fraction:
    """Self-intersection (O(1))^dim of the complete intersection, computed by
    lattice-point counting + finite differences, never by the product formula.

    The Koszul resolution of a regular sequence gives the member's Hilbert
    function as an alternating sum of ambient counts; summing it over full
    periods L = lcm(weights) makes an eventually-polynomial function of the
    period count whose top finite difference is (value) * L^(dim+1).
    """
    m = len(weights) - 1 - len(degrees)
    L = 1
    for a in weights:
        L = L * a // gcd(L, a)
    points = m + 6
    bound = L * points
    ambient = hilbert_dims_upto(weights, bound)

    def member_dim(s: int) -> int:
        total = 0
        for r in range(len(degrees) + 1):
            for sub in combinations(degrees, r):
                shift = s - sum(sub)
                if shift >= 0:
                    total += (-1) ** r * ambient[shift]
        return total

    cumulative = [0]
    acc = 0
    for s in range(bound):
        acc += member_dim(s)
        if (s + 1) % L == 0:
            cumulative.append(acc)
    diffs = [Fraction(x) for x in cumulative]
    for _ in range(m + 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    assert diffs[-1] == diffs[-2], "finite differences did not stabilize"
    return diffs[-1] / L ** (m + 1)


def literal_product(p_terms: dict, q_terms: dict) -> dict:
    """Product of two {exps: Coeff} term dicts, multiplied out term by term."""
    out: dict = {}
    for e1, c1 in p_terms.items():
        for e2, c2 in q_terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero}


def literal_substitute(p_terms: dict, i: int, r_terms: dict, nvars: int) -> dict:
    """x_i <- r in a {exps: Coeff} term dict: each term c * x^e becomes
    c * x^(e with e_i = 0) * r^e_i, the power multiplied out afresh per term."""
    out: dict = {}
    for e, c in p_terms.items():
        power = {(0,) * nvars: Coeff(Fraction(1))}
        for _ in range(e[i]):
            power = literal_product(power, r_terms)
        stripped = tuple(0 if k == i else x for k, x in enumerate(e))
        for key, value in literal_product({stripped: c}, power).items():
            out[key] = out[key] + value if key in out else value
    return {e: c for e, c in out.items() if not c.is_zero}


def literal_replay(terms: dict, ops, nvars: int) -> dict:
    """A normal form's change sequence replayed on a {exps: Coeff} term dict:
    each substitution by `literal_substitute`, the rescale term by term."""
    for op in ops:
        if op.kind == "substitute":
            terms = literal_substitute(terms, op.var, dict(op.replacement.terms), nvars)
        else:
            terms = {e: c * op.factor for e, c in terms.items()}
    return terms
