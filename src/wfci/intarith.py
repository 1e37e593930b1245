"""Exact integer arithmetic: gcd/lcm batteries, Bezout coefficients and
unimodular completion of primitive integer vectors.

Everything here works with Python's arbitrary-precision integers, so there is
no overflow failure mode anywhere downstream.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def gcd_many(values: Sequence[int]) -> int:
    """Greatest common divisor of a nonempty list of positive integers."""
    if not values:
        raise ValueError("empty input")
    if any(v < 1 for v in values):
        raise ValueError("values must be positive")
    return gcd(*values)


def lcm_many(values: Sequence[int]) -> int:
    """Least common multiple of a nonempty list of positive integers."""
    if not values:
        raise ValueError("empty input")
    if any(v < 1 for v in values):
        raise ValueError("values must be positive")
    return lcm(*values)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of a positive integer by trial division, as
    (prime, exponent) pairs in ascending order of the prime."""
    if n < 1:
        raise ValueError("value must be positive")
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def bezout(values: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Bezout coefficients by a left fold of extended Euclid.

    Returns (g, coeffs) with sum(values[i] * coeffs[i]) == g == gcd_many(values).
    The coefficients are the ones produced by the fold; no minimality is
    promised beyond determinism.
    """
    if not values:
        raise ValueError("empty input")
    if any(v < 1 for v in values):
        raise ValueError("values must be positive")
    g = values[0]
    coeffs = [1]
    for v in values[1:]:
        g2, x, y = ext_gcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, tuple(coeffs)


def mat_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix not square")
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def mat_inverse_unimodular(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Inverse of an integer matrix with determinant +-1 (again integral)."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    out = []
    for row in aug:
        tail = row[n:]
        if any(x.denominator != 1 for x in tail):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in tail))
    return tuple(out)


def is_primitive(vector: Sequence[int]) -> bool:
    """True when the entries are not all zero and their gcd is 1."""
    return gcd(*vector) == 1


def unimodular_complete(vector: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Complete a primitive integer vector to a square matrix of determinant +-1.

    The first row of the result equals the input.  Construction is the usual
    Hermite-style induction: complete the primitive prefix, then glue a last
    row built from a Bezout relation between the prefix gcd and the last entry.
    """
    vec = tuple(int(v) for v in vector)
    if not vec:
        raise ValueError("empty input")
    if not is_primitive(vec):
        raise ValueError("vector not primitive")
    return _complete(vec)


def _complete(vec: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    n = len(vec)
    if n == 1:
        return ((vec[0],),)  # primitive scalar is +-1
    head, last = vec[:-1], vec[-1]
    g = gcd(*head)
    if g == 0:
        # all leading entries vanish, so the last one is +-1
        rows = [vec]
        for k in range(n - 1):
            rows.append(tuple(int(j == k) for j in range(n)))
        return tuple(rows)
    reduced = tuple(v // g for v in head)
    inner = _complete(reduced)
    _, alpha, beta = ext_gcd(g, last)  # alpha*g + beta*last == 1
    rows = [vec]
    for row in inner[1:]:
        rows.append(row + (0,))
    rows.append(tuple(-beta * w for w in reduced) + (alpha,))
    result = tuple(rows)
    assert abs(mat_det(result)) == 1
    return result
