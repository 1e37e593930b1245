"""Sparse quasi-homogeneous polynomials with exact coefficients.

Coefficients live in Q or in a quadratic extension Q(sqrt(m)) with m a
square-free integer; one square root is all the normal form construction ever
needs.  A `GradedPolynomial` stores one form, integer numerators over its least
common denominator with a radicand per term, and every operation builds that
table directly: `_mul_into` is the one product kernel, which `poly_mul`,
`scale`, and the powers and terms of `substitute` go through.  Only this
module reads the table.  `Coeff` values are made at the edges: `coefficient`,
the read-only `terms` view, JSON, and a caller's own arithmetic on the
coefficients it reads (the pivots of `cylinder.normal_form`).

The representability helpers (`representable`, `eligible_partners`) answer
"does a monomial of weighted degree d supported on an index set exist", which
is the arithmetic core of the quasi-smoothness criteria of Iano-Fletcher
("Working with weighted complete intersections", Thm 8.1 / 8.7).  That is
numerical-semigroup membership, and `semigroup_mask` is its one DP, read by
`eligible_partners`, by the quasi-smoothness scan of `wci` (through
`wci._cached_mask`), and by `monomials_of_degree`, which enters only the
branches its suffix masks can still complete; `representable` takes the
first monomial of that walk.
"""

from __future__ import annotations

import random
import re
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd, isqrt, lcm
from operator import add, mul
from typing import Optional

from .record import Record, setfield

# Largest |n| whose square-free part is computed: the square root of a
# rational refuses |numerator * denominator| above it, and so does a JSON
# radicand.  Trial division to the cube root takes at most 0.8 ms below it
# (a prime near 10^12; 2-vCPU x86-64, CPython 3.11), once per distinct value
# while it stays cached; by division to the square root, a discriminant near
# 10^24 ran for over 20 s.
RADICAND_CAP = 10**12

# A coefficient string of polynomial.schema.json: an integer or a fraction.
_RATIONAL = re.compile(r"-?[0-9]+(?:/([0-9]+))?")


@lru_cache(maxsize=1024)
def _squarefree_split(n: int) -> tuple[int, int]:
    """n = u**2 * m with m square-free (sign kept on m); returns (u, m).
    |n| above RADICAND_CAP raises ValueError."""
    if abs(n) > RADICAND_CAP:
        raise ValueError(f"radicand of magnitude above {RADICAND_CAP} refused")
    if n == 0:
        return 0, 1
    u, m, rest, p = 1, 1, abs(n), 2
    # divide out the primes up to the cube root of what is left: the rest then
    # has at most two prime factors, so it is a square or square-free
    while p * p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        u *= p ** (e // 2)
        m *= p ** (e % 2)
        p += 1 if p == 2 else 2
    root = isqrt(rest)
    if root * root == rest:
        u *= root
    else:
        m *= rest
    return u, m if n > 0 else -m


class Coeff(Record):
    """Element base + rad*sqrt(m) of Q(sqrt(m)), m square-free."""

    def __init__(self, base: Fraction, rad: Fraction = Fraction(0), m: int = 1):
        if m == 1 and rad != 0:
            # sqrt(1) collapses into the rational part
            base, rad = base + rad, Fraction(0)
        if rad == 0 and m != 1:
            m = 1
        setfield(self, "base", base)
        setfield(self, "rad", rad)
        setfield(self, "m", m)

    @classmethod
    def of(cls, value) -> "Coeff":
        if isinstance(value, Coeff):
            return value
        return cls(Fraction(value))

    @classmethod
    def sqrt_of(cls, value) -> "Coeff":
        """A square root of a rational, with square-free radicand; ValueError
        when |numerator * denominator| exceeds RADICAND_CAP."""
        r = Fraction(value)
        if r == 0:
            return cls(Fraction(0))
        u, m = _squarefree_split(r.numerator * r.denominator)
        if m == 1:
            return cls(Fraction(u, r.denominator))
        return cls(Fraction(0), Fraction(u, r.denominator), m)

    @property
    def is_zero(self) -> bool:
        return self.base == 0 and self.rad == 0

    @property
    def is_rational(self) -> bool:
        return self.rad == 0

    def _join(self, other: "Coeff") -> int:
        if self.m != 1 and other.m != 1 and self.m != other.m:
            raise ValueError(f"incompatible radicands {self.m} and {other.m}")
        return self.m if self.m != 1 else other.m

    def __add__(self, other) -> "Coeff":
        other = Coeff.of(other)
        if not (self.rad or other.rad):
            return Coeff(self.base + other.base)
        return Coeff(self.base + other.base, self.rad + other.rad, self._join(other))

    def __neg__(self) -> "Coeff":
        return Coeff(-self.base, -self.rad, self.m)

    def __sub__(self, other) -> "Coeff":
        return self + (-Coeff.of(other))

    def __mul__(self, other) -> "Coeff":
        other = Coeff.of(other)
        if not (self.rad or other.rad):
            return Coeff(self.base * other.base)
        m = self._join(other)
        return Coeff(self.base * other.base + self.rad * other.rad * m,
                     self.base * other.rad + self.rad * other.base, m)

    def inverse(self) -> "Coeff":
        if self.is_zero:
            raise ZeroDivisionError("coefficient is zero")
        norm = self.base * self.base - self.rad * self.rad * self.m
        if norm == 0:
            raise ZeroDivisionError("zero divisor in degenerate extension")
        return Coeff(self.base / norm, -self.rad / norm, self.m)

    def __truediv__(self, other) -> "Coeff":
        return self * Coeff.of(other).inverse()

    def to_json(self) -> dict:
        return {"coeff": str(self.base), "radical": str(self.rad), "radicand": self.m}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Coeff":
        """ValueError for a radicand that is not a square-free integer (0, 4,
        -4, 8, ...) and for a coefficient string that is not an integer or a
        fraction of nonzero denominator; KeyError without a "coeff"."""
        m = obj.get("radicand", 1)
        if type(m) is not int:
            raise ValueError(f"radicand {m!r} is not an integer")
        if _squarefree_split(m) != (1, m):
            raise ValueError(f"radicand {m} is not square-free")
        return cls(_rational(obj["coeff"], "coeff"),
                   _rational(obj.get("radical", "0"), "radical"), m)


def _rational(text, key: str) -> Fraction:
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"{key} {text!r} is not an integer or a fraction")
    if match[1] is not None and int(match[1]) == 0:
        raise ValueError(f"{key} {text!r} has a zero denominator")
    return Fraction(text)


ZERO, ONE = Coeff(Fraction(0)), Coeff(Fraction(1))


def weighted_degree(exponents: Sequence[int], weights: Sequence[int]) -> int:
    """Weighted degree sum(e_i * a_i) of an exponent vector."""
    if len(exponents) != len(weights):
        raise ValueError("exponent/weight length mismatch")
    return sum(map(mul, exponents, weights))


class GradedPolynomial:
    """Quasi-homogeneous polynomial over fixed weights, stored sparsely as
    integer numerators over one denominator: x^e has the coefficient
    (a + b*sqrt(m))/D for table[e] = (a, b, m), with D > 0 the least common
    denominator (gcd of D and every numerator is 1), no zero term, and m = 1
    where b == 0.  Terms over two radicands may coexist until a product or a
    sum meets both radicals, which raises ValueError."""

    __slots__ = ("weights", "degree", "D", "table")

    def __init__(self, weights: Sequence[int], degree: int,
                 terms: Mapping[tuple, Coeff] | Iterable[tuple]):
        """From (exps, coefficient) pairs or a mapping; a repeated exponent
        adds up, and a nonzero term off the degree raises ValueError."""
        self.weights = tuple(int(a) for a in weights)
        self.degree = int(degree)
        rows = [(tuple(map(int, exps)), Coeff.of(coeff)) for exps, coeff in
                (terms.items() if isinstance(terms, Mapping) else terms)]
        for exps, coeff in rows:
            if not coeff.is_zero and weighted_degree(exps, self.weights) != self.degree:
                raise ValueError(f"term {exps} breaks quasi-homogeneity of degree {self.degree}")
        D = lcm(*(f.denominator for _, c in rows for f in (c.base, c.rad)))
        least = GradedPolynomial._over(self.weights, self.degree, D, _merge({}, (
            (e, c.base.numerator * D // c.base.denominator,
             c.rad.numerator * D // c.rad.denominator, c.m) for e, c in rows)))
        self.D, self.table = least.D, least.table

    @classmethod
    def _over(cls, weights: tuple, degree: int, D: int, table: dict) -> "GradedPolynomial":
        """The polynomial of `table` (no zero term) over D, divided through by
        the gcd of D and every numerator."""
        g = gcd(D, *(x for a, b, _ in table.values() for x in (a, b)))
        if g != 1:
            D //= g
            table = {e: (a // g, b // g, m) for e, (a, b, m) in table.items()}
        p = object.__new__(cls)
        p.weights, p.degree, p.D, p.table = weights, degree, D, table
        return p

    @property
    def nvars(self) -> int:
        return len(self.weights)

    @property
    def terms(self) -> Mapping[tuple, Coeff]:
        """Read-only view exps -> Coeff; a `Coeff` is made per value read."""
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.table

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(exps), ZERO)

    def radicands(self) -> list[int]:
        """The radicands of the irrational coefficients, ascending."""
        return sorted({m for _, b, m in self.table.values() if b})

    def involves(self, i: int) -> bool:
        return any(e[i] for e in self.table)

    def quotient(self, k: int, keep: Callable[[tuple], bool]) -> "GradedPolynomial":
        """The sum of c * x^e / x_k over the terms c * x^e with e_k >= 1 for
        which keep(e) holds, of degree `degree - weights[k]`."""
        return GradedPolynomial._over(
            self.weights, self.degree - self.weights[k], self.D,
            {e[:k] + (e[k] - 1,) + e[k + 1:]: t
             for e, t in self.table.items() if e[k] and keep(e)})

    def scale(self, factor) -> "GradedPolynomial":
        """factor * self, through the product kernel."""
        return poly_mul(self, GradedPolynomial(self.weights, 0, {(0,) * self.nvars: factor}))

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self - other.scale(-1)

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        if self.weights != other.weights or self.degree != other.degree:
            raise ValueError("cannot add polynomials of different grading")
        D = lcm(self.D, other.D)
        s, t = D // self.D, D // other.D
        table = {e: (a * s, b * s, m) for e, (a, b, m) in self.table.items()}
        _merge(table, ((e, -a * t, -b * t, m) for e, (a, b, m) in other.table.items()))
        return GradedPolynomial._over(self.weights, self.degree, D, table)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedPolynomial)
                and self.weights == other.weights
                and self.degree == other.degree
                and self.D == other.D
                and self.table == other.table)

    def __hash__(self):
        return hash((self.weights, self.degree, self.D, frozenset(self.table.items())))

    def to_json(self) -> dict:
        terms = self.terms
        return {
            "weights": list(self.weights),
            "degree": self.degree,
            "terms": [dict(exps=list(e), **terms[e].to_json()) for e in sorted(terms)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "GradedPolynomial":
        """ValueError for what polynomial.schema.json refuses: weights that
        are not at least two positive integers, a degree that is not a
        non-negative integer, exponents that are not one non-negative integer
        per weight, or a refused coefficient."""
        weights, degree = obj["weights"], obj["degree"]
        if not (_naturals(weights, 1) and len(weights) >= 2):
            raise ValueError(f"weights {weights!r} are not at least two "
                             "positive integers")
        if not _naturals([degree], 0):
            raise ValueError(f"degree {degree!r} is not a non-negative integer")
        terms = {}
        for t in obj["terms"]:
            exps = t["exps"]
            if not (_naturals(exps, 0) and len(exps) == len(weights)):
                raise ValueError(f"exponents {exps!r} are not {len(weights)} "
                                 "non-negative integers")
            terms[tuple(exps)] = Coeff.from_json(t)
        return cls(weights, degree, terms)


def _naturals(values, least: int) -> bool:
    """Whether `values` is a JSON array of integers >= least (no bool)."""
    return (isinstance(values, list)
            and all(type(v) is int and v >= least for v in values))


class _Terms(Mapping):
    """The `terms` view: its keys and length read the table alone."""

    def __init__(self, poly: GradedPolynomial):
        self._poly = poly

    def __getitem__(self, exps) -> Coeff:
        a, b, m = self._poly.table[exps]
        return Coeff(Fraction(a, self._poly.D), Fraction(b, self._poly.D), m)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._poly.table)

    def __len__(self) -> int:
        return len(self._poly.table)


def _merge(table: dict, rows: Iterable[tuple]) -> dict:
    """Add each term (exps, a, b, m) of `rows` into `table`, the table form of
    `GradedPolynomial` over one denominator, keeping its invariants."""
    for e, a, b, m in rows:
        old = table.get(e)
        if old is not None:
            oa, ob, om = old
            if ob and b and om != m:
                raise ValueError(f"incompatible radicands {om} and {m}")
            a, b, m = a + oa, b + ob, om if ob else m
        if a or b:
            table[e] = (a, b, m if b else 1)
        elif old is not None:
            del table[e]
    return table


def _mul_into(table: dict, left: Mapping, right: Mapping) -> dict:
    """The one product kernel: merge each product of a `left` and a `right`
    term into `table`, all three tables of `GradedPolynomial` form."""
    def products():
        for e1, (a1, b1, m1) in left.items():
            for e2, (a2, b2, m2) in right.items():
                if b1 and b2 and m1 != m2:
                    raise ValueError(f"incompatible radicands {m1} and {m2}")
                yield (tuple(map(add, e1, e2)), a1 * a2 + b1 * b2 * m1,
                       a1 * b2 + b1 * a2, m1 if b1 else m2)
    return _merge(table, products())


def poly_mul(p: GradedPolynomial, q: GradedPolynomial) -> GradedPolynomial:
    """Product of two graded polynomials (degrees add)."""
    if p.weights != q.weights:
        raise ValueError("weight mismatch")
    return GradedPolynomial._over(p.weights, p.degree + q.degree, p.D * q.D,
                                  _mul_into({}, p.table, q.table))


# ---------------------------------------------------------------------------
# representability (numerical-semigroup membership with witnesses)
# ---------------------------------------------------------------------------

def semigroup_mask(gens: Sequence[int], limit: int) -> int:
    """Bitmask whose bit d says that d is a nonnegative combination of gens.

    Classic coin-problem DP packed into a Python integer; bit 0 (the empty
    combination) is always set.  This is the one membership DP of the package.
    Each generator is closed over by doubling: after the shifts by a, 2a, ...,
    2^k a the mask holds every sum with up to 2^(k+1) - 1 copies of a, so
    O(log(limit / a)) shift-ors per generator reach every multiple <= limit.
    """
    full = (1 << (limit + 1)) - 1
    mask = 1
    for a in gens:
        if a <= 0:
            raise ValueError("generators must be positive")
        shift = a
        while shift <= limit:
            mask |= (mask << shift) & full
            shift <<= 1
    return mask


def representable(weights: Sequence[int], subset: Iterable[int], d: int) -> Optional[tuple]:
    """Lexicographically smallest monomial on `subset` of weighted degree d:
    the first of `monomials_of_degree` on the subset's weights.

    Returns an exponent tuple of full length (zeros off the subset), or None
    when no nonnegative combination of the selected weights reaches d.
    """
    idx = sorted(set(subset))
    if any(i < 0 or i >= len(weights) for i in idx):
        raise ValueError("subset index out of range")
    first = next(monomials_of_degree([weights[i] for i in idx], d), None)
    if first is None:
        return None
    exps = [0] * len(weights)
    for i, e in zip(idx, first):
        exps[i] = e
    return tuple(exps)


def eligible_partners(weights: Sequence[int], subset: Iterable[int], d: int) -> tuple[int, ...]:
    """Indices e outside `subset` admitting a monomial (on the subset) of
    degree d - a_e; degree 0 counts via the empty monomial."""
    if d < 0:
        return ()
    inside = set(subset)
    if any(i < 0 or i >= len(weights) for i in inside):
        raise ValueError("subset index out of range")
    mask = semigroup_mask([weights[i] for i in sorted(inside)], d)
    return tuple(e for e, a in enumerate(weights)
                 if e not in inside and a <= d and (mask >> (d - a)) & 1)


# ---------------------------------------------------------------------------
# substitution and generic members
# ---------------------------------------------------------------------------

# term products one substitution may make, in its powers of the replacement
# and in their products with the terms of p: the powers are kept up to the
# largest exponent of the substituted variable, so their work and memory
# grow with its square, which no input cap bounds
SUBSTITUTE_TERM_CAP = 1_000_000


def _charge(work: int, products: int) -> int:
    """work + products, refused with ValueError beyond SUBSTITUTE_TERM_CAP;
    called before the products are made."""
    work += products
    if work > SUBSTITUTE_TERM_CAP:
        raise ValueError("substitution needs more than "
                         f"{SUBSTITUTE_TERM_CAP} term products")
    return work


def substitute(p: GradedPolynomial, i: int, replacement: GradedPolynomial) -> GradedPolynomial:
    """Substitute x_i <- replacement, a graded coordinate change.

    The replacement must be quasi-homogeneous of degree equal to the weight of
    x_i, and must either avoid x_i entirely or have the triangular shape
    x_i + (terms free of x_i), so that the change is invertible.  More than
    SUBSTITUTE_TERM_CAP term products raise ValueError before they are made.
    """
    if replacement.weights != p.weights:
        raise ValueError("ungraded substitution: weight vectors differ")
    if replacement.degree != p.weights[i]:
        raise ValueError("ungraded substitution: replacement degree "
                         f"{replacement.degree} != weight {p.weights[i]}")
    unit = tuple(int(k == i) for k in range(p.nvars))
    tp, dr, tr = p.table, replacement.D, replacement.table
    if replacement.involves(i) and (replacement.coefficient(unit) != ONE
                                    or any(e[i] for e in tr if e != unit)):
        raise ValueError("replacement must avoid the variable or be "
                         "x_i plus terms without it")

    top = max((e[i] for e in tp), default=0)
    # The k-th power of x_i + R with R != 0 has at least k + 1 terms, one per
    # power of x_i, and a nonzero replacement free of x_i at least one: so a
    # lower bound of the count is known, and refused, before any power is built
    grow = int(len(tr) > 1 and any(e[i] for e in tr))
    least = len(tr) * (top + grow * top * (top - 1) // 2)
    _charge(least, sum(1 + grow * e[i] if tr or not e[i] else 0 for e in tp))
    # powers[k] is replacement**k over dr**k; each term goes over D * dr**top.
    # The powers are built and every product is counted first, since a term's
    # scale dr**(top - e_i) can be as long as dr**top
    powers = [{(0,) * p.nvars: (1, 0, 1)}]
    work = 0
    while len(powers) <= top:
        work = _charge(work, len(powers[-1]) * len(tr))
        powers.append(_mul_into({}, powers[-1], tr))
    work = _charge(work, sum(len(powers[e[i]]) for e in tp))
    table: dict = {}
    for exps, (a, b, m) in tp.items():
        e_i = exps[i]
        scale = dr ** (top - e_i)
        stripped = exps[:i] + (0,) + exps[i + 1:]
        _mul_into(table, {stripped: (a * scale, b * scale, m)}, powers[e_i])
    return GradedPolynomial._over(p.weights, p.degree, p.D * dr ** top, table)


def monomials_of_degree(weights: Sequence[int], d: int) -> Iterator[tuple]:
    """All exponent tuples of weighted degree d, in lexicographic order.

    The walk enters only branches whose remainder the later weights still
    reach (a bit of each suffix's `semigroup_mask`), and finds them as the
    set bits of one mask, so every branch it visits ends in a monomial and
    a consumer that stops after k monomials bounds the work."""
    if d < 0:
        return
    n = len(weights)
    reach = [semigroup_mask(weights[pos:], d) for pos in range(n + 1)]
    # the multiples of each weight up to d
    steps = [semigroup_mask((a,), d) for a in weights[:-1]]

    def rec(pos: int, remaining: int, prefix: tuple):
        if pos == n:
            yield prefix
            return
        a = weights[pos]
        if pos == n - 1:
            yield from rec(n, 0, prefix + (remaining // a,))
            return
        # the remainders r = remaining - e * a that the later weights reach,
        # e ascending: the set bits of one mask, highest first
        left = reach[pos + 1] & steps[pos] << remaining % a & (2 << remaining) - 1
        while left:
            r = left.bit_length() - 1
            left ^= 1 << r
            yield from rec(pos + 1, r, prefix + ((remaining - r) // a,))

    if (reach[0] >> d) & 1:
        yield from rec(0, d, ())


GENERIC_TERM_CAP = 200_000


def generic_member(weights: Sequence[int], d: int, seed: int) -> GradedPolynomial:
    """A pseudo-generic member of the degree-d linear system: every monomial
    of weighted degree d appears, with a nonzero rational coefficient drawn
    deterministically from the seed.  Over GENERIC_TERM_CAP monomials raise
    ValueError after at most one more of them, before any coefficient."""
    if d < 1:
        raise ValueError("degree must be positive")
    monomials = list(islice(monomials_of_degree(weights, d), GENERIC_TERM_CAP + 1))
    if len(monomials) > GENERIC_TERM_CAP:
        raise ValueError(f"monomial count exceeds cap {GENERIC_TERM_CAP}")
    rng = random.Random((seed, tuple(weights), d).__repr__())
    # each coefficient num/den has den in 1..4, so all lie over 12
    table = {}
    for exps in monomials:
        num = rng.randrange(1, 10) * (1 if rng.randrange(2) else -1)
        table[exps] = (num * 12 // rng.randrange(1, 5), 0, 1)
    return GradedPolynomial._over(tuple(map(int, weights)), d, 12, table)
