"""Sparse quasi-homogeneous polynomials with exact coefficients.

Coefficients live in Q or in a single real/imaginary quadratic extension
Q(sqrt(m)) with m a square-free integer; one square root is all the normal
form construction ever needs.  A polynomial keeps `Coeff` values in a dict
keyed by exponent tuples; products and substitutions run on its integral
form, integer numerators over a common denominator (`_integral`), through
`_mul_into`, the one product kernel, and `_substitute_integral`, the one
substitution body.  `poly_mul` and `substitute` reduce to `Coeff` once per
output term; the normal form of `cylinder` keeps the integral form through
all of its changes, over the least denominator (`_reduced`) after each.

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
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from operator import add, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .intarith import factorize
from .record import Record, setfield


def _squarefree_split(n: int) -> tuple[int, int]:
    """n = u**2 * m with m square-free (sign kept on m); returns (u, m)."""
    if n == 0:
        return 0, 1
    u, m = 1, 1
    for p, e in factorize(abs(n)):
        u *= p ** (e // 2)
        if e % 2:
            m *= p
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
        """A square root of a nonzero rational, with square-free radicand."""
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

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.base)
        rad = f"{self.rad}*sqrt({self.m})"
        if self.base == 0:
            return rad
        return f"{self.base} + {rad}"

    def to_json(self) -> dict:
        return {"coeff": str(self.base), "radical": str(self.rad), "radicand": self.m}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Coeff":
        return cls(Fraction(obj.get("coeff", "0")),
                   Fraction(obj.get("radical", "0")),
                   int(obj.get("radicand", 1)))


ONE = Coeff(Fraction(1))


def weighted_degree(exponents: Sequence[int], weights: Sequence[int]) -> int:
    """Weighted degree sum(e_i * a_i) of an exponent vector."""
    if len(exponents) != len(weights):
        raise ValueError("exponent/weight length mismatch")
    return sum(map(mul, exponents, weights))


class GradedPolynomial:
    """Quasi-homogeneous polynomial over fixed weights, stored sparsely."""

    __slots__ = ("weights", "degree", "terms")

    def __init__(self, weights: Sequence[int], degree: int,
                 terms: Mapping[tuple, Coeff] | Iterable[tuple]):
        self.weights = tuple(int(a) for a in weights)
        self.degree = int(degree)
        items = terms.items() if isinstance(terms, Mapping) else terms
        table: dict[tuple, Coeff] = {}
        for exps, coeff in items:
            coeff = Coeff.of(coeff)
            if coeff.is_zero:
                continue
            exps = tuple(map(int, exps))
            acc = table.get(exps)
            if acc is None:
                # a new exponent; a repeated one has passed this check
                if weighted_degree(exps, self.weights) != self.degree:
                    raise ValueError(f"term {exps} breaks quasi-homogeneity of degree {self.degree}")
                table[exps] = coeff
                continue
            coeff = acc + coeff
            if coeff.is_zero:
                del table[exps]
            else:
                table[exps] = coeff
        self.terms = table

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self.terms.get(tuple(exps), Coeff(Fraction(0)))

    def involves(self, i: int) -> bool:
        return any(e[i] for e in self.terms)

    def scale(self, factor) -> "GradedPolynomial":
        factor = Coeff.of(factor)
        return GradedPolynomial(
            self.weights, self.degree,
            {e: c * factor for e, c in self.terms.items()})

    def __add__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        if self.weights != other.weights or self.degree != other.degree:
            raise ValueError("cannot add polynomials of different grading")
        return GradedPolynomial(self.weights, self.degree,
                                chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "GradedPolynomial") -> "GradedPolynomial":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GradedPolynomial)
                and self.weights == other.weights
                and self.degree == other.degree
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.weights, self.degree, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms):
            factors = [f"x{i}^{e}" if e > 1 else f"x{i}"
                       for i, e in enumerate(exps) if e]
            mono = "*".join(factors) if factors else "1"
            c = self.terms[exps]
            parts.append(mono if c == ONE else f"({c})*{mono}")
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "weights": list(self.weights),
            "degree": self.degree,
            "terms": [dict(exps=list(e), **self.terms[e].to_json())
                      for e in sorted(self.terms)],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "GradedPolynomial":
        terms = {tuple(t["exps"]): Coeff.from_json(t) for t in obj["terms"]}
        return cls(obj["weights"], obj["degree"], terms)


def _integral(p: GradedPolynomial) -> tuple[int, dict]:
    """p as (D, {exps: (a, b, m)}), coefficients (a + b*sqrt(m))/D in integers."""
    D = lcm(*(f.denominator for c in p.terms.values() for f in (c.base, c.rad)))
    return D, {e: (c.base.numerator * D // c.base.denominator,
                   c.rad.numerator * D // c.rad.denominator, c.m) for e, c in p.terms.items()}


def _mul_into(table: dict, left: Mapping, right: Mapping) -> dict:
    """The one product kernel: merge each product of a `left` and a `right` term
    into `table`, in the form of `_integral` (m counts only where b != 0)."""
    for e1, (a1, b1, m1) in left.items():
        for e2, (a2, b2, m2) in right.items():
            if b1 and b2 and m1 != m2:
                raise ValueError(f"incompatible radicands {m1} and {m2}")
            a, b, m = a1 * a2 + b1 * b2 * m1, a1 * b2 + b1 * a2, m1 if b1 else m2
            e = tuple(map(add, e1, e2))
            old = table.get(e)
            if old is not None:
                oa, ob, om = old
                if ob and b and om != m:
                    raise ValueError(f"incompatible radicands {om} and {m}")
                a, b, m = a + oa, b + ob, om if ob else m
            if a or b:
                table[e] = (a, b, m)
            elif old is not None:
                del table[e]
    return table


def _reduced(D: int, table: dict) -> tuple[int, dict]:
    """(D, table) over the least denominator: both divided by the gcd of D and
    every numerator, which is what `_integral(_from_integral(...))` gives, in
    the same term order (up to m where b == 0, which no product reads)."""
    g = gcd(D, *(x for a, b, _ in table.values() for x in (a, b)))
    if g == 1:
        return D, table
    return D // g, {e: (a // g, b // g, m) for e, (a, b, m) in table.items()}


def _from_integral(weights, degree, D: int, table: Mapping) -> GradedPolynomial:
    return GradedPolynomial(weights, degree, (
        (e, Coeff(Fraction(a, D), Fraction(b, D), m)) for e, (a, b, m) in table.items()))


def poly_mul(p: GradedPolynomial, q: GradedPolynomial) -> GradedPolynomial:
    """Product of two graded polynomials (degrees add)."""
    if p.weights != q.weights:
        raise ValueError("weight mismatch")
    (dp, tp), (dq, tq) = _integral(p), _integral(q)
    return _from_integral(p.weights, p.degree + q.degree, dp * dq, _mul_into({}, tp, tq))


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
    if replacement.involves(i):
        unit = tuple(int(k == i) for k in range(p.nvars))
        rest = dict(replacement.terms)
        head = rest.pop(unit, None)
        if head != ONE or any(e[i] for e in rest):
            raise ValueError("replacement must avoid the variable or be "
                             "x_i plus terms without it")

    (dp, tp), (dr, tr) = _integral(p), _integral(replacement)
    return _from_integral(p.weights, p.degree, *_substitute_integral(i, dp, tp, dr, tr))


def _substitute_integral(i: int, dp: int, tp: Mapping, dr: int, tr: Mapping) -> tuple[int, dict]:
    """The body of `substitute` on the integral forms (dp, tp) of p and
    (dr, tr) of a replacement of the checked shape; returns the integral
    form of the result, over dp * dr**top (top the largest exponent of x_i)."""
    top = max((e[i] for e in tp), default=0)
    # The k-th power of x_i + R with R != 0 has at least k + 1 terms, one per
    # power of x_i, and a nonzero replacement free of x_i at least one: so a
    # lower bound of the count is known, and refused, before any power is built
    grow = int(len(tr) > 1 and any(e[i] for e in tr))
    least = len(tr) * (top + grow * top * (top - 1) // 2)
    _charge(least, sum(1 + grow * e[i] if tr or not e[i] else 0 for e in tp))
    # powers[k] is replacement**k over dr**k; each term goes over dp * dr**top.
    # The powers are built and every product is counted first, since a term's
    # scale dr**(top - e_i) can be as long as dr**top; powers[0] is the
    # constant 1, whose exponent length only matters when p has a term
    powers = [{(0,) * len(next(iter(tp), ())): (1, 0, 1)}]
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
    return dp * dr ** top, table


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


def generic_member(weights: Sequence[int], d: int, seed: int,
                   cap: int = GENERIC_TERM_CAP) -> GradedPolynomial:
    """A pseudo-generic member of the degree-d linear system: every monomial
    of weighted degree d appears, with a nonzero rational coefficient drawn
    deterministically from the seed.  More than `cap` monomials raise
    ValueError after at most cap + 1 of them, before any coefficient."""
    if d < 1:
        raise ValueError("degree must be positive")
    monomials = list(islice(monomials_of_degree(weights, d), cap + 1))
    if len(monomials) > cap:
        raise ValueError(f"monomial count exceeds cap {cap}")
    rng = random.Random((seed, tuple(weights), d).__repr__())
    table = {}
    for exps in monomials:
        num = rng.randrange(1, 10) * (1 if rng.randrange(2) else -1)
        den = rng.randrange(1, 5)
        table[exps] = Coeff(Fraction(num, den))
    return GradedPolynomial(weights, d, table)
