"""Weighted projective spaces P(a_0,...,a_n) as weight vectors.

Covers the standard reductions (divide out the common factor, then the
Veronese-type reduction to a well-formed representative), the arithmetic
description of the singular locus, the canonical degree, and the explicit
torus charts D_+(x_{i_0}...x_{i_m}) ~ (A^1 \\ {0})^m x A^{n-m} used to produce
anti-canonically polar cylinders.  See Iano-Fletcher, "Working with weighted
complete intersections", sect. 5 for the reductions and the singular locus.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .intarith import (bezout, factorize, gcd_many, lcm_many, mat_det,
                       mat_inverse_unimodular, unimodular_complete)
from .record import Record, setfield


class WeightVector(Record):
    """Positive weights, kept sorted ascending for canonical identity."""

    def __init__(self, weights: tuple[int, ...]):
        ws = tuple(sorted(int(a) for a in weights))
        if len(ws) < 2:
            raise ValueError("need at least two weights")
        if any(a < 1 for a in ws):
            raise ValueError("weights must be positive")
        setfield(self, "weights", ws)

    @classmethod
    def of(cls, weights) -> "WeightVector":
        if isinstance(weights, WeightVector):
            return weights
        return cls(tuple(weights))

    @property
    def n(self) -> int:
        """Dimension of the weighted projective space (= #weights - 1)."""
        return len(self.weights) - 1

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def total(self) -> int:
        return sum(self.weights)

    def __str__(self) -> str:
        return "P(" + ",".join(map(str, self.weights)) + ")"


class NormalizationTrace(Record):
    """Record of the two reduction steps taking weights to a well-formed form.

    After removing the common factor, b_i = a_i / e_i where
    d_i = gcd of the weights omitting a_i and e_i = lcm of the d's omitting d_i.
    """

    def __init__(self, input: WeightVector, common_factor_removed: int,
                 divisors: tuple[int, ...],      # d_i
                 multipliers: tuple[int, ...],   # e_i
                 reduced: tuple[int, ...]):      # b_i = a_i / e_i, in input (sorted) order
        setfield(self, "input", input)
        setfield(self, "common_factor_removed", common_factor_removed)
        setfield(self, "divisors", divisors)
        setfield(self, "multipliers", multipliers)
        setfield(self, "reduced", reduced)

    @property
    def output(self) -> WeightVector:   # the well-formed space
        return WeightVector(self.reduced)


def is_well_formed(w) -> bool:
    """Every n of the n+1 weights are coprime."""
    ws = WeightVector.of(w).weights
    return all(gcd(*ws[:i], *ws[i + 1:]) == 1 for i in range(len(ws)))


def normalize(w) -> NormalizationTrace:
    """Reduce a weight vector to a well-formed representative of the same space."""
    w = WeightVector.of(w)
    g = gcd(*w.weights)
    a = tuple(v // g for v in w.weights)
    divisors = tuple(gcd(*a[:i], *a[i + 1:]) for i in range(len(a)))
    multipliers = tuple(lcm_many(divisors[:i] + divisors[i + 1:]) for i in range(len(a)))
    reduced = []
    for v, e in zip(a, multipliers):
        if v % e:
            raise AssertionError("reduction multiplier does not divide weight")
        reduced.append(v // e)
    trace = NormalizationTrace(w, g, divisors, multipliers, tuple(reduced))
    assert is_well_formed(trace.output)
    return trace


def canonical_degree(w) -> int:
    """Degree of the canonical sheaf O(-sum a_i) of a well-formed space."""
    w = WeightVector.of(w)
    if not is_well_formed(w):
        raise ValueError("normalize first")
    return -w.total()


class SingularStratum(Record):
    """Maximal index subset whose weights share a common factor > 1."""

    def __init__(self, indices: frozenset[int], stratum_gcd: int):
        setfield(self, "indices", indices)
        setfield(self, "stratum_gcd", stratum_gcd)


def singular_strata(w) -> list[SingularStratum]:
    """Maximal strata of the singular locus of a well-formed space.

    The singular locus is the union over subsets I with gcd{a_i : i in I} > 1
    of the corresponding coordinate strata; only maximal subsets are returned,
    the rest being their downward closure.  Empty exactly for ordinary P^n.
    """
    w = WeightVector.of(w)
    if not is_well_formed(w):
        raise ValueError("normalize first")
    primes = {p for a in w.weights for p, _ in factorize(a)}
    candidate_sets = {frozenset(i for i, a in enumerate(w.weights) if a % p == 0)
                      for p in primes}
    candidate_sets.discard(frozenset())
    maximal = [s for s in candidate_sets
               if not any(s < t for t in candidate_sets)]
    strata = [SingularStratum(s, gcd_many(tuple(w.weights[i] for i in sorted(s))))
              for s in maximal]
    strata.sort(key=lambda st: sorted(st.indices))
    return strata


class ChartDescription(Record):
    """Affine chart D_+(prod_{i in I} x_i) ~ (A^1 \\ 0)^m x A^{n-m}.

    Weights are kept in the caller's coordinate order (chart indices refer to
    it).  The exponent matrix is unimodular with first row the Bezout
    coefficients of the selected weights; its inverse realizes the coordinate
    change that sends the monomial prod Y_i^{b_i} to Y_0.
    """

    def __init__(self, weights: tuple[int, ...], chart_subset: tuple[int, ...],
                 exponent_matrix: tuple[tuple[int, ...], ...]):
        setfield(self, "weights", weights)
        setfield(self, "chart_subset", chart_subset)
        setfield(self, "exponent_matrix", exponent_matrix)

    @property
    def torus_rank(self) -> int:   # m
        return len(self.chart_subset) - 1

    @property
    def affine_rank(self) -> int:  # n - m
        return len(self.weights) - len(self.chart_subset)


def torus_chart(w, subset) -> ChartDescription:
    """Chart description over an index subset whose weights are coprime."""
    ws = tuple(int(a) for a in w)
    idx = tuple(sorted(set(subset)))
    if not idx or any(i < 0 or i >= len(ws) for i in idx):
        raise ValueError("bad index subset")
    sel = tuple(ws[i] for i in idx)
    g, coeffs = bezout(sel)
    if g != 1:
        raise ValueError("subset weights not coprime")
    return ChartDescription(ws, idx, unimodular_complete(coeffs))


def chart_relation_holds(chart: ChartDescription) -> bool:
    """Re-check a chart: |det| = 1, first row is a Bezout row, and the inverse
    monomial substitution maps prod Y_i^{b_i} to Y_0."""
    mat = chart.exponent_matrix
    if abs(mat_det(mat)) != 1:
        return False
    sel = [chart.weights[i] for i in chart.chart_subset]
    row = mat[0]
    if sum(a * b for a, b in zip(sel, row)) != 1:
        return False
    inv = mat_inverse_unimodular(mat)
    image = monomial_apply(row, inv)
    return image == tuple(int(k == 0) for k in range(len(row)))


def monomial_apply(exponents, matrix) -> tuple[int, ...]:
    """Image of a (Laurent) monomial exponent vector under the monomial map
    with the given exponent matrix: e -> e . M."""
    size = len(matrix)
    return tuple(sum(exponents[i] * matrix[i][j] for i in range(size))
                 for j in range(size))


class WpsChart(Record):
    """Anti-canonically polar cylinder chart of a weighted projective space:
    the normalization to a well-formed space, the torus chart over a coprime
    coordinate subset of it, and the polar divisor as (i, c) pairs, c the
    coefficient of the hyperplane {x_i = 0} in a class sum c_i * O(a_i)."""

    def __init__(self, trace: NormalizationTrace, chart: ChartDescription,
                 polar: tuple[tuple[int, Fraction], ...]):
        setfield(self, "trace", trace)
        setfield(self, "chart", chart)
        setfield(self, "polar", polar)

    def to_json(self) -> dict:
        chart = self.chart
        return {"kind": "WpsChart", "weights": list(chart.weights),
                "chart_subset": list(chart.chart_subset),
                "torus_rank": chart.torus_rank, "affine_rank": chart.affine_rank,
                "polar": [[i, str(c)] for i, c in self.polar]}


def _first_coprime_subset(ws: tuple[int, ...], required: int | None = None) -> tuple[int, ...]:
    """Smallest index subset with coprime weights, lexicographically first
    among those of minimal size; `required` forces membership of one index."""
    n = len(ws)
    pool = [i for i in range(n) if i != required]
    for size in range(1, n):  # proper subsets only, so the chart keeps an A^1
        base = () if required is None else (required,)
        take = size - len(base)
        if take < 0:
            continue
        for extra in combinations(pool, take):
            idx = tuple(sorted(base + extra))
            if gcd_many(tuple(ws[i] for i in idx)) == 1:
                return idx
    raise AssertionError("well-formed weights admit a proper coprime subset")


def wps_cylinder(w) -> WpsChart:
    """An anti-canonically polar cylinder chart in a weighted projective space.

    Normalizes first, then picks the smallest coprime coordinate subset (so a
    single weight-1 coordinate yields the full A^n chart).  The complement is
    the union of the hyperplanes {x_i = 0}, i in the subset, and the polar
    divisor splits -K = O(sum a) evenly across them, so every component
    genuinely supports the divisor.
    """
    trace = normalize(w)
    ws = trace.output.weights
    idx = _first_coprime_subset(ws)
    return WpsChart(trace, torus_chart(ws, idx), even_polar_split(sum(ws), ws, idx))


def even_polar_split(degree: int, ws, subset) -> tuple[tuple[int, Fraction], ...]:
    """The polar divisor of a chart: `degree` split evenly over the
    hyperplanes {x_i = 0}, i in `subset`, as (i, degree / (|subset| * a_i))."""
    mults = tuple((i, Fraction(degree, len(subset) * ws[i])) for i in subset)
    assert sum(c * ws[i] for i, c in mults) == degree
    return mults
