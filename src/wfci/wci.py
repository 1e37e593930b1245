"""Combinatorial identity of a weighted complete intersection.

A descriptor is the ambient weight vector plus the multidegree.  This module
decides well-formedness (Iano-Fletcher 6.10 / 6.12), quasi-smoothness of
general members in codimension 1 and 2 (Iano-Fletcher Thm 8.1 / 8.7), detects
linear cones, and computes adjunction data and intersection numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .intarith import gcd_many
from .poly import eligible_partners, representable, semigroup_mask
from .wps import WeightVector, is_well_formed


@dataclass(frozen=True)
class WciDescriptor:
    """Weights plus sorted multidegree (d_1,...,d_c) of codimension c."""

    ambient: WeightVector
    multidegree: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ambient", WeightVector.of(self.ambient))
        degs = tuple(sorted(int(d) for d in self.multidegree))
        if not degs or any(d < 1 for d in degs):
            raise ValueError("degrees must be positive")
        object.__setattr__(self, "multidegree", degs)
        if not 1 <= self.codim <= self.ambient.n - 1:
            raise ValueError(f"codimension {self.codim} out of range for {self.ambient}")

    @classmethod
    def of(cls, weights, degrees) -> "WciDescriptor":
        if isinstance(degrees, int):
            degrees = (degrees,)
        return cls(WeightVector.of(weights), tuple(degrees))

    @property
    def codim(self) -> int:
        return len(self.multidegree)

    @property
    def dim(self) -> int:
        return self.ambient.n - self.codim

    @property
    def weights(self) -> tuple[int, ...]:
        return self.ambient.weights

    def __str__(self) -> str:
        return f"X({','.join(map(str, self.multidegree))}) in {self.ambient}"

    def to_json(self) -> dict:
        return {"weights": list(self.weights), "degrees": list(self.multidegree)}


def well_formed_hypersurface(desc: WciDescriptor) -> bool:
    """Hypersurface well-formedness: ambient well-formed and, for every pair
    of omitted indices, the gcd of the remaining weights divides the degree."""
    if desc.codim != 1:
        raise ValueError("hypersurface criterion needs codimension 1")
    return well_formed_ci(desc)


def well_formed_ci(desc: WciDescriptor) -> bool:
    """Complete-intersection well-formedness: for each mu in 1..c, every
    (n-1-c+mu)-subset gcd of the weights divides at least mu of the degrees."""
    ws = desc.weights
    if not is_well_formed(desc.ambient):
        return False
    n, c = desc.ambient.n, desc.codim
    for mu in range(1, c + 1):
        # the descriptor's 1 <= c <= n - 1 keeps the subset size in 1..n-1
        for sub in combinations(ws, n - 1 - c + mu):
            g = gcd_many(sub)
            if g == 1:
                continue
            dividing = sum(1 for d in desc.multidegree if d % g == 0)
            if dividing < mu:
                return False
    return True


def linear_cone_flags(desc: WciDescriptor) -> list[tuple[int, int]]:
    """All coincidences d_j = a_i, as (degree index, weight index) pairs."""
    return [(j, i)
            for j, d in enumerate(desc.multidegree)
            for i, a in enumerate(desc.weights)
            if d == a]


@dataclass(frozen=True)
class SubsetWitness:
    """Evidence that one index subset passes a quasi-smoothness condition."""

    subset: tuple[int, ...]
    condition: str                       # which clause of the criterion fired
    monomials: tuple[tuple, ...] = ()    # witness exponent vectors
    partners: tuple[tuple[int, tuple], ...] = ()  # (outside index, witness)


@dataclass(frozen=True)
class QsVerdict:
    holds: bool
    witnesses: tuple[SubsetWitness, ...]
    failing_subset: Optional[tuple[int, ...]] = None


def _nonempty_subsets(n_plus_1: int):
    idx = range(n_plus_1)
    for size in range(1, n_plus_1 + 1):
        yield from combinations(idx, size)


def general_qs_hypersurface(desc: WciDescriptor, witnesses: bool = True) -> QsVerdict:
    """Quasi-smoothness of a general hypersurface that is not a linear cone.

    For every nonempty index subset I, either some degree-d monomial lives on
    I, or at least |I| distinct outside indices e admit a monomial of the
    shape (I-supported) * x_e.
    """
    if desc.codim != 1:
        raise ValueError("criterion needs codimension 1")
    if linear_cone_flags(desc):
        raise ValueError("criterion inapplicable to linear cones")
    ws = desc.weights
    d = desc.multidegree[0]
    found: list[SubsetWitness] = []
    for sub in _nonempty_subsets(len(ws)):
        mono = representable(ws, sub, d)
        if mono is not None:
            if witnesses:
                found.append(SubsetWitness(sub, "monomial-on-subset", (mono,)))
            continue
        partners = eligible_partners(ws, sub, d)
        if len(partners) >= len(sub):
            if witnesses:
                chosen = tuple((e, representable(ws, sub, d - ws[e]))
                               for e in partners[:len(sub)])
                found.append(SubsetWitness(sub, "enough-partners", (), chosen))
            continue
        return QsVerdict(False, tuple(found), sub)
    return QsVerdict(True, tuple(found))


def general_qs_ci2(desc: WciDescriptor, witnesses: bool = True) -> QsVerdict:
    """Quasi-smoothness of a general codimension-2 intersection, neither
    equation a linear cone.

    Uniform counting form over every nonempty subset I (|I| = k); with E_j the
    eligible partner set of degree d_j over I, the subset passes if one of:
      * both degrees have a monomial on I;
      * d_1 does and |E_2| >= k-1 (or symmetrically);
      * |E_1| >= k, |E_2| >= k and |E_1 u E_2| >= k+1.
    At k = 1 this is exactly the single-variable condition.
    """
    if desc.codim != 2:
        raise ValueError("criterion needs codimension 2")
    if linear_cone_flags(desc):
        raise ValueError("criterion inapplicable to linear cones")
    ws = desc.weights
    d1, d2 = desc.multidegree
    found: list[SubsetWitness] = []
    for sub in _nonempty_subsets(len(ws)):
        k = len(sub)
        m1 = representable(ws, sub, d1)
        m2 = representable(ws, sub, d2)
        if m1 is not None and m2 is not None:
            if witnesses:
                found.append(SubsetWitness(sub, "monomials-on-subset", (m1, m2)))
            continue
        e1 = eligible_partners(ws, sub, d1)
        e2 = eligible_partners(ws, sub, d2)
        if m1 is not None and len(e2) >= k - 1:
            if witnesses:
                chosen = tuple((e, representable(ws, sub, d2 - ws[e])) for e in e2[:k - 1])
                found.append(SubsetWitness(sub, "first-monomial-plus-partners", (m1,), chosen))
            continue
        if m2 is not None and len(e1) >= k - 1:
            if witnesses:
                chosen = tuple((e, representable(ws, sub, d1 - ws[e])) for e in e1[:k - 1])
                found.append(SubsetWitness(sub, "second-monomial-plus-partners", (m2,), chosen))
            continue
        if len(e1) >= k and len(e2) >= k and len(set(e1) | set(e2)) >= k + 1:
            if witnesses:
                chosen = tuple((e, representable(ws, sub, d1 - ws[e])) for e in e1[:k])
                chosen += tuple((e, representable(ws, sub, d2 - ws[e])) for e in e2[:k])
                found.append(SubsetWitness(sub, "partners-both-equations", (), chosen))
            continue
        return QsVerdict(False, tuple(found), sub)
    return QsVerdict(True, tuple(found))


def general_qs(desc: WciDescriptor, witnesses: bool = True) -> Optional[QsVerdict]:
    """Dispatch on codimension; None when no criterion is available (c >= 3)."""
    if desc.codim == 1:
        return general_qs_hypersurface(desc, witnesses=witnesses)
    if desc.codim == 2:
        return general_qs_ci2(desc, witnesses=witnesses)
    return None


# ---------------------------------------------------------------------------
# adjunction and intersection numbers
# ---------------------------------------------------------------------------

FANO = "Fano"
CALABI_YAU = "CalabiYau"
GENERAL_TYPE = "GeneralType"


@dataclass(frozen=True)
class AdjunctionData:
    """Canonical class data: K = O(sum d_j - sum a_i) restricted to the member."""

    canonical_coefficient: int
    amplitude: str
    fano_index: Optional[int]


def adjunction(desc: WciDescriptor) -> AdjunctionData:
    k = sum(desc.multidegree) - desc.ambient.total()
    if k < 0:
        return AdjunctionData(k, FANO, -k)
    if k == 0:
        return AdjunctionData(k, CALABI_YAU, None)
    return AdjunctionData(k, GENERAL_TYPE, None)


def intersection_number(desc: WciDescriptor, divisor_degrees: Sequence[int]) -> Fraction:
    """Top intersection number of dim-many divisor classes O(u_l) on the member:

        (prod u_l) * (prod d_j) / (prod a_i)

    exactly, as a rational number.  Multilinear and symmetric in the u_l.
    """
    if len(divisor_degrees) != desc.dim:
        raise ValueError(f"need {desc.dim} divisor degrees, got {len(divisor_degrees)}")
    num = 1
    for u in divisor_degrees:
        num *= int(u)
    for d in desc.multidegree:
        num *= d
    den = 1
    for a in desc.weights:
        den *= a
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# fast boolean paths for the enumeration hot loop
# ---------------------------------------------------------------------------

def _cached_mask(ws, sub, limit, masks):
    entry = masks.get(sub)
    if entry is None or entry[0] < limit:
        entry = (limit, semigroup_mask([ws[i] for i in sub], limit))
        masks[sub] = entry
    return entry[1]


def _larger_subsets(n1: int):
    for size in range(2, n1 + 1):
        yield from combinations(range(n1), size)


def qs_hypersurface_fast(ws: tuple[int, ...], d: int,
                         masks: dict[tuple[int, ...], tuple[int, int]]) -> bool:
    """Witness-free hypersurface criterion.  Singletons are decided by
    residues (x_i^m has degree d exactly when a_i | d); larger subsets read
    semigroup bitmasks, built on first use and cached in `masks` per index
    subset for one fixed weight tuple."""
    for a in ws:
        # partners x_e of x_i^m in degree d: a_e <= d and a_i | d - a_e
        # (no e = i qualifies, since a_i does not divide d)
        if d % a and not any(b <= d and not (d - b) % a for b in ws):
            return False
    n1 = len(ws)
    limit = max(d, sum(ws))
    for sub in _larger_subsets(n1):
        mask = _cached_mask(ws, sub, limit, masks)
        if (mask >> d) & 1:
            continue
        inside = set(sub)
        partners = 0
        for e in range(n1):
            if e in inside:
                continue
            r = d - ws[e]
            if r >= 0 and (mask >> r) & 1:
                partners += 1
                if partners >= len(sub):
                    break
        if partners < len(sub):
            return False
    return True


def qs_ci2_fast(ws: tuple[int, ...], d1: int, d2: int,
                masks: dict[tuple[int, ...], tuple[int, int]]) -> bool:
    """Witness-free codimension-2 criterion: singletons by residues, larger
    subsets by semigroup bitmasks built on first use (see the hypersurface
    case).  A singleton with a monomial in either degree passes outright,
    since it needs k - 1 = 0 partners for the other."""
    for a in ws:
        if d1 % a and d2 % a:
            # partner weights, as in the hypersurface case; equal lists of
            # one weight mean one partner index for both degrees
            e1 = [b for b in ws if b <= d1 and not (d1 - b) % a]
            if not e1:
                return False
            e2 = [b for b in ws if b <= d2 and not (d2 - b) % a]
            if not e2 or e1 == e2 and len(e1) == 1:
                return False
    n1 = len(ws)
    limit = max(d1, d2, sum(ws))
    for sub in _larger_subsets(n1):
        mask = _cached_mask(ws, sub, limit, masks)
        k = len(sub)
        r1 = (mask >> d1) & 1
        r2 = (mask >> d2) & 1
        if r1 and r2:
            continue
        inside = set(sub)
        e1 = []
        e2 = []
        for e in range(n1):
            if e in inside:
                continue
            a = ws[e]
            if d1 - a >= 0 and (mask >> (d1 - a)) & 1:
                e1.append(e)
            if d2 - a >= 0 and (mask >> (d2 - a)) & 1:
                e2.append(e)
        if r1 and len(e2) >= k - 1:
            continue
        if r2 and len(e1) >= k - 1:
            continue
        if len(e1) >= k and len(e2) >= k and len(set(e1) | set(e2)) >= k + 1:
            continue
        return False
    return True


def is_quasi_smooth(desc: WciDescriptor) -> Optional[bool]:
    """Witness-free quasi-smoothness of a general member that is not a linear
    cone (the fast paths, with masks for this descriptor only); None when no
    criterion is available (c >= 3).  general_qs decides the same question
    and also gives the witnesses."""
    if desc.codim == 1:
        return qs_hypersurface_fast(desc.weights, desc.multidegree[0], {})
    if desc.codim == 2:
        return qs_ci2_fast(desc.weights, *desc.multidegree, {})
    return None
