"""Combinatorial identity of a weighted complete intersection.

A descriptor is the ambient weight vector plus the multidegree.  This module
decides well-formedness (Iano-Fletcher 6.10 / 6.12), quasi-smoothness of
general members in codimension 1 and 2 (Iano-Fletcher Thm 8.1 / 8.7), detects
linear cones, and computes adjunction data and intersection numbers.

Quasi-smoothness is one scan, `_first_failure`, over the index subsets, with
one clause table for both codimensions.  Witness-free (`qs_*_fast`,
`general_qs(witnesses=False)`), it decides singletons by residues and larger
subsets on semigroup masks, which only the search keeps from one degree to
the next.  In witness mode (`general_qs`) it records the clause each subset
passes by and the monomials that show it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .poly import representable, semigroup_mask
from .record import Record, setfield
from .wps import WeightVector, is_well_formed


class WciDescriptor(Record):
    """Weights plus sorted multidegree (d_1,...,d_c) of codimension c."""

    def __init__(self, ambient: WeightVector, multidegree: tuple[int, ...]):
        ambient = WeightVector.of(ambient)
        degs = tuple(sorted(int(d) for d in multidegree))
        if not degs or any(d < 1 for d in degs):
            raise ValueError("degrees must be positive")
        if not 1 <= len(degs) <= ambient.n - 1:
            raise ValueError(f"codimension {len(degs)} out of range for {ambient}")
        setfield(self, "ambient", ambient)
        setfield(self, "multidegree", degs)

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
            g = gcd(*sub)
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


class SubsetWitness(Record):
    """Evidence that one index subset passes a quasi-smoothness condition."""

    def __init__(self, subset: tuple[int, ...],
                 condition: str,                     # which clause of the criterion fired
                 monomials: tuple[tuple, ...] = (),  # witness exponent vectors
                 partners: tuple[tuple[int, tuple], ...] = ()):  # (outside index, witness)
        setfield(self, "subset", subset)
        setfield(self, "condition", condition)
        setfield(self, "monomials", monomials)
        setfield(self, "partners", partners)


class QsVerdict(Record):
    def __init__(self, holds: bool, witnesses: tuple[SubsetWitness, ...],
                 failing_subset: Optional[tuple[int, ...]] = None):
        setfield(self, "holds", holds)
        setfield(self, "witnesses", witnesses)
        setfield(self, "failing_subset", failing_subset)


def general_qs(desc: WciDescriptor, witnesses: bool = True) -> Optional[QsVerdict]:
    """Quasi-smoothness of a general member that is not a linear cone; None
    when no criterion is available (c >= 3).

    Iano-Fletcher Thm 8.1 (c = 1): every nonempty index subset I has a
    degree-d monomial on I, or at least |I| distinct outside indices e admit
    a monomial of the shape (I-supported) * x_e.  Thm 8.7 (c = 2), with k = |I|
    and E_j the eligible partner set of d_j over I: both degrees have a
    monomial on I; or d_1 does and |E_2| >= k-1 (or symmetrically); or
    |E_1| >= k, |E_2| >= k and |E_1 u E_2| >= k+1.  No semigroup mask
    outlives the call.
    """
    if desc.codim > 2:
        return None
    if linear_cone_flags(desc):
        raise ValueError("criterion inapplicable to linear cones")
    found = [] if witnesses else None
    sub = _first_failure(desc.weights, desc.multidegree, None, found)
    return QsVerdict(sub is None, tuple(found or ()), sub)


# ---------------------------------------------------------------------------
# adjunction and intersection numbers
# ---------------------------------------------------------------------------

FANO = "Fano"
CALABI_YAU = "CalabiYau"
GENERAL_TYPE = "GeneralType"


class AdjunctionData(Record):
    """Canonical class data: K = O(sum d_j - sum a_i) restricted to the member."""

    def __init__(self, canonical_coefficient: int):
        setfield(self, "canonical_coefficient", canonical_coefficient)

    @property
    def amplitude(self) -> str:
        k = self.canonical_coefficient
        return FANO if k < 0 else CALABI_YAU if k == 0 else GENERAL_TYPE

    @property
    def fano_index(self) -> Optional[int]:   # -k when -K = O(-k) is ample
        return -self.canonical_coefficient if self.canonical_coefficient < 0 else None


def adjunction(desc: WciDescriptor) -> AdjunctionData:
    return AdjunctionData(sum(desc.multidegree) - desc.ambient.total())


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
# the quasi-smoothness scan
# ---------------------------------------------------------------------------

def _cached_mask(ws, sub, limit, masks):
    """Semigroup mask of the weights on `sub` up to `limit`, kept in `masks`
    per index subset when the caller brings that cache; None keeps nothing."""
    if masks is None:
        return semigroup_mask([ws[i] for i in sub], limit)
    entry = masks.get(sub)
    if entry is None or entry[0] < limit:
        entry = (limit, semigroup_mask([ws[i] for i in sub], limit))
        masks[sub] = entry
    return entry[1]


# Iano-Fletcher Thm 8.1 (c = 1) and 8.7 (c = 2), one row per clause: the
# witness condition, the degrees that need a monomial on the index subset I,
# and the degrees that need eligible partners outside I.  With k = |I| and p
# partner degrees, each partner list needs k - c + p entries, and two lists
# need one more than that between them.
_CLAUSES = {
    1: (("monomial-on-subset", (0,), ()),
        ("enough-partners", (), (0,))),
    2: (("monomials-on-subset", (0, 1), ()),
        ("first-monomial-plus-partners", (0,), (1,)),
        ("second-monomial-plus-partners", (1,), (0,)),
        ("partners-both-equations", (), (0, 1))),
}


def _first_failure(ws, degs, masks, found=None):
    """First index subset, by size and then lexicographically, that fails the
    criterion of the weights ws in the degrees degs (c = 1 or 2); None when
    every subset passes.

    Witness-free (found is None), singletons are decided by residues with no
    mask: x_i^m has degree d exactly when a_i | d, and x_e partners it when
    a_e <= d and a_i | d - a_e.  Larger subsets read semigroup masks through
    `_cached_mask`, and one AND passes a subset with a monomial in every
    degree.  In witness mode (found a list) every subset reads its mask and
    each passing one appends its SubsetWitness to `found`."""
    d1, d2 = degs[0], degs[-1]
    if found is None:
        for a in ws:
            if d1 % a and d2 % a:
                # partner weights (no e = i qualifies, since a_i does not
                # divide d); equal lists of one weight mean one partner index
                # for both degrees.  The verdict depends on a_i alone, so the
                # first failing singleton is the first index of its weight.
                e1 = [b for b in ws if b <= d1 and not (d1 - b) % a]
                if not e1:
                    return (ws.index(a),)
                if len(degs) == 2:
                    e2 = [b for b in ws if b <= d2 and not (d2 - b) % a]
                    if not e2 or e1 == e2 and len(e1) == 1:
                        return (ws.index(a),)
    n1 = len(ws)
    limit = max(d1, d2, sum(ws))
    every = (1 << d1) | (1 << d2)
    for size in range(1 if found is not None else 2, n1 + 1):
        for sub in combinations(range(n1), size):
            mask = _cached_mask(ws, sub, limit, masks)
            if found is None and mask & every == every:
                continue
            if not _passes(ws, degs, sub, mask, found):
                return sub
    return None


def _passes(ws, degs, sub, mask, found):
    """Whether the index subset `sub`, of semigroup mask `mask`, passes a
    clause; in witness mode its SubsetWitness goes to `found`.  Kept apart so
    that its comprehensions make no cells of `_first_failure`'s locals."""
    c, n1 = len(degs), len(ws)
    has = [(mask >> d) & 1 for d in degs]
    partners = [[e for e in range(n1) if e not in sub
                 and ws[e] <= d and (mask >> (d - ws[e])) & 1] for d in degs]
    for condition, mono, part in _CLAUSES[c]:
        need = len(sub) - c + len(part)
        lists = [partners[j] for j in part]
        if (all(has[j] for j in mono) and all(len(e) >= need for e in lists)
                and (len(lists) < 2 or len(set(lists[0] + lists[1])) > need)):
            if found is not None:
                found.append(SubsetWitness(
                    sub, condition,
                    tuple(representable(ws, sub, degs[j]) for j in mono),
                    tuple((e, representable(ws, sub, degs[j] - ws[e]))
                          for j in part for e in partners[j][:need])))
            return True
    return False


def qs_hypersurface_fast(ws: tuple[int, ...], d: int,
                         masks: Optional[dict[tuple[int, ...], tuple[int, int]]]) -> bool:
    """Witness-free hypersurface criterion; masks built on first use are
    cached in `masks` per index subset for one fixed weight tuple."""
    return _first_failure(ws, (d,), masks) is None


def qs_ci2_fast(ws: tuple[int, ...], d1: int, d2: int,
                masks: Optional[dict[tuple[int, ...], tuple[int, int]]]) -> bool:
    """Witness-free codimension-2 criterion, cached as in the hypersurface
    case."""
    return _first_failure(ws, (d1, d2), masks) is None
