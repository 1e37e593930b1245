"""Cylindricity verdicts with machine-checkable certificates.

Constructive side: a quasi-smooth well-formed hypersurface whose degree is the
sum of two weights can be brought to the shape x_i*x_j + G by graded
triangular coordinate changes; projecting away one of the two distinguished
coordinates then exhibits an anti-canonically polar cylinder.  In codimension
two the analogous double projection needs six distinct indices splitting both
degrees over two pivots, and the pattern generalizes to codimension c with
c + c^2 distinct indices; one pivot-partner search, `check_codimc_generalized`,
finds these indices in every codimension, and one record, `Projection`,
carries them.  Linear cones reduce to a smaller weighted space.

Obstruction side: descriptors matching the embedded classification tables are
certified non-cylindrical where the literature proves it (KKW24 Thm 4.7 for
the infinite hypersurface series with n > 2, its family 4 for every n, and
the alpha-invariant >= 1 classification of KP15/KW19 with CPPZ Thm 1.26 for
the codimension-2 index-1 tables minus the two known alpha < 1 exceptions).

Every certificate carries the data needed to re-check it arithmetically.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from . import tables, wps
from .poly import ONE, Coeff, GradedPolynomial, substitute
from .record import Record, setfield
from .wci import (WciDescriptor, adjunction, general_qs, linear_cone_flags,
                  well_formed_ci, FANO)
from .wps import (ChartDescription, WeightVector, is_well_formed, normalize,
                  torus_chart, wps_cylinder)

CYLINDRICAL = "Cylindrical"
NOT_CYLINDRICAL = "NotCylindrical"
UNKNOWN = "Unknown"

CIT_SUM_OF_TWO = ("cylinder: degree is a sum of two weights "
                  "(quadratically closed base field)")
CIT_WPS_CHART = "cylinder: weighted projective space chart"
CIT_LINEAR_CONE = "cylinder: linear cone, eliminate the matched variable"
CIT_CODIM2 = "cylinder: codimension-2 double projection, six distinct indices"
CIT_CODIMC = "cylinder: codimension-c multi-projection"
CIT_SERIES_NONCYL = ("non-cylindrical: infinite del Pezzo hypersurface series "
                     "for n > 2 [KKW24, Thm 4.7]")
CIT_FAMILY4_NONCYL = ("non-cylindrical: family 4 of the infinite series for "
                      "every n [KKW24; KPZ0, Prop 5.1 for n = 1]")
CIT_ALPHA = ("non-cylindrical: alpha-invariant >= 1 "
             "[KP15; KW19; CPPZ, Thm 1.26]")
CIT_CONJECTURE = ("conjecture: a del Pezzo hypersurface is cylindrical "
                  "iff its degree is a sum of two weights")


class ClassificationInconsistency(RuntimeError):
    """A constructive cylinder and a non-cylindricity certificate both fired."""


class NormalFormError(ValueError):
    """A mathematical precondition of the normal form fails: no enabling cross
    term (which cannot happen for quasi-smooth members), or coefficients and
    discriminant root that do not lie in one field Q(sqrt(m))."""


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class Projection(Record):
    """The pivot-partner projection of codimension c: c pivots and, for each
    pivot l and degree j, a partner with a_{pivot_l} + a_{partner_{l,j}} =
    d_j, all c + c^2 indices distinct.  Its JSON kind names the case:
    SumOfTwoWeights at c = 1, Codim2Projection at c = 2, CodimCGeneralized
    at c >= 3."""

    def __init__(self, pivots: tuple[int, ...],              # c pivot indices
                 partners: tuple[tuple[int, ...], ...]):  # partners[l][j]: pivot l, degree j
        setfield(self, "pivots", pivots)
        setfield(self, "partners", partners)

    def recheck(self, desc: WciDescriptor) -> bool:
        ws, ds, c = desc.weights, desc.multidegree, desc.codim
        pivots, partners = self.pivots, self.partners
        if len(pivots) != c or len(partners) != c or any(len(row) != c for row in partners):
            return False
        used = set(pivots).union(*partners)
        if len(used) != c + c * c or not all(0 <= k < len(ws) for k in used):
            return False
        return all(ws[pivots[l]] + ws[partners[l][j]] == ds[j]
                   for l in range(c) for j in range(c))

    def to_json(self) -> dict:
        c = len(self.pivots)
        if c == 1:
            return {"kind": "SumOfTwoWeights", "i": self.pivots[0],
                    "j": self.partners[0][0]}
        return {"kind": "Codim2Projection" if c == 2 else "CodimCGeneralized",
                "pivots": list(self.pivots),
                "partners": [list(row) for row in self.partners]}


class TableNonCyl(Record):
    """A classification row whose statement is non-cylindricity: T1 rows by
    KKW24, the codimension-2 rows by their alpha-invariant >= 1."""

    def __init__(self, table_id: str, row_id: int, n: Optional[int]):
        setfield(self, "table_id", table_id)
        setfield(self, "row_id", row_id)
        setfield(self, "n", n)

    def to_json(self) -> dict:
        alpha = (None if self.table_id == "T1"
                 else {"kind": "AlphaAtLeastOne", "citation": CIT_ALPHA})
        return {"kind": "TableNonCyl", "table": self.table_id, "row": self.row_id,
                "n": self.n, "alpha": alpha}


class LinearCone(Record):
    def __init__(self, degree_index: int, weight_index: int,
                 target_weights: tuple[int, ...], target_degrees: tuple[int, ...],
                 inner: Optional[object] = None):  # certificate of the reduction target
        setfield(self, "degree_index", degree_index)
        setfield(self, "weight_index", weight_index)
        setfield(self, "target_weights", target_weights)
        setfield(self, "target_degrees", target_degrees)
        setfield(self, "inner", inner)

    def to_json(self) -> dict:
        return {"kind": "LinearCone", "degree_index": self.degree_index,
                "weight_index": self.weight_index,
                "target": {"weights": list(self.target_weights),
                           "degrees": list(self.target_degrees)},
                "inner": self.inner.to_json() if self.inner is not None else None}


def standing(cert: Optional[object]) -> tuple[str, tuple[str, ...]]:
    """The status a certificate settles and the statements it cites: the one
    rule that a verdict's status and citations follow."""
    if cert is None:
        return UNKNOWN, ()
    kind = type(cert)
    if kind is Projection:   # settles codimension 1 and 2, only predicts beyond
        c = len(cert.pivots)
        cite = CIT_SUM_OF_TWO if c == 1 else CIT_CODIM2 if c == 2 else CIT_CODIMC
        return CYLINDRICAL if c <= 2 else UNKNOWN, (cite,)
    if kind is TableNonCyl:
        cite = CIT_FAMILY4_NONCYL if cert.row_id == 4 else CIT_SERIES_NONCYL
        return NOT_CYLINDRICAL, (cite if cert.table_id == "T1" else CIT_ALPHA,)
    if kind is wps.WpsChart:
        return CYLINDRICAL, (CIT_WPS_CHART,)
    if kind is LinearCone:   # the target's status, its statements only if they decide
        status, cites = standing(cert.inner)
        return status, (CIT_LINEAR_CONE,) + (cites if status != UNKNOWN else ())
    raise TypeError(f"{kind.__name__} is not a certificate")


class CylinderVerdict(Record, uncompared=("table_hit",)):
    def __init__(self, certificate: Optional[object],
                 conjectural_prediction: Optional[bool] = None,
                 notes: tuple[str, ...] = (), flags: Optional[dict] = None,
                 table_hit: Optional[tuple[str, int, Optional[int]]] = None):
        setfield(self, "certificate", certificate)
        setfield(self, "conjectural_prediction", conjectural_prediction)
        setfield(self, "notes", notes)
        setfield(self, "flags", {} if flags is None else flags)
        # tables.match of the descriptor judged, for callers that report it;
        # not part of the verdict's JSON nor of its equality
        setfield(self, "table_hit", table_hit)

    @property
    def status(self) -> str:
        return standing(self.certificate)[0]

    @property
    def citations(self) -> tuple[str, ...]:
        return standing(self.certificate)[1]

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "citations": list(self.citations),
            "conjectural": self.conjectural_prediction,
            "notes": list(self.notes),
            "flags": dict(self.flags),
        }


# ---------------------------------------------------------------------------
# constructive searches (deterministic: ascending scans, first witness)
# ---------------------------------------------------------------------------

def check_codimc_generalized(desc: WciDescriptor) -> Optional[Projection]:
    """Backtracking search for c pivots plus c^2 partners, all distinct, with
    d_j = a_{pivot_l} + a_{partner_{l,j}} for every degree j and pivot l.
    Pivot tuples are tried in ascending order and partners degree-major, so
    the witness is the first in that order (at c = 1 the first pair i < j).
    Requires n >= c(c+1); returns None below that arity."""
    c = desc.codim
    n = desc.ambient.n
    if n < c * (c + 1):
        return None
    ws = desc.weights
    ds = desc.multidegree
    n1 = len(ws)
    candidates = [[[k for k in range(n1) if k != p and ws[p] + ws[k] == d]
                   for d in ds] for p in range(n1)]
    # assignment slots ordered degree-major: (j, l) for j in degrees, l in pivots
    slots = [(j, l) for j in range(c) for l in range(c)]

    def extend(pivots: tuple[int, ...], used: set[int], pos: int) -> Optional[list[int]]:
        if pos == len(slots):
            return []
        j, l = slots[pos]
        for k in candidates[pivots[l]][j]:
            if k in used:
                continue
            used.add(k)
            rest = extend(pivots, used, pos + 1)
            if rest is not None:
                return [k] + rest
            used.discard(k)
        return None

    for pivots in combinations([p for p in range(n1) if all(candidates[p])], c):
        flat = extend(pivots, set(pivots), 0)
        if flat is not None:
            partners = tuple(tuple(flat[j * c + l] for j in range(c))
                             for l in range(c))
            return Projection(pivots, partners)
    return None


# ---------------------------------------------------------------------------
# normal form x_i x_j + G
# ---------------------------------------------------------------------------

class ChangeOp(Record):
    """One replayable step: a graded substitution or a global rescale."""

    def __init__(self, kind: str,  # "substitute" | "scale"
                 var: Optional[int] = None,
                 replacement: Optional[GradedPolynomial] = None,
                 factor: Optional[Coeff] = None):
        setfield(self, "kind", kind)
        setfield(self, "var", var)
        setfield(self, "replacement", replacement)
        setfield(self, "factor", factor)

    def apply(self, p: GradedPolynomial) -> GradedPolynomial:
        if self.kind == "substitute":
            return substitute(p, self.var, self.replacement)
        if self.kind == "scale":
            return p.scale(self.factor)
        raise ValueError(f"unknown change op {self.kind}")

    def to_json(self) -> dict:
        if self.kind == "substitute":
            return {"op": "substitute", "var": self.var,
                    "replacement": self.replacement.to_json()}
        return {"op": "scale", "factor": self.factor.to_json()}


class NormalFormResult(Record):
    def __init__(self, pair: tuple[int, int],  # final pivot pair (after re-indexing)
                 requested_pair: tuple[int, int],
                 change_sequence: tuple[ChangeOp, ...],
                 result: GradedPolynomial,     # x_i x_j + G, cross coefficient 1
                 extension_used: Optional[int] = None):  # radicand when a square root was adjoined
        setfield(self, "pair", pair)
        setfield(self, "requested_pair", requested_pair)
        setfield(self, "change_sequence", change_sequence)
        setfield(self, "result", result)
        setfield(self, "extension_used", extension_used)

    @property
    def remainder(self) -> GradedPolynomial:
        """G, free of both pivot variables: the result without its cross term."""
        r, cross = self.result, _unit_exp(self.result.nvars, *self.pair)
        return GradedPolynomial._over(r.weights, r.degree, r.D,
                                      {e: t for e, t in r.table.items() if e != cross})

    def to_json(self) -> dict:
        return {"pair": list(self.pair),
                "requested_pair": list(self.requested_pair),
                "changes": [op.to_json() for op in self.change_sequence],
                "result": self.result.to_json(),
                "remainder": self.remainder.to_json(),
                "radicand": self.extension_used}


def replay_changes(p: GradedPolynomial, ops: Sequence[ChangeOp]) -> GradedPolynomial:
    for op in ops:
        p = op.apply(p)
    return p


def _unit_exp(n: int, *indices: int) -> tuple[int, ...]:
    e = [0] * n
    for i in indices:
        e[i] += 1
    return tuple(e)


def _field_sqrt(value: Coeff, field_m: int) -> Coeff:
    """Square root of a rational Coeff in Q(sqrt(field_m)), the field of the
    input's coefficients (field_m 1 is Q, which the root may extend)."""
    if not value.is_rational:
        raise NormalFormError("second radical adjunction unsupported")
    root = Coeff.sqrt_of(value.base)
    if field_m != 1 and root.m not in (1, field_m):
        raise NormalFormError(f"incompatible radicands {root.m} and {field_m}: the "
                              "discriminant's root lies outside the input's field")
    return root


def _enabling_pairs(F: GradedPolynomial, i: int, j: int) -> list[tuple[int, int]]:
    """Candidate pivot pairs: the requested one first, then re-indexings that
    keep one of the requested indices (a cross term x_k x_i or x_k x_j of the
    right degree exists only when a_k complements the kept weight)."""
    d = F.degree
    w = F.weights
    out = [(i, j)]
    for keep in (i, j):
        for k in range(len(w)):
            if k in (i, j):
                continue
            if w[keep] + w[k] == d:
                pair = (min(keep, k), max(keep, k))
                if pair not in out:
                    out.append(pair)
    return out


def normal_form(F: GradedPolynomial, pair: tuple[int, int]) -> NormalFormResult:
    """Bring F of degree a_i + a_j to the exact shape x_i*x_j + G(others).

    The change sequence consists of graded triangular substitutions plus one
    global rescale; replaying it on the input reproduces the result term for
    term.  When both pivot weights agree and the binary quadratic part needs
    diagonalizing off, a single square root of its discriminant is adjoined.
    Fails only when no enabling term exists, which the quasi-smoothness of the
    member rules out.

    Each change is made by applying its recorded `ChangeOp`, so the
    polynomial after each change is the one a replay gives, in the table form
    of `poly`.  `Coeff`s are made only for the pivot coefficients read, from
    which the pivot substitutions, the rescale and the discriminant's root are
    computed.
    """
    i, j = pair
    n = F.nvars
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError("bad pivot pair")
    if F.weights[i] + F.weights[j] != F.degree:
        raise ValueError("pair weights do not sum to the degree")

    w = F.weights
    P = F   # the polynomial after the changes made so far
    # the input's field is Q(sqrt(m)) for the one m of its irrational terms
    radicands = F.radicands()
    if len(radicands) > 1:
        raise NormalFormError(f"incompatible radicands {radicands[0]} and "
                              f"{radicands[1]} in the input coefficients")
    field_m = radicands[0] if radicands else 1
    ops: list[ChangeOp] = []
    adjoined = None

    def change(op: ChangeOp):
        nonlocal P
        ops.append(op)
        P = op.apply(P)

    def sub_op(var: int, rest: GradedPolynomial):
        # x_var <- x_var - rest, unless rest is zero
        if not rest.is_zero():
            change(ChangeOp("substitute", var, GradedPolynomial(
                w, w[var], {_unit_exp(n, var): ONE}) - rest))

    def pivot_op(var: int, other: int, c: Coeff):
        sub_op(var, GradedPolynomial(w, w[var], {_unit_exp(n, other): c}))

    # the first enabling pair with a cross term, or, at equal weights, a
    # binary quadratic part of nonzero discriminant
    for u, v in _enabling_pairs(F, i, j):
        cross = P.coefficient(_unit_exp(n, u, v))
        if w[u] != w[v]:
            if cross.is_zero:
                continue
            break
        lam = P.coefficient(_unit_exp(n, u, u))
        mu = P.coefficient(_unit_exp(n, v, v))
        if cross.is_zero and (lam.is_zero or mu.is_zero):
            continue
        disc = cross * cross - lam * mu * 4
        if not disc.is_zero:
            break
    else:
        raise NormalFormError("cross term absent: no enabling term for the pivot pair")

    if w[u] == w[v]:
        if lam.is_zero and not mu.is_zero:
            u, v = v, u
            lam, mu = mu, lam
        if not lam.is_zero:
            if mu.is_zero:
                # lam x_u^2 + cross x_u x_v: clear the square off the pivot
                u, v = v, u   # now the square sits on x_v
                pivot_op(u, v, lam / cross)
            else:
                root = _field_sqrt(disc, field_m)
                if not root.is_rational:
                    adjoined = root.m
                pivot_op(u, v, (cross + root) / (lam * 2))
                pivot_op(v, u, lam / P.coefficient(_unit_exp(n, u, v)))
    else:
        if w[u] > w[v]:
            u, v = v, u   # keep the larger weight on x_v: it then occurs linearly

    cross_exp = _unit_exp(n, u, v)
    cross = P.coefficient(cross_exp)
    assert not cross.is_zero
    if cross != ONE:
        change(ChangeOp("scale", factor=cross.inverse()))

    # absorb the x_v-linear coefficient into x_u, then every remaining
    # x_u-divisible term into x_v
    sub_op(u, P.quotient(v, lambda e: e[v] == 1 and e != cross_exp))
    sub_op(v, P.quotient(u, lambda e: e[v] == 0))

    if P.table.get(cross_exp) != (P.D, 0, 1) or any(
            e[u] or e[v] for e in P.table if e != cross_exp):
        raise AssertionError("normal form postcondition failed")
    final_pair = (min(u, v), max(u, v))
    return NormalFormResult(final_pair, (min(i, j), max(i, j)), tuple(ops), P, adjoined)


# ---------------------------------------------------------------------------
# the cylinder chart attached to a normal form
# ---------------------------------------------------------------------------

class HypersurfaceCylinder(Record):
    """Cylinder of a degree a_i + a_j hypersurface, assembled from the normal
    form: X meets the chart {x_kept != 0} in a principal chart of the smaller
    space obtained by dropping x_dropped, where the usual torus chart supplies
    the cylinder.  The polar divisor lives on the original hyperplane classes
    and sums to the anti-canonical degree."""

    def __init__(self, pair: tuple[int, int],            # (kept, dropped)
                 projected_weights: tuple[int, ...],     # original order, dropped removed
                 chart: ChartDescription,                # on the well-formed projection
                 complement: tuple[int, ...],            # original indices of the support
                 polar: tuple[tuple[int, Fraction], ...]):  # (original index, multiplicity)
        setfield(self, "pair", pair)
        setfield(self, "projected_weights", projected_weights)
        setfield(self, "chart", chart)
        setfield(self, "complement", complement)
        setfield(self, "polar", polar)

    def to_json(self) -> dict:
        chart = self.chart
        return {"kind": "SumOfTwoWeightsChart", "pair": list(self.pair),
                "kept": self.pair[0], "dropped": self.pair[1],
                "projected_weights": list(self.projected_weights),
                "reduced_weights": list(chart.weights),
                "chart_subset": list(chart.chart_subset),
                "complement": list(self.complement),
                "polar": [[i, str(c)] for i, c in self.polar],
                "torus_rank": chart.torus_rank, "affine_rank": chart.affine_rank}


def cylinder_chart(desc: WciDescriptor, nf: NormalFormResult) -> HypersurfaceCylinder:
    """Chart data for the cylinder produced by a normal form on `desc`: the
    explicit cylinder behind a codimension-1 `Projection` certificate.
    Library API; no command builds it."""
    if desc.codim != 1:
        raise ValueError("chart construction needs codimension 1")
    kept, dropped = nf.pair
    ws = desc.weights
    proj = tuple(a for k, a in enumerate(ws) if k != dropped)
    to_original = [k for k in range(len(ws)) if k != dropped]
    kept_pos = to_original.index(kept)

    # positions survive both reduction steps (y_l = x_l^{d_l}), so reuse them;
    # proj is still ascending, so the trace keeps its order
    reduced = normalize(WeightVector.of(proj)).reduced
    subset = wps._first_coprime_subset(reduced, required=kept_pos)
    # the chart's ranks are the cylinder's: they add up to len(proj) - 1 = dim
    chart = torus_chart(reduced, subset)

    complement = tuple(to_original[p] for p in subset)
    index = desc.ambient.total() - desc.multidegree[0]   # anti-canonical degree
    polar = wps.even_polar_split(index, ws, complement)
    return HypersurfaceCylinder(nf.pair, proj, chart, complement, polar)


# ---------------------------------------------------------------------------
# table-backed non-cylindricity
# ---------------------------------------------------------------------------

ALPHA_EXCEPTIONS = {("T3", 1): "the (2n,2n) series in P(1,1,n,n,2n-1) has alpha < 1",
                    ("T2", 2): ("the (6,8) family in P(1,2,3,4,5) splits on a "
                                "coefficient condition the descriptor does not carry")}
T1_LOW_N_NOTE = ("infinite-series row at n <= 2: no non-cylindricity "
                 "statement applies at this parameter")


_LOOK_UP = object()


def check_nonexistence(desc: WciDescriptor, hit=_LOOK_UP) -> Optional[TableNonCyl]:
    """Match the descriptor against the embedded tables and return a
    non-cylindricity certificate where the classification provides one.
    `hit` is the result of tables.match(desc) when the caller has it."""
    if hit is _LOOK_UP:
        hit = tables.match(desc)
    if hit is None:
        return None
    tid, rid, n = hit
    if tid == "T1":
        applies = rid == 4 or (n is not None and n > 2)
    else:
        applies = (tid, rid) not in ALPHA_EXCEPTIONS
    return TableNonCyl(tid, rid, n) if applies else None


# ---------------------------------------------------------------------------
# the assembled verdict
# ---------------------------------------------------------------------------

def verdict(desc: WciDescriptor) -> CylinderVerdict:
    """Apply every criterion and certificate; Cylindrical and NotCylindrical
    must never both fire (raises ClassificationInconsistency if they do)."""
    notes: list[str] = []
    ambient_wf = is_well_formed(desc.ambient)
    wf = well_formed_ci(desc) if ambient_wf else False
    if not ambient_wf:
        notes.append("ambient weights not well-formed: normalize first")
    cones = linear_cone_flags(desc)
    qsv = None if cones else general_qs(desc, witnesses=False)
    qs = None if qsv is None else qsv.holds
    flags = {"ambient_well_formed": ambient_wf, "well_formed": wf,
             "quasi_smooth": qs, "linear_cones": [list(f) for f in cones]}
    hit = tables.match(desc)

    if cones:
        return _linear_cone_verdict(desc, cones[0], notes, flags, hit)

    # one pivot-partner search and its record serve every codimension; at
    # c >= 3 qs is None, and a found assignment certifies nothing
    # unconditionally
    c = desc.codim
    cert = None
    if wf and qs is not False and (c > 1 or desc.ambient.n >= 3):
        cert = check_codimc_generalized(desc)
    if cert is not None and c > 2:
        notes.append("multi-projection assignment found; cylindricity "
                     "follows if a general member is quasi-smooth, which "
                     "no criterion decides at codimension >= 3")

    table_cert = check_nonexistence(desc, hit)
    if table_cert is not None and not (wf and qs):
        notes.append("table row matched but well-formedness/quasi-smoothness "
                     "hypotheses fail; no non-cylindricity asserted")
        table_cert = None
    if table_cert is not None:
        if standing(cert)[0] == CYLINDRICAL:
            raise ClassificationInconsistency(
                f"{desc}: constructive certificate {cert} contradicts "
                f"table certificate {table_cert}")
        cert = table_cert
    elif hit is not None and wf and qs:
        # under the hypotheses check_nonexistence declines exactly the alpha
        # exceptions and the T1 rows other than 4 at n <= 2 (T1 has no
        # sporadic row)
        notes.append(ALPHA_EXCEPTIONS.get(hit[:2], T1_LOW_N_NOTE))

    conjectural = None
    if c == 1 and desc.ambient.n == 3 and wf and qs \
            and adjunction(desc).amplitude == FANO:
        conjectural = standing(cert)[0] == CYLINDRICAL
        notes.append(CIT_CONJECTURE)

    return CylinderVerdict(cert, conjectural, tuple(notes), flags, hit)


def _linear_cone_verdict(desc: WciDescriptor, flag: tuple[int, int],
                         notes: list[str], flags: dict,
                         hit: Optional[tuple[str, int, Optional[int]]]) -> CylinderVerdict:
    """A degree equal to a weight lets the general member eliminate that
    variable: the variety is isomorphic to a complete intersection in the
    smaller space (the space itself in codimension 1), and the verdict is
    inherited through that isomorphism."""
    j, i = flag
    ws = tuple(a for k, a in enumerate(desc.weights) if k != i)
    ds = tuple(d for k, d in enumerate(desc.multidegree) if k != j)
    notes.append(f"linear cone: degree {desc.multidegree[j]} matches weight "
                 f"index {i}; reduces to weights {ws}, degrees {ds or '()'}")
    inner = verdict(WciDescriptor.of(ws, ds)) if ds else wps_verdict(ws)
    notes.extend(inner.notes)
    if inner.status == UNKNOWN:
        notes.append("reduction target undecided")
    return CylinderVerdict(LinearCone(j, i, ws, ds, inner.certificate), None,
                           tuple(notes), flags, hit)


def wps_verdict(w) -> CylinderVerdict:
    """Verdict for a weighted projective space itself: always cylindrical."""
    return CylinderVerdict(wps_cylinder(w), None, (),
                           {"ambient_well_formed": True, "well_formed": True,
                            "quasi_smooth": True, "linear_cones": []})
