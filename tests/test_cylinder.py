import hashlib
import json
import random
from fractions import Fraction

import pytest

from wfci import tables
from wfci.cylinder import (CIT_ALPHA, CIT_CODIM2, CIT_CODIMC, CIT_FAMILY4_NONCYL,
                           CIT_LINEAR_CONE, CIT_SERIES_NONCYL, CIT_SUM_OF_TWO,
                           CIT_WPS_CHART, ClassificationInconsistency, CYLINDRICAL,
                           CylinderVerdict, LinearCone, NOT_CYLINDRICAL,
                           NormalFormError, Projection, TableNonCyl, UNKNOWN,
                           check_codimc_generalized,
                           check_nonexistence, cylinder_chart, normal_form,
                           replay_changes, standing, verdict, wps_verdict)
from wfci.poly import Coeff, GradedPolynomial, generic_member
from wfci.wci import (CALABI_YAU, FANO, GENERAL_TYPE, AdjunctionData,
                      WciDescriptor)
from wfci.wps import WpsChart, wps_cylinder

from oracles import literal_codim3_assignment, literal_pair, literal_replay


def desc(ws, ds):
    return WciDescriptor.of(ws, ds)


# --- pair search ------------------------------------------------------------

def _pair(dd):
    """The pivot and its partner of the pair search at codimension 1."""
    cert = check_codimc_generalized(dd)
    return None if cert is None else (cert.pivots[0], cert.partners[0][0])


def test_codimc_generalized_pair_examples():
    assert _pair(desc((1, 1, 1, 1, 1), 2)) == (0, 1)
    assert _pair(desc((1, 7, 12, 18), 36)) is None
    assert _pair(desc((1, 1, 2, 3), 4)) == (0, 3)
    # arity gate n >= 3 of the sum-of-two-weights cylinder: the conic has a
    # pair, but its verdict asserts nothing
    conic = desc((1, 1, 1), 2)
    assert _pair(conic) == (0, 1)
    v = verdict(conic)
    assert (v.status, v.certificate) == (UNKNOWN, None)


def test_sum_of_two_weights_certificates_recheck():
    rng = random.Random(12)
    for _ in range(200):
        ws = tuple(sorted(rng.randrange(1, 15) for _ in range(rng.randrange(4, 7))))
        d = rng.randrange(2, 35)
        dd = desc(ws, (d,))
        pair = _pair(dd)
        assert pair == literal_pair(ws, d), (ws, d)
        if pair is not None:
            assert Projection((pair[0],), ((pair[1],),)).recheck(dd)


# --- codimension-2 projection ------------------------------------------------

def test_codim2_projection_example():
    d = desc((1, 1, 2, 2, 3, 3, 1), (4, 3))
    cert = check_codimc_generalized(d)
    assert cert is not None and cert.recheck(d)
    assert len({*cert.pivots, *cert.partners[0], *cert.partners[1]}) == 6

    # the scan finds pivots 0,1 with weight-2 partners for degree 3 and
    # weight-3 partners for degree 4 (weights re-sorted by the descriptor)
    assert d.weights == (1, 1, 1, 2, 2, 3, 3)
    assert cert == Projection((0, 1), ((3, 5), (4, 6)))


def test_codim2_projection_surprise_presence():
    # degree 6 = 1+5 = 2+4 and degree 8 = 1+7 = 2+6: all six indices distinct
    d = desc((1, 2, 3, 4, 5, 6, 7), (6, 8))
    cert = check_codimc_generalized(d)
    assert cert == Projection((0, 1), ((4, 6), (3, 5)))
    assert cert.recheck(d)


def test_codim2_projection_arity_gate():
    assert check_codimc_generalized(desc((1, 1, 2, 2, 3, 3), (4, 4))) is None


def test_codim2_projection_remark_example():
    # with three weight-1 coordinates the 12 = 9+3 = 11+1 splittings fit
    d = desc((1, 1, 1, 3, 3, 9, 11), (12, 12))
    cert = check_codimc_generalized(d)
    assert cert == Projection((5, 6), ((3, 4), (0, 1)))
    assert cert.recheck(d)
    # with only two weight-1 coordinates the ambient is too small (n = 5)
    assert check_codimc_generalized(desc((1, 1, 3, 3, 9, 11), (12, 12))) is None


# --- generalized codimension-c search ----------------------------------------

def _naive_codim2_scan(ws, d1, d2):
    """Oracle: try all ordered index 6-tuples directly from the theorem
    statement, minus any search structure."""
    from itertools import permutations
    n1 = len(ws)
    found = []
    for i, j, i1, j1, i2, j2 in permutations(range(n1), 6):
        if i > j:
            continue
        if ws[i] + ws[i1] == d1 and ws[j] + ws[j1] == d1 \
                and ws[i] + ws[i2] == d2 and ws[j] + ws[j2] == d2:
            found.append((i, j, i1, j1, i2, j2))
    return min(found) if found else None


def test_codim2_projection_against_naive_six_tuple_scan():
    rng = random.Random(23)
    checked = 0
    while checked < 120:
        ws = tuple(sorted(rng.randrange(1, 8) for _ in range(7)))
        d1 = rng.randrange(2, 15)
        d2 = rng.randrange(d1, 15)
        dd = desc(ws, (d1, d2))
        cert = check_codimc_generalized(dd)
        naive = _naive_codim2_scan(ws, d1, d2)
        assert (cert is None) == (naive is None), (ws, d1, d2)
        if cert is not None:
            # both scans are ascending-lex first-witness searches
            (p, q), (pa, pb) = cert.pivots, cert.partners
            assert (p, q, pa[0], pb[0], pa[1], pb[1]) == naive
        checked += 1


def test_verdict_inconsistency_guard(monkeypatch):
    # force a contradictory table certificate onto a constructively
    # cylindrical descriptor: the engine must refuse rather than pick a side
    from wfci import cylinder as cyl_mod
    fake = TableNonCyl("T2", 1, None)
    monkeypatch.setattr(cyl_mod, "check_nonexistence", lambda d, hit=None: fake)
    with pytest.raises(ClassificationInconsistency):
        cyl_mod.verdict(desc((1, 1, 1, 1, 1), 2))


def test_verdict_carries_its_table_hit(monkeypatch):
    # one tables.match per verdict; a linear cone carries the hit of the
    # outer descriptor, not of its reduction target
    from wfci import cylinder as cyl_mod
    seen = []

    def fake_match(d):
        seen.append(d)
        return ("T9", len(d.weights), None)
    monkeypatch.setattr(cyl_mod.tables, "match", fake_match)
    v = cyl_mod.verdict(desc((1, 2, 3, 4, 5), (6, 8)))
    assert v.table_hit == ("T9", 5, None) and len(seen) == 1
    seen.clear()
    cone = cyl_mod.verdict(desc((1, 1, 2, 3, 4), (4, 6)))
    assert cone.certificate.to_json()["kind"] == "LinearCone"
    assert cone.table_hit == ("T9", 5, None) and len(seen) == 2
    # the hit is not serialized and does not take part in equality
    assert "table_hit" not in json.dumps(cone.to_json())
    assert cone == cyl_mod.CylinderVerdict(cone.certificate, None, cone.notes,
                                           cone.flags)


def test_codimc_generalized_reduces_to_pair_search():
    rng = random.Random(21)
    for _ in range(150):
        ws = tuple(sorted(rng.randrange(1, 12) for _ in range(rng.randrange(4, 7))))
        d = rng.randrange(2, 30)
        dd = desc(ws, (d,))
        got = check_codimc_generalized(dd)
        pair = literal_pair(ws, d)
        if got is None:
            assert pair is None
        else:
            assert (got.pivots[0], got.partners[0][0]) == pair
            assert got.recheck(dd)


def test_codimc_generalized_matches_codim2():
    rng = random.Random(22)
    checked = 0
    while checked < 200:
        ws = tuple(sorted(rng.randrange(1, 9) for _ in range(7)))
        d1 = rng.randrange(2, 17)
        d2 = rng.randrange(d1, 17)
        dd = desc(ws, (d1, d2))
        got = check_codimc_generalized(dd)
        naive = _naive_codim2_scan(ws, d1, d2)
        if naive is None:
            assert got is None
        else:
            i, j, i1, j1, i2, j2 = naive
            assert got == Projection((i, j), ((i1, i2), (j1, j2)))
            assert got.recheck(dd)
        checked += 1


def _codim3_sample(rng, planted):
    """13 to 16 weights.  A planted input holds pivots and partners for all
    three degrees, so it has an assignment; repeated weights give slots more
    than one candidate, which the search must back out of."""
    if planted:
        pivots = rng.sample(range(1, 7), 3)
        ds = rng.sample(range(8, 24), 3)
        ws = pivots + [d - p for d in ds for p in pivots]
    else:
        ws = rng.sample(range(1, 40), rng.randrange(12, 14))
        ds = rng.sample(range(3, 60), 3)
    return desc(ws + rng.sample(ws, rng.randrange(1, 4)), ds)


def test_codimc_generalized_matches_literal_codim3_oracle():
    rng = random.Random(33)
    hits = 0
    for k in range(120):
        dd = _codim3_sample(rng, k % 2)
        assert len(dd.weights) >= 13
        got = check_codimc_generalized(dd)
        literal = literal_codim3_assignment(dd.weights, dd.multidegree)
        if literal is None:
            assert got is None
        else:
            hits += 1
            assert got == Projection(*literal)
            assert got.recheck(dd)
    assert hits >= 60


def test_codimc_generalized_c3_golden():
    d = desc((1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 5), (5, 6, 7))
    cert = check_codimc_generalized(d)
    assert cert == Projection(
        pivots=(3, 9, 10),
        partners=((6, 11, 12), (0, 4, 7), (1, 5, 8)))
    assert cert.recheck(d)
    # below the arity bound nothing is claimed
    small = desc((1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4), (5, 6, 7))
    assert check_codimc_generalized(small) is None


# --- normal form --------------------------------------------------------------

def test_normal_form_already_normal():
    F = GradedPolynomial((1, 1, 1), 2, {(1, 1, 0): 1, (0, 0, 2): 1})
    nf = normal_form(F, (0, 1))
    assert nf.change_sequence == ()
    assert nf.result == F
    assert nf.remainder == GradedPolynomial((1, 1, 1), 2, {(0, 0, 2): 1})


def test_normal_form_quadratic_branch_adjoins_one_root():
    F = GradedPolynomial((1, 1, 1), 2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    nf = normal_form(F, (0, 1))
    assert nf.extension_used == -1
    cross = tuple(int(k < 2) for k in range(3))
    assert nf.result.coefficient(cross) == Coeff.of(1)
    assert not nf.remainder.involves(0) and not nf.remainder.involves(1)
    assert replay_changes(F, nf.change_sequence) == nf.result


def test_normal_form_elimination_example():
    # x2*x3 + x0^2*x3 + x1^4 over weights (1,1,2,2), degree 4
    F = GradedPolynomial((1, 1, 2, 2), 4,
                         {(0, 0, 1, 1): 1, (2, 0, 0, 1): 1, (0, 4, 0, 0): 1})
    nf = normal_form(F, (2, 3))
    assert nf.result == GradedPolynomial((1, 1, 2, 2), 4,
                                         {(0, 0, 1, 1): 1, (0, 4, 0, 0): 1})
    assert nf.remainder == GradedPolynomial((1, 1, 2, 2), 4, {(0, 4, 0, 0): 1})
    assert replay_changes(F, nf.change_sequence) == nf.result


def test_normal_form_reindexes_when_needed():
    # no x2*x3 term, but x0*x2 enables the pair (0, 2)
    F = GradedPolynomial((2, 2, 2, 2), 4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): 1})
    nf = normal_form(F, (2, 3))
    assert nf.pair == (0, 2) and nf.requested_pair == (2, 3)
    assert replay_changes(F, nf.change_sequence) == nf.result


def test_normal_form_error_without_enabling_term():
    F = GradedPolynomial((1, 1, 2, 2), 4, {(4, 0, 0, 0): 1})
    with pytest.raises(NormalFormError):
        normal_form(F, (2, 3))
    with pytest.raises(ValueError):
        normal_form(F, (0, 1))   # weights do not sum to the degree


def test_normal_form_idempotent_on_normal_input():
    F = generic_member((1, 2, 2, 3), 5, seed=1)
    nf = normal_form(F, (1, 3))
    again = normal_form(nf.result, nf.pair)
    assert again.change_sequence == ()
    assert again.result == nf.result


def test_normal_form_seeded_generic_members():
    rng = random.Random(909)
    done = 0
    while done < 40:
        length = rng.choice([4, 5, 6])
        ws = tuple(sorted(rng.randrange(1, 11) for _ in range(length)))
        pairs = [(i, j) for i in range(length) for j in range(i + 1, length)]
        i, j = pairs[rng.randrange(len(pairs))]
        d = ws[i] + ws[j]
        try:
            F = generic_member(ws, d, seed=rng.randrange(10 ** 6))
        except ValueError:
            continue
        nf = normal_form(F, (i, j))
        u, v = nf.pair
        cross = tuple(int(k in (u, v)) for k in range(length))
        assert nf.result.coefficient(cross) == Coeff.of(1)
        assert not nf.remainder.involves(u) and not nf.remainder.involves(v)
        assert set(nf.result.terms) == set(nf.remainder.terms) | {cross}
        assert replay_changes(F, nf.change_sequence) == nf.result
        assert literal_replay(dict(F.terms), nf.change_sequence, length) == dict(nf.result.terms)
        done += 1

    # members whose coefficients carry one radicand, as the file inputs of the
    # normal-form golden set; a discriminant that needs a second root refuses
    rng = random.Random(910)
    seen = {"done": 0, "radical_scale": 0, "adjoined": 0, "refused": 0}
    while seen["done"] < 60:
        ws = [rng.randint(1, 6) for _ in range(rng.randint(3, 5))]
        i, j = sorted(rng.sample(range(len(ws)), 2))
        if rng.random() < 0.5:
            ws[j] = ws[i]
        m = rng.choice((2, 3, 5, -1, 7))
        terms = {}
        for exps, c in generic_member(ws, ws[i] + ws[j], rng.randrange(1000)).terms.items():
            if rng.random() < 0.3:
                c = Coeff(c.base, Fraction(rng.randint(-5, 5), rng.randint(1, 4)), m)
            terms[exps] = c
        F = GradedPolynomial(ws, ws[i] + ws[j], terms)
        try:
            nf = normal_form(F, (i, j))
        except ValueError as exc:
            assert "radic" in str(exc)
            seen["refused"] += 1
            continue
        assert set(nf.result.terms) == set(nf.remainder.terms) | {
            tuple(int(k in nf.pair) for k in range(len(ws)))}
        assert replay_changes(F, nf.change_sequence) == nf.result
        assert literal_replay(terms, nf.change_sequence, len(ws)) == dict(nf.result.terms)
        seen["done"] += 1
        seen["adjoined"] += nf.extension_used is not None
        seen["radical_scale"] += any(op.kind == "scale" and not op.factor.is_rational
                                     for op in nf.change_sequence)
    assert min(seen.values()) >= 5, seen


# --- cylinder charts ----------------------------------------------------------

def test_cylinder_chart_quadric_surface():
    d = desc((1, 1, 1, 1), 2)
    nf = normal_form(generic_member((1, 1, 1, 1), 2, seed=3), (0, 1))
    cyl = cylinder_chart(d, nf)
    assert cyl.projected_weights == (1, 1, 1)
    assert (cyl.chart.torus_rank, cyl.chart.affine_rank) == (0, 2)
    assert cyl.polar == ((0, Fraction(2)),)


def test_cylinder_chart_quadric_threefold():
    d = desc((1, 1, 1, 1, 1), 2)
    nf = normal_form(generic_member((1, 1, 1, 1, 1), 2, seed=3), (0, 1))
    cyl = cylinder_chart(d, nf)
    assert cyl.chart.affine_rank == 3    # an A^3 chart: a weight-1 coordinate exists


def test_cylinder_chart_degree4_del_pezzo():
    d = desc((1, 1, 2, 3), 4)
    nf = normal_form(generic_member((1, 1, 2, 3), 4, seed=5), (0, 3))
    cyl = cylinder_chart(d, nf)
    assert cyl.projected_weights == (1, 1, 2)
    assert cyl.pair == (0, 3)
    assert (cyl.to_json()["kept"], cyl.to_json()["dropped"]) == (0, 3)
    index = 7 - 4
    assert sum(c * d.weights[i] for i, c in cyl.polar) == index
    assert all(c > 0 for _, c in cyl.polar)


def test_cylinder_chart_polar_identity_random():
    rng = random.Random(31)
    done = 0
    while done < 60:
        ws = tuple(sorted(rng.randrange(1, 11) for _ in range(rng.choice([4, 5]))))
        dd = desc(ws, (ws[0] + ws[-1],))
        pair = (0, len(ws) - 1)
        try:
            F = generic_member(ws, dd.multidegree[0], seed=rng.randrange(10 ** 6))
        except ValueError:
            continue
        nf = normal_form(F, pair)
        cyl = cylinder_chart(dd, nf)
        index = sum(ws) - dd.multidegree[0]
        assert sum(c * ws[i] for i, c in cyl.polar) == index
        assert cyl.chart.torus_rank + cyl.chart.affine_rank == dd.dim
        assert cyl.chart.affine_rank >= 1
        done += 1


# --- table-backed non-cylindricity ---------------------------------------------

def test_check_nonexistence_examples():
    cert = check_nonexistence(desc((1, 7, 12, 18), 36))
    assert cert == TableNonCyl("T1", 4, 2)
    assert cert.to_json()["alpha"] is None
    cert = check_nonexistence(desc((1, 2, 2, 3, 3), (4, 6)))
    assert cert is not None and (cert.table_id, cert.row_id) == ("T2", 1)
    assert cert.to_json()["alpha"] == {"kind": "AlphaAtLeastOne", "citation": CIT_ALPHA}
    assert check_nonexistence(desc((1, 1, 2, 2, 3), (4, 4))) is None      # T3 row 1
    assert check_nonexistence(desc((1, 2, 3, 4, 5), (6, 8))) is None      # T2 row 2
    # series rows below n = 3 carry no statement (except family 4)
    assert check_nonexistence(desc((1, 1, 1, 1), 3)) is None              # T1 row 1, n=1
    assert check_nonexistence(desc((1, 1, 2, 3), 6)) == TableNonCyl("T1", 4, 1)


# --- assembled verdicts ---------------------------------------------------------

def test_verdict_spot_checks():
    v = verdict(desc((1, 1, 1, 1, 1), 2))
    assert v.status == CYLINDRICAL and v.certificate == Projection((0,), ((1,),))

    v = verdict(desc((1, 13, 22, 33), 66))     # family 4 at n = 3
    assert v.status == NOT_CYLINDRICAL
    assert v.certificate == TableNonCyl("T1", 4, 3)

    v = verdict(desc((1, 1, 2, 2, 3), (4, 4)))  # T3 row 1 at n = 2
    assert v.status == UNKNOWN
    assert any("alpha" in note for note in v.notes)

    v = verdict(desc((1, 2, 3, 4, 5), (6, 8)))  # T2 row 2: coefficient-dependent
    assert v.status == UNKNOWN

    v = verdict(desc((1, 1, 1, 2), 2))          # linear cone over P^2
    assert v.status == CYLINDRICAL
    assert v.certificate.to_json()["kind"] == "LinearCone"


# --- the standing of a certificate ----------------------------------------------

C3 = Projection((0, 1, 2), ((3, 4, 5), (6, 7, 8), (9, 10, 11)))
STANDINGS = {
    "none": (None, UNKNOWN, ()),
    "projection-c1": (Projection((0,), ((3,),)), CYLINDRICAL, (CIT_SUM_OF_TWO,)),
    "projection-c2": (Projection((0, 1), ((2, 3), (4, 5))), CYLINDRICAL, (CIT_CODIM2,)),
    "projection-c3": (C3, UNKNOWN, (CIT_CODIMC,)),
    "t1-row-4": (TableNonCyl("T1", 4, 1), NOT_CYLINDRICAL, (CIT_FAMILY4_NONCYL,)),
    "t1-series": (TableNonCyl("T1", 7, 3), NOT_CYLINDRICAL, (CIT_SERIES_NONCYL,)),
    "t2": (TableNonCyl("T2", 7, None), NOT_CYLINDRICAL, (CIT_ALPHA,)),
    "t3": (TableNonCyl("T3", 2, 4), NOT_CYLINDRICAL, (CIT_ALPHA,)),
    "wps-chart": (wps_cylinder((1, 2, 3)), CYLINDRICAL, (CIT_WPS_CHART,)),
    "cone-over-chart": (LinearCone(0, 3, (1, 1, 2), (), wps_cylinder((1, 1, 2))),
                        CYLINDRICAL, (CIT_LINEAR_CONE, CIT_WPS_CHART)),
    "cone-over-table": (LinearCone(0, 0, (1, 7, 12, 18), (36,), TableNonCyl("T1", 4, 2)),
                        NOT_CYLINDRICAL, (CIT_LINEAR_CONE, CIT_FAMILY4_NONCYL)),
    "cone-over-undecided": (LinearCone(0, 0, (1,) * 12, (2, 2, 2), None), UNKNOWN,
                            (CIT_LINEAR_CONE,)),
    "cone-over-c3": (LinearCone(0, 12, (1,) * 12, (2, 2, 2), C3), UNKNOWN,
                     (CIT_LINEAR_CONE,)),
    "cone-over-cone": (LinearCone(0, 0, (1, 1, 1, 2), (2,),
                                  LinearCone(0, 0, (1, 1, 2), (), wps_cylinder((1, 1, 2)))),
                       CYLINDRICAL, (CIT_LINEAR_CONE, CIT_LINEAR_CONE, CIT_WPS_CHART)),
}


@pytest.mark.parametrize("cert, status, citations", STANDINGS.values(), ids=STANDINGS)
def test_a_verdict_stands_as_its_certificate(cert, status, citations):
    assert standing(cert) == (status, citations)
    v = CylinderVerdict(cert)
    assert (v.status, v.citations) == (status, citations)
    assert (v.to_json()["status"], v.to_json()["citations"]) == (status, list(citations))


def test_a_certificate_of_no_known_kind_is_refused():
    for cert in (object(), "Cylindrical", verdict(desc((1, 1, 1, 1, 1), 2))):
        with pytest.raises(TypeError):
            standing(cert)
        with pytest.raises(TypeError):
            CylinderVerdict(cert).status
    with pytest.raises(TypeError):
        standing(LinearCone(0, 0, (1, 1, 2), (), object()))


@pytest.mark.parametrize("k", range(-5, 6))
def test_adjunction_data_follows_from_the_canonical_coefficient(k):
    a = AdjunctionData(k)
    assert a.canonical_coefficient == k
    if k < 0:
        assert (a.amplitude, a.fano_index) == (FANO, -k)
    elif k == 0:
        assert (a.amplitude, a.fano_index) == (CALABI_YAU, None)
    else:
        assert (a.amplitude, a.fano_index) == (GENERAL_TYPE, None)
    assert a == AdjunctionData(k) and vars(a) == {"canonical_coefficient": k}


def test_verdict_conjectural_flag_for_del_pezzo_hypersurfaces():
    v = verdict(desc((1, 1, 2, 3), 4))
    assert v.status == CYLINDRICAL and v.conjectural_prediction is True
    v = verdict(desc((1, 1, 2, 3), 6))
    assert v.status == NOT_CYLINDRICAL and v.conjectural_prediction is False
    # not a del Pezzo hypersurface: no prediction
    v = verdict(desc((1, 2, 2, 3, 3), (4, 6)))
    assert v.conjectural_prediction is None


def test_verdict_gates_on_failed_hypotheses():
    # a table row whose printed weights are not well-formed at this parameter
    # (row 16 at odd n): the table match must not become a certificate
    d = tables.instantiate("T1", 16, 3)
    assert d.weights == (7, 78, 117, 172)
    v = verdict(d)
    assert v.status == UNKNOWN
    assert v.flags["well_formed"] is False
    assert any("hypotheses fail" in note for note in v.notes)


def test_verdict_disjointness_over_all_tables():
    # every certificate fires through verdict() without a contradiction
    for row in tables.load_rows():
        for n in ([1] if row.sporadic else range(1, 31)):
            d = tables.instantiate(row.table_id, row.row_id, n)
            v = verdict(d)   # raises ClassificationInconsistency on conflict
            if v.status == CYLINDRICAL:
                # a constructive cylinder inside the non-cylindricity tables
                # would be exactly such a contradiction unless gated by n <= 2
                hit = tables.match(d)
                assert hit[0] == "T1" and hit[2] is not None and hit[2] <= 2, d


def _projections(d, cert):
    """The projection certificates in `cert`, each with the descriptor it
    certifies: a linear cone's inner certificate with its target."""
    if isinstance(cert, LinearCone):
        if not cert.target_degrees:
            return []
        return _projections(desc(cert.target_weights, cert.target_degrees), cert.inner)
    return [(cert, d)] if isinstance(cert, Projection) else []


def test_verdict_certificates_recheck():
    rng = random.Random(606)
    sample = []
    for _ in range(150):
        ws = tuple(sorted(rng.randrange(1, 13) for _ in range(rng.randrange(4, 7))))
        c = rng.choice([1, 2])
        if c >= len(ws) - 1:
            continue
        sample.append(desc(ws, tuple(sorted(rng.randrange(2, 25) for _ in range(c)))))
    seen = set()
    for d in sample + _verdict_golden_sample():
        v = verdict(d)
        for cert, target in _projections(d, v.certificate):
            assert cert.recheck(target), (d, cert)
            seen.add((target.codim, v.status, isinstance(v.certificate, LinearCone)))
    # every status a projection is emitted under, inside linear cones too
    assert {(1, CYLINDRICAL, False), (2, CYLINDRICAL, False), (3, UNKNOWN, False),
            (1, CYLINDRICAL, True), (2, CYLINDRICAL, True)} <= seen


def test_verdict_emits_the_search_result_unconverted():
    found = {1: 0, 2: 0}
    for d in _verdict_golden_sample():
        v = verdict(d)
        if v.status == CYLINDRICAL and d.codim <= 2 and not v.flags["linear_cones"]:
            assert v.certificate == check_codimc_generalized(d), d
            found[d.codim] += 1
    assert found == {1: 90, 2: 12}


_C3 = desc((1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 6), (5, 5, 7))
_C3_CERT = Projection((0, 6, 9), ((10, 11, 13), (3, 4, 12), (1, 2, 7)))

# (certificate, descriptor) pairs that are right, then wrong ones made from
# them: a partner replaced by a non-partner, a repeated index (with every sum
# still right), a pivot or partner tuple of the wrong length, an index out of
# range, and a descriptor of another codimension
RIGHT_CERTIFICATES = [
    (Projection((0,), ((3,),)), desc((1, 1, 2, 3), 4)),
    (Projection((2,), ((3,),)), desc((1, 1, 2, 2), 4)),
    (Projection((0, 1), ((4, 6), (3, 5))), desc((1, 2, 3, 4, 5, 6, 7), (6, 8))),
    (_C3_CERT, _C3),
]
WRONG_CERTIFICATES = [
    (Projection((0,), ((2,),)), desc((1, 1, 2, 3), 4)),
    (Projection((2,), ((2,),)), desc((1, 1, 2, 2), 4)),
    (Projection((-1,), ((0,),)), desc((1, 1, 2, 3), 4)),
    (Projection((0,), ((4,),)), desc((1, 1, 2, 3), 4)),
    (Projection((2,), ((3,),)), desc((1, 1, 2, 2, 3), (4, 4))),
    (Projection((0, 1), ((2, 6), (3, 5))), desc((1, 2, 3, 4, 5, 6, 7), (6, 8))),
    (Projection((0, 1), ((4, 4), (3, 3))), desc((1, 2, 3, 4, 5, 6, 7), (6, 6))),
    (Projection((0, 1), ((4,), (3, 5))), desc((1, 2, 3, 4, 5, 6, 7), (6, 8))),
    (Projection((0, 1), ((4, 6, 2), (3, 5, 2))), desc((1, 2, 3, 4, 5, 6, 7), (6, 8))),
    (Projection((0, 1), ((4, 6), (3, 5))), desc((1, 2, 3, 4, 5, 6, 7), (6,))),
    (Projection((0, 1), ((4, 6), (3, 5))), _C3),
    (Projection((0, 6, 9), ((8, 11, 13), (3, 4, 12), (1, 2, 7))), _C3),
    (Projection((0, 6, 9), ((11, 11, 13), (3, 4, 12), (1, 2, 7))), _C3),
    (Projection((0, 6), ((10, 11, 13), (3, 4, 12))), _C3),
    (Projection((0, 6, 9, 5), _C3_CERT.partners), _C3),
    (Projection((0, 6, 9), ((10, 11), (3, 4), (1, 2))), _C3),
    (_C3_CERT, desc(_C3.weights, (5, 5))),
    (Projection((0,), ((3,),)), _C3),
]


@pytest.mark.parametrize("cert, dd", RIGHT_CERTIFICATES)
def test_right_certificates_recheck(cert, dd):
    assert cert.recheck(dd)


@pytest.mark.parametrize("cert, dd", WRONG_CERTIFICATES)
def test_wrong_certificates_recheck_false(cert, dd):
    assert cert.recheck(dd) is False


def test_verdict_table_notes():
    # under the hypotheses, each table row without a certificate says why
    v = verdict(desc((1, 1, 2, 2, 3), (4, 4)))     # T3 row 1 at n = 2
    assert v.table_hit == ("T3", 1, 2)
    assert v.notes == ("the (2n,2n) series in P(1,1,n,n,2n-1) has alpha < 1",)
    v = verdict(tables.instantiate("T1", 1, 2))   # X(15) in P(1,4,5,7)
    assert (v.status, v.table_hit) == (UNKNOWN, ("T1", 1, 2))
    assert v.notes[0] == ("infinite-series row at n <= 2: no non-cylindricity "
                          "statement applies at this parameter")


def test_verdict_codim3_is_conditional():
    # an assignment exists, but with no quasi-smoothness criterion beyond
    # codimension 2 the verdict stays Unknown and marks the certificate
    # as conditional in the notes
    d = desc((1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 6), (5, 5, 7))
    v = verdict(d)
    assert v.status == UNKNOWN
    assert v.certificate == Projection(
        pivots=(0, 6, 9), partners=((10, 11, 13), (3, 4, 12), (1, 2, 7)))
    assert v.certificate.recheck(d)
    assert any("codimension >= 3" in note for note in v.notes)


def test_wps_verdict():
    v = wps_verdict((3, 4, 5))
    assert v.status == CYLINDRICAL
    assert v.certificate.to_json()["kind"] == "WpsChart"


def test_verdict_json_schema():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources
    schema = json.loads(resources.files("wfci").joinpath(
        "schemas/verdict.schema.json").read_text())
    for d in [desc((1, 1, 1, 1, 1), 2), desc((1, 7, 12, 18), 36),
              desc((1, 2, 3, 4, 5), (6, 8)), desc((1, 1, 1, 2), 2)]:
        jsonschema.validate(verdict(d).to_json(), schema)


# --- verdict golden bytes ----------------------------------------------------

def _planted(rng, c, extra):
    """Weights holding c pivots and, for each degree, a partner of every
    pivot (the projection shape), plus `extra` random weights."""
    pivots = [rng.randrange(1, 4) for _ in range(c)]
    ds = [max(pivots) + rng.randrange(1, 5) for _ in range(c)]
    ws = pivots + [d - p for d in ds for p in pivots]
    ws += [rng.choice((1, 1, 2, 3, 5)) for _ in range(extra)]
    return desc(ws, ds)


def _verdict_golden_sample():
    """Deterministic descriptors reaching every certificate kind: table
    instantiations, sum-of-two and projection-shaped inputs, random inputs
    (linear cones among them) and P^12 with degrees (2, 2, 2)."""
    rng = random.Random(2718)
    out = [tables.instantiate(row.table_id, row.row_id, n)
           for row in tables.load_rows()
           for n in ([1] if row.sporadic else range(1, 9))]
    for _ in range(400):
        ws = [rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 7, 9, 11))
              for _ in range(rng.choice([4, 4, 5, 6]))]
        i, j = rng.sample(range(len(ws)), 2)
        out.append(desc(ws, (ws[i] + ws[j],)))
    for c, count in ((2, 200), (3, 60)):
        for _ in range(count):
            out.append(_planted(rng, c, rng.choice((0, 1))))
    for _ in range(400):
        c = rng.choice([1, 1, 2, 2, 3])
        ws = [rng.randrange(1, 10) for _ in range(rng.randrange(c + 3, c + 8))]
        out.append(desc(ws, [rng.randrange(1, 20) for _ in range(c)]))
    out.append(desc((1,) * 13, (2, 2, 2)))
    return out


# sha256 of the sorted-key verdict JSON lines of the sample, recorded before
# the certificate searches were folded into one
VERDICT_GOLDEN_SHA256 = "d847e720708f2514048d79918c212eea3eb773f0c196ad8eb3775ce9bd3d015c"


def test_verdict_golden_bytes():
    sample = _verdict_golden_sample()
    lines = []
    kinds = set()
    conjectural = set()
    wps_cones = 0
    for d in sample:
        v = verdict(d)
        wps_cones += isinstance(v.certificate, LinearCone) \
            and isinstance(v.certificate.inner, WpsChart)
        doc = v.to_json()
        lines.append(json.dumps(doc, sort_keys=True))
        cert = doc["certificate"]
        kinds.add((cert and cert["kind"], doc["status"]))
        conjectural.add((cert and cert["kind"], doc["conjectural"]))
    assert {("SumOfTwoWeights", CYLINDRICAL), ("Codim2Projection", CYLINDRICAL),
            ("CodimCGeneralized", UNKNOWN), ("LinearCone", CYLINDRICAL),
            ("TableNonCyl", NOT_CYLINDRICAL), (None, UNKNOWN)} <= kinds
    assert ("SumOfTwoWeights", True) in conjectural
    assert {c for _, c in conjectural} == {True, False, None}
    # the pin covers the WPS chart record, reached through linear cones
    assert wps_cones == 93
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == VERDICT_GOLDEN_SHA256, (len(sample), digest)
