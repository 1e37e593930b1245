import random
from fractions import Fraction

import pytest

from wfci.wps import (WeightVector, canonical_degree, chart_relation_holds,
                      is_well_formed, monomial_apply, normalize,
                      singular_strata, torus_chart, wps_cylinder)
from wfci.intarith import mat_det, mat_inverse_unimodular

from oracles import hilbert_dim


def test_weight_vector_sorts_and_validates():
    w = WeightVector.of((5, 1, 3))
    assert w.weights == (1, 3, 5)
    assert w == WeightVector.of((1, 3, 5)) and hash(w) == hash(WeightVector.of((1, 3, 5)))
    assert w.n == 2
    with pytest.raises(ValueError):
        WeightVector.of((4,))
    with pytest.raises(ValueError):
        WeightVector.of((0, 1))


def test_is_well_formed_examples():
    assert is_well_formed((1, 1, 2, 2))
    assert not is_well_formed((2, 2, 3))
    assert is_well_formed((3, 4, 5))


def test_normalize_examples():
    assert normalize((2, 2, 2)).output.weights == (1, 1, 1)
    assert normalize((1, 2, 2)).output.weights == (1, 1, 1)
    assert normalize((2, 3, 4)).output.weights == (1, 2, 3)
    assert normalize((1, 1, 2, 2)).output.weights == (1, 1, 2, 2)


def test_normalize_trace_fields():
    t = normalize((2, 2, 2))
    assert t.common_factor_removed == 2
    t = normalize((2, 3, 4))
    assert t.common_factor_removed == 1
    assert t.divisors == (1, 2, 1)
    assert t.multipliers == (2, 1, 2)
    assert t.reduced == (1, 3, 2)


def test_normalize_idempotent_and_well_formed_random():
    rng = random.Random(100)
    for _ in range(400):
        ws = tuple(rng.randrange(1, 31) for _ in range(rng.randrange(3, 7)))
        out = normalize(ws).output
        assert is_well_formed(out)
        assert normalize(out).output.weights == out.weights
        assert canonical_degree(out) == -sum(out.weights)


def test_normalize_hilbert_series_oracle():
    # the reduction multiplies degrees by (common factor) * lcm(divisors):
    # dimensions of the graded pieces must agree under that twist
    from wfci.intarith import lcm_many
    for ws in [(2, 3, 4), (1, 2, 2), (2, 2, 2), (6, 10, 15), (2, 4, 5, 6)]:
        t = normalize(ws)
        e = lcm_many(t.divisors)
        step = t.common_factor_removed * e
        for m in range(0, 41):
            assert hilbert_dim(ws, step * m) == hilbert_dim(t.output.weights, m), \
                (ws, m)


def test_strata_invariant_under_permutation():
    rng = random.Random(2025)
    for _ in range(200):
        ws = [rng.randrange(1, 31) for _ in range(rng.randrange(3, 7))]
        out = normalize(ws).output
        base = {(s.stratum_gcd, tuple(sorted(out.weights[i] for i in s.indices)))
                for s in singular_strata(out)}
        rng.shuffle(ws)
        out2 = normalize(ws).output
        other = {(s.stratum_gcd, tuple(sorted(out2.weights[i] for i in s.indices)))
                 for s in singular_strata(out2)}
        assert base == other


def test_singular_strata_examples():
    strata = singular_strata((1, 1, 2, 2))
    assert [(sorted(s.indices), s.stratum_gcd) for s in strata] == [([2, 3], 2)]
    assert singular_strata((1, 1, 1)) == []
    strata = singular_strata((3, 4, 5))
    assert [(sorted(s.indices), s.stratum_gcd) for s in strata] == \
        [([0], 3), ([1], 4), ([2], 5)]
    with pytest.raises(ValueError):
        singular_strata((2, 2, 3))


def test_strata_are_maximal():
    # (1, 1, 6, 6): one stratum {2,3} with gcd 6; smaller gcd-2 and gcd-3
    # subsets coincide with it and singletons are absorbed
    strata = singular_strata((1, 1, 6, 6))
    assert [(sorted(s.indices), s.stratum_gcd) for s in strata] == [([2, 3], 6)]


def test_canonical_degree_examples():
    assert canonical_degree((1, 1, 1, 1)) == -4
    assert canonical_degree((1, 2, 3, 4, 5)) == -15
    assert canonical_degree((1, 1, 2, 2)) == -6
    with pytest.raises(ValueError):
        canonical_degree((2, 2, 3))


def test_torus_chart_examples():
    chart = torus_chart((1, 1), (0, 1))
    assert (chart.torus_rank, chart.affine_rank) == (1, 0)

    chart = torus_chart((2, 3, 5), (0, 1))
    assert (chart.torus_rank, chart.affine_rank) == (1, 1)
    assert chart.exponent_matrix[0] == (-1, 1)   # Bezout row of (2, 3)
    assert chart_relation_holds(chart)

    chart = torus_chart((1, 4, 6), (0,))
    assert (chart.torus_rank, chart.affine_rank) == (0, 2)

    with pytest.raises(ValueError):
        torus_chart((2, 4, 6), (0, 1))


def test_chart_product_relation_random():
    rng = random.Random(9)
    done = 0
    while done < 150:
        n1 = rng.randrange(2, 7)
        ws = tuple(rng.randrange(1, 20) for _ in range(n1))
        size = rng.randrange(1, n1 + 1)
        subset = tuple(sorted(rng.sample(range(n1), size)))
        from wfci.intarith import gcd_many
        if gcd_many(tuple(ws[i] for i in subset)) != 1:
            continue
        chart = torus_chart(ws, subset)
        assert abs(mat_det(chart.exponent_matrix)) == 1
        assert chart_relation_holds(chart)
        # explicit monomial substitution: the inverse matrix maps the Bezout
        # exponent vector to the first unit vector
        inv = mat_inverse_unimodular(chart.exponent_matrix)
        image = monomial_apply(chart.exponent_matrix[0], inv)
        assert image == tuple(int(k == 0) for k in range(len(inv)))
        done += 1


def test_wps_cylinder_examples():
    cyl = wps_cylinder((1, 1, 1))
    assert cyl.chart.chart_subset == (0,)
    assert cyl.chart.affine_rank == 2
    assert cyl.polar == ((0, Fraction(3)),)

    cyl = wps_cylinder((3, 4, 5))
    assert cyl.chart.chart_subset == (0, 1)
    assert sum(c * (3, 4, 5)[i] for i, c in cyl.polar) == 12
    assert all(c > 0 for _, c in cyl.polar)

    # weight-1 coordinate present: the full affine chart appears
    cyl = wps_cylinder((1, 7, 12, 18))
    assert cyl.chart.chart_subset == (0,)
    assert cyl.chart.affine_rank == 3


def test_wps_cylinder_normalizes_first():
    cyl = wps_cylinder((2, 2))
    assert cyl.trace.output.weights == (1, 1)
    assert cyl.chart.affine_rank >= 1


def test_wps_cylinder_polar_is_anticanonical():
    rng = random.Random(77)
    for _ in range(100):
        ws = tuple(rng.randrange(1, 25) for _ in range(rng.randrange(2, 6)))
        cyl = wps_cylinder(ws)
        out = cyl.trace.output.weights
        assert sum(c * out[i] for i, c in cyl.polar) == sum(out)
        assert all(c > 0 for _, c in cyl.polar)
        assert cyl.chart.affine_rank >= 1
