import random

import pytest

from wfci.intarith import (bezout, ext_gcd, factorize, gcd_many, is_primitive,
                           lcm_many, mat_det, mat_inverse_unimodular,
                           unimodular_complete)


def test_gcd_many_examples():
    assert gcd_many([6, 10, 15]) == 1
    assert gcd_many([4, 6]) == 2
    assert gcd_many([7]) == 7


def test_gcd_many_rejects_bad_input():
    with pytest.raises(ValueError):
        gcd_many([])
    with pytest.raises(ValueError):
        gcd_many([0, 3])


def test_lcm_many():
    assert lcm_many([4, 6]) == 12
    assert lcm_many([1, 1, 1]) == 1
    assert lcm_many([2, 3, 5]) == 30


def test_bezout_examples():
    g, coeffs = bezout([2, 3])
    assert g == 1 and coeffs == (-1, 1)
    g, coeffs = bezout([6, 10, 15])
    assert g == 1
    assert sum(a * b for a, b in zip([6, 10, 15], coeffs)) == 1
    g, coeffs = bezout([4, 6])
    assert g == 2
    assert sum(a * b for a, b in zip([4, 6], coeffs)) == 2


def test_bezout_identity_random():
    rng = random.Random(20240811)
    for _ in range(300):
        values = [rng.randrange(1, 500) for _ in range(rng.randrange(1, 7))]
        g, coeffs = bezout(values)
        assert g == gcd_many(values)
        assert sum(a * b for a, b in zip(values, coeffs)) == g


def test_factorize():
    assert factorize(1) == []
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    for n in range(1, 2000):
        fs = factorize(n)
        prod = 1
        for p, e in fs:
            assert e >= 1 and all(p % q for q in range(2, p))
            prod *= p ** e
        assert prod == n and [p for p, _ in fs] == sorted({p for p, _ in fs})
    with pytest.raises(ValueError):
        factorize(0)


def test_ext_gcd_signs():
    for a, b in [(12, 18), (18, 12), (7, 0), (0, 7), (1, 1)]:
        g, x, y = ext_gcd(a, b)
        assert g >= 0 and a * x + b * y == g


def test_unimodular_complete_examples():
    m = unimodular_complete((-1, 1))
    assert m[0] == (-1, 1) and abs(mat_det(m)) == 1
    assert unimodular_complete((1, 0, 0)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    m = unimodular_complete((3, 4, 5))
    assert m[0] == (3, 4, 5) and abs(mat_det(m)) == 1


def test_unimodular_complete_rejects_non_primitive():
    with pytest.raises(ValueError):
        unimodular_complete((2, 4))
    with pytest.raises(ValueError):
        unimodular_complete((0, 0))


def test_unimodular_complete_random():
    rng = random.Random(7)
    done = 0
    while done < 250:
        length = rng.randrange(2, 9)
        vec = tuple(rng.randrange(-50, 51) for _ in range(length))
        if not is_primitive(vec):
            continue
        m = unimodular_complete(vec)
        assert m[0] == vec
        assert abs(mat_det(m)) == 1
        done += 1


def test_matrix_inverse_unimodular():
    m = unimodular_complete((3, 4, 5))
    inv = mat_inverse_unimodular(m)
    n = len(m)
    prod = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]
    assert prod == [[int(i == j) for j in range(n)] for i in range(n)]


def test_mat_det_known():
    assert mat_det(((2, 0), (0, 3))) == 6
    assert mat_det(((0, 1), (1, 0))) == -1
    assert mat_det(((1, 2, 3), (4, 5, 6), (7, 8, 9))) == 0
