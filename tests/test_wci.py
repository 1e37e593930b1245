import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from wfci.intarith import gcd_many
from wfci.wci import (WciDescriptor, adjunction, general_qs, intersection_number,
                      linear_cone_flags, qs_ci2_fast, qs_hypersurface_fast,
                      well_formed_ci, CALABI_YAU, FANO, GENERAL_TYPE)
from wfci.wps import is_well_formed

from oracles import brute_qs_ci2, brute_qs_hypersurface, lattice_degree


def desc(ws, ds):
    return WciDescriptor.of(ws, ds)


# --- descriptor basics ------------------------------------------------------

def test_descriptor_sorts_and_validates():
    d = desc((5, 1, 3, 2, 4), (8, 6))
    assert d.weights == (1, 2, 3, 4, 5)
    assert d.multidegree == (6, 8)
    assert (d.codim, d.dim) == (2, 2)
    with pytest.raises(ValueError):
        desc((1, 1), (2,))          # codim = n
    with pytest.raises(ValueError):
        desc((1, 1, 1), (0,))


def test_descriptor_identity_ignores_input_order():
    a, b = desc((3, 1, 2), (4,)), desc((1, 2, 3), (4,))
    assert a == b and hash(a) == hash(b)
    assert len({desc((5, 1, 3, 2, 4), (8, 6)), desc((1, 2, 3, 4, 5), (6, 8))}) == 1


# --- well-formedness --------------------------------------------------------

def test_well_formed_hypersurface_examples():
    assert well_formed_ci(desc((2, 3, 4, 5), 12))
    assert not well_formed_ci(desc((1, 1, 2, 2), 3))
    assert well_formed_ci(desc((1, 1, 1, 1), 3))


def test_well_formed_ci_examples():
    assert well_formed_ci(desc((1, 2, 2, 3, 3), (4, 6)))
    assert well_formed_ci(desc((1, 2, 3, 4, 5), (6, 8)))
    assert well_formed_ci(desc((2, 2, 3, 3, 3), (6, 6)))


def test_well_formed_ci_agrees_with_hypersurface_criterion():
    # Iano-Fletcher 6.10: the ambient is well-formed and, for every pair of
    # omitted indices, the gcd of the remaining weights divides the degree
    rng = random.Random(500)
    for _ in range(500):
        n1 = rng.randrange(3, 7)
        ws = tuple(sorted(rng.randrange(1, 13) for _ in range(n1)))
        d = rng.randrange(2, 40)
        literal = is_well_formed(ws) and all(
            d % gcd_many(tuple(a for k, a in enumerate(ws) if k not in (i, j))) == 0
            for i in range(n1) for j in range(i + 1, n1))
        assert well_formed_ci(desc(ws, (d,))) == literal, (ws, d)


# --- linear cones -----------------------------------------------------------

def test_linear_cone_flags_examples():
    assert linear_cone_flags(desc((1, 1, 1, 2), 2)) == [(0, 3)]
    assert linear_cone_flags(desc((1, 2, 3, 4, 5), (6, 8))) == []
    assert linear_cone_flags(desc((1, 1, 3, 3, 5), (6, 6))) == []
    flags = linear_cone_flags(desc((1, 2, 3, 6), 6))
    assert (0, 3) in flags


# --- quasi-smoothness -------------------------------------------------------

def test_qs_hypersurface_examples():
    assert general_qs(desc((1, 7, 12, 18), 36)).holds
    assert general_qs(desc((1, 1, 1, 1), 3)).holds
    bad = general_qs(desc((2, 2, 2, 3), 9))
    assert not bad.holds and bad.failing_subset == (0, 1)
    with pytest.raises(ValueError):
        general_qs(desc((1, 1, 1, 2), 2))


def test_qs_hypersurface_witnesses_are_checkable():
    v = general_qs(desc((1, 7, 12, 18), 36))
    subsets = {w.subset for w in v.witnesses}
    assert len(subsets) == 15     # all nonempty subsets recorded
    for w in v.witnesses:
        if w.condition == "monomial-on-subset":
            mono = w.monomials[0]
            assert sum(e * a for e, a in zip(mono, (1, 7, 12, 18))) == 36
        else:
            assert len(w.partners) == len(w.subset)
            assert len({e for e, _ in w.partners}) == len(w.subset)


def test_qs_ci2_examples():
    assert general_qs(desc((1, 2, 2, 3, 3), (4, 6))).holds
    assert general_qs(desc((1, 1, 1, 1, 1), (2, 2))).holds
    assert not general_qs(desc((3, 3, 3, 3, 4), (5, 7)), witnesses=False).holds


@pytest.fixture
def mask_calls(monkeypatch):
    """Counts the semigroup_mask calls the fast paths make."""
    import wfci.wci as wci_mod
    real = wci_mod.semigroup_mask
    calls = []

    def counting(gens, limit):
        calls.append((tuple(gens), limit))
        return real(gens, limit)

    monkeypatch.setattr(wci_mod, "semigroup_mask", counting)
    return calls


def test_qs_hypersurface_matches_brute_force_sample(mask_calls):
    rng = random.Random(606)
    cases = small = 0
    while cases < 300 or small < 100:
        n1 = rng.randrange(3, 7)
        ws = tuple(sorted(rng.randrange(1, 13) for _ in range(n1)))
        # every third case takes a degree below the largest weight, where a
        # weight a_e > d must not count as a partner of a singleton
        below = cases % 3 == 0 and ws[-1] > 2
        d = rng.randrange(2, ws[-1]) if below else rng.randrange(2, 61)
        if d in ws:
            continue
        mask_calls.clear()
        got = qs_hypersurface_fast(ws, d, {})
        expected = brute_qs_hypersurface(ws, d)
        assert got == expected, (ws, d)
        v = general_qs(desc(ws, (d,)), witnesses=False)
        assert v.holds == expected
        if not v.holds and len(v.failing_subset) == 1:
            assert not mask_calls, (ws, d)   # singletons are decided by residues
        w = general_qs(desc(ws, (d,)))
        assert (w.holds, w.failing_subset) == (v.holds, v.failing_subset), (ws, d)
        cases += 1
        small += below


def test_qs_ci2_matches_brute_force_sample(mask_calls):
    rng = random.Random(607)
    cases = 0
    # (weights, d1, d2, holds): the singleton {3} of weight 3 has the residue
    # partner a_4 = 5 for d1 = 2 (2 - 5 = -3), which a_4 > d1 rules out
    fixed = [((1, 1, 1, 3, 5), 2, 10, False), ((1, 1, 3, 3, 5), 2, 10, False)]
    while cases < 300:
        if fixed:
            ws, d1, d2, holds = fixed.pop()
            assert brute_qs_ci2(ws, d1, d2) == holds
        else:
            ws = tuple(sorted(rng.randrange(1, 10) for _ in range(5)))
            d1 = rng.randrange(2, ws[-1]) if cases % 3 == 0 and ws[-1] > 2 \
                else rng.randrange(2, 30)
            # every fourth case has equal degrees
            d2 = d1 if cases % 4 == 1 else rng.randrange(d1, 31)
        if d1 in ws or d2 in ws:
            continue
        mask_calls.clear()
        got = qs_ci2_fast(ws, d1, d2, {})
        expected = brute_qs_ci2(ws, d1, d2)
        assert got == expected, (ws, d1, d2)
        v = general_qs(desc(ws, (d1, d2)), witnesses=False)
        assert v.holds == expected
        if not v.holds and len(v.failing_subset) == 1:
            assert not mask_calls, (ws, d1, d2)   # singletons are decided by residues
        w = general_qs(desc(ws, (d1, d2)))
        assert (w.holds, w.failing_subset) == (v.holds, v.failing_subset), (ws, d1, d2)
        cases += 1


def test_witness_free_general_qs_keeps_no_masks():
    # ten weights near the cli value cap: 1,013 masks of about 10^6 bits
    # each, some 125 MB if every index subset kept its mask for the call
    d = desc(range(99995, 100005), 199999)
    tracemalloc.start()
    try:
        general_qs(d, witnesses=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


def _qs_witness_sample():
    """Seeded codimension-1 and -2 descriptors, no linear cones; small weights
    are drawn often, so every witness condition of both criteria occurs."""
    rng = random.Random("wfci-qs-witnesses")
    out = []
    while len(out) < 3000:
        c = rng.choice((1, 2))
        ws = [rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 6, 7, 9, 11))
              for _ in range(rng.randrange(c + 2, c + 5))]
        d = desc(ws, [rng.randrange(2, 40) for _ in range(c)])
        if not linear_cone_flags(d):
            out.append(d)
    return out


# sha256 of the repr lines of general_qs over the sample (holds, witnesses in
# order, failing subset), recorded before the coin DP of poly was shared
QS_WITNESS_SHA256 = "f7b63e70fa5812a48cd7fdc44e544ee7041ffa98476797b62f51ba62cd6b08dd"


def test_qs_witness_golden_bytes():
    verdicts = [general_qs(d) for d in _qs_witness_sample()]
    assert {v.holds for v in verdicts} == {True, False}
    assert {w.condition for v in verdicts for w in v.witnesses} == {
        "monomial-on-subset", "enough-partners", "monomials-on-subset",
        "first-monomial-plus-partners", "second-monomial-plus-partners",
        "partners-both-equations"}
    digest = hashlib.sha256("\n".join(map(repr, verdicts)).encode()).hexdigest()
    assert digest == QS_WITNESS_SHA256, digest

# --- adjunction -------------------------------------------------------------

def test_adjunction_examples():
    a = adjunction(desc((1, 2, 3, 4, 5), (6, 8)))
    assert (a.canonical_coefficient, a.amplitude, a.fano_index) == (-1, FANO, 1)
    a = adjunction(desc((1, 1, 1, 1), 4))
    assert (a.canonical_coefficient, a.amplitude, a.fano_index) == (0, CALABI_YAU, None)
    a = adjunction(desc((1, 1, 1, 1), 5))
    assert a.amplitude == GENERAL_TYPE


def test_adjunction_family4_index_is_n():
    for n in range(1, 21):
        ws = (1, 6 * n - 5, 10 * n - 8, 15 * n - 12)
        a = adjunction(desc(ws, 30 * n - 24))
        assert a.amplitude == FANO and a.fano_index == n


def test_adjunction_trichotomy_random():
    rng = random.Random(88)
    for _ in range(300):
        n1 = rng.randrange(3, 7)
        ws = tuple(sorted(rng.randrange(1, 15) for _ in range(n1)))
        c = rng.randrange(1, n1 - 1)
        ds = tuple(sorted(rng.randrange(2, 30) for _ in range(c)))
        a = adjunction(desc(ws, ds))
        k = sum(ds) - sum(ws)
        assert a.canonical_coefficient == k
        assert [a.amplitude] == [m for m, cond in
                                 [(FANO, k < 0), (CALABI_YAU, k == 0),
                                  (GENERAL_TYPE, k > 0)] if cond]
        assert (a.fano_index is not None) == (k < 0)
        if k < 0:
            assert a.fano_index == -k


# --- intersection numbers ---------------------------------------------------

def test_intersection_number_examples():
    d = desc((1, 7, 12, 18), 36)
    assert intersection_number(d, (2, 12)) == Fraction(4, 7)
    assert intersection_number(d, (2, 1)) == Fraction(1, 21)
    assert intersection_number(d, (2, 36)) == Fraction(12, 7)
    q = desc((1, 1, 1, 1), 2)
    assert intersection_number(q, (1, 1)) == 2
    with pytest.raises(ValueError):
        intersection_number(q, (1, 1, 1))


def test_intersection_number_family4_closed_form():
    for n in range(2, 11):
        d = desc((1, 6 * n - 5, 10 * n - 8, 15 * n - 12), 30 * n - 24)
        assert intersection_number(d, (n, 10 * n - 8)) == Fraction(2 * n, 6 * n - 5)
        assert intersection_number(d, (n, 1)) == \
            Fraction(n, (6 * n - 5) * (5 * n - 4))


def test_intersection_number_against_lattice_count():
    cases = [
        ((1, 1, 1, 1), (2,)),          # quadric surface: degree 2
        ((1, 1, 1, 1, 1), (2,)),       # quadric threefold
        ((1, 1, 2, 3), (6,)),          # degree-1 del Pezzo: (-K)^2 = 1
        ((1, 2, 2, 3, 3), (4, 6)),     # sporadic row 1
        ((1, 7, 12, 18), (36,)),       # family 4 at n = 2
    ]
    for ws, ds in cases:
        d = desc(ws, ds)
        ones = tuple(1 for _ in range(d.dim))
        assert intersection_number(d, ones) == lattice_degree(ws, ds), (ws, ds)


def test_intersection_number_multilinear_and_symmetric():
    rng = random.Random(4)
    d = desc((1, 2, 2, 3, 3), (4, 6))
    for _ in range(50):
        u = [rng.randrange(1, 9) for _ in range(2)]
        assert intersection_number(d, u) == intersection_number(d, u[::-1])
        scaled = [3 * u[0], u[1]]
        assert intersection_number(d, scaled) == 3 * intersection_number(d, u)
