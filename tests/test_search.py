import json
import math
import random
from itertools import combinations, combinations_with_replacement

import pytest

from wfci import search, wci
from wfci.search import (SearchConfig, iter_candidates, partition, run_search,
                         run_search_parallel, write_records)
from wfci.wci import (WciDescriptor, adjunction, linear_cone_flags, qs_ci2_fast,
                      qs_hypersurface_fast, well_formed_ci, CALABI_YAU, FANO)
from wfci.wps import is_well_formed

from oracles import brute_qs_ci2, brute_qs_hypersurface


def keyset(records):
    return {(r.descriptor.weights, r.descriptor.multidegree) for r in records}


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(dim=2, codim=3, max_weight=5)
    with pytest.raises(ValueError):
        SearchConfig(dim=0, codim=1, max_weight=5)
    for index in (0, -1):
        with pytest.raises(ValueError):
            SearchConfig(dim=2, codim=1, max_weight=5, index_filter=index)
    # an unknown amplitude would run unfiltered
    for amplitude in ("fano", wci.GENERAL_TYPE):
        with pytest.raises(ValueError):
            SearchConfig(dim=2, codim=2, max_weight=9, amplitude_filter=amplitude)


def literal_candidates(config):
    """Every sorted weight tuple and sorted multidegree (degrees >= 2, as the
    search takes them), kept by the library's one-descriptor well-formedness
    and adjunction criteria and the config's filters, in the search's order:
    weights, then degree sum, then degrees.  Quasi-smoothness is decided by
    the brute-force oracles, independently of the library's scan."""
    out = []
    for ws in combinations_with_replacement(range(1, config.max_weight + 1),
                                            config.tuple_length):
        if not is_well_formed(ws):
            continue
        for degs in combinations_with_replacement(range(2, sum(ws) + 1), config.codim):
            desc = WciDescriptor.of(ws, degs)
            adj = adjunction(desc)
            if adj.amplitude not in (FANO, CALABI_YAU):
                continue
            if config.amplitude_filter not in (None, adj.amplitude):
                continue
            if config.index_filter not in (None, adj.fano_index):
                continue
            cone = bool(linear_cone_flags(desc))
            if cone and config.exclude_linear_cones or not well_formed_ci(desc):
                continue
            brute = brute_qs_hypersurface if config.codim == 1 else brute_qs_ci2
            if brute(ws, *degs):
                out.append((ws, degs))
    return sorted(out, key=lambda key: (key[0], sum(key[1]), key[1]))


@pytest.mark.parametrize("dim,codim,max_weight,options", [
    pytest.param(1, 1, 12, {}, id="1-1-12"),
    pytest.param(1, 2, 9, {}, id="1-2-9"),
    pytest.param(2, 1, 8, {}, id="2-1-8"),
    pytest.param(2, 2, 6, {}, id="2-2-6"),
    pytest.param(3, 1, 6, {}, id="3-1-6"),
    pytest.param(3, 2, 5, {}, id="3-2-5"),
    pytest.param(2, 1, 14, {"index_filter": 1}, id="2-1-14-index1"),
    pytest.param(2, 2, 8, {"index_filter": 1}, id="2-2-8-index1"),
    pytest.param(2, 1, 14, {"amplitude_filter": CALABI_YAU}, id="2-1-14-calabi-yau"),
    pytest.param(2, 2, 7, {"amplitude_filter": CALABI_YAU}, id="2-2-7-calabi-yau"),
    pytest.param(2, 2, 7, {"index_filter": 1, "amplitude_filter": CALABI_YAU},
                 id="2-2-7-index1-calabi-yau"),
    pytest.param(2, 2, 8, {"index_filter": 1, "amplitude_filter": FANO},
                 id="2-2-8-index1-fano"),
    pytest.param(2, 1, 10, {"exclude_linear_cones": False}, id="2-1-10-cones"),
    pytest.param(2, 2, 6, {"exclude_linear_cones": False}, id="2-2-6-cones"),
    pytest.param(4, 2, 4, {}, id="4-2-4"),
    pytest.param(5, 1, 4, {}, id="5-1-4")])
def test_iter_candidates_matches_literal_filter(dim, codim, max_weight, options):
    # the well-formedness subset sizes depend on dim and codim; at dim 1 and
    # dim 3 a filter hard-coding the dim-2 sizes keeps the wrong descriptors.
    # The index and amplitude filters narrow the degree sums the search
    # visits and must all hold, and included linear cones go through the
    # residue screen too.
    cfg = SearchConfig(dim=dim, codim=codim, max_weight=max_weight, **options)
    got = [(d.weights, d.multidegree) for d in iter_candidates(cfg)]
    assert got == literal_candidates(cfg)
    if not cfg.exclude_linear_cones:
        assert any(linear_cone_flags(WciDescriptor.of(*key)) for key in got)


@pytest.mark.parametrize("amplitude", [FANO, None], ids=["fano", "unfiltered"])
@pytest.mark.parametrize("dim,codim,max_weight", [(2, 2, 9), (2, 1, 14), (3, 2, 6)],
                         ids=["2-2-9", "2-1-14", "3-2-6"])
def test_window_equals_the_single_sums_over_its_gaps(dim, codim, max_weight, amplitude):
    # _degree_splits walks a window of degree sums and a single sum apart;
    # a window's candidates are those of an index (or, at gap 0, Calabi-Yau)
    # run for each of its gaps
    cfg = SearchConfig(dim, codim, max_weight, amplitude_filter=amplitude)
    lo_gap, hi_gap = search._sum_gaps(cfg)
    singles = []
    for gap in range(hi_gap, lo_gap + 1):
        one = SearchConfig(dim, codim, max_weight, index_filter=gap or None,
                           amplitude_filter=None if gap else CALABI_YAU)
        assert search._sum_gaps(one) == (gap, gap)
        singles += iter_candidates(one)

    def key(d):
        return d.weights, sum(d.multidegree), d.multidegree
    window = [key(d) for d in iter_candidates(cfg)]
    assert window and window == sorted(map(key, singles))


def test_k3_counts_from_the_literature():
    # Reid's 95 families of weighted K3 hypersurfaces (Iano-Fletcher 13.3),
    # the largest weight being 33 in X_66 in P(5, 6, 22, 33), and the 84
    # codimension-2 K3 complete intersections (Iano-Fletcher 13.8)
    hyper = list(iter_candidates(SearchConfig(
        dim=2, codim=1, max_weight=33, amplitude_filter=CALABI_YAU)))
    assert len(hyper) == 95
    assert max(d.weights[-1] for d in hyper) == 33
    codim2 = list(iter_candidates(SearchConfig(
        dim=2, codim=2, max_weight=20, amplitude_filter=CALABI_YAU)))
    assert len(codim2) == 84


def test_small_codim2_run_matches_tables():
    cfg = SearchConfig(dim=2, codim=2, max_weight=5, index_filter=1)
    records = run_search(cfg)
    got = keyset(records)
    assert ((1, 2, 2, 3, 3), (4, 6)) in got       # sporadic row 1
    assert ((1, 2, 3, 4, 5), (6, 8)) in got       # sporadic row 2
    assert ((1, 1, 1, 1, 1), (2, 2)) in got       # series 1 at n = 1
    assert ((1, 1, 2, 2, 3), (4, 4)) in got       # series 1 at n = 2
    # closure: nothing outside the tables, and each descriptor exactly once
    assert all(r.table_hit is not None for r in records)
    assert len(records) == 9
    assert len(got) == len(records)


def test_codim1_run_includes_degree_one_del_pezzo():
    from wfci.wps import normalize
    cfg = SearchConfig(dim=2, codim=1, max_weight=5, index_filter=1)
    records = run_search(cfg)
    got = keyset(records)
    assert ((1, 1, 2, 3), (6,)) in got
    # normalization closure: every emitted descriptor is its own normalization
    for r in records:
        ws = r.descriptor.weights
        assert ws == tuple(sorted(ws))
        assert normalize(ws).output.weights == ws


def test_linear_cone_exclusion_flag():
    base = SearchConfig(dim=2, codim=1, max_weight=3, index_filter=1)
    with_cones = SearchConfig(dim=2, codim=1, max_weight=3, index_filter=1,
                              exclude_linear_cones=False)
    excluded = keyset(run_search(base))
    included = keyset(run_search(with_cones))
    assert excluded <= included
    extra = included - excluded
    assert all(any(d in ws for d in ds) for ws, ds in extra)


def test_deterministic_output_bytes(tmp_path):
    cfg = SearchConfig(dim=2, codim=2, max_weight=4, index_filter=1)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_records(run_search(cfg), str(a))
    write_records(run_search(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert payloads == sorted(payloads, key=lambda p: (p["weights"], p["degrees"]))


def test_csv_output(tmp_path):
    cfg = SearchConfig(dim=2, codim=2, max_weight=4, index_filter=1)
    out = tmp_path / "out.csv"
    write_records(run_search(cfg), str(out), fmt="csv")
    lines = out.read_text().splitlines()
    assert lines[0].startswith("weights,degrees,")
    assert len(lines) == 1 + len(run_search(cfg))


def test_partition_covers_and_is_disjoint():
    cfg = SearchConfig(dim=2, codim=2, max_weight=6, index_filter=1)
    shards = partition(cfg, 4)
    union = set().union(*shards)
    assert sum(len(s) for s in shards) == len(union)
    assert union == {(a, b) for a in range(1, 7) for b in range(a, 7)}
    assert partition(cfg, 1) == [union]


def test_sharded_equals_unsharded():
    cfg = SearchConfig(dim=2, codim=2, max_weight=6, index_filter=1)
    serial = keyset(run_search(cfg))
    shards = partition(cfg, 3)
    sharded = set()
    for shard in shards:
        sharded |= {(d.weights, d.multidegree) for d in iter_candidates(cfg, shard)}
    assert sharded == serial


@pytest.mark.parametrize("codim,options", [
    (1, {"index_filter": 1}), (1, {"amplitude_filter": CALABI_YAU}),
    (2, {"index_filter": 1}), (2, {"amplitude_filter": FANO}),
    pytest.param(1, {"dim": 1, "max_weight": 40, "index_filter": 1}, id="dim1-index1"),
    pytest.param(1, {"dim": 1, "max_weight": 40, "amplitude_filter": CALABI_YAU},
                 id="dim1-calabi-yau")])
def test_shards_concatenate_to_the_serial_list(codim, options):
    # each shard walks its prefixes in the serial order, so merging the
    # shard lists by the search's order gives the serial list itself.  At
    # dim 1, codim 1 the prefixes have two weights, so the shard filter and
    # the walk's last-weight mask act on the same level
    options = {"dim": 2, "max_weight": 14 if codim == 1 else 7, **options}
    cfg = SearchConfig(codim=codim, **options)
    serial = [(d.weights, d.multidegree) for d in iter_candidates(cfg)]

    def order(key):
        return key[0], sum(key[1]), key[1]
    shards = [[(d.weights, d.multidegree) for d in iter_candidates(cfg, shard)]
              for shard in partition(cfg, 3)]
    assert all(chunk == sorted(chunk, key=order) for chunk in shards)
    assert sorted((k for chunk in shards for k in chunk), key=order) == serial
    # the walk itself: the shards' sieved prefixes merge to the serial ones
    per = search._Progressions(cfg.tuple_length * cfg.max_weight)
    lo_gap, hi_gap = search._sum_gaps(cfg)

    def walk(shard):
        return [prefix for prefix, _ in search._sorted_tuples(
            cfg.tuple_length, cfg.max_weight, shard, per.divides,
            lo_gap if lo_gap == hi_gap else None)]
    whole = walk(None)
    assert sorted(p for shard in partition(cfg, 3) for p in walk(shard)) == whole
    # the records of dim 1 are few: one curve of index 1, three elliptic ones
    assert len(serial) > 10 if cfg.dim == 2 else serial and len(whole) > 50


def literal_table(prefix):
    """The gcd table of a prefix, from every subset: entry i holds the gcds
    other than 1 of the (len(prefix) - 3 + i)-subsets (gcd() is 0)."""
    return tuple(frozenset({math.gcd(*sub) for sub in combinations(prefix, k)} - {1})
                 if k >= 0 else frozenset()
                 for k in range(len(prefix) - 3, len(prefix) + 1))


def test_gcd_tables_match_the_subset_gcds():
    rng = random.Random("gcd-tables")
    for _ in range(400):
        ws = sorted(rng.choice((1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 30))
                    for _ in range(rng.randint(1, 8)))
        table = search._EMPTY_TABLE
        for j, x in enumerate(ws, 1):
            table = search._extend(table, x)
            assert table == literal_table(tuple(ws[:j])), ws[:j]
    # the walk hands every prefix its table
    for prefix, table in search._sorted_tuples(5, 6):
        assert len(prefix) == 4
        assert table == literal_table(prefix)


def test_ambient_well_formed_reads_the_prefix_table():
    # prefix + (x,) is well-formed exactly when gcd(l2, x) == 1, and l2 is 0
    # exactly when the prefix itself is not coprime
    rng = random.Random("ambient-well-formed")
    pool = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 14, 15, 21, 30)
    for _ in range(2000):
        ws = tuple(sorted(rng.choice(pool) for _ in range(rng.randint(3, 8))))
        prefix, x = ws[:-1], ws[-1]
        l2 = search._ambient_well_formed(literal_table(prefix))
        assert (l2 == 0) == (math.gcd(*prefix) != 1), prefix
        assert (math.gcd(l2, x) == 1) == is_well_formed(ws), ws


def literal_splits(ws, sums, codim, exclude_linear_cones, largest_only=False):
    """Every sorted multidegree of each degree sum s in `sums`, with degrees
    >= 2 (s itself at codimension 1, (d1, s - d1), 2 <= d1 <= s/2, at
    codimension 2), that is intersection well-formed (each (n-1)-subset gcd
    divides every degree, and at codimension 2 each (n-2)-subset gcd one of
    them), has no linear cone when those are excluded, and passes the
    one-variable clause of every weight a (a divides a degree, or every
    degree is a weight residue mod a); of the largest weight alone with
    `largest_only`."""
    both = {math.gcd(*sub) for sub in combinations(ws, len(ws) - 2)}
    one = ({math.gcd(*sub) for sub in combinations(ws, len(ws) - 3)}
           if codim == 2 else set())
    out = []
    for s in sums:
        splits = ([(s,)] if s >= 2 else []) if codim == 1 else \
            [(d1, s - d1) for d1 in range(2, s // 2 + 1)]
        for degs in splits:
            if (all(d % g == 0 for g in both for d in degs)
                    and all(any(d % g == 0 for d in degs) for g in one)
                    and not (exclude_linear_cones and set(degs) & set(ws))
                    and all(any(d % a == 0 for d in degs)
                            or all(d % a in {w % a for w in ws} for d in degs)
                            for a in (ws[-1:] if largest_only else ws))):
                out.append(degs)
    return out


def literal_window(cfg, total):
    """The degree sums the config's filters admit for a tuple of weight sum
    `total` (from the floor 2 * codim up)."""
    floor = 2 * cfg.codim
    if cfg.index_filter is not None:
        return range(total - cfg.index_filter, total - cfg.index_filter + 1)
    if cfg.amplitude_filter == CALABI_YAU:
        return range(total, total + 1)
    if cfg.amplitude_filter == FANO:
        return range(floor, total)
    return range(floor, total + 1)


def literal_prefix_splits(cfg, prefix, largest_only=False):
    """The (ws, degrees) of every well-formed prefix + (x,), by x."""
    want = []
    for x in range(prefix[-1], cfg.max_weight + 1):
        ws = prefix + (x,)
        if is_well_formed(ws):
            want += [(ws, degs) for degs in literal_splits(
                ws, literal_window(cfg, sum(ws)), cfg.codim, cfg.exclude_linear_cones,
                largest_only)]
    return want


def check_prefix(cfg, prefix, table, per):
    """_degree_splits of the prefix against the literal filter; the
    prefix's l2."""
    want = literal_prefix_splits(cfg, prefix)
    l2 = search._ambient_well_formed(table)
    if not l2:
        assert not want, prefix
        return l2
    got = list(search._degree_splits(cfg, prefix, table, l2, search._sum_gaps(cfg), per))
    assert got == want, prefix
    return l2


SPLIT_OPTIONS = [
    {}, {"index_filter": 1}, {"amplitude_filter": FANO},
    {"amplitude_filter": CALABI_YAU}, {"exclude_linear_cones": False},
    {"index_filter": 2, "exclude_linear_cones": False}]
# (codim, dim, max_weight): prefixes of two to five weights
SPLIT_SIZES = ((1, 1, 20), (1, 2, 14), (1, 3, 10), (2, 1, 14), (2, 2, 12), (2, 3, 9))


def sampled_prefixes(options, seed):
    """(config, prefix, gcd table, progression rows) for 16 seeded walked
    prefixes of each of SPLIT_SIZES under `options`."""
    rng = random.Random(f"{seed}-{sorted(options.items())}")
    for codim, dim, max_weight in SPLIT_SIZES:
        cfg = SearchConfig(dim=dim, codim=codim, max_weight=max_weight, **options)
        per = search._Progressions(cfg.tuple_length * max_weight)
        walked = list(search._sorted_tuples(cfg.tuple_length, max_weight))
        for prefix, table in rng.sample(walked, 16):
            yield cfg, prefix, table, per


@pytest.mark.parametrize("options", SPLIT_OPTIONS)
def test_degree_splits_match_a_literal_filter(options):
    # the per-prefix sieve against the conditions it encodes, one by one, on
    # seeded prefixes and every last weight, for hypersurfaces and
    # codimension 2
    for cfg, prefix, table, per in sampled_prefixes(options, "degree-splits"):
        check_prefix(cfg, prefix, table, per)


@pytest.mark.parametrize("options", SPLIT_OPTIONS)
def test_smaller_weight_clauses_drop_only_singleton_failures(options):
    # the splits that the largest weight's clause keeps and the clauses of
    # the smaller weights drop are rejected by the residue pre-pass of the
    # quasi-smoothness scan, at a one-index subset, so the screen changes
    # no output
    dropped = 0
    for cfg, prefix, table, per in sampled_prefixes(options, "dropped-splits"):
        l2 = search._ambient_well_formed(table)
        if not l2:
            continue
        kept = set(search._degree_splits(cfg, prefix, table, l2,
                                         search._sum_gaps(cfg), per))
        for ws, degs in literal_prefix_splits(cfg, prefix, largest_only=True):
            if (ws, degs) not in kept:
                failure = wci._first_failure(ws, degs, None)
                assert failure is not None and len(failure) == 1, (ws, degs)
                dropped += 1
    assert dropped


@pytest.mark.parametrize("options,splits,passing", [
    pytest.param({"dim": 2, "codim": 2, "index_filter": 1, "max_weight": 25},
                 832, 42, id="closure-c2"),
    pytest.param({"dim": 2, "codim": 1, "amplitude_filter": CALABI_YAU,
                  "max_weight": 50}, 95, 95, id="k3-c1")])
def test_split_screen_counts(options, splits, passing):
    # a gate on the screen's strength: the splits handed to the
    # quasi-smoothness check.  The largest weight's clause alone would hand
    # it 27,020 at the closure and 12,044 at the K3 hypersurfaces
    cfg = SearchConfig(**options)
    per = search._Progressions(cfg.tuple_length * cfg.max_weight)
    gaps = search._sum_gaps(cfg)
    quasi_smooth = qs_hypersurface_fast if cfg.codim == 1 else qs_ci2_fast
    got = [(ws, degs)
           for prefix, table in search._sorted_tuples(cfg.tuple_length, cfg.max_weight)
           if (l2 := search._ambient_well_formed(table))
           for ws, degs in search._degree_splits(cfg, prefix, table, l2, gaps, per)]
    assert len(got) == splits
    assert sum(quasi_smooth(ws, *degs, None) for ws, degs in got) == passing


@pytest.mark.parametrize("options,whole,sieved,splits", [
    pytest.param({"dim": 2, "codim": 2, "index_filter": 1, "max_weight": 25},
                 20475, 13183, 832, id="closure-c2"),
    pytest.param({"dim": 2, "codim": 1, "amplitude_filter": CALABI_YAU,
                  "max_weight": 50}, 22100, 18195, 95, id="k3-c1")])
def test_sieved_walk_counts(options, whole, sieved, splits):
    # a gate on the walk's strength: the prefixes the search walks with its
    # gcd rows, against the whole box, and the same splits handed on
    cfg = SearchConfig(**options)
    per = search._Progressions(cfg.tuple_length * cfg.max_weight)
    gaps = search._sum_gaps(cfg)

    def handed(walk):
        return [(ws, degs) for prefix, table in walk
                if (l2 := search._ambient_well_formed(table))
                for ws, degs in search._degree_splits(cfg, prefix, table, l2, gaps, per)]
    box = list(search._sorted_tuples(cfg.tuple_length, cfg.max_weight))
    walk = list(search._sorted_tuples(cfg.tuple_length, cfg.max_weight, None,
                                      per.divides, gaps[0]))
    assert (len(box), len(walk)) == (whole, sieved)
    got = handed(walk)
    assert len(got) == splits and got == handed(box)


@pytest.mark.parametrize("codim,sizes", [
    pytest.param(1, ((1, 36), (2, 16), (3, 10)), id="codim1"),
    pytest.param(2, ((1, 20), (2, 11), (3, 7)), id="codim2")])
@pytest.mark.parametrize("options", [
    pytest.param({}, id="unfiltered"),
    pytest.param({"index_filter": 1}, id="index1"),
    pytest.param({"index_filter": 2}, id="index2"),
    pytest.param({"amplitude_filter": CALABI_YAU}, id="calabi-yau"),
    pytest.param({"amplitude_filter": FANO}, id="fano")])
def test_sieved_walk_keeps_exactly_the_prefixes_with_well_formed_tuples(
        options, codim, sizes):
    # with the gcd rows the walk yields, of every prefix of the box, those
    # that are coprime and, with one degree sum s = sum(prefix) + x - gap,
    # have gcd(l2, sum(prefix) - gap) == 1, each with its literal table; no
    # prefix it drops has a tuple with an admissible split
    dropped_coprime = dropped_step = 0
    for dim, max_weight in sizes:
        cfg = SearchConfig(dim=dim, codim=codim, max_weight=max_weight, **options)
        lo_gap, hi_gap = search._sum_gaps(cfg)
        gap = lo_gap if lo_gap == hi_gap else None
        rows = search._Progressions(cfg.tuple_length * max_weight).divides
        walked = list(search._sorted_tuples(cfg.tuple_length, max_weight, None, rows, gap))
        kept = []
        for prefix in combinations_with_replacement(range(1, max_weight + 1),
                                                    cfg.tuple_length - 1):
            l2 = math.lcm(*(math.gcd(*sub)
                            for sub in combinations(prefix, len(prefix) - 1)))
            if math.gcd(*prefix) != 1:
                dropped_coprime += 1
            elif gap is not None and math.gcd(l2, sum(prefix) - gap) != 1:
                dropped_step += 1
            else:
                kept.append(prefix)
                continue
            assert not literal_prefix_splits(cfg, prefix), prefix
        assert [prefix for prefix, _ in walked] == kept
        for prefix, table in walked:
            assert table == literal_table(prefix), prefix
    assert dropped_coprime and bool(dropped_step) == ("index_filter" in options), \
        (dropped_coprime, dropped_step)


@pytest.mark.parametrize("codim,sizes", [
    pytest.param(1, ((1, 40), (2, 22), (3, 12)), id="codim1"),
    pytest.param(2, ((1, 24), (2, 14), (3, 8)), id="codim2")])
@pytest.mark.parametrize("options", [
    pytest.param({"index_filter": 1}, id="index1"),
    pytest.param({"index_filter": 2}, id="index2"),
    pytest.param({"amplitude_filter": CALABI_YAU}, id="calabi-yau")])
def test_single_sum_mask_matches_a_literal_filter_on_every_prefix(options, codim, sizes):
    # with one degree sum s = u + x per tuple, u = sum(prefix) - gap, the
    # last weights are sieved as a mask; every walked prefix is compared,
    # and the run must reach both ways a prefix is left before its last
    # weights: gcd(l2, u) != 1 (under an index; at Calabi-Yau u is the
    # prefix's weight sum, and each (n-1)-subset gcd of a coprime prefix is
    # coprime to it), and no x whose sum is a multiple of the step
    gap = options.get("index_filter", 0)
    left_by_gcd = empty_masks = 0
    for dim, max_weight in sizes:
        cfg = SearchConfig(dim=dim, codim=codim, max_weight=max_weight, **options)
        per = search._Progressions(cfg.tuple_length * max_weight)
        for prefix, table in search._sorted_tuples(cfg.tuple_length, max_weight):
            l2 = check_prefix(cfg, prefix, table, per)
            if not l2:
                continue
            u = sum(prefix) - gap
            if math.gcd(l2, u) != 1:
                left_by_gcd += 1
                continue
            # the step: the lcm of the (n-1)-subset gcds of the tuple
            empty_masks += not any(
                is_well_formed(ws) and u + x >= 2 * codim and (u + x) % math.lcm(
                    *{math.gcd(*sub) for sub in combinations(ws, len(ws) - 2)}) == 0
                for x in range(prefix[-1], max_weight + 1) for ws in [prefix + (x,)])
    assert bool(left_by_gcd) == bool(gap) and empty_masks, (left_by_gcd, empty_masks)


def test_progression_rows_hold_one_residue_class():
    bound = 5 * 12
    per = search._Progressions(bound)
    assert not per          # rows are built on first use only
    # 1 to the bound and beyond it: step moduli exceed the largest weight
    for m in (1, 2, 3, 7, 12, 13, 25, 30, 59, 60, 61, 97):
        row = per[m]
        assert len(row) == m
        for r, bits in enumerate(row):
            assert bits == sum(1 << d for d in range(bound + 1) if d % m == r), (m, r)
    assert sorted(per) == [1, 2, 3, 7, 12, 13, 25, 30, 59, 60, 61, 97]


def test_gcd_rows_hold_the_weights_whose_gcd_divides():
    # row (g, gcd(g, u)) holds the x with gcd(g, x) | u, which the last
    # weights of a single-sum prefix need; (g, 1) holds the x coprime to g
    bound = 5 * 12
    per = search._Progressions(bound)
    rows = per.divides
    assert not rows         # rows are built on first use only
    keys = set()
    for g in (1, 2, 3, 4, 6, 9, 12, 30, 61):
        for u in (-7, -1, 0, 1, 2, 5, 6, 12, 35, 60):
            key = g, math.gcd(g, u)
            keys.add(key)
            assert rows[key] == sum(1 << x for x in range(1, bound + 1)
                                    if u % math.gcd(g, x) == 0), (g, u)
        assert rows[g, 1] == sum(1 << x for x in range(1, bound + 1)
                                 if math.gcd(g, x) == 1), g
        keys.add((g, 1))
    assert set(rows) == keys
    assert not per          # the rows are not progression moduli


def test_divisor_rows_hold_the_divisors():
    # row v holds the x dividing v, which the last weights of a
    # single-sum hypersurface prefix need (v = u - b may be 0 or negative)
    bound = 4 * 12
    rows = search._Progressions(bound).divides
    for v in (-13, -12, -1, 0, 1, 7, 12, 36, 47, 48, 60, 96, 97):
        assert rows[v] == sum(1 << x for x in range(1, bound + 1) if v % x == 0), v
    assert rows[0] == (2 << bound) - 2
    assert len(rows) == 13


@pytest.mark.parametrize("length,max_weight", [(3, 12), (5, 7), (7, 4)])
def test_sorted_tuples_walks_the_whole_box(length, max_weight):
    # called without the gcd rows: one item per non-decreasing prefix of
    # length - 1 weights, and the prefixes times their last weights are the
    # box, serially and over the shards.  The search passes its rows, so the
    # benchmark's search.tuples counts the prefixes of the sieved walk
    # instead (test_sieved_walk_counts)
    cfg = SearchConfig(dim=length - 2, codim=1, max_weight=max_weight)
    box = list(combinations_with_replacement(range(1, max_weight + 1), length))
    assert len(box) == math.comb(max_weight + length - 1, length)

    def tuples(prefixes):
        return [prefix + (x,) for prefix, _ in prefixes
                for x in range(prefix[-1], max_weight + 1)]
    walked = list(search._sorted_tuples(length, max_weight))
    assert [prefix for prefix, _ in walked] == list(
        combinations_with_replacement(range(1, max_weight + 1), length - 1))
    assert tuples(walked) == box
    shards = [list(search._sorted_tuples(length, max_weight, shard))
              for shard in partition(cfg, 3)]
    assert all({prefix[:2] for prefix, _ in walk} <= shard
               for walk, shard in zip(shards, partition(cfg, 3)))
    assert sorted(ws for walk in shards for ws in tuples(walk)) == box


def test_parallel_equals_serial():
    cfg = SearchConfig(dim=2, codim=2, max_weight=5, index_filter=1)
    serial = run_search(cfg)
    parallel = run_search_parallel(cfg, jobs=2)
    assert keyset(parallel) == keyset(serial)
    assert [r.sort_key() for r in parallel] == sorted(r.sort_key() for r in serial)


def test_record_json_shape():
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources
    registry = None
    schema = json.loads(resources.files("wfci").joinpath(
        "schemas/record.schema.json").read_text())
    verdict_schema = json.loads(resources.files("wfci").joinpath(
        "schemas/verdict.schema.json").read_text())
    cfg = SearchConfig(dim=2, codim=2, max_weight=4, index_filter=1)
    for rec in run_search(cfg):
        doc = rec.to_json()
        # resolve the cross-file reference by validating both pieces
        jsonschema.validate(doc["cylinder"], verdict_schema)
        pruned = dict(doc)
        pruned["cylinder"] = {"status": doc["cylinder"]["status"],
                              "certificate": None, "citations": [],
                              "conjectural": None}
        jsonschema.validate(pruned, schema | {"properties": {
            **schema["properties"], "cylinder": {"type": "object"}}})
        assert doc["fano_index"] == 1
        assert doc["amplitude"] == "Fano"


def test_records_take_the_table_hit_from_the_verdict(monkeypatch):
    # the sharded merge runs in this process through a stand-in pool
    import multiprocessing
    import os
    from wfci import tables

    class InProcessPool:
        def __init__(self, processes=None):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]
    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    calls = []
    real = tables.match

    def counting(d):
        calls.append(d)
        return real(d)
    monkeypatch.setattr(tables, "match", counting)
    cfg = SearchConfig(dim=2, codim=2, max_weight=5, index_filter=1)
    for search in (run_search, lambda c: run_search_parallel(c, jobs=2)):
        records = search(cfg)
        assert len(calls) == len(records) == 9   # one match per verdict
        assert [r.table_hit for r in records] == [real(r.descriptor) for r in records]
        calls.clear()
