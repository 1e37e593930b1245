"""Bounded exhaustive enumeration of Fano weighted complete intersections.

Walks every sorted weight tuple up to a bound, every admissible multidegree
under the amplitude/index constraints, and keeps the normalized descriptors
whose ambient is well-formed, whose intersection is well-formed, and whose
general member is quasi-smooth (codimension 1 or 2; no criterion exists
beyond that).  Intersections with linear cones are excluded by default since
they reduce to smaller spaces.  Output order is deterministic: lexicographic
in weights, then degrees; sharded runs cover disjoint first-two-weight
prefixes and merge to the same record set.

The unit of the search is the prefix: the weight tuple without its last
weight.  The prefixes are walked depth first, each with a small table of
its subset gcds other than 1, only for the four subset sizes that the
well-formedness conditions of the full tuple can still need; the table of
prefix + (x,) is extended from that of prefix, so every gcd comes from one
gcd of a carried value with x.  The level before the last is sieved as one
integer bitmask per parent prefix: a prefix that is not coprime, or (with
one degree sum) whose l2 (below) is not coprime to its weight sum less the
gap, has no well-formed tuple with an admissible degree sum and is never
built; at `--dim 2 --codim 2 --index 1 --max-weight 25` the walk builds
13,183 of the box's 20,475 prefixes.  A prefix's lcm l2 of the next
smaller subset gcds and its weight sum give the set of its last weights x
as one integer bitmask: x must be coprime to l2 for the ambient verdict,
and with one degree sum per tuple (an index or Calabi-Yau filter) that sum
must be a multiple of the degree step, which is one residue class of x mod
l2 and one divisibility row per remaining table entry.  Each row is built
lazily once per search, and a prefix whose mask is empty is left at once.
The set bits, lowest first, are the last weights in ascending order.  The
first degrees of the codimension-2 splits of one degree sum are sieved the
same way: each condition on them (the residues mod the largest weight that
the quasi-smoothness screen admits, the step, the remaining gcds) is a
congruence, read from a table of residue-progression masks, and the bounds
and linear cones clear bits; the set bits are the splits in ascending
order.  The screen holds every weight to its one-variable clause, the
largest in these masks and each smaller one per split: at `--dim 2 --codim
2 --index 1 --max-weight 25` it hands the quasi-smoothness check 832
splits, against 274,864 with no screen and 27,020 with the largest
weight's clause alone, and at `--dim 2 --codim 1 --amplitude CalabiYau
--max-weight 50` 95 degrees against 12,044.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from math import comb, gcd, lcm
from typing import Iterator, Optional, Sequence

from . import cylinder
from .record import Record, setfield
from .wci import (WciDescriptor, adjunction, qs_ci2_fast, qs_hypersurface_fast,
                  FANO, CALABI_YAU)


class SearchConfig(Record):
    def __init__(self, dim: int, codim: int, max_weight: int,
                 index_filter: Optional[int] = None,
                 amplitude_filter: Optional[str] = None,
                 exclude_linear_cones: bool = True):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if codim not in (1, 2):
            raise ValueError("codim must be 1 or 2: no quasi-smoothness "
                             "criterion is available beyond codimension 2")
        if max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if index_filter is not None and index_filter < 1:
            raise ValueError("index must be >= 1: a Fano index is positive")
        if amplitude_filter not in (None, FANO, CALABI_YAU):
            raise ValueError(f"amplitude must be {FANO} or {CALABI_YAU}, "
                             f"not {amplitude_filter!r}")
        setfield(self, "dim", dim)
        setfield(self, "codim", codim)
        setfield(self, "max_weight", max_weight)
        setfield(self, "index_filter", index_filter)
        setfield(self, "amplitude_filter", amplitude_filter)
        setfield(self, "exclude_linear_cones", exclude_linear_cones)

    @property
    def tuple_length(self) -> int:
        return self.dim + self.codim + 1


class CandidateRecord(Record):
    def __init__(self, descriptor: WciDescriptor, verdict: cylinder.CylinderVerdict):
        setfield(self, "descriptor", descriptor)
        setfield(self, "verdict", verdict)

    @property
    def table_hit(self) -> Optional[tuple[str, int, Optional[int]]]:
        return self.verdict.table_hit

    def sort_key(self):
        return (self.descriptor.weights, self.descriptor.multidegree)

    def to_json(self) -> dict:
        adj = adjunction(self.descriptor)
        hit = self.table_hit
        return {
            "weights": list(self.descriptor.weights),
            "degrees": list(self.descriptor.multidegree),
            "canonical_coefficient": adj.canonical_coefficient,
            "amplitude": adj.amplitude,
            "fano_index": adj.fano_index,
            "well_formed": True,
            "quasi_smooth": True,
            "cylinder": self.verdict.to_json(),
            "table_match": None if hit is None else
                {"table": hit[0], "row": hit[1], "n": hit[2]},
        }

    def to_csv_row(self) -> list:
        adj = adjunction(self.descriptor)
        hit = self.table_hit
        cert = self.verdict.certificate
        return [
            " ".join(map(str, self.descriptor.weights)),
            " ".join(map(str, self.descriptor.multidegree)),
            adj.canonical_coefficient, adj.amplitude,
            adj.fano_index if adj.fano_index is not None else "",
            self.verdict.status,
            cert.to_json()["kind"] if cert is not None else "",
            hit[0] if hit else "", hit[1] if hit else "",
            (hit[2] if hit[2] is not None else "") if hit else "",
        ]


CSV_HEADER = ["weights", "degrees", "canonical_coefficient", "amplitude",
              "fano_index", "cylinder_status", "certificate_kind",
              "table", "row", "n"]


_NONE, _ONE = frozenset(), frozenset({1})
# the gcd table of the empty prefix: the 0-subset's gcd is 0, gcd(0, x) = x
_EMPTY_TABLE = (_NONE, _NONE, _NONE, frozenset({0}))


def _extend(table: tuple[frozenset, ...], x: int, coprime: bool = False
            ) -> tuple[frozenset, ...]:
    """The gcd table of prefix + (x,) from the table of prefix.

    Entry i of the table of a prefix of length j is the set of gcds other
    than 1 of its (j - 3 + i)-subsets, i = 0..3 (empty below k = 0, {0} at
    k = 0).  A k-subset of prefix + (x,) either omits x or is a
    (k - 1)-subset of prefix plus x.  With `coprime` the caller knows that
    prefix + (x,) is coprime, so entry 3 is empty and is not built."""
    t0, t1, t2, t3 = table
    return ({*t1, *map(gcd, t0, repeat(x))} - _ONE,
            {*t2, *map(gcd, t1, repeat(x))} - _ONE,
            {*t3, *map(gcd, t2, repeat(x))} - _ONE,
            _NONE if coprime else {*map(gcd, t3, repeat(x))} - _ONE)


def _sorted_tuples(length: int, max_weight: int,
                   prefixes: Optional[set[tuple[int, int]]] = None,
                   rows: Optional[_GcdRows] = None, gap: Optional[int] = None
                   ) -> Iterator[tuple[tuple[int, ...], tuple[frozenset, ...]]]:
    """The non-decreasing weight prefixes of the tuples of `length` >= 3,
    that is their first length - 1 weights, in lexicographic order, each with
    its gcd table: entry i holds the (length - 4 + i)-subset gcds other than
    1 of the prefix.  Depth first, so that only one table per level is alive;
    restricted to the (first, second) weight pairs in `prefixes`.  A prefix
    stands for every tuple prefix + (x,), prefix[-1] <= x <= max_weight.

    Without `rows` every prefix of the box is walked.  With the search's
    gcd rows, the last weights d of the prefixes P = P' + (d,) of one
    parent P' are sieved as one bitmask, taken lowest first, from the table
    of P': G is its gcd (1 if entry 3 is empty) and H its entry 2.  P must
    be coprime, gcd(G, d) == 1, so its entry 3 is empty.  With one degree
    sum per tuple, its weight sum less `gap`, `_degree_splits` also needs
    gcd(l2, u) == 1, u = sum(P') + d - gap and l2 = lcm(G, gcd(h, d) for h
    in H); as G divides sum(P'), that is gcd(G, d - gap) == 1 and, for each
    h, gcd(d, gcd(h, sum(P') - gap)) == 1.  A prefix left out has no
    well-formed tuple of an admissible degree sum."""
    depth = length - 1
    full = (2 << max_weight) - 1

    def walk(prefix, table, low):
        if len(prefix) == depth:
            yield prefix, table
            return
        if rows is None or len(prefix) < depth - 1:
            for x in range(low, max_weight + 1):
                if prefixes is None or len(prefix) != 1 or (prefix[0], x) in prefixes:
                    yield from walk(prefix + (x,), _extend(table, x), x)
            return
        big = max(table[3], default=1)
        coprime = rows[big, 1]
        ds = coprime & full >> low << low
        if gap is not None:
            # gcd(G, d - gap) == gcd(G, d + G - gap % G), and d + G <= bound
            ds &= coprime >> big - gap % big
            v = sum(prefix) - gap
            for h in table[2]:
                if (c := gcd(h, v)) != 1:
                    ds &= rows[c, 1]
        while ds:
            bit = ds & -ds
            d = bit.bit_length() - 1
            ds ^= bit
            if prefixes is None or len(prefix) != 1 or (prefix[0], d) in prefixes:
                yield prefix + (d,), _extend(table, d, True)
    return walk((), _EMPTY_TABLE, 1)


def _ambient_well_formed(prefix: tuple[int, ...], table: tuple[frozenset, ...]) -> int:
    """l2, the lcm of the (len(prefix) - 1)-subset gcds of the prefix, or 0
    when the prefix itself is not coprime.  Every len(prefix) weights of
    prefix + (x,) are coprime exactly when l2 is nonzero and gcd(l2, x) == 1:
    the prefix is, and every (len(prefix) - 1)-subset gcd is coprime to x."""
    return 0 if table[3] else lcm(*table[2])


def _sum_gaps(config: SearchConfig) -> tuple[int, int]:
    """(lo_gap, hi_gap): a tuple of weight sum t admits the degree sums from
    t - lo_gap to t - hi_gap (and at least 2 * codim) under the amplitude /
    index filters, which must all hold: K = O(s - t) has s = t - index,
    s = t for Calabi-Yau and s < t for Fano.  An index with Calabi-Yau
    leaves the window empty (lo_gap < hi_gap)."""
    # no lower bound but 2 * codim: no weight sum exceeds length * max_weight
    lo_gap, hi_gap = config.tuple_length * config.max_weight, 0
    if config.index_filter is not None:
        lo_gap = hi_gap = config.index_filter
    if config.amplitude_filter == CALABI_YAU:
        lo_gap = 0
    elif config.amplitude_filter == FANO:
        hi_gap = max(hi_gap, 1)
    return lo_gap, hi_gap


def tuple_sums(config: SearchConfig) -> int:
    """The (weight tuple, degree sum) pairs the search would visit:
    comb(max_weight + n, n + 1) sorted tuples of n + 1 weights times the
    width of each tuple's degree-sum window (`_sum_gaps`): 1 under an index
    or Calabi-Yau filter, about (n + 1) * max_weight otherwise, and counted
    as at least 1 so that the weight bound stays capped when the filters
    admit no sum."""
    lo_gap, hi_gap = _sum_gaps(config)
    length = config.tuple_length
    return (comb(config.max_weight + length - 1, length)
            * max(lo_gap - hi_gap + 1, 1))


class _Progressions(dict):
    """Residue-progression bitmasks up to `bound`: self[m][r] has the bits
    r, r + m, r + 2m, ... <= bound.  A modulus's row is built on its first
    use, so a search builds only the rows it reads.  `divides` holds the
    search's gcd rows to the same bound."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound
        self.divides = _GcdRows(bound)

    def __missing__(self, m: int) -> list[int]:
        full = (2 << self.bound) - 1
        base = sum(1 << k for k in range(0, self.bound + 1, m))
        row = self[m] = [base << r & full for r in range(m)]
        return row


class _GcdRows(dict):
    """Bitmasks up to `bound`, each built on its first use: self[g, c] has
    the bits x, 1 <= x <= bound, with gcd(g, x) dividing c (self[g, 1]: the
    x coprime to g), and self[v], for an integer v, the x dividing v (every
    x at v = 0)."""

    def __init__(self, bound: int):
        super().__init__()
        self.bound = bound

    def __missing__(self, key) -> int:
        xs = range(1, self.bound + 1)
        if type(key) is int:
            row = sum(1 << x for x in xs if key % x == 0)
        else:
            g, c = key
            row = sum(1 << x for x in xs if c % gcd(g, x) == 0)
        self[key] = row
        return row


def _residue_bitsets(prefix: tuple[int, ...]) -> list[tuple[int, int]]:
    """(a, bitset of the residues mod a of the prefix's weights) for each
    weight a > 1 of the prefix."""
    out = []
    for a in {*prefix} - _ONE:
        r = 0
        for b in prefix:
            r |= 1 << b % a
        out.append((a, r))
    return out


def _degree_splits(config: SearchConfig, prefix: tuple[int, ...],
                   table: tuple[frozenset, ...], l2: int, gaps: tuple[int, int],
                   per: _Progressions
                   ) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(ws, degrees) for each tuple ws = prefix + (x,) that is ambient well
    formed and each of its sorted multidegrees whose degree sum the
    amplitude/index filters admit (the window `gaps` of `_sum_gaps`), that
    pass the linear-cone exclusion and intersection well-formedness
    (Iano-Fletcher 6.10 / 6.12); by x, then degree sum, then degrees.
    `table` is the prefix's gcd table and `l2` its `_ambient_well_formed`.

    With n + 1 weights and c degrees, every (n-1-c+mu)-subset gcd must divide
    at least mu degrees, mu = 1..c.  At mu = c these are the (n-1)-subsets and
    must divide every degree, so all degrees (and their sum) are multiples of
    the step, the lcm of those gcds: l2 and the gcds of x with the
    (n-2)-subset gcds of the prefix.  At c = 2 the (n-2)-subset gcds must divide one degree;
    those dividing the step already divide both.

    Each degree is then screened by the one-variable clause of every weight
    a (Iano-Fletcher Thm 8.1 / 8.7): a degree with no monomial in x_a needs
    a partner monomial x_a^m * x_e, so it is congruent mod a to some
    weight; a multidegree passes when a divides one degree or every degree
    is a weight residue mod a.  The screen drops only what `qs_*_fast`'s
    own residue pre-pass rejects.  The largest weight x is sieved in the
    masks below, each smaller weight per split against its
    `_residue_bitsets` entry.  The splits handed to the check fall from
    274,864 with no screen to 27,020 with the largest weight's clause and
    832 with every weight's at `--dim 2 --codim 2 --index 1 --max-weight
    25`, and from 12,044 to 95 at `--dim 2 --codim 1 --amplitude
    CalabiYau --max-weight 50`.

    The last weights x are sieved as one bitmask per prefix (bit x set iff
    x may pass), built from the rows of `per`: prefix[-1] <= x <=
    max_weight and gcd(l2, x) == 1.  With one degree sum per tuple
    (lo_gap == hi_gap) it is s = u + x, u = sum(prefix) - lo_gap, and the
    step divides s exactly when l2 divides u + x, which forces gcd(l2, x)
    = gcd(l2, u) (no x passes unless that is 1) and leaves one residue
    class of x mod l2, and when each gcd(g, x), g in the prefix's
    (n-2)-subset gcds, divides u (it divides x already).  So, with one
    degree sum, no x is visited whose tuple has none that is admissible.
    A hypersurface of one degree sum also keeps x only if x divides u - b
    for some b in {0} ∪ prefix, which is x's clause (s mod x is 0 or a
    prefix weight), read from the divisor rows of `per`.

    At c = 2 the first degrees d1 of one degree sum s are sieved as one
    bitmask (bit d1 set iff d1 passes): every condition above but the
    smaller weights' clauses is a congruence of d1, read from the
    progression rows of `per`, or a bound 2 <= d1 <= s/2, or a cone d1 or
    s - d1 to clear.  The set bits of both masks are taken from the lowest
    up, so the tuples come out in ascending x and the splits in ascending
    d1.
    """
    lo_gap, hi_gap = gaps
    floor = 2 * config.codim
    t0, t1 = table[0], table[1]
    base = sum(prefix)
    first = prefix[-1]
    single = lo_gap == hi_gap
    hypersurface = config.codim == 1
    if single:
        u = base - lo_gap
        if gcd(l2, u) != 1:
            return
        first = max(first, floor - u)       # s >= floor
        xs = per[l2][-u % l2]
        for g in t1:
            xs &= per.divides[g, gcd(g, u)]
        if hypersurface:
            clause = 0
            for b in {0, *prefix}:
                clause |= per.divides[u - b]
            xs &= clause
    else:
        xs = per.divides[l2, 1]
    xs &= (2 << config.max_weight) - 1 >> first << first
    if not xs:
        return
    # the linear cones as first degrees, and mirrored: bit top - c of
    # high_cones shifted down by top - s is bit s - c
    top = per.bound
    cone = int(config.exclude_linear_cones)
    low_cones = high_cones = 0
    for b in prefix:
        low_cones |= cone << b
        high_cones |= cone << top - b
    # every prefix weight b <= x, so its residue mod x is b, or 0 at b = x
    residues = {0, *prefix}
    last_residues = residues - {prefix[-1]}
    # the smaller weights' `_residue_bitsets`, made at the prefix's first
    # split; a weight equal to x is tested again, which changes nothing
    smaller = None
    while xs:
        bit = xs & -xs
        x = bit.bit_length() - 1
        xs ^= bit
        total = base + x
        if single:
            s = total - lo_gap
        else:
            # the step bounds the sums of a window
            step = lcm(l2, *map(gcd, t1, repeat(x))) if t1 else l2
            lo = max(total - lo_gap, floor)
            sums = range(-(-lo // step) * step, total - hi_gap + 1, step)
            if not sums:
                continue
        ws = prefix + (x,)
        low = low_cones | cone << x
        # quasi-smoothness at the vertex of the largest weight (Iano-Fletcher
        # Thm 8.1 / 8.7): a degree not divisible by x is a weight residue
        res = residues if x > prefix[-1] else last_residues
        if hypersurface:
            # a single sum has passed x's clause in the mask
            for s in (s,) if single else sums:
                if low >> s & 1 or not single and s % x not in res:
                    continue
                if smaller is None:
                    smaller = _residue_bitsets(prefix)
                for a, r in smaller:
                    if not (r | 1 << x % a) >> s % a & 1:
                        break
                else:
                    yield ws, (s,)
            continue
        by_x = per[x]
        high = high_cones | cone << top - x
        if single:
            sx = s % x
            mask = by_x[0] | by_x[sx]
            for r in res:
                if (sx - r) % x in res:
                    mask |= by_x[r]
            # the (n-2)-subset gcds g: those of the prefix, then those of
            # its (n-3)-subsets with x.  A g dividing s divides d1 exactly
            # when it divides d2, so it joins the step of d1; any other g
            # leaves d1 = 0 or s (mod g).  The mask made l2 and each gcd(g,
            # x), g in t1, divide s, and that g's own condition makes the
            # latter divide d1, so the step of d1 starts at l2; a g that
            # comes twice changes nothing.
            d_step = l2
            for g in t1:
                sg = s % g
                if sg:
                    by_g = per[g]
                    mask &= by_g[0] | by_g[sg]
                elif d_step % g:
                    d_step = lcm(d_step, g)
            for g in t0:
                g = gcd(g, x)
                sg = s % g
                if sg:
                    by_g = per[g]
                    mask &= by_g[0] | by_g[sg]
                elif d_step % g:
                    d_step = lcm(d_step, g)
            mask &= per[d_step][0] & (2 << s // 2) - 4   # and 2 <= d1 <= s/2
            mask &= ~(low | high >> top - s)
            if mask and smaller is None:
                smaller = _residue_bitsets(prefix)
            while mask:
                bit = mask & -mask
                d1 = bit.bit_length() - 1
                mask ^= bit
                d2 = s - d1
                for a, r in smaller:
                    r1 = d1 % a
                    if r1 and (r2 := d2 % a):
                        r |= 1 << x % a
                        if not r >> r1 & r >> r2 & 1:
                            break
                else:
                    yield ws, (d1, d2)
            continue
        # the (n-2)-subset gcds that do not divide the step, as above, in
        # one list for the window's sums
        rest = [g for g in t1 if step % g]
        for g in t0:
            g = gcd(g, x)
            if step % g and g not in rest:
                rest.append(g)
        for s in sums:
            sx = s % x
            mask = by_x[0] | by_x[sx]
            for r in res:
                if (sx - r) % x in res:
                    mask |= by_x[r]
            d_step = step
            for g in rest:
                sg = s % g
                if sg:
                    by_g = per[g]
                    mask &= by_g[0] | by_g[sg]
                else:
                    d_step = lcm(d_step, g)
            mask &= per[d_step][0] & (2 << s // 2) - 4
            mask &= ~(low | high >> top - s)
            if mask and smaller is None:
                smaller = _residue_bitsets(prefix)
            while mask:
                bit = mask & -mask
                d1 = bit.bit_length() - 1
                mask ^= bit
                d2 = s - d1
                for a, r in smaller:
                    r1 = d1 % a
                    if r1 and (r2 := d2 % a):
                        r |= 1 << x % a
                        if not r >> r1 & r >> r2 & 1:
                            break
                else:
                    yield ws, (d1, d2)


def iter_candidates(config: SearchConfig,
                    prefixes: Optional[set[tuple[int, int]]] = None
                    ) -> Iterator[WciDescriptor]:
    """Normalized descriptors passing every combinatorial filter, in
    deterministic order: weights lexicographically, then degree sum, then
    degrees."""
    quasi_smooth = qs_hypersurface_fast if config.codim == 1 else qs_ci2_fast
    gaps = _sum_gaps(config)
    if gaps[0] < gaps[1]:     # the filters admit no degree sum
        return
    # no degree of a split exceeds the largest weight sum
    per = _Progressions(config.tuple_length * config.max_weight)
    walk = _sorted_tuples(config.tuple_length, config.max_weight, prefixes,
                          per.divides, gaps[0] if gaps[0] == gaps[1] else None)
    for prefix, table in walk:
        l2 = _ambient_well_formed(prefix, table)
        if not l2:
            continue
        last = None
        for ws, degs in _degree_splits(config, prefix, table, l2, gaps, per):
            if ws is not last:      # one tuple object per last weight
                last, masks = ws, {}
            if quasi_smooth(ws, *degs, masks):
                yield WciDescriptor.of(ws, degs)


def run_search(config: SearchConfig,
               prefixes: Optional[set[tuple[int, int]]] = None) -> list[CandidateRecord]:
    """Materialize candidate records (descriptor + verdict + table match)."""
    return [CandidateRecord(desc, cylinder.verdict(desc))
            for desc in iter_candidates(config, prefixes)]


def partition(config: SearchConfig, shard_count: int) -> list[set[tuple[int, int]]]:
    """Disjoint covering partition of the (a_0, a_1) prefix space."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    all_prefixes = [(a, b)
                    for a in range(1, config.max_weight + 1)
                    for b in range(a, config.max_weight + 1)]
    shards: list[set[tuple[int, int]]] = [set() for _ in range(shard_count)]
    for k, p in enumerate(all_prefixes):
        shards[k % shard_count].add(p)
    return [s for s in shards if s]


def _shard_worker(args) -> list[tuple[tuple, tuple]]:
    config, prefixes = args
    return [(d.weights, d.multidegree) for d in iter_candidates(config, prefixes)]


def run_search_parallel(config: SearchConfig, jobs: int) -> list[CandidateRecord]:
    """Sharded search; results merged and re-sorted, identical to a serial run.
    At most min(jobs, CPU count, prefix count) worker processes are started;
    a single one means a serial run."""
    prefix_count = config.max_weight * (config.max_weight + 1) // 2
    jobs = min(jobs, os.cpu_count() or 1, prefix_count)
    if jobs <= 1:
        return run_search(config)
    import multiprocessing

    shards = partition(config, jobs)
    with multiprocessing.Pool(processes=jobs) as pool:
        chunks = pool.map(_shard_worker, [(config, s) for s in shards])
    keys = sorted(k for chunk in chunks for k in chunk)
    descs = [WciDescriptor.of(ws, degs) for ws, degs in keys]
    return [CandidateRecord(desc, cylinder.verdict(desc)) for desc in descs]


def write_records(records: Sequence[CandidateRecord], path: str,
                  fmt: str = "jsonl") -> None:
    """Deterministic output: byte-identical files for identical runs."""
    if fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
    elif fmt == "csv":
        import csv as _csv
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for rec in records:
                writer.writerow(rec.to_csv_row())
    else:
        raise ValueError(f"unknown format {fmt!r}")
