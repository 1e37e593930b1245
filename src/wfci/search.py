"""Bounded exhaustive enumeration of Fano weighted complete intersections.

Walks every sorted weight tuple up to a bound, every admissible multidegree
under the amplitude/index constraints, and keeps the normalized descriptors
whose ambient is well-formed, whose intersection is well-formed, and whose
general member is quasi-smooth (codimension 1 or 2; no criterion exists
beyond that).  Intersections with linear cones are excluded by default since
they reduce to smaller spaces.  Output order is deterministic: lexicographic
in weights, then degrees; sharded runs cover disjoint first-two-weight
prefixes and merge to the same record set.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm
from typing import Iterator, Optional, Sequence

from . import cylinder
from .wci import (WciDescriptor, adjunction, qs_ci2_fast, qs_hypersurface_fast,
                  FANO, CALABI_YAU)


@dataclass(frozen=True)
class SearchConfig:
    dim: int
    codim: int
    max_weight: int
    index_filter: Optional[int] = None
    amplitude_filter: Optional[str] = None
    exclude_linear_cones: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.codim not in (1, 2):
            raise ValueError("codim must be 1 or 2: no quasi-smoothness "
                             "criterion is available beyond codimension 2")
        if self.max_weight < 1:
            raise ValueError("max_weight must be >= 1")
        if self.index_filter is not None and self.index_filter < 1:
            raise ValueError("index must be >= 1: a Fano index is positive")

    @property
    def tuple_length(self) -> int:
        return self.dim + self.codim + 1


@dataclass(frozen=True)
class CandidateRecord:
    descriptor: WciDescriptor
    verdict: cylinder.CylinderVerdict
    table_hit: Optional[tuple[str, int, Optional[int]]]

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


def _sorted_tuples(length: int, max_weight: int,
                   prefixes: Optional[set[tuple[int, int]]] = None) -> Iterator[tuple[int, ...]]:
    """Non-decreasing weight tuples in lexicographic order, optionally
    restricted to a set of (first, second) weight prefixes."""
    weights = range(1, max_weight + 1)
    if prefixes is None or length < 2:
        return combinations_with_replacement(weights, length)
    return ((a, b) + rest
            for a, b in sorted(prefixes) if 1 <= a <= b <= max_weight
            for rest in combinations_with_replacement(weights[b - 1:], length - 2))


def _ambient_well_formed(ws: tuple[int, ...]) -> bool:
    """Every len(ws) - 1 of the weights are coprime.  When the first two are
    coprime, only the subsets omitting one of them can fail."""
    if gcd(ws[0], ws[1]) == 1:
        return gcd(*ws[1:]) == 1 and gcd(ws[0], *ws[2:]) == 1
    return all(gcd(*ws[:i], *ws[i + 1:]) == 1 for i in range(len(ws)))


def _degree_splits(config: SearchConfig, ws: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Sorted multidegrees for one weight tuple (ambient well-formed) that pass
    the amplitude/index filter, the linear-cone exclusion and intersection
    well-formedness (Iano-Fletcher 6.10 / 6.12), by degree sum, then degrees.

    With n + 1 weights and c degrees, every (n-1-c+mu)-subset gcd must divide
    at least mu degrees, mu = 1..c.  At mu = c these are the (n-1)-subsets and
    must divide every degree, so all degrees (and their sum) are multiples of
    `step`, the lcm of those gcds.  At c = 2 the (n-2)-subset gcds must divide
    one degree; those dividing `step` already divide both.  A tuple with no
    multiple of `step` in range stops there.

    Each degree is then screened by the one-variable clause of the largest
    weight a: a degree with no monomial in x_a needs a partner monomial
    x_a^m * x_e, so it is congruent mod a to some weight.  At c = 2 a split
    passes when a divides one degree or both residues are weight residues.
    The screen drops only what `qs_*_fast`'s own residue pre-pass rejects.
    """
    codim = config.codim
    step = lcm(*{gcd(*sub) for sub in combinations(ws, len(ws) - 2)})
    total = sum(ws)
    if config.index_filter is not None:
        lo = hi = total - config.index_filter
    elif config.amplitude_filter == FANO:
        lo, hi = 2 * codim, total - 1
    elif config.amplitude_filter == CALABI_YAU:
        lo = hi = total
    else:
        lo, hi = 2 * codim, total
    lo = max(lo, 2 * codim)
    sums = range(-(-lo // step) * step, hi + 1, step)
    if not sums:
        return
    cones = set(ws) if config.exclude_linear_cones else ()
    # quasi-smoothness at the vertex of the largest weight (Iano-Fletcher
    # Thm 8.1 / 8.7): a degree not divisible by a is a weight residue mod a
    a = ws[-1]
    res = {b % a for b in ws}
    if codim == 1:
        for s in sums:
            if s % a in res and s not in cones:
                yield (s,)
        return
    rest = [g for g in {gcd(*sub) for sub in combinations(ws, len(ws) - 3)} if step % g]
    for s in sums:
        # a g dividing s divides d1 exactly when it divides d2, so it joins
        # the step; any other g leaves d1 = 0 or s (mod g)
        s_step = lcm(step, *[g for g in rest if not s % g])
        half = s // 2
        d1s = set(range(max(s_step, 2), half + 1, s_step))
        d1s.difference_update(cones, [s - a for a in cones])
        for g in rest:
            if s % g:
                d1s.intersection_update({*range(g, half + 1, g),
                                         *range(s % g, half + 1, g)})
        ok = {0, s % a, *[r for r in res if (s - r) % a in res]}
        for d1 in sorted(d1s):
            if d1 % a in ok:
                yield (d1, s - d1)


def iter_candidates(config: SearchConfig,
                    prefixes: Optional[set[tuple[int, int]]] = None
                    ) -> Iterator[WciDescriptor]:
    """Normalized descriptors passing every combinatorial filter, in
    deterministic order: weights lexicographically, then degree sum, then
    degrees."""
    quasi_smooth = qs_hypersurface_fast if config.codim == 1 else qs_ci2_fast
    for ws in _sorted_tuples(config.tuple_length, config.max_weight, prefixes):
        if not _ambient_well_formed(ws):
            continue
        masks: dict[tuple[int, ...], tuple[int, int]] = {}
        for degs in _degree_splits(config, ws):
            if quasi_smooth(ws, *degs, masks):
                yield WciDescriptor.of(ws, degs)


def run_search(config: SearchConfig,
               prefixes: Optional[set[tuple[int, int]]] = None) -> list[CandidateRecord]:
    """Materialize candidate records (descriptor + verdict + table match)."""
    records = []
    for desc in iter_candidates(config, prefixes):
        v = cylinder.verdict(desc)
        records.append(CandidateRecord(desc, v, v.table_hit))
    return records


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
    records = []
    for ws, degs in keys:
        desc = WciDescriptor.of(ws, degs)
        v = cylinder.verdict(desc)
        records.append(CandidateRecord(desc, v, v.table_hit))
    return records


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
