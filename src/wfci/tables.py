"""Embedded classification data for the three family tables.

T1 holds the 35 infinite series of del Pezzo hypersurfaces in P(a_0,...,a_3)
(with their K-stability status strings carried verbatim as opaque metadata),
T2 the 37 sporadic codimension-2 log del Pezzo complete intersections of
index 1, and T3 the 3 infinite series of such intersections.  Weights and
degrees are stored as (slope, intercept) pairs of linear formulas in the
series parameter n; sporadic rows have all slopes zero.

The dataset lives in a CSV reviewed against the published tables and guarded
by a pinned checksum; WFCI_DATA may point at an alternative file, which is
checksummed all the same.
"""

from __future__ import annotations

import csv
import hashlib
import os
from importlib import resources
from typing import Optional

from .record import Record, setfield
from .wci import (WciDescriptor, adjunction, general_qs, linear_cone_flags,
                  well_formed_ci, FANO)
from .wps import is_well_formed

DATA_SHA256 = "ea911fcfd5fa8a2abe67399af5989826fd0fe9940bc61abe093fc74317d958ce"

TABLE_IDS = ("T1", "T2", "T3")


class DataIntegrityError(RuntimeError):
    """Embedded table data does not match the pinned checksum."""


class FamilyRow(Record):
    def __init__(self, table_id: str, row_id: int, weight_slopes: tuple[int, ...],
                 weight_intercepts: tuple[int, ...], degree_slopes: tuple[int, ...],
                 degree_intercepts: tuple[int, ...], k_metadata: str):
        setfield(self, "table_id", table_id)
        setfield(self, "row_id", row_id)
        setfield(self, "weight_slopes", weight_slopes)
        setfield(self, "weight_intercepts", weight_intercepts)
        setfield(self, "degree_slopes", degree_slopes)
        setfield(self, "degree_intercepts", degree_intercepts)
        setfield(self, "k_metadata", k_metadata)

    @property
    def sporadic(self) -> bool:
        return all(s == 0 for s in self.weight_slopes + self.degree_slopes)

    def weights_at(self, n: int) -> tuple[int, ...]:
        return tuple(s * n + t for s, t in zip(self.weight_slopes, self.weight_intercepts))

    def degrees_at(self, n: int) -> tuple[int, ...]:
        return tuple(s * n + t for s, t in zip(self.degree_slopes, self.degree_intercepts))


def _data_bytes() -> bytes:
    override = os.environ.get("WFCI_DATA")
    if override:
        with open(override, "rb") as fh:
            return fh.read()
    return resources.files("wfci").joinpath("data/families.csv").read_bytes()


def data_checksum() -> str:
    return hashlib.sha256(_data_bytes()).hexdigest()


# verified rows with their index by (weight count, degree count), per data
# source (the WFCI_DATA value, None for the packaged file): each source is
# read and checksummed once per process
_verified: dict[Optional[str], tuple[list[FamilyRow], dict[tuple[int, int], list[FamilyRow]]]] = {}


def _parse(raw: bytes) -> list[FamilyRow]:
    rows = []
    reader = csv.DictReader(raw.decode("utf-8").splitlines())
    for rec in reader:
        rows.append(FamilyRow(
            rec["table"],
            int(rec["row"]),
            tuple(int(x) for x in rec["weight_slopes"].split(";")),
            tuple(int(x) for x in rec["weight_intercepts"].split(";")),
            tuple(int(x) for x in rec["degree_slopes"].split(";")),
            tuple(int(x) for x in rec["degree_intercepts"].split(";")),
            rec["k_metadata"],
        ))
    return rows


def _verified_rows() -> tuple[list[FamilyRow], dict[tuple[int, int], list[FamilyRow]]]:
    source = os.environ.get("WFCI_DATA") or None
    hit = _verified.get(source)
    if hit is None:
        raw = _data_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if digest != DATA_SHA256:
            raise DataIntegrityError(
                f"family table checksum mismatch: {digest} != {DATA_SHA256}")
        rows = _parse(raw)
        index: dict[tuple[int, int], list[FamilyRow]] = {}
        for row in rows:
            index.setdefault((len(row.weight_slopes), len(row.degree_slopes)), []).append(row)
        hit = _verified[source] = (rows, index)
    return hit


def load_rows() -> list[FamilyRow]:
    """The 35 + 37 + 3 table rows; verified rows are cached per data source."""
    return _verified_rows()[0]


def get_row(table_id: str, row_id: int) -> FamilyRow:
    for row in load_rows():
        if row.table_id == table_id and row.row_id == row_id:
            return row
    raise KeyError(f"no row {row_id} in table {table_id}")


def instantiate(table_id: str, row_id: int, n: int = 1) -> WciDescriptor:
    """Descriptor for a table row; n is ignored for sporadic rows."""
    row = get_row(table_id, row_id)
    if row.sporadic:
        n = 1
    if n < 1:
        raise ValueError("series parameter must be >= 1")
    return WciDescriptor.of(row.weights_at(n), row.degrees_at(n))


def match(desc: WciDescriptor) -> Optional[tuple[str, int, Optional[int]]]:
    """Reverse lookup: (table_id, row_id, n) whose instantiation equals the
    normalized descriptor, or None.  First match in table order wins."""
    ws, ds = desc.weights, desc.multidegree
    for row in _verified_rows()[1].get((len(ws), len(ds)), ()):
        if row.sporadic:
            if row.weight_intercepts == ws and row.degree_intercepts == ds:
                return row.table_id, row.row_id, None
            continue
        pivot = next((k for k, s in enumerate(row.weight_slopes) if s), None)
        if pivot is None:
            continue
        num = ws[pivot] - row.weight_intercepts[pivot]
        if num % row.weight_slopes[pivot]:
            continue
        n = num // row.weight_slopes[pivot]
        if n < 1:
            continue
        if row.weights_at(n) == ws and row.degrees_at(n) == ds:
            return row.table_id, row.row_id, n
    return None


class Violation(Record):
    def __init__(self, table_id: str, row_id: int, n: Optional[int], reason: str):
        setfield(self, "table_id", table_id)
        setfield(self, "row_id", row_id)
        setfield(self, "n", n)
        setfield(self, "reason", reason)


class VerifyReport(Record):
    def __init__(self, checked: int, violations: tuple[Violation, ...]):
        setfield(self, "checked", checked)
        setfield(self, "violations", violations)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_all(n_max: int) -> VerifyReport:
    """Run the combinatorial battery over every row and parameter value.

    Each instantiation must have a well-formed ambient, pass the matching
    well-formedness criterion, carry no linear-cone coincidence, and have a
    quasi-smooth general member.  T1 rows must be Fano; T2/T3 rows must have
    Fano index exactly 1.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    checked = 0
    violations: list[Violation] = []
    for row in load_rows():
        params = [1] if row.sporadic else list(range(1, n_max + 1))
        for n in params:
            desc = instantiate(row.table_id, row.row_id, n)
            checked += 1

            def bad(reason: str):
                violations.append(Violation(row.table_id, row.row_id,
                                            None if row.sporadic else n, reason))

            if not is_well_formed(desc.ambient):
                bad("ambient not well-formed")
                continue
            if not well_formed_ci(desc):
                bad("intersection not well-formed")
            if linear_cone_flags(desc):
                bad("linear cone coincidence")
                continue
            qs = general_qs(desc, witnesses=False)
            if qs is not None and not qs.holds:
                bad(f"general member not quasi-smooth (subset {qs.failing_subset})")
            adj = adjunction(desc)
            if adj.amplitude != FANO:
                bad(f"not Fano (canonical coefficient {adj.canonical_coefficient})")
            elif row.table_id in ("T2", "T3") and adj.fano_index != 1:
                bad(f"Fano index {adj.fano_index} != 1")
    return VerifyReport(checked, tuple(violations))
