import pytest

from wfci import tables
from wfci.wci import WciDescriptor, linear_cone_flags


def test_row_counts_and_checksum():
    rows = tables.load_rows()
    counts = {}
    for r in rows:
        counts[r.table_id] = counts.get(r.table_id, 0) + 1
    assert counts == {"T1": 35, "T2": 37, "T3": 3}
    assert tables.data_checksum() == tables.DATA_SHA256


def test_checksum_guard(tmp_path, monkeypatch):
    path = tmp_path / "families.csv"
    path.write_bytes(b"table,row\nT9,1\n")
    monkeypatch.setenv("WFCI_DATA", str(path))
    with pytest.raises(tables.DataIntegrityError):
        tables.load_rows()


def test_data_is_read_once_per_source(tmp_path, monkeypatch):
    reads = []
    real = tables._data_bytes

    def counting():
        reads.append(1)
        return real()

    monkeypatch.setattr(tables, "_data_bytes", counting)
    monkeypatch.setattr(tables, "_verified", {})
    t2_row2 = WciDescriptor.of((1, 2, 3, 4, 5), (6, 8))
    for _ in range(3):
        assert tables.match(t2_row2) == ("T2", 2, None)
    assert len(reads) == 1
    # another source is read and checked afresh
    copy = tmp_path / "families.csv"
    copy.write_bytes(real())
    monkeypatch.setenv("WFCI_DATA", str(copy))
    assert tables.match(t2_row2) == ("T2", 2, None)
    assert len(tables.load_rows()) == 75
    assert len(reads) == 2
    tampered = tmp_path / "tampered.csv"
    tampered.write_bytes(b"table,row\nT9,1\n")
    monkeypatch.setenv("WFCI_DATA", str(tampered))
    with pytest.raises(tables.DataIntegrityError):
        tables.match(t2_row2)


def test_sporadic_rows_have_zero_slopes():
    for r in tables.load_rows():
        if r.table_id == "T2":
            assert r.sporadic
        else:
            assert not r.sporadic


def test_instantiate_examples():
    d = tables.instantiate("T1", 4, 2)
    assert d.weights == (1, 7, 12, 18) and d.multidegree == (36,)
    d = tables.instantiate("T2", 2)
    assert d.weights == (1, 2, 3, 4, 5) and d.multidegree == (6, 8)
    d = tables.instantiate("T3", 1, 3)
    assert d.weights == (1, 1, 3, 3, 5) and d.multidegree == (6, 6)
    with pytest.raises(KeyError):
        tables.instantiate("T1", 99)
    with pytest.raises(ValueError):
        tables.instantiate("T1", 1, 0)


def test_formulas_stay_sorted_and_positive():
    for r in tables.load_rows():
        for n in ([1] if r.sporadic else range(1, 31)):
            ws = r.weights_at(n)
            ds = r.degrees_at(n)
            assert all(a >= 1 for a in ws) and all(d >= 2 for d in ds), (r, n)
            assert tuple(sorted(ws)) == ws, (r, n)
            assert tuple(sorted(ds)) == ds, (r, n)


def test_match_examples():
    assert tables.match(WciDescriptor.of((1, 7, 12, 18), 36)) == ("T1", 4, 2)
    assert tables.match(WciDescriptor.of((1, 1, 1, 1), 3)) == ("T1", 1, 1)
    assert tables.match(WciDescriptor.of((9, 15, 23, 23, 31), (46, 54))) == \
        ("T2", 24, None)
    assert tables.match(WciDescriptor.of((1, 1, 1, 2), 5)) is None


def test_match_inverts_instantiate():
    for r in tables.load_rows():
        for n in ([1] if r.sporadic else range(1, 31)):
            d = tables.instantiate(r.table_id, r.row_id, n)
            hit = tables.match(d)
            assert hit is not None, (r.table_id, r.row_id, n)
            tid, rid, m = hit
            # collisions resolve to the first row in table order
            again = tables.instantiate(tid, rid, m or 1)
            assert again.weights == d.weights
            assert again.multidegree == d.multidegree


def test_injectivity_scan_known_collisions():
    seen = {}
    collisions = set()
    for r in tables.load_rows():
        for n in ([1] if r.sporadic else range(1, 31)):
            d = tables.instantiate(r.table_id, r.row_id, n)
            key = (d.weights, d.multidegree)
            if key in seen and seen[key][:2] != (r.table_id, r.row_id):
                collisions.add(frozenset({seen[key][:2], (r.table_id, r.row_id)}))
            seen.setdefault(key, (r.table_id, r.row_id, n))
    # rows 2 and 3 of the infinite hypersurface series coincide at n = 1:
    # both give the quartic (1,1,1,2)/4
    assert collisions == {frozenset({("T1", 2), ("T1", 3)})}


def test_no_table_row_is_a_linear_cone():
    for r in tables.load_rows():
        for n in ([1] if r.sporadic else range(1, 21)):
            d = tables.instantiate(r.table_id, r.row_id, n)
            assert linear_cone_flags(d) == [], (r.table_id, r.row_id, n)


def test_verify_all_results():
    report = tables.verify_all(20)
    assert report.checked == 35 * 20 + 37 + 3 * 20
    # T2 and T3 verify cleanly; the only violations are the documented
    # well-formedness defect of six printed T1 rows at one parity each
    t23 = [v for v in report.violations if v.table_id != "T1"]
    assert t23 == []
    bad = {(v.table_id, v.row_id, v.n, v.reason) for v in report.violations}
    expected_rows = {11: 0, 14: 0, 16: 1, 18: 0, 20: 1, 22: 0}
    expected = {("T1", row, n, "intersection not well-formed")
                for row, parity in expected_rows.items()
                for n in range(1, 21) if n % 2 == parity}
    assert bad == expected


def test_table_quasi_smoothness_against_brute_force():
    from oracles import brute_qs_ci2, brute_qs_hypersurface
    from wfci.wci import general_qs
    for row in tables.load_rows():
        for n in ([1] if row.sporadic else range(1, 7)):
            d = tables.instantiate(row.table_id, row.row_id, n)
            fast = general_qs(d, witnesses=False).holds
            if d.codim == 1:
                brute = brute_qs_hypersurface(d.weights, d.multidegree[0])
            else:
                brute = brute_qs_ci2(d.weights, *d.multidegree)
            assert fast == brute and fast, (row.table_id, row.row_id, n)


def test_verify_all_k_metadata_is_carried():
    row = tables.get_row("T1", 8)
    assert "n=2 3" in row.k_metadata and "unstable" in row.k_metadata
    assert tables.get_row("T2", 1).k_metadata == "-"


def test_verify_all_names_the_failing_subset(monkeypatch):
    # a well-formed Fano hypersurface that is not quasi-smooth, standing in for
    # one sporadic row: the violation names the subset the criterion rejects.
    # A codimension-3 stand-in has no criterion, so it reads as no violation.
    stand_ins = {("T2", 5): ((1, 1, 1, 3), (2,)), ("T2", 6): ((1,) * 7, (2, 2, 2))}

    def stand_in(row):
        if (row.table_id, row.row_id) not in stand_ins:
            return row
        ws, ds = stand_ins[row.table_id, row.row_id]
        return tables.FamilyRow(row.table_id, row.row_id, (0,) * len(ws), ws,
                                (0,) * len(ds), ds, row.k_metadata)
    rows = [stand_in(row) for row in tables.load_rows()]
    monkeypatch.setattr(tables, "load_rows", lambda: rows)
    report = tables.verify_all(1)
    reasons = {key: [v.reason for v in report.violations if (v.table_id, v.row_id) == key]
               for key in stand_ins}
    assert reasons == {("T2", 5): ["general member not quasi-smooth (subset (3,))",
                                   "Fano index 4 != 1"],
                       ("T2", 6): []}
