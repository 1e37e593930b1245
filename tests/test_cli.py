import json

import pytest

from wfci.cli import main
from wfci.poly import GradedPolynomial, generic_member


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_table2_row2(capsys):
    code, out, _ = run(capsys, "analyze", "--weights", "1,2,3,4,5",
                       "--degrees", "6,8")
    assert code == 0
    assert "fano_index: 1" in out
    assert "quasi_smooth: True" in out
    assert "'table': 'T2', 'row': 2" in out
    assert "cylinder status: Unknown" in out


def test_analyze_quadric_threefold(capsys):
    code, out, _ = run(capsys, "analyze", "--weights", "1,1,1,1,1",
                       "--degrees", "2")
    assert code == 0
    assert "cylinder status: Cylindrical" in out
    assert "SumOfTwoWeights" in out


def test_analyze_non_well_formed_note(capsys):
    code, out, _ = run(capsys, "analyze", "--weights", "2,2,3", "--degrees", "5")
    assert code == 0
    assert "normalize first" in out
    assert "ambient_well_formed: False" in out


def test_analyze_json_format(capsys):
    code, out, _ = run(capsys, "analyze", "--weights", "3,4,5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["cylinder"]["status"] == "Cylindrical"
    assert doc["canonical_degree"] == -12


def test_analyze_usage_errors(capsys):
    code, _, err = run(capsys, "analyze", "--weights", "1")
    assert code == 2
    code, _, err = run(capsys, "analyze", "--weights", "1,1,1",
                       "--degrees", "2,2")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--weights", "not-numbers"])
    assert exc.value.code == 2


def test_verify_tables_small(capsys):
    # 75 rows checked; rows 16 and 20 of the printed hypersurface table are
    # not well-formed at odd parameters, so even n-max=1 reports violations
    code, out, _ = run(capsys, "verify-tables", "--n-max", "1")
    assert code == 1
    assert "checked 75 instantiations" in out
    assert "VIOLATION T1 row 16 n=1" in out
    assert "VIOLATION T1 row 20 n=1" in out
    assert "result: FAIL (2 violations)" in out


def test_verify_tables_reports_known_defect(capsys):
    # row 16 fails well-formedness at odd n: nonzero exit with violation lines
    code, out, _ = run(capsys, "verify-tables", "--n-max", "3")
    assert code == 1
    assert "VIOLATION T1 row 16 n=3" in out
    assert "result: FAIL" in out


def test_verify_tables_checksum_gate(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "families.csv"
    bad.write_text("table,row\n")
    monkeypatch.setenv("WFCI_DATA", str(bad))
    code, _, err = run(capsys, "verify-tables", "--n-max", "1")
    assert code == 3
    assert "checksum" in err


def test_enumerate_roundtrip(tmp_path, capsys):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        code, msg, _ = run(capsys, "enumerate", "--dim", "2", "--codim", "2",
                           "--index", "1", "--max-weight", "5",
                           "--out", str(out))
        assert code == 0
        assert "emitted 9 records" in msg
    assert out1.read_bytes() == out2.read_bytes()
    records = [json.loads(line) for line in out1.read_text().splitlines()]
    assert {tuple(r["weights"]) for r in records} >= {
        (1, 2, 2, 3, 3), (1, 2, 3, 4, 5), (1, 1, 1, 1, 1), (1, 1, 2, 2, 3)}


def test_enumerate_rejects_codim3(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "2", "--codim", "3",
                       "--index", "1", "--max-weight", "5", "--out", "/dev/null")
    assert code == 2
    assert "codim" in err


def test_enumerate_io_failure(capsys):
    code, _, err = run(capsys, "enumerate", "--dim", "2", "--codim", "2",
                       "--index", "1", "--max-weight", "3",
                       "--out", "/nonexistent-dir/x.jsonl")
    assert code == 4


def test_normal_form_command(tmp_path, capsys):
    poly = generic_member((1, 1, 2, 3), 4, seed=11)
    src = tmp_path / "poly.json"
    src.write_text(json.dumps(poly.to_json()))
    dst = tmp_path / "nf.json"
    code, out, _ = run(capsys, "normal-form", str(src), "--pair", "0,3",
                       "--out", str(dst))
    assert code == 0
    doc = json.loads(dst.read_text())
    assert doc["pair"] == [0, 3]
    result = GradedPolynomial.from_json(doc["result"])
    remainder = GradedPolynomial.from_json(doc["remainder"])
    assert not remainder.involves(0) and not remainder.involves(3)
    cross = (1, 0, 0, 1)
    assert result.coefficient(cross).base == 1


def test_normal_form_conic_with_radical(tmp_path, capsys):
    conic = GradedPolynomial((1, 1, 1), 2,
                             {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    src = tmp_path / "conic.json"
    src.write_text(json.dumps(conic.to_json()))
    code, out, _ = run(capsys, "normal-form", str(src), "--pair", "0,1")
    assert code == 0
    assert json.loads(out)["radicand"] == -1


def test_normal_form_precondition_failure(tmp_path, capsys):
    poly = GradedPolynomial((1, 1, 2, 2), 4, {(4, 0, 0, 0): 1})
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(poly.to_json()))
    code, _, err = run(capsys, "normal-form", str(src), "--pair", "2,3")
    assert code == 5
    assert "cross term absent" in err


def test_normal_form_missing_file(capsys):
    code, _, err = run(capsys, "normal-form", "/no/such/file.json",
                       "--pair", "0,1")
    assert code == 4


def test_normal_form_generated_member(capsys):
    code, out, _ = run(capsys, "normal-form", "--weights", "1,1,2,3",
                       "--pair", "0,3", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["pair"] == [0, 3]
    result = GradedPolynomial.from_json(doc["result"])
    assert result.coefficient((1, 0, 0, 1)).base == 1
    # identical invocation, identical payload
    code, out2, _ = run(capsys, "normal-form", "--weights", "1,1,2,3",
                        "--pair", "0,3", "--seed", "7")
    assert out2 == out


def test_normal_form_output_matches_polynomial_schema(tmp_path, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from importlib import resources
    schema = json.loads(resources.files("wfci").joinpath(
        "schemas/polynomial.schema.json").read_text())
    code, out, _ = run(capsys, "normal-form", "--weights", "2,2,3,3",
                       "--pair", "0,1", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc["result"], schema)
    jsonschema.validate(doc["remainder"], schema)
    for op in doc["changes"]:
        if op["op"] == "substitute":
            jsonschema.validate(op["replacement"], schema)


def test_enumerate_jobs_flag(tmp_path, capsys):
    serial = tmp_path / "serial.jsonl"
    sharded = tmp_path / "sharded.jsonl"
    args = ["enumerate", "--dim", "2", "--codim", "2", "--index", "1",
            "--max-weight", "5"]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(sharded), "--jobs", "3"]) == 0
    capsys.readouterr()
    assert serial.read_bytes() == sharded.read_bytes()


@pytest.mark.parametrize("cpus,max_weight,processes", [(4, 5, 4), (64, 2, 3)])
def test_enumerate_jobs_clamped(tmp_path, capsys, monkeypatch, cpus, max_weight, processes):
    # the pool size is min(--jobs, CPU count, weight prefixes); a fake pool
    # records it and maps in this process, so no worker is ever started
    import multiprocessing
    import os
    asked = []

    class RecordingPool:
        def __init__(self, processes=None):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    serial = tmp_path / "serial.jsonl"
    sharded = tmp_path / "sharded.jsonl"
    args = ["enumerate", "--dim", "2", "--codim", "2", "--index", "1",
            "--max-weight", str(max_weight)]
    assert main(args + ["--out", str(serial)]) == 0
    assert main(args + ["--out", str(sharded), "--jobs", "1000000"]) == 0
    capsys.readouterr()
    assert asked == [processes]
    assert serial.read_bytes() == sharded.read_bytes()


def test_analyze_reports_defective_table_row(capsys):
    # row 16 at n = 3: table formulas match but the row is not well-formed
    code, out, _ = run(capsys, "analyze", "--weights", "7,78,117,172",
                       "--degrees", "351")
    assert code == 0
    assert "well_formed: False" in out
    assert "'table': 'T1', 'row': 16" in out
    assert "cylinder status: Unknown" in out
