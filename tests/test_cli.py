import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from wfci import cli, poly, search, tables
from wfci.cli import main
from wfci.poly import Coeff, GradedPolynomial, generic_member
from wfci.wci import WciDescriptor, general_qs, linear_cone_flags, well_formed_ci


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


def test_verify_tables_caps_n_max_before_any_table_read(capsys, monkeypatch):
    # about 11 ms per series parameter: 10^9 would run for days
    def refuse(*args, **kwargs):
        raise AssertionError("tables read on refused input")
    monkeypatch.setattr(cli.tables, "verify_all", refuse)
    monkeypatch.setattr(cli.tables, "load_rows", refuse)
    for n_max in ("1000000000", str(cli.MAX_N + 1), "0"):
        code, out, err = run(capsys, "verify-tables", "--n-max", n_max)
        assert (code, out) == (2, ""), n_max
        assert err.startswith("error: ") and "--n-max" in err, n_max


def test_verify_tables_checksum_gate(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "families.csv"
    bad.write_text("table,row\n")
    monkeypatch.setenv("WFCI_DATA", str(bad))
    code, _, err = run(capsys, "verify-tables", "--n-max", "1")
    assert code == 3
    assert "checksum" in err


@pytest.mark.parametrize("argv", [
    ("verify-tables", "--n-max", "1"),
    ("analyze", "--weights", "1,2,3,4,5", "--degrees", "6,8"),
    ("enumerate", "--dim", "2", "--codim", "1", "--index", "1",
     "--max-weight", "6", "--out", "OUT"),
])
def test_corrupt_table_data_exits_3(tmp_path, monkeypatch, capsys, argv):
    bad = tmp_path / "families.csv"
    bad.write_text("table,row\n")
    monkeypatch.setenv("WFCI_DATA", str(bad))
    out = tmp_path / "records.jsonl"
    code, _, err = run(capsys, *(str(out) if a == "OUT" else a for a in argv))
    assert code == 3
    assert err.startswith("error: family table checksum mismatch")
    assert not out.exists()


@pytest.mark.parametrize("data", ["missing", "directory"])
@pytest.mark.parametrize("argv", [
    ("verify-tables", "--n-max", "1"),
    ("analyze", "--weights", "1,2,3,4,5", "--degrees", "6,8"),
    ("enumerate", "--dim", "2", "--codim", "1", "--index", "1",
     "--max-weight", "6", "--out", "OUT"),
])
def test_unreadable_table_data_exits_4(tmp_path, monkeypatch, capsys, argv, data):
    source = tmp_path / "families.csv"
    if data == "directory":
        source.mkdir()
    monkeypatch.setenv("WFCI_DATA", str(source))
    out = tmp_path / "records.jsonl"
    code, _, err = run(capsys, *(str(out) if a == "OUT" else a for a in argv))
    assert code == 4
    assert err.startswith("error: ") and str(source) in err
    assert "Traceback" not in err
    assert not out.exists()


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


def test_enumerate_filters_must_all_hold(tmp_path, capsys):
    # index 1 means s = t - 1 and Calabi-Yau s = t: no degree sum is both
    out = tmp_path / "f.jsonl"
    code, msg, _ = run(capsys, "enumerate", "--dim", "2", "--codim", "2",
                       "--index", "1", "--amplitude", "CalabiYau",
                       "--max-weight", "12", "--out", str(out))
    assert (code, msg.split()[:2]) == (0, ["emitted", "0"])
    assert out.read_bytes() == b""


def test_enumerate_caps_exit_2_before_search(tmp_path, capsys, monkeypatch):
    # a 42-weight scan would need 2^42 subsets, and the codim-2 box at
    # weights up to 100,000 holds 8e22 tuples: both are refused at once
    def refuse(*args, **kwargs):
        raise AssertionError("search started on refused input")
    monkeypatch.setattr(search, "run_search_parallel", refuse)
    out = tmp_path / "f.jsonl"
    refusals = [
        (["--dim", "2", "--codim", "2", "--index", "1", "--max-weight", "100000"],
         "weight tuples"),
        # inside 10^7 tuples, but 316 degree sums per tuple without a filter
        (["--dim", "2", "--codim", "2", "--max-weight", "63"], "degree sums"),
        (["--dim", "40", "--codim", "1", "--max-weight", "1"], "weights are accepted"),
        (["--dim", str(cli.MAX_WEIGHTS - 1), "--codim", "1", "--max-weight", "1"],
         "weights are accepted"),
    ]
    for argv, reason in refusals:
        code, msg, err = run(capsys, "enumerate", *argv, "--out", str(out))
        assert (code, msg) == (2, ""), argv
        assert err.startswith("error: ") and reason in err, argv
        assert not out.exists()


@pytest.mark.parametrize("dim,codim,max_weight,filters", [
    pytest.param(2, 1, 50, ["--amplitude", "CalabiYau"], id="2-1-50"),
    pytest.param(2, 1, 100, ["--amplitude", "CalabiYau"], id="2-1-100"),
    pytest.param(2, 2, 50, ["--index", "1"], id="2-2-50"),
    pytest.param(cli.MAX_WEIGHTS - 2, 1, 1, [], id=f"{cli.MAX_WEIGHTS - 2}-1-1")])
def test_enumerate_caps_admit_the_literature_runs(tmp_path, capsys, monkeypatch,
                                                  dim, codim, max_weight, filters):
    # k3-c1, the W = 100 K3 count and codim 2 at W = 50, with the filters
    # those runs use, stay inside the caps; the search itself is stubbed out
    monkeypatch.setattr(search, "run_search_parallel", lambda config, jobs: [])
    code, msg, _ = run(capsys, "enumerate", "--dim", str(dim), "--codim", str(codim),
                       "--max-weight", str(max_weight), *filters,
                       "--out", str(tmp_path / "f"))
    assert (code, msg.split()[:2]) == (0, ["emitted", "0"])


def test_enumerate_tuple_cap_boundary(tmp_path, capsys, monkeypatch):
    # the cap counts (weight tuple, degree sum) pairs: one sum per tuple
    # under --index, 5 * W + 1 sums per tuple of five weights without a filter
    monkeypatch.setattr(search, "run_search_parallel", lambda config, jobs: [])
    for filters, width in ((["--index", "1"], lambda w: 1),
                           ([], lambda w: 5 * w + 1)):
        top = max(w for w in range(1, 200)
                  if math.comb(w + 4, 5) * width(w) <= cli.MAX_TUPLE_SUMS)
        codes = [run(capsys, "enumerate", "--dim", "2", "--codim", "2", *filters,
                     "--max-weight", str(w), "--out", str(tmp_path / "f"))[0]
                 for w in (top, top + 1)]
        assert codes == [0, 2], filters
    assert top == 23


# sha256 of the full-size closure-c2 and k3-c1 enumerate files, copied from
# the pins in perfbench/run.py (PINNED_SHA256)
ENUMERATE_SHA256 = {
    "closure-c2": "0b1fd1f23c1254a9d86880433dea1a156ce45761154d1b56acec3268312aac56",
    "k3-c1": "98b66e185e71f11e65014641d606dc32e5b42b2b62495c758bdebb1e6eee1594",
}
ENUMERATE_ARGV = {
    "closure-c2": ["--dim", "2", "--codim", "2", "--index", "1", "--max-weight", "25"],
    "k3-c1": ["--dim", "2", "--codim", "1", "--amplitude", "CalabiYau", "--max-weight", "50"],
}


@pytest.mark.parametrize("name", sorted(ENUMERATE_SHA256))
def test_enumerate_bytes_match_the_benchmark_pins(tmp_path, capsys, name):
    out = tmp_path / f"{name}.jsonl"
    code, _, _ = run(capsys, "enumerate", *ENUMERATE_ARGV[name], "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ENUMERATE_SHA256[name]


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


def _sqrt(k, m):
    return Coeff(Fraction(0), Fraction(k), m)


# a member over two fields, and one over Q(sqrt(3)) whose binary quadratic
# x0^2 + x0 x1 + x1^2 has discriminant -3, whose root lies outside that field
FIELD_CLASHES = [
    ({(1, 1, 0, 0): 1, (0, 0, 2, 0): _sqrt(1, 7), (0, 0, 0, 2): _sqrt(1, 11)},
     "error: incompatible radicands 7 and 11 in the input coefficients\n"),
    ({(2, 0, 0, 0): 1, (1, 1, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): _sqrt(2, 3),
      (0, 0, 1, 1): 1},
     "error: incompatible radicands -3 and 3: the discriminant's root lies "
     "outside the input's field\n"),
]


@pytest.mark.parametrize("terms, message", FIELD_CLASHES)
def test_normal_form_field_clash_exits_5(tmp_path, capsys, terms, message):
    src = tmp_path / "clash.json"
    src.write_text(json.dumps(GradedPolynomial((1, 1, 1, 1), 2, terms).to_json()))
    assert run(capsys, "normal-form", str(src), "--pair", "0,1") == (5, "", message)


@pytest.mark.parametrize("radicand, message", [
    (4, "radicand 4 is not square-free"), (-4, "radicand -4 is not square-free"),
    (8, "radicand 8 is not square-free"), (0, "radicand 0 is not square-free"),
    (10**12 + 39, "radicand of magnitude above 1000000000000 refused")])
def test_normal_form_refuses_a_radicand_that_is_not_square_free(tmp_path, capsys,
                                                                radicand, message):
    # 2 - sqrt(4) is zero, but was once kept as a term of G
    doc = GradedPolynomial((1, 1, 1, 1), 2, {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1}).to_json()
    doc["terms"].append({"exps": [0, 0, 2, 0], "coeff": "2", "radical": "-1",
                         "radicand": radicand})
    src = tmp_path / "radicand.json"
    src.write_text(json.dumps(doc))
    assert run(capsys, "normal-form", str(src), "--pair", "0,1") == (
        2, "", f"error: malformed polynomial JSON: {message}\n")


def test_normal_form_missing_file(capsys):
    code, _, err = run(capsys, "normal-form", "/no/such/file.json",
                       "--pair", "0,1")
    assert code == 4


def test_normal_form_refuses_nonpositive_weights(capsys):
    code, out, err = run(capsys, "normal-form", "--weights", "0,1,2", "--pair", "1,2")
    assert (code, out) == (2, "")
    assert err == "error: need at least two positive weights\n"


def test_normal_form_term_cap_exits_2(capsys, monkeypatch):
    # the real cap (200,000 terms) takes seconds to reach; a cap of 10 refuses
    # the 15 quadrics in five variables the same way
    real = poly.generic_member
    monkeypatch.setattr(cli, "generic_member",
                        lambda ws, d, seed: real(ws, d, seed, cap=10))
    code, out, err = run(capsys, "normal-form", "--weights", "1,1,1,1,1", "--pair", "0,1")
    assert (code, out) == (2, "")
    assert err == "error: monomial count exceeds cap 10\n"


def test_normal_form_substitution_cap_exits_2(capsys, monkeypatch):
    # x_0 occurs up to the power 100,001 in the 100,004 monomials: keeping
    # every power of its replacement would take memory quadratic in that.
    # The powers' lower bound refuses before any is built, so at most the
    # rescale of the member's terms is made
    made = []
    real = poly._mul_into

    def counting(table, left, right):
        made.append(len(left) * len(right))
        return real(table, left, right)
    monkeypatch.setattr(poly, "_mul_into", counting)
    start = time.perf_counter()
    code, out, err = run(capsys, "normal-form", "--weights", "1,1,100000", "--pair", "0,2")
    assert (code, out) == (2, "")
    assert err == (f"error: substitution needs more than {poly.SUBSTITUTE_TERM_CAP} "
                   "term products\n")
    assert time.perf_counter() - start < 60
    assert sum(made) <= 100_004


def _refuse_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("arithmetic on refused input")
    for module, name in ((cli, "normalize"), (cli, "verdict"), (poly, "generic_member")):
        monkeypatch.setattr(module, name, refuse)


def test_oversized_input_exits_2_before_arithmetic(capsys, monkeypatch):
    _refuse_arithmetic(monkeypatch)
    many = ",".join(["1"] * (cli.MAX_WEIGHTS + 1))
    big = str(cli.MAX_VALUE + 1)
    refusals = [
        (["analyze", "--weights", many, "--degrees", "2"], "weights are accepted"),
        (["analyze", "--weights", f"1,2,3,{big}", "--degrees", "6"], "not accepted"),
        (["analyze", "--weights", "1,2,3,4", "--degrees", big], "not accepted"),
        (["normal-form", "--weights", many, "--pair", "0,1"], "weights are accepted"),
        (["normal-form", "--weights", f"1,1,{big}", "--pair", "0,1"], "not accepted"),
    ]
    for argv, reason in refusals:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and reason in err, argv


def test_input_at_the_caps_is_accepted(capsys):
    ones = ["1"] * (cli.MAX_WEIGHTS - 1)
    at_caps = ",".join(ones + [str(cli.MAX_VALUE)])
    code, out, _ = run(capsys, "analyze", "--weights", at_caps,
                       "--degrees", str(cli.MAX_VALUE), "--format", "json")
    assert code == 0
    assert json.loads(out)["linear_cones"] == [[0, cli.MAX_WEIGHTS - 1]]
    code, out, _ = run(capsys, "analyze", "--weights", at_caps,
                       "--degrees", str(cli.MAX_VALUE - 1), "--format", "json")
    assert (code, json.loads(out)["quasi_smooth"]) == (0, False)
    code, out, _ = run(capsys, "normal-form", "--weights", at_caps, "--pair", "0,1")
    assert code == 0
    assert json.loads(out)["result"]["weights"][-1] == cli.MAX_VALUE


def test_python_dash_m_runs_the_cli():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "wfci", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, f"wfci {cli.__version__}\n")


def test_startup_imports_neither_dataclasses_nor_inspect():
    # each costs every process milliseconds at start (see wfci.record), and
    # only enumerate needs wfci.search
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import wfci.cli; from wfci import tables; tables.load_rows(); "
            "print(sorted({'dataclasses', 'inspect', 'wfci.search'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n")


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


def _golden_calls():
    """A fixed list of CLI calls, grouped: analyze inputs of every kind the
    command meets (table rows, a_i + a_j hypersurfaces, projection-shaped
    codimension 2 and 3, random inputs with linear cones, ambients that are
    not well-formed, degrees below some weight, the space itself) in each
    output format, then refused calls, --version and generated normal forms."""
    rng = random.Random("wfci-golden-calls")
    inputs = []
    for k, row in enumerate(tables.load_rows()[::3]):
        n = 1 if row.sporadic else 1 + k % 4
        inputs.append((row.weights_at(n), row.degrees_at(n)))
    for _ in range(35):
        d = rng.randint(4, 40)
        a = rng.randint(1, d - 1)
        divisors = [k for k in range(1, d) if d % k == 0]
        ws = [a, d - a] + [rng.choice(divisors) for _ in range(rng.randint(1, 3))]
        rng.shuffle(ws)
        inputs.append((ws, [d]))
    for _ in range(35):
        d1 = rng.randint(4, 16)
        d2 = d1 * rng.choice((1, 2))
        a, b = rng.randint(1, d1 - 1), rng.randint(1, d1 - 1)
        ws = [a, b, d1 - a, d1 - b, d2 - a, d2 - b, rng.randint(1, 6)]
        degs = [d1, d2] + ([rng.randint(2, 2 * max(ws))] if rng.random() < 0.3 else [])
        inputs.append((ws, degs))
    for _ in range(40):
        ws = [rng.randint(1, 20) for _ in range(rng.randint(4, 7))]
        codim = rng.randint(1, min(3, len(ws) - 2))
        degs = [rng.choice(ws) if rng.random() < 0.2 else rng.randint(2, 2 * max(ws))
                for _ in range(codim)]
        inputs.append((ws, degs))
    for _ in range(25):
        g = rng.choice((2, 3))
        ws = [g * rng.randint(1, 6) for _ in range(rng.randint(3, 5))]
        ws.append(rng.randint(1, 12))
        codim = rng.randint(1, 2)
        inputs.append((ws, [rng.randint(2, 30) for _ in range(codim)]))
    for _ in range(20):
        ws = [rng.randint(1, 6) for _ in range(rng.randint(3, 5))] + [rng.randint(20, 40)]
        codim = rng.randint(1, 2)
        inputs.append((ws, [rng.randint(2, 19) for _ in range(codim)]))
    for _ in range(10):
        inputs.append(([rng.randint(1, 12) for _ in range(rng.randint(2, 5))], []))

    def analyze(ws, degs, fmt):
        argv = ["analyze", "--weights", ",".join(map(str, ws)), "--format", fmt]
        return argv + (["--degrees", ",".join(map(str, degs))] if degs else [])

    other = [["analyze", "--weights", "1"],
             ["analyze", "--weights", "1,1,1", "--degrees", "2,2"],
             ["analyze", "--weights", "1,2,3", "--degrees", "0"],
             ["analyze", "--weights", "not-numbers"],
             ["analyze", "--degrees", "2"],
             ["analyze", "--weights", "1,2,3", "--format", "xml"],
             ["normal-form", "--weights", "1,1,2", "--pair", "0"],
             ["normal-form", "--pair", "0,1"],
             ["--version"],
             []]
    for _ in range(15):
        ws = [rng.randint(1, 6) for _ in range(rng.randint(3, 5))]
        i, j = rng.sample(range(len(ws)), 2)
        other.append(["normal-form", "--weights", ",".join(map(str, ws)),
                      "--pair", f"{i},{j}", "--seed", str(rng.randrange(1000))])
    return {"json": [analyze(ws, ds, "json") for ws, ds in inputs],
            "text": [analyze(ws, ds, "text") for ws, ds in inputs],
            "other": other}


def _transcript_sha256(capsys, calls, seen=None):
    digest = hashlib.sha256()
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        digest.update(json.dumps([argv, code, out.out, out.err]).encode())
        if seen is not None:
            seen.append((code, out.out))
    return digest.hexdigest()


# recorded before analyze took every field from one verdict; any change to
# these bytes is a change of the command-line contract
GOLDEN_SHA256 = {
    "json": "5efa711840673e8ffcf33b49e8af142d425a1d4b1e9906140ec2d9582fcfea62",
    "text": "584ae8768d4825b63743934ea09b84c345d26316fc227080d2c47bfa32238b2a",
    "other": "2049cfe2b2087795f7b4438a096c6ac731264c4ccb01d37943449770fda41975",
}


def test_golden_output_bytes(capsys, monkeypatch):
    # exit codes, stdout and stderr of every call, hashed per group; the usage
    # lines argparse prints on refusal wrap at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    calls = _golden_calls()
    assert len(calls["json"]) >= 190
    got = {group: _transcript_sha256(capsys, argvs) for group, argvs in calls.items()}
    assert got == GOLDEN_SHA256


# (weights, pair, seed) whose generated member has a perfect-square quadratic
# in the two equal-weight pivots and no other enabling pair: exit 5
DEGENERATE_MEMBERS = [("3,3,1,2", "0,1", 27), ("3,3,1,2", "0,1", 62),
                      ("1,1,2,5,7", "0,1", 1), ("1,1,2,5,7", "0,1", 44),
                      ("4,2,4,7,9", "0,2", 9), ("4,2,4,7,9", "0,2", 15),
                      ("5,6,6,11,1,3", "1,2", 155), ("5,6,6,11,1,3", "1,2", 603)]


def _normal_form_golden_calls(directory):
    """Seeded normal-form calls: generated members with 4-7 weights up to 12
    (equal pivot weights in about a third, which adjoins a square root),
    degenerate members, and file inputs whose coefficients already carry a
    radicand, one in five of them with a second, incompatible one."""
    rng = random.Random("wfci-normal-form-golden")
    calls = []
    for _ in range(400):
        ws = [rng.randint(1, 12) for _ in range(rng.randint(4, 7))]
        i, j = rng.sample(range(len(ws)), 2)
        if rng.random() < 0.3:
            ws[j] = ws[i]
        calls.append(["normal-form", "--weights", ",".join(map(str, ws)),
                      "--pair", f"{i},{j}", "--seed", str(rng.randrange(1 << 30))])
    for ws, pair, seed in DEGENERATE_MEMBERS:
        calls.append(["normal-form", "--weights", ws, "--pair", pair, "--seed", str(seed)])
    for k in range(40):
        ws = [rng.randint(1, 6) for _ in range(rng.randint(3, 5))]
        i, j = rng.sample(range(len(ws)), 2)
        if k % 2:
            ws[j] = ws[i]
        m = rng.choice((2, 3, 5, -1, 7))
        terms = {}
        for exps, c in generic_member(ws, ws[i] + ws[j], rng.randrange(1000)).terms.items():
            if rng.random() < 0.3:
                c = Coeff(c.base, Fraction(rng.randint(-5, 5), rng.randint(1, 4)), m)
            terms[exps] = c
        if k % 5 == 0:
            exps = rng.choice(sorted(terms))
            terms[exps] = Coeff(terms[exps].base, Fraction(1), 11)
        name = f"radical{k}.json"
        (directory / name).write_text(json.dumps(GradedPolynomial(
            ws, ws[i] + ws[j], terms).to_json()))
        calls.append(["normal-form", name, "--pair", f"{i},{j}"])
    return calls


# recorded when a second radicand, in the input or in the discriminant's
# root, became a precondition failure (exit 5) instead of a usage error
NORMAL_FORM_GOLDEN_SHA256 = "8af8b4e9b23c2cb79b032951c8576cd24264aab158b975b7292b9f5baf098571"


def test_normal_form_golden_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    seen = []
    got = _transcript_sha256(capsys, _normal_form_golden_calls(tmp_path), seen)
    codes = [code for code, _ in seen]
    radicands = sum(1 for code, out in seen
                    if code == 0 and json.loads(out)["radicand"] is not None)
    assert len(seen) >= 400 and radicands >= 15
    # the field clashes among the file inputs exit 5 too; none is a usage error
    assert codes.count(5) > len(DEGENERATE_MEMBERS) and 2 not in codes
    assert got == NORMAL_FORM_GOLDEN_SHA256


# quotes, backslashes, control characters, DEL, non-ASCII and astral text
_AWKWARD_CHARS = 'ab"\\/\x00\x08\t\n\x1f\x7f\xe9Ω \U0001f600 '


def _random_report(rng, depth=0):
    """A nested document of the types reports carry; containers are empty
    one time in four, at every depth."""
    kind = rng.randrange(8 if depth < 5 else 3)
    if kind == 0:
        return rng.choice((True, False, None))
    if kind == 1:
        bits = rng.choice((1, 8, 63, 64, 65, 200))
        return rng.choice((-1, 1)) * rng.randrange(1 << bits)
    if kind == 2:
        return "".join(rng.choice(_AWKWARD_CHARS) for _ in range(rng.randrange(6)))
    size = 0 if rng.random() < 0.25 else rng.randint(1, 4)
    if kind in (3, 4):
        return [_random_report(rng, depth + 1) for _ in range(size)]
    if kind == 5:
        return tuple(_random_report(rng, depth + 1) for _ in range(size))
    return {"".join(rng.choice(_AWKWARD_CHARS) for _ in range(rng.randrange(4))):
            _random_report(rng, depth + 1) for _ in range(size)}


def test_report_encoder_matches_indented_json():
    rng = random.Random("wfci-report-encoder")
    docs = [_random_report(rng) for _ in range(2000)]
    docs += [{}, [], (), "", 0, -(1 << 70), True, False, None,
             {"k": [[], {}, (), [True, False, None]], "\x00é\"": {"": [{}]}}]
    texts = []
    for doc in docs:
        texts.append(json.dumps(doc, indent=2, sort_keys=True))
        assert json.dumps(doc, cls=cli._ReportEncoder) == texts[-1], doc
    # the sample holds empty containers as list items at every depth
    for depth in range(1, 5):
        pad = "\n" + "  " * depth
        assert sum(pad + "[]" in t or pad + "{}" in t for t in texts) >= 10, depth


@pytest.mark.parametrize("value", [1.5, Fraction(1, 2), {1, 2}, {1: 2}])
def test_report_encoder_refuses_inexact_values(value):
    for doc in (value, {"a": [value]}, [{"b": value}]):
        with pytest.raises(TypeError):
            json.dumps(doc, cls=cli._ReportEncoder)


def _generated_normal_form_calls():
    return [argv for argv in _golden_calls()["other"]
            if argv[:1] == ["normal-form"] and "--seed" in argv]


def _radical_input(directory):
    """A file input whose coefficients carry sqrt(3)."""
    member = generic_member((1, 1, 2, 3), 4, seed=0)
    terms = {exps: Coeff(c.base, Fraction(1, 2), 3) if k % 3 == 0 else c
             for k, (exps, c) in enumerate(sorted(member.terms.items()))}
    path = directory / "radical.json"
    path.write_text(json.dumps(GradedPolynomial((1, 1, 2, 3), 4, terms).to_json()))
    return ["normal-form", str(path), "--pair", "0,3"]


def test_normal_form_out_file_bytes_equal_stdout(tmp_path, capsys):
    calls = _generated_normal_form_calls() + [_radical_input(tmp_path)]
    assert len(calls) == 16
    for k, argv in enumerate(calls):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        dst = tmp_path / f"nf{k}.json"
        code, note, _ = run(capsys, *argv, "--out", str(dst))
        assert (code, note) == (0, f"normal form written to {dst}\n"), argv
        assert dst.read_bytes() == out.encode(), argv
    assert '"radicand": 3' in out           # the file input's terms


def test_reports_render_through_cli_json(capsys, monkeypatch):
    # perfbench times rendering by wrapping cli.json.dumps: every indented
    # report must pass through it exactly once
    rendered = []

    def counting_dumps(doc, **kwargs):
        rendered.append(doc)
        return json.dumps(doc, **kwargs)
    monkeypatch.setattr(cli, "json", argparse.Namespace(**{**vars(json),
                                                          "dumps": counting_dumps}))
    calls = _golden_calls()["json"][::10] + _generated_normal_form_calls()
    for argv in calls:
        del rendered[:]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and len(rendered) == 1, argv
        assert out == json.dumps(rendered[0], indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("index", ["0", "-1"])
def test_enumerate_rejects_nonpositive_index(capsys, index):
    code, _, err = run(capsys, "enumerate", "--dim", "2", "--codim", "1",
                       "--index", index, "--max-weight", "6", "--out", "/dev/null")
    assert code == 2
    assert "index" in err


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_enumerate_rejects_nonpositive_jobs(tmp_path, capsys, monkeypatch, jobs):
    # a worker count below 1 is a usage error, refused before any search and
    # before --out is written, not a serial run
    def refuse(*args, **kwargs):
        raise AssertionError("search started on refused input")
    monkeypatch.setattr(search, "run_search_parallel", refuse)
    out = tmp_path / "f.jsonl"
    code, msg, err = run(capsys, "enumerate", "--dim", "2", "--codim", "2",
                         "--index", "1", "--max-weight", "5", "--jobs", jobs,
                         "--out", str(out))
    assert (code, msg) == (2, "")
    assert err.startswith("error: ") and "--jobs" in err
    assert not out.exists()


def _oracle_sample():
    """Seeded analyze inputs: table rows, codimension 1-3, linear cones,
    ambients that are not well-formed and degrees below some weight."""
    rng = random.Random("analyze-oracle")
    rows = tables.load_rows()
    out = []
    while len(out) < 320:
        kind = len(out) % 4
        if kind == 0:
            row = rng.choice(rows)
            n = 1 if row.sporadic else rng.randint(1, 12)
            ws, ds = list(row.weights_at(n)), list(row.degrees_at(n))
        else:
            ws = [rng.randint(1, 15) for _ in range(rng.randint(3, 7))]
            if kind == 2:
                # a shared factor on all weights but one: not well-formed
                g = rng.choice((2, 3))
                ws = [g * a for a in ws[:-1]] + ws[-1:]
            codim = rng.randint(1, min(3, len(ws) - 2))
            ds = [rng.choice(ws) if rng.random() < 0.2 else rng.randint(2, 2 * max(ws))
                  for _ in range(codim)]
        out.append((ws, ds))
    return out


def test_analyze_fields_match_independent_criteria(capsys):
    seen = {"codim1": 0, "codim2": 0, "codim3": 0, "cone": 0, "ambient_not_wf": 0,
            "degree_below_weight": 0, "table": 0, "qs_false": 0, "qs_true": 0}
    for ws, ds in _oracle_sample():
        code, out, _ = run(capsys, "analyze", "--weights", ",".join(map(str, ws)),
                           "--degrees", ",".join(map(str, ds)), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        desc = WciDescriptor.of(ws, ds)
        cones = linear_cone_flags(desc)
        qs = None if cones else general_qs(desc)
        hit = tables.match(desc)
        assert doc["well_formed"] == well_formed_ci(desc), (ws, ds)
        assert doc["quasi_smooth"] == (qs.holds if qs else None), (ws, ds)
        assert doc["linear_cones"] == [list(f) for f in cones], (ws, ds)
        assert doc["table_match"] == (None if hit is None else
                                      {"table": hit[0], "row": hit[1], "n": hit[2]})
        seen[f"codim{desc.codim}"] += 1
        seen["cone"] += bool(cones)
        seen["ambient_not_wf"] += not doc["ambient_well_formed"]
        seen["degree_below_weight"] += min(ds) < max(ws)
        seen["table"] += hit is not None
        seen["qs_false"] += doc["quasi_smooth"] is False
        seen["qs_true"] += doc["quasi_smooth"] is True
    assert min(seen.values()) >= 10, seen


def test_main_reuses_parser_and_honours_rebinding(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    good = ["analyze", "--weights", "1,2,3,4,5", "--degrees", "6,8"]
    refused = ["analyze", "--weights", "not-numbers"]
    sequence = [good, refused, good, ["--version"]]

    def outputs(fresh_each_call):
        got = []
        for argv in sequence:
            if fresh_each_call:
                monkeypatch.setattr(cli, "_parser_cache", (None, None))
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            got.append((code, out.out, out.err))
        return got

    reused = outputs(False)
    assert [code for code, _, _ in reused] == [0, 2, 0, 0]
    assert reused == outputs(True)

    built = []
    real = cli.build_parser

    def recording():
        parser = real()
        built.append(parser)
        return parser
    monkeypatch.setattr(cli, "build_parser", recording)
    assert outputs(False) == reused
    assert len(built) == 1                  # built once, then reused
    monkeypatch.setattr(cli, "build_parser", lambda: argparse.ArgumentParser(prog="stub"))
    with pytest.raises(SystemExit):
        main(good)                          # the rebound build_parser is used
    capsys.readouterr()
