"""Hostile input, one CLI call per child process.

Each case runs `python -m wfci` alone, under its own address-space and
CPU-time limits (`resource.setrlimit` in the child, before it starts) and a
wall-clock timeout, and must end with the expected exit code and `error:`
line: no hang, no exhausted memory, no traceback.  The cases sit just inside
and just outside each input cap of the CLI.  Every bound is several times the
figure measured for its call, given next to it as wall time and peak RSS
(2-vCPU x86-64, CPython 3.11, `resource.getrusage(RUSAGE_CHILDREN)` of a
parent that ran only that call), so that a busy host does not fail it.  The
cases run one at a time.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from wfci import cli

SRC = str(Path(cli.__file__).resolve().parents[1])
MB = 1 << 20
TEN_AT_VALUE_CAP = ",".join(str(cli.MAX_VALUE - k) for k in range(9, -1, -1))
TWELVE_AROUND_VALUE_CAP = ",".join(str(cli.MAX_VALUE + k) for k in range(-6, 6))
THREE_HUNDRED_ONES = ",".join(["1"] * 300)
OUT = "OUT"   # replaced by a path under the test's own directory


def _conic(cross, square=([0, 0, 2], "1")):
    """x0*x1 + x2^2 over weights (1, 1, 1), with the cross term's fields and
    the second term's exponents and coefficient given."""
    return {"weights": [1, 1, 1], "degree": 2,
            "terms": [{"exps": [1, 1, 0], **cross},
                      {"exps": square[0], "coeff": square[1]}]}


# input files, each written under the test's own directory and replaced by
# its path: x0^2 + x0*x1 + (10^24 + 7)*x1^2 + x2*x3, whose discriminant
# -(4*10^24 + 27) once took its square root by trial division for over 20 s;
# then polynomials off polynomial.schema.json, which once gave a traceback,
# ran until killed, or were read as another polynomial
INPUTS = {
    "large-discriminant.json": {"weights": [1, 1, 1, 1], "degree": 2, "terms": [
        {"exps": exps, "coeff": coeff} for exps, coeff in (
            ([2, 0, 0, 0], "1"), ([1, 1, 0, 0], "1"), ([0, 2, 0, 0], str(10**24 + 7)),
            ([0, 0, 1, 1], "1"))]},
    "zero-denominator.json": _conic({"coeff": "1/0"}),
    "zero-denominator-radical.json": _conic({"coeff": "1", "radical": "1/0",
                                             "radicand": 2}),
    "exponent-notation.json": _conic({"coeff": "1e999999999"}),
    # weighted degree 3 - 1 = 2, so the degree check passes
    "negative-exponent.json": _conic({"coeff": "1"}, ([3, -1, 0], "1")),
    "float-exponent.json": {"weights": [1, 1], "degree": 2,
                            "terms": [{"exps": [1.7, 1], "coeff": "1"}]},
}

# (argv, exit code, error line or None, CPU seconds, address space in MB)
CASES = [
    # analyze: at most MAX_WEIGHTS = 10 weights, values up to MAX_VALUE
    (["analyze", "--weights", TEN_AT_VALUE_CAP, "--degrees", "100000"],
     0, None, 10, 512),                                        # 0.13 s, 21 MB
    (["analyze", "--weights", TEN_AT_VALUE_CAP + ",1", "--degrees", "100000"],
     2, "error: at most 10 weights are accepted", 10, 512),    # 0.15 s, 21 MB
    (["analyze", "--weights", "1,2,3,4,5", "--degrees", "100000"],
     0, None, 10, 512),                                        # 0.19 s, 21 MB
    (["analyze", "--weights", "1,2,3,4,5", "--degrees", "100001"],
     2, "error: weights and degrees above 100000 are not accepted",
     10, 512),                                                 # 0.18 s, 21 MB
    # twelve weights around the value cap once took 10 s and 644 MB of masks
    (["analyze", "--weights", TWELVE_AROUND_VALUE_CAP, "--degrees", "199999"],
     2, "error: at most 10 weights are accepted", 10, 512),    # 0.08 s, 21 MB
    # normal-form --weights: the substitution cap of 10^6 term products
    (["normal-form", "--weights", "1,1,800", "--pair", "0,2"],
     0, None, 20, 1024),                                       # 0.78 s, 118 MB
    (["normal-form", "--weights", "1,1,100000", "--pair", "0,2"],
     2, "error: substitution needs more than 1000000 term products",
     20, 1024),                                                # 0.85 s, 87 MB
    # its powers up to the 1,000th were once built before the refusal
    (["normal-form", "--weights", "1,1,20000", "--pair", "0,2"],
     2, "error: substitution needs more than 1000000 term products",
     10, 1024),                                                # 0.13 s, 29 MB
    # a square root is refused above poly.RADICAND_CAP, before factorizing
    (["normal-form", "large-discriminant.json", "--pair", "0,1"],
     2, "error: radicand of magnitude above 1000000000000 refused",
     10, 512),                                                 # 0.05 s, 20 MB
    # polynomial JSON off its schema: a zero denominator once raised
    # ZeroDivisionError, "1e999999999" built a billion-digit integer until
    # killed, a negative exponent failed an assertion, and [1.7, 1] was read
    # as [1, 1]
    (["normal-form", "zero-denominator.json", "--pair", "0,1"],
     2, "error: malformed polynomial JSON: coeff '1/0' has a zero denominator",
     10, 512),                                                 # 0.1 s, 30 MB
    (["normal-form", "zero-denominator-radical.json", "--pair", "0,1"],
     2, "error: malformed polynomial JSON: radical '1/0' has a zero denominator",
     10, 512),                                                 # 0.1 s, 30 MB
    (["normal-form", "exponent-notation.json", "--pair", "0,1"],
     2, "error: malformed polynomial JSON: coeff '1e999999999' is not an "
        "integer or a fraction", 10, 512),                     # 0.1 s, 30 MB
    (["normal-form", "negative-exponent.json", "--pair", "0,1"],
     2, "error: malformed polynomial JSON: exponents [3, -1, 0] are not 3 "
        "non-negative integers", 10, 512),                     # 0.1 s, 30 MB
    (["normal-form", "float-exponent.json", "--pair", "0,1"],
     2, "error: malformed polynomial JSON: exponents [1.7, 1] are not 2 "
        "non-negative integers", 10, 512),                     # 0.1 s, 30 MB
    # a 186,643-term member inside the monomial cap, refused only by the
    # substitution cap after it is built
    (["normal-form", "--weights", "1,1,1,1,47,47", "--pair", "4,5"],
     2, "error: substitution needs more than 1000000 term products",
     20, 2048),                                                # 1.4 s, 186 MB
    # the generic member's cap of 200,000 monomials (142,507 inside)
    (["normal-form", "--weights", "2,2,2,2,2,2,51,50", "--pair", "6,7"],
     0, None, 60, 2048),                                       # 2.4 s, 203 MB
    (["normal-form", "--weights", "1,1,1,1,50,50", "--pair", "4,5"],
     2, "error: monomial count exceeds cap 200000", 10, 1024),  # 0.28 s, 40 MB
    # more than 10 weights: twelve once took 12 s at 321 MB, three hundred
    # peaked at 2.9 GB
    (["normal-form", "--weights", "1,1,1,1,1,1,1,1,1,1,5,4", "--pair", "10,11"],
     2, "error: at most 10 weights are accepted", 10, 512),    # 0.10 s, 21 MB
    (["normal-form", "--weights", THREE_HUNDRED_ONES, "--pair", "0,1"],
     2, "error: at most 10 weights are accepted", 10, 512),    # 0.09 s, 21 MB
    # enumerate: at most 10 weights (dim + codim + 1) and MAX_TUPLE_SUMS pairs
    # to visit; an admitted run next to 10^7 pairs searches for minutes, so
    # that boundary is tested in-process by test_enumerate_tuple_cap_boundary
    (["enumerate", "--dim", "8", "--codim", "1", "--max-weight", "1", "--out", OUT],
     0, None, 10, 512),                                        # 0.22 s, 21 MB
    (["enumerate", "--dim", "9", "--codim", "1", "--max-weight", "1", "--out", OUT],
     2, "error: at most 10 weights are accepted (dim + codim + 1 is 11)",
     10, 512),                                                 # 0.18 s, 21 MB
    (["enumerate", "--dim", "2", "--codim", "2", "--max-weight", "63", "--out", OUT],
     2, "error: more than 10000000 degree sums over the weight tuples to "
        "search; lower --max-weight, or give --index or --amplitude CalabiYau",
     10, 512),                                                 # 0.16 s, 21 MB
    # verify-tables: --n-max in 1..MAX_N = 1000; exit 1 reports the known
    # defect of the printed hypersurface rows
    (["verify-tables", "--n-max", "0"],
     2, "error: --n-max must be between 1 and 1000", 10, 512),  # 0.14 s, 21 MB
    (["verify-tables", "--n-max", "1"], 1, None, 10, 512),      # 0.22 s, 21 MB
    (["verify-tables", "--n-max", "1000"], 1, None, 60, 512),   # 8.9 s, 22 MB
    (["verify-tables", "--n-max", "1001"],
     2, "error: --n-max must be between 1 and 1000", 10, 512),  # 0.15 s, 21 MB
]


def _limited(cpu_s: int, as_mb: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s))
        resource.setrlimit(resource.RLIMIT_AS, (as_mb * MB, as_mb * MB))
    return apply


@pytest.mark.parametrize("argv, code, error, cpu_s, as_mb", CASES,
                         ids=[" ".join(case[0]) for case in CASES])
def test_hostile_input_exits_cleanly(tmp_path, argv, code, error, cpu_s, as_mb):
    out = tmp_path / "records.jsonl"
    for name, doc in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(doc))
    argv = [str(out) if a == OUT else str(tmp_path / a) if a in INPUTS else a
            for a in argv]
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-m", "wfci", *argv], env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          preexec_fn=_limited(cpu_s, as_mb), timeout=2 * cpu_s)
    assert (done.returncode, done.stderr.splitlines()) == (code, [error] if error else [])
    if str(out) in argv:
        # a refused enumerate writes no --out
        assert out.exists() == (code == 0)
