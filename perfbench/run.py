"""wfci benchmark: end-to-end and per-layer metrics of the decision procedures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; wfci is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, measured with no tracing installed; with
--trace 1 they are the per-layer ones, from one traced pass (plus one
untraced pass of the same input, which gives the tracing overhead).

Workloads (each in one process; at most two worker processes, never more
than os.cpu_count()); --workload all runs them one after another.
BENCHMARK.json lists closure-c2 and analyze-stream only, so that each run
can measure long enough on a shared host; the other three are kept for runs
by name.

  closure-c2        enumerate --dim 2 --codim 2 --index 1 --max-weight 25
  closure-c2-jobs2  the same at --jobs 2
  k3-c1             enumerate --dim 2 --codim 1 --amplitude CalabiYau --max-weight 50
  verify-tables     verify-tables --n-max 100
  analyze-stream    a closed loop of in-process analyze / normal-form calls

Each workload repeats passes over its whole input until --seconds have gone
by (so a run takes up to one pass longer).  Every pass is the same input: the
batch inputs are fixed by their definition, and analyze-stream replays the
one stream drawn from the seed.  A pass is a list of operations (one CLI
call each; a batch workload is one call).  On a shared host the speed of a
processor drifts by as much as half for minutes at a time, so the times are
taken alongside a speed gauge (gauge.py) and reported at its reference speed:
wall_s is the median over the passes of the program's time in a pass at
reference speed, and setup_s the median of at least 15 fresh-interpreter
starts, spread over the run, at reference speed.  Serial workloads keep the
process and its children on one processor, the one the gauge reads.  The
raw times are printed too (wall_raw_s, wall_best_s, setup_raw_s), with the
gauge's unit time; the latency percentiles of analyze-stream are raw, from
each call's fastest time across the passes.  peak_rss_mb is read after the
first pass, before the benchmark's checks load anything of their own.
--smoke runs every workload at a tiny size.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import gauge  # noqa: E402
import stream  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("closure-c2", "closure-c2-jobs2", "k3-c1", "verify-tables", "analyze-stream")
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# setups: the least number of measured set-up starts; setups_per_pass of them
# run after every pass, the rest after the last
FULL = {"closure_w": 25, "k3_w": 50, "verify_n": 100, "stream_calls": 1250,
        "setups": 15, "setups_per_pass": 2}
SMOKE = {"closure_w": 9, "k3_w": 12, "verify_n": 4, "stream_calls": 40,
         "setups": 2, "setups_per_pass": 1}

# sha256 of the enumerate output files at full size, pinned when the
# benchmark was defined; jobs 1 and jobs 2 must write the same bytes
PINNED_SHA256 = {
    "closure-c2": "0b1fd1f23c1254a9d86880433dea1a156ce45761154d1b56acec3268312aac56",
    "k3-c1": "98b66e185e71f11e65014641d606dc32e5b42b2b62495c758bdebb1e6eee1594",
}
K3_COUNT, K3_MAX_WEIGHT = 95, 33           # Reid's list; Iano-Fletcher 13.3
T1_NOT_WELL_FORMED_ROWS = {11, 14, 16, 18, 20, 22}

# the speed gauge; idle (and its counters still) unless entered
GAUGE = gauge.Gauge()
GAUGE_UNITS_PER_PASS = 20
GAUGE_UNITS_PER_SETUP = 20

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import wfci, wfci.cli; from wfci import tables; tables.load_rows()")


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked."""


def load_wfci() -> dict:
    if not (SRC / "wfci" / "__init__.py").is_file():
        raise BenchError(f"no wfci sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wfci
    from wfci import cli, cylinder, intarith, poly, search, tables, wci, wps
    if Path(wfci.__file__).resolve().parent != SRC / "wfci":
        raise BenchError(f"imported wfci from {wfci.__file__}, not from {SRC}")
    return {"search": search, "wci": wci, "poly": poly, "tables": tables,
            "cylinder": cylinder, "wps": wps, "intarith": intarith, "cli": cli}


def table_rows() -> list[dict]:
    """The classification rows, parsed by the benchmark itself."""
    out = []
    with open(SRC / "wfci" / "data" / "families.csv", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            def ints(key):
                return tuple(int(x) for x in rec[key].split(";"))
            ws = (ints("weight_slopes"), ints("weight_intercepts"))
            ds = (ints("degree_slopes"), ints("degree_intercepts"))
            out.append({"table": rec["table"], "row": int(rec["row"]),
                        "weights": ws, "degrees": ds,
                        "sporadic": not any(ws[0] + ds[0])})
    return out


def closure_expected(rows, max_weight: int) -> set:
    """T2/T3 instantiations with every weight <= max_weight."""
    want = set()
    for row in rows:
        if row["table"] not in ("T2", "T3"):
            continue
        for n in ([1] if row["sporadic"] else range(1, max_weight + 1)):
            ws = [s * n + t for s, t in zip(*row["weights"])]
            ds = [s * n + t for s, t in zip(*row["degrees"])]
            if max(ws) <= max_weight:
                want.add((tuple(sorted(ws)), tuple(sorted(ds))))
    return want


def run_cli(cli, argv) -> tuple[int, str, float]:
    """Exit code, standard output and wall time of one in-process CLI call,
    less the gauge's units that ran inside it; standard error (the reason
    of a refusal) is dropped."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        g0 = GAUGE.spent
        t0 = perf_counter()
        rc = cli.main(argv)
        dt = perf_counter() - t0 - (GAUGE.spent - g0)
    return rc, buf.getvalue(), dt


# ---------------------------------------------------------------------------
# workloads: run() makes one timed pass and returns its wall time, the time
# of each operation and the raw outputs; check() then returns the operation
# count and one failure reason per failed operation
# ---------------------------------------------------------------------------

class Batch:
    """One CLI command over a fixed input; one operation per pass."""

    def __init__(self, name, argv, check_output, warm_argv):
        self.name, self.argv, self.warm_argv = name, argv, warm_argv
        self.check_output = check_output

    def warmup(self, mods):
        run_cli(mods["cli"], self.warm_argv)

    def run(self, mods):
        rc, out, dt = run_cli(mods["cli"], self.argv)
        return dt, [dt], (rc, out)

    def check(self, mods, raw):
        try:
            reason = self.check_output(*raw)
        except Exception as exc:  # a malformed output is a failed operation
            reason = f"{type(exc).__name__}: {exc}"
        return 1, [reason] if reason else []

    def latencies(self, best):
        return {}


def _records(path: Path) -> tuple[list[dict], str]:
    raw = path.read_bytes()
    path.unlink()
    return [json.loads(line) for line in raw.splitlines()], hashlib.sha256(raw).hexdigest()


def enumerate_workload(name, size, rows, jobs, out_path):
    common = ["--out", str(out_path)] + (["--jobs", str(jobs)] if jobs > 1 else [])
    sha_key = "closure-c2" if name.startswith("closure") else "k3-c1"
    full = size is FULL
    if sha_key == "closure-c2":
        args = ["enumerate", "--dim", "2", "--codim", "2", "--index", "1",
                "--max-weight", str(size["closure_w"])]
        want = closure_expected(rows, size["closure_w"])

        def content_ok(recs):
            got = {(tuple(r["weights"]), tuple(r["degrees"])) for r in recs}
            return None if got == want and len(recs) == len(want) else \
                f"emitted {len(recs)} records, not the {len(want)} table instantiations"
    else:
        args = ["enumerate", "--dim", "2", "--codim", "1", "--amplitude", "CalabiYau",
                "--max-weight", str(size["k3_w"])]

        def content_ok(recs):
            if any(sum(r["degrees"]) != sum(r["weights"]) for r in recs):
                return "a record is not Calabi-Yau"
            top = max((max(r["weights"]) for r in recs), default=0)
            if full and (len(recs), top) != (K3_COUNT, K3_MAX_WEIGHT):
                return f"{len(recs)} K3 records up to weight {top}, not 95 up to 33"
            return None

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        recs, sha = _records(out_path)
        reason = content_ok(recs)
        if reason is None and full and sha != PINNED_SHA256[sha_key]:
            reason = f"output sha256 {sha} differs from the pinned bytes"
        return reason

    warm = args[:-1] + ["6"] + common
    return Batch(name, args + common, check, warm)


def verify_workload(size):
    n_max = size["verify_n"]

    def check(rc, out):
        # the printed hypersurface rows 11, 14, 16, 18, 20, 22 are not
        # well-formed at one parity of n each, so exit code 1 is expected
        if rc != 1:
            return f"exit code {rc}, expected 1"
        bad: dict[int, set] = {}
        for line in out.splitlines():
            if not line.startswith("VIOLATION "):
                continue
            head, reason = line[len("VIOLATION "):].split(": ", 1)
            table, _, row, n = head.split()
            if table != "T1" or reason != "intersection not well-formed":
                return f"unexpected violation: {line}"
            bad.setdefault(int(row), set()).add(int(n[2:]))
        if set(bad) != T1_NOT_WELL_FORMED_ROWS:
            return f"violating rows {sorted(bad)}"
        for row, ns in bad.items():
            parity = {n % 2 for n in ns}
            if len(parity) != 1 or ns != {n for n in range(1, n_max + 1) if n % 2 in parity}:
                return f"row {row} violates at n = {sorted(ns)}, not one parity class"
        total = sum(len(ns) for ns in bad.values())
        if f"result: FAIL ({total} violations)" not in out:
            return "summary line disagrees with the violations"
        return None

    return Batch("verify-tables", ["verify-tables", "--n-max", str(n_max)], check,
                 ["verify-tables", "--n-max", "1"])


class AnalyzeStream:
    name = "analyze-stream"

    def __init__(self, size, rows, seed):
        self.rows = rows
        self.inputs = stream.generate(seed, size["stream_calls"], rows)
        self._validate = None

    def _validator(self):
        if self._validate is None:
            import jsonschema
            schema = json.loads((SRC / "wfci" / "schemas" / "verdict.schema.json").read_text())
            self._validate = jsonschema.Draft202012Validator(schema).validate
        return self._validate

    def warmup(self, mods):
        for argv, _ in stream.generate(-1, 10, self.rows):
            run_cli(mods["cli"], argv)

    def run(self, mods):
        cli = mods["cli"]
        t0 = perf_counter()
        results = [run_cli(cli, argv) for argv, _ in self.inputs]
        return perf_counter() - t0, [dt for _, _, dt in results], results

    def check(self, mods, raw):
        validate = self._validator()
        member = mods["poly"].generic_member
        failures = []
        for (argv, origin), (rc, out, _) in zip(self.inputs, raw):
            try:
                if argv[0] == "analyze":
                    reason = stream.check_analyze(argv, origin, rc, out, validate)
                else:
                    reason = stream.check_normal_form(argv, rc, out, member)
            except Exception as exc:  # a malformed output is a failed operation
                reason = f"{type(exc).__name__}: {exc}"
            if reason:
                failures.append(f"{' '.join(argv)}: {reason}")
        return len(raw), failures

    def latencies(self, best):
        """Each call's fastest time, by command."""
        out = {"analyze": [], "normal-form": []}
        for (argv, _), dt in zip(self.inputs, best):
            out[argv[0]].append(dt)
        return out


def make_workload(name, size, rows, jobs, seed):
    out_path = OUT_DIR / f"{name}-{os.getpid()}.jsonl"
    if name in ("closure-c2", "k3-c1"):
        return enumerate_workload(name, size, rows, 1, out_path)
    if name == "closure-c2-jobs2":
        return enumerate_workload(name, size, rows, jobs, out_path)
    if name == "verify-tables":
        return verify_workload(size)
    return AnalyzeStream(size, rows, seed)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def setup_start() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing wfci and loading the
    checksum-verified tables, raw and at the gauge's reference speed.  Gauge
    units run right before and after the start, with the timer paused."""
    with GAUGE.paused():
        mark = GAUGE.mark()
        GAUGE.sample(GAUGE_UNITS_PER_SETUP)
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        dt = perf_counter() - t0
        GAUGE.sample(GAUGE_UNITS_PER_SETUP)
    return dt, dt * gauge.UNIT_REF_S / GAUGE.since(mark)[1]


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one processor, so that the
    gauge reads the speed of the processor the program runs on."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError, ValueError):
        return None
    return cpu


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def percentile(values, q: int) -> float:
    """The q-th percentile, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_untraced(work, mods, seconds, size):
    passes, attempted, failures, best, rss = 0, 0, [], None, None
    program, normalised, units, starts = [], [], [], []
    with GAUGE:
        work.warmup(mods)
        t_start = perf_counter()
        while True:
            gc.collect()
            mark = GAUGE.mark()
            _, times, raw = work.run(mods)
            # a few units at the end of every pass, so that even a short
            # pass has some
            GAUGE.sample(GAUGE_UNITS_PER_PASS)
            unit = GAUGE.since(mark)[1]
            program.append(math.fsum(times))
            normalised.append(program[-1] * gauge.UNIT_REF_S / unit)
            units.append(unit)
            if rss is None:
                rss = peak_rss_mb()
            ops, fails = work.check(mods, raw)
            best = times if best is None else list(map(min, best, times))
            passes += 1
            attempted += ops
            failures += fails
            print(f"pass {passes}: {program[-1]:.4f} s, unit {1e3 * unit:.4f} ms, "
                  f"{normalised[-1]:.4f} s at reference speed, {ops} operations, "
                  f"{len(fails)} failed", flush=True)
            # set-up starts are spread over the run, so that their median
            # sees the host as the passes do; they begin after the first
            # pass, so that RUSAGE_CHILDREN above saw only the program's own
            # worker processes, and the first one only fills the bytecode cache
            if not starts:
                setup_start()
            starts += [setup_start() for _ in range(size["setups_per_pass"])]
            if perf_counter() - t_start >= seconds:
                break
        starts += [setup_start() for _ in range(size["setups"] - len(starts))]
    setup_raw = statistics.median(raw for raw, _ in starts)
    setup = statistics.median(norm for _, norm in starts)
    metrics = {"setup_s": setup, "wall_s": statistics.median(normalised), "peak_rss_mb": rss}
    extra = {"passes": passes, "failed_frac": len(failures) / attempted,
             "wall_raw_s": statistics.median(program), "wall_best_s": math.fsum(best),
             "setup_raw_s": setup_raw, "gauge_unit_ms": 1e3 * statistics.median(units)}
    if work.name == "closure-c2-jobs2":
        extra["wall_s_jobs2"] = metrics["wall_s"]
    latencies = work.latencies(best)
    if latencies:
        a, nf = latencies["analyze"], latencies["normal-form"]
        extra.update({"analyze_calls": len(a), "normal_form_calls": len(nf),
                      "analyze_p50_ms": 1e3 * statistics.median(a),
                      "analyze_p99_ms": 1e3 * percentile(a, 99),
                      "normal_form_p50_ms": 1e3 * statistics.median(nf),
                      "normal_form_p95_ms": 1e3 * percentile(nf, 95)})
    return metrics, attempted, failures, extra


def run_traced(work, mods, seed, jobs_pool: bool):
    """One untraced and one traced pass of the same input."""
    work.warmup(mods)
    tracer = tracing.Tracer()
    pool = tracing.install_pool(tracer) if jobs_pool else None
    untraced, _, raw = work.run(mods)
    attempted, failures = work.check(mods, raw)
    if pool is not None:
        pool.busy.clear()
    tracing.install(tracer, mods)
    try:
        traced, _, raw = work.run(mods)
    finally:
        tracer.uninstall()
    ops, fails = work.check(mods, raw)
    attempted += ops
    failures += fails
    metrics, summary = tracing.layer_metrics(tracer, pool)
    metrics["trace.overhead_s"] = traced - untraced
    print(f"untraced pass {untraced:.4f} s, traced pass {traced:.4f} s, "
          f"{summary['spans']} spans")
    print(f"self times sum to {summary['self_sum_s']:.6f} s; root spans "
          f"{summary['root_s']:.6f} s; {summary['nesting_errors']} nesting errors")
    for layer, own in sorted(summary["self"].items()):
        print(f"  self {layer:10s} {own:10.4f} s")
    problems = [f"trace: {e}" for e in tracing.consistency_errors(summary, traced)]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{work.name}-{seed}.csv.gz"
    tracer.write(str(path))
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics, attempted, failures, problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s") or name == "wall_s_jobs2":
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("ratio", "imbalance", "_frac", "_share")):
        return "ratio"
    if name.endswith("bytes_hashed"):
        return "bytes"
    return "count"


def run_all(args) -> int:
    """Every workload in its own interpreter, so that peak RSS and set-up
    stay per workload; the last line merges the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    size = SMOKE if args.smoke else FULL
    try:
        mods = load_wfci()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    jobs = min(2, os.cpu_count() or 1)
    cpu = None if args.workload == "closure-c2-jobs2" else pin_to_one_cpu()
    rows = table_rows()
    work = make_workload(args.workload, size, rows, jobs, args.seed)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' smoke' if args.smoke else ''}")
    print(f"machine nproc={os.cpu_count()} jobs={jobs} python={platform.python_version()} "
          f"arch={platform.machine()} data_sha256={mods['tables'].DATA_SHA256} "
          f"pinned_cpu={cpu}")

    problems = []
    if args.trace:
        metrics, attempted, failures, problems = run_traced(
            work, mods, args.seed, jobs_pool=args.workload == "closure-c2-jobs2")
        extra = {}
    else:
        metrics, attempted, failures, extra = run_untraced(work, mods, args.seconds, size)
    for reason in failures[:20] + problems:
        print(f"FAILED {reason}")
    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"metric {name} {value:.6g} {unit_of(name)}")
    result = {"correct": not (failures or problems), "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
