"""In-process span tracing of the wfci layers, installed from outside the
program by rebinding module-level functions.

Every traced function is rebound in each wfci module that holds a reference
to it, so calls made through ``from .x import f`` bindings (for example
``search.qs_ci2_fast`` or ``wci.semigroup_mask``) are seen as well as calls
made through the defining module.  Spans are kept in flat arrays and written
out at the end of the run; counters ride on the same wrappers.

Hot helpers that are called millions of times per workload (``gcd_many``,
``wci._cached_mask`` and the tuple/split generators of ``search``) are only
counted, not spanned, so their time stays in the caller's self time.
"""

from __future__ import annotations

import gzip
import multiprocessing
from array import array
from collections import Counter
from time import perf_counter
from types import SimpleNamespace

LAYERS = ("search", "wci", "poly", "tables", "cylinder", "wps", "intarith", "cli")

_MISSING = object()

# The traced pass must be accounted for: layer self times sum to the root
# spans (up to rounding), and the root spans cover the measured wall time of
# the pass up to the benchmark's own per-call glue.
SELF_SUM_TOLERANCE = 1e-6
ROOT_COVERAGE_TOLERANCE = 0.02


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Span recorder.  A span is (name, start, end, parent, operation id)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name: str, fn, note=None):
        nid = self._nid(name)
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if note is not None:
                note(tracer.counts, args, result)
            return result
        return wrapper

    def operation(self, name: str, fn):
        """Like spanned, but each call starts a new operation id.  The
        benchmark enters wfci only through cli.main, so these are the root
        spans: one CLI call is one operation."""
        inner = self.spanned(name, fn)

        def wrapper(*args, **kwargs):
            self.op_id += 1
            return inner(*args, **kwargs)
        return wrapper

    def spanned_generator(self, name: str, fn):
        """Each resumption of the generator is one span, closed before the
        item is handed to the consumer, so no time is counted twice."""
        nid = self._nid(name)
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resumed():
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return resumed()
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counted_generator(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    # -- installation ------------------------------------------------------

    def rebind(self, modules, defining, attr: str, wrapper) -> None:
        """Replace every binding of defining.attr in `modules` by wrapper."""
        original = getattr(defining, attr)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, getattr(obj, attr, _MISSING)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, value = self._undo.pop()
            if value is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, value)

    # -- analysis ----------------------------------------------------------

    def summarize(self) -> dict:
        """Inclusive time per function name (outermost calls only), self time
        per layer, and the nesting checks behind the self-time sum: every
        span lies inside its parent, and siblings do not overlap."""
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name
        dur = [end[i] - start[i] for i in range(n)]
        child = [0.0] * n
        last_end: dict[int, float] = {}
        nesting_errors = 0
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            child[p] += dur[i]
            # spans are opened in start order, so siblings come in order too
            if (start[i] < start[p] or end[i] > end[p]
                    or start[i] < last_end.get(p, start[p])):
                nesting_errors += 1
            last_end[p] = end[i]
        inclusive: Counter = Counter()
        self_by_layer: Counter = Counter()
        for i in range(n):
            name = self.names[name_of[i]]
            self_by_layer[_layer_of(name)] += dur[i] - child[i]
            p = parent[i]
            while p >= 0 and name_of[p] != name_of[i]:
                p = parent[p]
            if p < 0:
                inclusive[name] += dur[i]
        root_total = sum(dur[i] for i in range(n) if parent[i] < 0)
        return {"inclusive": inclusive, "self": self_by_layer,
                "root_s": root_total, "self_sum_s": sum(self_by_layer.values()),
                "nesting_errors": nesting_errors, "spans": n}

    def inclusive_under(self, name: str, ancestor: str) -> float:
        """Time in outermost `name` spans that run inside an `ancestor` span."""
        ids = self._name_ids
        if name not in ids or ancestor not in ids:
            return 0.0
        nid, aid = ids[name], ids[ancestor]
        parent, name_of = self.parent, self.name
        total = 0.0
        for i in range(len(self.start)):
            if name_of[i] != nid:
                continue
            p = parent[i]
            while p >= 0 and name_of[p] not in (nid, aid):
                p = parent[p]
            if p >= 0 and name_of[p] == aid:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i},{names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},{self.op[i]}\n")


class InProcessPool:
    """Stand-in for multiprocessing.Pool that runs each shard in this
    process, so shard busy times and the parent's merge can be traced."""

    def __init__(self):
        self.busy: list[float] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        out = []
        for item in items:
            t0 = perf_counter()
            out.append(fn(item))
            self.busy.append(perf_counter() - t0)
        return out


def _note_qs(counts, args, result):
    counts["wci.qs_fast.calls"] += 1
    counts["wci.qs_fast.passed"] += bool(result)


def _note_mask(counts, args, result):
    counts["poly.semigroup_mask.calls"] += 1
    counts["poly.semigroup_mask.bits"] += args[1]


def _note_representable(counts, args, result):
    counts["poly.representable.calls"] += 1
    counts["poly.representable.degree_sum"] += max(args[2], 0)


def _note_match(counts, args, result):
    counts["tables.match.calls"] += 1
    counts["tables.match.hits"] += result is not None


def _note_data(counts, args, result):
    counts["tables.data_reads"] += 1
    counts["tables.bytes_hashed"] += len(result)


def _note_verdict(counts, args, result):
    counts["cylinder.verdict.calls"] += 1


def _note_generic(counts, args, result):
    counts["poly.generic_member.terms"] += len(result.terms)


def _note_normal_form(counts, args, result):
    counts["cylinder.normal_form.ops"] += len(result.change_sequence)


def _note_shard(counts, args, result):
    counts["search.worker_verdicts_discarded"] += len(result)


def _note_run_search(counts, args, result):
    counts["search.emitted"] += len(result)


# Functions spanned, by defining module; the optional note updates counters.
# Besides the functions the metrics name, every function another module calls
# is listed, so that each layer's self time holds only its own work.
SPANNED = {
    "search": {"run_search": _note_run_search, "run_search_parallel": None,
               "partition": None, "_shard_worker": _note_shard,
               "_ambient_well_formed": None, "write_records": None},
    "wci": {"qs_ci2_fast": _note_qs, "qs_hypersurface_fast": _note_qs,
            "general_qs": None, "well_formed_ci": None, "linear_cone_flags": None,
            "adjunction": None},
    "poly": {"semigroup_mask": _note_mask, "representable": _note_representable,
             "eligible_partners": None, "generic_member": _note_generic,
             "substitute": None},
    "tables": {"match": _note_match, "verify_all": None, "_data_bytes": _note_data},
    "cylinder": {"verdict": _note_verdict, "check_nonexistence": None,
                 "normal_form": _note_normal_form, "wps_verdict": None},
    "wps": {"is_well_formed": None, "normalize": None, "singular_strata": None,
            "torus_chart": None, "wps_cylinder": None},
    "intarith": {"bezout": None, "lcm_many": None, "mat_det": None,
                 "mat_inverse_unimodular": None, "unimodular_complete": None},
}
SPANNED_GENERATORS = {"search": ("iter_candidates",)}
COUNTED = {"intarith": {"gcd_many": "intarith.gcd_many.calls"},
           "wci": {"_cached_mask": "wci.mask_lookups"}}
COUNTED_GENERATORS = {"search": {"_sorted_tuples": "search.tuples",
                                 "_degree_splits": "search.splits"}}


def install(tracer: Tracer, wfci_modules: dict) -> None:
    """Rebind the traced functions in every wfci module."""
    mods = list(wfci_modules.values())
    for mod_name, funcs in SPANNED.items():
        defining = wfci_modules[mod_name]
        for attr, note in funcs.items():
            fn = getattr(defining, attr)
            tracer.rebind(mods, defining, attr,
                          tracer.spanned(f"{mod_name}.{attr}", fn, note))
    for mod_name, funcs in SPANNED_GENERATORS.items():
        defining = wfci_modules[mod_name]
        for attr in funcs:
            tracer.rebind(mods, defining, attr, tracer.spanned_generator(
                f"{mod_name}.{attr}", getattr(defining, attr)))
    for mod_name, funcs in COUNTED.items():
        defining = wfci_modules[mod_name]
        for attr, key in funcs.items():
            tracer.rebind(mods, defining, attr,
                          tracer.counted(key, getattr(defining, attr)))
    for mod_name, funcs in COUNTED_GENERATORS.items():
        defining = wfci_modules[mod_name]
        for attr, key in funcs.items():
            tracer.rebind(mods, defining, attr,
                          tracer.counted_generator(key, getattr(defining, attr)))

    cli = wfci_modules["cli"]
    real_build = cli.build_parser

    def build_parser():
        parser = real_build()
        parser.parse_args = tracer.spanned("cli.parse", parser.parse_args)
        return parser
    # parsing = building the parser plus parse_args, two sibling spans
    tracer.patch(cli, "build_parser", tracer.spanned("cli.parse", build_parser))
    # rendering = json.dumps plus print, both seen through the cli module
    traced_json = SimpleNamespace(**vars(cli.json))
    traced_json.dumps = tracer.spanned("cli.render", cli.json.dumps)
    tracer.patch(cli, "json", traced_json)
    tracer.patch(cli, "print", tracer.spanned("cli.render", print))
    tracer.patch(cli, "main", tracer.operation("cli.main", cli.main))


def install_pool(tracer: Tracer) -> InProcessPool:
    pool = InProcessPool()
    tracer.patch(multiprocessing, "Pool", lambda processes=None: pool)
    return pool


def consistency_errors(summary: dict, wall_s: float) -> list[str]:
    errors = []
    if summary["nesting_errors"]:
        errors.append(f"{summary['nesting_errors']} spans outside their parent "
                      "or overlapping a sibling")
    if abs(summary["self_sum_s"] - summary["root_s"]) > SELF_SUM_TOLERANCE * summary["root_s"]:
        errors.append(f"layer self times sum to {summary['self_sum_s']:.6f} s, "
                      f"root spans to {summary['root_s']:.6f} s")
    if abs(wall_s - summary["root_s"]) > ROOT_COVERAGE_TOLERANCE * wall_s:
        errors.append(f"root spans cover {summary['root_s']:.6f} s of a "
                      f"{wall_s:.6f} s pass")
    return errors


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pool: InProcessPool | None) -> tuple[dict, dict]:
    """Per-layer metric values, plus the raw consistency figures."""
    s = tracer.summarize()
    inc, own, c = s["inclusive"], s["self"], tracer.counts
    m = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    m.update({
        "search.tuples": c["search.tuples"],
        "search.splits": c["search.splits"],
        "search.emitted": c["search.emitted"],
        "search.ambient_wf_s": inc["search._ambient_well_formed"],
        "wci.qs_ci2_fast_s": inc["wci.qs_ci2_fast"],
        "wci.qs_hypersurface_fast_s": inc["wci.qs_hypersurface_fast"],
        "wci.qs_fast.calls": c["wci.qs_fast.calls"],
        "wci.qs_fast.pass_ratio": _ratio(c["wci.qs_fast.passed"], c["wci.qs_fast.calls"]),
        "wci.mask_hit_ratio": _ratio(c["wci.mask_lookups"] - c["poly.semigroup_mask.calls"],
                                     c["wci.mask_lookups"]),
        "wci.general_qs_s": inc["wci.general_qs"],
        "wci.well_formed_ci_s": inc["wci.well_formed_ci"],
        "poly.semigroup_mask_s": inc["poly.semigroup_mask"],
        "poly.semigroup_mask.calls": c["poly.semigroup_mask.calls"],
        "poly.semigroup_mask.bits": c["poly.semigroup_mask.bits"],
        "poly.representable_s": inc["poly.representable"],
        "poly.representable.calls": c["poly.representable.calls"],
        "poly.representable.degree_sum": c["poly.representable.degree_sum"],
        "poly.generic_member_s": inc["poly.generic_member"],
        "poly.generic_member.terms": c["poly.generic_member.terms"],
        "poly.substitute_s": inc["poly.substitute"],
        "wps.is_well_formed_s": inc["wps.is_well_formed"],
        "tables.data_reads": c["tables.data_reads"],
        "tables.bytes_hashed": c["tables.bytes_hashed"],
        "tables.match_s": inc["tables.match"],
        "tables.match.calls": c["tables.match.calls"],
        "tables.match.hit_ratio": _ratio(c["tables.match.hits"], c["tables.match.calls"]),
        "cylinder.verdict_s": inc["cylinder.verdict"],
        "cylinder.verdict.match_share": _ratio(
            tracer.inclusive_under("tables.match", "cylinder.verdict"),
            inc["cylinder.verdict"]),
        "cylinder.verdict.calls": c["cylinder.verdict.calls"],
        "cylinder.check_nonexistence_s": inc["cylinder.check_nonexistence"],
        "cylinder.normal_form_s": inc["cylinder.normal_form"],
        "cylinder.normal_form.ops": c["cylinder.normal_form.ops"],
        "cli.parse_s": inc["cli.parse"],
        "cli.render_s": inc["cli.render"],
        "intarith.gcd_many.calls": c["intarith.gcd_many.calls"],
        "trace.spans": s["spans"],
        "trace.root_s": s["root_s"],
    })
    busy = pool.busy if pool is not None else []
    m["search.shard_busy_max_s"] = max(busy, default=0.0)
    m["search.shard_imbalance"] = _ratio(max(busy, default=0.0),
                                         sum(busy) / len(busy) if busy else 0.0)
    # the parent's work around the pool: partition, merge and re-verdicts
    m["search.merge_s"] = (inc["search.run_search_parallel"] - sum(busy)) if busy else 0.0
    m["search.worker_verdicts_discarded"] = c["search.worker_verdicts_discarded"]
    return m, s
