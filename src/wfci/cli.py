"""Command-line surface.

Exit codes: 0 success (and, for verify commands, no violations); 2 usage or
malformed input; 3 data-integrity failure (table checksum); 4 I/O failure;
5 mathematical precondition failure (e.g. no enabling term for a normal form).

The indented reports (`analyze --format json` and `normal-form`, to stdout or
to `--out`) are rendered by `_ReportEncoder`, whose bytes are exactly those of
`json.dumps(doc, indent=2, sort_keys=True)`.  It accepts only dicts with str
keys, lists, tuples, str, int, True, False and None, and raises TypeError on
anything else (a float, a Fraction, a set, a non-str key): reports stay exact.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, tables
from .cylinder import NormalFormError, normal_form, verdict, wps_verdict
from .poly import GradedPolynomial, generic_member
from .wci import WciDescriptor, adjunction
from .wps import canonical_degree, normalize, singular_strata

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_MATH = 5

# Input caps of analyze and normal-form --weights, checked before any
# arithmetic.  Quasi-smoothness builds one semigroup mask per index subset,
# of length the largest degree or the weight sum, and keeps none of them: the
# time of the 2^n masks bounds the arity: `general_qs(witnesses=False)` on 10
# weights near the value cap, at degree 199,999, took about 1.1 s and 21 MB.
MAX_WEIGHTS = 10
MAX_VALUE = 100_000
# Cap of enumerate on `search.tuple_sums`, the (weight tuple, degree sum)
# pairs it would visit.  The K3 run at --max-weight 100 walks 4.4 million
# tuples in about half a minute.
MAX_TUPLE_SUMS = 10**7
# Cap of verify-tables --n-max: each series parameter costs about 11 ms, and
# n <= 1000 checks 38,037 instantiations in 10.6 s at 21 MB (2-vCPU x86-64,
# CPython 3.11).
MAX_N = 1000

_quote = json.encoder.encode_basestring_ascii


def _indented(o, pad: str) -> str:
    """`o` as JSON indented by two spaces per level, keys sorted; `pad` is the
    newline and indentation of the line that `o` starts on."""
    kind = type(o)
    if kind is str:
        return _quote(o)
    if kind is int:
        return int.__repr__(o)
    if kind is dict:
        if not o:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(_entries(o, inner)) + pad + "}"
    if kind is list or kind is tuple:
        if not o:
            return "[]"
        inner = pad + "  "
        return ("[" + inner + ("," + inner).join([_indented(v, inner) for v in o])
                + pad + "]")
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"{kind.__name__} is not a report value")


def _entries(o: dict, pad: str):
    """The `"key": value` members of `o`, keys sorted, each on a line at `pad`."""
    for key in sorted(o):
        if type(key) is not str:
            raise TypeError(f"report keys must be str, not {type(key).__name__}")
        yield _quote(key) + ": " + _indented(o[key], pad)


class _ReportEncoder(json.JSONEncoder):
    """Renders a report by recursive joins, for `json.dumps(doc,
    cls=_ReportEncoder)`: json's own encoder runs in pure Python whenever it
    indents."""

    def encode(self, o) -> str:
        return _indented(o, "\n")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.replace(" ", "").split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfci",
        description="Exact certificates for weighted complete intersections: "
                    "well-formedness, quasi-smoothness, adjunction, cylindricity.",
        epilog="Verdict JSON fields are stable: status (Cylindrical | "
               "NotCylindrical | Unknown), certificate (tagged by 'kind'), "
               "citations, conjectural, notes, flags.  Schemas for verdicts, "
               "polynomials and enumeration records ship under wfci/schemas/.")
    parser.add_argument("--version", action="version", version=f"wfci {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one weight/degree choice")
    p.add_argument("--weights", type=_int_list, required=True,
                   help="comma-separated ambient weights, e.g. 1,2,3,4,5")
    p.add_argument("--degrees", type=_int_list, default=(),
                   help="comma-separated multidegree; omit for the space itself")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-tables", help="re-verify every classification row")
    p.add_argument("--n-max", type=int, default=20,
                   help="series parameter bound (default 20)")

    p = sub.add_parser("enumerate", help="bounded exhaustive classification search")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    p.add_argument("--index", type=int, default=None, help="exact Fano index filter")
    p.add_argument("--amplitude", choices=("Fano", "CalabiYau"), default=None)
    p.add_argument("--include-linear-cones", action="store_true")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--jobs", type=int, default=1, help="shard parallelism")

    p = sub.add_parser("normal-form", help="bring a polynomial to the x_i*x_j + G shape")
    p.add_argument("input", nargs="?", default=None, help="polynomial JSON file")
    p.add_argument("--pair", type=_int_list, required=True,
                   help="the two pivot variable indices, e.g. 0,3")
    p.add_argument("--weights", type=_int_list, default=None,
                   help="generate a generic member over these weights instead "
                        "of reading a file (degree = sum of the pair weights)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the generated generic member")
    p.add_argument("--out", default=None, help="output JSON path (default stdout)")
    return parser


def _print_analysis(weights, degrees, fmt) -> int:
    trace = normalize(weights)
    ambient = trace.input    # the weights as one sorted WeightVector
    doc: dict = {
        "input_weights": list(ambient.weights),
        "normalized_weights": list(trace.output.weights),
        "common_factor_removed": trace.common_factor_removed,
        "reduction_divisors": list(trace.divisors),
        "reduction_multipliers": list(trace.multipliers),
        # well-formed: no common factor, and every n of the weights coprime
        "ambient_well_formed": (trace.common_factor_removed == 1
                                and all(d == 1 for d in trace.divisors)),
    }
    if doc["ambient_well_formed"]:
        doc["singular_strata"] = [
            {"indices": sorted(s.indices), "gcd": s.stratum_gcd}
            for s in singular_strata(ambient)]
        doc["canonical_degree"] = canonical_degree(ambient)
    else:
        doc["note"] = ("weights are not well-formed: normalize first (degrees are "
                       "not transported by the reduction)")

    if not degrees:
        v = wps_verdict(weights)
        doc["cylinder"] = v.to_json()
    else:
        # every criterion is decided once, by the verdict
        desc = WciDescriptor.of(weights, degrees)
        adj = adjunction(desc)
        v = verdict(desc)
        hit = v.table_hit
        doc.update({
            "degrees": list(desc.multidegree),
            "well_formed": v.flags["well_formed"],
            "linear_cones": v.flags["linear_cones"],
            "quasi_smooth": v.flags["quasi_smooth"],
            "canonical_coefficient": adj.canonical_coefficient,
            "amplitude": adj.amplitude,
            "fano_index": adj.fano_index,
            "table_match": None if hit is None else
                {"table": hit[0], "row": hit[1], "n": hit[2]},
            "cylinder": v.to_json(),
        })

    if fmt == "json":
        print(json.dumps(doc, cls=_ReportEncoder))
        return EXIT_OK
    for key, value in doc.items():
        if key == "cylinder":
            print("cylinder status:", value["status"])
            if value["certificate"]:
                print("  certificate:", json.dumps(value["certificate"]))
            for cite in value["citations"]:
                print("  citation:", cite)
            for note in value["notes"]:
                print("  note:", note)
            if value["conjectural"] is not None:
                print("  conjectural prediction:", value["conjectural"])
        else:
            print(f"{key}: {value}")
    return EXIT_OK


def _oversized(weights, degrees=()) -> bool:
    """Print the refusal of input beyond the caps; True when refused."""
    if len(weights) > MAX_WEIGHTS:
        print(f"error: at most {MAX_WEIGHTS} weights are accepted", file=sys.stderr)
        return True
    if any(v > MAX_VALUE for v in (*weights, *degrees)):
        print(f"error: weights and degrees above {MAX_VALUE} are not accepted",
              file=sys.stderr)
        return True
    return False


def cmd_analyze(args) -> int:
    if _oversized(args.weights, args.degrees):
        return EXIT_USAGE
    if len(args.weights) < 2 or any(a < 1 for a in args.weights):
        print("error: need at least two positive weights", file=sys.stderr)
        return EXIT_USAGE
    if args.degrees and any(d < 1 for d in args.degrees):
        print("error: degrees must be positive", file=sys.stderr)
        return EXIT_USAGE
    if args.degrees and len(args.degrees) > len(args.weights) - 2:
        print("error: codimension out of range", file=sys.stderr)
        return EXIT_USAGE
    return _print_analysis(args.weights, args.degrees, args.format)


def cmd_verify_tables(args) -> int:
    if not 1 <= args.n_max <= MAX_N:
        print(f"error: --n-max must be between 1 and {MAX_N}", file=sys.stderr)
        return EXIT_USAGE
    report = tables.verify_all(args.n_max)
    print(f"checked {report.checked} instantiations "
          f"(35 + 37 + 3 rows, n <= {args.n_max})")
    for v in report.violations:
        tag = f"{v.table_id} row {v.row_id}" + (f" n={v.n}" if v.n else "")
        print(f"VIOLATION {tag}: {v.reason}")
    print("result:", "PASS" if report.ok else f"FAIL ({len(report.violations)} violations)")
    return EXIT_OK if report.ok else 1


def cmd_enumerate(args) -> int:
    # imported here, so that the other commands do not pay for compiling it
    from . import search
    if args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        config = search.SearchConfig(
            dim=args.dim, codim=args.codim, max_weight=args.max_weight,
            index_filter=args.index, amplitude_filter=args.amplitude,
            exclude_linear_cones=not args.include_linear_cones)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    length = config.tuple_length
    if length > MAX_WEIGHTS:
        print(f"error: at most {MAX_WEIGHTS} weights are accepted "
              f"(dim + codim + 1 is {length})", file=sys.stderr)
        return EXIT_USAGE
    if search.tuple_sums(config) > MAX_TUPLE_SUMS:
        print(f"error: more than {MAX_TUPLE_SUMS} degree sums over the weight "
              "tuples to search; lower --max-weight, or give --index or "
              "--amplitude CalabiYau", file=sys.stderr)
        return EXIT_USAGE
    records = search.run_search_parallel(config, args.jobs)
    try:
        search.write_records(records, args.out, args.format)
    except OSError as exc:
        print(f"error writing {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    matched = sum(1 for r in records if r.table_hit is not None)
    print(f"emitted {len(records)} records ({matched} matching known tables) "
          f"to {args.out}")
    return EXIT_OK


def cmd_normal_form(args) -> int:
    if len(args.pair) != 2:
        print("error: --pair needs exactly two indices", file=sys.stderr)
        return EXIT_USAGE
    if (args.input is None) == (args.weights is None):
        print("error: give exactly one of an input file or --weights",
              file=sys.stderr)
        return EXIT_USAGE
    if args.weights is not None:
        if _oversized(args.weights):
            return EXIT_USAGE
        i, j = args.pair
        if not (0 <= i < len(args.weights) and 0 <= j < len(args.weights)):
            print("error: pair indices out of range", file=sys.stderr)
            return EXIT_USAGE
        if len(args.weights) < 2 or any(a < 1 for a in args.weights):
            print("error: need at least two positive weights", file=sys.stderr)
            return EXIT_USAGE
        try:
            poly = generic_member(args.weights,
                                  args.weights[i] + args.weights[j], args.seed)
        except ValueError as exc:
            # more monomials than the generic member's term cap
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            poly = GradedPolynomial.from_json(payload)
        except OSError as exc:
            print(f"error reading {args.input}: {exc}", file=sys.stderr)
            return EXIT_IO
        except (KeyError, ValueError, TypeError) as exc:
            print(f"error: malformed polynomial JSON: {exc}", file=sys.stderr)
            return EXIT_USAGE
    try:
        result = normal_form(poly, tuple(args.pair))
    except NormalFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    del poly  # as large as the report, so free it before rendering
    text = json.dumps(result.to_json(), cls=_ReportEncoder)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error writing {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"normal form written to {args.out}")
    else:
        print(text)
    return EXIT_OK


# (build_parser, parser): the parser is made on the first call and reused
# while build_parser is the same function, so rebinding build_parser takes effect
_parser_cache: tuple = (None, None)


def main(argv=None) -> int:
    global _parser_cache
    made_by, parser = _parser_cache
    if made_by is not build_parser:
        parser = build_parser()
        _parser_cache = (build_parser, parser)
    args = parser.parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "verify-tables": cmd_verify_tables,
        "enumerate": cmd_enumerate,
        "normal-form": cmd_normal_form,
    }[args.command]
    try:
        return handler(args)
    except tables.DataIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        # an unreadable data source (WFCI_DATA), from any command
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
