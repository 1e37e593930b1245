"""The analyze-stream workload: a seeded mix of in-process `wfci analyze` and
`wfci normal-form` calls, and the checks made on their outputs.

The checks use the benchmark's own arithmetic on the input weights and the
published statuses of the classification tables.  The one call back into
wfci rebuilds a seeded generic member, the input of a normal-form call that
was refused, to confirm that the member is degenerate.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ANALYZE_SHARE = 0.8

# Rows whose non-cylindricity the literature leaves open despite a table
# match: the alpha < 1 exceptions of the codimension-2 index-1 tables.
ALPHA_EXCEPTIONS = {("T3", 1), ("T2", 2)}


def _join(values) -> str:
    return ",".join(map(str, values))


def _analyze(weights, degrees) -> list[str]:
    return ["analyze", "--weights", _join(weights), "--degrees", _join(degrees),
            "--format", "json"]


def _table_instance(rng, rows):
    row = rng.choice(rows)
    n = 1 if row["sporadic"] else rng.randint(1, 30)
    ws = [s * n + t for s, t in zip(*row["weights"])]
    ds = [s * n + t for s, t in zip(*row["degrees"])]
    return ws, ds, (row["table"], row["row"], None if row["sporadic"] else n)


def _divisors(d: int) -> list[int]:
    return [k for k in range(1, d) if d % k == 0]


def _sum_of_two(rng, rows):
    """Hypersurface of degree a_i + a_j whose other weights divide the
    degree: quasi-smooth, and well-formed often enough that the normal-form
    certificate fires on most of them."""
    d = rng.randint(4, 60)
    a = rng.randint(max(1, d - 40), min(40, d - 1))
    ws = [a, d - a] + [rng.choice(_divisors(d)) for _ in range(rng.randint(2, 4))]
    rng.shuffle(ws)
    return ws, [d], None


def _projection_shaped(rng, rows):
    """Codimension-2 (sometimes -3) input whose degrees split over two
    pivots, so the projection certificates can fire."""
    d1 = rng.randint(4, 20)
    d2 = d1 * rng.choice((1, 1, 2))
    a, b = rng.randint(1, d1 - 1), rng.randint(1, d1 - 1)
    common = [k for k in _divisors(d1) if d2 % k == 0]
    ws = [a, b, d1 - a, d1 - b, d2 - a, d2 - b] + [rng.choice(common)
                                                   for _ in range(rng.randint(1, 2))]
    rng.shuffle(ws)
    degs = [d1, d2]
    if rng.random() < 0.3:
        degs.append(rng.randint(2, 2 * max(ws)))
    return ws, degs, None


def _random_input(rng, rows):
    ws = [rng.randint(1, 40) for _ in range(rng.randint(4, 7))]
    codim = rng.randint(1, min(3, len(ws) - 2))
    degs = [rng.choice(ws) if rng.random() < 0.15 else rng.randint(2, 2 * max(ws))
            for _ in range(codim)]
    return ws, degs, None


def _normal_form(rng) -> list[str]:
    ws = [rng.randint(1, 10) for _ in range(rng.randint(4, 6))]
    i, j = rng.sample(range(len(ws)), 2)
    return ["normal-form", "--weights", _join(ws), "--pair", f"{i},{j}",
            "--seed", str(rng.randrange(1 << 30))]


# The analyze inputs come in the four kinds the workload names, in equal
# shares: table instantiations, a_i + a_j hypersurfaces, codimension-2/3
# projection-shaped inputs and random inputs (which include linear cones).
ANALYZE_KINDS = (_table_instance, _sum_of_two, _projection_shaped, _random_input)


def generate(seed: int, calls: int, rows) -> list[tuple[list[str], object]]:
    """`calls` CLI argument lists, each with what its check needs to know:
    the (table, row, n) a table instantiation came from, else None."""
    rng = random.Random(f"analyze-stream/{seed}")
    n_analyze = round(calls * ANALYZE_SHARE)
    kinds = ([k % len(ANALYZE_KINDS) for k in range(n_analyze)]
             + [None] * (calls - n_analyze))
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind is None:
            out.append((_normal_form(rng), None))
            continue
        ws, ds, origin = ANALYZE_KINDS[kind](rng, rows)
        out.append((_analyze(ws, ds), origin))
    return out


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _recheck(cert: dict, ws, ds) -> bool:
    """Re-derive a constructive certificate from the sorted input weights."""
    kind = cert["kind"]
    if kind == "SumOfTwoWeights":
        i, j = cert["i"], cert["j"]
        return len(ds) == 1 and i != j and ws[i] + ws[j] == ds[0]
    if kind == "Codim2Projection":
        (p, q), (pa, pb) = cert["pivots"], cert["partners"]
        return (len(ds) == 2 and len({p, q, *pa, *pb}) == 6
                and all(ws[p] + ws[pa[k]] == ds[k] and ws[q] + ws[pb[k]] == ds[k]
                        for k in range(2)))
    if kind == "CodimCGeneralized":
        pivots, partners = cert["pivots"], cert["partners"]
        c = len(ds)
        used = list(pivots) + [x for row in partners for x in row]
        return (len(pivots) == c and len(set(used)) == c + c * c
                and all(ws[pivots[l]] + ws[partners[l][j]] == ds[j]
                        for l in range(c) for j in range(c)))
    if kind == "LinearCone":
        inner = cert["inner"]
        target = cert["target"]
        if inner is None or inner["kind"] not in _CONSTRUCTIVE:
            return True
        return _recheck(inner, target["weights"], target["degrees"])
    return True


_CONSTRUCTIVE = ("SumOfTwoWeights", "Codim2Projection", "CodimCGeneralized", "LinearCone")


def expected_status(origin, doc) -> str | None:
    """Literature status of a well-formed quasi-smooth table instantiation:
    KKW24 for the hypersurface series at n > 2 and family 4 at every n, the
    alpha >= 1 classification for the codimension-2 tables."""
    if origin is None or not (doc["well_formed"] and doc["quasi_smooth"]):
        return None
    table, row, n = origin
    if table == "T1":
        return "NotCylindrical" if row == 4 or (n is not None and n > 2) else None
    return None if (table, row) in ALPHA_EXCEPTIONS else "NotCylindrical"


def check_analyze(argv, origin, rc, out, validate) -> str | None:
    """None when the call's output is right, else the reason it is not."""
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    cyl = doc["cylinder"]
    validate(cyl)
    ws = sorted(int(x) for x in argv[2].split(","))
    ds = sorted(int(x) for x in argv[4].split(","))
    if doc["input_weights"] != ws or doc["degrees"] != ds:
        return "input echoed wrongly"
    cert = cyl["certificate"]
    if cert is not None and cert["kind"] in _CONSTRUCTIVE and not _recheck(cert, ws, ds):
        return f"certificate {cert['kind']} does not re-check"
    want = expected_status(origin, doc)
    if want is not None and cyl["status"] != want:
        return f"{origin} has status {cyl['status']}, literature says {want}"
    return None


def _degenerate(poly, i: int, j: int) -> bool:
    """Whether the quadratic part of the member in x_i, x_j (equal weights)
    is a perfect square, so that x_i*x_j cannot be made its cross term."""
    n = len(poly.weights)

    def coeff(*idx):
        exps = tuple(sum(k == m for m in idx) for k in range(n))
        c = poly.terms.get(exps)
        return Fraction(0) if c is None else c.base

    return coeff(i, j) ** 2 == 4 * coeff(i, i) * coeff(j, j)


def check_normal_form(argv, rc, out, generic_member) -> str | None:
    ws = [int(x) for x in argv[2].split(",")]
    i, j = (int(x) for x in argv[4].split(","))
    d = ws[i] + ws[j]
    if rc == 5:
        # exit 5 is the right answer when the seeded member is degenerate;
        # with nonzero coefficients everywhere that needs a_i == a_j
        member = generic_member(ws, d, int(argv[6]))
        if ws[i] == ws[j] and _degenerate(member, i, j):
            return None
    if rc != 0:
        return f"exit code {rc}"
    doc = json.loads(out)
    u, v = doc["pair"]
    result, remainder = doc["result"], doc["remainder"]
    if result["weights"] != ws or result["degree"] != d:
        return "grading changed"
    for term in result["terms"] + remainder["terms"]:
        if sum(e * a for e, a in zip(term["exps"], ws)) != d:
            return f"term {term['exps']} is not of degree {d}"
    cross = [t for t in result["terms"]
             if t["exps"] == [int(k in (u, v)) for k in range(len(ws))]]
    if len(cross) != 1 or Fraction(cross[0]["coeff"]) != 1 or Fraction(cross[0]["radical"]) != 0:
        return "cross coefficient is not 1"
    if any(t["exps"][u] or t["exps"][v] for t in remainder["terms"]):
        return "remainder involves a pivot"
    if len(result["terms"]) != len(remainder["terms"]) + 1:
        return "result is not x_u*x_v + remainder"
    return None
