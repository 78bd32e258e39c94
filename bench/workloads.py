"""The benchmark's four workloads.

Each workload is a ``Workload`` with three functions:

  make_inputs(seed)    the seeded inputs; the library sees only these
  run(item)            one timed item: the library's public calls, with
                       the result reduced to plain data inside the timed
                       region
  check(item, output)  oracles that do not use the code under test; they
                       run after the timed pass and return mismatches

``LAYERS`` names the layer functions a traced pass wraps in place (see
spans.py) and the work each one counts.

Inputs are stratified: the seed picks among inputs of the same size and
shape (a multiplier of a given order, a relabelling, an automorphism with
a given order and orbit count), so every seed costs about the same and
run-to-run spread measures the program, not the draw.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import weakref
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Callable

import numpy as np

from quandlekit import analysis, cli
from quandlekit.abelian import (
    AbelianGroup,
    abelian_affine_quandle,
    abelian_types,
    affine_extension,
    automorphism_group,
    automorphism_permutations,
)
from quandlekit.analysis import analyze
from quandlekit.cayley import AffineSpec, AxiomViolation, affine_quandle, validate_quandle
from quandlekit.characters import burnside_rank, decompose_prime_affine, permutation_character
from quandlekit.gelfand import double_cosets, is_gelfand_pair, is_multiplicity_free
from quandlekit.inner import inner_group, is_connected, presentation
from quandlekit.modular import is_prime
from quandlekit.perms import conjugacy_classes
from quandlekit.tables import bundled_order12
from quandlekit.tensor import tau_quotient, tensor_square


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable
    run: Callable
    check: Callable


# ---------------------------------------------------------------------------
# plain-Python facts about Z_m and its units, used to draw inputs and as
# oracles; nothing here calls quandlekit


def unit_order(t: int, m: int) -> int:
    k, acc = 1, t % m
    while acc != 1 % m:
        acc = acc * t % m
        k += 1
    return k


def connected_multipliers(m: int, n: int) -> list[int]:
    """Multipliers t of order n mod m with t and 1 - t units."""
    return [
        t for t in range(2, m)
        if gcd(t, m) == 1 and gcd(1 - t, m) == 1 and unit_order(t, m) == n
    ]


def scaling_orbits(m: int, multipliers) -> list[list[int]]:
    """Orbits on Z_m of the group generated by x -> a x, a in multipliers;
    each sorted, ordered by least member."""
    seen: set[int] = set()
    out = []
    for start in range(m):
        if start in seen:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            x = frontier.pop()
            for a in multipliers:
                y = a * x % m
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        seen |= orbit
        out.append(sorted(orbit))
    return out


def affine_rows(m: int, t: int, relabel=None) -> list[list[int]]:
    """Cayley table of x > y = t x + (1 - t) y mod m, optionally with the
    points renamed by the permutation ``relabel``."""
    rows = [[(t * x + (1 - t) * y) % m for y in range(m)] for x in range(m)]
    if relabel is None:
        return rows
    out = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            out[relabel[x]][relabel[y]] = relabel[rows[x][y]]
    return out


def reference_violation(rows):
    """First failing quandle axiom and its witness, in the axiom order and
    lexicographic witness order of the definition; None for a quandle.
    Vectorised over all triples, independent of validate_quandle."""
    T = np.asarray(rows, dtype=np.int64)
    n = len(T)
    idx = np.arange(n)
    bad = np.nonzero(T[idx, idx] != idx)[0]
    if bad.size:
        return 1, (int(bad[0]),)
    bad = np.nonzero(~(np.sort(T, axis=0) == idx[:, None]).all(axis=0))[0]
    if bad.size:
        return 2, (int(bad[0]),)
    left = T[T[:, :, None], idx[None, None, :]]   # (x>y)>z
    right = T[T[:, None, :], T[None, :, :]]        # (x>z)>(y>z)
    bad = np.argwhere(left != right)
    if len(bad):
        return 3, tuple(int(v) for v in bad[0])
    return None


def cycle_type(images) -> list[int]:
    seen = [False] * len(images)
    lengths = []
    for start in range(len(images)):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = images[x]
            length += 1
        lengths.append(length)
    return sorted(lengths)


def expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# prime_sweep: the criterion-1 pipeline on prime affine specs


PRIME_MAX = 47
PRIME_MAX_INNER = 1000  # |Inn| = p n; the four largest strata take 4.3 s


def prime_strata() -> list[tuple[int, int]]:
    return [
        (p, n)
        for p in range(3, PRIME_MAX + 1) if is_prime(p)
        for n in range(2, p) if (p - 1) % n == 0 and p * n <= PRIME_MAX_INNER
    ]


def prime_inputs(seed: int) -> list[tuple[int, int]]:
    rng = random.Random(f"prime_sweep:{seed}")
    items = [(p, rng.choice(connected_multipliers(p, n))) for p, n in prime_strata()]
    rng.shuffle(items)
    return items


def prime_run(item) -> dict:
    p, t = item
    spec = AffineSpec(p, t)
    quandle = affine_quandle(spec)
    group = inner_group(quandle)
    classes = conjugacy_classes(group)
    presentation(spec)
    chi = permutation_character(group, classes)
    result = decompose_prime_affine(spec)
    square = tensor_square(quandle)
    quotient = tau_quotient(square)
    rank = burnside_rank(group)
    return {
        "spec": [p, t],
        "inner_order": len(group),
        "class_sizes": list(classes.sizes),
        "character": list(chi.values),
        "multiplicities": dict(sorted(result.nonzero().items())),
        "decomposition_rank": result.rank,
        "multiplicity_free": result.is_multiplicity_free,
        "tensor_representatives": [list(r) for r in square.representatives],
        "tensor_sizes": list(square.sizes),
        "tau_classes": len(quotient),
        "burnside_rank": rank,
    }


def prime_check(item, out) -> list[str]:
    p, t = item
    n = unit_order(t, p)
    layers = (p - 1) // n
    cosets = scaling_orbits(p, [t])[1:]
    problems: list[str] = []
    expect(problems, "|Inn|", out["inner_order"], p * n)
    expect(problems, "class sizes", sorted(out["class_sizes"]),
           sorted([1] + [p] * (n - 1) + [n] * layers))
    # fixed points of x -> a x + b: p for the identity, 1 when a != 1, 0 else
    by_size = {1: p, p: 1, n: 0}
    expect(problems, "character", out["character"],
           [by_size[s] for s in out["class_sizes"]])
    expect(problems, "multiplicities", out["multiplicities"],
           dict(sorted({"triv": 1, **{f"ind:{c[0]}": 1 for c in cosets}}.items())))
    for key in ("decomposition_rank", "burnside_rank"):
        expect(problems, key, out[key], 1 + layers)
    expect(problems, "multiplicity free", out["multiplicity_free"], True)
    expect(problems, "tensor representatives", out["tensor_representatives"],
           [[0, 0]] + [[0, c[0]] for c in cosets])
    expect(problems, "tensor sizes", out["tensor_sizes"], [p] + [p * n] * layers)
    expect(problems, "tau classes", out["tau_classes"],
           1 + (p - 1) // (n if n % 2 == 0 else 2 * n))
    return problems


# ---------------------------------------------------------------------------
# report: analyze(), the call behind `quandlekit analyze`, on a mix of
# --affine specs, bare tables, the bundled table and corrupted tables


REPORT_SPECS = [  # (m, n): given as --affine specs, |Inn| = m n
    (29, 28), (37, 12), (27, 18), (31, 10), (23, 11), (41, 5),
    (19, 9), (43, 3), (21, 6), (17, 4),
    # a band of items of 20 to 45 ms around the median item, so that
    # item_p50_ms does not jump between two items of distant cost
    (13, 12), (17, 8), (25, 4), (19, 6), (11, 10),
]
REPORT_TABLES = [  # (m, n): bare relabelled tables; m <= 13 are recognised
    (25, 20), (17, 8), (13, 12), (13, 4), (11, 10), (11, 5), (9, 6), (7, 3),
    (5, 4),
]
REPORT_CORRUPT = [(43, 7), (31, 5), (19, 18), (13, 6)]  # (m, n): one column swap


def report_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"report:{seed}")
    items = []
    for m, n in REPORT_SPECS:
        items.append({"kind": "spec", "m": m, "t": rng.choice(connected_multipliers(m, n))})
    for m, n in REPORT_TABLES:
        t = rng.choice(connected_multipliers(m, n))
        relabel = rng.sample(range(m), m)
        items.append({"kind": "table", "m": m, "t": t,
                      "rows": affine_rows(m, t, relabel)})
    items.append({"kind": "bundled", "rows": [list(r) for r in bundled_order12().table]})
    for m, n in REPORT_CORRUPT:
        t = rng.choice(connected_multipliers(m, n))
        rows = affine_rows(m, t, rng.sample(range(m), m))
        while True:
            # swap two entries of one column, off the diagonal: idempotence
            # and right invertibility survive, self-distributivity breaks
            y = rng.randrange(m)
            a, b = rng.sample([x for x in range(m) if x != y], 2)
            broken = [row[:] for row in rows]
            broken[a][y], broken[b][y] = broken[b][y], broken[a][y]
            violation = reference_violation(broken)
            if violation is not None and violation[0] == 3:
                break
        items.append({"kind": "corrupt", "m": m, "t": t, "rows": broken,
                      "violation": [violation[0], list(violation[1])]})
    rng.shuffle(items)
    return items


def report_run(item) -> dict:
    kind = item["kind"]
    if kind == "spec":
        spec = AffineSpec(item["m"], item["t"])
        source = f"affine {item['m']} {item['t']}"
        quandle = affine_quandle(spec)
    else:
        spec = None
        source = "bundled order-12" if kind == "bundled" else "table"
        try:
            quandle = validate_quandle(item["rows"])
        except AxiomViolation as exc:
            return {"rejected": {"axiom": exc.axiom, "witness": list(exc.witness)}}
    return analyze(quandle, spec=spec, source=source).to_dict()


def report_check(item, out) -> list[str]:
    problems: list[str] = []
    kind = item["kind"]
    if kind == "corrupt":
        expect(problems, "rejection", out.get("rejected"),
               {"axiom": item["violation"][0], "witness": item["violation"][1]})
        return problems
    if "rejected" in out:
        return [f"valid input rejected: {out['rejected']}"]
    if kind == "bundled":
        # the smallest connected quandle whose module is not multiplicity
        # free: Inn of order 24, rank 1+1+1+2^2 = 7, both routes say no
        for key, want in (("order", 12), ("connected", True), ("inner_order", 24),
                          ("stabilizer_order", 2), ("rank", 7),
                          ("tensor_class_count", 7), ("multiplicity_free", False),
                          ("gelfand_pair", False), ("affine_status", "none"),
                          ("decomposition", None)):
            expect(problems, key, out[key], want)
        if out["commutation_witness"] is None:
            problems.append("negative verdict without a witness")
        return problems
    m, t = item["m"], item["t"]
    n = unit_order(t, m)
    orbits = scaling_orbits(m, [t])
    swap_orbits = scaling_orbits(m, [t, m - 1])
    lengths = cycle_type([t * x % m for x in range(m)])
    for key, want in (("order", m), ("connected", True), ("latin", True),
                      ("inner_order", m * n), ("stabilizer_order", n),
                      ("rank", len(orbits)), ("tensor_class_count", len(orbits)),
                      ("tau_class_count", len(swap_orbits)),
                      ("translation_cycle_type", lengths),
                      ("translation_cycles_uniform", len({c for c in lengths if c > 1}) <= 1),
                      ("multiplicity_free", True), ("commutation_witness", None)):
        expect(problems, key, out[key], want)
    # the orbital and the double-coset routes must agree
    expect(problems, "gelfand_pair", out["gelfand_pair"], out["multiplicity_free"])
    expect(problems, "tensor sizes", sorted(out["tensor_sizes"]),
           sorted(m * len(o) for o in orbits))
    if kind == "spec":
        expect(problems, "tensor representatives", out["tensor_representatives"],
               [[0, o[0]] for o in orbits])
        status, matched = "given", True
    elif m <= analysis.RECOGNITION_CAP:
        status, matched = "match", True
    else:
        status, matched = "not-checked", False
    expect(problems, "affine_status", out["affine_status"], status)
    expect(problems, "affine spec", [out["affine_modulus"], out["affine_multiplier"]],
           [m, t] if matched else [None, None])
    want = None
    if matched and is_prime(m):
        want = dict(sorted({"triv": 1, **{f"ind:{o[0]}": 1 for o in orbits[1:]}}.items()))
    expect(problems, "decomposition", out["decomposition"], want)
    return problems


# ---------------------------------------------------------------------------
# abelian_pairs: the criterion-6 sweep, one isomorphism type per item


ABELIAN_MAX_ORDER = 30
ABELIAN_SKIP = {(3, 3, 3)}  # second |Aut| > 500 type; (2,2,2,2) covers the path
FULL_SWEEP_LIMIT = 500      # as in the criterion-6 sweep
MAX_EXTENSION = 150         # largest |A| ord(f) drawn
MAX_CANDIDATES = 1 << 17    # (2,2,2,2) needs 16^4; order 32 would need 32^5


class SizeGuard(Exception):
    """An input whose automorphism expansion would not fit in memory."""


def candidate_maps(moduli) -> int:
    """Candidate generator-image assignments automorphism_permutations
    expands: the image of a generator of order m_i is any element killed
    by m_i, and there are prod_j gcd(m_i, m_j) of those."""
    return prod(gcd(a, b) for a in moduli for b in moduli)


def aut_order(moduli) -> int:
    """|Aut(A)| by the closed formula of Hillar and Rhea (2007), one
    p-part at a time, exponents e_1 <= ... <= e_k."""
    by_prime: dict[int, list[int]] = {}
    for q in moduli:
        if q == 1:
            continue
        p = min(d for d in range(2, q + 1) if q % d == 0)
        e = 0
        while q > 1:
            q //= p
            e += 1
        by_prime.setdefault(p, []).append(e)
    total = 1
    for p, es in by_prime.items():
        es.sort()
        k = len(es)
        d = [max(i for i in range(1, k + 1) if es[i - 1] == es[j]) for j in range(k)]
        c = [min(i for i in range(1, k + 1) if es[i - 1] == es[j]) for j in range(k)]
        for j in range(k):
            total *= p ** d[j] - p ** j
            total *= p ** (es[j] * (k - d[j]))
            total *= p ** ((es[j] - 1) * (k - c[j] + 1))
    return total


def abelian_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"abelian_pairs:{seed}")
    items = []
    for order in range(1, ABELIAN_MAX_ORDER + 1):
        for moduli in abelian_types(order):
            if moduli in ABELIAN_SKIP:
                continue
            items.append({"moduli": list(moduli), "draw": rng.randrange(1 << 30)})
    rng.shuffle(items)
    return items


def _signature(moduli, elements, images) -> tuple[int, int, bool]:
    """(order of f, number of <f>-orbits, whether x -> x - f(x) is onto)."""
    lengths = cycle_type(images)
    moved = {
        tuple((a - b) % m for a, b, m in zip(x, elements[fx], moduli))
        for x, fx in zip(elements, images)
    }
    return lcm(*lengths), len(lengths), len(moved) == len(elements)


def abelian_run(item) -> dict:
    moduli = tuple(item["moduli"])
    group = AbelianGroup(moduli)
    candidates = candidate_maps(moduli)
    if candidates > MAX_CANDIDATES:
        raise SizeGuard(f"{moduli}: {candidates} candidate maps, limit {MAX_CANDIDATES}")
    autos = automorphism_permutations(group)
    if len(autos) <= FULL_SWEEP_LIMIT:
        sweep = autos
    else:
        sweep = list(conjugacy_classes(automorphism_group(group)).representatives)
    # one automorphism per signature, so each seed does the same work
    elements = group.elements
    strata: dict[tuple, list] = {}
    for f in sweep:
        sig = _signature(moduli, elements, f.images)
        if group.order * sig[0] <= MAX_EXTENSION:
            strata.setdefault(sig, []).append(f)
    rng = random.Random(item["draw"])
    pairs = []
    for sig in sorted(strata):
        f = rng.choice(strata[sig])
        big, small = affine_extension(group, f)
        part = double_cosets(big, small)
        gelfand = is_gelfand_pair(big, small, part)
        quandle = abelian_affine_quandle(group, f)
        connected = is_connected(quandle)
        mf = None
        if connected:
            mf = bool(is_multiplicity_free(quandle))
        pairs.append({"f": list(f.images), "extension_order": len(big),
                      "subgroup_order": len(small), "double_cosets": len(part),
                      "gelfand": gelfand, "connected": connected,
                      "multiplicity_free": mf})
    return {"moduli": list(moduli), "automorphisms": len(autos),
            "swept": len(sweep), "pairs": pairs}


def abelian_check(item, out) -> list[str]:
    moduli = tuple(item["moduli"])
    problems: list[str] = []
    expect(problems, "|Aut|", out["automorphisms"], aut_order(moduli))
    elements = list(itertools.product(*(range(m) for m in moduli)))
    index = {x: i for i, x in enumerate(elements)}
    if not out["pairs"]:
        problems.append("no automorphism swept")
    for pair in out["pairs"]:
        f = pair["f"]
        label = f"{moduli} f={f}"
        # a bijection that is the linear extension of its generator images
        basis = [elements[f[index[tuple(int(i == j) % m for j, m in enumerate(moduli))]]]
                 for i in range(len(moduli))]
        linear = all(
            f[index[x]] == index[tuple(
                sum(c * b[k] for c, b in zip(x, basis)) % moduli[k]
                for k in range(len(moduli)))]
            for x in elements
        )
        if sorted(f) != list(range(len(elements))) or not linear:
            problems.append(f"{label}: not an automorphism")
            continue
        lengths = cycle_type(f)
        order = lcm(*lengths)
        moved = {tuple((a - b) % m for a, b, m in zip(x, elements[f[i]], moduli))
                 for i, x in enumerate(elements)}
        connected = len(moved) == len(elements)
        expect(problems, f"{label} |A x| <f>|", pair["extension_order"],
               len(elements) * order)
        expect(problems, f"{label} |<f>|", pair["subgroup_order"], order)
        # K\G/K for G = A x| <f>, K = <f> matches the <f>-orbits on A
        expect(problems, f"{label} double cosets", pair["double_cosets"], len(lengths))
        expect(problems, f"{label} gelfand", pair["gelfand"], True)
        expect(problems, f"{label} connected", pair["connected"], connected)
        expect(problems, f"{label} orbital vs double-coset", pair["multiplicity_free"],
               pair["gelfand"] if connected else None)
    return problems


# ---------------------------------------------------------------------------
# census: `quandlekit scan --max-order 31 --include-bundled --json -`


# one pass is one scan call, and a call much longer than a second cannot
# be scaled to reference seconds on a host whose speed swings that fast
# (README.md); the CLI's own cap, 47, takes about 4 s
SCAN_MAX = 31
SCAN_ARGS = ["scan", "--max-order", str(SCAN_MAX), "--include-bundled", "--json", "-"]


def census_inputs(seed: int) -> list[dict]:
    # scan's only input is its order bound, so every seed scans the same
    return [{"argv": SCAN_ARGS}]


def census_run(item) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(item["argv"]))
    if code != 0:
        raise RuntimeError(f"scan exited with {code}")
    text = buffer.getvalue()
    return text[text.index("{\n"):]


def census_check(item, out) -> list[str]:
    problems: list[str] = []
    payload = json.loads(out)
    want_rows = []
    for m in range(3, SCAN_MAX + 1):
        for t in range(1, m):
            if gcd(t, m) == 1 and gcd(1 - t, m) == 1:
                want_rows.append({
                    "modulus": m, "multiplier": t, "multiplier_order": unit_order(t, m),
                    "tensor_classes": len(scaling_orbits(m, [t])),
                    "tau_classes": len(scaling_orbits(m, [t, m - 1])),
                    "multiplicity_free": True,
                })
    expect(problems, "row count", len(payload["affine_rows"]), len(want_rows))
    for got, want in zip(payload["affine_rows"], want_rows):
        expect(problems, f"row {want['modulus']} {want['multiplier']}", got, want)
    expect(problems, "all free", payload["all_affine_multiplicity_free"], True)
    expect(problems, "bundled", payload["bundled"],
           {"source": "bundled order-12", "tensor_classes": 7, "multiplicity_free": False})
    return problems


# ---------------------------------------------------------------------------
# layers a traced pass wraps: span name -> (quandlekit module, function,
# counter of the work one call did)


def _cayley_entries():
    """Sum of |G|^2 over distinct index tables.  The table is cached on its
    group, so a repeat call returns the same array and adds nothing."""
    seen: dict[int, weakref.ref] = {}

    def count(args, table):
        ref = seen.get(id(table))
        if ref is not None and ref() is table:
            return {}
        seen[id(table)] = weakref.ref(table)
        return {"perms.cayley_index_table.entries": table.size}
    return count


LAYERS = {
    "cayley.affine_quandle": ("cayley", "affine_quandle", None),
    "cayley.validate_quandle": ("cayley", "validate_quandle", None),
    "inner.inner_group": ("inner", "inner_group", lambda args, group: {
        "inner.inner_group.elements": len(group)}),
    "inner.is_connected": ("inner", "is_connected", None),
    "inner.presentation": ("inner", "presentation", None),
    "perms.conjugacy_classes": ("perms", "conjugacy_classes", lambda args, classes: {
        "perms.conjugacy_classes.classes": len(classes)}),
    "perms.stabilizer": ("perms", "stabilizer", None),
    "perms.cayley_index_table": ("perms", "cayley_index_table", _cayley_entries()),
    "characters.decompose_prime_affine": ("characters", "decompose_prime_affine", None),
    "characters.permutation_character": ("characters", "permutation_character", None),
    "characters.burnside_rank": ("characters", "burnside_rank", None),
    "tensor.tensor_square": ("tensor", "tensor_square", lambda args, square: {
        "tensor.tensor_square.pairs": args[0].order ** 2,
        "tensor.tensor_square.classes": len(square)}),
    "tensor.tau_quotient": ("tensor", "tau_quotient", None),
    "gelfand.is_multiplicity_free": ("gelfand", "is_multiplicity_free", None),
    "gelfand.double_cosets": ("gelfand", "double_cosets", lambda args, part: {
        "gelfand.double_cosets.cosets": len(part)}),
    "gelfand.is_gelfand_pair": ("gelfand", "is_gelfand_pair", None),
    "abelian.automorphism_permutations": (
        "abelian", "automorphism_permutations", lambda args, autos: {
            "abelian.automorphism_permutations.candidates": candidate_maps(args[0].moduli),
            "abelian.automorphism_permutations.kept": len(autos)}),
    "abelian.automorphism_group": ("abelian", "automorphism_group", None),
    "abelian.affine_extension": ("abelian", "affine_extension", None),
    "abelian.abelian_affine_quandle": ("abelian", "abelian_affine_quandle", None),
    "analysis.analyze": ("analysis", "analyze", None),
    "analysis.recognize_affine": ("analysis", "recognize_affine", None),
    "cli.scan": ("cli", "cmd_scan", None),
}
COUNTS = [
    "inner.inner_group.elements",
    "perms.cayley_index_table.entries",
    "perms.conjugacy_classes.classes",
    "tensor.tensor_square.pairs",
    "tensor.tensor_square.classes",
    "gelfand.double_cosets.cosets",
    "abelian.automorphism_permutations.candidates",
    "abelian.automorphism_permutations.kept",
]

WORKLOADS = {
    w.name: w
    for w in (
        Workload("prime_sweep", prime_inputs, prime_run, prime_check),
        Workload("report", report_inputs, report_run, report_check),
        Workload("abelian_pairs", abelian_inputs, abelian_run, abelian_check),
        Workload("census", census_inputs, census_run, census_check),
    )
}
