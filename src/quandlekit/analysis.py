"""Whole-quandle analysis: one report object combining connectivity,
inner-group data, tensor classes, multiplicity-freeness, the Gelfand-pair
verdict, and (for prime affine inputs) the module decomposition.

Also houses a small exact isomorphism search on row tables, used to
recognize affine quandles among tables of order at most RECOGNITION_CAP:
one search with 0 pinned to 0 per Aff(Z_m, t) whose closed-form element
signature is the table's, against its closed-form rows, which build and
validate no quandle (recognize_affine says why both cuts are exact).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import gcd

from . import __version__
from .cayley import AffineSpec, CayleyQuandle, affine_quandle, is_latin, right_translation
from .characters import BadParameters, burnside_rank, decompose_prime_affine
from .gelfand import is_gelfand_pair, is_multiplicity_free
from .inner import inner_group, is_connected
from .modular import units
from .perms import Permutation, cycle_structure, stabilizer
from .tensor import tau_quotient, tensor_square

RECOGNITION_CAP = 13


def _element_signature(quandle: CayleyQuandle, x: int):
    """Isomorphism-invariant fingerprint of one element: the cycle type of
    its right translation and the fiber profile of its row."""
    column = cycle_structure(right_translation(quandle, x))
    row = quandle.table[x]
    fibers: dict[int, int] = {}
    for v in row:
        fibers[v] = fibers.get(v, 0) + 1
    return column, tuple(sorted(fibers.values()))


def quandles_isomorphic(first: CayleyQuandle,
                        second: CayleyQuandle) -> tuple[int, ...] | None:
    """Image tuple of an isomorphism from first to second, or None."""
    n = first.order
    if second.order != n:
        return None
    sig_first = [_element_signature(first, x) for x in range(n)]
    sig_second = [_element_signature(second, x) for x in range(n)]
    return _isomorphism(first.table, second.table, sig_first, sig_second, ())


def _isomorphism(t1, t2, sig_first, sig_second, forced):
    """Image tuple of an isomorphism from the quandle with rows t1 to the
    one with rows t2 that maps a to b for every (a, b) in forced, or None;
    the two tables have one order and sig_first, sig_second list their
    element signatures.

    Backtracking over images with forward propagation: every assigned pair
    (a, b) forces sigma(a ? b) for both operand orders, so contradictions
    surface long before the map is total.
    """
    n = len(t1)
    candidates = [
        [y for y in range(n) if sig_second[y] == sig_first[x]] for x in range(n)
    ]
    if any(not c for c in candidates):
        return None

    def propagate(sigma, used, x, y):
        """Assign sigma[x] = y and close under the operation; False on
        contradiction.  Mutates sigma and used."""
        queue = [(x, y)]
        while queue:
            a, b = queue.pop()
            if sigma[a] == b:
                continue
            if sigma[a] != -1 or used[b]:
                return False
            if sig_first[a] != sig_second[b]:
                return False
            sigma[a] = b
            used[b] = True
            for c in range(n):
                d = sigma[c]
                if d == -1:
                    continue
                queue.append((t1[a][c], t2[b][d]))
                queue.append((t1[c][a], t2[d][b]))
        return True

    def search(sigma, used):
        best = -1
        best_options = None
        for x in range(n):
            if sigma[x] != -1:
                continue
            options = [y for y in candidates[x] if not used[y]]
            if best_options is None or len(options) < len(best_options):
                best, best_options = x, options
                if len(options) <= 1:
                    break
        if best_options is None:
            return True
        for y in best_options:
            trial_sigma = sigma[:]
            trial_used = used[:]
            if propagate(trial_sigma, trial_used, best, y) and search(
                trial_sigma, trial_used
            ):
                sigma[:] = trial_sigma
                used[:] = trial_used
                return True
        return False

    sigma = [-1] * n
    used = [False] * n
    if all(propagate(sigma, used, a, b) for a, b in forced) and search(sigma, used):
        return tuple(sigma)
    return None


def recognize_affine(quandle: CayleyQuandle) -> AffineSpec | None:
    """The first spec in multiplier order whose quandle is isomorphic to
    this one, or None.  Orders above RECOGNITION_CAP are not searched
    (analyze reports 'not-checked').

    Every translation x -> x + b is an automorphism of Aff(Z_m, t), so all
    its elements share one signature: the cycle type of x -> t x, with
    every fiber of a row of size gcd(1 - t, m).  Signatures are
    isomorphism invariants, so a table with two signatures is no affine
    quandle, and a multiplier of another signature cannot match.  An
    isomorphism followed by the translation by -sigma(0) fixes 0, so each
    multiplier left costs one search with sigma(0) = 0 forced: four on a
    relabelled Aff(Z_13, 11), one per unit of order 12, not twelve.  Each
    searches the closed-form rows t x + (1 - t) y, which are a quandle for
    every unit t, so no candidate table is validated.
    """
    m = quandle.order
    if m > RECOGNITION_CAP:
        return None
    signatures = [_element_signature(quandle, x) for x in range(m)]
    signature = signatures[0]
    if signatures.count(signature) != m:
        return None
    for t in units(m):
        d = gcd(1 - t, m)
        times_t = Permutation._trusted([t * x % m for x in range(m)])
        if (cycle_structure(times_t), (d,) * (m // d)) != signature:
            continue
        rows = [[(t * x + (1 - t) * y) % m for y in range(m)] for x in range(m)]
        # every element of the target has the input's one signature
        if _isomorphism(quandle.table, rows, signatures, signatures, ((0, 0),)) is not None:
            return AffineSpec(m, t)
    return None


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the pipeline can say about one quandle.

    Fields that only make sense for connected quandles (multiplicity_free,
    gelfand_pair) are None otherwise; decomposition is present only for
    prime affine inputs with a nontrivial multiplier.
    """

    source: str
    order: int
    connected: bool
    latin: bool
    inner_order: int
    stabilizer_order: int
    rank: int
    translation_cycle_type: tuple[int, ...]
    translation_cycles_uniform: bool
    tensor_class_count: int
    tensor_representatives: tuple[tuple[int, int], ...]
    tensor_sizes: tuple[int, ...]
    tau_class_count: int
    multiplicity_free: bool | None
    commutation_witness: str | None
    gelfand_pair: bool | None
    affine_status: str
    affine_modulus: int | None
    affine_multiplier: int | None
    decomposition: dict[str, int] | None
    tool_version: str

    def to_dict(self) -> dict:
        """The report as JSON-ready values (tuples become lists), with the
        schema version under "schema"."""
        return {"schema": 1, **{f.name: _plain(getattr(self, f.name)) for f in fields(self)}}


def _plain(value):
    """A field value with its tuples turned into lists, recursively, as a
    JSON round trip would give it; dicts are copied, scalars kept."""
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def analyze(
    quandle: CayleyQuandle,
    *,
    spec: AffineSpec | None = None,
    source: str = "table",
) -> AnalysisReport:
    """Run the full pipeline on one quandle.

    Pass the spec the quandle came from, if any, to skip recognition; a
    spec of another quandle raises ValueError.  A connected prime affine
    input, given or recognized, gets its module's decomposition into
    irreducibles with exact integer multiplicities (decompose_prime_affine).
    """
    if spec is not None and affine_quandle(spec) is not quandle and affine_quandle(spec) != quandle:
        raise ValueError(f"{spec} does not describe the quandle")
    order = quandle.order
    group = inner_group(quandle)
    connected = is_connected(quandle)
    latin = is_latin(quandle)
    stab = stabilizer(group, 0)
    rank = burnside_rank(group)
    cycles = cycle_structure(right_translation(quandle, 0))
    nontrivial = [c for c in cycles if c > 1]
    uniform = len(set(nontrivial)) <= 1

    ts = tensor_square(quandle)
    tq = tau_quotient(ts)

    mf_value = None
    witness_text = None
    gelfand_value = None
    if connected:
        verdict = is_multiplicity_free(quandle)
        mf_value = verdict.value
        if verdict.witness is not None:
            witness_text = verdict.witness.describe()
        gelfand_value = is_gelfand_pair(group, stab)

    if spec is not None:
        affine_status = "given"
        matched = spec
    elif order <= RECOGNITION_CAP:
        matched = recognize_affine(quandle)
        affine_status = "match" if matched is not None else "none"
    else:
        matched = None
        affine_status = "not-checked"

    decomposition = None
    if matched is not None:
        try:
            decomposition = decompose_prime_affine(matched).nonzero()
        except BadParameters:
            pass

    return AnalysisReport(
        source=source,
        order=order,
        connected=connected,
        latin=latin,
        inner_order=len(group),
        stabilizer_order=len(stab),
        rank=rank,
        translation_cycle_type=cycles,
        translation_cycles_uniform=uniform,
        tensor_class_count=len(ts),
        tensor_representatives=ts.representatives,
        tensor_sizes=ts.sizes,
        tau_class_count=len(tq),
        multiplicity_free=mf_value,
        commutation_witness=witness_text,
        gelfand_pair=gelfand_value,
        affine_status=affine_status,
        affine_modulus=matched.modulus if matched is not None else None,
        affine_multiplier=matched.multiplier if matched is not None else None,
        decomposition=decomposition,
        tool_version=__version__,
    )
