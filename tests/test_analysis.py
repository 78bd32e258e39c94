"""The analysis pipeline, isomorphism search, and affine recognition."""

import dataclasses
import itertools
import json
import random
import time
from unittest import mock

import pytest

from quandlekit import (
    AbelianGroup,
    AffineSpec,
    Permutation,
    abelian_affine_quandle,
    abelian_types,
    affine_quandle,
    analyze,
    automorphism_permutations,
    bundled_order12,
    dihedral_quandle,
    inner_group,
    quandles_isomorphic,
    recognize_affine,
    trivial_quandle,
    units,
    validate_quandle,
)
from quandlekit import analysis, cayley, cli
from quandlekit.analysis import RECOGNITION_CAP
from conftest import MIXED_ORDER4, transposition_quandle


def _relabel(q, sigma):
    """Transport the table along a permutation of labels."""
    n = q.order
    inverse = [0] * n
    for x, y in enumerate(sigma):
        inverse[y] = x
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[q.op(x, y)]
    return validate_quandle(table)


def _shuffled(q, rng):
    """q relabelled by a permutation drawn from rng."""
    sigma = list(range(q.order))
    rng.shuffle(sigma)
    return _relabel(q, sigma)


def test_isomorphism_finds_identity():
    q = affine_quandle(AffineSpec(13, 8))
    sigma = quandles_isomorphic(q, q)
    assert sigma is not None


def test_isomorphism_transport_round_trip():
    q = affine_quandle(AffineSpec(7, 3))
    relabeled = _relabel(q, (3, 5, 0, 6, 1, 4, 2))
    sigma = quandles_isomorphic(q, relabeled)
    assert sigma is not None
    for x in range(7):
        for y in range(7):
            assert sigma[q.op(x, y)] == relabeled.op(sigma[x], sigma[y])


def test_multiplier_is_an_isomorphism_invariant():
    # even the inverse multiplier gives a non-isomorphic quandle
    a = affine_quandle(AffineSpec(5, 2))
    b = affine_quandle(AffineSpec(5, 3))
    c = affine_quandle(AffineSpec(5, 4))
    assert quandles_isomorphic(a, b) is None
    assert quandles_isomorphic(a, c) is None
    assert quandles_isomorphic(a, _relabel(a, (4, 2, 0, 1, 3))) is not None


def test_non_isomorphic_same_order():
    assert quandles_isomorphic(trivial_quandle(3), dihedral_quandle(3)) is None


def test_order_mismatch():
    assert quandles_isomorphic(trivial_quandle(2), trivial_quandle(3)) is None


def test_recognize_affine_examples():
    assert recognize_affine(dihedral_quandle(3)) == AffineSpec(3, 2)
    assert recognize_affine(trivial_quandle(4)) == AffineSpec(4, 1)
    q = _relabel(affine_quandle(AffineSpec(7, 5)), (6, 0, 2, 5, 1, 3, 4))
    assert recognize_affine(q) == AffineSpec(7, 5)


def test_recognize_affine_respects_cap(order12):
    assert recognize_affine(order12) is None
    q = affine_quandle(AffineSpec(17, 2))
    assert recognize_affine(q) is None  # above the cap


def _per_unit_search(quandle, cap=RECOGNITION_CAP):
    """recognize_affine as it was before the signature filter and the
    pinned point: a free isomorphism search against Aff(Z_m, t) for every
    unit t in turn, the first match winning."""
    m = quandle.order
    if m > cap:
        return None
    for t in units(m):
        spec = AffineSpec(m, t)
        if quandles_isomorphic(quandle, affine_quandle(spec)) is not None:
            return spec
    return None


def _recognition_inputs():
    """Every Aff(A, f) of order at most 13, over every abelian type and
    every automorphism, as built and relabelled; the trivial and dihedral
    quandles of orders 1 to 13; the bundled table; the transposition
    classes of S4 and S5."""
    rng = random.Random(0)
    for order in range(1, RECOGNITION_CAP + 1):
        for moduli in abelian_types(order):
            group = AbelianGroup(moduli)
            for f in automorphism_permutations(group):
                q = abelian_affine_quandle(group, f)
                yield q
                yield _shuffled(q, rng)
        yield trivial_quandle(order)
        yield dihedral_quandle(order)
    yield bundled_order12()
    yield transposition_quandle(4)
    yield transposition_quandle(5)


def test_recognize_affine_matches_the_per_unit_search():
    outcomes = [(recognize_affine(q), _per_unit_search(q)) for q in _recognition_inputs()]
    assert len(outcomes) == 629
    assert [got for got, _ in outcomes] == [want for _, want in outcomes]
    matched = sum(got is not None for got, _ in outcomes)
    assert 0 < matched < len(outcomes)
    # the dihedral quandle of order 8 is Aff(Z_8, t) for t = 3 and t = 7;
    # the first unit wins
    assert _per_unit_search(dihedral_quandle(8)) == AffineSpec(8, 3)
    assert recognize_affine(dihedral_quandle(8)) == AffineSpec(8, 3)


def test_recognize_affine_searches_only_multipliers_of_the_input_signature(
        order12, monkeypatch):
    """Each isomorphism search recognize_affine starts is recorded as
    (multiplier, forced pairs); the target's entry 1 > 0 is its multiplier."""
    calls = []
    search = analysis._isomorphism

    def counted(first, second, sig_first, sig_second, forced):
        calls.append((second[1][0], tuple(forced)))
        return search(first, second, sig_first, sig_second, forced)

    monkeypatch.setattr(analysis, "_isomorphism", counted)
    q = _shuffled(affine_quandle(AffineSpec(13, 11)), random.Random(1))
    assert recognize_affine(q) == AffineSpec(13, 11)
    # units of order 12 mod 13, the only ones with the cycle type (1, 12)
    assert 1 <= len(calls) <= 4
    assert {t for t, _ in calls} <= {2, 6, 7, 11}
    assert calls[-1][0] == 11
    assert all(forced == ((0, 0),) for _, forced in calls)

    calls.clear()
    assert recognize_affine(order12) is None
    assert calls == [(11, ((0, 0),))]

    calls.clear()
    assert recognize_affine(validate_quandle(MIXED_ORDER4)) is None
    assert calls == []


def test_recognize_affine_validates_no_candidate_table(monkeypatch):
    """Candidates are closed-form rows: recognising a relabelled (13, 11)
    table builds no quandle, where one per searched multiplier was built
    and validated before."""
    q = _shuffled(affine_quandle(AffineSpec(13, 11)), random.Random(1))
    calls = []
    checked = cayley._checked

    def counted(table):
        calls.append(len(table))
        return checked(table)

    monkeypatch.setattr(cayley, "_checked", counted)
    assert recognize_affine(q) == AffineSpec(13, 11)
    assert calls == []


def test_analyze_prime_affine_report():
    spec = AffineSpec(13, 8)
    report = analyze(affine_quandle(spec), spec=spec, source="affine(13,8)")
    assert report.order == 13
    assert report.connected and report.latin
    assert report.inner_order == 52
    assert report.stabilizer_order == 4
    assert report.rank == 4
    assert report.translation_cycle_type == (1, 4, 4, 4)
    assert report.translation_cycles_uniform
    assert report.tensor_class_count == 4
    assert report.tau_class_count == 4
    assert report.multiplicity_free is True
    assert report.commutation_witness is None
    assert report.gelfand_pair is True
    assert report.affine_status == "given"
    assert report.affine_modulus == 13
    assert report.decomposition == {"ind:1": 1, "ind:2": 1, "ind:4": 1, "triv": 1}


def test_analyze_recognizes_small_affine():
    report = analyze(dihedral_quandle(3))
    assert report.affine_status == "match"
    assert report.affine_modulus == 3
    assert report.affine_multiplier == 2
    assert report.decomposition == {"ind:1": 1, "triv": 1}


def test_analyze_order12(order12):
    report = analyze(order12, source="bundled")
    assert report.order == 12
    assert report.connected
    assert not report.latin
    assert report.inner_order == 24
    assert report.stabilizer_order == 2
    assert report.rank == 7
    assert report.tensor_class_count == 7
    assert report.tau_class_count == 6
    # every translation is a product of five 2-cycles with two fixed points
    assert report.translation_cycle_type == (1, 1, 2, 2, 2, 2, 2)
    assert report.translation_cycles_uniform
    assert report.multiplicity_free is False
    assert report.commutation_witness is not None
    assert report.gelfand_pair is False
    assert report.affine_status == "match" or report.affine_status == "none"
    assert report.affine_status == "none"
    assert report.decomposition is None


def test_analyze_disconnected_skips_module_questions():
    report = analyze(trivial_quandle(3))
    assert report.connected is False
    assert report.multiplicity_free is None
    assert report.gelfand_pair is None
    assert report.inner_order == 1
    assert report.rank == 9
    assert report.affine_status == "match"
    assert report.affine_multiplier == 1
    assert report.decomposition is None


def test_analyze_refuses_a_spec_that_does_not_describe_the_quandle():
    """A spec is trusted only when its quandle is the one analysed or equals
    it; a relabelled table of the same spec is analysed without one."""
    spec = AffineSpec(5, 2)
    with pytest.raises(ValueError, match=r"^AffineSpec\(modulus=5, multiplier=2\) does not"):
        analyze(trivial_quandle(5), spec=spec)
    sigma = (0, 1, 3, 2, 4)  # fixes 0 and 1 but is not the identity: not affine
    table = affine_quandle(spec).table
    relabelled = [[0] * 5 for _ in range(5)]
    for x, y in itertools.product(range(5), repeat=2):
        relabelled[sigma[x]][sigma[y]] = sigma[table[x][y]]
    with pytest.raises(ValueError, match="does not describe the quandle"):
        analyze(validate_quandle(relabelled), spec=spec)
    assert analyze(validate_quandle(relabelled)).affine_status == "match"
    copy = validate_quandle(affine_quandle(spec).table)
    assert analyze(copy, spec=spec).to_dict() == analyze(affine_quandle(spec), spec=spec).to_dict()


def test_analyze_composite_affine():
    spec = AffineSpec(21, 11)
    report = analyze(affine_quandle(spec), spec=spec)
    assert report.inner_order == 126
    assert report.translation_cycle_type == (1, 2, 3, 3, 6, 6)
    assert not report.translation_cycles_uniform
    assert report.multiplicity_free is True
    assert report.gelfand_pair is True
    assert report.decomposition is None  # composite modulus


def test_analyze_above_cap_reports_not_checked():
    q = affine_quandle(AffineSpec(17, 2))
    report = analyze(q)
    assert report.affine_status == "not-checked"
    assert report.affine_modulus is None


def test_report_dict_is_json_stable():
    spec = AffineSpec(13, 9)
    report = analyze(affine_quandle(spec), spec=spec)
    first = json.dumps(report.to_dict(), sort_keys=True)
    report_again = analyze(affine_quandle(spec), spec=spec)
    second = json.dumps(report_again.to_dict(), sort_keys=True)
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == 1
    assert payload["tensor_representatives"] == [[0, 0], [0, 1], [0, 2], [0, 4], [0, 7]]


def test_analyze_transposition_class_of_s8():
    """Order 28, with Inn = S8 of order 40320 and a stabilizer of order
    1440: analyze finishes in under a second, where a two-sided pass over
    the double cosets formed 2 |K| |G|, about 1.2e8, products."""
    quandle = transposition_quandle(8)
    start = time.perf_counter()
    report = analyze(quandle)
    elapsed = time.perf_counter() - start
    assert (report.inner_order, report.stabilizer_order, report.rank) == (40320, 1440, 3)
    assert report.multiplicity_free is True
    assert report.gelfand_pair is True
    assert elapsed < 1.0, elapsed
    combinatorics = pytest.importorskip("sympy.combinatorics")
    inner = combinatorics.PermutationGroup([
        combinatorics.Permutation([quandle.op(x, y) for x in range(quandle.order)])
        for y in range(quandle.order)
    ])
    point_stabilizer = inner.stabilizer(0)
    assert (inner.order(), point_stabilizer.order(), len(point_stabilizer.orbits())) == (
        40320, 1440, 3)


def test_report_and_scan_never_build_the_tuple_view(capsys):
    """A quandle's rows as tuples are built only when ``table`` is read; the
    report on a spec and the census read the array alone."""
    reads = []
    view = property(lambda q: reads.append(q.order) or q._array.tolist())
    spec = AffineSpec(31, 2)
    q = affine_quandle(spec)
    with mock.patch.object(cayley.CayleyQuandle, "table", view):
        analyze(q, spec=spec)
        assert cli.main(["scan", "--max-order", "13"]) == 0
    assert reads == []
    assert "_table" not in vars(q)
    assert q.table is q.table and "_table" in vars(q)


def test_decomposition_keeps_the_order_of_the_irreducibles(capsys):
    """triv, then lin:k and ind:k by ascending k, as decompose_prime_affine
    lists them; the text is written in that order, not sorted again."""
    spec = AffineSpec(31, 2)
    report = analyze(affine_quandle(spec), spec=spec)
    assert list(report.decomposition) == ["triv", "ind:1", "ind:3", "ind:5", "ind:7", "ind:11",
                                          "ind:15"]
    assert cli.main(["analyze", "--affine", "31", "2"]) == 0
    assert "decomposition:       triv + ind:1 + ind:3 + ind:5 + ind:7 + ind:11 + ind:15\n" in (
        capsys.readouterr().out)


def test_analyze_the_tensor_product_of_two_prime_order_quandles(monkeypatch):
    """X x Y for X = Aff(Z_23, 5) and Y = Aff(Z_23, 2) is Aff(Z_23^2, diag(5, 2)):
    connected, so multiplicity free, with Inn = Z_23^2 x| <diag(5, 2)> and
    rank 1 + 22/n_s + 22/n_t + 22^2/lcm(n_s, n_t), n_s and n_t the orders
    of 5 and 2.  The product carries (Z_23^2, diag(5, 2)), so Inn is listed
    once as that semidirect product and closed from nothing; three points
    generate it, and a bare copy of its table is closed from their three
    translations."""
    from math import lcm

    from quandlekit import Permutation, inner
    from quandlekit.modular import multiplicative_order

    p, s, t = 23, 5, 2
    diagonal = Permutation(tuple((s * a % p) * p + t * b % p for a in range(p) for b in range(p)))
    product = abelian_affine_quandle(AbelianGroup((p, p)), diagonal)
    assert len(product._generators) == 3
    received, listed = [], []
    close_group, semidirect_rows = inner.close_group, inner._semidirect_rows

    def counted(generators):
        generators = tuple(generators)
        received.append(len(generators))
        return close_group(generators)

    def listing(add, f):
        listed.append(len(f))
        return semidirect_rows(add, f)

    monkeypatch.setattr(inner, "close_group", counted)
    monkeypatch.setattr(inner, "_semidirect_rows", listing)
    report = analyze(product)
    assert (received, listed) == ([], [p * p])
    bare = validate_quandle(product._array)
    assert inner_group(bare) == inner_group(product)
    assert (received, listed) == ([3], [p * p])
    n_s, n_t = multiplicative_order(s, p), multiplicative_order(t, p)
    assert (n_s, n_t) == (22, 11)
    rank = 1 + (p - 1) // n_s + (p - 1) // n_t + (p - 1) ** 2 // lcm(n_s, n_t)
    assert rank == 26
    assert (report.order, report.connected) == (p * p, True)
    assert (report.inner_order, report.stabilizer_order) == (p * p * 22, 22)
    assert report.rank == report.tensor_class_count == rank
    assert report.multiplicity_free is True and report.gelfand_pair is True


def test_analyze_order_961_product():
    """Aff(Z_31^2, diag(3, 2)): Inn = Z_31^2 x| <f> of order 961 * 30, with
    38 orbits of <f> on Z_31^2; the Gelfand test counts one element per
    coset of the stabilizer."""
    p = 31
    f = Permutation(tuple(3 * a % p * p + 2 * b % p for a in range(p) for b in range(p)))
    report = analyze(abelian_affine_quandle(AbelianGroup((p, p)), f))
    assert (report.order, report.inner_order, report.stabilizer_order) == (961, 28830, 30)
    assert report.rank == report.tensor_class_count == 38
    assert report.connected and report.multiplicity_free is True
    assert report.gelfand_pair is True


def test_report_dict_equals_its_json_round_trip(order12):
    """to_dict converts the fields directly; it gives what a JSON round
    trip of dataclasses.asdict gave, for a spec, a relabelled bare table
    (recognised, with a decomposition), the bundled table (with a witness)
    and a disconnected quandle."""
    spec = AffineSpec(13, 9)
    reports = [
        analyze(affine_quandle(spec), spec=spec, source="affine(13,9)"),
        analyze(_shuffled(affine_quandle(AffineSpec(11, 2)), random.Random(3))),
        analyze(order12, source="bundled"),
        analyze(trivial_quandle(3)),
    ]
    assert reports[1].decomposition and reports[2].commutation_witness
    assert reports[3].gelfand_pair is None
    for report in reports:
        expected = {"schema": 1, **json.loads(json.dumps(dataclasses.asdict(report)))}
        assert report.to_dict() == expected
        assert json.dumps(report.to_dict()) == json.dumps(expected)
