"""Quandle construction, validation, and the coset construction."""

import functools
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    AffineSpec,
    AxiomViolation,
    CayleyQuandle,
    NotAUnit,
    NotAutomorphism,
    NotCentralized,
    Permutation,
    PermutationGroup,
    AbelianGroup,
    abelian_affine_quandle,
    affine_quandle,
    bundled_order12,
    close_group,
    coset_quandle,
    dihedral_quandle,
    is_connected,
    is_fixed_point_free,
    is_latin,
    left_division,
    quandles_isomorphic,
    right_translation,
    trivial_quandle,
    units,
    validate_quandle,
)
from quandlekit import cayley, perms
from quandlekit.abelian import abelian_types, automorphism_group, automorphism_permutations
from quandlekit.perms import _greedy_generators, _orbit_labels, conjugacy_classes
from conftest import transposition_quandle


def test_singleton_table_is_valid():
    q = validate_quandle([[0]])
    assert q.order == 1
    assert q.op(0, 0) == 0


def test_trivial_quandle_rows_constant():
    q = trivial_quandle(4)
    for x in range(4):
        for y in range(4):
            assert q.op(x, y) == x
    assert not is_latin(q)
    assert not is_connected(q)


def test_idempotence_violation_reports_witness():
    table = [[1, 0], [1, 0]]
    with pytest.raises(AxiomViolation) as exc:
        validate_quandle(table)
    assert exc.value.axiom == 1
    assert exc.value.witness == (0,)
    assert "idempotence" in str(exc.value)


def test_column_bijectivity_violation():
    # column 0 maps both 1 and 2 to the same element
    table = [[0, 0, 0], [1, 1, 1], [1, 2, 2]]
    with pytest.raises(AxiomViolation) as exc:
        validate_quandle(table)
    assert exc.value.axiom == 2
    assert exc.value.witness == (0,)


def test_self_distributivity_violation():
    # idempotent with bijective columns, but the column transpositions
    # (1 2) and (0 2) do not satisfy the conjugation identity
    table = [
        [0, 2, 0],
        [2, 1, 1],
        [1, 0, 2],
    ]
    with pytest.raises(AxiomViolation) as exc:
        validate_quandle(table)
    assert exc.value.axiom == 3
    assert exc.value.witness == (0, 1, 0)


def test_bad_shape_and_range_rejected():
    with pytest.raises(ValueError):
        validate_quandle([])
    with pytest.raises(ValueError):
        validate_quandle([[0, 1], [1]])
    with pytest.raises(ValueError):
        validate_quandle([[0, 2], [1, 1]])


def test_affine_quandle_matches_formula():
    q = affine_quandle(AffineSpec(13, 8))
    for x in range(13):
        for y in range(13):
            assert q.op(x, y) == (8 * x + (1 - 8) * y) % 13


def test_affine_spec_normalizes_multiplier():
    assert AffineSpec(5, 7).multiplier == 2
    assert AffineSpec(5, -1).multiplier == 4


def test_affine_nonunit_multiplier_rejected():
    with pytest.raises(NotAUnit):
        AffineSpec(6, 2)


def test_dihedral_is_affine_with_multiplier_minus_one():
    q = dihedral_quandle(5)
    r = affine_quandle(AffineSpec(5, 4))
    assert q.table == r.table


def test_affine_spec_multiplier_order():
    assert AffineSpec(13, 8).order_of_multiplier == 4
    assert AffineSpec(13, 9).order_of_multiplier == 3
    assert AffineSpec(21, 11).order_of_multiplier == 6


def test_affine_spec_connected_admissible():
    assert AffineSpec(13, 8).is_connected_admissible
    assert AffineSpec(21, 11).is_connected_admissible
    # 1 - 4 = -3 shares a factor with 9
    assert not AffineSpec(9, 4).is_connected_admissible
    assert not AffineSpec(7, 1).is_connected_admissible


def test_connected_iff_gcd_condition():
    for m in range(2, 22):
        for t in units(m):
            spec = AffineSpec(m, t)
            q = affine_quandle(spec)
            assert is_connected(q) == spec.is_connected_admissible, (m, t)


def test_right_translation_example():
    q = affine_quandle(AffineSpec(5, 2))
    r0 = right_translation(q, 0)
    assert r0.cycles() == ((1, 2, 4, 3),)


def test_right_translation_is_column():
    q = affine_quandle(AffineSpec(13, 8))
    for y in range(13):
        perm = right_translation(q, y)
        for x in range(13):
            assert perm(x) == q.op(x, y)


def test_left_division_round_trip():
    q = affine_quandle(AffineSpec(13, 9))
    for x in range(13):
        for y in range(13):
            assert left_division(q, q.op(x, y), y) == x
            assert q.op(left_division(q, x, y), y) == x


def test_left_division_rejects_elements_out_of_range():
    q = affine_quandle(AffineSpec(7, 3))
    for x, y in ((0, 7), (7, 1), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="^element out of range$"):
            left_division(q, x, y)


def test_latin_examples():
    assert is_latin(affine_quandle(AffineSpec(13, 8)))
    assert is_latin(affine_quandle(AffineSpec(5, 4)))
    assert not is_latin(trivial_quandle(3))


def test_fixed_point_free_matches_latin_for_affine():
    latin = affine_quandle(AffineSpec(13, 8))
    assert is_fixed_point_free(right_translation(latin, 0))
    loose = trivial_quandle(3)
    assert not is_fixed_point_free(right_translation(loose, 0))


def test_fixed_point_free_base_point():
    # point 0, the identity an automorphism always fixes, is ignored
    assert is_fixed_point_free(Permutation.from_cycles(4, [(1, 2, 3)]))
    assert not is_fixed_point_free(Permutation.from_cycles(4, [(0, 2, 3)]))


def test_coset_quandle_squaring_on_z5():
    # Z_5 with the doubling automorphism and trivial subgroup reproduces
    # the affine quandle with multiplier 2
    group = close_group([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    auto = {g: g * g for g in group.elements}
    q = coset_quandle(group, [], auto)
    assert q.order == 5
    assert is_connected(q)
    assert quandles_isomorphic(q, affine_quandle(AffineSpec(5, 2))) is not None


def test_coset_quandle_whole_group_is_singleton():
    gens = [Permutation.from_cycles(3, [(0, 1, 2)])]
    group = close_group(gens)
    auto = {g: g for g in group.elements}
    q = coset_quandle(group, gens, auto)
    assert q.order == 1


def test_coset_quandle_inversion_gives_dihedral():
    group = close_group([Permutation.from_cycles(3, [(0, 1, 2)])])
    auto = {g: g.inverse() for g in group.elements}
    q = coset_quandle(group, [], auto)
    assert q.order == 3
    assert quandles_isomorphic(q, dihedral_quandle(3)) is not None


def test_coset_quandle_rejects_non_homomorphism():
    a = Permutation.from_cycles(4, [(0, 1, 2, 3)])
    group = close_group([a])
    bad = {g: g for g in group.elements}
    b = a * a
    bad[a], bad[b] = bad[b], bad[a]
    with pytest.raises(NotAutomorphism):
        coset_quandle(group, [], bad)


def test_coset_quandle_checks_multiplicativity_on_a_group_built_from_its_images():
    """S4 built from its image array alone is checked as the closed S4 is:
    swapping two non-identity elements is no automorphism."""
    s4 = close_group([Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                      Permutation.from_cycles(4, [(0, 1)])])
    built = PermutationGroup(s4.images)
    a, b = s4.elements[1], s4.elements[2]
    swap = {g: g for g in s4.elements}
    swap[a], swap[b] = b, a
    for group in (s4, built):
        with pytest.raises(NotAutomorphism, match="^not multiplicative"):
            coset_quandle(group, [], swap)


@pytest.mark.parametrize("name", ["Z5", "Z6", "S3", "Z2xZ2"])
def test_coset_quandle_raises_exactly_on_non_multiplicative_bijections(name):
    """Every bijection of the group that fixes the identity: coset_quandle
    checks multiplicativity at a generating set only, and must raise
    exactly when the full check over all pairs fails."""
    group = {
        "Z5": lambda: close_group([Permutation.from_cycles(5, [tuple(range(5))])]),
        "Z6": lambda: close_group([Permutation.from_cycles(6, [tuple(range(6))])]),
        "S3": lambda: close_group([Permutation.from_cycles(3, [(0, 1, 2)]),
                                   Permutation.from_cycles(3, [(0, 1)])]),
        "Z2xZ2": lambda: AbelianGroup((2, 2)).translation_group(),
    }[name]()
    elements = group.elements
    automorphisms = 0
    for images in itertools.permutations(elements[1:]):
        auto = dict(zip(elements, (elements[0], *images)))
        if all(auto[a * b] == auto[a] * auto[b] for a in elements for b in elements):
            assert coset_quandle(group, [], auto).order == len(elements)
            automorphisms += 1
        else:
            with pytest.raises(NotAutomorphism, match="^not multiplicative"):
                coset_quandle(group, [], auto)
    assert automorphisms == {"Z5": 4, "Z6": 2, "S3": 6, "Z2xZ2": 6}[name]


def test_coset_quandle_rejects_partial_map():
    a = Permutation.from_cycles(3, [(0, 1, 2)])
    group = close_group([a])
    partial = {a: a}
    with pytest.raises(NotAutomorphism):
        coset_quandle(group, [], partial)


def test_coset_quandle_rejects_uncentralized_subgroup():
    # conjugation by a transposition moves the 3-cycles of S_3
    a = Permutation.from_cycles(3, [(0, 1, 2)])
    b = Permutation.from_cycles(3, [(0, 1)])
    group = close_group([a, b])
    auto = {g: b * g * b for g in group.elements}
    with pytest.raises(NotCentralized):
        coset_quandle(group, [a], auto)


def _dict_coset_quandle(group, subgroup_generators, automorphism):
    """coset_quandle as it was before it located elements by key lookup:
    a set of the elements, a dict from image tuples to cosets and one
    Permutation product per pair of coset representatives."""
    elements = set(group.elements)
    if set(automorphism) != elements:
        raise NotAutomorphism("map must be defined on exactly the group elements")
    if set(automorphism.values()) != elements:
        raise NotAutomorphism("map is not a bijection onto the group")
    for i in _greedy_generators(group, np.arange(len(group)))[0]:
        g = group.elements[i]
        pg = automorphism[g]
        for x in group.elements:
            if automorphism[g * x] != pg * automorphism[x]:
                raise NotAutomorphism(f"not multiplicative at ({g!r}, {x!r})")
    sub_gens = tuple(subgroup_generators)
    for h in sub_gens:
        if h not in group:
            raise ValueError("subgroup generator outside the group")
    members = close_group(sub_gens).elements if sub_gens else (group.identity(),)
    for h in members:
        if automorphism[h] != h:
            raise NotCentralized(f"map moves subgroup element {h!r}")
    coset_index: dict[tuple, int] = {}
    reps: list[Permutation] = []
    for g in group.elements:
        if g.images in coset_index:
            continue
        coset = sorted((h * g for h in members), key=lambda p: p.images)
        reps.append(coset[0])
        for member in coset:
            coset_index[member.images] = len(reps) - 1
    return validate_quandle([
        [coset_index[(automorphism[xa * xb.inverse()] * xb).images] for xb in reps]
        for xa in reps
    ])


def _coset_cases():
    """(group, subgroup generators, map) on S3, S4 and S5: conjugation by
    five elements each, with four subgroups of the centralizer and one
    subgroup it moves; then maps that are no automorphism, a partial map,
    a map onto too few elements, a stray key and a generator outside G."""
    for m in (3, 4, 5):
        group = close_group([Permutation.from_cycles(m, [tuple(range(m))]),
                             Permutation.from_cycles(m, [(0, 1)])])
        elements = group.elements
        for c in elements[:: len(elements) // 5][:5]:
            auto = {g: c * g * c.inverse() for g in elements}
            central = [g for g in elements if g * c == c * g]
            moved = next((g for g in elements if auto[g] != g), c)
            for gens in ([], [c], central[-1:], central[1:3], [moved]):
                yield group, gens, auto
        swap = {g: g for g in elements}
        swap[elements[1]], swap[elements[-1]] = elements[-1], elements[1]
        yield group, [], swap
        yield group, [], {g: g.inverse() for g in elements}
        yield group, [], dict(list(swap.items())[1:])
        yield group, [], {g: elements[0] if g == elements[1] else g for g in elements}
        yield group, [], {**{g: g for g in elements[1:]}, "identity": elements[0]}
        yield group, [Permutation.from_cycles(m + 1, [(0, m)])], {g: g for g in elements}


def _coset_outcome(build, case):
    try:
        return build(*case)._array.tolist()
    except Exception as exc:  # the reference's exceptions are the contract
        return type(exc).__name__, str(exc)


def test_coset_quandle_matches_the_dict_construction():
    outcomes = [(_coset_outcome(coset_quandle, case), _coset_outcome(_dict_coset_quandle, case))
                for case in _coset_cases()]
    assert [got for got, _ in outcomes] == [want for _, want in outcomes]
    kinds = [want[0] if isinstance(want, tuple) else "table" for _, want in outcomes]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == {
        "table": 63, "NotCentralized": 12, "NotAutomorphism": 15, "ValueError": 3}


def test_quandle_is_its_array():
    """A list and an integer array of one table give equal quandles with
    equal hashes; a quandle equals no other kind of object, and its table
    cannot be assigned."""
    rows = [list(row) for row in affine_quandle(AffineSpec(7, 3)).table]
    listed, held = validate_quandle(rows), validate_quandle(np.array(rows, dtype=np.uint8))
    assert listed == held and hash(listed) == hash(held)
    assert listed != validate_quandle(affine_quandle(AffineSpec(7, 5))._array)
    for other in (rows, listed.table, listed._array, "quandle", None):
        assert listed != other and not listed == other
    with pytest.raises(AttributeError):
        listed.table = ((0,),)
    assert listed.table == tuple(map(tuple, rows))


@pytest.mark.parametrize(
    "table, pattern",
    [
        ([[0.0, 0.9], [1.7, 1.2]], r"entry at \(0, 0\) is 0\.0, not an integer"),
        ([[0, 1.0], [1, 1]], r"entry at \(0, 1\) is 1\.0, not an integer"),
        ([[0, 9, 0.5], [1, 1, 1], [2, 2, 2]], r"entry at \(0, 1\) is 9, outside 0\.\.2"),
        ([[0, 0, 0], [1, 1, "1"], [2, 2, 2]], r"entry at \(1, 2\) is '1', not an integer"),
        # the repr of a numpy float differs between numpy 1 and 2
        (np.array([[0.0, 0.0], [1.0, 1.0]]), r"entry at \(0, 0\) is \S*0\.0\)?, not an integer"),
    ],
)
def test_validate_rejects_entries_that_are_not_integers(table, pattern):
    with pytest.raises(ValueError, match=f"^{pattern}$"):
        validate_quandle(table)


def test_validate_rejects_bool_entries_in_either_form():
    """A bool is not a point, whether the table is rows of Python bools or
    a numpy bool array: both forms of one table are refused at (0, 0)."""
    rows = [[False, False], [True, True]]
    with pytest.raises(ValueError, match=r"^entry at \(0, 0\) is False, not an integer$"):
        validate_quandle(rows)
    with pytest.raises(ValueError, match=r"^entry at \(0, 0\) is \S*False\S*, not an integer$"):
        validate_quandle(np.array(rows))
    assert validate_quandle(np.array(rows, dtype=np.uint8)) == trivial_quandle(2)


def test_table_is_stored_as_tuples():
    q = CayleyQuandle([[0, 0], [1, 1]])
    assert isinstance(q.table, tuple)
    assert isinstance(q.table[0], tuple)
    assert q.table == affine_quandle(AffineSpec(2, 1)).table


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=30).flatmap(
        lambda m: st.sampled_from(sorted(units(m))).map(lambda t: (m, t))
    )
)
def test_affine_tables_always_validate(spec_pair):
    m, t = spec_pair
    q = affine_quandle(AffineSpec(m, t))
    validate_quandle(q.table)
    for x in range(m):
        assert q.op(x, x) == x


def test_order12_fixture_is_valid_quandle(order12):
    validate_quandle(order12.table)
    assert order12.order == 12
    assert is_connected(order12)
    assert not is_latin(order12)


def _reference_verdict(table):
    """What validate_quandle must report, by the plain triple loop of the
    definition: ("ValueError", message), (axiom, first witness) or None."""
    rows = [[int(v) for v in row] for row in table]
    n = len(rows)
    if n == 0:
        return ("ValueError", "empty table")
    for x, row in enumerate(rows):
        if len(row) != n:
            return ("ValueError", f"row {x} has length {len(row)}, expected {n}")
        for y, v in enumerate(row):
            if not 0 <= v < n:
                return ("ValueError", f"entry at ({x}, {y}) is {v}, outside 0..{n - 1}")
    for x in range(n):
        if rows[x][x] != x:
            return (1, (x,))
    for y in range(n):
        if len({rows[x][y] for x in range(n)}) != n:
            return (2, (y,))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if rows[rows[x][y]][z] != rows[rows[x][z]][rows[y][z]]:
                    return (3, (x, y, z))
    return None


def _outcome(build, table):
    try:
        q = build(table)
    except (AxiomViolation, ValueError) as exc:
        return type(exc), exc.args
    return q, q._generators


def _verdict(table):
    # building CayleyQuandle directly raises exactly what validate_quandle
    # raises, or gives an equal quandle with the same generating set
    assert _outcome(CayleyQuandle, table) == _outcome(validate_quandle, table)
    try:
        validate_quandle(table)
    except AxiomViolation as exc:
        return (exc.axiom, exc.witness)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return None


def _corrupt(draw, rows, kind):
    n = len(rows)
    point = st.integers(min_value=0, max_value=n - 1)
    y = draw(point)
    a, b = draw(st.lists(point.filter(lambda v: v != y), min_size=2, max_size=2, unique=True))
    if kind == "swap entries":
        # off the diagonal, so column y stays a bijection
        rows[a][y], rows[b][y] = rows[b][y], rows[a][y]
    elif kind == "swap columns":
        for row in rows:
            row[a], row[y] = row[y], row[a]
    elif kind == "diagonal":
        rows[y][y] = a
    elif kind == "duplicate":
        rows[a][y] = rows[b][y]
    return rows


@st.composite
def corrupted_affine_tables(draw):
    m = draw(st.integers(min_value=3, max_value=16))
    t = draw(st.sampled_from(units(m)))
    rows = [list(row) for row in affine_quandle(AffineSpec(m, t)).table]
    kinds = st.sampled_from(["swap entries", "swap columns", "diagonal", "duplicate"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=2)):
        rows = _corrupt(draw, rows, kind)
    return rows


@settings(max_examples=300, deadline=None)
@given(corrupted_affine_tables(), st.sampled_from([1, 40, 300, cayley._GATHER_CHUNK]))
def test_validate_matches_triple_loop_on_corrupted_tables(rows, chunk):
    # small chunks put the first axiom-3 witness past the first x-block
    with mock.patch.object(cayley, "_GATHER_CHUNK", chunk):
        assert _verdict(rows) == _reference_verdict(rows)


@pytest.mark.parametrize(
    "table",
    [
        [],
        [[0, 1], [1]],
        [[0, 1], [1, 0, 0]],
        [[0, 1, 2], [], [0, 1, 2]],
        [[0, 2], [1, 1]],
        [[0, 1], [-1, 1]],
        [[0, 0, 0], [1, 7, 1], [2, 2, -3]],
        [[0, 0, 9], [1, 1]],
        [[0, 0], [1, 10**30]],
    ],
)
def test_validate_shape_and_range_messages_match_triple_loop(table):
    kind, message = _reference_verdict(table)
    assert kind == "ValueError"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        validate_quandle(table)
    assert not isinstance(exc.value, AxiomViolation)


@functools.cache
def _reduced_check_bases():
    """Quandles whose generating set is longer than (0, 1), or that are
    not connected: the bundled table, the trivial quandle (every point), a
    disconnected dihedral quandle and a disconnected quandle over
    Z_2 x Z_2."""
    swap = Permutation((0, 1, 3, 2))
    return {
        "bundled": bundled_order12(),
        "trivial 6": trivial_quandle(6),
        "dihedral 8": dihedral_quandle(8),
        "Z2 x Z2": abelian_affine_quandle(AbelianGroup((2, 2)), swap),
    }


def test_generating_sets_of_the_reduced_check_bases():
    generators = {name: q._generators for name, q in _reduced_check_bases().items()}
    assert generators == {"bundled": (0, 1, 2, 6), "trivial 6": (0, 1, 2, 3, 4, 5),
                          "dihedral 8": (0, 1), "Z2 x Z2": (0, 1, 2)}
    assert not any(is_connected(q) for name, q in _reduced_check_bases().items()
                   if name != "bundled")


@st.composite
def corrupted_reduced_tables(draw):
    name = draw(st.sampled_from(sorted(_reduced_check_bases())))
    rows = [list(row) for row in _reduced_check_bases()[name].table]
    kinds = st.sampled_from(["swap entries", "swap columns", "diagonal", "duplicate"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=2)):
        rows = _corrupt(draw, rows, kind)
    return rows


@settings(max_examples=200, deadline=None)
@given(corrupted_reduced_tables(), st.sampled_from([1, 40, 300, cayley._GATHER_CHUNK]))
def test_validate_matches_triple_loop_on_corrupted_reduced_tables(rows, chunk):
    with mock.patch.object(cayley, "_GATHER_CHUNK", chunk):
        assert _verdict(rows) == _reference_verdict(rows)


@pytest.mark.parametrize("base", ["affine 7 3", "bundled"])
def test_validate_matches_triple_loop_on_every_swap_within_a_column(base, order12):
    table = affine_quandle(AffineSpec(7, 3)).table if base == "affine 7 3" else order12.table
    n = len(table)
    for y in range(n):
        for a, b in itertools.combinations([x for x in range(n) if x != y], 2):
            rows = [list(row) for row in table]
            rows[a][y], rows[b][y] = rows[b][y], rows[a][y]
            assert _verdict(rows) == _reference_verdict(rows), (y, a, b)


def test_validate_accepts_an_integer_array(order12):
    for quandle in (order12, affine_quandle(AffineSpec(13, 8)), trivial_quandle(3)):
        rows = [list(row) for row in quandle.table]
        for dtype in (np.int64, np.uint8):
            array = np.array(rows, dtype=dtype)
            q = validate_quandle(array)
            assert q == validate_quandle(rows) == quandle
            assert q._generators == quandle._generators
            assert isinstance(q.table, tuple)
            assert all(isinstance(row, tuple) for row in q.table)
            assert {type(v) for row in q.table for v in row} == {int}
            assert array.flags.writeable and not q._array.flags.writeable


@pytest.mark.parametrize(
    "table",
    [
        np.zeros((0, 0), dtype=np.int64),
        [[0, 1, 2], [1, 0, 2]],
        [[0, 1], [1, 0], [0, 1]],
        [[0, 2], [1, 1]],
        [[0, 1], [-1, 1]],
        [[0, 0, 0], [1, 7, 1], [2, 2, -3]],
    ],
)
def test_validate_array_shape_and_range_messages_match_triple_loop(table):
    kind, message = _reference_verdict(np.asarray(table).tolist())
    assert kind == "ValueError"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
        validate_quandle(np.array(table, dtype=np.int64))
    assert not isinstance(exc.value, AxiomViolation)


def _magma_closure(T, inside):
    """Grow the mask ``inside`` to the subquandle it generates, by closing
    it under the operation; returns the mask."""
    size = 0
    while size < np.count_nonzero(inside):
        members = np.flatnonzero(inside)
        size = members.size
        inside[T[members][:, members]] = True
    return inside


def _closure_prefix(T):
    """A frozen copy of the doubled generating prefix before the orbit
    criterion: the least k in 1, 2, 4, ... (capped at n) such that 0..k-1
    generate, by one magma closure grown as k doubles."""
    inside = np.zeros(len(T), dtype=bool)
    k = 0
    while not inside.all():
        k = min(len(T), 2 * k or 1)
        inside[:k] = True
        _magma_closure(T, inside)
    return k


def _labelled_connectivity(q, points):
    """A frozen copy of is_connected before validation decided it: every
    point's orbit under the translations by ``points`` has least point 0."""
    return not _orbit_labels(q._array.T[list(points)]).any()


def _prefix_inputs():
    """Every Aff(Z_m, t) with m <= 47, the bundled table, trivial (n <= 8)
    and dihedral (n <= 15) quandles, x > y = f(x) + y - f(y) over every
    abelian type of order <= 16 (every f, or one per class of Aut(A) when
    |Aut(A)| > 200) and the transposition classes of S_3..S_9."""
    for m in range(1, 48):
        for t in units(m):
            yield f"affine {m} {t}", affine_quandle(AffineSpec(m, t))
    yield "bundled", bundled_order12()
    for n in range(1, 9):
        yield f"trivial {n}", trivial_quandle(n)
    for n in range(1, 16):
        yield f"dihedral {n}", dihedral_quandle(n)
    for order in range(1, 17):
        for moduli in abelian_types(order):
            group = AbelianGroup(moduli)
            maps = automorphism_permutations(group)
            if len(maps) > 200:
                maps = conjugacy_classes(automorphism_group(group)).representatives
            for i, f in enumerate(maps):
                yield f"abelian {moduli} {i}", abelian_affine_quandle(group, f)
    for degree in range(3, 10):
        yield f"transpositions {degree}", transposition_quandle(degree)


def test_generating_set_and_connectivity_match_the_closure_and_the_labelling():
    """The generating set generates (a magma closure seeded with it), is
    no longer than the doubled prefix 0..k-1 it replaced, and its
    translations decide connectivity as those of the prefix did."""
    seen = {}
    for name, q in _prefix_inputs():
        S = q._generators
        assert S == tuple(sorted(set(S))) and S[:2] == tuple(range(min(q.order, 2))), name
        seed = np.zeros(q.order, dtype=bool)
        seed[list(S)] = True
        assert _magma_closure(q._array, seed).all(), name
        k = _closure_prefix(q._array)
        assert len(S) <= k, name
        assert is_connected(q) == _labelled_connectivity(q, S) == _labelled_connectivity(
            q, range(k)), name
        kind = name.split()[0]
        seen[kind, is_connected(q)] = seen.get((kind, is_connected(q)), 0) + 1
    assert sum(seen.values()) == 1367
    assert (seen["affine", True], seen["affine", False]) == (378, 318)
    assert (seen["abelian", True], seen["abelian", False]) == (152, 488)
    assert seen["dihedral", False] == seen["trivial", False] == seen["transpositions", True] == 7


def test_is_connected_reads_what_validation_labelled(monkeypatch, order12):
    """Validation labels the orbits of the translations by S once per
    growth of S, from S = (0, 1); is_connected then runs no labelling."""
    calls = []
    labels = perms._orbit_labels

    def counted(maps):
        calls.append(len(maps))
        return labels(maps)

    monkeypatch.setattr(cayley, "_orbit_labels", counted)
    monkeypatch.setattr(perms, "_orbit_labels", counted)
    quandles = [affine_quandle(AffineSpec(13, 8)), affine_quandle(AffineSpec(9, 4)),
                validate_quandle(order12.table), trivial_quandle(6), validate_quandle([[0]])]
    assert calls == [2, 2, 3, 2, 4, 2, 4, 6, 1]
    calls.clear()
    assert [is_connected(q) for q in quandles] == [True, False, True, False, True]
    assert calls == []
