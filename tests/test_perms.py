import itertools
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit.abelian import (
    AbelianGroup,
    abelian_affine_quandle,
    abelian_types,
    affine_extension,
    automorphism_group,
    automorphism_permutations,
)
from quandlekit.cayley import (
    AffineSpec,
    affine_quandle,
    right_translation,
    trivial_quandle,
)
from quandlekit.gelfand import double_cosets
from quandlekit.inner import inner_generators, inner_group
from quandlekit.modular import is_prime, units
from quandlekit import perms
from quandlekit.perms import (
    ConjugacyClassSet,
    GroupTooLarge,
    Partition,
    Permutation,
    PermutationGroup,
    cayley_index_table,
    close_group,
    conjugacy_classes,
    cycle_structure,
    element_order,
    element_order_profile,
    fixed_points,
    orbits,
    stabilizer,
)
from quandlekit.tables import bundled_order12
from quandlekit.tensor import tensor_square
from quandlekit.perms import (
    _GATHER_CHUNK,
    _element_keys,
    _ElementKeys,
    _greedy_generators,
    _inverse,
    _locate,
    _orbit_labels,
    _product,
)
from conftest import connected_affine_specs, differential_pairs, transposition_quandle


def _indexing_cases():
    """(name, group, base length, generators) for each shape of the prefix
    base; the keys of (Z_2)^9 on 18 points would overflow int64 and are
    compressed."""
    affine = affine_quandle(AffineSpec(13, 8))
    cases = [
        ("trivial", [Permutation.identity(4)], 0),
        ("cyclic", [Permutation.from_cycles(7, [tuple(range(7))])], 1),
        ("affine", inner_generators(affine), 2),
        ("S4", [Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))], 3),
        ("(Z2)^9", [Permutation.from_cycles(18, [(2 * i, 2 * i + 1)]) for i in range(9)], 17),
    ]
    return [
        (name, inner_group(affine) if name == "affine" else close_group(gens), base, gens)
        for name, gens, base in cases
    ]


def _reference_classes(group, generators):
    """Conjugacy classes by plain Permutation products: each class is the
    closure of one element under conjugation by the generators."""
    gens = [(g, g.inverse()) for g in generators]
    seen = set()
    classes = []
    for x in group.elements:
        if x in seen:
            continue
        members = {x}
        frontier = [x]
        while frontier:
            fresh = []
            for y in frontier:
                for g, g_inv in gens:
                    z = g * y * g_inv
                    if z not in members:
                        members.add(z)
                        fresh.append(z)
            frontier = fresh
        seen |= members
        classes.append(tuple(sorted(members, key=lambda p: p.images)))
    return tuple(classes)


perm_strategy = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda xs: Permutation(tuple(xs)))
)


def test_composition_applies_right_factor_first():
    a = Permutation((1, 2, 0))
    b = Permutation((0, 2, 1))
    prod = a * b
    for x in range(3):
        assert prod(x) == a(b(x))


def test_from_cycles_and_back():
    p = Permutation.from_cycles(5, [(0, 1), (2, 3, 4)])
    assert p.images == (1, 0, 3, 4, 2)
    assert p.cycles() == ((0, 1), (2, 3, 4))


def test_from_cycles_rejects_points_outside_the_degree():
    for cycle, point in (((0, 5), 5), ((0, -1), -1), ((3, 0, 1), 3)):
        with pytest.raises(ValueError, match=f"^point {point} outside 0..2$"):
            Permutation.from_cycles(3, [cycle])


def test_from_cycles_rejects_a_point_repeated_in_one_cycle_or_across_two():
    for cycles, point in (([(0, 0)], 0), ([(0, 1, 0)], 0), ([(0, 1), (2, 1)], 1)):
        with pytest.raises(ValueError,
                           match=f"^point {point} appears more than once in the cycles$"):
            Permutation.from_cycles(3, cycles)


def test_groups_of_degree_zero_are_rejected():
    message = r"^a permutation group needs degree >= 1$"
    with pytest.raises(ValueError, match=message):
        close_group([Permutation.identity(0)])
    with pytest.raises(ValueError, match=message):
        PermutationGroup(np.zeros((1, 0), int))
    with pytest.raises(ValueError, match=message):
        PermutationGroup.from_elements([Permutation.identity(0)])
    assert len(close_group([Permutation.identity(1)])) == 1


def test_permutation_rejects_images_that_are_not_integers():
    for images in ([0.5, 1.2], [0.0, 1.0], np.array([1.0, 0.0]), ["1", "0"]):
        with pytest.raises(ValueError, match="^images must list each of 0..n-1 exactly once$"):
            Permutation(images)
    assert Permutation(np.array([1, 0], dtype=np.uint8)).images == (1, 0)
    assert {type(x) for x in Permutation(np.array([2, 0, 1])).images} == {int}


def test_from_cycles_rejects_points_that_are_not_integers():
    for point in (0.5, 1.0, "1", None):
        with pytest.raises(ValueError, match=f"^point {re.escape(str(point))} outside 0..2$"):
            Permutation.from_cycles(3, [(point, 1)])


def test_a_bool_is_not_a_point():
    for images in ([True, False], [np.True_, np.False_], [0, True, 2]):
        with pytest.raises(ValueError, match="^images must list each of 0..n-1 exactly once$"):
            Permutation(images)
    for point in (True, np.True_):
        with pytest.raises(ValueError, match="^point True outside 0..2$"):
            Permutation.from_cycles(3, [(point, 2)])
    with pytest.raises(ValueError, match=r"^image rows must hold integers in 0\.\.1$"):
        PermutationGroup([[False, True], [True, False]])


def test_permutation_group_rejects_rows_that_are_not_points():
    """Rows are checked to hold integers in 0..degree-1 before the cast to
    the narrow dtype, which would wrap 257 to 1 or truncate 1.5 to 1."""
    for rows in ([[0, 1], [257, 256]], [[0, 1], [-1, 0]], [[0, 1], [1, 2]],
                 np.array([[0.0, 1.0], [1.0, 0.0]]), [[0, 1], [1.5, 0]], [["0", "1"]]):
        with pytest.raises(ValueError, match=r"^image rows must hold integers in 0\.\.1$"):
            PermutationGroup(rows)
    swap = PermutationGroup(np.array([[1, 0], [0, 1]], dtype=np.int64))
    assert swap.images.dtype == np.uint8 and swap.images.tolist() == [[0, 1], [1, 0]]


def _rows_agreeing_on_long_prefixes(degree, tail, seed):
    """Image rows of Sym on the last ``tail`` points of ``degree`` composed
    with one of three fixed permutations of the first points, shuffled:
    rows agree on degree - tail columns or differ early."""
    rng = random.Random(seed)
    head = degree - tail
    prefixes = [list(range(head))] + [rng.sample(range(head), head) for _ in range(2)]
    rows = [prefix + [head + i for i in moved]
            for prefix in prefixes for moved in itertools.permutations(range(tail))]
    rng.shuffle(rows)
    return np.array(rows)


@pytest.mark.parametrize("degree, tail", [(12, 3), (40, 4), (300, 3)])
def test_prefix_sort_orders_rows_as_the_full_lexsort(degree, tail):
    """Rows that agree on every column but the last few still sort exactly
    as np.lexsort over all columns; the prefix doubles past the first
    int64 key's width until the tail is reached."""
    rows = _rows_agreeing_on_long_prefixes(degree, tail, seed=degree)
    want = rows[np.lexsort(rows.T[::-1])]
    order, distinct = perms._lexsort_order(degree, lambda width: rows[:, :width])
    assert distinct and np.array_equal(rows[order], want)
    images = PermutationGroup(rows).images
    assert images.dtype == perms._dtype_for(degree) and np.array_equal(images, want)
    doubled = np.vstack([rows, rows[:1]])
    assert perms._lexsort_order(degree, lambda width: doubled[:, :width])[1] is False
    with pytest.raises(ValueError, match="^duplicate elements$"):
        PermutationGroup(doubled)


def test_power_and_inverse():
    p = Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    assert p ** 6 == Permutation.identity(6)
    assert p ** -1 == p.inverse()
    assert p ** 0 == Permutation.identity(6)
    assert (p ** 4) * (p ** -4) == Permutation.identity(6)


@given(perm_strategy, perm_strategy)
def test_inverse_of_product(a, b):
    if a.degree != b.degree:
        return
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert a * a.inverse() == Permutation.identity(a.degree)


@given(perm_strategy)
def test_singleton_closure_order_is_element_order(p):
    group = close_group([p])
    assert len(group.elements) == element_order(p)


def test_cycle_structure_examples():
    r0 = right_translation(affine_quandle(AffineSpec(13, 8)), 0)
    assert cycle_structure(r0) == (1, 4, 4, 4)
    r0 = right_translation(affine_quandle(AffineSpec(21, 11)), 0)
    assert cycle_structure(r0) == (1, 2, 3, 3, 6, 6)
    assert cycle_structure(Permutation.identity(5)) == (1, 1, 1, 1, 1)


def test_fixed_points_counting():
    assert fixed_points(Permutation.identity(7)) == 7
    assert fixed_points(Permutation((1, 0, 2, 3))) == 2


def test_close_group_basics():
    only = close_group([Permutation.identity(4)])
    assert len(only.elements) == 1

    s3 = close_group(
        [Permutation((1, 0, 2)), Permutation((0, 2, 1))]
    )
    assert len(s3.elements) == 6
    assert element_order_profile(s3) == {1: 1, 2: 3, 3: 2}


def test_close_group_cap():
    cycle = Permutation.from_cycles(9, [tuple(range(9))])
    swap = Permutation.from_cycles(9, [(0, 1)])
    message = r"^closure reached (\d+) elements, past the cap of 1000$"
    for gens in ([cycle, swap], [Permutation.identity(9), cycle, cycle, swap]):
        with pytest.raises(GroupTooLarge, match=message) as exc:
            with mock.patch.object(perms, "CLOSURE_CAP", 1000):
                close_group(gens)
        assert 1000 < int(re.match(message, str(exc.value)).group(1)) <= 362880


def test_close_group_cap_is_checked_per_block():
    """The transpositions of S_9 under conjugation form a quandle of order
    36 whose inner group is S_9; the closure stops within one block of
    products past the cap, at most _GATHER_CHUNK image entries, not at the
    end of a breadth-first layer."""
    quandle = transposition_quandle(9)
    message = r"^closure reached (\d+) elements, past the cap of 20000$"
    with pytest.raises(GroupTooLarge, match=message) as exc:
        with mock.patch.object(perms, "CLOSURE_CAP", 20_000):
            close_group(inner_generators(quandle))
    reached = int(re.match(message, str(exc.value)).group(1))
    assert reached <= 20_000 + _GATHER_CHUNK // quandle.order


def _reference_closure(gens):
    """Every product of the generators, by plain breadth-first search from
    the identity under left multiplication by all of them, sorted by
    image tuple."""
    identity = Permutation.identity(gens[0].degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = g * x
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return sorted(p.images for p in seen)


def _padded_generator_lists():
    """Generator lists with the identity, duplicates, redundant members and
    members listed after the group is already complete."""
    a = Permutation((1, 0, 2, 3))
    b = Permutation((1, 2, 3, 0))
    ident = Permutation.identity(4)
    translations = list(inner_generators(affine_quandle(AffineSpec(13, 8))))
    return [
        [ident],
        [ident, ident],
        [ident, a],
        [a, a, a],
        [a, ident, b, a, b * a, b],
        [b * b, b, a, a * b],
        [a, b, a * b, b * a, b * b * b],
        translations,
        translations[::-1],
        [translations[5]] * 3 + translations,
        [Permutation.identity(13)] + translations[:2] + [Permutation.identity(13)],
    ]


@pytest.mark.parametrize("gens", _padded_generator_lists())
def test_close_group_matches_plain_closure(gens):
    group = close_group(gens)
    assert [p.images for p in group.elements] == _reference_closure(gens)
    assert group.images.tolist() == [list(p.images) for p in group.elements]


def _dimino_close_group(generators, *, cap):
    """A frozen copy of close_group before it closed in one pass: a
    generator already in the closure built so far is skipped, and each kept
    one re-seeds the closure from every element seen so far under all kept
    generators (Dimino's pruning)."""
    gens = tuple(generators)
    degree = gens[0].degree
    dt = perms._dtype_for(degree)
    width = degree * np.dtype(dt).itemsize
    seen = {np.arange(degree, dtype=dt).tobytes()}
    kept = []
    for g in gens:
        key = np.array(g.images, dtype=dt).tobytes()
        if key in seen:
            continue
        kept.append(g.images)
        gen_arr = np.array(kept, dtype=dt)
        block = max(1, (1 << 14) // len(kept))
        queue = sorted(seen)
        while queue:
            F = np.frombuffer(b"".join(queue[:block]), dtype=dt).reshape(-1, degree)
            del queue[:block]
            products = gen_arr[:, F].tobytes()
            rows = dict.fromkeys(
                products[i : i + width] for i in range(0, len(products), width)
            )
            fresh = [row for row in rows if row not in seen]
            seen.update(fresh)
            queue += fresh
            if len(seen) > cap:
                raise GroupTooLarge(
                    f"closure reached {len(seen)} elements, past the cap of {cap}"
                )
    E = np.frombuffer(b"".join(seen), dtype=dt).reshape(len(seen), degree)
    return PermutationGroup(E)


def _generating_translations(quandle):
    """R_s for s in the generating set, the translations inner_group closes from."""
    columns = quandle._array.T[list(quandle._generators)]
    return [Permutation._trusted(row) for row in columns.tolist()]


def _closure_differential_lists():
    yield from _padded_generator_lists()
    for spec in connected_affine_specs(47):
        yield _generating_translations(affine_quandle(spec))
    yield _generating_translations(bundled_order12())
    for degree in range(4, 9):
        quandle = transposition_quandle(degree)
        yield _generating_translations(quandle)
        yield inner_generators(quandle)


def test_close_group_matches_the_dimino_closure():
    """One breadth-first pass lists the group that the pruned, re-seeded
    closure listed, on padded lists, the generating translations of every
    connected affine quandle of order <= 47 and of the bundled table, and
    the S_4..S_8 transposition classes (generating and all translations)."""
    count = 0
    for gens in _closure_differential_lists():
        new, old = close_group(gens), _dimino_close_group(gens, cap=perms.CLOSURE_CAP)
        assert np.array_equal(new.images, old.images), [g.images for g in gens]
        count += 1
    assert count == 11 + 377 + 1 + 10


def test_both_closures_stop_at_the_cap_on_s9():
    gens = _generating_translations(transposition_quandle(9))
    message = r"^closure reached (\d+) elements, past the cap of 20000$"
    with mock.patch.object(perms, "CLOSURE_CAP", 20_000):
        with pytest.raises(GroupTooLarge, match=message):
            close_group(gens)
        with pytest.raises(GroupTooLarge, match=message):
            _dimino_close_group(gens, cap=perms.CLOSURE_CAP)


def _generator_lists(max_size):
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(
            st.permutations(list(range(n))).map(lambda xs: Permutation(tuple(xs))),
            min_size=1,
            max_size=max_size,
        )
    )


@settings(max_examples=80, deadline=None)
@given(_generator_lists(5), st.data())
def test_close_group_matches_plain_closure_on_random_generators(gens, data):
    if data.draw(st.booleans()):
        gens = gens + gens[: data.draw(st.integers(0, len(gens)))]
    if data.draw(st.booleans()):
        gens.insert(data.draw(st.integers(0, len(gens))), Permutation.identity(gens[0].degree))
    group = close_group(gens)
    assert [p.images for p in group.elements] == _reference_closure(gens)


@settings(max_examples=60, deadline=None)
@given(_generator_lists(4))
def test_close_group_order_matches_sympy(gens):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    reference = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in gens]
    )
    group = close_group(gens)
    assert group.order == reference.order()
    assert {p.images for p in group.elements} == {
        tuple(p.array_form) for p in reference.generate()
    }


def test_inner_group_orders():
    assert len(inner_group(affine_quandle(AffineSpec(13, 8))).elements) == 52
    assert len(inner_group(affine_quandle(AffineSpec(21, 11))).elements) == 126


def test_orbits_basics():
    ident = close_group([Permutation.identity(5)])
    assert orbits(ident) == [(0,), (1,), (2,), (3,), (4,)]

    g = inner_group(affine_quandle(AffineSpec(13, 8)))
    assert orbits(g) == [tuple(range(13))]


def test_orbits_of_a_group_built_from_its_images():
    """A group built from its image array alone has no generators to read;
    orbits reads a generating set off the elements."""
    s4 = _symmetric_group(4)
    built = PermutationGroup(s4.images)
    assert orbits(built) == orbits(s4) == [(0, 1, 2, 3)]


def _reference_orbits(gens):
    """Orbits by plain breadth-first search from each point not yet
    reached, in point order, each sorted."""
    seen = set()
    out = []
    for start in range(gens[0].degree):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            fresh = []
            for x in frontier:
                for g in gens:
                    if g(x) not in orbit:
                        orbit.add(g(x))
                        fresh.append(g(x))
            frontier = fresh
        seen |= orbit
        out.append(tuple(sorted(orbit)))
    return out


@settings(max_examples=100, deadline=None)
@given(_generator_lists(4), st.data())
def test_orbit_labels_match_plain_search(gens, data):
    if data.draw(st.booleans()):
        gens = gens + gens[: data.draw(st.integers(0, len(gens)))]
    if data.draw(st.booleans()):
        gens.insert(data.draw(st.integers(0, len(gens))), Permutation.identity(gens[0].degree))
    degree = gens[0].degree
    reference = _reference_orbits(gens)
    least = [next(o[0] for o in reference if x in o) for x in range(degree)]
    for dtype in (np.uint8, np.uint16, np.int32, np.intp):
        labels = _orbit_labels(np.array([g.images for g in gens], dtype=dtype))
        assert labels.dtype == dtype
        assert labels.tolist() == least
    assert orbits(close_group(gens)) == reference


@pytest.mark.parametrize("dtype, degree", [(np.uint8, 255), (np.uint16, 400),
                                           (np.int32, 400), (np.intp, 400)])
def test_orbit_labels_run_to_the_fixpoint_on_a_long_cycle(dtype, degree):
    """One shuffled cycle through every point, alone and beside the
    identity: the labels need many rounds to fall to 0, and the byte
    compare must not stop before they do."""
    points = np.random.default_rng(degree).permutation(degree)
    cycle = np.empty(degree, dtype=dtype)
    cycle[points] = np.roll(points, -1)
    for maps in (cycle[None], np.stack([np.arange(degree, dtype=dtype), cycle])):
        labels = _orbit_labels(maps)
        assert labels.dtype == dtype and not labels.any()


def test_conjugacy_classes_examples():
    g = inner_group(affine_quandle(AffineSpec(13, 8)))
    cc = conjugacy_classes(g)
    assert sorted(cc.sizes) == [1, 4, 4, 4, 13, 13, 13]
    assert cc.representatives[0].is_identity()

    cyclic = close_group([Permutation.from_cycles(6, [tuple(range(6))])])
    assert conjugacy_classes(cyclic).sizes == (1,) * 6

    s3 = inner_group(affine_quandle(AffineSpec(3, 2)))
    assert sorted(conjugacy_classes(s3).sizes) == [1, 2, 3]

    for name, group, _, gens in _indexing_cases():
        assert conjugacy_classes(group).classes == _reference_classes(group, gens), name


def test_class_equation_and_divisibility():
    for spec in [AffineSpec(5, 2), AffineSpec(7, 3), AffineSpec(9, 2)]:
        g = inner_group(affine_quandle(spec))
        cc = conjugacy_classes(g)
        assert sum(cc.sizes) == len(g.elements)
        assert all(len(g.elements) % s == 0 for s in cc.sizes)
        rebuilt = sorted(
            (p for cls in cc.classes for p in cls), key=lambda p: p.images
        )
        assert tuple(rebuilt) == g.elements


def _symmetric_generators(n):
    return [Permutation.from_cycles(n, [tuple(range(n))]), Permutation.from_cycles(n, [(0, 1)])]


def _symmetric_group(n):
    return close_group(_symmetric_generators(n))


def _automorphism_case(moduli):
    group = AbelianGroup(moduli)
    return automorphism_group(group), automorphism_permutations(group)


def _inner_case(spec):
    quandle = affine_quandle(spec)
    return inner_group(quandle), inner_generators(quandle)


def _sympy_cases():
    """name -> builder of (group, generators of the group)."""
    return {
        "S5": lambda: (_symmetric_group(5), _symmetric_generators(5)),
        "S6": lambda: (_symmetric_group(6), _symmetric_generators(6)),
        "S7": lambda: (_symmetric_group(7), _symmetric_generators(7)),
        "Aut(2,2,2)": lambda: _automorphism_case((2, 2, 2)),
        "Aut(4,4)": lambda: _automorphism_case((4, 4)),
        "Inn(47,5)": lambda: _inner_case(AffineSpec(47, 5)),
        "Inn(21,11)": lambda: _inner_case(AffineSpec(21, 11)),
    }


@pytest.mark.parametrize("name", list(_sympy_cases()))
def test_conjugacy_classes_match_sympy(name):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    group, gens = _sympy_cases()[name]()
    reference = combinatorics.PermutationGroup(
        [combinatorics.Permutation(list(g.images)) for g in gens]
    ).conjugacy_classes()
    classes = conjugacy_classes(group).classes
    assert sorted(map(len, classes)) == sorted(map(len, reference))
    assert {frozenset(p.images for p in c) for c in classes} == {
        frozenset(tuple(p.array_form) for p in c) for c in reference
    }


def _definition_classes(group):
    """Conjugacy classes straight from the definition, in plain Python:
    the class of x is {g x g^-1 : g in G} over every element g; classes
    sorted, ordered by least member."""
    pairs = [(g, g.inverse()) for g in group.elements]
    seen = set()
    classes = []
    for x in group.elements:
        if x not in seen:
            members = {g * x * g_inv for g, g_inv in pairs}
            seen |= members
            classes.append(tuple(sorted(members, key=lambda p: p.images)))
    return tuple(classes)


def _small_groups():
    """(name, group) of order at most 200: inner groups of affine quandles,
    automorphism and extension groups of small abelian groups, S4 and S5,
    the bundled inner group, and S4 built from its image array alone."""
    cases = [(f"Inn({m},{t})", inner_group(affine_quandle(AffineSpec(m, t))))
             for m in range(1, 32) for t in units(m)]
    for moduli in [(2, 2), (2, 4), (3, 3), (2, 2, 2)]:
        cases.append((f"Aut{moduli}", automorphism_group(AbelianGroup(moduli))))
    cases.append(("(2,4) extension", _extension_pair()[0]))
    cases.append(("S4", _symmetric_group(4)))
    cases.append(("S5", _symmetric_group(5)))
    cases.append(("bundled", inner_group(bundled_order12())))
    s4 = _symmetric_group(4).images
    cases.append(("S4, from its images", PermutationGroup(s4)))
    return [(name, group) for name, group in cases if len(group) <= 200]


def test_conjugacy_classes_match_the_definition():
    cases = _small_groups()
    assert len(cases) > 200 and "S4, from its images" in dict(cases)
    for name, group in cases:
        assert conjugacy_classes(group).classes == _definition_classes(group), name


def test_class_split_looks_up_at_most_two_key_sets_per_doubling(monkeypatch):
    """The greedy generating set S has at most floor(log2 |G|) members and
    the split looks up 2|S| key sets; a loop over the classes makes one
    lookup per class, 47 on Inn(47, 5) and 1000 on Z_1000."""
    calls = []
    lookup = _ElementKeys.lookup
    monkeypatch.setattr(_ElementKeys, "lookup",
                        lambda keys, base: calls.append(len(base)) or lookup(keys, base))
    groups = [
        inner_group(affine_quandle(AffineSpec(47, 5))),
        close_group([Permutation.from_cycles(1000, [tuple(range(1000))])]),
        automorphism_group(AbelianGroup((2, 2, 2, 2))),
    ]
    for group in groups:
        fresh = PermutationGroup(group.images)
        calls.clear()
        classes = conjugacy_classes(fresh)
        assert 0 < len(calls) <= 2 * (len(group).bit_length() - 1), len(group)
        assert np.array_equal(classes.labels, conjugacy_classes(group).labels)


def test_class_split_of_aut_z2_4_looks_up_six_key_sets(monkeypatch):
    """The last member outside <S> climbs GL(4,2) in three steps, where the
    least one took nine: 3 lookups for S and 3 for the conjugations."""
    calls = []
    lookup = _ElementKeys.lookup
    monkeypatch.setattr(_ElementKeys, "lookup",
                        lambda keys, base: calls.append(len(base)) or lookup(keys, base))
    group = automorphism_group(AbelianGroup((2, 2, 2, 2)))
    calls.clear()
    assert len(conjugacy_classes(group)) == 14
    assert 0 < len(calls) <= 6, calls


def _folding_extension():
    """An extension of Z_2^2 x Z_7 whose element keys fold at column 13."""
    abelian = AbelianGroup((2, 2, 7))
    for f in automorphism_permutations(abelian):
        big = affine_extension(abelian, f)[0]
        if _element_keys(big).folds:
            break
    assert list(_element_keys(big).folds) == [13]
    return big


_ARITHMETIC_GROUPS = {
    "Inn(47, 5)": lambda: inner_group(affine_quandle(AffineSpec(47, 5))),
    "S4": lambda: _symmetric_group(4),
    "S5": lambda: _symmetric_group(5),
    "S6": lambda: _symmetric_group(6),
    "Aut(Z_2^4)": lambda: automorphism_group(AbelianGroup((2, 2, 2, 2))),
    "folded at column 13": _folding_extension,
}


@pytest.mark.parametrize("name", list(_ARITHMETIC_GROUPS))
def test_index_products_and_inverses_match_permutation_arithmetic(name):
    """_product and _inverse give the indices of Permutation * and
    .inverse() on sampled elements, in the shapes the callers use: a
    one-element array times a vector and a column times a row (both by
    column of the left factor's rows), a scalar times a vector, a vector
    times a column and a conjugation with three factors (all entry by
    entry)."""
    group = _ARITHMETIC_GROUPS[name]()
    rng = np.random.default_rng(len(group))
    elements = group.elements
    index = {g.images: i for i, g in enumerate(elements)}

    def reference(*factors):
        shape = np.broadcast_shapes(*(np.shape(f) for f in factors))
        flat = np.broadcast_arrays(*factors)
        out = [index[(elements[a] * elements[b] * elements[c]).images]
               for a, b, c in zip(*(f.ravel().tolist() for f in flat))]
        return np.array(out, dtype=np.intp).reshape(shape)

    identity = np.zeros((), dtype=np.intp)
    xs = rng.choice(len(group), size=min(40, len(group)), replace=False)
    ys = rng.choice(len(group), size=24, replace=False)
    g = int(xs[0])
    inverse = _inverse(group, ys)
    assert inverse.tolist() == [index[elements[y].inverse().images] for y in ys.tolist()], name
    assert np.array_equal(_inverse(group, ys.reshape(4, 6)), inverse.reshape(4, 6))
    cases = [
        (_product(group, xs[:1], ys), reference(xs[:1], ys, identity)),
        (_product(group, g, xs), reference(np.asarray(g), xs, identity)),
        (_product(group, ys[:, None], xs), reference(ys[:, None], xs, identity)),
        (_product(group, xs, ys[:, None]), reference(xs, ys[:, None], identity)),
        (_product(group, ys[:, None], xs, inverse[:, None]),
         reference(ys[:, None], xs, inverse[:, None])),
    ]
    for got, want in cases:
        assert got.shape == want.shape and np.array_equal(got, want), name
    # s x s^-1 fixes the identity, and x x^-1 is the identity
    assert (_product(group, ys[:, None], 0, inverse[:, None]) == 0).all()
    assert (_product(group, ys, inverse) == 0).all()


def _greedy_cases(family, order12):
    """(G, K) pairs for _greedy_generators, K = G for a lone group."""
    if family == "affine m <= 31":
        for spec in connected_affine_specs(31):
            group = inner_group(affine_quandle(spec))
            yield group, group
            yield group, stabilizer(group, 0)
    elif family == "abelian order <= 16":
        for order in range(1, 17):
            for moduli in abelian_types(order):
                for group in (automorphism_group(AbelianGroup(moduli)),
                              AbelianGroup(moduli).translation_group()):
                    yield group, group
    elif family == "differential pairs":
        yield from differential_pairs(order12)
    else:
        yield from ((group, group) for group in [close_group([Permutation.identity(1)])]
                    + [_symmetric_group(n) for n in range(2, 7)])


@pytest.mark.parametrize("family", ["affine m <= 31", "abelian order <= 16",
                                    "differential pairs", "S1-S6"])
def test_greedy_generators_generate_the_subgroup(family, order12):
    """S lies in K and generates exactly K, |S| <= floor(log2 |K|), and
    left[i] is x -> s_i x on G's element indices.  The prime-index stop
    fires when the last member of S raised |<S>| by a prime factor."""
    fired = 0
    for group, sub in _greedy_cases(family, order12):
        chosen, left = _greedy_generators(group, _locate(group, sub.images)[0])
        assert len(chosen) <= len(sub).bit_length() - 1, (group, sub)
        assert chosen.dtype == np.intp and left.dtype == np.int32
        assert left.shape == (len(chosen), len(group))
        if len(sub) == 1:
            continue
        gens = [group.elements[i] for i in chosen]
        assert all(g in sub for g in gens)
        assert close_group(gens) == sub, (group, sub)
        index = {x.images: i for i, x in enumerate(group.elements)}
        for s, row in zip(gens, left.tolist()):
            assert row == [index[(s * x).images] for x in group.elements]
        below = len(close_group(gens[:-1])) if len(gens) > 1 else 1
        fired += is_prime(len(sub) // below)
    assert fired > 0


def test_greedy_generators_of_a_prime_order_subgroup_make_no_orbit_pass(monkeypatch):
    """For |K| prime, the first member of S generates K by Lagrange, so the
    helper returns it without an orbit pass to confirm it."""
    calls = []
    labels = perms._orbit_labels
    monkeypatch.setattr(perms, "_orbit_labels",
                        lambda maps: calls.append(len(maps)) or labels(maps))
    orders = set()
    for moduli in [(2, 2), (5,), (7,), (11,)]:
        abelian = AbelianGroup(moduli)
        for f in automorphism_permutations(abelian):
            if element_order(f) not in (2, 3, 5):
                continue
            big, small = affine_extension(abelian, f)
            calls.clear()
            chosen, left = _greedy_generators(big, _locate(big, small.images)[0])
            assert calls == [] and len(chosen) == 1 and len(left) == 1
            assert close_group([big.elements[chosen[0]]]) == small
            orders.add(element_order(f))
    assert orders == {2, 3, 5}


def test_closed_group_keeps_its_generators_as_its_generating_rows():
    """close_group stores its distinct non-identity generators, read-only
    and apart from the group's array; a group built from an image array
    falls back to a greedy set.  Classes and orbits come out the same."""
    groups = [inner_group(affine_quandle(AffineSpec(m, t))) for m in (9, 12, 13) for t in units(m)]
    s4_gens = [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.identity(4),
               Permutation.from_cycles(4, [(0, 1)]), Permutation.from_cycles(4, [(0, 1, 2, 3)])]
    groups += [close_group(s4_gens), close_group([Permutation.identity(3)]),
               close_group(_generating_translations(bundled_order12()))]
    for group in groups:
        rows = perms._generating_rows(group)
        assert not rows.flags.writeable and not np.shares_memory(rows, group.images)
        assert rows.dtype == group.images.dtype
        assert not (rows == np.arange(group.degree)).all(axis=1).any()
        assert close_group([group.identity(), *map(Permutation._trusted, rows.tolist())]) == group
        rebuilt = PermutationGroup(group.images)
        greedy = rebuilt.images[_greedy_generators(rebuilt, np.arange(len(rebuilt)))[0]]
        assert np.array_equal(perms._generating_rows(rebuilt), greedy)
        assert orbits(group) == orbits(rebuilt)
        for attribute in ("labels", "starts", "counts"):
            assert np.array_equal(getattr(conjugacy_classes(group), attribute),
                                  getattr(conjugacy_classes(rebuilt), attribute))
    assert perms._generating_rows(groups[-3]).tolist() == [[1, 2, 3, 0], [1, 0, 2, 3]]
    assert perms._generating_rows(groups[-2]).shape == (0, 3)


def _per_class_least(group):
    """A frozen copy of the per-class loop: conjugate each element not yet
    labelled by the whole group at once and label its conjugates with its
    index, the least in their class."""
    E = group.images
    keys = _element_keys(group)
    inv_base = np.argsort(E, axis=1)[:, : keys.base_length].astype(E.dtype)
    least = np.full(len(E), -1, dtype=np.intp)
    for idx in range(len(E)):
        if least[idx] < 0:
            # row m holds the base images of  g_m o x o g_m^{-1}
            conjugated = np.take_along_axis(E, E[idx][inv_base], axis=1)
            least[keys.lookup(conjugated)] = idx
    return least


def _extension_pair():
    group = AbelianGroup((2, 4))
    return affine_extension(group, automorphism_permutations(group)[-1])


def _differential_groups(family):
    if family == "affine m <= 31":
        for m in range(1, 32):
            for t in units(m):
                group = inner_group(affine_quandle(AffineSpec(m, t)))
                yield group
                yield stabilizer(group, 0)
    elif family == "abelian order <= 16":
        for order in range(1, 17):
            for moduli in abelian_types(order):
                yield automorphism_group(AbelianGroup(moduli))
                yield AbelianGroup(moduli).translation_group()
    elif family == "extensions order <= 12":
        for order in range(1, 13):
            for moduli in abelian_types(order):
                group = AbelianGroup(moduli)
                for f in automorphism_permutations(group):
                    yield from affine_extension(group, f)
    else:
        yield inner_group(bundled_order12())


@pytest.mark.parametrize("family", ["affine m <= 31", "abelian order <= 16",
                                    "extensions order <= 12", "bundled"])
def test_conjugacy_classes_match_the_per_class_loop(family):
    count = 0
    for group in _differential_groups(family):
        classes = conjugacy_classes(group)
        reference = ConjugacyClassSet.from_least(_per_class_least(group), images=group.images)
        for field in ("labels", "starts", "counts"):
            assert np.array_equal(getattr(classes, field), getattr(reference, field)), (
                family, group, field)
        count += 1
    assert count > 0


def test_from_least_rejects_labels_that_are_not_least_indices():
    for least in ([1, 1, 0], [0, 0, 1], [0, 2, 2], [1], [0, 1, 0, 2, 1, 4],
                  [-1], [0, -1, 2], [0, 5]):
        with pytest.raises(ValueError, match="^labels are not the least indices"):
            Partition.from_least(np.array(least))
    part = Partition.from_least(np.array([0, 1, 0, 1, 4, 0]))
    assert part.starts.tolist() == [0, 1, 4]
    assert part.labels.tolist() == [0, 1, 0, 1, 2, 0]
    assert part.counts.tolist() == [3, 2, 1]


def test_stabilizer_and_orbit_stabilizer():
    g = inner_group(affine_quandle(AffineSpec(13, 8)))
    st0 = stabilizer(g, 0)
    assert len(st0.elements) == 4
    r0 = right_translation(affine_quandle(AffineSpec(13, 8)), 0)
    assert st0 == close_group([r0])
    for point in range(13):
        orbit = orbits(g)[0]
        assert len(orbit) * len(stabilizer(g, point).elements) == len(g.elements)

    ident = close_group([Permutation.identity(3)])
    assert stabilizer(ident, 1) == ident


def test_cayley_index_table_is_multiplication():
    g = inner_group(affine_quandle(AffineSpec(5, 2)))
    table = cayley_index_table(g)
    for i, a in enumerate(g.elements):
        for j, b in enumerate(g.elements):
            assert g.elements[table[i, j]] == a * b

    rng = random.Random(0)
    for name, group, base_length, _ in _indexing_cases():
        keys = _element_keys(group)
        assert keys.base_length == base_length, name
        assert bool(keys.folds) == (name == "(Z2)^9"), name
        E = np.array([p.images for p in group.elements])
        table = cayley_index_table(group)
        assert table.shape == (len(group), len(group)), name
        assert np.array_equal(E[table], E[:, E]), name
        for _ in range(200):
            i, j = rng.randrange(len(group)), rng.randrange(len(group))
            a, b = group.elements[i], group.elements[j]
            assert group.elements[table[i, j]] == a * b, name


def test_translations_share_cycle_structure():
    for spec in [AffineSpec(13, 8), AffineSpec(21, 11), AffineSpec(12, 5)]:
        q = affine_quandle(spec)
        shapes = {cycle_structure(right_translation(q, y)) for y in range(q.order)}
        assert len(shapes) == 1


def test_group_requires_identity_and_rejects_duplicates():
    with pytest.raises(ValueError):
        PermutationGroup.from_elements([Permutation((1, 0))])
    with pytest.raises(ValueError):
        PermutationGroup.from_elements(
            [Permutation.identity(2), Permutation.identity(2)]
        )
    rows = np.array([[1, 2, 0], [0, 1, 2], [2, 0, 1]])
    for bad in (rows[1], rows[[0, 2]], rows[[1, 0, 1]]):
        with pytest.raises(ValueError):
            PermutationGroup(bad)
    group = PermutationGroup(rows)
    assert group.degree == rows.shape[1] == 3
    assert group.images.tolist() == sorted(rows.tolist())


def test_stabilizer_builds_no_permutation(monkeypatch):
    group = inner_group(affine_quandle(AffineSpec(47, 5)))
    built = 0
    trusted = Permutation._trusted.__func__

    def counted(cls, images):
        nonlocal built
        built += 1
        return trusted(cls, images)

    monkeypatch.setattr(Permutation, "_trusted", classmethod(counted))
    stab = stabilizer(group, 0)
    assert built == 0
    assert len(stab) == 46 and not stab.images[:, 0].any()


def _product_inner_group(p, s, t):
    """Inn of Aff(Z_p^2, diag(s, t)), the point (a, b) at index p a + b."""
    f = Permutation(tuple(s * a % p * p + t * b % p for a in range(p) for b in range(p)))
    return inner_group(abelian_affine_quandle(AbelianGroup((p, p)), f))


def test_stabilizer_is_the_checked_group_of_its_rows():
    """At every point of transitive groups (S4, Inn(13, 8), and Inn of
    Aff(Z_17^2, diag(3, 2)) in uint16) and of an intransitive one, the
    stabilizer wrapped unchecked equals the checked PermutationGroup of its
    rows in images, dtype and read-only flag."""
    intransitive = close_group([Permutation.from_cycles(6, [(0, 1, 2)]),
                                Permutation.from_cycles(6, [(3, 4)])])
    s4 = close_group([Permutation.from_cycles(4, [(0, 1, 2, 3)]),
                      Permutation.from_cycles(4, [(0, 1)])])
    groups = [s4, inner_group(affine_quandle(AffineSpec(13, 8))),
              _product_inner_group(17, 3, 2), intransitive]
    assert [len(orbits(g)) for g in groups] == [1, 1, 1, 3]
    for group in groups:
        for point in range(group.degree):
            stab = stabilizer(group, point)
            checked = PermutationGroup(group.images[group.images[:, point] == point])
            assert stab.images.dtype == checked.images.dtype
            assert np.array_equal(stab.images, checked.images)
            assert not stab.images.flags.writeable and not checked.images.flags.writeable
    assert stabilizer(intransitive, 5) == intransitive
    assert stabilizer(groups[2], 0).images.dtype == np.uint16


def test_whole_group_passes_hold_a_block_of_rows():
    """_ElementKeys and burnside_rank read Inn of Aff(Z_31^2, diag(3, 2)),
    28830 rows of degree 961, a block of rows at a time: the tracemalloc
    peak of each call stays far below |G| d bytes, one whole-group boolean
    array."""
    import tracemalloc

    from quandlekit.characters import burnside_rank

    group = _product_inner_group(31, 3, 2)
    assert (len(group), group.degree) == (28830, 961)
    for call, expected in ((lambda: perms._ElementKeys(group.images).base_length, 32),
                           (lambda: burnside_rank(group), 38)):
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < len(group) * group.degree / 8


def test_group_rejects_mixed_degrees():
    with pytest.raises(ValueError, match=r"^elements of mixed degrees \[2, 3\]$"):
        PermutationGroup.from_elements([Permutation.identity(2), Permutation((0, 2, 1))])


def _membership_probes(group, base_length, rng):
    """Permutations of the group's degree to look up: every member, a
    member changed only after the base (where the degree leaves room), the
    reversal and random ones."""
    degree = group.degree
    probes = list(group.elements)
    if degree - base_length >= 2:
        for member in rng.sample(group.elements, min(10, len(group))):
            images = list(member.images)
            images[-2], images[-1] = images[-1], images[-2]
            probes.append(Permutation(images))
    probes.append(Permutation(range(degree - 1, -1, -1)))
    for _ in range(50):
        images = list(range(degree))
        rng.shuffle(images)
        probes.append(Permutation(images))
    return probes


def test_membership_matches_plain_index():
    rng = random.Random(1)
    for name, group, base_length, _ in _indexing_cases():
        reference = {p.images: i for i, p in enumerate(group.elements)}
        probes = _membership_probes(group, base_length, rng)
        assert any(p.images not in reference for p in probes) == (name != "S4"), name
        for perm in probes:
            assert (perm in group) == (perm.images in reference), (name, perm)
            if perm.images in reference:
                assert group.index_of(perm) == reference[perm.images], (name, perm)
            else:
                with pytest.raises(KeyError) as exc:
                    group.index_of(perm)
                assert exc.value.args == (perm.images,), name
                assert not group.contains_group(close_group([perm])), (name, perm)
        assert group.contains_group(group), name
        assert group.contains_group(stabilizer(group, 0)), name
        assert group.elements[0].images not in group, name

        other = Permutation.identity(group.degree + 1)
        assert other not in group, name
        with pytest.raises(KeyError):
            group.index_of(other)
        assert not group.contains_group(close_group([other])), name


_PARTITION_QUANDLES = {
    "bundled": bundled_order12,
    "(13, 8)": lambda: affine_quandle(AffineSpec(13, 8)),
    "(21, 11)": lambda: affine_quandle(AffineSpec(21, 11)),
    "trivial(5)": lambda: trivial_quandle(5),
}


def _stabilizer_double_cosets(quandle):
    group = inner_group(quandle)
    return double_cosets(group, stabilizer(group, 0))


def _extension_double_cosets():
    return double_cosets(*_extension_pair())


def _partition_cases():
    """(id, builder) for every partition the library returns: the tensor
    square, the conjugacy classes of Inn and the double cosets of
    (Inn, Stab(0)) of each quandle above, and one extension pair."""
    cases = []
    for name, build in _PARTITION_QUANDLES.items():
        cases.append((f"tensor {name}", lambda build=build: tensor_square(build())))
        cases.append((f"classes {name}",
                      lambda build=build: conjugacy_classes(inner_group(build()))))
        cases.append((f"cosets {name}",
                      lambda build=build: _stabilizer_double_cosets(build())))
    cases.append(("cosets (2, 4) extension", _extension_double_cosets))
    return cases


@pytest.mark.parametrize("build", [b for _, b in _partition_cases()],
                         ids=[name for name, _ in _partition_cases()])
def test_partition_invariants(build):
    part = build()
    assert isinstance(part, Partition)
    labels, starts, counts = part.labels, part.starts, part.counts
    size = len(labels)
    assert len(part) == len(starts) == len(counts)
    assert part.sizes == tuple(counts.tolist())
    assert np.array_equal(labels[starts], np.arange(len(part)))
    assert np.array_equal(counts, np.bincount(labels))
    assert np.all(np.diff(starts) > 0)
    first = np.full(len(part), size)
    np.minimum.at(first, labels, np.arange(size))
    assert np.array_equal(first, starts)
    blocks = part.blocks(range(size))
    assert sorted(itertools.chain(*blocks)) == list(range(size))
    assert [block[0] for block in blocks] == starts.tolist()
    for index, block in enumerate(blocks):
        assert list(block) == sorted(block)
        assert np.all(labels[list(block)] == index)
    with pytest.raises(TypeError):
        type(part)(labels, starts, counts)
    rebuilt = Partition.from_least(starts[labels])
    for field in ("labels", "starts", "counts"):
        assert np.array_equal(getattr(rebuilt, field), getattr(part, field))
