"""Abelian groups, their automorphisms, and the semidirect extensions."""

import pytest

from quandlekit import (
    AbelianGroup,
    GroupTooLarge,
    Permutation,
    abelian_affine_quandle,
    abelian_types,
    affine_extension,
    automorphism_group,
    automorphism_permutations,
    element_order,
    inner_group,
    is_connected,
    is_gelfand_pair,
    stabilizer,
)


def test_abelian_types_enumeration():
    assert abelian_types(1) == [(1,)]
    assert abelian_types(12) == [(2, 2, 3), (3, 4)]
    assert abelian_types(16) == [(2, 2, 2, 2), (2, 2, 4), (2, 8), (4, 4), (16,)]
    assert abelian_types(30) == [(2, 3, 5)]
    assert len(abelian_types(8)) == 3


def test_types_multiply_to_the_order():
    from math import prod

    for order in range(1, 31):
        types = abelian_types(order)
        assert types, order
        for moduli in types:
            assert prod(moduli) == order
            assert list(moduli) == sorted(moduli)


def test_group_arithmetic():
    g = AbelianGroup((2, 3))
    assert g.order == 6
    assert g.elements[0] == (0, 0)
    assert g.add((1, 2), (1, 2)) == (0, 1)
    assert g.negate((1, 2)) == (1, 1)
    assert g.index((1, 2)) == g.elements.index((1, 2))


def test_translation_group_is_regular():
    g = AbelianGroup((2, 2, 2))
    tg = g.translation_group()
    assert len(tg.elements) == 8
    orders = sorted(element_order(p) for p in tg.elements)
    assert orders == [1] + [2] * 7


def test_automorphism_group_orders():
    expected = {
        (2, 2, 2): 168,
        (4, 4): 96,
        (2, 8): 16,
        (16,): 8,
        (2, 2, 4): 192,
        (3, 3): 48,
        (9,): 6,
        (5, 5): 480,
        (2, 2, 3): 12,
        (7,): 6,
        # Hillar and Rhea's |Aut|, up to the 2**17 candidates of (2, 2, 2, 4)
        (2, 2, 2, 4): 21504,
        (3, 3, 3): 11232,
        (2, 4, 4): 1536,
        (2, 2, 8): 384,
    }
    for moduli, order in expected.items():
        group = AbelianGroup(moduli)
        assert len(automorphism_permutations(group)) == order, moduli


def test_automorphism_size_guard():
    # 32**5 candidate maps: refused before any of them is built
    with pytest.raises(GroupTooLarge, match=r"33554432 .* cap of 131072"):
        automorphism_permutations(AbelianGroup((2, 2, 2, 2, 2)))
    # 16**4 = 65536 candidates, the most of any type of order <= 31
    assert len(automorphism_permutations(AbelianGroup((2, 2, 2, 2)))) == 20160


def test_automorphisms_fix_zero_and_respect_addition():
    group = AbelianGroup((2, 4))
    perms = automorphism_permutations(group)
    assert len(perms) == 8
    elements = group.elements
    for perm in perms:
        assert perm(0) == 0
        for a in range(group.order):
            for b in range(group.order):
                total = group.index(group.add(elements[a], elements[b]))
                image = group.index(
                    group.add(elements[perm(a)], elements[perm(b)])
                )
                assert perm(total) == image


def test_automorphism_group_closure():
    group = AbelianGroup((3, 3))
    aut = automorphism_group(group)
    assert len(aut.elements) == 48
    idx = {p.images: None for p in aut.elements}
    for a in aut.elements[:12]:
        for b in aut.elements[:12]:
            assert (a * b).images in idx


def test_abelian_affine_quandle_matches_modular_affine():
    from quandlekit import AffineSpec, affine_quandle

    group = AbelianGroup((7,))
    doubling = Permutation(tuple((2 * x) % 7 for x in range(7)))
    q = abelian_affine_quandle(group, doubling)
    assert q.table == affine_quandle(AffineSpec(7, 2)).table


def test_abelian_affine_quandle_matches_coordinate_formula():
    # f(x) + y - f(y) entry by entry with the group's own tuple arithmetic
    for moduli in [(1,), (2, 4), (3, 3), (2, 2, 3), (2, 2, 2)]:
        group = AbelianGroup(moduli)
        elements = group.elements
        for f in automorphism_permutations(group):
            want = tuple(
                tuple(
                    group.index(
                        group.add(
                            elements[f(x)],
                            group.add(elements[y], group.negate(elements[f(y)])),
                        )
                    )
                    for y in range(group.order)
                )
                for x in range(group.order)
            )
            assert abelian_affine_quandle(group, f).table == want


def test_abelian_affine_quandle_connectivity():
    group = AbelianGroup((3, 3))
    connected = 0
    for f in automorphism_permutations(group):
        q = abelian_affine_quandle(group, f)
        # connected exactly when id - f is bijective
        differences = {
            group.index(group.add(group.elements[x], group.negate(group.elements[f(x)])))
            for x in range(9)
        }
        assert is_connected(q) == (len(differences) == 9)
        connected += is_connected(q)
    assert connected == 27


def test_extension_orders():
    group = AbelianGroup((9,))
    inversion = Permutation(tuple((-x) % 9 for x in range(9)))
    big, small = affine_extension(group, inversion)
    assert len(big.elements) == 18
    assert len(small.elements) == 2
    assert big.contains_group(small)


def test_extension_matches_inner_group_when_connected():
    group = AbelianGroup((3, 3))
    for f in automorphism_permutations(group):
        q = abelian_affine_quandle(group, f)
        if not is_connected(q):
            continue
        big, small = affine_extension(group, f)
        inner = inner_group(q)
        assert big.elements == inner.elements
        assert small.elements == stabilizer(inner, 0).elements


def test_extension_rejects_degree_mismatch():
    group = AbelianGroup((4,))
    with pytest.raises(ValueError):
        affine_extension(group, Permutation.identity(5))
    with pytest.raises(ValueError):
        abelian_affine_quandle(group, Permutation.identity(5))


def test_extension_rejects_exactly_the_bijections_that_are_not_automorphisms():
    import itertools

    from quandlekit import NotAutomorphism

    for moduli in [(5,), (2, 2)]:
        group = AbelianGroup(moduli)
        autos = {f.images for f in automorphism_permutations(group)}
        rejected = 0
        for images in itertools.permutations(range(group.order)):
            f = Permutation(images)
            if images in autos:
                big, small = affine_extension(group, f)
                assert len(big) == group.order * len(small), (moduli, images)
                assert abelian_affine_quandle(group, f).order == group.order
            else:
                witness = r"^not additive at \(\d+, \d+\)$"
                with pytest.raises(NotAutomorphism, match=witness) as by_extension:
                    affine_extension(group, f)
                # the quandle construction makes the same check, same witness
                with pytest.raises(NotAutomorphism) as by_quandle:
                    abelian_affine_quandle(group, f)
                assert str(by_quandle.value) == str(by_extension.value)
                rejected += 1
        assert rejected == {(5,): 116, (2, 2): 18}[moduli]
    # swapping 1 and 2 in Z_5 first fails at f(1 + 1) = 1 != f(1) + f(1) = 4
    swap = Permutation((0, 2, 1, 3, 4))
    for construction in (affine_extension, abelian_affine_quandle):
        with pytest.raises(NotAutomorphism, match=r"^not additive at \(1, 1\)$"):
            construction(AbelianGroup((5,)), swap)


def test_inversion_pair_is_gelfand():
    group = AbelianGroup((9,))
    inversion = Permutation(tuple((-x) % 9 for x in range(9)))
    big, small = affine_extension(group, inversion)
    assert is_gelfand_pair(big, small)


def test_identity_automorphism_gives_abelian_pair():
    group = AbelianGroup((2, 3))
    identity = Permutation.identity(6)
    big, small = affine_extension(group, identity)
    assert len(big.elements) == 6
    assert len(small.elements) == 1
    assert is_gelfand_pair(big, small)


def _reference_automorphisms(group):
    """Every bijective linear extension of a choice of generator images,
    in itertools.product order, with the group's own tuple arithmetic."""
    import itertools

    elements = group.elements
    candidates = [
        [
            i
            for i, e in enumerate(elements)
            if all(m * c % mod == 0 for c, mod in zip(e, group.moduli))
        ]
        for m in group.moduli
    ]
    out = []
    for choice in itertools.product(*candidates):
        images = []
        for x in elements:
            total = elements[0]
            for coefficient, h in zip(x, choice):
                for _ in range(coefficient):
                    total = group.add(total, elements[h])
            images.append(group.index(total))
        if len(set(images)) == group.order:
            out.append(tuple(images))
    return out


def test_automorphisms_match_ordered_reference():
    from math import gcd, prod

    skipped = []
    for order in range(1, 33):
        for moduli in abelian_types(order):
            candidates = prod(prod(gcd(m, mod) for mod in moduli) for m in moduli)
            if candidates > 1 << 12:
                skipped.append(moduli)
                continue
            group = AbelianGroup(moduli)
            got = [p.images for p in automorphism_permutations(group)]
            assert got == _reference_automorphisms(group), moduli
    # 50 types are compared; these five are counted by the order tests
    assert sorted(skipped) == [
        (2, 2, 2, 2), (2, 2, 2, 2, 2), (2, 2, 2, 4), (2, 4, 4), (3, 3, 3)
    ]


def test_affine_extension_matches_tuple_reference():
    for order in range(1, 13):
        for moduli in abelian_types(order):
            group = AbelianGroup(moduli)
            elements = group.elements
            for f in automorphism_permutations(group):
                powers = [tuple(range(group.order))]
                while True:
                    nxt = tuple(f(y) for y in powers[-1])
                    if nxt == powers[0]:
                        break
                    powers.append(nxt)
                members = sorted(
                    tuple(group.index(group.add(a, elements[p[y]])) for y in range(group.order))
                    for a in elements
                    for p in powers
                )
                big, small = affine_extension(group, f)
                assert [p.images for p in big.elements] == members
                assert [p.images for p in small.elements] == sorted(powers)


def test_automorphism_enumeration_memory():
    import tracemalloc

    group = AbelianGroup((2, 2, 2, 2))
    tracemalloc.start()
    try:
        autos = automorphism_permutations(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(autos) == 20160
    assert peak < 32 * 2**20


def test_automorphisms_and_addition_table_are_memoised_on_the_group():
    from quandlekit.abelian import _addition_table

    group = AbelianGroup((2, 2, 4))
    table = _addition_table(group)
    assert _addition_table(group) is table
    assert not table.flags.writeable
    autos = automorphism_permutations(group)
    assert automorphism_permutations(group) is autos
    # Aut(A) has the same images, in lex order; the count test below
    # shows that neither enumerates twice
    aut = automorphism_group(group)
    assert [f.images for f in aut.elements] == sorted(f.images for f in autos)
    assert automorphism_permutations(AbelianGroup((2, 2, 4))) is not autos
    assert group == AbelianGroup((2, 2, 4))
    assert repr(group) == "AbelianGroup(moduli=(2, 2, 4))"


def test_automorphism_count_and_class_representatives_build_few_permutations(monkeypatch):
    """The |Aut| > 500 path of the criterion-6 sweep reads len() of the
    automorphisms and the class representatives of Aut(A); on Z_2^4 that
    wraps 14 rows, not the 20160 automorphisms."""
    from quandlekit import conjugacy_classes

    built = 0
    trusted = Permutation._trusted.__func__

    def counted(cls, images):
        nonlocal built
        built += 1
        return trusted(cls, images)

    monkeypatch.setattr(Permutation, "_trusted", classmethod(counted))
    group = AbelianGroup((2, 2, 2, 2))
    assert len(automorphism_permutations(group)) == 20160
    representatives = conjugacy_classes(automorphism_group(group)).representatives
    assert len(representatives) == 14
    assert built <= 14


def test_automorphism_sequence_contract():
    from quandlekit import PermutationGroup
    from quandlekit.abelian import _automorphism_images

    for moduli in [(1,), (5,), (2, 2), (2, 4), (3, 3)]:
        group = AbelianGroup(moduli)
        autos = automorphism_permutations(group)
        rows = _automorphism_images(group).tolist()
        assert [list(f.images) for f in autos] == rows, moduli
        assert [list(autos[i].images) for i in range(len(autos))] == rows, moduli
        assert list(autos[-1].images) == rows[-1], moduli
        with pytest.raises(IndexError):
            autos[len(autos)]
        assert automorphism_permutations(group) is autos
        assert automorphism_group(group) == PermutationGroup.from_elements(list(autos))


def test_automorphism_group_is_built_from_the_memoised_image_array():
    """Aut(A) from the checked image array equals the group from_elements
    builds out of the memoised permutations, with equal elements in the
    same order, and leaves the array read-only; every type of order <= 30
    is within AUTOMORPHISM_CANDIDATE_CAP, (2,2,2,2) and (3,3,3) included."""
    import numpy as np

    from quandlekit import PermutationGroup
    from quandlekit.abelian import _automorphism_images
    from quandlekit.perms import _dtype_for

    types = [moduli for order in range(1, 31) for moduli in abelian_types(order)]
    assert {(2, 2, 2, 2), (3, 3, 3)} <= set(types)
    for moduli in types:
        group = AbelianGroup(moduli)
        images = _automorphism_images(group)
        assert images.dtype == _dtype_for(group.order) and not images.flags.writeable, moduli
        with pytest.raises(ValueError):
            images[0, 0] = 0
        autos = automorphism_permutations(group)
        assert [list(f.images) for f in autos] == images.tolist(), moduli
        aut = automorphism_group(group)
        reference = PermutationGroup.from_elements(autos)
        assert np.array_equal(aut.images, reference.images), moduli
        assert len(aut.elements) == len(autos)
        assert aut.elements == reference.elements, moduli


def _int64_automorphism_images(group):
    """A frozen copy of the enumeration that held its spans, addition table
    and multiples as int64 and cast the finished spans to the image dtype."""
    import numpy as np

    from quandlekit.perms import _dtype_for

    moduli = np.array(group.moduli, dtype=np.int64)
    coords = np.array(group.elements, dtype=np.int64)
    weights = np.ones(len(moduli), dtype=np.int64)
    for i in range(len(moduli) - 2, -1, -1):
        weights[i] = weights[i + 1] * moduli[i + 1]
    add_table = (coords[:, None, :] + coords[None, :, :]) % moduli @ weights
    candidate_rows = [np.nonzero(np.all(coords * m % moduli == 0, axis=1))[0]
                      for m in group.moduli]
    spans = np.zeros((1, 1), dtype=np.int64)
    for rows, m in zip(candidate_rows, group.moduli):
        multiples = (
            np.arange(m, dtype=np.int64)[:, None, None] * coords[rows] % moduli @ weights
        )
        in_span = np.zeros((len(spans), group.order), dtype=bool)
        in_span[np.arange(len(spans))[:, None], spans] = True
        clash = in_span[:, multiples[1:]].any(axis=1)
        keep, chosen = np.nonzero(~clash)
        spans = add_table[
            spans[keep][:, :, None], multiples[:, chosen].T[:, None, :]
        ].reshape(len(keep), -1)
    assert np.all(np.sort(spans, axis=1) == np.arange(group.order))
    return spans.astype(_dtype_for(group.order))


def test_automorphisms_are_enumerated_in_the_image_dtype():
    """The enumeration holds its spans in the image dtype: on Z_2^4 its
    traced peak stays under 2.5 MB (5.96 MB with int64 spans), and on every
    type of order <= 16 it lists the int64 enumeration's rows in order."""
    import tracemalloc

    import numpy as np

    from quandlekit.abelian import _automorphism_images

    group = AbelianGroup((2, 2, 2, 2))
    tracemalloc.start()
    try:
        images = _automorphism_images(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert images.dtype == np.uint8 and images.shape == (20160, 16)
    assert peak < 2.5 * 2**20, peak
    types = [moduli for order in range(1, 17) for moduli in abelian_types(order)]
    assert (2, 2, 2, 2) in types
    for moduli in types:
        group = AbelianGroup(moduli)
        reference = _int64_automorphism_images(group)
        images = _automorphism_images(group)
        assert images.dtype == reference.dtype and np.array_equal(images, reference), moduli
