"""Inner automorphism groups of affine quandles and their presentation."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quandlekit import (
    AbelianGroup,
    AffineSpec,
    AxiomViolation,
    CayleyQuandle,
    NotInGroup,
    Permutation,
    TensorSquare,
    abelian_affine_quandle,
    abelian_types,
    affine_extension,
    affine_quandle,
    automorphism_group,
    automorphism_permutations,
    close_group,
    conjugacy_classes,
    decompose_prime_affine,
    dihedral_quandle,
    element_from_normal_form,
    element_order,
    inner_generators,
    inner_group,
    is_connected,
    is_multiplicity_free,
    normal_form,
    presentation,
    right_translation,
    tensor_square,
    translation_power_exponents,
    trivial_quandle,
    validate_quandle,
    verify_translation_class,
)
from quandlekit import inner, tensor
from quandlekit.perms import _element_keys, _orbit_labels
from conftest import connected_affine_specs


def test_inner_generators_are_columns():
    q = affine_quandle(AffineSpec(5, 3))
    gens = inner_generators(q)
    assert len(gens) == 5
    for y, g in enumerate(gens):
        for x in range(5):
            assert g(x) == q.op(x, y)


def test_inner_generators_match_right_translations(order12):
    q = affine_quandle(AffineSpec(11, 2))
    sigma = (5, 9, 0, 3, 10, 1, 7, 2, 8, 4, 6)
    inverse = sorted(range(11), key=sigma.__getitem__)
    relabelled = validate_quandle(
        [[sigma[q.op(inverse[a], inverse[b])] for b in range(11)] for a in range(11)]
    )
    for quandle in (dihedral_quandle(9), order12, relabelled):
        expected = [right_translation(quandle, y) for y in range(quandle.order)]
        assert list(inner_generators(quandle)) == expected


def test_a_directly_built_quandle_is_validated():
    # column 1 repeats the entry 1
    with pytest.raises(AxiomViolation) as exc:
        CayleyQuandle([[0, 2, 1], [2, 1, 0], [1, 1, 2]])
    assert (exc.value.axiom, exc.value.witness) == (2, (1,))


def test_inner_group_from_the_generating_prefix_is_closed_from_all_translations(order12):
    sigma = (5, 9, 0, 3, 10, 1, 7, 2, 8, 4, 6)
    inverse = sorted(range(11), key=sigma.__getitem__)
    q = affine_quandle(AffineSpec(11, 2))
    relabelled = validate_quandle(
        [[sigma[q.op(inverse[a], inverse[b])] for b in range(11)] for a in range(11)]
    )
    swap = Permutation((0, 1, 3, 2))
    quandles = [order12, trivial_quandle(5), dihedral_quandle(8),
                abelian_affine_quandle(AbelianGroup((2, 2)), swap), relabelled]
    quandles += [affine_quandle(spec) for spec in connected_affine_specs(23)]
    for quandle in quandles:
        group = inner_group(quandle)
        assert (group.images == close_group(inner_generators(quandle)).images).all()


def test_inner_group_order_is_modulus_times_multiplier_order():
    for spec in connected_affine_specs(47):
        group = inner_group(affine_quandle(spec))
        expected = spec.modulus * spec.order_of_multiplier
        assert len(group.elements) == expected, spec


def test_derived_objects_are_memoised_on_the_quandle():
    q = affine_quandle(AffineSpec(13, 8))
    assert inner_group(q) is inner_group(q)
    assert tensor_square(q) is tensor_square(q)


# Z_3^2 with f = diag(2, 2), the point (a, b) at index 3 a + b: 1 - f is
# bijective, so the quandle is connected
DOUBLING = Permutation(tuple(2 * a % 3 * 3 + 2 * b % 3 for a in range(3) for b in range(3)))
# Z_2^2 with f swapping (1, 0) and (1, 1): 1 - f is not onto
SHEAR = Permutation((0, 1, 3, 2))


def test_memoised_objects_do_not_keep_the_quandle_alive():
    # a reference back to the quandle would make a cycle that only the
    # cyclic collector frees, so with it disabled the quandle must still
    # die on its last reference; the (A, f) the quandle carries refers to
    # neither the quandle nor its spec or group
    spec = AffineSpec(13, 8)
    q = affine_quandle(spec)
    product = abelian_affine_quandle(AbelianGroup((3, 3)), DOUBLING)
    for quandle in (q, product):
        assert quandle._affine is not None
        inner_group(quandle)
        tensor_square(quandle)
    refs = [weakref.ref(obj) for obj in (spec, q, product)]
    gc.disable()
    try:
        del spec, q, product, quandle
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_spec_memos_do_not_keep_the_quandle_or_group_alive():
    # the spec holds its quandle, the quandle its inner group and the group
    # its classes; no link may point back, or with the cyclic collector
    # disabled the quandle and the group would outlive the spec
    spec = AffineSpec(13, 8)
    q = affine_quandle(spec)
    group = inner_group(q)
    conjugacy_classes(group)
    tensor_square(q)
    _element_keys(group)
    decompose_prime_affine(spec)
    refs = (weakref.ref(q), weakref.ref(group))
    gc.disable()
    try:
        del spec, q, group
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_memos_leave_equality_hashing_and_repr_to_the_fields():
    spec, fresh_spec = AffineSpec(13, 8), AffineSpec(13, 8)
    q = affine_quandle(spec)
    group = inner_group(q)
    conjugacy_classes(group)
    tensor_square(q)
    fresh_q = validate_quandle(q.table)
    fresh_group = close_group(inner_generators(q))
    product = abelian_affine_quandle(AbelianGroup((3, 3)), DOUBLING)
    inner_group(product)
    fresh_product = validate_quandle(product._array)
    assert q._affine is not None and product._affine is not None
    assert fresh_q._affine is None and fresh_product._affine is None
    for memoised, fresh in ((spec, fresh_spec), (q, fresh_q), (group, fresh_group),
                            (product, fresh_product)):
        assert memoised == fresh
        assert hash(memoised) == hash(fresh)
        assert repr(memoised) == repr(fresh)
    # equal specs are distinct contexts: each builds its own quandle
    assert affine_quandle(fresh_spec) is not q
    assert affine_quandle(fresh_spec) == q


def test_only_connected_quandles_built_from_their_group_carry_it():
    """affine_quandle and abelian_affine_quandle give a connected result
    its (A, f): read-only arrays, A's addition table with 0 its zero and
    f as an intp index array.  A disconnected result, a bare copy of the
    table and every other constructor carry nothing."""
    q = affine_quandle(AffineSpec(13, 8))
    add, f = q._affine
    assert not add.flags.writeable and not f.flags.writeable
    assert add.tolist() == [[(x + y) % 13 for y in range(13)] for x in range(13)]
    assert f.dtype == np.intp and f.tolist() == [8 * x % 13 for x in range(13)]
    add, f = abelian_affine_quandle(AbelianGroup((3, 3)), DOUBLING)._affine
    assert f.dtype == np.intp and f.tolist() == list(DOUBLING.images)
    assert add[4].tolist() == [4, 5, 3, 7, 8, 6, 1, 2, 0]  # (1, 1) + (a, b)
    disconnected = [affine_quandle(AffineSpec(9, 4)),
                    abelian_affine_quandle(AbelianGroup((2, 2)), SHEAR)]
    assert not any(map(is_connected, disconnected))
    others = [validate_quandle(q._array), validate_quandle(q.table), CayleyQuandle(q._array),
              dihedral_quandle(7), trivial_quandle(3)]
    assert [quandle._affine for quandle in disconnected + others] == [None] * 7


def test_affine_quandles_close_no_group_and_propagate_no_pair(monkeypatch):
    """For a spec's quandle, Inn is listed as A x| <f> and the tensor square
    read off the powers of f, with no orbit labelling; a bare copy of the
    table is still closed from its two translations and propagated over n^2
    pairs."""
    closures, widths = [], []
    close, labels = inner.close_group, tensor._orbit_labels

    def counted_close(generators):
        generators = tuple(generators)
        closures.append(len(generators))
        return close(generators)

    def counted_labels(maps):
        widths.append(maps.shape[1])
        return labels(maps)

    monkeypatch.setattr(inner, "close_group", counted_close)
    monkeypatch.setattr(tensor, "_orbit_labels", counted_labels)
    spec = AffineSpec(13, 8)
    q = affine_quandle(spec)
    conjugacy_classes(inner_group(q))
    assert is_multiplicity_free(q)
    decompose_prime_affine(spec)
    assert (closures, widths) == ([], [])
    bare = validate_quandle(q._array)
    assert inner_group(bare) == inner_group(q)
    assert is_multiplicity_free(bare)
    assert (closures, widths) == ([2], [169])


def _carrying_quandles():
    """(quandle, (A, f) or None) for quandles that carry (A, f): every
    connected Aff(Z_m, t), m <= 47; every connected abelian_affine_quandle
    of criterion 6's sweep (order <= 30, Aut(A) or, past 500 members, its
    class representatives); and every Aff(Z_p^2, diag(s, t)), p <= 7."""
    for spec in connected_affine_specs(47):
        yield affine_quandle(spec), None
    for order in range(1, 31):
        for moduli in abelian_types(order):
            group = AbelianGroup(moduli)
            sweep = automorphism_permutations(group)
            if len(sweep) > 500:
                sweep = conjugacy_classes(automorphism_group(group)).representatives
            for f in sweep:
                quandle = abelian_affine_quandle(group, f)
                if is_connected(quandle):
                    yield quandle, (group, f)
    for p in (3, 5, 7):
        group = AbelianGroup((p, p))
        for s, t in itertools.product(range(2, p), repeat=2):
            f = Permutation(tuple(s * a % p * p + t * b % p for a in range(p) for b in range(p)))
            yield abelian_affine_quandle(group, f), (group, f)


def test_closed_forms_match_enumeration():
    """Inn listed as A x| <f> and tensor classes read off y - x agree with
    the closure and the pair propagation, run on a bare copy of each
    table: the same image array, class labels and tensor partition.  The
    partition built on the n points equals the one ranked over the n^2
    pairs from the orbit labels of f."""
    checked = 0
    for quandle, source in _carrying_quandles():
        bare = validate_quandle(quandle._array)
        assert quandle._affine is not None and bare._affine is None
        group, reference = inner_group(quandle), inner_group(bare)
        assert group.images.dtype == reference.images.dtype
        assert np.array_equal(group.images, reference.images)
        assert np.array_equal(conjugacy_classes(group).labels,
                              conjugacy_classes(reference).labels)
        square, expected = tensor_square(quandle), tensor_square(bare)
        for field in ("labels", "starts", "counts"):
            got, want = getattr(square, field), getattr(expected, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        add, f = quandle._affine
        ranked = TensorSquare.from_least(
            _orbit_labels(f[None])[add[add.argmin(axis=1)]].ravel(), order=quandle.order)
        for field in ("labels", "starts", "counts"):
            got, want = getattr(square, field), getattr(ranked, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field
        if source is not None:
            assert group == affine_extension(*source)[0]
        checked += 1
    assert checked == 377 + 731 + 35


def test_inner_group_of_trivial_quandle_is_trivial():
    g = inner_group(trivial_quandle(4))
    assert len(g.elements) == 1


def test_dihedral_inner_group_order():
    # odd n: the rotations by even steps and all reflection patterns give
    # a group of order 2n once n > 2
    g = inner_group(dihedral_quandle(7))
    assert len(g.elements) == 14


def test_connectivity_examples():
    assert is_connected(affine_quandle(AffineSpec(13, 8)))
    assert is_connected(affine_quandle(AffineSpec(21, 11)))
    assert not is_connected(affine_quandle(AffineSpec(9, 4)))
    assert not is_connected(trivial_quandle(3))


def test_presentation_example_13_8():
    pres = presentation(AffineSpec(13, 8))
    assert pres.modulus == 13
    assert pres.multiplier == 8
    assert pres.scaling_order == 4
    assert pres.inverse_multiplier == 5
    # translation adds 1 - 8 = -7 = 6 mod 13
    assert pres.translation.images[0] == 6
    assert pres.scaling.images[1] == 8
    assert element_order(pres.translation) == 13
    assert element_order(pres.scaling) == 4


def test_presentation_small_and_composite():
    pres = presentation(AffineSpec(3, 2))
    assert pres.scaling_order == 2
    assert pres.translation.images == (2, 0, 1)
    pres = presentation(AffineSpec(21, 11))
    assert pres.scaling_order == 6
    assert element_order(pres.translation) == 21


def test_presentation_is_memoised_on_its_spec(monkeypatch):
    """presentation(spec) and then decompose_prime_affine(spec), which reads
    the presentation again, verify it once; R_1 is read once per check."""
    calls = []
    translate = inner.right_translation

    def counted(q, y):
        calls.append(y)
        return translate(q, y)

    monkeypatch.setattr(inner, "right_translation", counted)
    spec = AffineSpec(13, 8)
    pres = presentation(spec)
    decompose_prime_affine(spec)
    assert presentation(spec) is pres
    assert calls == [1]
    # an equal spec is a context of its own and verifies its own
    assert presentation(AffineSpec(13, 8)) == pres
    assert calls == [1, 1]
    # the memo holds no reference back to the spec: with the cyclic
    # collector disabled the presentation still dies with it
    ref = weakref.ref(pres)
    gc.disable()
    try:
        del spec, pres
        assert ref() is None
    finally:
        gc.enable()


def test_presentation_rejects_disconnected_spec():
    with pytest.raises(ValueError):
        presentation(AffineSpec(9, 4))


def test_conjugation_relation():
    for spec in connected_affine_specs(21):
        pres = presentation(spec)
        lhs = pres.scaling * pres.translation * pres.scaling.inverse()
        assert lhs == pres.translation ** spec.multiplier, spec


def test_generators_generate_the_inner_group():
    from quandlekit import close_group

    for spec in [AffineSpec(13, 8), AffineSpec(21, 11)]:
        pres = presentation(spec)
        built = close_group([pres.translation, pres.scaling])
        inner = inner_group(affine_quandle(spec))
        assert built.elements == inner.elements


def test_normal_form_round_trip():
    for spec in connected_affine_specs(21):
        pres = presentation(spec)
        group = inner_group(affine_quandle(spec))
        seen = set()
        for g in group.elements:
            i, j = normal_form(g, pres)
            assert 0 <= i < pres.scaling_order
            assert 0 <= j < pres.modulus
            assert element_from_normal_form(pres, i, j) == g
            seen.add((i, j))
        assert len(seen) == len(group.elements)


def test_normal_form_of_translation_powers():
    pres = presentation(AffineSpec(13, 8))
    q = affine_quandle(AffineSpec(13, 8))
    from quandlekit import right_translation

    r2 = right_translation(q, 2)
    assert normal_form(r2 ** 3, pres) == (3, 3)
    assert translation_power_exponents(pres, 2, 3) == (3, 3)


def test_translation_power_exponents_match_actual_powers():
    for spec in connected_affine_specs(23, prime_only=True):
        pres = presentation(spec)
        q = affine_quandle(spec)
        from quandlekit import right_translation

        for j in range(spec.modulus):
            rj = right_translation(q, j)
            for k in range(2 * pres.scaling_order + 1):
                i, shift = translation_power_exponents(pres, j, k)
                assert element_from_normal_form(pres, i, shift) == rj ** k


def test_normal_form_rejects_outsiders():
    pres = presentation(AffineSpec(13, 8))
    with pytest.raises(NotInGroup):
        normal_form(Permutation.from_cycles(13, [(0, 1)]), pres)
    # affine map whose linear part is not a power of 8
    bad = Permutation((2 * x) % 13 for x in range(13))
    with pytest.raises(NotInGroup):
        normal_form(bad, pres)
    with pytest.raises(NotInGroup):
        normal_form(Permutation.identity(5), pres)


def test_translation_class_examples():
    assert verify_translation_class(AffineSpec(13, 8), 1)
    assert verify_translation_class(AffineSpec(13, 8), 3)
    assert verify_translation_class(AffineSpec(7, 3), 2)
    # composite modulus: the power set is strictly smaller than the layer
    assert not verify_translation_class(AffineSpec(21, 11), 2)


def test_translation_class_all_primes():
    for spec in connected_affine_specs(13, prime_only=True):
        n = spec.order_of_multiplier
        for k in range(1, n):
            assert verify_translation_class(spec, k), (spec, k)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(list(connected_affine_specs(19))), st.data())
def test_normal_form_multiplication_rule(spec, data):
    # normal form (i, j) is the map x -> t^i x + j (1 - t), so composing
    # (i1, j1) after (i2, j2) scales the second shift by t^i1
    pres = presentation(spec)
    m, n = pres.modulus, pres.scaling_order
    t = pres.multiplier
    i1 = data.draw(st.integers(min_value=0, max_value=n - 1))
    j1 = data.draw(st.integers(min_value=0, max_value=m - 1))
    i2 = data.draw(st.integers(min_value=0, max_value=n - 1))
    j2 = data.draw(st.integers(min_value=0, max_value=m - 1))
    g = element_from_normal_form(pres, i1, j1)
    h = element_from_normal_form(pres, i2, j2)
    i, j = normal_form(g * h, pres)
    assert i == (i1 + i2) % n
    assert j == (j1 + j2 * pow(t, i1, m)) % m
