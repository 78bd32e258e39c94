"""Multiplicity-freeness via orbital matrices and via double cosets."""

from collections import Counter

import numpy as np
import pytest

from quandlekit import (
    AbelianGroup,
    AffineSpec,
    NotASubgroup,
    NotConnected,
    Permutation,
    PermutationGroup,
    abelian_types,
    affine_extension,
    affine_quandle,
    automorphism_group,
    automorphism_permutations,
    burnside_rank,
    close_group,
    dihedral_quandle,
    double_cosets,
    inner_generators,
    inner_group,
    is_connected,
    is_gelfand_pair,
    is_multiplicity_free,
    orbits,
    stabilizer,
    tau_quotient,
    tensor_square,
    trivial_quandle,
    validate_quandle,
)
from quandlekit.gelfand import DoubleCosetPartition, _left_coset_stride
from quandlekit.perms import _PRODUCT_CHUNK, _ElementKeys, _element_keys, conjugacy_classes
from conftest import (
    connected_affine_specs,
    differential_pairs,
    reference_tensor_classes,
    transposition_quandle,
)


def _orbital_matrices(q):
    """The 0/1 matrix of each tensor class, in class order: matrix i is
    tensor_square(q).labels.reshape(n, n) == i."""
    ts = tensor_square(q)
    grid = ts.labels.reshape(q.order, q.order)
    return (grid == np.arange(len(ts))[:, None, None]).astype(np.int64)


def _every_class_is_its_own_swap(q):
    """Every orbital matrix is symmetric: no tensor class merges with
    another in the swap quotient."""
    ts = tensor_square(q)
    return len(tau_quotient(ts)) == len(ts)


def test_orbital_matrices_partition_all_ones():
    q = affine_quandle(AffineSpec(13, 8))
    mats = _orbital_matrices(q)
    assert len(mats) == 4
    total = sum(mats)
    assert np.array_equal(total, np.ones((13, 13), dtype=np.int64))
    assert mats[0].trace() == 13  # diagonal class first
    for m in mats[1:]:
        assert m.trace() == 0


def test_orbital_matrices_of_disconnected_quandle():
    # the matrices themselves exist without connectivity
    mats = _orbital_matrices(trivial_quandle(2))
    assert len(mats) == 4
    for m in mats:
        assert m.sum() == 1


def test_orbital_matrices_commute_with_group_action():
    q = affine_quandle(AffineSpec(13, 9))
    group = inner_group(q)
    mats = _orbital_matrices(q)
    for g in group.elements[:10]:
        perm = np.zeros((13, 13), dtype=np.int64)
        for x in range(13):
            perm[g(x), x] = 1
        for m in mats:
            assert np.array_equal(perm @ m, m @ perm)


def test_multiplicity_free_affine_examples():
    for spec in [AffineSpec(13, 8), AffineSpec(13, 9), AffineSpec(5, 2)]:
        result = is_multiplicity_free(affine_quandle(spec))
        assert bool(result)
        assert result.witness is None
        assert result.orbital_count == len(tensor_square(affine_quandle(spec)))


def test_multiplicity_free_requires_connected():
    with pytest.raises(NotConnected):
        is_multiplicity_free(trivial_quandle(3))


def test_order12_not_multiplicity_free(order12):
    result = is_multiplicity_free(order12)
    assert not result
    w = result.witness
    assert w is not None
    assert (w.first, w.second) == (1, 2)
    assert w.left_value != w.right_value
    assert "do not commute" in w.describe()
    # the witness entry really differs in the two products
    mats = _orbital_matrices(order12)
    left = mats[w.first] @ mats[w.second]
    right = mats[w.second] @ mats[w.first]
    assert left[w.row, w.column] == w.left_value
    assert right[w.row, w.column] == w.right_value


def _reference_multiplicity_free(q):
    """(verdict, witness text, class count) by the pairwise matrix loop:
    one 0/1 matrix per reference tensor class, and the first non-commuting
    pair i < j with the first differing product entry in row-major order."""
    n = q.order
    classes = reference_tensor_classes(q)
    count = len(classes)
    mats = [np.zeros((n, n), dtype=np.int64) for _ in range(count)]
    for index, cls in enumerate(classes):
        for x, y in cls:
            mats[index][x, y] = 1
    for i in range(count):
        for j in range(i + 1, count):
            left = mats[i] @ mats[j]
            right = mats[j] @ mats[i]
            if not np.array_equal(left, right):
                row, col = np.argwhere(left != right)[0]
                text = (
                    f"orbital matrices {i} and {j} do not commute: product entry "
                    f"({row},{col}) is {left[row, col]} one way and "
                    f"{right[row, col]} the other"
                )
                return False, text, count
    return True, None, count


def _conjugation_quandles(degree):
    """x > y = y x y^-1 on each nontrivial conjugacy class of S_degree,
    the class listed in image-tuple order."""
    symmetric = close_group([
        Permutation.from_cycles(degree, [tuple(range(degree))]),
        Permutation.from_cycles(degree, [(0, 1)]),
    ])
    for cls in conjugacy_classes(symmetric).classes[1:]:
        index = {p: i for i, p in enumerate(cls)}
        yield validate_quandle([[index[y * x * y.inverse()] for y in cls] for x in cls])


def test_multiplicity_free_matches_pairwise_reference(order12):
    quandles = [q for degree in (4, 5) for q in _conjugation_quandles(degree)]
    quandles = [q for q in quandles if is_connected(q)]
    quandles += [order12, dihedral_quandle(9)]
    quandles += [affine_quandle(s) for s in connected_affine_specs(13)]
    negatives = {}
    for q in quandles:
        result = is_multiplicity_free(q)
        text = None if result.witness is None else result.witness.describe()
        expected = _reference_multiplicity_free(q)
        assert (result.value, text, result.orbital_count) == expected, q
        if not result:
            negatives[q.order] = text
    assert negatives == {
        12: "orbital matrices 1 and 2 do not commute: product entry (0,2) is 0 "
            "one way and 1 the other",
        20: "orbital matrices 1 and 2 do not commute: product entry (0,3) is 0 "
            "one way and 1 the other",
        15: "orbital matrices 1 and 3 do not commute: product entry (0,4) is 0 "
            "one way and 1 the other",
        30: "orbital matrices 1 and 4 do not commute: product entry (0,8) is 1 "
            "one way and 0 the other",
    }


def test_shortcut_implies_multiplicity_free():
    for spec in connected_affine_specs(13):
        q = affine_quandle(spec)
        if _every_class_is_its_own_swap(q):
            assert bool(is_multiplicity_free(q)), spec


def test_shortcut_is_parity_of_multiplier_order():
    # -1 lies in the multiplier subgroup exactly when the order is even
    assert _every_class_is_its_own_swap(affine_quandle(AffineSpec(13, 8)))
    assert not _every_class_is_its_own_swap(affine_quandle(AffineSpec(13, 9)))
    assert bool(is_multiplicity_free(affine_quandle(AffineSpec(13, 9))))


def test_double_cosets_of_point_stabilizer():
    q = affine_quandle(AffineSpec(13, 8))
    group = inner_group(q)
    sub = stabilizer(group, 0)
    part = double_cosets(group, sub)
    assert len(part) == 4
    assert sum(len(c) for c in part.cosets) == 52
    # K itself is the first coset
    assert part.cosets[0] == tuple(sorted(group.index_of(h) for h in sub.elements))
    assert part.representatives[0].is_identity()


def test_double_cosets_trivial_subgroup():
    group = close_group([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    sub = PermutationGroup.from_elements([Permutation.identity(5)])
    part = double_cosets(group, sub)
    assert len(part) == 5
    assert all(len(c) == 1 for c in part.cosets)


def test_double_cosets_whole_group():
    group = close_group([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])])
    part = double_cosets(group, group)
    assert len(part) == 1
    assert len(part.cosets[0]) == 5


def test_double_cosets_rejects_non_subgroup():
    group = close_group([Permutation.from_cycles(4, [(0, 1, 2, 3)])])
    other = close_group([Permutation.from_cycles(4, [(0, 1)])])
    with pytest.raises(NotASubgroup):
        double_cosets(group, other)


def test_gelfand_pair_examples():
    q = affine_quandle(AffineSpec(13, 8))
    group = inner_group(q)
    sub = stabilizer(group, 0)
    assert is_gelfand_pair(group, sub)
    # abelian group with trivial subgroup is always Gelfand
    cyc = close_group([Permutation.from_cycles(7, [(0, 1, 2, 3, 4, 5, 6)])])
    triv = PermutationGroup.from_elements([Permutation.identity(7)])
    assert is_gelfand_pair(cyc, triv)
    assert is_gelfand_pair(cyc, cyc)


def test_order12_pair_is_not_gelfand(order12):
    group = inner_group(order12)
    sub = stabilizer(group, 0)
    assert len(sub.elements) == 2
    part = double_cosets(group, sub)
    assert len(part) == 7
    assert not is_gelfand_pair(group, sub, part)


def test_symmetric_group_with_point_stabilizer_is_gelfand():
    s4 = close_group(
        [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.from_cycles(4, [(0, 1)])]
    )
    sub = stabilizer(s4, 3)
    assert is_gelfand_pair(s4, sub)


def test_verdicts_agree_on_connected_quandles(order12):
    quandles = [affine_quandle(s) for s in connected_affine_specs(13)]
    quandles.append(order12)
    quandles.append(dihedral_quandle(9))
    for q in quandles:
        mf = bool(is_multiplicity_free(q))
        group = inner_group(q)
        sub = stabilizer(group, 0)
        assert is_gelfand_pair(group, sub) == mf


def test_double_coset_count_matches_orbital_count():
    for spec in connected_affine_specs(13):
        q = affine_quandle(spec)
        group = inner_group(q)
        part = double_cosets(group, stabilizer(group, 0))
        assert len(part) == len(tensor_square(q)), spec


def test_base_point_does_not_matter(order12):
    group = inner_group(order12)
    verdicts = set()
    for point in range(12):
        sub = stabilizer(group, point)
        verdicts.add(is_gelfand_pair(group, sub))
    assert verdicts == {False}


def _s4():
    return close_group(
        [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.from_cycles(4, [(0, 1)])]
    )


def test_partition_of_another_pair_is_rejected(order12):
    s4 = _s4()
    s3 = stabilizer(s4, 3)
    group = inner_group(order12)
    sub = stabilizer(group, 0)
    with pytest.raises(ValueError):
        is_gelfand_pair(s4, s3, double_cosets(group, sub))
    with pytest.raises(ValueError):
        is_gelfand_pair(group, sub, double_cosets(s4, s3))
    with pytest.raises(ValueError):
        is_gelfand_pair(s4, s3, double_cosets(s4, stabilizer(s4, 0)))
    assert is_gelfand_pair(s4, s3, double_cosets(s4, s3))


def _reference_double_cosets(group, subgroup):
    """K g K by plain Permutation products: sorted index tuples ordered by
    least member."""
    index = {g: i for i, g in enumerate(group.elements)}
    seen = set()
    cosets = []
    for g in group.elements:
        if g in seen:
            continue
        coset = {h * g * k for h in subgroup.elements for k in subgroup.elements}
        seen |= coset
        cosets.append(tuple(sorted(index[x] for x in coset)))
    return tuple(cosets)


def _reference_is_gelfand(group, cosets):
    """Compare the full coefficient vectors of D_i D_j and D_j D_i."""
    members = [[group.elements[i] for i in c] for c in cosets]

    def product(i, j):
        return Counter(a * b for a in members[i] for b in members[j])

    count = len(members)
    return all(
        product(i, j) == product(j, i) for i in range(count) for j in range(i + 1, count)
    )


def test_double_cosets_and_gelfand_match_reference(order12):
    pairs = 0
    negatives = 0
    for group, sub in differential_pairs(order12):
        part = double_cosets(group, sub)
        expected = _reference_double_cosets(group, sub)
        assert part.cosets == expected, (group, sub)
        assert part.starts.tolist() == [c[0] for c in expected]
        assert part.counts.tolist() == [len(c) for c in expected]
        for i, coset in enumerate(expected):
            assert set(part.labels[list(coset)].tolist()) == {i}
        verdict = is_gelfand_pair(group, sub, part)
        assert verdict == _reference_is_gelfand(group, expected), (group, sub)
        assert type(verdict) is bool
        pairs += 1
        negatives += not verdict
    # 288 pairs (A, f), 9 subgroups of S4 and 12 base points; the negatives
    # are S4 over the trivial group, <(0 1)> and <(0 1)(2 3)>, and the
    # order-12 pair at each of its points
    assert pairs == 309
    assert negatives == 15


def _two_sided_least(group, subgroup):
    """A frozen copy of the two-sided min-label pass: left_min[g], the least
    index of h g over h in K, is the least in the right coset K g, and the
    least of left_min[g k] over k in K is the least in K g K; 2 |K| |G|
    products from base images, in blocks."""
    images = group.images
    keys = _element_keys(group)
    base = images[:, : keys.base_length]
    sub_images = subgroup.images
    sub_base = sub_images[:, : keys.base_length]
    count = len(images)
    step = max(1, _PRODUCT_CHUNK // len(sub_images))
    left_min = np.empty(count, dtype=np.intp)
    label = np.empty(count, dtype=np.intp)
    for start in range(0, count, step):
        block = slice(start, start + step)
        left_min[block] = keys.lookup(sub_images[:, base[block]]).min(axis=0)
    for start in range(0, count, step):
        block = slice(start, start + step)
        label[block] = left_min[keys.lookup(images[block][:, sub_base])].min(axis=1)
    return label


def _stabilizer_pairs(max_order):
    for spec in connected_affine_specs(max_order):
        group = inner_group(affine_quandle(spec))
        yield group, stabilizer(group, 0)


@pytest.mark.parametrize("family", ["affine m <= 47", "differential pairs"])
def test_double_cosets_match_the_two_sided_pass(family, order12):
    pairs = _stabilizer_pairs(47) if family == "affine m <= 47" else differential_pairs(order12)
    count = 0
    for group, sub in pairs:
        part = double_cosets(group, sub)
        reference = DoubleCosetPartition.from_least(_two_sided_least(group, sub),
                                                    group=group, subgroup=sub)
        for field in ("labels", "starts", "counts"):
            got, want = getattr(part, field), getattr(reference, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), (group, sub, field)
        count += 1
    assert count == (377 if family == "affine m <= 47" else 309)


def test_double_cosets_look_up_at_most_two_key_sets_per_doubling(monkeypatch):
    """The maps g -> s g and g -> g s over a greedy generating set S of K,
    |S| <= floor(log2 |K|), take 2 |S| lookups of |G| rows, where the
    two-sided pass took 2 |K| |G|."""
    rows = []
    lookup = _ElementKeys.lookup
    monkeypatch.setattr(_ElementKeys, "lookup",
                        lambda keys, base: rows.append(base[..., 0].size) or lookup(keys, base))
    for quandle in (affine_quandle(AffineSpec(47, 5)), transposition_quandle(6)):
        group = inner_group(quandle)
        sub = stabilizer(group, 0)
        rows.clear()
        part = double_cosets(group, sub)
        assert sum(rows) <= 2 * (len(sub).bit_length() - 1) * len(group), (len(group), len(sub))
        assert len(part) == (2 if quandle.order == 47 else 3)


def test_double_coset_test_memory():
    import tracemalloc

    group = inner_group(affine_quandle(AffineSpec(47, 5)))
    sub = stabilizer(group, 0)
    assert len(group) == 2162
    tracemalloc.start()
    try:
        part = double_cosets(group, sub)
        verdict = is_gelfand_pair(group, sub, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(part) == 2
    assert verdict
    assert peak < 8 * 2**20
    # the |G| x |G| Cayley index table was never built
    assert "_cayley_index_table" not in vars(group)


def test_array_held_group_memory():
    """Closing Inn, its stabilizer, both double-coset routes and the
    Burnside rank work on the image array alone: no Permutation object per
    element is built, and what stays held is about the array and its keys."""
    import tracemalloc

    generators = inner_generators(affine_quandle(AffineSpec(47, 5)))
    tracemalloc.start()
    try:
        group = close_group(generators)
        sub = stabilizer(group, 0)
        part = double_cosets(group, sub)
        verdict = is_gelfand_pair(group, sub, part)
        rank = burnside_rank(group)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(group), len(sub), len(part), verdict, rank) == (2162, 46, 2, True, 2)
    assert peak < 1.5 * 2**20
    assert held < 0.6 * 2**20
    assert "elements" not in vars(group)


def test_tensor_square_memory():
    """The tensor square and the orbital verdict of (47, 5) work on label
    arrays: no tuple per pair and no matrix per class is built or held."""
    import tracemalloc

    quandle = affine_quandle(AffineSpec(47, 5))
    tracemalloc.start()
    try:
        square = tensor_square(quandle)
        result = is_multiplicity_free(quandle)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (len(square), result.value, result.orbital_count) == (2, True, 2)
    assert peak < 0.75 * 2**20
    assert held < 0.1 * 2**20


def _every_element_is_gelfand_pair(group, subgroup, partition):
    """A frozen copy of the Gelfand test that counts every x in G: c_ijk is
    the number of x with x^-1 in D_i and x g_k in D_j, compared with c_jik
    by two sorted key arrays per block of representatives."""
    images = group.images
    keys = _element_keys(group)
    rank = len(partition)
    label = partition.labels
    reps = images[partition.starts]
    inverse_coset = label[keys.lookup(np.argsort(reps, axis=1)[:, : keys.base_length])]
    inverse_label = inverse_coset[label][:, None]
    rep_base = reps[:, : keys.base_length]
    step = max(1, _PRODUCT_CHUNK // len(images))
    for start in range(0, rank, step):
        right = label[keys.lookup(images[:, rep_base[start : start + step]])]
        forward = np.sort(inverse_label * rank + right, axis=0)
        backward = np.sort(right * rank + inverse_label, axis=0)
        if not np.array_equal(forward, backward):
            return False
    return True


def _criterion_6_pairs():
    """(A x| <f>, <f>) over criterion 6's sweep: every abelian type of order
    <= 30, every automorphism, or past 500 of them the representatives of
    Aut(A)'s classes."""
    for order in range(1, 31):
        for moduli in abelian_types(order):
            abelian = AbelianGroup(moduli)
            sweep = automorphism_permutations(abelian)
            if len(sweep) > 500:
                sweep = conjugacy_classes(automorphism_group(abelian)).representatives
            for f in sweep:
                yield affine_extension(abelian, f)


def _fallback_pairs():
    """Pairs whose K is no stabilizer of 0 in a transitive G, so the test
    counts every element: subgroups of Inn(47, 5)'s stabilizer of order 2
    and 23, which fix 0, and its trivial subgroup (none of the three is
    Gelfand); the stabilizer of 5; the whole group; and S3 x S2 on 6
    points over <(1 2)> and over <(3 4)>, which fix 0 and have |K| d = |G|
    in a group that is not transitive (Gelfand over <(1 2)> only)."""
    group = inner_group(affine_quandle(AffineSpec(47, 5)))
    stab = stabilizer(group, 0)
    for order in (2, 23):
        rows = [row for row in stab if (row ** order).is_identity()]
        yield group, PermutationGroup.from_elements(rows)
    yield group, stabilizer(group, 5)
    yield group, PermutationGroup.from_elements([Permutation.identity(47)])
    yield group, group
    # S3 x S2 on {0, 1, 2} and {3, 4}, fixing 5: |G| = 2 d
    product = close_group([Permutation.from_cycles(6, [(0, 1, 2)]),
                           Permutation.from_cycles(6, [(0, 1)]),
                           Permutation.from_cycles(6, [(3, 4)])])
    for swap in ((1, 2), (3, 4)):
        yield product, close_group([Permutation.from_cycles(6, [swap])])


@pytest.mark.parametrize("family", ["affine m <= 47", "differential pairs", "criterion 6",
                                    "no stabilizer of 0"])
def test_gelfand_pair_matches_the_every_element_count(family, order12):
    """One element per left coset z K gives the verdict of counting every
    element.  The coset blocks are read off the sorted rows exactly for a
    stabilizer of 0 in a transitive group."""
    pairs = {"affine m <= 47": lambda: _stabilizer_pairs(47),
             "differential pairs": lambda: differential_pairs(order12),
             "criterion 6": _criterion_6_pairs,
             "no stabilizer of 0": _fallback_pairs}[family]()
    count = negatives = 0
    for group, sub in pairs:
        part = double_cosets(group, sub)
        verdict = is_gelfand_pair(group, sub, part)
        assert verdict == _every_element_is_gelfand_pair(group, sub, part), (group, sub)
        stride = _left_coset_stride(group, sub)
        transitive = len(orbits(group)) == 1
        point_stabilizer = transitive and sub == stabilizer(group, 0)
        assert stride == (len(sub) if point_stabilizer else 1), (group, sub)
        if family == "no stabilizer of 0":
            assert stride == 1
        count += 1
        negatives += not verdict
    assert (count, negatives) == {"affine m <= 47": (377, 0), "differential pairs": (309, 15),
                                  "criterion 6": (1910, 0), "no stabilizer of 0": (7, 4)}[family]


def test_gelfand_pair_looks_up_one_element_per_coset(monkeypatch):
    """On Inn(47, 5) over its stabilizer, r d + r base rows are looked up
    (r d products g_k z and the r inverses of the representatives), not
    the r |G| products of counting every element."""
    group = inner_group(affine_quandle(AffineSpec(47, 5)))
    sub = stabilizer(group, 0)
    part = double_cosets(group, sub)
    rows = []
    lookup = _ElementKeys.lookup
    monkeypatch.setattr(_ElementKeys, "lookup",
                        lambda keys, base: rows.append(base[..., 0].size) or lookup(keys, base))
    assert is_gelfand_pair(group, sub, part)
    rank = len(part)
    assert (rank, len(group)) == (2, 2162)
    assert sum(rows) == rank * 47 + rank
