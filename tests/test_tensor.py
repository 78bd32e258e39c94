"""Tensor squares, the swap quotient, and their affine closed forms."""

import random

import numpy as np
import pytest

from quandlekit import (
    AffineSpec,
    affine_quandle,
    affine_tensor_class,
    affine_tensor_class_swapped,
    burnside_rank,
    dihedral_quandle,
    inner_group,
    is_connected,
    orbital_invariant,
    predicted_tau_size,
    predicted_tensor_size,
    tau_quotient,
    tensor_square,
    trivial_quandle,
    validate_quandle,
)
from quandlekit.perms import _orbit_labels
from conftest import connected_affine_specs, reference_tensor_classes


def test_tensor_square_13_8():
    ts = tensor_square(affine_quandle(AffineSpec(13, 8)))
    assert len(ts) == 4
    assert ts.representatives == ((0, 0), (0, 1), (0, 2), (0, 4))
    assert ts.sizes == (13, 52, 52, 52)


def test_tensor_square_13_9():
    ts = tensor_square(affine_quandle(AffineSpec(13, 9)))
    assert len(ts) == 5
    assert ts.representatives == ((0, 0), (0, 1), (0, 2), (0, 4), (0, 7))
    assert ts.sizes == (13, 39, 39, 39, 39)


def test_tau_quotient_13_8_merges_nothing():
    ts = tensor_square(affine_quandle(AffineSpec(13, 8)))
    tau = tau_quotient(ts)
    assert len(tau) == 4
    assert tau.representatives == ts.representatives
    assert tau.merged_from == ((0,), (1,), (2,), (3,))


def test_tau_quotient_13_9_pairs_opposites():
    ts = tensor_square(affine_quandle(AffineSpec(13, 9)))
    tau = tau_quotient(ts)
    assert len(tau) == 3
    assert tau.representatives == ((0, 0), (0, 1), (0, 2))
    assert tau.merged_from == ((0,), (1, 3), (2, 4))


def test_tensor_classes_partition_pair_space():
    for spec in [AffineSpec(13, 8), AffineSpec(21, 11)]:
        q = affine_quandle(spec)
        ts = tensor_square(q)
        seen = sorted(p for cls in ts.classes for p in cls)
        assert seen == [(x, y) for x in range(q.order) for y in range(q.order)]
        assert seen == sorted(set(seen))


def test_class_of_lookup():
    ts = tensor_square(affine_quandle(AffineSpec(13, 8)))
    for idx, cls in enumerate(ts.classes):
        for pair in cls:
            assert ts.class_of(pair) == idx
    with pytest.raises(KeyError):
        ts.class_of((13, 0))


def test_diagonal_is_first_class():
    for spec in connected_affine_specs(13):
        ts = tensor_square(affine_quandle(spec))
        assert ts.representatives[0] == (0, 0)
        assert ts.sizes[0] == spec.modulus


def test_closed_form_matches_enumeration():
    for spec in connected_affine_specs(23, prime_only=True):
        q = affine_quandle(spec)
        ts = tensor_square(q)
        for cls in ts.classes:
            x, y = cls[0]
            assert set(cls) == affine_tensor_class(spec, y - x), (spec, cls[0])


def test_swapped_class_is_class_of_negated_difference():
    spec = AffineSpec(13, 9)
    for d in range(13):
        swapped = affine_tensor_class_swapped(spec, d)
        assert swapped == affine_tensor_class(spec, -d)


def test_swap_examples_13_9():
    spec = AffineSpec(13, 9)
    assert affine_tensor_class_swapped(spec, 1) == affine_tensor_class(spec, 4)
    assert affine_tensor_class_swapped(spec, 2) == affine_tensor_class(spec, 7)


def test_orbital_invariant_classifies_pairs():
    for spec in connected_affine_specs(23, prime_only=True):
        q = affine_quandle(spec)
        ts = tensor_square(q)
        for idx, cls in enumerate(ts.classes):
            labels = {orbital_invariant(spec, pair) for pair in cls}
            assert len(labels) == 1, (spec, idx)
        reps = ts.representatives
        rep_labels = [orbital_invariant(spec, pair) for pair in reps]
        assert len(set(rep_labels)) == len(reps)


def test_orbital_invariant_pair_examples():
    spec = AffineSpec(13, 8)
    assert orbital_invariant(spec, (0, 0)) == 0
    assert orbital_invariant(spec, (0, 1)) == orbital_invariant(spec, (2, 7))
    spec = AffineSpec(13, 9)
    assert orbital_invariant(spec, (0, 1)) != orbital_invariant(spec, (1, 0))
    with pytest.raises(ValueError):
        orbital_invariant(spec, (0, 13))


def test_orbital_invariant_requires_prime():
    with pytest.raises(ValueError):
        orbital_invariant(AffineSpec(21, 11), (0, 1))


def test_predictions_match_enumeration():
    for spec in connected_affine_specs(23, prime_only=True):
        q = affine_quandle(spec)
        ts = tensor_square(q)
        assert len(ts) == predicted_tensor_size(spec), spec
        assert len(tau_quotient(ts)) == predicted_tau_size(spec), spec


def test_prediction_parity_rule():
    # even multiplier order keeps every class, odd order halves the rest
    assert predicted_tensor_size(AffineSpec(13, 8)) == 4
    assert predicted_tau_size(AffineSpec(13, 8)) == 4
    assert predicted_tensor_size(AffineSpec(13, 9)) == 5
    assert predicted_tau_size(AffineSpec(13, 9)) == 3


def test_tensor_count_equals_burnside_rank():
    for spec in connected_affine_specs(17):
        q = affine_quandle(spec)
        assert len(tensor_square(q)) == burnside_rank(inner_group(q)), spec


def test_trivial_quandle_pairs_are_singletons():
    ts = tensor_square(trivial_quandle(3))
    assert len(ts) == 9
    assert all(size == 1 for size in ts.sizes)
    tau = tau_quotient(ts)
    assert len(tau) == 6


def test_singleton_quandle():
    ts = tensor_square(trivial_quandle(1))
    assert len(ts) == 1
    assert ts.classes == (((0, 0),),)


def test_order12_tensor_and_tau(order12):
    ts = tensor_square(order12)
    assert len(ts) == 7
    tau = tau_quotient(ts)
    assert len(tau) == 6
    assert sum(ts.sizes) == 144


def _reference_tau(classes):
    """(classes, merged_from) of the swap quotient: each class united with
    the class of its swapped pairs, ordered by least pair."""
    index = {pair: i for i, cls in enumerate(classes) for pair in cls}
    merged = {}
    for i, cls in enumerate(classes):
        x, y = cls[0]
        group = tuple(sorted({i, index[(y, x)]}))
        merged[group] = tuple(sorted(p for k in group for p in classes[k]))
    ordered = sorted(merged.items(), key=lambda item: item[1][0])
    return tuple(c for _, c in ordered), tuple(g for g, _ in ordered)


def _relabelled(q, rng):
    n = q.order
    sigma = list(range(n))
    rng.shuffle(sigma)
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[sigma[x]][sigma[y]] = sigma[q.table[x][y]]
    return validate_quandle(table)


def test_tensor_square_and_tau_match_plain_search_on_relabelled_tables(order12):
    rng = random.Random(10)
    sources = [
        order12,
        dihedral_quandle(9),
        dihedral_quandle(6),
        trivial_quandle(3),
        affine_quandle(AffineSpec(13, 9)),
        affine_quandle(AffineSpec(13, 8)),
        affine_quandle(AffineSpec(21, 11)),
        affine_quandle(AffineSpec(9, 4)),
    ]
    for source in sources:
        for _ in range(2):
            q = _relabelled(source, rng)
            n = q.order
            expected = reference_tensor_classes(q)
            ts = tensor_square(q)
            assert ts.classes == expected
            assert len(ts) == len(expected)
            assert ts.representatives == tuple(c[0] for c in expected)
            assert ts.sizes == tuple(len(c) for c in expected)
            for idx, cls in enumerate(expected):
                assert all(ts.class_of(pair) == idx for pair in cls)
            for pair in ((n, 0), (0, n), (-1, 0)):
                with pytest.raises(KeyError):
                    ts.class_of(pair)
            tau = tau_quotient(ts)
            tau_classes, merged_from = _reference_tau(expected)
            assert tau.merged_from == merged_from
            assert tau.classes == tau_classes
            assert len(tau) == len(tau_classes)
            assert tau.representatives == tuple(c[0] for c in tau_classes)
            assert tau.sizes == tuple(len(c) for c in tau_classes)


def test_connected_affine_quandles_are_generated_by_0_and_1():
    assert all(affine_quandle(spec)._generators == (0, 1) for spec in connected_affine_specs(47))


def test_generating_prefix_gives_the_orbits_of_all_translations(order12):
    """tensor_square and is_connected act by the translations of the
    generating set; all n translations must give the same orbits."""
    quandles = [affine_quandle(spec) for spec in connected_affine_specs(47)]
    quandles += [order12, trivial_quandle(5), dihedral_quandle(9),
                 _relabelled(affine_quandle(AffineSpec(11, 2)), random.Random(11))]
    for q in quandles:
        n = q.order
        columns = np.array(q.table).T
        maps = (columns[:, :, None] * n + columns[:, None, :]).reshape(n, n * n)
        labels = np.unique(_orbit_labels(maps), return_inverse=True)[1]
        assert np.array_equal(tensor_square(q).labels, labels), q.table
        assert is_connected(q) == (not _orbit_labels(columns).any()), q.table


def test_bare_tensor_square_labels_int32_pair_maps(monkeypatch, order12):
    """A table that carries no Aff(A, f) is labelled over int32 pair maps
    while n^2 fits; the partition keeps the values and the intp dtypes the
    int64 maps gave.  On the bundled table and on Aff(Z_25, 7) relabelled."""
    from quandlekit import TensorSquare, tensor

    seen = []
    labels = tensor._orbit_labels
    monkeypatch.setattr(tensor, "_orbit_labels",
                        lambda maps: seen.append(maps.dtype) or labels(maps))
    affine = affine_quandle(AffineSpec(25, 7))
    sigma = list(range(25))
    random.Random(11).shuffle(sigma)
    relabelled = np.empty((25, 25), dtype=np.intp)
    relabelled[np.ix_(sigma, sigma)] = np.array(sigma)[affine._array]
    for quandle in (validate_quandle(order12._array), validate_quandle(relabelled)):
        n = quandle.order
        square = tensor_square(quandle)
        columns = quandle._array.T[list(quandle._generators)].astype(np.int64)
        maps = (columns[:, :, None] * n + columns[:, None, :]).reshape(-1, n * n)
        reference = TensorSquare.from_least(labels(maps), order=n)
        for field in ("labels", "starts", "counts"):
            got, want = getattr(square, field), getattr(reference, field)
            assert got.dtype == want.dtype == np.intp and np.array_equal(got, want), field
    assert seen == [np.int32, np.int32]
    assert len(tensor_square(affine)) == len(square) and seen == [np.int32, np.int32]
