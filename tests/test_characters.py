"""Character theory of the inner groups of prime affine quandles."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

import quandlekit.cayley
import quandlekit.characters
import quandlekit.inner
from quandlekit import (
    AffineSpec,
    BadParameters,
    ClassFunction,
    GroupMismatch,
    Permutation,
    PermutationGroup,
    affine_quandle,
    burnside_rank,
    class_label,
    close_group,
    conjugacy_classes,
    conjugate_orbit,
    decompose_prime_affine,
    inertia_group_size,
    inner_group,
    inner_product,
    metacyclic_irreducibles,
    multiplicative_order,
    permutation_character,
    presentation,
    trivial_character,
    units,
)
from conftest import connected_affine_specs

PRIMES_TO_23 = [3, 5, 7, 11, 13, 17, 19, 23]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _unit_of_order(p, n):
    for u in range(2, p):
        if multiplicative_order(u, p) == n:
            return u
    raise AssertionError(f"no unit of order {n} mod {p}")


def test_class_function_requires_one_value_per_class():
    g = inner_group(affine_quandle(AffineSpec(5, 2)))
    classes = conjugacy_classes(g)
    integral_float = (1,) * (len(classes.classes) - 1) + (1.0,)
    for values in [(1, 2), integral_float]:
        with pytest.raises(ValueError):
            ClassFunction(classes=classes, values=values)


def test_permutation_character_pattern():
    spec = AffineSpec(13, 8)
    group = inner_group(affine_quandle(spec))
    classes = conjugacy_classes(group)
    pres = presentation(spec)
    chi = permutation_character(group, classes)
    assert all(isinstance(v, int) for v in chi.values)
    for rep, value in zip(classes.representatives, chi.values):
        label = class_label(pres, rep)
        if label == ("identity",):
            assert value == 13
        elif label[0] == "layer":
            assert value == 1
        else:
            assert value == 0


def test_trivial_appears_once_in_transitive_character():
    group = inner_group(affine_quandle(AffineSpec(13, 8)))
    classes = conjugacy_classes(group)
    chi = permutation_character(group, classes)
    triv = trivial_character(classes)
    assert inner_product(chi, triv) == Fraction(1)


def test_inner_product_exact_path():
    group = inner_group(affine_quandle(AffineSpec(13, 8)))
    chi = permutation_character(group)
    norm = inner_product(chi, chi)
    assert isinstance(norm, Fraction)
    assert norm == Fraction(4)


def test_inner_product_rejects_mismatched_groups():
    a = permutation_character(inner_group(affine_quandle(AffineSpec(5, 2))))
    b = permutation_character(inner_group(affine_quandle(AffineSpec(7, 3))))
    with pytest.raises(GroupMismatch):
        inner_product(a, b)


def test_classes_of_another_group_with_the_same_labels_are_foreign():
    # both groups have order 2 on 4 points, so their class labels agree
    first = close_group([Permutation.from_cycles(4, [(0, 1)])])
    second = close_group([Permutation.from_cycles(4, [(2, 3)])])
    classes = conjugacy_classes(first)
    assert np.array_equal(classes.labels, conjugacy_classes(second).labels)
    assert not classes.same_classes(conjugacy_classes(second))
    with pytest.raises(GroupMismatch):
        permutation_character(second, classes)


def test_burnside_rank_examples():
    assert burnside_rank(inner_group(affine_quandle(AffineSpec(13, 8)))) == 4
    assert burnside_rank(inner_group(affine_quandle(AffineSpec(13, 9)))) == 5
    s3 = close_group(
        [Permutation.from_cycles(3, [(0, 1, 2)]), Permutation.from_cycles(3, [(0, 1)])]
    )
    assert burnside_rank(s3) == 2


def test_burnside_rank_non_transitive_diagnostic():
    frozen = PermutationGroup.from_elements([Permutation.identity(2)])
    assert burnside_rank(frozen) == 4


def test_conjugate_orbit_examples():
    assert conjugate_orbit(13, 5, 1) == frozenset({1, 5, 8, 12})
    assert conjugate_orbit(13, 8, 1) == frozenset({1, 5, 8, 12})
    assert conjugate_orbit(13, 5, 2) == frozenset({2, 3, 10, 11})
    assert conjugate_orbit(7, 2, 3) == frozenset({3, 6, 5})


def test_inertia_group_size():
    assert inertia_group_size(5, 4, 2, 0) == 20
    assert inertia_group_size(5, 4, 2, 3) == 5
    assert inertia_group_size(13, 4, 5, 1) == 13


def test_family_structure_13():
    fam = metacyclic_irreducibles(13, 4, 5)
    assert fam.induced_indices == (1, 2, 4)
    assert fam.irreducible_labels() == (
        "triv", "lin:1", "lin:2", "lin:3", "ind:1", "ind:2", "ind:4",
    )
    degrees = [fam.degree(irr) for irr in fam.irreducible_labels()]
    assert sum(d * d for d in degrees) == 52
    assert len(fam.labels()) == 7
    assert sum(fam.class_size(lab) for lab in fam.labels()) == 52


def test_family_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        metacyclic_irreducibles(12, 2, 5)
    with pytest.raises(BadParameters):
        metacyclic_irreducibles(13, 4, 3)  # 3 has order 3 mod 13


def _orthogonality_defect(fam):
    order = fam.prime * fam.automorphism_order
    labels = fam.labels()
    worst = 0.0
    irrs = fam.irreducible_labels()
    for a in irrs:
        for b in irrs:
            total = sum(
                fam.class_size(lab) * fam.value(a, lab) * fam.value(b, lab).conjugate()
                for lab in labels
            )
            expected = order if a == b else 0.0
            worst = max(worst, abs(total - expected))
    return worst


def test_orthogonality_all_small_primes():
    for p in PRIMES_TO_23:
        for n in _divisors(p - 1):
            if n == 1:
                continue
            fam = metacyclic_irreducibles(p, n, _unit_of_order(p, n))
            assert _orthogonality_defect(fam) < 1e-8, (p, n)


def test_layer_sum_matches_character_values():
    for p in PRIMES_TO_23:
        for u in units(p):
            n = multiplicative_order(u, p)
            if n == 1:
                continue
            fam = metacyclic_irreducibles(p, n, u)
            for irr in fam.irreducible_labels():
                total = sum(fam.value(irr, ("layer", i)) for i in range(1, n))
                assert abs(fam.layer_sum(irr) - total) < 1e-9, (p, u, irr)


def test_orthogonality_spot_check_47():
    fam = metacyclic_irreducibles(47, 23, _unit_of_order(47, 23))
    assert _orthogonality_defect(fam) < 1e-7


def _induced_matrices(p, n, u, k):
    """Representing matrices (translation_image, scaling_image) of the
    degree-n induced representation at index k: a diagonal of p-th roots
    w^(u^a k) and the basis rotation e_a -> e_(a+1)."""
    exponents = [pow(u, a, p) * k % p for a in range(n)]
    diag = np.diag([cmath.exp(2j * cmath.pi * e / p) for e in exponents])
    shift = np.zeros((n, n), dtype=complex)
    for a in range(n):
        shift[(a + 1) % n, a] = 1
    return diag, shift


def test_induced_matrices_satisfy_presentation():
    p, n, u, k = 13, 4, 5, 1
    diag, shift = _induced_matrices(p, n, u, k)
    t = pow(u, -1, p)
    left = shift @ diag @ np.linalg.inv(shift)
    right = np.linalg.matrix_power(diag, t)
    assert np.allclose(left, right, atol=1e-10)
    assert np.allclose(np.linalg.matrix_power(shift, n), np.eye(n), atol=1e-10)
    assert np.allclose(np.linalg.matrix_power(diag, p), np.eye(n), atol=1e-10)


def test_induced_traces_match_character_values():
    p, n, u = 13, 4, 5
    fam = metacyclic_irreducibles(p, n, u)
    for k in fam.induced_indices:
        diag, shift = _induced_matrices(p, n, u, k)
        for j in range(1, p):
            tr = np.trace(np.linalg.matrix_power(diag, j))
            assert abs(tr - fam.value(f"ind:{k}", ("shift", j))) < 1e-10
        for i in range(1, n):
            tr = np.trace(np.linalg.matrix_power(shift, i))
            assert abs(tr - fam.value(f"ind:{k}", ("layer", i))) < 1e-10


def test_class_label_examples():
    spec = AffineSpec(13, 8)
    pres = presentation(spec)
    assert class_label(pres, Permutation.identity(13)) == ("identity",)
    assert class_label(pres, pres.translation) == ("shift", 1)
    assert class_label(pres, pres.scaling) == ("layer", 1)
    assert class_label(pres, pres.translation ** 2) == ("shift", 2)
    assert class_label(pres, pres.translation ** 5) == ("shift", 1)


def test_class_label_is_constant_on_classes():
    spec = AffineSpec(13, 9)
    pres = presentation(spec)
    group = inner_group(affine_quandle(spec))
    classes = conjugacy_classes(group)
    for cls in classes.classes:
        labels = {class_label(pres, g) for g in cls}
        assert len(labels) == 1, labels


def test_decompose_13_8():
    result = decompose_prime_affine(AffineSpec(13, 8))
    assert result.nonzero() == {"triv": 1, "ind:1": 1, "ind:2": 1, "ind:4": 1}
    assert result.rank == 4
    assert result.is_multiplicity_free


def test_decompose_5_2():
    result = decompose_prime_affine(AffineSpec(5, 2))
    assert result.nonzero() == {"triv": 1, "ind:1": 1}
    assert result.rank == 2


def test_decompose_5_4():
    result = decompose_prime_affine(AffineSpec(5, 4))
    assert result.nonzero() == {"triv": 1, "ind:1": 1, "ind:2": 1}
    assert result.rank == 3


def test_character_route_reuses_the_callers_quandle_inn_and_classes(monkeypatch):
    calls = {"validate_quandle": 0, "close_group": 0, "_semidirect_rows": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(quandlekit.cayley, "validate_quandle")
    counted(quandlekit.inner, "close_group")
    counted(quandlekit.inner, "_semidirect_rows")
    spec = AffineSpec(13, 8)
    quandle = affine_quandle(spec)
    group = inner_group(quandle)
    classes = conjugacy_classes(group)
    presentation(spec)
    permutation_character(group, classes)
    decompose_prime_affine(spec)
    # the spec's quandle carries (Z_13, x -> 8 x): Inn is listed once, not closed
    assert calls == {"validate_quandle": 1, "close_group": 0, "_semidirect_rows": 1}
    assert affine_quandle(spec) is quandle
    assert conjugacy_classes(group).classes is classes.classes


def test_character_route_builds_fewer_permutations_than_the_group(monkeypatch):
    spec = AffineSpec(47, 2)
    group = inner_group(affine_quandle(spec))
    assert len(group) == 1081
    built = 0
    trusted = Permutation._trusted.__func__

    def counted(cls, images):
        nonlocal built
        built += 1
        return trusted(cls, images)

    monkeypatch.setattr(Permutation, "_trusted", classmethod(counted))
    permutation_character(group, conjugacy_classes(group))
    decompose_prime_affine(spec)
    assert built < len(group)


def _complex_multiplicities(spec):
    """Multiplicities by the complex inner product of the permutation
    character with every irreducible of MetacyclicFamily.value, each
    rounded to the nearest integer within 1e-6."""
    pres = presentation(spec)
    group = inner_group(affine_quandle(spec))
    classes = conjugacy_classes(group)
    chi = permutation_character(group, classes)
    fam = metacyclic_irreducibles(
        spec.modulus, spec.order_of_multiplier, pres.inverse_multiplier
    )
    labels = [class_label(pres, rep) for rep in classes.representatives]
    out = {}
    for irr in fam.irreducible_labels():
        total = sum(
            size * value * fam.value(irr, label).conjugate()
            for size, value, label in zip(classes.sizes, chi.values, labels)
        )
        val = total / len(group)
        m = round(val.real)
        assert abs(val - m) < 1e-6, (spec, irr, val)
        out[irr] = m
    return out


def test_decompose_matches_complex_inner_products():
    for spec in connected_affine_specs(23, prime_only=True):
        assert decompose_prime_affine(spec).multiplicities == _complex_multiplicities(spec), spec


@pytest.mark.parametrize("kind", ["identity", "shift", "layer"])
def test_decompose_rejects_a_permutation_character_off_the_pattern(monkeypatch, kind):
    spec = AffineSpec(13, 8)
    pres = presentation(spec)
    original = quandlekit.characters.permutation_character

    def corrupted(group, classes=None):
        chi = original(group, classes)
        values = list(chi.values)
        k = next(
            i for i, rep in enumerate(chi.classes.representatives)
            if class_label(pres, rep)[0] == kind
        )
        values[k] += 1
        return ClassFunction(classes=chi.classes, values=tuple(values))

    monkeypatch.setattr(quandlekit.characters, "permutation_character", corrupted)
    with pytest.raises(ArithmeticError):
        decompose_prime_affine(spec)


def test_decompose_rejects_bad_specs():
    with pytest.raises(BadParameters):
        decompose_prime_affine(AffineSpec(21, 11))
    with pytest.raises(BadParameters):
        decompose_prime_affine(AffineSpec(7, 1))


def test_decomposition_matches_burnside_rank():
    for spec in connected_affine_specs(23, prime_only=True):
        result = decompose_prime_affine(spec)
        assert result.is_multiplicity_free
        group = inner_group(affine_quandle(spec))
        assert result.rank == burnside_rank(group), spec
        n = spec.order_of_multiplier
        assert result.rank == 1 + (spec.modulus - 1) // n


def test_linear_characters_absent_except_trivial():
    for spec in [AffineSpec(13, 8), AffineSpec(11, 4)]:
        result = decompose_prime_affine(spec)
        for irr, mult in result.multiplicities.items():
            if irr.startswith("lin:"):
                assert mult == 0, (spec, irr)
