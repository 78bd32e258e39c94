"""End-to-end acceptance checks, one per headline property.

Each test prints a single PASS line (run with -s to see them); a failure
raises before the line is printed.  These are slower than the module
tests: the first criterion alone sweeps every prime modulus up to 47.
"""

import time

from quandlekit import (
    AbelianGroup,
    AffineSpec,
    abelian_affine_quandle,
    abelian_types,
    affine_extension,
    affine_quandle,
    affine_tensor_class,
    affine_tensor_class_swapped,
    automorphism_group,
    automorphism_permutations,
    burnside_rank,
    class_label,
    conjugacy_classes,
    cycle_structure,
    decompose_prime_affine,
    dihedral_quandle,
    double_cosets,
    element_from_normal_form,
    geometric_sum,
    inner_group,
    is_connected,
    is_gelfand_pair,
    is_multiplicity_free,
    is_prime,
    normal_form,
    permutation_character,
    predicted_tau_size,
    presentation,
    right_translation,
    stabilizer,
    tau_quotient,
    tensor_square,
    translation_power_exponents,
    trivial_quandle,
    units,
    validate_quandle,
)
from conftest import connected_affine_specs

FULL_AUTOMORPHISM_SWEEP_LIMIT = 500


def _prime_specs(max_order):
    return connected_affine_specs(max_order, prime_only=True)


def test_criterion_1_prime_affine_sweep():
    started = time.time()
    swept = 0
    for spec in _prime_specs(47):
        swept += 1
        p, n = spec.modulus, spec.order_of_multiplier
        layer_count = (p - 1) // n
        quandle = affine_quandle(spec)
        group = inner_group(quandle)
        assert len(group.elements) == p * n, spec

        classes = conjugacy_classes(group)
        assert len(classes) == n + layer_count, spec
        expected_sizes = sorted([1] + [p] * (n - 1) + [n] * layer_count)
        assert sorted(classes.sizes) == expected_sizes, spec

        pres = presentation(spec)
        chi = permutation_character(group, classes)
        for rep, value in zip(classes.representatives, chi.values):
            label = class_label(pres, rep)
            if label == ("identity",):
                assert value == p, spec
            elif label[0] == "layer":
                assert value == 1, spec
            else:
                assert value == 0, spec

        result = decompose_prime_affine(spec)
        induced = {k: v for k, v in result.multiplicities.items() if k.startswith("ind:")}
        linear = {k: v for k, v in result.multiplicities.items() if k.startswith("lin:")}
        assert result.multiplicities["triv"] == 1, spec
        assert len(induced) == layer_count and set(induced.values()) == {1}, spec
        assert all(v == 0 for v in linear.values()), spec
        assert result.is_multiplicity_free, spec

        square = tensor_square(quandle)
        assert len(square) == 1 + layer_count, spec
        quotient = tau_quotient(square)
        if n % 2 == 0:
            assert len(quotient) == 1 + layer_count, spec
        else:
            assert len(quotient) == 1 + (p - 1) // (2 * n), spec
        assert len(quotient) == predicted_tau_size(spec), spec
        assert burnside_rank(group) == len(square), spec

    elapsed = time.time() - started
    assert elapsed < 120, f"sweep took {elapsed:.1f}s, budget is 120s"
    print(
        f"\ncriterion 1 PASS: {swept} prime affine specs (p <= 47): inner "
        f"order, class data, character pattern, decomposition, tensor and tau "
        f"all verified in {elapsed:.1f}s"
    )


def test_criterion_2_tensor_examples():
    spec8 = AffineSpec(13, 8)
    square8 = tensor_square(affine_quandle(spec8))
    assert square8.representatives == ((0, 0), (0, 1), (0, 2), (0, 4))
    assert len(tau_quotient(square8)) == 4

    spec9 = AffineSpec(13, 9)
    square9 = tensor_square(affine_quandle(spec9))
    assert len(square9) == 5
    quotient9 = tau_quotient(square9)
    assert quotient9.representatives == ((0, 0), (0, 1), (0, 2))

    # swap images as set equalities, both in closed form and enumerated
    assert affine_tensor_class_swapped(spec9, 1) == affine_tensor_class(spec9, 4)
    assert affine_tensor_class_swapped(spec9, 2) == affine_tensor_class(spec9, 7)
    by_rep = {cls[0]: frozenset(cls) for cls in square9.classes}
    swapped_1 = frozenset((y, x) for x, y in by_rep[(0, 1)])
    swapped_2 = frozenset((y, x) for x, y in by_rep[(0, 2)])
    assert swapped_1 == by_rep[(0, 4)]
    assert swapped_2 == by_rep[(0, 7)]

    print(
        "\ncriterion 2 PASS: (13,8) classes (0,0),(0,1),(0,2),(0,4) with tau 4; "
        "(13,9) 5 classes, tau {(0,0),(0,1),(0,2)}, swap images verified as "
        "set equalities"
    )


def test_criterion_3_cycle_structure():
    q = affine_quandle(AffineSpec(21, 11))
    r0 = right_translation(q, 0)
    assert r0.cycles() == (
        (1, 11, 16, 8, 4, 2),
        (3, 12, 6),
        (5, 13, 17, 19, 20, 10),
        (7, 14),
        (9, 15, 18),
    )
    nontrivial = [c for c in cycle_structure(r0) if c > 1]
    assert len(set(nontrivial)) > 1  # mixed lengths: the property fails here

    checked = 0
    for spec in _prime_specs(47):
        p, n = spec.modulus, spec.order_of_multiplier
        expected = tuple(sorted([1] + [n] * ((p - 1) // n)))
        quandle = affine_quandle(spec)
        for j in range(p):
            assert cycle_structure(right_translation(quandle, j)) == expected, (spec, j)
            checked += 1

    print(
        f"\ncriterion 3 PASS: (21,11) translation decomposes as "
        f"(1 11 16 8 4 2)(3 12 6)(5 13 17 19 20 10)(7 14)(9 15 18) with mixed "
        f"cycle lengths; uniform type confirmed for {checked} translations "
        f"across all prime specs p <= 47"
    )


def test_criterion_4_order12_counterexample(order12):
    validate_quandle(order12.table)
    group = inner_group(order12)
    assert len(group.elements) == 24
    rank = burnside_rank(group)
    assert rank == 7  # 1+1+1+4 = sum of squared multiplicities

    verdict = is_multiplicity_free(order12)
    assert not verdict.value
    assert verdict.witness is not None
    witness_text = verdict.witness.describe()

    stab = stabilizer(group, 0)
    assert not is_gelfand_pair(group, stab)

    print(
        f"\ncriterion 4 PASS: bundled order-12 quandle validates, inner order "
        f"24, rank 7, not multiplicity free ({witness_text}), not a Gelfand "
        f"pair"
    )


def test_criterion_5_affine_scan():
    started = time.time()
    swept = 0
    failures = []
    for spec in connected_affine_specs(47):
        swept += 1
        quandle = affine_quandle(spec)
        verdict = is_multiplicity_free(quandle)
        if not verdict.value:
            failures.append(spec)
    assert not failures, failures
    elapsed = time.time() - started
    print(
        f"\ncriterion 5 PASS: all {swept} connected affine specs with "
        f"m <= 47 are multiplicity free by exact orbital commutation "
        f"({elapsed:.1f}s, zero failures)"
    )


def test_criterion_6_abelian_extension_suite(order12):
    started = time.time()
    instances = 0
    cross_checked = 0
    for order in range(1, 31):
        for moduli in abelian_types(order):
            group = AbelianGroup(moduli)
            autos = automorphism_permutations(group)
            if len(autos) <= FULL_AUTOMORPHISM_SWEEP_LIMIT:
                sweep = autos
            else:
                # conjugate automorphisms give isomorphic pairs, so class
                # representatives cover every verdict
                aut = automorphism_group(group)
                sweep = list(conjugacy_classes(aut).representatives)
            for f in sweep:
                big, small = affine_extension(group, f)
                part = double_cosets(big, small)
                assert is_gelfand_pair(big, small, part), (moduli, f)
                instances += 1

                quandle = abelian_affine_quandle(group, f)
                if is_connected(quandle):
                    orbital = is_multiplicity_free(quandle)
                    assert orbital.value, (moduli, f)
                    cross_checked += 1

    # reduction soundness spot check: verdicts are constant on conjugacy
    # classes of Aut (exercised on a group small enough to sweep fully)
    spot = AbelianGroup((2, 2, 2))
    aut = automorphism_group(spot)
    verdicts = {}
    for f in aut.elements:
        big, small = affine_extension(spot, f)
        verdicts[f] = is_gelfand_pair(big, small)
    for cls in conjugacy_classes(aut).classes:
        assert len({verdicts[f] for f in cls}) == 1

    # the order-12 counterexample runs both tests too, and they agree there
    group12 = inner_group(order12)
    both = (
        bool(is_multiplicity_free(order12)),
        is_gelfand_pair(group12, stabilizer(group12, 0)),
    )
    assert both == (False, False)

    elapsed = time.time() - started
    print(
        f"\ncriterion 6 PASS: {instances} abelian extension pairs over all "
        f"isomorphism types of order <= 30 (full sweep when |Aut| <= "
        f"{FULL_AUTOMORPHISM_SWEEP_LIMIT}, conjugacy representatives above) "
        f"all have commutative double-coset algebras; orbital test agrees on "
        f"{cross_checked} connected instances and on the order-12 negative "
        f"({elapsed:.1f}s)"
    )


def test_criterion_7_structural_identities(order12):
    started = time.time()

    # normal form bijectivity on every inner group element, m <= 21
    round_tripped = 0
    for spec in connected_affine_specs(21):
        pres = presentation(spec)
        group = inner_group(affine_quandle(spec))
        forms = set()
        for g in group.elements:
            i, j = normal_form(g, pres)
            assert element_from_normal_form(pres, i, j) == g, (spec, i, j)
            forms.add((i, j))
        assert len(forms) == len(group.elements) == spec.modulus * spec.order_of_multiplier
        round_tripped += len(forms)

    # translation powers and commutation relations, exhaustive for p <= 23
    power_checks = 0
    relation_checks = 0
    for spec in _prime_specs(23):
        p, n = spec.modulus, spec.order_of_multiplier
        t = spec.multiplier
        pres = presentation(spec)
        quandle = affine_quandle(spec)
        r, s = pres.translation, pres.scaling
        for j in range(p):
            rj = right_translation(quandle, j)
            current = rj ** 0
            for k in range(p * n):
                i, shift = translation_power_exponents(pres, j, k)
                assert shift == j * geometric_sum(t, k, p) % p
                assert element_from_normal_form(pres, i, shift) == current, (spec, j, k)
                current = current * rj
                power_checks += 1
        for i in range(n):
            si = s ** i
            for j in range(p):
                rj_power = r ** j
                left = si * rj_power
                assert left == r ** (j * pow(t, i, p)) * si, (spec, i, j)
                assert rj_power * si == si * r ** (j * pow(pres.inverse_multiplier, i, p))
                relation_checks += 2
        assert s.inverse() * r * s == r ** pres.inverse_multiplier

    # Burnside rank equals the tensor-class count on the whole suite
    suite = [affine_quandle(s) for s in connected_affine_specs(21)]
    suite.append(order12)
    suite.extend(trivial_quandle(k) for k in (1, 2, 3, 4))
    suite.extend(dihedral_quandle(k) for k in (3, 5, 7, 9))
    for quandle in suite:
        assert burnside_rank(inner_group(quandle)) == len(tensor_square(quandle))

    elapsed = time.time() - started
    print(
        f"\ncriterion 7 PASS: normal form round-trips {round_tripped} inner "
        f"elements (m <= 21); {power_checks} translation-power identities and "
        f"{relation_checks} commutation relations exhaustive for p <= 23; "
        f"Burnside rank matches tensor count on {len(suite)} suite quandles "
        f"({elapsed:.1f}s)"
    )
