"""Shared helpers for the suite: spec enumeration, a plain reference for
tensor classes and small fixtures."""

import itertools

import pytest

from quandlekit.abelian import (
    AbelianGroup,
    abelian_types,
    affine_extension,
    automorphism_permutations,
)
from quandlekit.cayley import AffineSpec, validate_quandle
from quandlekit.inner import inner_group
from quandlekit.modular import is_prime, units
from quandlekit.perms import Permutation, PermutationGroup, close_group, stabilizer
from quandlekit.tables import bundled_order12

# A trivial point beside the dihedral quandle of order 3: its rows have
# fibers (4,) and (2, 1, 1), so it is no affine quandle.
MIXED_ORDER4 = [[0, 0, 0, 0], [1, 1, 3, 2], [2, 3, 2, 1], [3, 2, 1, 3]]


def connected_affine_specs(max_order, prime_only=False):
    """Yield every connected affine spec with modulus up to max_order; the
    multiplier 1 never qualifies, so all specs have n > 1.  A spec holds
    the quandle, inner group and tensor square built from it, so a sweep
    that keeps no spec frees what each one built before the next."""
    for m in range(3, max_order + 1):
        if prime_only and not is_prime(m):
            continue
        for t in units(m):
            spec = AffineSpec(m, t)
            if spec.is_connected_admissible:
                yield spec


def reference_tensor_classes(q):
    """Orbits of the pair space by plain breadth-first search under the
    right translations, each sorted, ordered by least pair."""
    n = q.order
    table = q.table
    seen = set()
    classes = []
    for start in ((x, y) for x in range(n) for y in range(n)):
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            fresh = []
            for a, b in frontier:
                for g in range(n):
                    pair = (table[a][g], table[b][g])
                    if pair not in orbit:
                        orbit.add(pair)
                        fresh.append(pair)
            frontier = fresh
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def differential_pairs(order12):
    """(G, K) pairs with known double cosets: A x| <f> over <f> for every
    automorphism f of every abelian group of order <= 12 (288 pairs),
    S4 over nine of its subgroups, and the order-12 inner group over each
    point stabilizer."""
    for order in range(1, 13):
        for moduli in abelian_types(order):
            abelian = AbelianGroup(moduli)
            for f in automorphism_permutations(abelian):
                yield affine_extension(abelian, f)
    s4 = close_group(
        [Permutation.from_cycles(4, [(0, 1, 2, 3)]), Permutation.from_cycles(4, [(0, 1)])]
    )
    subgroups = [
        close_group([Permutation.from_cycles(4, [(0, 1)])]),
        close_group([Permutation.from_cycles(4, [(0, 1, 2)])]),
        close_group([Permutation.from_cycles(4, [(0, 1), (2, 3)])]),
        PermutationGroup.from_elements([Permutation.identity(4)]),
        s4,
    ]
    subgroups += [stabilizer(s4, point) for point in range(4)]
    for sub in subgroups:
        yield s4, sub
    group = inner_group(order12)
    for point in range(12):
        yield group, stabilizer(group, point)


def transposition_quandle(degree):
    """The transpositions of S_degree, as pairs a < b in lex order, with
    x > y = y x y: conjugating (a b) by y gives (y(a) y(b))."""
    points = list(itertools.combinations(range(degree), 2))
    index = {point: i for i, point in enumerate(points)}

    def conjugate(x, y):
        swap = {y[0]: y[1], y[1]: y[0]}
        return index[tuple(sorted(swap.get(v, v) for v in x))]

    return validate_quandle([[conjugate(x, y) for y in points] for x in points])


@pytest.fixture(scope="session")
def order12():
    return bundled_order12()
