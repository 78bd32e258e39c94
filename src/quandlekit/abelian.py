"""Finite abelian groups as explicit permutation groups.

Supplies the raw material for the semidirect-product Gelfand tests: every
isomorphism type of a given order (as a tuple of prime-power cyclic
moduli), the full automorphism group, and the group of maps
x -> a + f^i(x) on the underlying set, which realizes A x| <f> together
with its subgroup <f>.

Automorphisms are found by extending generator images one generator at a
time, pruning a partial map as soon as the images chosen so far generate
a subgroup of the wrong order (Hillar and Rhea, "Automorphisms of finite
abelian groups", Amer. Math. Monthly, 2007, give |Aut(A)| in closed form).
The enumeration, the extension and the additivity check that both affine
constructions make work on the n x n addition table of element-list
indices.  The enumeration checks its image array once and keeps it,
read-only; automorphism_permutations is a sequence over its rows that
builds a Permutation only for a row that is read, and automorphism_group,
the extension and the translation group are built from image arrays
alone.  The coordinate array, the table, the image array and that
sequence are memoised on the AbelianGroup (perms._memoised), so
automorphism_group and every extension of one group reuse them.  The
extension is listed already sorted, with no closure (_semidirect_rows),
as inner.inner_group lists Inn of a quandle that carries (A, f), and <f>
is its stabilizer of 0.  The quandle is built by cayley._aff_quandle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .cayley import NotAutomorphism, _aff_quandle
from .perms import (GroupTooLarge, Permutation, PermutationGroup, PermutationRows,
                    _GATHER_CHUNK, _dtype_for, _lexsort_order, _memoised, _powers, stabilizer)

# Largest number of candidate generator-image assignments that
# automorphism_permutations expands; (2,2,2,2), the largest of any type of
# order <= 31, has 16**4 = 65536.
AUTOMORPHISM_CANDIDATE_CAP = 1 << 17


def _partitions(n: int) -> list[tuple[int, ...]]:
    """Partitions of n, parts weakly decreasing."""
    if n == 0:
        return [()]
    out = []

    def extend(rest, largest, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, largest), 0, -1):
            extend(rest - part, part, acc + [part])

    extend(n, n, [])
    return out


def _factorize(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def abelian_types(order: int) -> list[tuple[int, ...]]:
    """Every isomorphism type of abelian group of the given order, as a
    sorted tuple of prime-power cyclic moduli.  Order 1 gives (1,)."""
    if order < 1:
        raise ValueError("order must be positive")
    if order == 1:
        return [(1,)]
    per_prime = []
    for p, e in sorted(_factorize(order).items()):
        per_prime.append([[p**part for part in q] for q in _partitions(e)])
    types = []
    for combo in itertools.product(*per_prime):
        moduli = sorted(m for block in combo for m in block)
        types.append(tuple(moduli))
    return sorted(types)


@dataclass(frozen=True)
class AbelianGroup:
    """A direct sum of cyclic groups, elements stored as coefficient
    tuples in lexicographic order."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli or any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be positive")

    @property
    def order(self) -> int:
        return prod(self.moduli)

    @property
    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(m) for m in self.moduli)))

    def index(self, element: tuple[int, ...]) -> int:
        idx = 0
        for value, modulus in zip(element, self.moduli):
            idx = idx * modulus + value % modulus
        return idx

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def negate(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def translation_group(self) -> PermutationGroup:
        """The regular action of the group on itself, fully enumerated: row
        e of the addition table is the translation by e."""
        return PermutationGroup(_addition_table(self))


def _radix_weights(moduli: np.ndarray) -> np.ndarray:
    """Place values of the coordinates in the element-list index, the last
    coordinate least significant (see AbelianGroup.index)."""
    weights = np.ones(len(moduli), dtype=np.int64)
    for i in range(len(moduli) - 2, -1, -1):
        weights[i] = weights[i + 1] * moduli[i + 1]
    return weights


@_memoised
def _coordinates(group: AbelianGroup) -> np.ndarray:
    """The read-only (n, k) int64 array of the elements' coefficients, in
    element-list order; memoised on the group."""
    coords = np.array(group.elements, dtype=np.int64)
    coords.flags.writeable = False
    return coords


@_memoised
def _addition_table(group: AbelianGroup) -> np.ndarray:
    """The read-only n x n table of element-list indices of a + b;
    memoised on the group."""
    moduli = np.array(group.moduli, dtype=np.int64)
    coords = _coordinates(group)
    table = (coords[:, None, :] + coords[None, :, :]) % moduli @ _radix_weights(moduli)
    table.flags.writeable = False
    return table


def _members(spans: np.ndarray, n: int) -> np.ndarray:
    """[i, x]: whether x is in row i of ``spans``, by one scatter; a sort
    of uint8 rows is several times slower."""
    member = np.zeros((len(spans), n), dtype=bool)
    member[np.arange(len(spans))[:, None], spans] = True
    return member


@_memoised
def _automorphism_images(group: AbelianGroup) -> np.ndarray:
    """The read-only array of every automorphism's image row, one row per
    automorphism, of dtype perms._dtype_for(|A|); memoised on the group.

    A homomorphism is fixed by the images h_1..h_k of the standard
    generators; the image of a generator of order m must itself be killed
    by m.  The maps are extended one generator at a time over the whole
    frontier of partial maps at once.  A partial map is stored as its span,
    the images of <g_1..g_j> in the lexicographic order of the
    coefficients, so the span of a complete map is its image array; spans
    are held in the image dtype, so the last spans are returned uncast.  A
    candidate h for the next generator, of order m, keeps the map
    injective exactly when no c*h with 1 <= c < m lies in the span, since
    then <span, h> has |span| * m elements; the other candidates are
    pruned there.  Survivors are expanded frontier-major, candidate-minor,
    which returns the automorphisms in the itertools.product order of
    their generator images.  Raises GroupTooLarge, before building any
    map, when there are more than AUTOMORPHISM_CANDIDATE_CAP assignments.
    """
    moduli = np.array(group.moduli, dtype=np.int64)
    coords = _coordinates(group)
    weights = _radix_weights(moduli)

    candidate_rows = []
    for pos, m in enumerate(group.moduli):
        ok = np.all(coords * m % moduli == 0, axis=1)
        candidate_rows.append(np.nonzero(ok)[0])
    candidates = prod(len(rows) for rows in candidate_rows)
    if candidates > AUTOMORPHISM_CANDIDATE_CAP:
        raise GroupTooLarge(
            f"{candidates} candidate automorphism maps for {group.moduli}, "
            f"past the cap of {AUTOMORPHISM_CANDIDATE_CAP}"
        )
    dt = _dtype_for(group.order)
    add_table = _addition_table(group).astype(dt)
    spans = np.zeros((1, 1), dtype=dt)
    for rows, m in zip(candidate_rows, group.moduli):
        # multiples[c, i]: index of c * h for the i-th candidate h
        multiples = (
            np.arange(m, dtype=np.int64)[:, None, None] * coords[rows] % moduli @ weights
        ).astype(dt)
        clash = _members(spans, group.order)[:, multiples[1:]].any(axis=1)
        keep, chosen = np.nonzero(~clash)
        spans = add_table[
            spans[keep][:, :, None], multiples[:, chosen].T[:, None, :]
        ].reshape(len(keep), -1)
    if not _members(spans, group.order).all():
        raise RuntimeError(f"a kept map of {group.moduli} is not a bijection")
    spans.flags.writeable = False
    return spans


@_memoised
def automorphism_permutations(group: AbelianGroup) -> PermutationRows:
    """Every automorphism, as a permutation of the element list, in the
    itertools.product order of the generator images: a read-only sequence
    over the rows of _automorphism_images that wraps a row only when it is
    read, so its length builds no Permutation.  Memoised on the group; it
    holds the image array, not the group."""
    return PermutationRows(_automorphism_images(group))


def automorphism_group(group: AbelianGroup) -> PermutationGroup:
    """Aut(A) acting on the element list, built straight from the memoised
    image array with one lexsort, like any other group; its elements are
    wrapped on first read and are not the objects automorphism_permutations
    hands out."""
    return PermutationGroup(_automorphism_images(group))


def _additive(group: AbelianGroup, automorphism: Permutation) -> np.ndarray:
    """f as an int64 index array, once it is checked to be an automorphism:
    a bijection of the element list, so of degree |A|, that is additive.
    Raises ValueError on another degree, and NotAutomorphism naming the
    first pair (a, b) of element-list indices in row-major order with
    f(a + b) != f(a) + f(b), from one gather on the addition table."""
    if automorphism.degree != group.order:
        raise ValueError("automorphism degree must match the group order")
    add_table = _addition_table(group)
    f = np.array(automorphism.images, dtype=np.int64)
    broken = add_table[f[:, None], f] != f[add_table]
    if broken.any():
        a, b = np.argwhere(broken)[0].tolist()
        raise NotAutomorphism(f"not additive at ({a}, {b})")
    return f


def _semidirect_rows(add: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Image rows of A x| <f>, lexsorted, read-only and in _dtype_for(n),
    for an abelian group A on 0..n-1 given by its addition table (0 its
    zero) and an automorphism f given as an index array.  Member (a, i),
    y -> a + f^i(y), has column c add[a, f^i(c)], so its order is read off
    those columns before any row is built; column 0 is a, so each a holds
    k = ord f consecutive sorted rows, and they are gathered in order: the
    group is never held unsorted too."""
    n = len(f)
    dt = _dtype_for(n)
    add = add.astype(dt, copy=False)
    powers = np.array(list(_powers(f.astype(dt, copy=False))))
    k = len(powers)
    order = _lexsort_order(
        n, lambda width: np.take(add, powers[:, :width], axis=1).reshape(-1, width))[0]
    exponent = (order % k).reshape(n, k)  # the i of each sorted member, block a
    rows = np.empty((n, k, n), dtype=dt)
    step = max(1, _GATHER_CHUNK // (k * n))
    for a in range(0, n, step):
        members = np.take(add[a : a + step], powers, axis=1)  # [a, i]: y -> a + f^i(y)
        rows[a : a + step] = members[np.arange(len(members))[:, None], exponent[a : a + step]]
    rows = rows.reshape(-1, n)
    rows.flags.writeable = False
    return rows


def abelian_affine_quandle(group: AbelianGroup, automorphism: Permutation):
    """The quandle x > y = f(x) + y - f(y) on the group's element list.

    Connected exactly when id - f is bijective; its inner group is then
    the extension built by affine_extension with the point stabilizer the
    cyclic subgroup generated by f.  Raises NotAutomorphism when f is not
    additive (_additive).

    A connected result carries the addition table and f as its ``_affine``
    (cayley.CayleyQuandle): inner_group lists Inn as that extension and
    tensor_square reads the class of (x, y) off the <f>-orbit of y - x.
    """
    return _aff_quandle(_addition_table(group), _additive(group, automorphism))


def affine_extension(
    group: AbelianGroup, automorphism: Permutation
) -> tuple[PermutationGroup, PermutationGroup]:
    """The holomorph-style group of maps x -> a + f^i(x) together with the
    cyclic subgroup generated by f.

    Element count is |A| * order(f); the pair realizes (A x| <f>, <f>)
    acting on A.  Every member is one row of a single gather on the
    addition table (_semidirect_rows, which inner.inner_group shares), and
    <f> is the stabilizer of 0, the members with a = 0.  Raises
    NotAutomorphism when f is not additive (_additive).
    """
    f = _additive(group, automorphism)
    big = PermutationGroup._trusted(_semidirect_rows(_addition_table(group), f))
    return big, stabilizer(big, 0)
