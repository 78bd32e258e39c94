"""Finite quandles as explicit Cayley tables.

Tables are oriented so that table[x][y] = x > y (right action), hence the
right translation by y is the column map x -> table[x][y].  All constructors
run the full axiom check before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .modular import multiplicative_order
from .perms import Permutation, close_group

_AXIOM_NAMES = {
    1: "idempotence",
    2: "right invertibility",
    3: "right self-distributivity",
}


class QuandleError(Exception):
    pass


class AxiomViolation(QuandleError):
    """One of the three quandle axioms fails; carries the first witness.

    axiom 1: x > x != x, witness (x,)
    axiom 2: some column is not a bijection, witness (y,)
    axiom 3: (x>y)>z != (x>z)>(y>z), witness (x, y, z)
    """

    def __init__(self, axiom: int, witness):
        self.axiom = axiom
        self.witness = tuple(witness)
        super().__init__(
            f"axiom {axiom} ({_AXIOM_NAMES[axiom]}) fails at {self.witness}"
        )


class NotAUnit(QuandleError):
    pass


class NotAutomorphism(QuandleError):
    pass


class NotCentralized(QuandleError):
    pass


@dataclass(frozen=True)
class CayleyQuandle:
    """An n x n Cayley table over {0..n-1}; build via validate_quandle.

    inner_generators, inner_group and tensor_square memoise their results
    in the attributes below, which are not fields, so equality and hashing
    see the table only.  No memoised object may refer back to the quandle:
    that cycle would keep the inner group alive until the cyclic gc runs.
    """

    table: tuple[tuple[int, ...], ...]

    _inner_generators = None
    _inner_group = None
    _tensor_square = None

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(int(v) for v in row) for row in self.table))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "CayleyQuandle":
        """Wrap rows that are already tuples of ints, without copying."""
        q = cls.__new__(cls)
        object.__setattr__(q, "table", rows)
        return q

    @property
    def order(self) -> int:
        return len(self.table)

    def op(self, x: int, y: int) -> int:
        return self.table[x][y]

    def __repr__(self) -> str:
        return f"CayleyQuandle(order={self.order})"


# Entries of (x > y) > z compared per step in the axiom-3 check.
_AXIOM3_CHUNK = 1 << 14


def validate_quandle(table) -> CayleyQuandle:
    """Check shape, entry range and the three axioms; raise AxiomViolation
    with the first witness found, in axiom order.

    Shape and range errors name the first offending row or entry in
    row-major order.  The axioms are checked on a numpy array; axiom 3
    compares (x > y) > z with (x > z) > (y > z) over blocks of x, so the
    first failing flat index is the first (x, y, z) in lexicographic
    order."""
    rows = tuple(tuple(map(int, row)) for row in table)
    n = len(rows)
    if n == 0:
        raise ValueError("empty table")
    for x, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"row {x} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            y = next(y for y, v in enumerate(row) if not 0 <= v < n)
            raise ValueError(f"entry at ({x}, {y}) is {row[y]}, outside 0..{n - 1}")
    T = np.array(rows, dtype=np.min_scalar_type(n - 1))
    points = np.arange(n)
    bad = np.flatnonzero(T[points, points] != points)
    if bad.size:
        raise AxiomViolation(1, (int(bad[0]),))
    bad = np.flatnonzero((np.sort(T, axis=0) != points[:, None]).any(axis=0))
    if bad.size:
        raise AxiomViolation(2, (int(bad[0]),))
    block = max(1, _AXIOM3_CHUNK // (n * n))
    for start in range(0, n, block):
        Tx = T[start : start + block]
        # [x, y, z]: (x > y) > z against (x > z) > (y > z)
        mismatch = T[Tx] != T[Tx[:, None, :], T[None, :, :]]
        first = int(mismatch.argmax())
        if mismatch.flat[first]:
            x, y, z = np.unravel_index(first, mismatch.shape)
            raise AxiomViolation(3, (start + int(x), int(y), int(z)))
    return CayleyQuandle._trusted(rows)


@dataclass(frozen=True)
class AffineSpec:
    """Parameters (m, t) of the affine quandle x > y = t x + (1 - t) y mod m.

    The multiplier is normalized mod m and must be a unit.  The quandle is
    connected exactly when 1 - t is also a unit.

    affine_quandle memoises the validated quandle in ``_quandle``, which is
    not a field, so equality, hashing and repr see (m, t) only.  Through
    that quandle every caller holding this spec object shares one inner
    group, one class split and one tensor square.  Nothing memoised refers
    back to the spec, so it is freed with its last reference, not by the
    cyclic gc."""

    modulus: int
    multiplier: int

    _quandle = None

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be at least 1")
        t = self.multiplier % self.modulus
        object.__setattr__(self, "multiplier", t)
        if gcd(t, self.modulus) != 1:
            raise NotAUnit(f"{t} is not a unit modulo {self.modulus}")

    @cached_property
    def order_of_multiplier(self) -> int:
        return multiplicative_order(self.multiplier, self.modulus)

    @property
    def inverse_multiplier(self) -> int:
        if self.modulus == 1:
            return 0
        return pow(self.multiplier, -1, self.modulus)

    @property
    def is_connected_admissible(self) -> bool:
        return gcd(1 - self.multiplier, self.modulus) == 1


def affine_quandle(spec: AffineSpec) -> CayleyQuandle:
    """The validated table of the spec's quandle; memoised on the spec, so
    every call with one spec object returns the same quandle."""
    if spec._quandle is None:
        m, t = spec.modulus, spec.multiplier
        c = (1 - t) % m
        q = validate_quandle([[(t * x + c * y) % m for y in range(m)] for x in range(m)])
        object.__setattr__(spec, "_quandle", q)
    return spec._quandle


def trivial_quandle(n: int) -> CayleyQuandle:
    """x > y = x for all x, y."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return validate_quandle([[x] * n for x in range(n)])


def dihedral_quandle(n: int) -> CayleyQuandle:
    """Reflections of the n-gon: x > y = 2y - x mod n."""
    if n < 1:
        raise ValueError("order must be at least 1")
    return validate_quandle([[(2 * y - x) % n for y in range(n)] for x in range(n)])


def right_translation(q: CayleyQuandle, y: int) -> Permutation:
    """The column permutation x -> x > y."""
    if not 0 <= y < q.order:
        raise ValueError("element out of range")
    return Permutation(q.table[x][y] for x in range(q.order))


def left_division(q: CayleyQuandle, x: int, y: int) -> int:
    """The unique z with z > y = x."""
    col = [q.table[z][y] for z in range(q.order)]
    return col.index(x)


def is_latin(q: CayleyQuandle) -> bool:
    """True when every row map x -> y > x is also a bijection."""
    n = q.order
    return all(len(set(row)) == n for row in q.table)


def is_fixed_point_free(perm: Permutation, base_point: int = 0) -> bool:
    """True when perm fixes nothing outside the base point, the relevant
    notion for a group automorphism (which always fixes the identity).
    For an affine quandle this holds for the translation R_0 exactly when
    the quandle is latin."""
    return all(y != x for x, y in enumerate(perm.images) if x != base_point)


def coset_quandle(group, subgroup_generators, automorphism) -> CayleyQuandle:
    """Quandle on the right cosets Hx of a permutation group G.

    ``automorphism`` maps every element of G to its image (a dict); it must
    be a bijective homomorphism fixing the subgroup H generated by
    ``subgroup_generators`` pointwise.  The operation is
    Hx > Hy = H phi(x y^-1) y.  Cosets are indexed by their least member.
    """
    elements = set(group.elements)
    if set(automorphism) != elements:
        raise NotAutomorphism("map must be defined on exactly the group elements")
    if set(automorphism.values()) != elements:
        raise NotAutomorphism("map is not a bijection onto the group")
    for g in group.generators:
        pg = automorphism[g]
        for x in group.elements:
            if automorphism[g * x] != pg * automorphism[x]:
                raise NotAutomorphism(f"not multiplicative at ({g!r}, {x!r})")
    sub_gens = tuple(subgroup_generators)
    for h in sub_gens:
        if h not in group:
            raise ValueError("subgroup generator outside the group")
    if sub_gens:
        subgroup = close_group(sub_gens)
        members = subgroup.elements
    else:
        members = (group.identity(),)
    for h in members:
        if automorphism[h] != h:
            raise NotCentralized(f"map moves subgroup element {h!r}")

    coset_index: dict[tuple, int] = {}
    reps: list[Permutation] = []
    for g in group.elements:
        if g.images in coset_index:
            continue
        coset = sorted((h * g for h in members), key=lambda p: p.images)
        idx = len(reps)
        reps.append(coset[0])
        for member in coset:
            coset_index[member.images] = idx

    k = len(reps)
    table = [[0] * k for _ in range(k)]
    for a in range(k):
        xa = reps[a]
        for b in range(k):
            xb = reps[b]
            z = automorphism[xa * xb.inverse()] * xb
            table[a][b] = coset_index[z.images]
    return validate_quandle(table)
