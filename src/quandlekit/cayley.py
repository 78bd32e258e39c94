"""Finite quandles as explicit Cayley tables, each held as one read-only array.

Tables are oriented so that table[x][y] = x > y (right action), hence the
right translation by y is the column map x -> table[x][y].  Building a
CayleyQuandle validates its table, checking axiom 3 only at z < k, where
0..k-1 generate the quandle under >.  That suffices: if R_a and R_b are
bijective endomorphisms, so is R_{a>b} = R_b R_a R_b^-1, so the z whose R_z
is one form a subquandle, and holding 0..k-1 it holds every point.  The
same identity puts every R_y in <R_0..R_{k-1}>, which is therefore Inn.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .modular import multiplicative_order
from .perms import (Permutation, PermutationRows, _element_keys, _greedy_generators,
                    _integers, _locate, _memoised, _orbit_labels, close_group)

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


class CayleyQuandle:
    """An n x n Cayley table over {0..n-1}, checked when built: an input
    that is not a quandle raises as validate_quandle documents.

    The quandle holds ``_array``, its table as a read-only intp array, and
    ``_prefix``, the k for which 0..k-1 generate it; equality and hashing
    read the array.  ``table``, the same table as a tuple of int tuples, is
    built on first read and memoised beside the array (perms._memoised), as
    are the quandle's inner group and tensor square.
    """

    def __init__(self, table):
        self._array, self._prefix = _checked(table)

    @property
    @_memoised
    def table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._array.tolist()))

    @property
    def order(self) -> int:
        return len(self._array)

    def op(self, x: int, y: int) -> int:
        return int(self._array[x, y])

    def __eq__(self, other) -> bool:
        return isinstance(other, CayleyQuandle) and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash(self._array.tobytes())

    def __repr__(self) -> str:
        return f"CayleyQuandle(order={self.order})"


# Entries of (x > y) > z compared per step in the axiom-3 check.
_AXIOM3_CHUNK = 1 << 14


def _generating_prefix(T: np.ndarray) -> int:
    """The least k in 1, 2, 4, ... (capped at n) such that 0..k-1 generate
    the quandle under >; one closure grows as k doubles."""
    inside = np.zeros(len(T), dtype=bool)
    k = 0
    while not inside.all():
        k = min(len(T), 2 * k or 1)
        inside[:k] = True
        size = 0
        while size < np.count_nonzero(inside):
            members = np.flatnonzero(inside)
            size = members.size
            inside[T[members][:, members]] = True
    return k


def _axiom3_witness(T: np.ndarray, k: int):
    """The first (x, y, z) with z < k, in lexicographic order, at which
    (x > y) > z != (x > z) > (y > z); None when there is none."""
    n = len(T)
    Tk = T[:, :k]
    block = max(1, _AXIOM3_CHUNK // (n * k))
    for start in range(0, n, block):
        Tx = Tk[start : start + block]
        # [x, y, z]: (x > y) > z against (x > z) > (y > z)
        mismatch = Tk[T[start : start + block]] != T[Tx[:, None, :], Tk[None, :, :]]
        first = int(mismatch.argmax())
        if mismatch.flat[first]:
            x, y, z = np.unravel_index(first, mismatch.shape)
            return (start + int(x), int(y), int(z))
    return None


def _checked(table) -> tuple[np.ndarray, int]:
    """The table as a read-only intp array and its generating prefix k,
    after the checks validate_quandle documents."""
    n = len(table) if isinstance(table, np.ndarray) and table.dtype.kind in "iu" else 0
    if n and table.shape == (n, n) and ((0 <= table) & (table < n)).all():
        T = table.astype(np.intp)
    else:
        rows = tuple(map(tuple, table))
        n = len(rows)
        if n == 0:
            raise ValueError("empty table")
        for x, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {x} has length {len(row)}, expected {n}")
            if not _integers(row) or min(row) < 0 or max(row) >= n:
                y, v = next((y, v) for y, v in enumerate(row)
                            if not (_integers([v]) and 0 <= v < n))
                problem = (f"{v}, outside 0..{n - 1}" if _integers([v])
                           else f"{v!r}, not an integer")
                raise ValueError(f"entry at ({x}, {y}) is {problem}")
        T = np.array(rows, dtype=np.intp)
    points = np.arange(n)
    bad = np.flatnonzero(T[points, points] != points)
    if bad.size:
        raise AxiomViolation(1, (int(bad[0]),))
    bad = np.flatnonzero((np.sort(T, axis=0) != points[:, None]).any(axis=0))
    if bad.size:
        raise AxiomViolation(2, (int(bad[0]),))
    k = _generating_prefix(T)
    if _axiom3_witness(T, k) is not None:
        raise AxiomViolation(3, _axiom3_witness(T, n))
    T.flags.writeable = False
    return T, k


def validate_quandle(table) -> CayleyQuandle:
    """The quandle of ``table``, a sequence of rows or an integer ndarray.

    Checks shape, entries (Python or numpy integers in 0..n-1, not bools)
    and the three axioms.  Shape and entry errors raise ValueError naming
    the first offending row or entry in row-major order; a failed axiom raises
    AxiomViolation with the first witness, in axiom order.  Axiom 3 is
    checked at z < k (module docstring), over blocks of x; only if that
    fails are all n columns scanned, for the first witness (x, y, z)."""
    return CayleyQuandle(table)


@dataclass(frozen=True)
class AffineSpec:
    """Parameters (m, t) of the affine quandle x > y = t x + (1 - t) y mod m.

    The multiplier is normalized mod m and must be a unit.  The quandle is
    connected exactly when 1 - t is also a unit.

    affine_quandle and inner.presentation are memoised on the spec
    (perms._memoised), outside its fields, so equality, hashing and repr
    see (m, t) only.  Through that quandle every caller holding this spec
    object shares one inner group, one class split and one tensor square;
    an equal spec builds its own."""

    modulus: int
    multiplier: int

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


@_memoised
def affine_quandle(spec: AffineSpec) -> CayleyQuandle:
    """The validated table of the spec's quandle; memoised on the spec, so
    every call with one spec object returns the same quandle."""
    m, t = spec.modulus, spec.multiplier
    x = np.arange(m)
    return validate_quandle((t * x[:, None] + (1 - t) % m * x) % m)


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
    return Permutation._trusted(q._array[:, y].tolist())


def left_division(q: CayleyQuandle, x: int, y: int) -> int:
    """The unique z with z > y = x."""
    if not (0 <= x < q.order and 0 <= y < q.order):
        raise ValueError("element out of range")
    return int((q._array[:, y] == x).argmax())


def is_latin(q: CayleyQuandle) -> bool:
    """True when every row map x -> y > x is also a bijection."""
    return bool((np.sort(q._array, axis=1) == np.arange(q.order)).all())


def is_fixed_point_free(perm: Permutation) -> bool:
    """True when perm fixes no point but 0, the relevant notion for a group
    automorphism (which always fixes the identity, 0).  For an affine
    quandle this holds for the translation R_0 exactly when the quandle is
    latin."""
    return all(y != x for x, y in enumerate(perm.images) if x)


def _indices_of_all(group, perms, message: str) -> np.ndarray:
    """Indices of ``perms`` in G by key lookup; NotAutomorphism(message) unless they are G."""
    rows = [p.images for p in perms if isinstance(p, Permutation) and p.degree == group.degree]
    index, found = _locate(group, np.array(rows, dtype=np.intp).reshape(-1, group.degree))
    if not (len(rows) == len(perms) == len(group) == np.unique(index[found]).size):
        raise NotAutomorphism(message)
    return index


def coset_quandle(group, subgroup_generators, automorphism) -> CayleyQuandle:
    """Quandle on the right cosets Hx of a permutation group G.

    ``automorphism`` maps every element of G to its image (a dict); it must
    be a bijective homomorphism, checked on generators read off G's image
    array, fixing the subgroup H generated by ``subgroup_generators``
    pointwise.  The operation is
    Hx > Hy = H phi(x y^-1) y.  Cosets are indexed by their least member.
    Elements are located by G's key lookup (perms._locate): phi is an index
    array and the cosets are the orbits of x -> h x.
    """
    E, keys, elements = group.images, _element_keys(group), PermutationRows(group.images)
    base = keys.base_length
    source = _indices_of_all(group, automorphism,
                             "map must be defined on exactly the group elements")
    target = _indices_of_all(group, automorphism.values(), "map is not a bijection onto the group")
    phi = target[np.argsort(source)]
    left = _greedy_generators(group, np.arange(len(E)))[1]
    # phi(g x) against phi(g) phi(x) at each generator g (g times the identity) and every x
    bad = phi[left] != keys.lookup(E[phi[left[:, :1, None]], E[phi, :base]])
    if bad.any():
        g, x = np.unravel_index(bad.argmax(), bad.shape)
        raise NotAutomorphism(f"not multiplicative at ({elements[left[g, 0]]!r}, {elements[x]!r})")
    sub_gens = tuple(subgroup_generators)
    if not all(h in group for h in sub_gens):
        raise ValueError("subgroup generator outside the group")
    members = _locate(group, close_group(sub_gens).images)[0] if sub_gens else np.zeros(1, np.intp)
    moved = members[phi[members] != members]
    if moved.size:
        raise NotCentralized(f"map moves subgroup element {elements[moved[0]]!r}")
    label = _orbit_labels(_greedy_generators(group, members)[1])  # the least member of each Hx
    reps, coset = np.unique(label, return_inverse=True)
    R = E[reps]
    # phi(x_a x_b^-1) x_b for all pairs (a, b) of coset representatives
    quotient = phi[keys.lookup(R[:, np.argsort(R, axis=1)[:, :base]])]
    return validate_quandle(coset[keys.lookup(E[quotient[:, :, None], R[:, :base]])])
