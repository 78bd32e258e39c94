"""Finite quandles as explicit Cayley tables, each held as one read-only array.

Tables are oriented so that table[x][y] = x > y (right action), hence the
right translation by y is the column map x -> table[x][y].  In a quandle
R_{s>y} = R_y R_s R_y^-1, so the subquandle generated by S is the union of
the orbits of S under <R_s : s in S>, a group that is then Inn.  Validation
grows a generating set S from (0, 1): it labels the orbits of <R_s : s in S>
and, while some orbit holds no point of S, adds the least points of the
first |S| such orbits, so |S| at most doubles per labelling.  Once every
orbit holds a point of S, S generates, and the quandle is connected when
every label is 0.  Axiom 3 is checked at z in S only.  On bijective
columns that suffices: for bijective endomorphisms R_s and R_z, so are
R_{R_s(z)} = R_s R_z R_s^-1 and R_{R_s^-1(z)} = R_s^-1 R_z R_s, so such z are
closed under R_s and R_s^-1 for every such s; holding S, they hold all.

affine_quandle and abelian.abelian_affine_quandle both build Aff(A, f),
x > y = f(x) + y - f(y), with _aff_quandle, from A's addition table on
the points (0 its zero) and f as an index array.  A connected result keeps
the two, read-only, beside its validated table as CayleyQuandle._affine;
inner.inner_group and tensor.tensor_square read it in closed form, through
_affine_of, which first ties it to the table.  Every other quandle, a bare
copy of such a table included, keeps None there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd

import numpy as np

from .modular import multiplicative_order
from .perms import (Permutation, PermutationRows, _GATHER_CHUNK, _dtype_for, _greedy_generators,
                    _integers, _inverse, _locate, _memoised, _orbit_labels, _product,
                    close_group)

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

    The quandle holds ``_array``, its table as a read-only intp array,
    ``_generators``, an ascending tuple of points that generate it, and
    ``_connected``, both found by validation (module docstring); equality
    and hashing read the array.  ``table``, the same table as a tuple of
    int tuples, is built on first read and memoised beside the array
    (perms._memoised), as are the quandle's inner group and tensor square.

    ``_affine`` is None or (add, f) (module docstring); it holds no
    spec, group or quandle.
    """

    _affine: tuple[np.ndarray, np.ndarray] | None = None

    def __init__(self, table):
        self._array, self._generators, self._connected = _checked(table)

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


def _generating_set(T: np.ndarray) -> tuple[tuple[int, ...], bool]:
    """A generating set S of the quandle, grown from (0, 1) (module
    docstring), and whether the quandle is connected; R_0 fixes 0, so
    S = (0,) only when n = 1.  The least points come from a boolean mask,
    not np.setdiff1d, which imports numpy.ma on its first call."""
    n = len(T)
    S = list(range(min(n, 2)))
    while True:
        label = _orbit_labels(T.T[S])
        free = label == np.arange(n)  # the least point of each orbit
        free[label[S]] = False
        fresh = np.flatnonzero(free)[: len(S)]
        if not fresh.size:
            return tuple(S), not label.any()
        S += fresh.tolist()


def _axiom3_witness(T: np.ndarray, columns, stop: int):
    """The first (x, y, z) with z in ``columns`` (ascending) and x < stop,
    in lexicographic order, at which (x > y) > z != (x > z) > (y > z); None
    when there is none.  Compares perms._GATHER_CHUNK entries per block of x."""
    n = len(T)
    Tk = T[:, columns]
    block = max(1, _GATHER_CHUNK // (n * len(columns)))
    for start in range(0, stop, block):
        end = min(start + block, stop)
        # [x, y, z]: (x > y) > z against (x > z) > (y > z)
        mismatch = Tk[T[start:end]] != T[Tk[start:end, None, :], Tk[None, :, :]]
        first = int(mismatch.argmax())
        if mismatch.flat[first]:
            x, y, z = np.unravel_index(first, mismatch.shape)
            return (start + int(x), int(y), columns[z])
    return None


def _checked(table) -> tuple[np.ndarray, tuple[int, ...], bool]:
    """The table as a read-only intp array, its generating set and whether
    it is connected, after the checks validate_quandle documents."""
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
    generators, connected = _generating_set(T)
    witness = _axiom3_witness(T, generators, n)
    if witness is not None:
        # the first witness over every z comes no later, so at no larger x
        raise AxiomViolation(3, _axiom3_witness(T, range(n), witness[0] + 1))
    T.flags.writeable = False
    return T, generators, connected


def validate_quandle(table) -> CayleyQuandle:
    """The quandle of ``table``, a sequence of rows or an integer ndarray.

    Checks shape, entries (Python or numpy integers in 0..n-1, not bools)
    and the three axioms.  Shape and entry errors raise ValueError naming
    the first offending row or entry in row-major order; a failed axiom raises
    AxiomViolation with the first witness, in axiom order.  Axiom 3 is
    checked at z in the generating set (module docstring), over blocks of
    x; only if that fails are all n columns scanned, up to the x at which
    it failed, for the first witness (x, y, z)."""
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


def _aff_quandle(add: np.ndarray, f: np.ndarray) -> CayleyQuandle:
    """The validated Aff(A, f), x > y = f(x) + (y - f(y)): the rows f(x) of
    A's addition table add (0 its zero), then its columns y - f(y), -a
    being where row a holds 0, its least entry.  The caller vouches that
    the index array f is additive.  A connected result carries (add, f),
    read-only, as its ``_affine``."""
    drift = add[np.arange(len(f)), add.argmin(axis=1)[f]]  # y - f(y)
    q = validate_quandle(add[f][:, drift])
    if q._connected:
        add.flags.writeable = f.flags.writeable = False
        q.__dict__["_affine"] = (add, f)
    return q


@_memoised
def _affine_of(q: CayleyQuandle) -> tuple[np.ndarray, np.ndarray] | None:
    """The (add, f) that q carries, or None, once the table agrees with it:
    R_s is x -> f(x) + R_s(0) for each s in the generating set.  As R_s
    fixes s, R_s(0) is s - f(s), and as 0 is in the set, column 0 is f.
    Checked once per quandle (memoised); raises QuandleError at the first
    (x, s) where the table differs."""
    if q._affine is None:
        return None
    (add, f), S = q._affine, list(q._generators)
    columns = q._array[:, S]
    bad = columns != add[f[:, None], columns[0]]
    if bad.any():
        x, s = np.argwhere(bad)[0].tolist()
        raise QuandleError(f"carried Aff(A, f) disagrees with the table at (x, s) = ({x}, {S[s]})")
    return q._affine


@_memoised
def affine_quandle(spec: AffineSpec) -> CayleyQuandle:
    """The validated table of the spec's quandle, Aff(Z_m, x -> t x)
    (_aff_quandle); memoised on the spec, so every call with one spec
    object returns the same quandle."""
    m, t = spec.modulus, spec.multiplier
    x = np.arange(m)
    return _aff_quandle(((x[:, None] + x) % m).astype(_dtype_for(m)), t * x % m)


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
    if not (len(rows) == len(perms) == len(group)
            and np.bincount(index[found], minlength=len(group)).all()):
        raise NotAutomorphism(message)
    return index


def coset_quandle(group, subgroup_generators, automorphism) -> CayleyQuandle:
    """Quandle on the right cosets Hx of a permutation group G.

    ``automorphism`` maps every element of G to its image (a dict); it must
    be a bijective homomorphism, checked on generators read off G's image
    array, fixing the subgroup H generated by ``subgroup_generators``
    pointwise.  The operation is
    Hx > Hy = H phi(x y^-1) y.  Cosets are indexed by their least member.
    phi is an array of element indices, the cosets are the orbits of
    x -> h x, and perms._product and _inverse locate every product.
    """
    rows = PermutationRows(group.images)
    source = _indices_of_all(group, automorphism,
                             "map must be defined on exactly the group elements")
    target = _indices_of_all(group, automorphism.values(), "map is not a bijection onto the group")
    phi = target[np.argsort(source)]
    generators, left = _greedy_generators(group, np.arange(len(group)))
    # phi(g x) against phi(g) phi(x) at each generator g and every x
    bad = phi[left] != _product(group, phi[generators, None], phi)
    if bad.any():
        g, x = np.unravel_index(bad.argmax(), bad.shape)
        raise NotAutomorphism(f"not multiplicative at ({rows[generators[g]]!r}, {rows[x]!r})")
    sub_gens = tuple(subgroup_generators)
    if not all(h in group for h in sub_gens):
        raise ValueError("subgroup generator outside the group")
    members = _locate(group, close_group(sub_gens).images)[0] if sub_gens else np.zeros(1, np.intp)
    moved = members[phi[members] != members]
    if moved.size:
        raise NotCentralized(f"map moves subgroup element {rows[moved[0]]!r}")
    label = _orbit_labels(_greedy_generators(group, members)[1])  # the least member of each Hx
    reps, coset = np.unique(label, return_inverse=True)
    # phi(x_a x_b^-1) x_b for all pairs (a, b) of coset representatives
    quotient = phi[_product(group, reps[:, None], _inverse(group, reps))]
    return validate_quandle(coset[_product(group, quotient, reps)])
