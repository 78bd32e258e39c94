"""Multiplicity-freeness and Gelfand pairs by exact integer arithmetic.

Two routes to the same question.  The orbital route materializes each
tensor class as a 0/1 matrix; these matrices span the algebra of
Inn-equivariant endomorphisms of the quandle module, so the module is
multiplicity free exactly when they pairwise commute.  The double-coset
route works inside the integer group ring: (G, K) is a Gelfand pair when
the sums over double cosets K g K commute with each other.  For a
connected quandle with G = Inn and K a point stabilizer the two verdicts
agree, and the test suite leans on that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley import CayleyQuandle
from .inner import is_connected
from .perms import (
    NotASubgroup,
    Permutation,
    PermutationGroup,
    cayley_index_table,
)
from .tensor import TensorSquare, tensor_square


class NotConnected(Exception):
    pass


@dataclass(frozen=True, eq=False)
class OrbitalMatrixSet:
    """One 0/1 integer matrix per tensor class; entry (x, y) is set when
    the pair (x, y) lies in the class.  The class of (0, 0) comes first.

    The matrices have disjoint supports and sum to the all-ones matrix,
    and each commutes with every permutation matrix of the inner group.
    """

    tensor: TensorSquare
    matrices: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.matrices)


def orbital_matrices(quandle: CayleyQuandle) -> OrbitalMatrixSet:
    """Indicator matrices of the tensor classes, in class order."""
    ts = tensor_square(quandle)
    n = quandle.order
    mats = []
    for cls in ts.classes:
        mat = np.zeros((n, n), dtype=np.int64)
        rows = [p[0] for p in cls]
        cols = [p[1] for p in cls]
        mat[rows, cols] = 1
        mats.append(mat)
    return OrbitalMatrixSet(tensor=ts, matrices=tuple(mats))


@dataclass(frozen=True)
class CommutationWitness:
    """Certificate that two orbital matrices fail to commute: the matrix
    indices and one entry where the products differ."""

    first: int
    second: int
    row: int
    column: int
    left_value: int
    right_value: int

    def describe(self) -> str:
        return (
            f"orbital matrices {self.first} and {self.second} do not commute: "
            f"product entry ({self.row},{self.column}) is {self.left_value} "
            f"one way and {self.right_value} the other"
        )


@dataclass(frozen=True, eq=False)
class MultiplicityFreeResult:
    """Verdict plus certificate: witness is None exactly when every pair of
    orbital matrices commutes."""

    value: bool
    witness: CommutationWitness | None
    orbital_count: int

    def __bool__(self) -> bool:
        return self.value


def is_multiplicity_free(quandle: CayleyQuandle) -> MultiplicityFreeResult:
    """Decide whether the quandle module decomposes multiplicity free.

    Requires a connected quandle (only then is the module a transitive
    permutation module whose endomorphism algebra the orbital matrices
    span).  Exact integer matrix products throughout.
    """
    if not is_connected(quandle):
        raise NotConnected("multiplicity-freeness test needs a connected quandle")
    mats = orbital_matrices(quandle).matrices
    count = len(mats)
    for i in range(count):
        for j in range(i + 1, count):
            left = mats[i] @ mats[j]
            right = mats[j] @ mats[i]
            if not np.array_equal(left, right):
                row, col = np.argwhere(left != right)[0]
                witness = CommutationWitness(
                    first=i,
                    second=j,
                    row=int(row),
                    column=int(col),
                    left_value=int(left[row, col]),
                    right_value=int(right[row, col]),
                )
                return MultiplicityFreeResult(False, witness, count)
    return MultiplicityFreeResult(True, None, count)


def symmetric_orbital_shortcut(quandle: CayleyQuandle) -> bool:
    """True when every orbital matrix is symmetric, i.e. every tensor class
    is its own swap image.  Sufficient for multiplicity-freeness, never
    necessary."""
    if not is_connected(quandle):
        raise NotConnected("shortcut applies to connected quandles")
    mats = orbital_matrices(quandle).matrices
    return all(np.array_equal(m, m.T) for m in mats)


@dataclass(frozen=True, eq=False)
class DoubleCosetPartition:
    """Partition of a group into double cosets K g K of a subgroup K.

    Cosets hold element indices into group.elements, each sorted, cosets
    ordered by least index; the coset of the identity (K itself) is first.
    """

    group: PermutationGroup
    subgroup: PermutationGroup
    cosets: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.cosets)

    def members(self, index: int) -> tuple[Permutation, ...]:
        return tuple(self.group.elements[i] for i in self.cosets[index])

    @property
    def representatives(self) -> tuple[Permutation, ...]:
        return tuple(self.group.elements[c[0]] for c in self.cosets)


def double_cosets(group: PermutationGroup,
                  subgroup: PermutationGroup) -> DoubleCosetPartition:
    """All K g K for K the given subgroup, via the cached index table."""
    if not group.contains_group(subgroup):
        raise NotASubgroup("second argument must be a subgroup of the first")
    table = cayley_index_table(group)
    sub_idx = np.array(
        sorted(group.index_of(h) for h in subgroup.elements), dtype=np.int64
    )
    count = len(group.elements)
    seen = np.zeros(count, dtype=bool)
    cosets = []
    for g in range(count):
        if seen[g]:
            continue
        left = table[sub_idx, g]
        full = np.unique(table[np.ix_(left, sub_idx)])
        seen[full] = True
        cosets.append(tuple(int(v) for v in full))
    return DoubleCosetPartition(group=group, subgroup=subgroup, cosets=tuple(cosets))


def is_gelfand_pair(group: PermutationGroup,
                    subgroup: PermutationGroup,
                    partition: DoubleCosetPartition | None = None) -> bool:
    """True when the double-coset sums commute in the integer group ring.

    The product of two coset sums is expanded as an exact coefficient
    vector over the group (a bincount of the index table block); the pair
    is Gelfand exactly when every ordered product matches its reverse.
    """
    part = partition if partition is not None else double_cosets(group, subgroup)
    table = cayley_index_table(group)
    count = len(group.elements)
    index_arrays = [np.asarray(c, dtype=np.int64) for c in part.cosets]
    for i in range(len(index_arrays)):
        for j in range(i + 1, len(index_arrays)):
            a, b = index_arrays[i], index_arrays[j]
            forward = np.bincount(table[np.ix_(a, b)].ravel(), minlength=count)
            backward = np.bincount(table[np.ix_(b, a)].ravel(), minlength=count)
            if not np.array_equal(forward, backward):
                return False
    return True
