"""Multiplicity-freeness and Gelfand pairs by exact integer arithmetic.

Two routes to the same question.  The orbital route works in the algebra
spanned by the 0/1 matrices of the tensor classes (the orbital, or
Hecke, algebra of a coherent configuration: Higman, "Coherent
configurations I", Geom. Dedicata, 1975).  These matrices span the
Inn-equivariant endomorphisms of the quandle module, so the module is
multiplicity free exactly when they pairwise commute, and a product
A_i A_j is fixed by its structure constants, its entries at the class
representatives; is_multiplicity_free compares those constants without
forming a matrix.  The double-coset route works inside the integer group
ring: (G, K) is a Gelfand pair when the sums over double cosets K g K
commute with each other.  For a connected quandle with G = Inn and K a
point stabilizer the two verdicts agree, and the test suite leans on
that agreement.

Neither double-coset function builds the |G| x |G| Cayley index table:
products are formed from base images and located by key lookup (see
perms), and only the ones needed: 2 |S| |G| in double_cosets, for S a
generating set of K with |S| <= log2 |K|.  is_gelfand_pair compares the
structure constants of the double-coset algebra, which fix each product
of double-coset sums, at one representative per double coset, counting
one element per left coset z K, as double_cosets found them: r [G:K]
products for r double cosets, for every subgroup K
(Ceccherini-Silberstein, Scarabotti and Tolli, Harmonic Analysis on
Finite Groups, CUP 2008, on finite Gelfand pairs).  Double cosets are a
perms.Partition over element indices, like the tensor classes, and
is_gelfand_pair reads only its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cayley import CayleyQuandle
from .inner import is_connected
from .perms import (
    NotASubgroup,
    Partition,
    Permutation,
    PermutationGroup,
    _GATHER_CHUNK,
    _element_keys,
    _greedy_generators,
    _locate,
    _memoised,
    _orbit_labels,
)
from .tensor import tensor_square


class NotConnected(Exception):
    pass


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
    span).  With L the n x n array of tensor classes, the structure
    constant c_k[i, j] = (A_i A_j)[x_k, y_k] at the representative
    (x_k, y_k) of class k counts the y with L[x_k, y] = i and
    L[y, y_k] = j.  The matrices commute exactly when every c_k is
    symmetric, that is when, for each k, the pairs (L[x_k, y], L[y, y_k])
    over y form the same multiset as their swaps; two sorted key arrays
    decide that, r n keys for r classes.  Exact integers throughout.

    The witness is the first pair i < j whose matrices do not commute and
    the first entry of A_i A_j - A_j A_i, in row-major order, that is not
    zero: the first (row, column) whose class k has c_k[i, j] != c_k[j, i].
    """
    if not is_connected(quandle):
        raise NotConnected("multiplicity-freeness test needs a connected quandle")
    ts = tensor_square(quandle)
    n, rank = quandle.order, len(ts)
    grid = ts.labels.reshape(n, n)
    rep_rows, rep_cols = np.divmod(ts.starts, n)
    # [k, y]: class of (x_k, y) and class of (y, y_k)
    left = grid[rep_rows]
    right = grid[:, rep_cols].T
    forward = np.sort(left * rank + right, axis=1)
    backward = np.sort(right * rank + left, axis=1)
    failing = np.flatnonzero((forward != backward).any(axis=1))
    if not failing.size:
        return MultiplicityFreeResult(True, None, rank)
    # c_k for one failing k at a time, never an r^3 array: its first i < j
    pairs = []
    for k in failing.tolist():
        counts = np.bincount(left[k] * rank + right[k], minlength=rank**2).reshape(rank, rank)
        pairs.append(tuple(np.argwhere(np.triu(counts != counts.T))[0].tolist()))
    i, j = min(pairs)
    forward = np.count_nonzero((left == i) & (right == j), axis=1)
    backward = np.count_nonzero((left == j) & (right == i), axis=1)
    row, column = np.argwhere((forward != backward)[grid])[0].tolist()
    k = grid[row, column]
    witness = CommutationWitness(i, j, row, column, int(forward[k]), int(backward[k]))
    return MultiplicityFreeResult(False, witness, rank)


@dataclass(frozen=True, eq=False, kw_only=True)
class DoubleCosetPartition(Partition):
    """Partition of a group into double cosets K g K of a subgroup K, one
    block per coset over element indices.  Cosets are ordered by least
    index, so K comes first; ``cosets`` lists the element indices of each,
    ascending."""

    group: PermutationGroup
    subgroup: PermutationGroup

    @cached_property
    def cosets(self) -> tuple[tuple[int, ...], ...]:
        return self.blocks(range(len(self.labels)))

    @property
    def representatives(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._trusted, self.group.images[self.starts].tolist()))


def double_cosets(group: PermutationGroup,
                  subgroup: PermutationGroup) -> DoubleCosetPartition:
    """All K g K for K the given subgroup, from a greedy generating set S
    of K, |S| <= log2 |K|.  The orbits of the maps g -> g s over S are the
    left cosets z K, each labelled by its least member; K permutes them,
    z K -> s z K by the maps g -> s g, and its orbits on them are the
    double cosets: 2 |S| |G| products.  Ranking the least members orders
    the double cosets by least member.  The least members of the left
    cosets seed the partition's _left_transversal."""
    members, found = _locate(group, subgroup.images)
    if not found.all():
        raise NotASubgroup("second argument must be a subgroup of the first")
    images, keys = group.images, _element_keys(group)
    rows, left = _greedy_generators(group, members)
    # g -> g s from the base images of g * s
    right = np.array([keys.lookup(images[:, s[: keys.base_length]]) for s in rows], np.int32)
    coset = _orbit_labels(right.reshape(len(rows), len(images)))  # the least member of z K
    transversal = np.flatnonzero(coset == np.arange(len(coset)))
    index = np.searchsorted(transversal, coset)  # of z K among the left cosets
    least = transversal[_orbit_labels(index[left[:, transversal]])[index]]
    partition = DoubleCosetPartition.from_least(least, group=group, subgroup=subgroup)
    partition.__dict__["_left_transversal"] = transversal
    return partition


@_memoised
def _left_transversal(partition: DoubleCosetPartition) -> np.ndarray:
    """The least member of each left coset z K, ascending, as double_cosets
    seeds it; a partition built another way reads it off a fresh one."""
    return _left_transversal(double_cosets(partition.group, partition.subgroup))


def is_gelfand_pair(group: PermutationGroup,
                    subgroup: PermutationGroup,
                    partition: DoubleCosetPartition | None = None) -> bool:
    """True when the double-coset sums commute in the integer group ring.

    D_i D_j is bi-K-invariant, so it is fixed by its coefficients at the
    coset representatives g_k: c_ijk = #{(a, b) in D_i x D_j : a b = g_k},
    the number of z in G with g_k z in D_i and z^-1 in D_j.  Both labels
    are constant on each left coset z K, so one z per coset
    (_left_transversal) counts each c_ijk |K| times too few, alike for all
    i, j, k: r [G:K] products.  The pair is Gelfand exactly when
    c_ijk = c_jik for all i, j, k, that is when, for each k, the pairs
    (label(g_k z), label(z^-1)) over the z form the same multiset as their
    swaps; two sorted key arrays decide that.
    Products g_k z are formed from base images for a block of
    representatives at a time.

    A partition passed in must be the one of this group and subgroup;
    ValueError otherwise.
    """
    if partition is None:
        partition = double_cosets(group, subgroup)
    elif partition.group != group or partition.subgroup != subgroup:
        raise ValueError("partition is of another group or subgroup")
    images = group.images
    keys = _element_keys(group)
    rank = len(partition)
    label = partition.labels
    reps = images[partition.starts]
    # inversion permutes the double cosets, (K g K)^-1 = K g^-1 K, so the
    # inverses of the representatives label every inverse; the rows of
    # argsort(reps) are those inverses' images
    inverse_coset = label[keys.lookup(np.argsort(reps, axis=1)[:, : keys.base_length])]
    members = _left_transversal(partition)
    transversal = images[members, : keys.base_length]
    inverse_label = inverse_coset[label[members]]
    step = max(1, _GATHER_CHUNK // (transversal.size or 1))
    for start in range(0, rank, step):
        # [k, z]: label of g_k z
        left = label[keys.lookup(reps[start : start + step][:, transversal])]
        forward = np.sort(left * rank + inverse_label, axis=1)
        backward = np.sort(inverse_label * rank + left, axis=1)
        if not np.array_equal(forward, backward):
            return False
    return True
