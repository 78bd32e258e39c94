"""Tensor squares of quandles.

The pair space X x X carries the diagonal action of the inner group,
(x, y) . g = (g(x), g(y)); its orbits form the tensor square.  Swapping
coordinates commutes with the action, so it induces an involution on the
classes, and the quotient under that involution is computed here too.
For connected affine quandles with prime modulus both objects have closed
forms driven by the difference y - x, which this module also provides.

A connected quandle built as Aff(A, f) carries (A, f)
(cayley.CayleyQuandle._affine).  Its inner group is A x| <f>, which
moves (x, y) to (0, y - x) and then along the <f>-orbit of y - x, so the
least pair of the class of (x, y) is (0, d) for d the least point of that
orbit, the minimum over the powers f^0..f^(k-1): its tensor square is
ranked on the n points and read off the n x n difference table, with no
orbit labelling and no pair propagated.

A tensor square is a perms.Partition over pair indices x*n + y: the
class of every pair, the least pair of every class and the class sizes.
The classes as tuples of pairs are built only when read.  The tensor
square is memoised on its quandle and holds no reference to it.  The swap
quotient is kept as a merge of tensor classes and becomes a partition of
the pair space only when its classes are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .cayley import AffineSpec, CayleyQuandle
from .modular import conjugate_orbit, is_prime
from .perms import Partition, _memoised, _orbit_labels, _powers

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False, kw_only=True)
class TensorSquare(Partition):
    """Partition of the pair space of a quandle of the given order into
    diagonal-action orbits, one block per class over pair indices x*n + y;
    ``starts[i]``, the least pair of class i, doubles as its representative.
    Classes are ordered by their least pair, and each class read from
    ``classes`` is sorted.
    """

    order: int

    @property
    def representatives(self) -> tuple[Pair, ...]:
        return tuple(divmod(k, self.order) for k in self.starts.tolist())

    @cached_property
    def classes(self) -> tuple[tuple[Pair, ...], ...]:
        xs, ys = np.divmod(np.arange(self.order**2), self.order)
        return self.blocks(list(zip(xs.tolist(), ys.tolist())))

    def class_of(self, pair: Pair) -> int:
        """Index of the class containing the pair; KeyError when the pair
        is not in the pair space."""
        x, y = pair
        if not (0 <= x < self.order and 0 <= y < self.order):
            raise KeyError(pair)
        return int(self.labels[x * self.order + y])

    def _partners(self) -> np.ndarray:
        """Class of the swap image of each class's representative."""
        x, y = np.divmod(self.starts, self.order)
        return self.labels[y * self.order + x]


@dataclass(frozen=True, eq=False)
class TauQuotient:
    """Tensor classes merged under the swap involution.

    merged_from[i] lists the tensor-class indices (one or two) fused into
    quotient class i; quotient classes are ordered by their least pair.
    """

    tensor: TensorSquare
    merged_from: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[Pair, ...]:
        reps = self.tensor.representatives
        return tuple(reps[group[0]] for group in self.merged_from)

    @property
    def sizes(self) -> tuple[int, ...]:
        counts = self.tensor.sizes
        return tuple(sum(counts[i] for i in group) for group in self.merged_from)

    def __len__(self) -> int:
        return len(self.merged_from)

    @cached_property
    def classes(self) -> tuple[tuple[Pair, ...], ...]:
        """Pairs of each quotient class, sorted.  The least pair of a
        quotient class is that of the lesser of its tensor class and that
        class's partner."""
        tensor = self.tensor
        lesser = np.minimum(np.arange(len(tensor)), tensor._partners())
        least = tensor.starts[lesser][tensor.labels]
        return TensorSquare.from_least(least, order=tensor.order).classes


@_memoised
def tensor_square(quandle: CayleyQuandle) -> TensorSquare:
    """Orbits of X x X under the translations R_s by the points s of the
    generating set, which generate Inn, acting diagonally; memoised on the
    quandle.

    Min-label propagation over pair indices x*n + y (perms._orbit_labels)
    labels each pair with the least pair index of its orbit; pair-index
    order coincides with lexicographic pair order, so ranking those labels
    orders the classes by their least pair.  A quandle carrying Aff(A, f)
    (module docstring) skips the propagation: pair (0, d) has index d, so
    its classes are ranked on the n points d, each n times its <f>-orbit's
    size, and its labels are one gather over y - x.
    """
    n = quandle.order
    if quandle._affine is not None:
        add, f = quandle._affine
        # [x, y]: y - x, as row -x of add; -x is where row x holds 0, its least entry
        difference = add[add.argmin(axis=1)]
        # pair (x, y), x >= 1, has index >= n, and its class's least pair is
        # (0, least[y - x]): from_least's check on the points is the pairs'
        points = Partition.from_least(reduce(np.minimum, _powers(f)))
        return TensorSquare(labels=points.labels[difference].ravel(), starts=points.starts,
                            counts=n * points.counts, order=n)
    columns = quandle._array.T[list(quandle._generators)]
    maps = (columns[:, :, None] * n + columns[:, None, :]).reshape(-1, n * n)
    return TensorSquare.from_least(_orbit_labels(maps), order=n)


def tau_quotient(tensor: TensorSquare) -> TauQuotient:
    """Merge tensor classes with their swap images.

    The swap (x, y) -> (y, x) permutes the classes, so the class of one
    swapped representative per class is its partner.  Each class is listed
    with its partner when it is the lesser of the two; since classes are
    ordered by least pair, that lists the merged classes by least pair.
    """
    partners = enumerate(tensor._partners().tolist())
    merged = tuple((i,) if p == i else (i, p) for i, p in partners if p >= i)
    return TauQuotient(tensor=tensor, merged_from=merged)


def _require_prime(spec: AffineSpec) -> int:
    if not is_prime(spec.modulus):
        raise ValueError(f"modulus {spec.modulus} is not prime")
    return spec.modulus


def affine_tensor_class(spec: AffineSpec, difference: int) -> frozenset[Pair]:
    """Closed-form tensor class over a prime affine quandle.

    For a nonzero difference d this is every pair (i, i + c) with c in the
    multiplier-subgroup coset of d; difference 0 gives the diagonal.
    """
    p = _require_prime(spec)
    if difference % p == 0:
        return frozenset((i, i) for i in range(p))
    coset = conjugate_orbit(p, spec.multiplier, difference)
    return frozenset((i, (i + c) % p) for i in range(p) for c in coset)


def affine_tensor_class_swapped(spec: AffineSpec, difference: int) -> frozenset[Pair]:
    """Image of the closed-form class under the swap involution; equals the
    class of the negated difference."""
    return frozenset((y, x) for x, y in affine_tensor_class(spec, difference))


def orbital_invariant(spec: AffineSpec, pair: Pair) -> int:
    """Complete invariant of the tensor class of a pair: 0 on the diagonal,
    otherwise the least member of the multiplier-subgroup coset of y - x.
    Two pairs share a class exactly when their labels agree."""
    p = _require_prime(spec)
    x, y = pair
    if not (0 <= x < p and 0 <= y < p):
        raise ValueError("pair out of range")
    if x == y:
        return 0
    return min(conjugate_orbit(p, spec.multiplier, y - x))


def predicted_tensor_size(spec: AffineSpec) -> int:
    """1 + (p-1)/n for prime modulus p and multiplier order n."""
    p = _require_prime(spec)
    if not spec.is_connected_admissible:
        raise ValueError("spec is not connected")
    n = spec.order_of_multiplier
    return 1 + (p - 1) // n


def predicted_tau_size(spec: AffineSpec) -> int:
    """Number of swap-quotient classes: with n even every class is its own
    swap image, with n odd the off-diagonal classes pair up."""
    p = _require_prime(spec)
    if not spec.is_connected_admissible:
        raise ValueError("spec is not connected")
    n = spec.order_of_multiplier
    if n % 2 == 0:
        return 1 + (p - 1) // n
    return 1 + (p - 1) // (2 * n)
