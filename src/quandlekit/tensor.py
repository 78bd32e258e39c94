"""Tensor squares of quandles.

The pair space X x X carries the diagonal action of the inner group,
(x, y) . g = (g(x), g(y)); its orbits form the tensor square.  Swapping
coordinates commutes with the action, so it induces an involution on the
classes, and the quotient under that involution is computed here too.
For connected affine quandles with prime modulus both objects have closed
forms driven by the difference y - x, which this module also provides.

A tensor square is held as arrays over pair indices x*n + y: the class
of every pair, the least pair of every class and the class sizes.  The
classes as tuples of pairs are built only when read.  The tensor square
is memoised on its quandle and holds no reference to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cayley import AffineSpec, CayleyQuandle
from .modular import is_prime
from .perms import _blocks, _memoised, _orbit_labels

Pair = tuple[int, int]


def _pair_classes(order: int, labels: np.ndarray):
    """Pairs grouped by class label, each class sorted, in label order."""
    xs, ys = np.divmod(np.arange(order * order), order)
    return _blocks(labels, list(zip(xs.tolist(), ys.tolist())))


@dataclass(frozen=True, eq=False)
class TensorSquare:
    """Partition of the pair space into diagonal-action orbits.

    ``labels[x*n + y]`` is the class of the pair (x, y); ``starts[i]`` is
    the pair index of the least pair of class i, which doubles as the class
    representative; ``counts[i]`` is the size of class i.  Classes are
    ordered by their least pair, and each class read from ``classes`` is
    sorted.
    """

    order: int
    labels: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @property
    def representatives(self) -> tuple[Pair, ...]:
        return tuple(divmod(k, self.order) for k in self.starts.tolist())

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.counts.tolist())

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def classes(self) -> tuple[tuple[Pair, ...], ...]:
        return _pair_classes(self.order, self.labels)

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
        """Pairs of each quotient class, sorted.  Ranking the lesser of each
        tensor class and its partner numbers the quotient classes."""
        tensor = self.tensor
        lesser = np.minimum(np.arange(len(tensor)), tensor._partners())
        quotient = np.unique(lesser, return_inverse=True)[1]
        return _pair_classes(tensor.order, quotient[tensor.labels])


@_memoised
def tensor_square(quandle: CayleyQuandle) -> TensorSquare:
    """Orbits of X x X under R_0..R_{k-1}, the translations by the generating
    prefix, which generate Inn, acting diagonally; memoised on the quandle.

    Min-label propagation over pair indices x*n + y (perms._orbit_labels)
    labels each pair with the least pair index of its orbit; pair-index
    order coincides with lexicographic pair order, so ranking those labels
    orders the classes by their least pair.
    """
    n = quandle.order
    columns = quandle._array.T[: quandle._prefix]
    maps = (columns[:, :, None] * n + columns[:, None, :]).reshape(-1, n * n)
    labels = _orbit_labels(maps)
    starts, labels, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return TensorSquare(order=n, labels=labels, starts=starts, counts=counts)


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


def _difference_coset(spec: AffineSpec, difference: int) -> set[int]:
    p = spec.modulus
    t = spec.multiplier % p
    coset = set()
    a = difference % p
    while a not in coset:
        coset.add(a)
        a = a * t % p
    return coset


def affine_tensor_class(spec: AffineSpec, difference: int) -> frozenset[Pair]:
    """Closed-form tensor class over a prime affine quandle.

    For a nonzero difference d this is every pair (i, i + c) with c in the
    multiplier-subgroup coset of d; difference 0 gives the diagonal.
    """
    p = _require_prime(spec)
    if difference % p == 0:
        return frozenset((i, i) for i in range(p))
    coset = _difference_coset(spec, difference)
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
    return min(_difference_coset(spec, y - x))


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
