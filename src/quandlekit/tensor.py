"""Tensor squares of quandles.

The pair space X x X carries the diagonal action of the inner group,
(x, y) . g = (g(x), g(y)); its orbits form the tensor square.  Swapping
coordinates commutes with the action, so it induces an involution on the
classes, and the quotient under that involution is computed here too.
For connected affine quandles with prime modulus both objects have closed
forms driven by the difference y - x, which this module also provides.

The tensor square is memoised on its quandle and holds no reference to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cayley import AffineSpec, CayleyQuandle
from .modular import is_prime
from .perms import _breadth_first_orbits

Pair = tuple[int, int]


@dataclass(frozen=True, eq=False)
class TensorSquare:
    """Partition of the pair space into diagonal-action orbits.

    Each class is sorted and the classes are ordered by their least pair,
    which doubles as the class representative.
    """

    classes: tuple[tuple[Pair, ...], ...]

    @property
    def representatives(self) -> tuple[Pair, ...]:
        return tuple(c[0] for c in self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def _lookup(self) -> dict[Pair, int]:
        table = {}
        for idx, cls in enumerate(self.classes):
            for pair in cls:
                table[pair] = idx
        return table

    def class_of(self, pair: Pair) -> int:
        """Index of the class containing the pair."""
        return self._lookup[pair]


@dataclass(frozen=True, eq=False)
class TauQuotient:
    """Tensor classes merged under the swap involution.

    merged_from[i] lists the tensor-class indices (one or two) fused into
    quotient class i.
    """

    tensor: TensorSquare
    classes: tuple[tuple[Pair, ...], ...]
    merged_from: tuple[tuple[int, ...], ...]

    @property
    def representatives(self) -> tuple[Pair, ...]:
        return tuple(c[0] for c in self.classes)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def __len__(self) -> int:
        return len(self.classes)


def tensor_square(quandle: CayleyQuandle) -> TensorSquare:
    """Orbits of X x X under all right translations acting diagonally;
    memoised on the quandle.

    Breadth-first closure on pair indices x*n + y, applying generators
    only; pair-index order coincides with lexicographic pair order, so the
    emitted classes come out sorted with least-pair representatives.
    """
    if quandle._tensor_square is not None:
        return quandle._tensor_square
    n = quandle.order
    table = np.asarray(quandle.table, dtype=np.int64)
    columns = table.T
    maps = (columns[:, :, None] * n + columns[:, None, :]).reshape(n, n * n)
    orbits = _breadth_first_orbits(maps, range(n * n))
    square = TensorSquare(classes=tuple(tuple(divmod(k, n) for k in o) for o in orbits))
    object.__setattr__(quandle, "_tensor_square", square)
    return square


def tau_quotient(tensor: TensorSquare) -> TauQuotient:
    """Merge tensor classes with their swap images.

    The swap (x, y) -> (y, x) permutes the classes, so it suffices to look
    up the class of one swapped representative per class.
    """
    partner = []
    for idx, cls in enumerate(tensor.classes):
        x, y = cls[0]
        partner.append(tensor.class_of((y, x)))
    merged: list[tuple[int, ...]] = []
    taken = set()
    for idx, other in enumerate(partner):
        if idx in taken:
            continue
        taken.add(idx)
        group = (idx,) if other == idx else (idx, other)
        taken.add(other)
        merged.append(group)
    quotient = []
    for group in merged:
        pairs = sorted(p for i in group for p in tensor.classes[i])
        quotient.append(tuple(pairs))
    order = sorted(range(len(quotient)), key=lambda i: quotient[i][0])
    return TauQuotient(
        tensor=tensor,
        classes=tuple(quotient[i] for i in order),
        merged_from=tuple(tuple(sorted(merged[i])) for i in order),
    )


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
