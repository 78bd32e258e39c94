"""Characters of inner groups and the regular decomposition of quandle
rings for prime connected affine quandles.

The inner group of a connected affine quandle with prime modulus p and
multiplier of order n is Z_p x| Z_n.  Its irreducible characters are the n
linear characters pulled back from Z_n together with (p-1)/n induced
characters of degree n, one per orbit of the inverse multiplier u acting on
Z_p*.  The induced character at orbit representative k takes the value
sum_a w^(u^a k j) on the translation by j (w a primitive p-th root of
unity) and vanishes off the translation subgroup.  Only that table,
MetacyclicFamily.value, is complex: the decomposition is integer arithmetic.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cayley import AffineSpec, affine_quandle
from .inner import InnerPresentation, inner_group, normal_form, presentation
from .modular import conjugate_orbit, is_prime, multiplicative_order
from .perms import (ConjugacyClassSet, Permutation, PermutationGroup, _GATHER_CHUNK,
                    conjugacy_classes)


class BadParameters(Exception):
    pass


class GroupMismatch(Exception):
    pass


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """Integer values on the conjugacy classes of a group, in class order."""

    classes: ConjugacyClassSet
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.classes):
            raise ValueError("one value per class required")
        if not all(isinstance(v, int) for v in self.values):
            raise ValueError("class function values must be ints")


def permutation_character(group: PermutationGroup,
                          classes: ConjugacyClassSet | None = None) -> ClassFunction:
    """Fixed-point count of a class representative, per class."""
    if classes is None:
        classes = conjugacy_classes(group)
    images = group.images
    if classes.images is not images and not np.array_equal(classes.images, images):
        raise GroupMismatch("classes belong to a different group")
    reps = images[classes.starts]
    values = (reps == np.arange(group.degree, dtype=reps.dtype)).sum(axis=1)
    return ClassFunction(classes=classes, values=tuple(values.tolist()))


def trivial_character(classes: ConjugacyClassSet) -> ClassFunction:
    return ClassFunction(classes=classes, values=(1,) * len(classes))


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    """(1/|G|) sum_g a(g) b(g), summed over classes with their sizes, as an
    exact Fraction (the values are real, so no conjugate is taken)."""
    if not a.classes.same_classes(b.classes):
        raise GroupMismatch("class functions live on different groups")
    sizes = a.classes.sizes
    total = sum(s * av * bv for s, av, bv in zip(sizes, a.values, b.values))
    return Fraction(total, sum(sizes))


def burnside_rank(group: PermutationGroup) -> int:
    """Number of orbits on ordered pairs: (1/|G|) sum_g fix(g)^2, computed
    exactly over all elements, a block of rows at a time."""
    E = group.images
    points = np.arange(group.degree, dtype=E.dtype)
    step = max(1, _GATHER_CHUNK // group.degree)
    total = 0
    for start in range(0, len(E), step):
        fixed = (E[start : start + step] == points).sum(axis=1, dtype=np.int64)
        total += int(fixed @ fixed)
    q, r = divmod(total, len(group))
    if r != 0:
        raise ArithmeticError("fixed-point sum not divisible by the group order")
    return q


# ---------------------------------------------------------------------------
# irreducible characters of Z_p x| Z_n


@dataclass(frozen=True)
class MetacyclicFamily:
    """Complete irreducible data for <a, b | a^p, b^n, b^-1 a b = a^twist>.

    Class labels: ("identity",), ("shift", j) for the classes of nontrivial
    translations (j the least element of the twist-orbit), and ("layer", i)
    for the p elements whose scaling exponent is i != 0.
    """

    prime: int
    automorphism_order: int
    twist: int
    linear_indices: tuple[int, ...]
    induced_indices: tuple[int, ...]

    def labels(self) -> tuple:
        shifts = tuple(("shift", k) for k in self.induced_indices)
        layers = tuple(("layer", i) for i in range(1, self.automorphism_order))
        return (("identity",),) + shifts + layers

    def class_size(self, label) -> int:
        if label == ("identity",):
            return 1
        if label[0] == "shift":
            return self.automorphism_order
        if label[0] == "layer":
            return self.prime
        raise ValueError(f"unknown label {label!r}")

    def irreducible_labels(self) -> tuple[str, ...]:
        linear = tuple(f"lin:{k}" for k in self.linear_indices if k != 0)
        induced = tuple(f"ind:{k}" for k in self.induced_indices)
        return ("triv",) + linear + induced

    def degree(self, irr: str) -> int:
        if irr == "triv" or irr.startswith("lin:"):
            return 1
        if irr.startswith("ind:"):
            return self.automorphism_order
        raise ValueError(f"unknown irreducible {irr!r}")

    def layer_sum(self, irr: str) -> int:
        """Sum of irr over ("layer", i) for i = 1..n-1: n - 1 for triv, -1
        for lin:k (the zeta_n^(ki) with n not dividing k), 0 for ind:k."""
        if irr == "triv":
            return self.automorphism_order - 1
        if irr.startswith("lin:"):
            return -1
        if irr.startswith("ind:"):
            return 0
        raise ValueError(f"unknown irreducible {irr!r}")

    def value(self, irr: str, label) -> complex:
        p, n, u = self.prime, self.automorphism_order, self.twist
        if irr == "triv":
            return 1 + 0j
        if irr.startswith("lin:"):
            k = int(irr.split(":")[1])
            if label == ("identity",) or label[0] == "shift":
                return 1 + 0j
            i = label[1]
            return cmath.exp(2j * cmath.pi * k * i / n)
        if irr.startswith("ind:"):
            k = int(irr.split(":")[1])
            if label == ("identity",):
                return complex(n)
            if label[0] == "layer":
                return 0j
            j = label[1]
            total = 0j
            e = k * j % p
            for _ in range(n):
                total += cmath.exp(2j * cmath.pi * e / p)
                e = e * u % p
            return total
        raise ValueError(f"unknown irreducible {irr!r}")


def inertia_group_size(p: int, n: int, u: int, k: int) -> int:
    """Order of the stabilizer in Z_p x| Z_n of the additive character
    indexed by k, computed by counting the exponents i with u^i k == k."""
    count = sum(1 for i in range(n) if pow(u, i, p) * k % p == k % p)
    return p * count


def metacyclic_irreducibles(p: int, n: int, u: int) -> MetacyclicFamily:
    """All pn irreducibles of Z_p x| Z_n; validates the parameters and the
    dimension count n * 1 + (p-1)/n * n^2 == p n."""
    if not is_prime(p):
        raise BadParameters(f"{p} is not prime")
    u %= p
    if u == 0 or multiplicative_order(u, p) != n:
        raise BadParameters(f"{u} does not have order {n} modulo {p}")
    if (p - 1) % n != 0:
        raise BadParameters("order must divide p - 1")
    seen: set[int] = set()
    induced = []
    for k in range(1, p):
        if k in seen:
            continue
        orbit = conjugate_orbit(p, u, k)
        seen |= orbit
        induced.append(min(orbit))
    induced.sort()
    family = MetacyclicFamily(
        prime=p,
        automorphism_order=n,
        twist=u,
        linear_indices=tuple(range(n)),
        induced_indices=tuple(induced),
    )
    assert n + len(induced) * n * n == p * n
    return family


# ---------------------------------------------------------------------------
# bridging abstract classes to the concrete inner group


def class_label(pres: InnerPresentation, g: Permutation) -> tuple:
    """Label of the conjugacy class of g in Inn of a prime affine quandle."""
    i, j = normal_form(g, pres)
    if i != 0:
        return ("layer", i)
    if j == 0:
        return ("identity",)
    p, t = pres.modulus, pres.multiplier
    return ("shift", min(conjugate_orbit(p, t, j)))


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """Multiplicities of each irreducible in the regular quandle module,
    keyed and ordered 'triv', 'lin:k', 'ind:k', k ascending."""

    spec: AffineSpec
    multiplicities: dict[str, int]
    rank: int
    is_multiplicity_free: bool

    def nonzero(self) -> dict[str, int]:
        return {k: v for k, v in self.multiplicities.items() if v}


def decompose_prime_affine(spec: AffineSpec) -> DecompositionResult:
    """Decompose the permutation module of Inn acting on a prime connected
    affine quandle in integers.  The permutation character chi must be 0 on
    every shift class and one value c on all layer classes; each
    multiplicity (chi(1) psi(1) + p c layer_sum(psi)) / (p n) must divide
    exactly, and the dimensions must add up to p.  Else ArithmeticError.

    The quandle, its inner group and their class split are the ones
    memoised on ``spec`` (see affine_quandle and conjugacy_classes), so a
    caller that already built them for this spec object pays for none of
    them again."""
    p = spec.modulus
    if not is_prime(p):
        raise BadParameters(f"modulus {p} is not prime")
    if not spec.is_connected_admissible:
        raise BadParameters("quandle is not connected")
    pres = presentation(spec)
    group = inner_group(affine_quandle(spec))
    classes = conjugacy_classes(group)
    chi = permutation_character(group, classes)
    n = spec.order_of_multiplier
    family = metacyclic_irreducibles(p, n, pres.inverse_multiplier)
    at: dict[tuple, int] = {}
    for rep, size, value in zip(classes.representatives, classes.sizes, chi.values):
        label = class_label(pres, rep)
        if family.class_size(label) != size:
            raise GroupMismatch(f"class size mismatch at {label!r}")
        at[label] = value
    shifts = {at[label] for label in at if label[0] == "shift"}
    layers = {at[label] for label in at if label[0] == "layer"}
    if shifts != {0} or len(layers) != 1:
        raise ArithmeticError("permutation character is off its shift and layer pattern")
    (c,) = layers
    multiplicities: dict[str, int] = {}
    for irr in family.irreducible_labels():
        total = at[("identity",)] * family.degree(irr) + p * c * family.layer_sum(irr)
        m, remainder = divmod(total, p * n)
        if remainder:
            raise ArithmeticError(f"{total} is not divisible by {p * n} for {irr}")
        multiplicities[irr] = m
    if sum(m * family.degree(irr) for irr, m in multiplicities.items()) != p:
        raise ArithmeticError("multiplicities do not sum to the module dimension")
    rank = sum(m * m for m in multiplicities.values())
    return DecompositionResult(
        spec=spec,
        multiplicities=multiplicities,
        rank=rank,
        is_multiplicity_free=all(m <= 1 for m in multiplicities.values()),
    )
