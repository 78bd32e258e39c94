"""Inner automorphism groups of quandles.

Inn is closed from the translations R_s by the points s of the quandle's
generating set, which generate it (cayley module docstring); the group
is memoised on the quandle, so callers passing the same quandle share one
listing.  A connected quandle built as Aff(A, f) carries (A, f)
(cayley._affine_of), and for it no closure runs: R_0 = f and
R_y R_0^-1 is the translation by y - f(y), onto A, so Inn = A x| <f>, the
maps y -> a + f^i(y), listed by one gather on A's addition table
(Hulpke, Stanovsky and Vojtechovsky, "Connected quandles and transitive
groups", JPAA 2016).

For a connected affine quandle (m, t) the inner group is generated by two
elements: the translation x -> x + (1 - t) and the scaling x -> t x, with
scaling * translation * scaling^-1 == translation^t.  Every inner
automorphism is an affine map x -> t^i x + j (1 - t); the pair (i, j) is
its normal form, read in application order (scale i times, then shift j
times).  The verified presentation is memoised on its spec.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import _semidirect_rows
from .cayley import AffineSpec, CayleyQuandle, _affine_of, affine_quandle, right_translation
from .modular import geometric_sum
from .perms import (
    Permutation,
    PermutationGroup,
    _generated_by,
    _memoised,
    close_group,
    element_order,
)


class NotInGroup(Exception):
    pass


class RelationFailure(Exception):
    pass


def inner_generators(q: CayleyQuandle) -> tuple[Permutation, ...]:
    """All right translations R_y, one per element y."""
    return tuple(map(Permutation._trusted, q._array.T.tolist()))


@_memoised
def inner_group(q: CayleyQuandle) -> PermutationGroup:
    """The group generated by the right translations, kept as its image
    array alone, with R_s for s in the generating set as its generating
    set; memoised on q.  A quandle carrying Aff(A, f) (module docstring)
    has it listed as A x| <f>; any other is closed from those R_s."""
    translations = q._array.T[list(q._generators)]
    if (affine := _affine_of(q)) is None:
        return close_group(map(Permutation._trusted, translations.tolist()))
    rows = _semidirect_rows(*affine)
    return _generated_by(PermutationGroup._trusted(rows), translations.astype(rows.dtype))


def is_connected(q: CayleyQuandle) -> bool:
    """True when the inner group acts transitively, as validation found
    from the orbits of the translations by the generating set (cayley
    module docstring)."""
    return q._connected


@dataclass(frozen=True)
class InnerPresentation:
    """Verified two-generator data for Inn of the connected affine quandle
    (modulus, multiplier); it holds numbers and permutations, not its spec,
    so memoising it on the spec makes no cycle."""

    modulus: int
    multiplier: int
    scaling_order: int        # n, the order of the multiplier
    inverse_multiplier: int
    translation: Permutation  # x -> x + (1 - t), order m
    scaling: Permutation      # x -> t x, order n


@_memoised
def presentation(spec: AffineSpec) -> InnerPresentation:
    """Build and verify the presentation, once per spec object (memoised on
    it).  Checks that the translation is the composite R_1 * R_0^(n-1),
    that the generator orders are m and n, and that conjugating the
    translation by the scaling raises it to the power t.  Raises
    RelationFailure if any check fails."""
    if not spec.is_connected_admissible:
        raise ValueError(f"(m={spec.modulus}, t={spec.multiplier}) is not connected")
    m, t = spec.modulus, spec.multiplier
    n = spec.order_of_multiplier
    scaling = Permutation((t * x) % m for x in range(m))
    translation = Permutation((x + 1 - t) % m for x in range(m))
    q = affine_quandle(spec)
    composite = right_translation(q, 1 % m) * scaling ** (n - 1)
    if composite != translation:
        raise RelationFailure("translation is not R_1 * R_0^(n-1)")
    if element_order(translation) != m:
        raise RelationFailure("translation order is not the modulus")
    if element_order(scaling) != n:
        raise RelationFailure("scaling order is wrong")
    if scaling * translation * scaling.inverse() != translation ** t:
        raise RelationFailure("conjugation relation fails")
    return InnerPresentation(m, t, n, spec.inverse_multiplier, translation, scaling)


def element_from_normal_form(pres: InnerPresentation, i: int, j: int) -> Permutation:
    """The affine map x -> t^i x + j (1 - t): scale i times, then shift j."""
    m, t = pres.modulus, pres.multiplier
    a = pow(t, i % pres.scaling_order, m)
    b = (j * (1 - t)) % m
    # a is a power of the unit t, so x -> a x + b is a bijection
    return Permutation._trusted((a * x + b) % m for x in range(m))


def normal_form(g: Permutation, pres: InnerPresentation) -> tuple[int, int]:
    """Unique (i, j) with 0 <= i < n, 0 <= j < m representing g; raises
    NotInGroup when g is not an affine map of the right shape."""
    m, t, n = pres.modulus, pres.multiplier, pres.scaling_order
    if g.degree != m:
        raise NotInGroup("degree mismatch")
    if m == 1:
        return (0, 0)
    b = g.images[0]
    a = (g.images[1] - b) % m
    power, i = 1, None
    for k in range(n):
        if power == a:
            i = k
            break
        power = power * t % m
    if i is None:
        raise NotInGroup("linear part is not a power of the multiplier")
    if any(g.images[x] != (a * x + b) % m for x in range(m)):
        raise NotInGroup("not an affine map")
    j = b * pow((1 - t) % m, -1, m) % m
    return (i, j)


def translation_power_exponents(pres: InnerPresentation, j: int, k: int) -> tuple[int, int]:
    """Normal form of R_j^k via the geometric sum: the k-th power of the
    translation at j is the map x -> t^k x + j (1 + t + ... + t^(k-1)) (1-t),
    i.e. normal form (k mod n, j * sum mod m)."""
    m, t = pres.modulus, pres.multiplier
    return (k % pres.scaling_order, j * geometric_sum(t, k, m) % m)


def verify_translation_class(spec: AffineSpec, k: int) -> bool:
    """Whether {R_j^k : j} coincides with the full layer of elements whose
    scaling exponent is k, i.e. {normal form (k mod n, j) : j}.  Holds for
    prime moduli whenever n does not divide k; fails in general for
    composite moduli."""
    pres = presentation(spec)
    q = affine_quandle(spec)
    m = spec.modulus
    powers = {right_translation(q, j) ** k for j in range(m)}
    layer = {element_from_normal_form(pres, k, j) for j in range(m)}
    return powers == layer
