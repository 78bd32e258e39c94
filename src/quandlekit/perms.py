"""Permutations of {0..n-1} and fully enumerated permutation groups.

Products compose like functions: (a * b)(x) = a(b(x)), so the right factor
acts first.  A group is the lexsorted array of its elements' image rows
and nothing else: its degree is the array's width, and every derived
object (orbits, conjugacy classes, cosets) is read off the array, so it is
reproducible across runs.  Permutation objects for its elements are built
from that array on first read.

Conjugacy classes here, the tensor square and the double cosets in
gelfand are Partition subclasses: the block label of every element or
pair index, and the least index (the representative) and size of every
block; Partition.blocks builds the member tuples only when they are read.
Conjugacy classes and double cosets K g K are orbits, of G acting on itself
by conjugation and of K x K by multiplication on both sides, so both are
split by maps built from a generating set S of K.  For classes (and
orbits) of a group close_group built, or inner.inner_group listed, S is
the generators it was built from (_generated_by); otherwise S is greedy,
|S| <= log2 |K|: the last member of K outside <S> joins S until
|K| / |<S>| is 1 or prime.

close_group lists a group in one breadth-first pass from the identity
under left multiplication by the distinct non-identity generators.

Elements are located by their images on a prefix base; these keys
(_ElementKeys) are the group's only index.  Because the image rows are
sorted, the points 0..b-1, where b is one more than the last column in
which two consecutive rows first differ, already separate every element.
Each element is keyed by the mixed-radix int64 number of its
images on those points (radix = degree), so the keys rise with the element
index and one ``searchsorted`` on them turns base images into indices.
Where the next column would overflow int64, the partial keys are first
replaced by their ranks among the elements' partial keys, which is exact.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, wraps
from math import lcm

import numpy as np

from .modular import is_prime


def _memoised(build):
    """Memoise ``build(obj)`` in ``obj.__dict__`` under "_" + build's name
    (leading underscores dropped), outside any dataclass field, so the
    owner's equality, hashing and repr still see its fields only.  No
    memoised value may refer back to its owner: that cycle would keep the
    owner, and everything memoised on it, alive until the cyclic gc."""
    name = "_" + build.__name__.lstrip("_")

    @wraps(build)
    def memoised(obj):
        memo = obj.__dict__
        if name not in memo:
            memo[name] = build(obj)
        return memo[name]
    return memoised


class GroupTooLarge(Exception):
    """Closure exceeded the configured element cap."""


class NotASubgroup(Exception):
    pass


class Permutation:
    """A bijection of {0..n-1} stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not (_integers(images) and sorted(images) == list(range(len(images)))):
            raise ValueError("images must list each of 0..n-1 exactly once")
        self.images = tuple(map(int, images))

    @classmethod
    def _trusted(cls, images) -> "Permutation":
        """Wrap images already known to be a permutation, unchecked."""
        perm = cls.__new__(cls)
        perm.images = tuple(images)
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from disjoint cycles given as iterables of points."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            cycle = list(cycle)
            for a in cycle:
                if not (_integers([a]) and 0 <= a < degree):
                    raise ValueError(f"point {a} outside 0..{degree - 1}")
                if a in seen:
                    raise ValueError(f"point {a} appears more than once in the cycles")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        img = self.images
        return Permutation._trusted([img[y] for y in other.images])

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Permutation._trusted(inv)

    def __pow__(self, k: int) -> "Permutation":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Permutation._trusted(range(self.degree))
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def is_identity(self) -> bool:
        return all(i == x for x, i in enumerate(self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen[x] = True
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation(id on {self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation{body}"


class PermutationRows(Sequence):
    """A read-only sequence of permutations held as a read-only 2-D array
    of their image rows; row i is wrapped as a Permutation only when it is
    read, so its length and any row it is not asked for cost nothing."""

    __slots__ = ("images",)

    def __init__(self, images: np.ndarray):
        self.images = images

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Permutation:
        return Permutation._trusted(self.images[operator.index(index)].tolist())

    def __iter__(self):
        return map(Permutation._trusted, self.images.tolist())


def cycle_structure(perm: Permutation) -> tuple[int, ...]:
    """Sorted multiset of all cycle lengths, fixed points included."""
    lengths = [len(c) for c in perm.cycles()]
    fixed = perm.degree - sum(lengths)
    return tuple(sorted([1] * fixed + lengths))


def element_order(perm: Permutation) -> int:
    lengths = [len(c) for c in perm.cycles()]
    return lcm(*lengths) if lengths else 1


def fixed_points(perm: Permutation) -> int:
    """Number of points i with perm(i) == i."""
    return sum(1 for x, y in enumerate(perm.images) if x == y)


class PermutationGroup:
    """A finite permutation group held as ``images``, the read-only
    lexsorted (order, degree) array of its elements' image rows, indexed by
    _ElementKeys; the array is the group, and ``elements`` wraps its rows
    as Permutation objects on first read.  Keys, classes, the Cayley
    index table and a generating set are memoised on the group (_memoised);
    close_group stores the generators it closed the group from as that set.

    Built directly, it checks that the rows (in any order) hold integers in
    0..degree-1 and trusts them to be closed permutations; see close_group.
    Rows are sorted on a leading block of columns that separates them
    (_lexsort_order).
    """

    def __init__(self, images):
        images = np.asarray(images)
        if images.ndim != 2:
            raise ValueError("image rows must form a 2-D array")
        degree = images.shape[1]
        if degree < 1:
            raise ValueError(_DEGREE_ZERO)
        if images.dtype.kind not in "iu" or (
                images.size and not 0 <= images.min() <= images.max() < degree):
            raise ValueError(f"image rows must hold integers in 0..{degree - 1}")
        images = images.astype(_dtype_for(degree), copy=False)
        order, distinct = _lexsort_order(degree, lambda width: images[:, :width])
        images = images[order]
        # the identity is the least permutation in lex order
        if not len(images) or np.any(images[0] != np.arange(degree)):
            raise ValueError("identity missing")
        if not distinct:
            raise ValueError("duplicate elements")
        images.flags.writeable = False
        self.images = images

    @classmethod
    def _trusted(cls, images: np.ndarray) -> "PermutationGroup":
        """Wrap read-only image rows, in the image dtype, already known to
        be a lexsorted group, unchecked."""
        group = cls.__new__(cls)
        group.images = images
        return group

    @classmethod
    def from_elements(cls, elements) -> "PermutationGroup":
        """The group of the given permutations, built from their image rows
        like any other group; it keeps none of these objects."""
        elements = tuple(elements)
        if not elements:
            raise ValueError("empty element list")
        degree = elements[0].degree
        if any(p.degree != degree for p in elements):
            degrees = sorted({p.degree for p in elements})
            raise ValueError(f"elements of mixed degrees {degrees}")
        return cls(np.array([p.images for p in elements], dtype=_dtype_for(degree)))

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._trusted, self.images.tolist()))

    @property
    def degree(self) -> int:
        return self.images.shape[1]

    @property
    def order(self) -> int:
        return len(self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm) -> bool:
        return isinstance(perm, Permutation) and bool(_locate(self, [perm.images])[1][0])

    def index_of(self, perm: Permutation) -> int:
        index, found = _locate(self, [perm.images])
        if not found[0]:
            raise KeyError(perm.images)
        return int(index[0])

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def contains_group(self, other: "PermutationGroup") -> bool:
        return bool(_locate(self, other.images)[1].all())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, PermutationGroup):
            return False
        return self.degree == other.degree and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash((self.degree, self.images.tobytes()))

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


def _dtype_for(degree: int):
    return np.uint8 if degree <= 255 else np.uint16


def _integers(values) -> bool:
    """Whether every value is a Python or numpy integer, not a bool."""
    types = set(map(type, values))
    return bool not in types and all(issubclass(t, (int, np.integer)) for t in types)


_KEY_LIMIT = 1 << 63

_DEGREE_ZERO = "a permutation group needs degree >= 1"

# Products formed or located per step by close_group, the Cayley index
# table and is_gelfand_pair; bounds the rows and keys held at once.
_PRODUCT_CHUNK = 1 << 14

# Image entries read or gathered per step by a pass over a whole group's
# rows (_ElementKeys, characters.burnside_rank, abelian._semidirect_rows);
# bounds the temporaries it holds to a block of rows, not |G| x degree.
_GATHER_CHUNK = 1 << 20

# Most elements close_group lists before it raises GroupTooLarge.
CLOSURE_CAP = 1_000_000


class _ElementKeys:
    """Base images -> element indices for one group (see module docstring).

    ``folds`` maps each column before which the partial key is replaced by
    its rank to the sorted partial keys of the elements.  A query that is
    not the base of an element gets an arbitrary index, possibly past the
    last; _locate checks the rows.
    """

    __slots__ = ("base_length", "degree", "folds", "keys")

    def __init__(self, images: np.ndarray):
        n, degree = images.shape
        self.degree = degree
        # one more than the last first-differing column of consecutive rows,
        # compared a block of rows at a time
        step = max(1, _GATHER_CHUNK // degree)
        last = -1
        for start in range(1, n, step):
            block = images[start : start + step]
            first_diff = (block != images[start - 1 : start - 1 + len(block)]).argmax(axis=1)
            last = max(last, int(first_diff.max()))
        self.base_length = last + 1
        self.folds = {}
        key = np.zeros(n, dtype=np.int64)
        bound = 1
        for col in range(self.base_length):
            if bound * degree > _KEY_LIMIT:
                levels, key = np.unique(key, return_inverse=True)
                self.folds[col] = levels
                bound = len(levels)
            key = key * degree + images[:, col]
            bound *= degree
        self.keys = key

    def lookup(self, base_images: np.ndarray) -> np.ndarray:
        """Indices of the elements with these images on the base (last
        axis), as intp."""
        key = np.zeros(base_images.shape[:-1], dtype=np.int64)
        for col in range(self.base_length):
            levels = self.folds.get(col)
            if levels is not None:
                key = np.searchsorted(levels, key)
            key *= self.degree
            key += base_images[..., col]
        return np.searchsorted(self.keys, key)


@_memoised
def _element_keys(group: "PermutationGroup") -> _ElementKeys:
    return _ElementKeys(group.images)


def _locate(group: PermutationGroup, rows) -> tuple[np.ndarray, np.ndarray]:
    """(index, found) for image rows: found[i] tells whether rows[i] is an
    element, and then index[i] is its index.  One key lookup of the base
    images, then a row-for-row check; rows of another degree never match."""
    rows = np.asarray(rows)
    if rows.shape[1] != group.degree:
        return np.zeros(len(rows), dtype=np.intp), np.zeros(len(rows), dtype=bool)
    keys = _element_keys(group)
    # a non-member's key may sort past the last element
    index = np.minimum(keys.lookup(rows[:, : keys.base_length]), len(group) - 1)
    return index, np.all(group.images[index] == rows, axis=1)


def _lexsort_order(degree: int, columns) -> tuple[np.ndarray, bool]:
    """The order of the full lexsort of integer rows of width ``degree``,
    with entries below it, and whether the rows are pairwise distinct;
    ``columns(w)`` returns the first w columns of the rows.  It lexsorts
    them on the leading columns that one int64 key would hold (a key of
    radix degree, as _ElementKeys builds), doubling that prefix while two
    rows tie on it; rows equal in every column tie to the last."""
    width = 1
    while width < degree and degree ** (width + 1) < _KEY_LIMIT:
        width += 1
    while True:
        prefix = columns(min(width, degree))
        order = np.lexsort(prefix.T[::-1])
        prefix = prefix[order]
        distinct = not (prefix[1:] == prefix[:-1]).all(axis=1).any()
        if distinct or width >= degree:
            return order, distinct
        width *= 2


def close_group(generators) -> PermutationGroup:
    """The group generated by ``generators``, listed in one breadth-first pass
    from the identity under left multiplication by the distinct non-identity
    generators, which it stores as the group's generating set
    (_generating_rows).  The first block of at most _PRODUCT_CHUNK products
    that passes CLOSURE_CAP raises GroupTooLarge."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share one degree")
    if degree < 1:
        raise ValueError(_DEGREE_ZERO)
    dt = _dtype_for(degree)
    width = degree * np.dtype(dt).itemsize
    gen_arr = np.array(list(dict.fromkeys(g.images for g in gens)), dtype=dt)
    gen_arr = gen_arr[(gen_arr != np.arange(degree)).any(axis=1)]
    block = max(1, _PRODUCT_CHUNK // (len(gen_arr) or 1))
    seen = {np.arange(degree, dtype=dt).tobytes()}
    # the queue keeps first-seen order; set order varies with the per-process hash
    queue = list(seen)
    while queue:
        F = np.frombuffer(b"".join(queue[:block]), dtype=dt).reshape(-1, degree)
        del queue[:block]
        products = gen_arr[:, F].tobytes()
        rows = dict.fromkeys(products[i : i + width] for i in range(0, len(products), width))
        fresh = [row for row in rows if row not in seen]
        seen.update(fresh)
        queue += fresh
        if len(seen) > CLOSURE_CAP:
            raise GroupTooLarge(
                f"closure reached {len(seen)} elements, past the cap of {CLOSURE_CAP}"
            )
    return _generated_by(
        PermutationGroup(np.frombuffer(b"".join(seen), dtype=dt).reshape(len(seen), degree)),
        gen_arr)


def _generated_by(group: PermutationGroup, rows: np.ndarray) -> PermutationGroup:
    """``group``, storing the non-identity ones of ``rows``, image rows that
    generate it, as its generating set (the memo _generating_rows reads)."""
    rows = rows[(rows != np.arange(group.degree)).any(axis=1)]
    rows.flags.writeable = False
    group.__dict__["_generating_rows"] = rows
    return group


def _orbit_labels(maps: np.ndarray) -> np.ndarray:
    """Least point of each point's orbit under the permutations given as
    the rows of an integer array acting on 0..width-1.

    Min-label propagation with pointer jumping: each round lowers every
    label to the label of its image under each map in turn, then replaces
    it by the label of the point it names, until a round leaves the labels'
    bytes unchanged (one memcmp; an element-wise compare costs more than a
    round on a few dozen points).  A label only ever names a point of the
    same orbit and never rises, and at the fixpoint it is constant along
    every cycle of every map, so it is the orbit's least point.  Labels
    have the dtype of ``maps``."""
    label = np.arange(maps.shape[1], dtype=maps.dtype)
    before = label.tobytes()
    while True:
        for row in maps:
            np.minimum(label, label[row], out=label)
        label = label[label]
        if (after := label.tobytes()) == before:
            return label
        before = after


def _powers(f: np.ndarray) -> Iterator[np.ndarray]:
    """Yield f^0, f^1, ..., f^(k-1), k = ord f, for a permutation f of
    0..n-1 given as an index array, in its dtype; a power is the identity
    once its bytes are the identity's."""
    power = np.arange(len(f), dtype=f.dtype)
    identity = power.tobytes()
    while True:
        yield power
        power = power[f]
        if power.tobytes() == identity:
            return


def _greedy_generators(group: PermutationGroup,
                       members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Image rows of a greedy generating set S, read off the elements, of the
    subgroup K with ascending element indices ``members``, and the int32
    index maps x -> s x of G.

    The last (lex-largest) member outside <S> (the identity's orbit under
    the maps) joins S, at least doubling <S>: |S| <= log2 |K|.  A late
    member tends to climb further than the least one, which often lies in
    a small subgroup; on Aut(Z_2^4), of order 20160, |S| is 3, not 9.  By
    Lagrange, a subgroup strictly between <S> and K has an order that
    |<S>| divides and that divides |K|; once |K| / |<S>| is prime there is
    none, so any member outside <S> completes S, with no orbit pass to
    confirm it."""
    E, keys = group.images, _element_keys(group)
    base = E[:, : keys.base_length]
    chosen, left, outside = [], np.empty((0, len(E)), dtype=np.int32), members[1:]
    while outside.size:
        chosen.append(outside[-1])
        left = np.vstack([left, keys.lookup(E[outside[-1]][base])], dtype=np.int32)
        # |<S>| before this member joined is |K| minus the members outside it
        if is_prime(len(members) // (len(members) - outside.size)):
            break
        outside = outside[_orbit_labels(left)[outside] != 0]
    return E[chosen], left


@_memoised
def _generating_rows(group: PermutationGroup) -> np.ndarray:
    """Image rows of a generating set of G, read-only: those close_group
    stored, else a greedy set (_greedy_generators); memoised on the group."""
    rows = _greedy_generators(group, np.arange(len(group)))[0]
    rows.flags.writeable = False
    return rows


def orbits(group: PermutationGroup) -> list[tuple[int, ...]]:
    """The orbits on 0..degree-1, each sorted, ordered by least point."""
    label = _orbit_labels(_generating_rows(group))
    least = np.flatnonzero(label == np.arange(group.degree))
    return [tuple(np.flatnonzero(label == x).tolist()) for x in least.tolist()]


@dataclass(frozen=True, eq=False, kw_only=True)
class Partition:
    """Partition of the indices 0..N-1 into blocks: block ``labels[k]`` of
    index k, least index ``starts[i]`` (the block's representative) and
    size ``counts[i]`` of block i.  Blocks are ordered by least index.
    Subclasses add their own fields; every field is keyword-only."""

    labels: np.ndarray
    starts: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_least(cls, least: np.ndarray, **fields):
        """The partition in which index k lies in the block whose least
        index is ``least[k]``; ``fields`` are the subclass's own.  Raises
        ValueError unless 0 <= least[k] <= k and least[least[k]] == least[k]."""
        index = np.arange(len(least))
        is_least = least == index
        if not (np.all((least >= 0) & (least <= index)) and is_least[least].all()):
            raise ValueError("labels are not the least indices of their blocks")
        labels = np.cumsum(is_least)[least] - 1
        return cls(labels=labels, starts=least[is_least], counts=np.bincount(labels), **fields)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.counts.tolist())

    def __len__(self) -> int:
        return len(self.counts)

    def blocks(self, items) -> tuple[tuple, ...]:
        """``items[k]`` grouped by the block of k, blocks in order and each
        block in index order."""
        order = np.argsort(self.labels, kind="stable").tolist()
        bounds = np.cumsum(self.counts).tolist()
        ordered = [items[k] for k in order]
        return tuple(tuple(ordered[a:b]) for a, b in zip([0, *bounds], bounds))


@dataclass(frozen=True, eq=False, kw_only=True)
class ConjugacyClassSet(Partition):
    """Conjugacy classes of the group with image array ``images``, one
    block per class over element indices.  Classes are ordered by least
    member, so the identity class is first; each class read from
    ``classes`` is sorted."""

    images: np.ndarray

    @cached_property
    def representatives(self) -> tuple[Permutation, ...]:
        return tuple(map(Permutation._trusted, self.images[self.starts].tolist()))

    @cached_property
    def classes(self) -> tuple[tuple[Permutation, ...], ...]:
        return self.blocks(list(map(Permutation._trusted, self.images.tolist())))

    def same_classes(self, other: "ConjugacyClassSet") -> bool:
        return self is other or np.array_equal(self.images, other.images)


@_memoised
def conjugacy_classes(group: PermutationGroup) -> ConjugacyClassSet:
    """Conjugacy classes as the orbits of conjugation by the generating set
    S of G (_generating_rows), each labelled by its least index
    (_orbit_labels), from 2|S| key lookups; memoised on the group.  The set
    holds the image array, not the group: no cycle."""
    E, keys = group.images, _element_keys(group)
    rows = _generating_rows(group)
    # x -> s x s^-1 as indices from base images; int32 halves them
    conjugation = np.empty((len(rows), len(E)), dtype=np.int32)
    for s, row in zip(rows, conjugation):
        row[:] = keys.lookup(s[E[:, np.argsort(s)[: keys.base_length]]])
    return ConjugacyClassSet.from_least(_orbit_labels(conjugation).astype(np.intp), images=E)


def stabilizer(group: PermutationGroup, point: int) -> PermutationGroup:
    """Point stabilizer: the rows of the group's image array that fix the
    point, read-only, with no Permutation built.  They are lexsorted,
    distinct and hold the identity, as a subset of the group's rows, so
    they are wrapped unchecked."""
    if not 0 <= point < group.degree:
        raise ValueError("point out of range")
    rows = group.images[group.images[:, point] == point]
    rows.flags.writeable = False
    return PermutationGroup._trusted(rows)


@_memoised
def cayley_index_table(group: PermutationGroup) -> np.ndarray:
    """table[i, j] = index of elements[i] * elements[j], as int32; memoised
    on the group."""
    E = group.images
    element_keys = _element_keys(group)
    n = len(group)
    base_columns = E[:, : element_keys.base_length]
    rows = max(1, _PRODUCT_CHUNK // n)
    table = np.empty((n, n), dtype=np.int32)
    for start in range(0, n, rows):
        # products[r, j] holds the base images of elements[start + r] * elements[j]
        products = E[start : start + rows][:, base_columns]
        table[start : start + rows] = element_keys.lookup(products)
    return table


def element_order_profile(group: PermutationGroup) -> dict[int, int]:
    """Histogram {order: count} over all elements; a cheap isomorphism
    invariant for telling small groups apart."""
    profile: dict[int, int] = {}
    for g in group.elements:
        k = element_order(g)
        profile[k] = profile.get(k, 0) + 1
    return dict(sorted(profile.items()))
