"""Finite groups as validated multiplication tables.

A group of order n is stored as an n-by-n table over the element
indices 0..n-1, with index 0 always the identity.  Element sets
(subgroups, covers, centers) are passed around as plain int bitmasks,
which keeps the combinatorial layers allocation-free.

Construction routes: an explicit table (validated against all four
axioms), closure of permutation generators, one of the named preset
families, direct products, and quotients by a normal subgroup.  All
but the explicit table share one builder, `_generated_group`, which
closes the generators under left multiplication and composes each row
from two earlier ones along the closure's edges, with no further
products; its tables are groups by construction and skip the axiom checks.

Associativity is checked by Light's test (Clifford & Preston, The
Algebraic Theory of Semigroups I, 1961, section 1.2).  The good y, with
(xy)z = x(yz) for all x, z, are closed under products, as (x(yw))z =
((xy)w)z = (xy)(wz) = x(y(wz)) = x((yw)z).  So a good generating set
proves the table associative, at O(n^2) per generator, not O(n^3).

Validation is one ordered pass: entries in range, row and column 0 the
identity, every row a permutation, Light's test.  A table that passes
all four is an associative monoid in which every element has a right
inverse, so it is a group: its columns are Latin and its inverses
two-sided, and checking either would be wasted work.  Only a table that
fails Light's test gets those two checks, before its NotAssociative, so
the error names the first broken axiom (a column that repeats an entry,
say, rather than the triple that this makes fail).

Conjugation by the generators is the one source of conjugation facts.
`Group._conjugations` keeps the maps x -> g^-1 x g that are not the
identity, so the group is abelian exactly when none is left.  The orbit
walk under those maps fills `Group.class_masks`, whose entry x is x's
class, so a question about one element's class is one lookup.  The
center is read off the class map: it is the elements that are their own
class.  Conjugacy classes are the normality primitive: any set, subgroup
or not, is invariant under conjugation exactly when it is a union of
classes, so `is_normal_mask` asks each class C to meet a mask in nothing
or in C.  Central elements are singleton classes that never decide this,
so `Group.conjugacy_classes` keeps only the classes of size > 1.
"""

from __future__ import annotations

import operator
import re
from functools import cached_property, wraps
from math import gcd, lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .arith import is_prime
from .errors import (
    InvalidParameters,
    MalformedCycle,
    MissingInverse,
    NoIdentityAtZero,
    NotAssociative,
    NotLatinSquare,
    NotNormal,
    NotSubgroup,
    OrderBoundExceeded,
)

ORDER_BOUND = 512
# Groups up to this order get their irredundant-cover sizes walked, which
# needs every subgroup; above it, analysis reads no more than it must.
DEFAULT_ENUM_BOUND = 32


# ---------------------------------------------------------------------------
# Bitmask helpers


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# Table validation


def _table_rows(cayley: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The table as int tuples; sizes are checked before entries are converted."""
    try:
        n = len(cayley)
        if n > ORDER_BOUND:
            raise OrderBoundExceeded(ORDER_BOUND)
        rows = []
        for row in cayley:
            if len(row) != n:
                break
            rows.append(tuple(map(operator.index, row)))
    except TypeError as exc:
        raise InvalidParameters(
            f"multiplication table must be a square array of integers ({exc})"
        ) from None
    if n == 0 or len(rows) != n:
        raise InvalidParameters("multiplication table must be square and nonempty")
    return tuple(rows)


def _greedy_generators(t: tuple[tuple[int, ...], ...]) -> Iterator[int]:
    """Yield y1, y2, ... each outside the right-multiplication closure of
    those before it; while they are good, it is a group that each one doubles.

    The closure grows incrementally: members already closed under the
    earlier generators take only the new one, new members take them all.
    """
    members, reached, gens = [0], 1, []
    for y in range(1, len(t)):
        if not reached >> y & 1:
            yield y
            gens.append(y)
            closed = len(members)
            for i, a in enumerate(members):  # grows while it is scanned
                row = t[a]
                for s in (gens if i >= closed else (y,)):
                    b = row[s]
                    if not reached >> b & 1:
                        reached |= 1 << b
                        members.append(b)


def _nonassociative_triple(
    t: tuple[tuple[int, ...], ...], gens: tuple[int, ...]
) -> tuple[int, int, int] | None:
    """Light's test over gens: the first (x, y, z) with (xy)z != x(yz), else None."""
    for y in gens:
        times_y = operator.itemgetter(*t[y])
        for x, row in enumerate(t):
            if times_y(row) != t[row[y]]:
                z = next(z for z in range(len(t)) if t[row[y]][z] != row[t[y][z]])
                return x, y, z
    return None


def _check_axioms(
    t: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate identity, Latin property, inverses, associativity.

    Returns the inverse map and the generators Light's test read.  The
    checks run once, in a fixed order, so the error names the first broken
    axiom: entries in range (a negative one would index from the end of a
    row), identity row and column, Latin rows, Light's test.  Columns and
    inverses can fail only when Light's test does (see the module
    docstring), so only then are they checked, before NotAssociative.
    """
    n = len(t)
    idx = tuple(range(n))
    every = set(idx)
    not_latin = [a for a, row in enumerate(t) if set(row) != every]
    for a in not_latin:
        if min(t[a]) < 0 or max(t[a]) >= n:
            raise NotLatinSquare("row", a)

    if t[0] != idx:
        raise NoIdentityAtZero("row 0 does not fix every element")
    if tuple(row[0] for row in t) != idx:
        raise NoIdentityAtZero("column 0 does not fix every element")

    if not_latin:
        raise NotLatinSquare("row", not_latin[0])

    gens = tuple(_greedy_generators(t))
    witness = _nonassociative_triple(t, gens)
    if witness is None:
        return tuple(row.index(0) for row in t), gens

    for a, column in enumerate(zip(*t)):
        if len(set(column)) != n:
            raise NotLatinSquare("column", a)
    # Rows are permutations, so a right inverse exists; demand it also
    # works from the left.
    for a, row in enumerate(t):
        if t[row.index(0)][a] != 0:
            raise MissingInverse(a)
    raise NotAssociative(*witness)


# ---------------------------------------------------------------------------
# The Group class


class Group:
    """An immutable finite group given by its multiplication table.

    Two Group objects are never considered equal, even for identical
    tables.  Derived data lives in the group's own memo (see per_group)
    and is freed with the group.
    """

    def __init__(
        self,
        cayley: Sequence[Sequence[int]],
        name: str | None = None,
        *,
        _inverse: tuple[int, ...] | None = None,
    ) -> None:
        if name is not None and not isinstance(name, str):
            raise InvalidParameters(f"group name must be a str, not {name!r}")
        rows = _table_rows(cayley) if _inverse is None else tuple(cayley)
        self.order: int = len(rows)
        self.cayley: tuple[tuple[int, ...], ...] = rows
        if _inverse is None:
            _inverse, self.generators = _check_axioms(rows)
        self.inverse: tuple[int, ...] = _inverse
        self.name: str = name if name is not None else f"G{self.order}"
        self._memo: dict = {}

    def __repr__(self) -> str:
        return f"<Group {self.name!r} of order {self.order}>"

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1

    # -- arithmetic on element indices

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def conjugate(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        t = self.cayley
        return t[t[self.inverse[g]][x]][g]

    def commutator(self, a: int, b: int) -> int:
        """a^-1 * b^-1 * a * b."""
        t = self.cayley
        return t[t[t[self.inverse[a]][self.inverse[b]]][a]][b]

    def power(self, x: int, k: int) -> int:
        m = self.element_order(x)
        k %= m
        acc = 0
        for _ in range(k):
            acc = self.cayley[acc][x]
        return acc

    def element_order(self, x: int) -> int:
        return self.element_orders[x]

    # -- whole-group invariants

    @cached_property
    def cyclic_masks(self) -> tuple[int, ...]:
        """Entry x is the mask of the cyclic subgroup <x>.

        One power walk per cyclic subgroup, from its least generator x:
        x^k generates <x> exactly when k is prime to |x|, so every
        generator takes the mask that walk found.
        """
        t = self.cayley
        masks = [0] * self.order
        for x in range(self.order):
            if masks[x]:
                continue
            powers, mask, y = [x], 1 << x, x  # x, x^2, ..., x^|x| = 1
            while y:
                y = t[y][x]
                powers.append(y)
                mask |= 1 << y
            for k, y in enumerate(powers, 1):
                if gcd(k, len(powers)) == 1:
                    masks[y] = mask
        return tuple(masks)

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """|x| for each element x: the size of <x>."""
        return tuple(m.bit_count() for m in self.cyclic_masks)

    @cached_property
    def order_masks(self) -> dict[int, int]:
        """Each element order -> the mask of the elements of that order."""
        masks: dict[int, int] = {}
        for x, o in enumerate(self.element_orders):
            masks[o] = masks.get(o, 0) | 1 << x
        return masks

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.element_orders)

    @cached_property
    def is_abelian(self) -> bool:
        """No generator's conjugation moves anything."""
        return not self._conjugations

    @cached_property
    def is_cyclic(self) -> bool:
        return max(self.element_orders) == self.order

    @cached_property
    def center(self) -> int:
        """The elements that are their own class in `class_masks`."""
        return mask_of(x for x, c in enumerate(self.class_masks) if c == 1 << x)

    @cached_property
    def class_masks(self) -> tuple[int, ...]:
        """Entry x is the mask of x's conjugacy class.

        Each class is the orbit of its least element under `_conjugations`.
        Every map fixes a central x, so x is its own orbit, and the center
        is read off these masks.
        """
        perms, masks = self._conjugations, [0] * self.order
        for x in range(self.order):
            if masks[x]:
                continue
            orbit, cls = [x], 1 << x
            for y in orbit:  # grows while it is scanned
                for perm in perms:
                    z = perm[y]
                    if not cls >> z & 1:
                        cls |= 1 << z
                        orbit.append(z)
            for y in orbit:
                masks[y] = cls
        return tuple(masks)

    @cached_property
    def conjugacy_classes(self) -> tuple[int, ...]:
        """Masks of the classes of size > 1, by least element."""
        return tuple(
            c for x, c in enumerate(self.class_masks) if c & -c == 1 << x and c != 1 << x
        )

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """At most log2(n) elements generating the group (see _greedy_generators).

        A validated table is handed the ones its associativity check read.
        """
        return tuple(_greedy_generators(self.cayley))

    # -- element-set operations

    @cached_property
    def _conjugations(self) -> tuple[tuple[int, ...], ...]:
        """x -> g^-1 * x * g as a tuple, for each generator g whose map is
        not the identity, that is, each non-central one."""
        t, inv, fixed = self.cayley, self.inverse, tuple(range(self.order))
        perms = (tuple(t[y][g] for y in t[inv[g]]) for g in self.generators)
        return tuple(perm for perm in perms if perm != fixed)

    def conjugates(self, mask: int) -> tuple[int, ...]:
        """Every g^-1 * mask * g, mask first: the orbit under non-central generators."""
        if is_normal_mask(self, mask):
            return (mask,)
        perms = self._conjugations
        orbit = [mask]
        seen = {mask}
        for member in orbit:  # grows while it is scanned
            elements = list(iter_bits(member))
            for perm in perms:
                image = 0
                for x in elements:
                    image |= 1 << perm[x]
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        return tuple(orbit)


class CacheInfo(NamedTuple):
    """Hits and misses of a `per_group` function, summed over all groups."""

    hits: int
    misses: int


def per_group(fn):
    """Memoize fn(group, *args) in the group's memo, so results die with it.

    The key is fn and the positional arguments after the group; callers
    pass no keywords.  Exceptions are not cached.  cache_info() gives the
    hits and misses summed over all groups; a miss is one computation.
    """
    counts = [0, 0]

    @wraps(fn)
    def memoized(group, *args):
        key = (fn, *args) if args else fn
        if key in group._memo:
            counts[0] += 1
        else:
            counts[1] += 1
            group._memo[key] = fn(group, *args)
        return group._memo[key]

    memoized.cache_info = lambda: CacheInfo(*counts)
    return memoized


def validate_group(
    cayley: Sequence[Sequence[int]], name: str | None = None
) -> Group:
    """Build a Group from a raw table, raising on any broken axiom."""
    return Group(cayley, name)


def _element_mask(group: Group, mask) -> int:
    """mask as an int set of elements of group, else InvalidParameters."""
    try:
        mask = operator.index(mask)
    except TypeError:
        raise InvalidParameters(f"subgroup mask {mask!r} is not an integer") from None
    if mask < 0 or mask >> group.order:
        raise InvalidParameters(
            f"subgroup mask {mask:#x} is not a set of elements 0..{group.order - 1}"
        )
    return mask


def is_subgroup_mask(group: Group, mask: int) -> bool:
    """True iff mask is nonempty, contains the identity, and is closed."""
    if not mask & 1:
        return False
    t = group.cayley
    members = list(iter_bits(mask))
    return all(mask >> t[a][b] & 1 for a in members for b in members)


def is_cyclic_mask(group: Group, mask: int) -> bool:
    """True iff the subgroup mask has an element whose order is its size."""
    orders = group.element_orders
    return max(orders[x] for x in iter_bits(mask)) == mask.bit_count()


def is_normal_mask(group: Group, mask: int) -> bool:
    """True iff mask is a union of conjugacy classes, for any mask."""
    return all((c & mask) in (0, c) for c in group.conjugacy_classes)


# ---------------------------------------------------------------------------
# Tables from generators


def _generated_group(identity, gens, mul, name: str | None) -> Group:
    """The group that gens generate under mul, element i its i-th smallest key.

    Every trusted table comes from here.  Closing identity under left
    multiplication by gens takes n * k calls to mul and records, for each
    new key b, an edge b = g * p.  The closure gives the generators' rows,
    and row b follows from row p as (g * p) * x = g * (p * x): one lookup
    per entry in the row of g, with no further products.  Likewise
    b^-1 = p^-1 * g^-1 needs only the inverses of the generators.  A
    closure that passes ORDER_BOUND keys raises OrderBoundExceeded, so no
    constructor checks the order of what it builds.
    """
    keys, index, edges = [identity], {identity: 0}, []
    steps: list[list[int]] = [[] for _ in gens]
    for i, p in enumerate(keys):  # grows while it is scanned
        for k, g in enumerate(gens):
            b = mul(g, p)
            if b not in index:
                if len(keys) >= ORDER_BOUND:
                    raise OrderBoundExceeded(ORDER_BOUND)
                index[b] = len(keys)
                keys.append(b)
                edges.append((i, k))
            steps[k].append(index[b])
    rank = sorted(range(len(keys)), key=keys.__getitem__)
    label = {i: r for r, i in enumerate(rank)}
    gen_rows = [[label[step[i]] for i in rank] for step in steps]
    rows = [tuple(range(len(keys)))]
    for p, k in edges:  # n >= 2 here, so itemgetter returns a tuple
        rows.append(operator.itemgetter(*rows[p])(gen_rows[k]))
    table = [rows[i] for i in rank]
    gen_inv = [row.index(0) for row in gen_rows]
    inv = [0]
    for p, k in edges:
        inv.append(table[inv[p]][gen_inv[k]])
    return Group(table, name, _inverse=tuple(inv[i] for i in rank))


def _integer(value, what: str) -> int:
    """A constructor parameter as an int, else InvalidParameters."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameters(f"{what} must be an integer, not {value!r}") from None


def _natural(value, what: str) -> int:
    """A bound as a non-negative int, else InvalidParameters."""
    n = _integer(value, what)
    if n < 0:
        raise InvalidParameters(f"{what} {n} is negative")
    return n


# ---------------------------------------------------------------------------
# Permutations


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _parse_permutation(text: str, degree: int) -> tuple[int, ...]:
    """Parse disjoint cycle notation like ``(1 2 3)(4 5)`` on 1-based points."""
    leftover = _CYCLE_RE.sub("", text).strip()
    if leftover:
        raise MalformedCycle(f"unexpected text {leftover!r} in {text!r}")
    image = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        tokens = body.replace(",", " ").split()
        if not tokens:
            continue
        try:
            points = [int(tok) for tok in tokens]
        except ValueError:
            raise MalformedCycle(f"non-integer point in cycle ({body})") from None
        for p in points:
            if not 1 <= p <= degree:
                raise MalformedCycle(
                    f"point {p} out of range 1..{degree} in {text!r}"
                )
            if p - 1 in seen:
                raise MalformedCycle(f"point {p} repeated in {text!r}")
            seen.add(p - 1)
        for i, p in enumerate(points):
            image[p - 1] = points[(i + 1) % len(points)] - 1
    return tuple(image)


def from_permutation_generators(
    degree: int,
    generators: Sequence[str | Sequence[int]],
    name: str | None = None,
) -> Group:
    """Close a generating set of permutations into a Group.

    Products compose left to right: (p * q)(x) = q(p(x)).  Elements are
    ordered lexicographically by image tuple, which puts the identity
    first automatically.
    """
    degree = _integer(degree, "permutation degree")
    if not 1 <= degree <= ORDER_BOUND:
        raise InvalidParameters(f"permutation degree must lie in 1..{ORDER_BOUND}")
    if isinstance(generators, str):  # would be read one character at a time
        raise InvalidParameters("generators must be a sequence of permutations, not a str")
    try:
        generators = iter(generators)
    except TypeError:
        raise InvalidParameters(f"generators {generators!r} is not iterable") from None
    gens: list[tuple[int, ...]] = []
    for g in generators:
        if isinstance(g, str):
            gens.append(_parse_permutation(g, degree))
        else:
            try:
                perm = tuple(map(operator.index, g))
            except TypeError:
                raise MalformedCycle(f"{g!r} has a non-integer point") from None
            if sorted(perm) != list(range(degree)):
                raise MalformedCycle(f"{g!r} is not a permutation of 0..{degree - 1}")
            gens.append(perm)

    return _generated_group(
        tuple(range(degree)), gens, lambda p, q: tuple(map(q.__getitem__, p)), name
    )


# ---------------------------------------------------------------------------
# Preset families


def cyclic(n: int, name: str | None = None) -> Group:
    n = _integer(n, "cyclic group order")
    if n < 1:
        raise InvalidParameters("cyclic group order must be at least 1")
    name = f"C{n}" if name is None else name
    return _generated_group(0, [1 % n], lambda a, b: (a + b) % n, name)


def dihedral(n: int, name: str | None = None) -> Group:
    """Dihedral group with n rotations (order 2n); element f*n + i is s^f r^i."""
    n = _integer(n, "dihedral parameter")
    if n < 1:
        raise InvalidParameters("dihedral parameter must be at least 1")
    return _generated_group(  # r^i s = s r^-i
        (0, 0),
        [(0, 1 % n), (1, 0)],
        lambda a, b: (a[0] ^ b[0], (b[1] - a[1] if b[0] else b[1] + a[1]) % n),
        f"D{2 * n}" if name is None else name,
    )


def generalized_quaternion(k: int, name: str | None = None) -> Group:
    """Generalized quaternion group of order 2^k, k >= 3.

    Element j*m + i is x^i y^j with m = 2^(k-1), y^2 = x^(m/2),
    y^-1 x y = x^-1.
    """
    k = _integer(k, "generalized quaternion parameter")
    if k < 3:
        raise InvalidParameters("generalized quaternion needs order at least 8")
    if k > ORDER_BOUND.bit_length() - 1:
        raise OrderBoundExceeded(ORDER_BOUND)
    m = 2 ** (k - 1)
    h = m // 2
    return _generated_group(  # y x^i = x^-i y and y^2 = x^h
        (0, 0),
        [(0, 1), (1, 0)],
        lambda a, b: (
            a[0] ^ b[0], (a[1] - b[1] + h * b[0] if a[0] else a[1] + b[1]) % m
        ),
        f"Q{2 * m}" if name is None else name,
    )


def symmetric(n: int, name: str | None = None) -> Group:
    n = _integer(n, "symmetric degree")
    if not 1 <= n <= ORDER_BOUND:
        raise InvalidParameters(f"symmetric degree must lie in 1..{ORDER_BOUND}")
    gens = [] if n == 1 else ["(1 2)", "(" + " ".join(map(str, range(1, n + 1))) + ")"]
    name = f"S{n}" if name is None else name
    return from_permutation_generators(max(n, 1), gens, name)


def alternating(n: int, name: str | None = None) -> Group:
    n = _integer(n, "alternating degree")
    if not 1 <= n <= ORDER_BOUND:
        raise InvalidParameters(f"alternating degree must lie in 1..{ORDER_BOUND}")
    gens = [f"(1 2 {k})" for k in range(3, n + 1)]  # the 3-cycles generate A_n
    return from_permutation_generators(n, gens, f"A{n}" if name is None else name)


def direct_product(a: Group, b: Group, name: str | None = None) -> Group:
    """Componentwise product; element (x, y) gets index x * |b| + y."""
    return _generated_group(  # sorted (x, y) keys: label x * |b| + y
        (0, 0),
        [(g, 0) for g in a.generators] + [(0, h) for h in b.generators],
        lambda x, y: (a.cayley[x[0]][y[0]], b.cayley[x[1]][y[1]]),
        f"{a.name} x {b.name}" if name is None else name,
    )


def semidirect_cp_cn(p: int, n: int, l: int, name: str | None = None) -> Group:
    """The group <x, a | x^p, a^n, a^-1 x a = x^l> of order p*n.

    Requires p prime, 1 <= l < p, and l^n = 1 mod p so the action is
    well defined.  Element j*p + i is a^j x^i.
    """
    p, n, l = _integer(p, "p"), _integer(n, "n"), _integer(l, "twist l")
    if n < 1:
        raise InvalidParameters("n must be at least 1")
    if p * n > ORDER_BOUND:
        raise OrderBoundExceeded(ORDER_BOUND)
    if not is_prime(p):
        raise InvalidParameters(f"p = {p} must be prime")
    if not 1 <= l < p:
        raise InvalidParameters(f"twist l = {l} must lie in 1..{p - 1}")
    if pow(l, n, p) != 1:
        raise InvalidParameters(f"l^n = {l}^{n} is not 1 mod {p}")
    return _generated_group(  # x^i a^j = a^j x^(i l^j)
        (0, 0),
        [(0, 1), (1 % n, 0)],
        lambda a, b: ((a[0] + b[0]) % n, (a[1] * pow(l, b[0], p) + b[1]) % p),
        f"C{p}:C{n}[{l}]" if name is None else name,
    )


# ---------------------------------------------------------------------------
# Quotients


class Homomorphism(NamedTuple):
    """A map between groups recorded as an image tuple on element indices."""

    source: Group
    target: Group
    mapping: tuple[int, ...]

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def quotient(group: Group, normal_mask: int) -> tuple[Group, Homomorphism]:
    """Quotient by a normal subgroup, plus the projection map.

    Coset indices follow the smallest element in each coset, so the
    result is canonical for a given (group, subgroup) pair.
    """
    normal_mask = _element_mask(group, normal_mask)
    if not is_subgroup_mask(group, normal_mask):
        raise NotSubgroup("quotient requires a subgroup")
    if not is_normal_mask(group, normal_mask):
        raise NotNormal("quotient requires a normal subgroup")
    n = group.order
    members = list(iter_bits(normal_mask))
    coset_of = [-1] * n
    reps: list[int] = []
    for a in range(n):
        if coset_of[a] == -1:
            k = len(reps)
            reps.append(a)
            for x in members:
                coset_of[group.cayley[a][x]] = k
    q = _generated_group(  # the cosets of G's generators generate G/N
        0,
        [coset_of[g] for g in group.generators],
        lambda i, j: coset_of[group.cayley[reps[i]][reps[j]]],
        f"{group.name}/N{len(members)}",
    )
    return q, Homomorphism(group, q, tuple(coset_of))
