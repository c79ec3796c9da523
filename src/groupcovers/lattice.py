"""Subgroup lattices, normal structure, and chief series.

Subgroups are bitmasks over element indices.  The full lattice is
computed by cyclic extension up to conjugacy (Neubueser, Numer. Math. 2,
1960): starting from the trivial subgroup, one representative S of each
conjugacy class is joined with cyclic subgroups, and each new join
brings its whole class, the orbit under conjugation by G's generators.
Two lemmas make this exhaustive with few joins:

* Classes.  <S^g, c^g> = <S, c>^g, so joining only a representative of
  each class and adding the classes of the joins finds every subgroup.
* Prime steps.  If x is not in S, then <x> meets S in <x^a> for some
  a > 1; for a prime p dividing a, y = x^(a/p) is not in S but y^p is.
  So every subgroup above S is reached through joins <S, c> with c
  meeting S in a subgroup of prime index in c, and only those are formed.
  A join depends only on the coset S*x, so one per coset is formed.

The closure also decides normality and maximality: a subgroup is
normal exactly when its class is a single subgroup, and a proper S is
maximal exactly when every prime-step join of S is G (any H strictly
between S and G contains such a y), a property its conjugates share.

Every representative keeps a short generator tuple: the trivial
subgroup none, a join <S, c> the tuple of S followed by c's least
generator.  The join is Dimino's closure.  Because S is already a subgroup, <S, c> is a
union of right cosets S*r: the closure starts from S and S*c, and for
each coset representative r and each generator g it adds the whole
coset S*(r*g) when r*g is new.  That costs O(|J|) table lookups plus
(|J|/|S|)*k generator products, where the pairwise closure of a bare
element set costs O(|J|^2).  Lagrange gives a cutoff: a proper subgroup
has at most |G|/p elements, p the least prime dividing |G|, so the
closure stops, and the join is G, as soon as it holds more than that.
`generated_mask` runs the same join, adjoining one seed element at a
time.

Normal structure reads the conjugacy classes (see groups.py).  x lies in
every conjugate of a set exactly when its class lies in the set, so
`normal_core` is the set's central part plus the classes it contains.
For lower normal, upper/lower is central when [x, g] is in lower for all
x in upper, g in G: each class C meeting upper outside lower must lie in
x*lower for x in C, and one x is enough.  That is |C| lookups per class.

Solvability, nilpotency and supersolvability are read off the chief
factors.  A chief factor H/K is minimal normal in G/K, so it is a direct
power of one simple group.  It is abelian exactly when its order is a
prime power: no non-abelian simple group has prime-power order.  G is
solvable when every chief factor is abelian, nilpotent when every one is
central (a minimal normal subgroup of a nilpotent group is central), and
supersolvable when every one has prime order.

All listings come back in a canonical order, sorted by (order, members
mask), so downstream choices like "the first witness" are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .arith import is_prime, p_part, prime_divisors, prime_power_base
from .errors import InvalidParameters, PrimeDoesNotDivideOrder
from .groups import Group, is_normal_mask, iter_bits, per_group


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of some fixed ambient group, as a member bitmask."""

    members: int
    order: int
    is_normal: bool

    def __contains__(self, element: int) -> bool:
        return bool(self.members >> element & 1)

    def key(self) -> tuple[int, int]:
        return (self.order, self.members)


@dataclass(frozen=True)
class CyclicSubgroup:
    """A cyclic subgroup tagged with its least-index generator."""

    subgroup: Subgroup
    generator: int
    is_maximal: bool  # maximal among the cyclic subgroups, not in the lattice


@dataclass(frozen=True)
class ChiefFactor:
    """One factor of a chief series, between two normal subgroups."""

    lower: int
    upper: int
    factor_order: int
    complement_count: int
    is_central: bool
    prime: int | None

    @property
    def is_complemented(self) -> bool:
        return self.complement_count >= 1


def _proper_cap(order: int) -> int:
    """Largest order a proper subgroup can have: |G| / least prime divisor."""
    return order // prime_divisors(order)[0] if order > 1 else 0


def _join(
    table: tuple[tuple[int, ...], ...],
    members: list[int],
    mask: int,
    gens: tuple[int, ...],
    c: int,
    cap: int,
) -> int:
    """Mask of <S, c> for the subgroup S = mask, generated by gens, c not in S.

    members lists the elements of S.  Returns the full mask as soon as
    the join holds more than cap elements.
    """
    n = len(members)
    if 2 * n > cap:
        return (1 << len(table)) - 1
    for s in members:
        mask |= 1 << table[s][c]
    size = 2 * n
    reps = [c]
    gens = gens + (c,)
    for r in reps:
        row = table[r]
        for g in gens:
            z = row[g]
            if not mask >> z & 1:
                size += n
                if size > cap:
                    return (1 << len(table)) - 1
                for s in members:
                    mask |= 1 << table[s][z]
                reps.append(z)
    return mask


def generated_mask(group: Group, seed_mask: int) -> int:
    """Subgroup generated by the elements of seed_mask.

    Adjoins each seed element not yet in the subgroup, one join at a time.
    """
    t = group.cayley
    cap = _proper_cap(group.order)
    mask, gens = 1, ()
    for x in iter_bits(seed_mask):
        if mask >> x & 1:
            continue
        mask = _join(t, list(iter_bits(mask)), mask, gens, x, cap)
        if mask == group.full_mask:
            break
        gens += (x,)
    return mask


@per_group
def _cyclic_masks(group: Group) -> tuple[tuple[int, int], ...]:
    """(mask, least generator) for every cyclic subgroup, by (order, mask)."""
    t = group.cayley
    seen: dict[int, int] = {}
    for x in range(group.order):
        mask = 1
        y = x
        while y != 0:
            mask |= 1 << y
            y = t[y][x]
        if mask not in seen:
            seen[mask] = x
    return tuple(sorted(seen.items(), key=lambda kv: (kv[0].bit_count(), kv[0])))


@per_group
def _lattice(group: Group) -> tuple[tuple[int, ...], frozenset[int], frozenset[int]]:
    """(all subgroup masks in canonical order, the normal ones, the maximal ones).

    One representative per conjugacy class is joined, only by prime
    steps; each new join brings its whole class (see the module docstring).
    """
    t = group.cayley
    full = group.full_mask
    cap = _proper_cap(group.order)
    steps = [(m, m.bit_count(), x) for m, x in _cyclic_masks(group) if m != 1]
    primes = set(prime_divisors(group.order))  # |c| divides |G|
    found, normal, maximal = {1, full}, {1, full}, set()
    reps = [(1, (), (1,))] if group.order > 1 else []
    for s, s_gens, s_class in reps:  # grows while it is scanned
        members = list(iter_bits(s))
        tried = s  # elements x whose coset S*x was joined already
        proper_join = False
        for c, order, x in steps:
            if tried >> x & 1 or order // (c & s).bit_count() not in primes:
                continue
            for m in members:  # <S, x> = <S, m*x>
                tried |= 1 << t[m][x]
            j = _join(t, members, s, s_gens, x, cap)
            if j == full:
                continue
            proper_join = True
            if j not in found:
                j_class = group.conjugates(j)
                found.update(j_class)
                if len(j_class) == 1:
                    normal.add(j)
                reps.append((j, s_gens + (x,), j_class))
        if not proper_join:
            maximal.update(s_class)
    masks = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
    return masks, frozenset(normal), frozenset(maximal)


@per_group
def all_subgroups(group: Group) -> tuple[Subgroup, ...]:
    masks, normal, _ = _lattice(group)
    return tuple(Subgroup(m, m.bit_count(), m in normal) for m in masks)


def maximal_masks(masks: Sequence[int]) -> list[int]:
    """The masks not properly contained in another one, in input order."""
    return [m for m in masks if not any(o != m and m & ~o == 0 for o in masks)]


def minimal_masks(masks: Sequence[int]) -> list[int]:
    """The masks properly containing no other one, in input order."""
    return [m for m in masks if not any(o != m and o & ~m == 0 for o in masks)]


@per_group
def cyclic_subgroups(group: Group) -> tuple[CyclicSubgroup, ...]:
    """Every cyclic subgroup in `Subgroup.key` order, which covers.py relies on."""
    pairs = _cyclic_masks(group)
    maximal = set(maximal_masks([mask for mask, _ in pairs]))
    out = []
    for mask, gen in pairs:
        sub = Subgroup(mask, mask.bit_count(), is_normal_mask(group, mask))
        out.append(CyclicSubgroup(sub, gen, mask in maximal))
    return tuple(out)


@per_group
def maximal_subgroups(group: Group) -> tuple[Subgroup, ...]:
    subgroups = all_subgroups(group)
    maximal = _lattice(group)[2]
    return tuple(s for s in subgroups if s.members in maximal)


def normal_subgroups(group: Group) -> tuple[Subgroup, ...]:
    return tuple(s for s in all_subgroups(group) if s.is_normal)


def minimal_normal_subgroups(group: Group) -> tuple[Subgroup, ...]:
    normals = {s.members: s for s in normal_subgroups(group) if s.members != 1}
    return tuple(normals[m] for m in minimal_masks(list(normals)))


def normal_core(group: Group, mask: int) -> int:
    inside = (c for c in group.conjugacy_classes if c & ~mask == 0)
    return (mask & group.center) | sum(inside)  # disjoint, so sum is union


def frattini_subgroup(group: Group) -> int:
    maximals = maximal_subgroups(group)
    phi = group.full_mask
    for s in maximals:
        phi &= s.members
    return phi


def _check_prime_divisor(group: Group, p: int) -> None:
    if not is_prime(p):
        raise InvalidParameters(f"p = {p} is not prime")
    if group.order % p != 0:
        raise PrimeDoesNotDivideOrder(
            f"{p} does not divide the group order {group.order}"
        )


def sylow_subgroup(group: Group, p: int) -> Subgroup:
    _check_prime_divisor(group, p)
    target = p_part(group.order, p)
    for s in all_subgroups(group):
        if s.order == target:
            return s
    raise AssertionError("unreachable: Sylow subgroup must exist")


def _is_central_section(group: Group, upper: int, lower: int) -> bool:
    """upper/lower is central in G/lower; lower must be normal."""
    for c in group.conjugacy_classes:
        if c & upper & ~lower:
            row = group.cayley[group.inverse[(c & -c).bit_length() - 1]]
            if not all(lower >> row[y] & 1 for y in iter_bits(c)):
                return False
    return True


def _complement_count(group: Group, lower: int, upper: int) -> int:
    """Subgroups A with A * upper = G and A meeting upper exactly in lower.

    The trivial witness A = lower is excluded: it only qualifies when
    upper is the whole group, and it carries no splitting information.
    """
    lo = lower.bit_count()
    up = upper.bit_count()
    count = 0
    for s in all_subgroups(group):
        if s.members == lower:
            continue
        if s.order * up == group.order * lo and (s.members & upper) == lower:
            count += 1
    return count


@per_group
def chief_series(group: Group) -> tuple[ChiefFactor, ...]:
    """A chief series of the group, canonically chosen.

    At each step the next term is the smallest (by order, then mask)
    normal subgroup of the whole group properly above the current term;
    having the least order, it sits minimally above it.  Each factor
    records its order, how many subgroups complement it, whether it is
    central, and the prime when the factor order is a prime power.
    """
    normals = [s.members for s in normal_subgroups(group)]
    factors: list[ChiefFactor] = []
    lower = 1
    while lower != group.full_mask:
        above = [m for m in normals if lower & ~m == 0 and m != lower]
        upper = min(above, key=lambda m: (m.bit_count(), m))
        order = upper.bit_count() // lower.bit_count()
        factors.append(
            ChiefFactor(
                lower=lower,
                upper=upper,
                factor_order=order,
                complement_count=_complement_count(group, lower, upper),
                is_central=_is_central_section(group, upper, lower),
                prime=prime_power_base(order),
            )
        )
        lower = upper
    return tuple(factors)


def is_solvable(group: Group) -> bool:
    return all(f.prime is not None for f in chief_series(group))


def is_nilpotent(group: Group) -> bool:
    return all(f.is_central for f in chief_series(group))


def is_supersolvable(group: Group) -> bool:
    return all(is_prime(f.factor_order) for f in chief_series(group))


def has_normal_p_complement(group: Group, p: int) -> bool:
    _check_prime_divisor(group, p)
    target = group.order // p_part(group.order, p)
    return any(s.order == target for s in normal_subgroups(group))
