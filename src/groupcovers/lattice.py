"""Subgroup lattices, normal structure, and chief series.

Subgroups are bitmasks over element indices.  The full lattice is
computed by cyclic extension up to conjugacy (Neubueser, Numer. Math. 2,
1960): starting from the trivial subgroup, one representative S of each
conjugacy class is joined with cyclic subgroups, and each new join
brings its whole class, the orbit under conjugation by G's generators.
Four lemmas make this exhaustive with few joins:

* Classes.  <S^g, c^g> = <S, c>^g, so joining only a representative of
  each class and adding the classes of the joins finds every subgroup.
* Prime steps.  If x is not in S, then <x> meets S in <x^a> for some
  a > 1; for a prime p dividing a, y = x^(a/p) is not in S but y^p is.
  So every subgroup above S is reached through joins <S, c> with c
  meeting S in a subgroup of prime index in c, and only those are formed.
* Double cosets.  For a, b in S, <S, a*x*b> = <S, x>, since a*x*b lies
  in <S, x> and x = a^-1 (a*x*b) b^-1.  So once <S, x> is formed, no
  element of the double coset S*x*S is joined again.
* Prime index.  By Lagrange no subgroup lies strictly between S and J
  when |J:S| is prime.  So an S of prime index in G is maximal and is
  not joined at all (every S with |G:S| < 2p, p the least prime dividing
  |G|, is one), and a proper join J = <S, x> of prime index over S is
  also <S, y> for every y in J outside S, so no such y is joined again.

The closure also decides normality and maximality: a subgroup is
normal exactly when its class is a single subgroup, and a proper S is
maximal exactly when its index is prime or every prime-step join of S
is G (any H strictly between S and G contains such a y), a property its
conjugates share.

Every representative keeps a short generator tuple: the trivial
subgroup none, a join <S, c> the tuple of S followed by c's least
generator.  One closure, `_coset_closure`, serves the joins, the double
cosets and `generated_mask`: from a mask, a subgroup S and elements x
and gens, it adds the right coset S*x and then, for each added coset's
representative r and each g in gens, the whole coset S*(r*g) when r*g
is new.  With mask S and gens those of S followed by c, that is Dimino's
closure of <S, c>, a union of right cosets of S.  It costs O(|J|) table
lookups plus (|J|/|S|)*k generator products, where the pairwise closure
of a bare element set costs O(|J|^2).  Lagrange gives a cutoff: a proper
subgroup has at most |G|/p elements, p the least prime dividing |G|, so
the closure stops, and the join is G, as soon as it holds more than
that.  `generated_mask` runs the same join, adjoining one seed element
at a time.  From the empty mask with S's own generators it gives S*x*S,
the union of the S*(x*s) for s in S.

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

from typing import NamedTuple, Sequence

from .arith import is_prime, p_part, prime_divisors, prime_power_base
from .errors import InvalidParameters, PrimeDoesNotDivideOrder
from .groups import Group, _integer, is_normal_mask, iter_bits, per_group


class Subgroup(NamedTuple):
    """A subgroup of some fixed ambient group, as a member bitmask."""

    members: int
    order: int
    is_normal: bool

    def __contains__(self, element: int) -> bool:
        return bool(self.members >> element & 1)

    def key(self) -> tuple[int, int]:
        return (self.order, self.members)


class CyclicSubgroup(NamedTuple):
    """A cyclic subgroup tagged with its least-index generator."""

    subgroup: Subgroup
    generator: int
    is_maximal: bool  # maximal among the cyclic subgroups, not in the lattice


class ChiefFactor(NamedTuple):
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


def _coset_closure(
    table: tuple[tuple[int, ...], ...],
    members: list[int],
    mask: int,
    x: int,
    gens: tuple[int, ...],
    cap: int,
) -> int:
    """mask plus every right coset S*z, z in x*<gens>, for the subgroup S = members.

    mask is 0 or S, and x lies outside it.  S*x is added, and then S*(r*g)
    for each added coset's representative r and each g in gens whose
    product r*g is new.  Returns the full mask as soon as the union holds
    more than cap elements.
    """
    n = len(members)
    size = mask.bit_count() + n
    if size > cap:
        return (1 << len(table)) - 1
    for s in members:
        mask |= 1 << table[s][x]
    reps = [x]
    for r in reps:  # grows while it is scanned
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
        mask = _coset_closure(t, list(iter_bits(mask)), mask, x, gens + (x,), cap)
        if mask == group.full_mask:
            break
        gens += (x,)
    return mask


@per_group
def _lattice(group: Group) -> tuple[tuple[int, ...], frozenset[int], frozenset[int]]:
    """(all subgroup masks in canonical order, the normal ones, the maximal ones).

    One representative per conjugacy class is joined, only by prime
    steps; each new join brings its whole class (see the module docstring).
    """
    t = group.cayley
    full = group.full_mask
    cap = _proper_cap(group.order)
    steps = [
        (c.subgroup.members, c.subgroup.order, c.generator)
        for c in cyclic_subgroups(group)
        if c.subgroup.order > 1
    ]
    primes = set(prime_divisors(group.order))  # |c| divides |G|
    found, normal, maximal = {1, full}, {1, full}, set()
    reps = [(1, (), (1,))] if group.order > 1 else []
    for s, s_gens, s_class in reps:  # grows while it is scanned
        members = list(iter_bits(s))
        if is_prime(group.order // len(members)):  # nothing lies between S and G
            maximal.update(s_class)
            continue
        tried = s  # x needing no join: S, each S*x*S joined, each J of prime index
        proper_join = False
        for c, order, x in steps:
            if tried >> x & 1 or order // (c & s).bit_count() not in primes:
                continue
            j = _coset_closure(t, members, s, x, s_gens + (x,), cap)
            if j != full and is_prime(j.bit_count() // len(members)):
                tried |= j
            else:  # the double coset S*x*S
                tried |= _coset_closure(t, members, 0, x, s_gens, group.order)
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
    """Every cyclic subgroup in `Subgroup.key` order, which covers.py relies on.

    <x> < C for a cyclic C exactly when x lies in C with order below |C|,
    so <x> is maximal among cyclic subgroups when no C puts x in `inner`.
    """
    least: dict[int, int] = {}  # mask -> least generator
    of_order: dict[int, int] = {}
    for x, mask in enumerate(group.cyclic_masks):
        least.setdefault(mask, x)
        k = mask.bit_count()
        of_order[k] = of_order.get(k, 0) | 1 << x
    inner = 0
    for mask in least:
        inner |= mask & ~of_order[mask.bit_count()]
    out = []
    for mask, gen in sorted(least.items(), key=lambda kv: (kv[0].bit_count(), kv[0])):
        sub = Subgroup(mask, mask.bit_count(), is_normal_mask(group, mask))
        out.append(CyclicSubgroup(sub, gen, not inner >> gen & 1))
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


def _check_prime_divisor(group: Group, p: int) -> int:
    """p as an int, once it is checked to be a prime dividing |G|."""
    p = _integer(p, "prime p")
    # A p above |G| cannot divide it, and is_prime(p) would trial-divide.
    if p <= group.order and not is_prime(p):
        raise InvalidParameters(f"p = {p} is not prime")
    if group.order % p != 0:
        raise PrimeDoesNotDivideOrder(
            f"{p} does not divide the group order {group.order}"
        )
    return p


def sylow_subgroup(group: Group, p: int) -> Subgroup:
    p = _check_prime_divisor(group, p)
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
    size = group.order * lower.bit_count() // upper.bit_count()
    return sum(
        1 for m in _lattice(group)[0]
        if m.bit_count() == size and m & upper == lower and m != lower
    )


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
    p = _check_prime_divisor(group, p)
    target = group.order // p_part(group.order, p)
    return any(m.bit_count() == target for m in _lattice(group)[1])
