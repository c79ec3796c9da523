"""Subgroup lattices, normal structure, and chief series.

Subgroups are bitmasks over element indices.  The full lattice is
computed by cyclic extension up to conjugacy (Neubueser, Numer. Math. 2,
1960): starting from the proper cyclic subgroups, one representative S
of each conjugacy class is joined with cyclic subgroups, and each new
join brings its whole class, the orbit under conjugation by G's
generators.  Five lemmas make this exhaustive with few joins:

* Cyclic layer.  <x>^g = <x^g>, so the class of <x> is the set of <y>
  for y in x's class, read off `Group.class_masks` with no orbit walk,
  and <x> is normal exactly when x's class lies in <x>.  The joins of
  the trivial subgroup are the subgroups of prime order, all cyclic; so
  the cyclic classes are listed first and the trivial subgroup is not
  joined.  It is maximal exactly when |G| is prime.
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

Every representative keeps a short generator tuple: a cyclic subgroup
its least generator, a join <S, c> the tuple of S followed by c's least
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
the union of the S*(x*s) for s in S, and with no generators the coset
S*x alone.  The Sylow joins, and the chief terms L<x> and hyperplane
preimages h<x> of the nilpotent route, are formed by the same closure.

Normal structure reads the class map and the generator conjugations
(see groups.py).  x lies in every conjugate of a set exactly when its
class lies in the set, so `normal_core` is the elements of the set whose
class it contains.  For L normal, upper/L is central when every x in
upper is central modulo L, and two commutator identities decide that
with one test, `_central_mod`:

* Generators.  [x, gh] = [x, h][x, g]^h, so the g with [x, g] in L are
  closed under products, and in a finite group products of generators
  give every element.  So x is central modulo L exactly when [x, g] =
  x^-1 * x^g lies in L for each generator g, and a central g, whose map
  `_conjugations` drops, gives [x, g] = 1.
* Classes.  [x^h, g] = [x, g^(h^-1)]^h, so x^h is central modulo L
  exactly when x is.  So one element of each class that meets upper
  outside L decides, for any mask upper: the class's least element.
  That is one lookup per non-central generator per class.

Two lemmas give Sylow and minimal normal subgroups without the lattice,
in every group:

* Sylow growth.  A p-subgroup S below |G|_p lies in a Sylow p-subgroup
  P, and N_P(S) > S, as normalizers grow in a p-group.  So some
  p-element x outside S normalizes S, and S<x> = S*<x> is a p-group, a
  join made by `_coset_closure` from S's generators and x.  Adjoining
  the least such x until |S| = |G|_p gives a Sylow p-subgroup.  All of
  them are conjugate, so the least by mask is the least of S's
  conjugates, and S is normal exactly when it has no other.
* Minimal class closures.  The subgroup a class generates is the normal
  closure of any of its elements; a central z is the class {z}, and its
  closure is <z>.  A minimal normal N holds some x of prime order, a
  power of any x other than 1 in N, so the closure of x's class lies in
  N and, being normal and not trivial, is N.  So the minimal normal
  subgroups are the minimal members among the closures of the classes of
  elements of prime order.

Solvability and supersolvability are read off the chief factors.  A
chief factor H/K is minimal normal in G/K, so it is a direct power of
one simple group.  It is abelian exactly when its order is a prime
power: no non-abelian simple group has prime-power order.  G is
solvable when every chief factor is abelian and supersolvable when
every one has prime order.  Nilpotency is read off element orders: G is
nilpotent exactly when each Sylow subgroup is normal, that is, unique,
that is, when the elements of p-power order number |G|_p for each p.

A nilpotent group of order above the enumeration bound is analyzed
without its lattice (the cover walk, which needs every subgroup, runs
only up to the bound).  Five lemmas give what analysis reads:

* Frattini quotient (Burnside's basis theorem, for every prime at once).
  Let K_p be generated by the p'-elements, the g^p and the commutators
  [x, g], for x in G and g in G's generators.  The [x, g] generate G':
  their subgroup is normalized by each g, as n^g = n[n, g], so G mod it
  is generated by central elements, hence abelian.  So K_p is normal,
  and G/K_p is abelian, of exponent p (in an abelian group the g^p
  generate the p-th powers) and a p-group, that is, F_p^d.  A maximal
  subgroup of a nilpotent group is normal of prime index p, so it holds
  every p'-element, every p-th power and G'; it is the preimage of a
  hyperplane of G/K_p, and every such preimage is maximal.
* Hyperplane growth.  For g outside a subspace W of F_p^d, the
  hyperplanes of W + <g> are W and the H + <g + i*w>, for H a hyperplane
  of W, 0 <= i < p and w any one vector of W outside H.  A hyperplane U
  other than W meets W in a hyperplane H, as U + W = W + <g>; U/H is a
  line of the plane (W + <g>)/H = <w, g> other than <w>, so it holds
  exactly one g + i*w.  These are distinct and number
  1 + p(p^(j-1) - 1)/(p - 1) = (p^j - 1)/(p - 1), j = dim W + 1.  So
  from span = K_p, with no hyperplanes, each generator g outside span
  turns the list into span and the h<g*w^i>, and span into span<g>; once
  span is G the list holds the maximal subgroups, for d = 1 just K_p.
  h is normal, holding G', and x^p lies in K_p, so h<x> is the union of
  the cosets h*x^i, the join `_coset_closure` makes from h and x.
* Central chief terms.  In a nilpotent G/L the least order of a normal
  subgroup above L is |L|q, q the least prime dividing |G:L|, and the
  normal subgroups of that order are the L<x> with xL central of order
  q, minimal normal subgroups being central.  The q-part of x is a power
  of x that gives the same L<x>, so only elements of q-power order are
  scanned, and x^q lies in L exactly when <x> meets L in |x|/q elements.
  The least such L<x> by mask is the term the lattice route picks.
* Abelian chief factors, in every group.  A complement A of an abelian
  chief factor H/K (A*H = G, A meeting H in K) is exactly a maximal
  subgroup M with K <= M and H not inside M.  If A < B, then B meets H
  in a subgroup normalized by A and, as H/K is abelian, by H; so B
  meets H in K, which |B| > |A| forbids, or in H, which makes B = G.
  Conversely M*H = G for such an M, and M meets H in a normal subgroup
  between K and H that is not H.  So complements are counted among the
  maximal subgroups, and only non-abelian factors scan the lattice.
* Normal p-complements, in every group.  G has one exactly when its
  p'-elements number |G|/|G|_p and form a subgroup.  A normal
  p-complement N holds every p'-element x, as xN has order dividing |x|
  and the p-power |G/N|.  Conversely, such a subgroup is a union of
  classes, since element orders are class invariants, so it is normal,
  and by its order it complements a Sylow p-subgroup.

All listings come back in a canonical order, sorted by (order, members
mask), so downstream choices like "the first witness" are reproducible.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .arith import is_prime, p_part, prime_divisors, prime_power_base
from .errors import InvalidParameters, PrimeDoesNotDivideOrder
from .groups import (
    DEFAULT_ENUM_BOUND, Group, _integer, iter_bits, mask_of, per_group,
)


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
    left = seed_mask & ~mask
    while left:
        x = (left & -left).bit_length() - 1
        mask = _coset_closure(t, list(iter_bits(mask)), mask, x, gens + (x,), cap)
        if mask == group.full_mask:
            break
        gens += (x,)
        left &= ~mask
    return mask


@per_group
def _lattice(group: Group) -> tuple[tuple[int, ...], frozenset[int], frozenset[int]]:
    """(all subgroup masks in canonical order, the normal ones, the maximal ones).

    The proper cyclic subgroups come first, one representative per class
    with its least generator; then one representative per class is
    joined, only by prime steps, and each new join brings its whole class
    (see the module docstring).
    """
    t, cyclic, classes = group.cayley, group.cyclic_masks, group.class_masks
    full = group.full_mask
    cap = _proper_cap(group.order)
    primes = set(prime_divisors(group.order))  # every index and |c| divides |G|
    found, normal = {1, full}, {1, full}
    maximal = {1} if group.order in primes else set()
    steps, reps = [], []
    for c in cyclic_subgroups(group)[1:]:
        s, x = c.subgroup.members, c.generator
        steps.append((s, c.subgroup.order, x))
        if s not in found:  # the first of its class, G itself found already
            s_class = {cyclic[y] for y in iter_bits(classes[x])}
            found.update(s_class)
            if c.subgroup.is_normal:
                normal.add(s)
            reps.append((s, (x,), s_class))
    for s, s_gens, s_class in reps:  # grows while it is scanned
        members = list(iter_bits(s))
        if group.order // len(members) in primes:  # nothing lies between S and G
            maximal.update(s_class)
            continue
        tried = s  # x needing no join: S, each S*x*S joined, each J of prime index
        proper_join = False
        for c, order, x in steps:
            if tried >> x & 1 or order // (c & s).bit_count() not in primes:
                continue
            j = _coset_closure(t, members, s, x, s_gens + (x,), cap)
            if j != full and j.bit_count() // len(members) in primes:
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
    <x> is normal when x's class lies in <x> (see the module docstring).
    """
    least: dict[int, int] = {}  # mask -> least generator
    for x, mask in enumerate(group.cyclic_masks):
        least.setdefault(mask, x)
    of_order = group.order_masks
    inner = 0
    for mask in least:
        inner |= mask & ~of_order[mask.bit_count()]
    classes, out = group.class_masks, []
    for mask, gen in sorted(least.items(), key=lambda kv: (kv[0].bit_count(), kv[0])):
        sub = Subgroup(mask, mask.bit_count(), not classes[gen] & ~mask)
        out.append(CyclicSubgroup(sub, gen, not inner >> gen & 1))
    return tuple(out)


def _orders_mask(group: Group, keep) -> int:
    """The elements whose order o passes keep(o)."""
    return sum(m for o, m in group.order_masks.items() if keep(o))  # disjoint


def _lattice_free(group: Group) -> bool:
    """Whether analysis reads group's structure without its lattice."""
    return group.order > DEFAULT_ENUM_BOUND and is_nilpotent(group)


def _frattini_maximals(group: Group) -> list[int]:
    """The maximal subgroups of a nilpotent group in canonical order: the
    hyperplane preimages over each K_p, grown one generator at a time
    (see the module docstring)."""
    t, inv = group.cayley, group.inverse
    derived = 0  # generates G': the [x, g] = x^-1 * x^g, g a non-central generator
    for perm in group._conjugations:
        for x, y in enumerate(perm):
            derived |= 1 << t[inv[x]][y]
    out = []
    for p in prime_divisors(group.order):
        seed = derived | _orders_mask(group, lambda o: o % p)
        seed |= mask_of(group.power(g, p) for g in group.generators)
        span, planes = generated_mask(group, seed), []  # span's hyperplanes over K_p
        for g in group.generators:
            if span >> g & 1:
                continue
            grown = [span]
            for h in planes:
                members, outside = list(iter_bits(h)), span & ~h
                w, x = (outside & -outside).bit_length() - 1, g
                for _ in range(p):  # h<g * w^i>, 0 <= i < p
                    grown.append(_coset_closure(t, members, h, x, (x,), group.order))
                    x = t[x][w]
            span = _coset_closure(t, list(iter_bits(span)), span, g, (g,), group.order)
            planes = grown
        out += planes
    return sorted(out, key=lambda m: (m.bit_count(), m))


@per_group
def maximal_subgroups(group: Group) -> tuple[Subgroup, ...]:
    if _lattice_free(group):  # each one is normal
        masks = _frattini_maximals(group)
        return tuple(Subgroup(m, m.bit_count(), True) for m in masks)
    subgroups = all_subgroups(group)
    maximal = _lattice(group)[2]
    return tuple(s for s in subgroups if s.members in maximal)


def normal_subgroups(group: Group) -> tuple[Subgroup, ...]:
    return tuple(s for s in all_subgroups(group) if s.is_normal)


def minimal_normal_subgroups(group: Group) -> tuple[Subgroup, ...]:
    """The minimal class closures, in canonical order (module docstring)."""
    seeds = {group.class_masks[x] for x in iter_bits(_orders_mask(group, is_prime))}
    closures = {generated_mask(group, c) for c in seeds}
    masks = minimal_masks(sorted(closures, key=lambda m: (m.bit_count(), m)))
    return tuple(Subgroup(m, m.bit_count(), True) for m in masks)


def normal_core(group: Group, mask: int) -> int:
    """The elements of mask whose class lies in mask (module docstring)."""
    return mask_of(x for x in iter_bits(mask) if group.class_masks[x] & ~mask == 0)


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
    """The least Sylow p-subgroup by mask, grown by normalizing p-elements
    and then conjugated (see the module docstring)."""
    p = _check_prime_divisor(group, p)
    target = p_part(group.order, p)
    p_elements = _orders_mask(group, lambda o: target % o == 0)
    s, gens = 1, ()
    while s.bit_count() < target:
        for x in iter_bits(p_elements & ~s):  # the least with x^-1 S x = S
            if all(s >> group.conjugate(g, x) & 1 for g in gens):
                break
        gens += (x,)
        s = _coset_closure(group.cayley, list(iter_bits(s)), s, x, gens, group.order)
    orbit = group.conjugates(s)
    return Subgroup(min(orbit), target, len(orbit) == 1)


def _central_mod(group: Group, x: int, lower: int) -> bool:
    """Whether x is central modulo the normal subgroup lower: whether
    [x, g] = x^-1 * x^g lies in lower for each generator g whose map
    `_conjugations` keeps (see the module docstring)."""
    row = group.cayley[group.inverse[x]]
    return all(lower >> row[perm[x]] & 1 for perm in group._conjugations)


def _is_central_section(group: Group, upper: int, lower: int) -> bool:
    """upper/lower is central in G/lower, for any mask upper; lower must be
    normal.  One element per class meeting upper outside lower decides."""
    return all(
        _central_mod(group, (c & -c).bit_length() - 1, lower)
        for c in group.conjugacy_classes if c & upper & ~lower
    )


def _complement_count(group: Group, lower: int, upper: int) -> int:
    """Subgroups A with A * upper = G and A meeting upper exactly in lower.

    The trivial witness A = lower is excluded: it only qualifies when
    upper is the whole group, and it carries no splitting information.
    Abelian factors count maximal subgroups instead (`_chief_factors`).
    """
    size = group.order * lower.bit_count() // upper.bit_count()
    return sum(
        1 for m in _lattice(group)[0]
        if m.bit_count() == size and m & upper == lower and m != lower
    )


def _normal_chief_terms(group: Group) -> list[int]:
    """Chief series terms above 1 from the lattice: each the first normal
    subgroup above the last in canonical order, so the least one."""
    normals = [s.members for s in normal_subgroups(group)]
    terms, lower = [], 1
    while lower != group.full_mask:
        lower = next(m for m in normals if lower & ~m == 0 and m != lower)
        terms.append(lower)
    return terms


def _central_chief_terms(group: Group) -> list[int]:
    """Chief series terms above 1 of a nilpotent group: each the least
    L<x> by mask over the x central mod L, L the last term, of order q
    mod L, q the least prime dividing |G:L| (see the module docstring).

    Each x that fails a test takes the other generators of <x> with it,
    and each L<x> found takes its elements, since they pass or fail alike.
    """
    t, orders, cyclic = group.cayley, group.element_orders, group.cyclic_masks
    terms, lower = [], 1
    while lower != group.full_mask:
        index = group.order // lower.bit_count()
        if is_prime(index):  # lower is maximal
            terms.append(group.full_mask)
            break
        q = prime_divisors(index)[0]
        part = p_part(group.order, q)
        left = _orders_mask(group, lambda o: part % o == 0) & ~lower
        members = list(iter_bits(lower))
        best = group.full_mask
        while left:
            x = (left & -left).bit_length() - 1
            order_q = (cyclic[x] & lower).bit_count() * q == orders[x]  # of xL
            if order_q and _central_mod(group, x, lower):
                term = _coset_closure(t, members, lower, x, (x,), group.order)
                best = min(best, term)
                left &= ~term
            else:
                left &= ~(cyclic[x] & group.order_masks[orders[x]])
        terms.append(best)
        lower = best
    return terms


def _chief_factors(
    group: Group, terms: list[int], maximals: list[int]
) -> tuple[ChiefFactor, ...]:
    """The factors between 1 and the given terms.  An abelian factor's
    complements are the maximal subgroups above lower missing part of
    upper, lower itself excluded (see the module docstring); whether a
    factor is central is read off the classes by `_is_central_section`."""
    factors: list[ChiefFactor] = []
    lower = 1
    for upper in terms:
        order = upper.bit_count() // lower.bit_count()
        prime = prime_power_base(order)
        if prime is None:
            count = _complement_count(group, lower, upper)
        else:
            count = sum(
                1 for m in maximals if lower & ~m == 0 and upper & ~m and m != lower
            )
        central = _is_central_section(group, upper, lower)
        factors.append(ChiefFactor(lower, upper, order, count, central, prime))
        lower = upper
    return tuple(factors)


@per_group
def chief_series(group: Group) -> tuple[ChiefFactor, ...]:
    """A chief series of the group, canonically chosen.

    At each step the next term is the smallest (by order, then mask)
    normal subgroup of the whole group properly above the current term;
    having the least order, it sits minimally above it.  A nilpotent
    group above the enumeration bound finds these terms without its
    lattice.  Each factor records its order, how many subgroups complement
    it, whether it is central, and the prime when the factor order is a
    prime power.
    """
    if _lattice_free(group):
        terms = _central_chief_terms(group)
    else:
        terms = _normal_chief_terms(group)
    return _chief_factors(group, terms, [s.members for s in maximal_subgroups(group)])


def is_solvable(group: Group) -> bool:
    return all(f.prime is not None for f in chief_series(group))


@per_group
def is_nilpotent(group: Group) -> bool:
    """Every Sylow subgroup is normal: |G|_p elements of p-power order, each p."""
    for p in prime_divisors(group.order):
        part = p_part(group.order, p)
        if _orders_mask(group, lambda o: part % o == 0).bit_count() != part:
            return False
    return True


def is_supersolvable(group: Group) -> bool:
    return all(is_prime(f.factor_order) for f in chief_series(group))


def has_normal_p_complement(group: Group, p: int) -> bool:
    """The p'-elements number |G|/|G|_p and form a subgroup (module docstring)."""
    p = _check_prime_divisor(group, p)
    coprime = _orders_mask(group, lambda o: o % p)
    return (
        coprime.bit_count() == group.order // p_part(group.order, p)
        and generated_mask(group, coprime) == coprime
    )
