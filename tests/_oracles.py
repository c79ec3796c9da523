"""Brute-force oracles, independent of the library's algorithms.

Everything here is a subset scan or a combination search over raw
Cayley tables and bitmasks.  No lattice shortcuts, no pruning beyond
feasibility, so these can referee the real implementations.  The
exception is the reference routes at the end: algorithms the library
used before newer ones replaced them (a power walk from every element
for its cyclic subgroup, pairwise subgroup closure, the closure joining
every subgroup with every cyclic one, the closure up to conjugacy
without its prime-index shortcuts, conjugate masks built bit
by bit, the triple-scan table check, the greedy generators for Light's
test closed as a set, normality by conjugating with every element, the
center as the elements whose row equals their column, central sections
by conjugating every member of each class, the cover walk with per-node privacy lists (branching on the least
uncovered generator or by the library's fewest-live rule), the size walk
branching on the least uncovered generator, irredundancy by the union
of the other members, the structure predicates by derived series, Sylow
subgroups and maximal-subgroup indices, the one-sized classification
by pairs of normal subgroups, quotient invariants from quotient groups,
maximal abelian subgroups by pairwise commutativity, the self-centralizing
subgroups from a centralizer table of every element or as the subgroups
A with C_G(A) = A, the maximal abelian subgroups from the maximal
cliques of the commuting graph on the non-central cyclic subgroups, the
chief series, complement counts, nilpotency and normal p-complements
read off the whole lattice, the maximal subgroups
of a nilpotent group as kernels of functionals over base-p coordinates
of the cosets of K_p, the preset, direct product and quotient tables
filled cell by cell, permutation tables
by composing every pair, the set cover that rebuilds each element's
option list at every node, the three set covers (sigma, the abelian
cover and the quotient covers) over every element of G, the Sylow
subgroup as the first of its order in the lattice, the minimal normal
subgroups as the lattice's nontrivial normal subgroups containing no
other one, and the lemma-check statuses decided by an if/elif chain per
check and a ranking of per-prime statuses), kept as slower independent
routes.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from math import gcd, isqrt


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def brute_subgroup_masks(table) -> set[int]:
    """Every subset containing 0 closed under the table product.

    A nonempty product-closed subset of a finite group is a subgroup
    and always contains the identity, so scanning odd masks is enough.
    Exponential in the group order; callers keep it at 16 or below.
    """
    n = len(table)
    assert n <= 16, "subset scan is exponential"
    found = set()
    for mask in range(1, 1 << n, 2):
        members = bits(mask)
        ok = True
        for a in members:
            row = table[a]
            for b in members:
                if not mask >> row[b] & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(mask)
    return found


def brute_min_cover_size(candidate_masks, full_mask: int) -> int | None:
    """Smallest number of candidates whose union is full_mask."""
    cands = sorted(candidate_masks)
    for k in range(1, len(cands) + 1):
        for combo in combinations(cands, k):
            union = 0
            for m in combo:
                union |= m
            if union == full_mask:
                return k
    return None


def brute_irredundant_covers(
    candidate_masks, full_mask: int, size_cap: int | None = None
) -> set[frozenset[int]]:
    """All irredundant covers drawn from the candidates, as mask sets."""
    cands = sorted(candidate_masks)
    top = len(cands) if size_cap is None else min(size_cap, len(cands))
    covers: set[frozenset[int]] = set()
    for k in range(1, top + 1):
        for combo in combinations(cands, k):
            union = 0
            for m in combo:
                union |= m
            if union != full_mask:
                continue
            ok = True
            for i, m in enumerate(combo):
                rest = 0
                for j, o in enumerate(combo):
                    if j != i:
                        rest |= o
                if m & ~rest == 0:
                    ok = False
                    break
            if ok:
                covers.add(frozenset(combo))
    return covers


def power_masks(table) -> list[int]:
    """Entry x is the mask of <x>, walking the powers of every element."""
    out = []
    for x in range(len(table)):
        mask, y = 1, x
        while y != 0:
            mask |= 1 << y
            y = table[y][x]
        out.append(mask)
    return out


def brute_maximal_cyclic_masks(table) -> set[int]:
    """Masks of cyclic subgroups maximal among cyclic ones, by powers."""
    cyclics = set(power_masks(table))
    return {m for m in cyclics if not any(o != m and m & ~o == 0 for o in cyclics)}


def element_order(table, x: int) -> int:
    k, y = 1, x
    while y != 0:
        y = table[y][x]
        k += 1
    return k


def find_isomorphism(ta, tb) -> list[int] | None:
    """Backtracking search for an isomorphism between two tables.

    Returns the image list or None.  Prunes on element orders; fine
    for the orders used in tests (at most 16 or so).
    """
    n = len(ta)
    if len(tb) != n:
        return None
    oa = [element_order(ta, x) for x in range(n)]
    ob = [element_order(tb, x) for x in range(n)]
    if sorted(oa) != sorted(ob):
        return None
    img = [-1] * n
    used = [False] * n
    img[0] = 0
    used[0] = True

    def consistent(pos: int) -> bool:
        for a in range(pos + 1):
            row = ta[a]
            mapped_a = img[a]
            for b in range(pos + 1):
                c = row[b]
                got = tb[mapped_a][img[b]]
                if c <= pos:
                    if got != img[c]:
                        return False
                elif used[got]:
                    # target already taken by an earlier image
                    return False
        return True

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        for y in range(n):
            if used[y] or ob[y] != oa[pos]:
                continue
            img[pos] = y
            used[y] = True
            if consistent(pos) and extend(pos + 1):
                return True
            img[pos] = -1
            used[y] = False
        return False

    return img if extend(1) else None


# ---------------------------------------------------------------------------
# Reference routes: the pairwise closure the lattice used before
# generator-based joins.  Quadratic in the subgroup order per closure.


def pairwise_generated_mask(table, seed_mask: int) -> int:
    """Subgroup generated by seed_mask, closing under all pairwise products."""
    mask = 1
    members = [0]
    queue = [x for x in bits(seed_mask) if x != 0]
    while queue:
        x = queue.pop()
        if mask >> x & 1:
            continue
        mask |= 1 << x
        members.append(x)
        for y in members:
            for z in (table[x][y], table[y][x]):
                if not mask >> z & 1:
                    queue.append(z)
    return mask


def pairwise_subgroup_masks(table) -> set[int]:
    """Every subgroup, by joining found subgroups with cyclic ones.

    Each join <S, C> is the pairwise closure of the union of the two
    masks.  A union already known to generate the group (a superset of
    one that did) skips the closure.
    """
    n = len(table)
    full = (1 << n) - 1
    found = set()
    for x in range(n):
        mask, y = 1, x
        while y != 0:
            mask |= 1 << y
            y = table[y][x]
        found.add(mask)
    nontrivial_cyclic = [m for m in found if m != 1]
    closure: dict[int, int] = {}
    full_seeds: list[int] = []
    worklist = list(found)
    while worklist:
        s = worklist.pop()
        for c in nontrivial_cyclic:
            if c & ~s == 0:
                continue
            u = s | c
            j = closure.get(u)
            if j is None:
                if u == full or any(fs & ~u == 0 for fs in full_seeds):
                    j = full
                else:
                    j = pairwise_generated_mask(table, u)
                    if j == full:
                        full_seeds.append(u)
                closure[u] = j
            if j not in found:
                found.add(j)
                worklist.append(j)
    return found


def _coset_join(table, members, mask: int, gens: tuple, c: int, cap: int) -> int:
    """<S, c> for the subgroup S = mask generated by gens, c not in S, by
    adding whole right cosets S*(r*g); the full mask once it exceeds cap."""
    full = (1 << len(table)) - 1
    n = len(members)
    if 2 * n > cap:
        return full
    for s in members:
        mask |= 1 << table[s][c]
    size, reps, gens = 2 * n, [c], gens + (c,)
    for r in reps:
        for g in gens:
            z = table[r][g]
            if not mask >> z & 1:
                size += n
                if size > cap:
                    return full
                for s in members:
                    mask |= 1 << table[s][z]
                reps.append(z)
    return mask


def cyclic_join_subgroup_masks(table) -> set[int]:
    """Every subgroup, by joining every found subgroup with every cyclic one.

    The library's closure before it worked up to conjugacy: no classes,
    no prime-step filter, one coset join per (subgroup, cyclic subgroup)
    pair whose union is new.  A proper subgroup has at most n/p elements,
    p the least prime dividing n, which cuts a join off early.
    """
    n = len(table)
    cap = n // next(p for p in range(2, n + 1) if n % p == 0) if n > 1 else 0
    gens: dict[int, tuple] = {}
    for x in range(n):
        mask, y = 1, x
        while y != 0:
            mask |= 1 << y
            y = table[y][x]
        gens.setdefault(mask, (x,) if x else ())
    nontrivial_cyclic = [(m, g[0]) for m, g in gens.items() if m != 1]
    closure: dict[int, int] = {}
    worklist = list(gens)
    while worklist:
        s = worklist.pop()
        members = bits(s)
        for c, x in nontrivial_cyclic:
            if c & ~s == 0:
                continue
            u = s | c
            j = closure.get(u)
            if j is None:
                j = closure[u] = _coset_join(table, members, s, gens[s], x, cap)
            if j not in gens:
                gens[j] = gens[s] + (x,)
                worklist.append(j)
    return set(gens)


def class_rep_lattice(table):
    """(masks by (order, mask), the normal ones, the maximal ones) by the
    closure up to conjugacy as the library ran it before its prime-index
    shortcuts.

    One representative S per class is joined with each cyclic <x> that
    meets S in prime index, once per coset S*x; each new join brings its
    class.  A class is maximal when every join of its representative is
    the whole group, even when |G:S| is prime.
    """
    n = len(table)
    full = (1 << n) - 1
    primes = {p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)}
    cap = n // min(primes) if n > 1 else 0
    generator: dict[int, int] = {}
    for x in range(n):
        mask, y = 1, x
        while y != 0:
            mask |= 1 << y
            y = table[y][x]
        generator.setdefault(mask, x)
    steps = sorted(
        ((m, x) for m, x in generator.items() if m != 1),
        key=lambda step: (step[0].bit_count(), step[0]),
    )
    found, normal, maximal = {1, full}, {1, full}, set()
    reps = [(1, (), {1})] if n > 1 else []
    for s, gens, s_class in reps:  # grows while it is scanned
        members = bits(s)
        tried = s
        proper_join = False
        for c, x in steps:
            if tried >> x & 1 or c.bit_count() // (c & s).bit_count() not in primes:
                continue
            for m in members:
                tried |= 1 << table[m][x]
            j = _coset_join(table, members, s, gens, x, cap)
            if j == full:
                continue
            proper_join = True
            if j not in found:
                j_class = conjugation_class(table, j)
                found |= j_class
                if len(j_class) == 1:
                    normal.add(j)
                reps.append((j, gens + (x,), j_class))
        if not proper_join:
            maximal |= s_class
    masks = tuple(sorted(found, key=lambda m: (m.bit_count(), m)))
    return masks, frozenset(normal), frozenset(maximal)


def containment_maximal_masks(masks) -> set[int]:
    """The proper masks (the full mask is the largest) contained in no other proper one."""
    full = max(masks)
    proper = [m for m in masks if m != full]
    return {m for m in proper if not any(o != m and m & ~o == 0 for o in proper)}


# ---------------------------------------------------------------------------
# Reference routes: table validation with associativity checked on every
# triple, as the library did before Light's test (cubic in the order), and
# the set-based greedy closure that picks Light's generators.


def table_axiom_error(table) -> tuple[str, tuple] | None:
    """The first broken group axiom of a square integer table, or None.

    Axioms are checked in the library's order: entries in range, identity
    row and column, Latin rows, Latin columns, two-sided inverses,
    associativity.  Returns the library's error class name and its
    details: (axis, index) for NotLatinSquare, (element,) for
    MissingInverse, the least failing (x, y, z) for NotAssociative.
    """
    n = len(table)
    elements = list(range(n))
    for a, row in enumerate(table):
        if any(not 0 <= v < n for v in row):
            return "NotLatinSquare", ("row", a)
    if list(table[0]) != elements or [row[0] for row in table] != elements:
        return "NoIdentityAtZero", ()
    for a, row in enumerate(table):
        if sorted(row) != elements:
            return "NotLatinSquare", ("row", a)
    for b in elements:
        if sorted(row[b] for row in table) != elements:
            return "NotLatinSquare", ("column", b)
    for a, row in enumerate(table):
        if table[list(row).index(0)][a] != 0:
            return "MissingInverse", (a,)
    for x in elements:
        for y in elements:
            for z in elements:
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return "NotAssociative", (x, y, z)
    return None


def set_greedy_generators(table):
    """Yield y1, y2, ... each outside the right-multiplication closure of
    those before it, as the library found them before its incremental
    closure: each new generator rescans every member with every generator,
    and the closure is a Python set.  Any table with entries in range."""
    members, reached, gens = [0], {0}, []
    for y in range(1, len(table)):
        if y not in reached:
            yield y
            gens.append(y)
            for a in members:  # grows while it is scanned
                new = {table[a][s] for s in gens} - reached
                reached |= new
                members.extend(new)


# ---------------------------------------------------------------------------
# Reference routes: normality by conjugating with every element, as the
# library did before it kept conjugacy classes.  O(|G| * |mask|) each.


def _conjugates(table, mask: int):
    """Yield mask conjugated by g, that is {g^-1 x g : x in mask}, for each g."""
    inv = [list(row).index(0) for row in table]
    members = bits(mask)
    for g in range(len(table)):
        row_inv = table[inv[g]]
        out = 0
        for x in members:
            out |= 1 << table[row_inv[x]][g]
        yield out


def conjugation_class(table, mask: int) -> set[int]:
    """Every conjugate of mask."""
    return set(_conjugates(table, mask))


def conjugation_is_normal(table, mask: int) -> bool:
    """True iff every conjugate of mask equals mask; any mask, not only subgroups."""
    return all(c == mask for c in _conjugates(table, mask))


def conjugation_is_normal_within(table, ambient: int, mask: int) -> bool:
    """True iff g^-1 * mask * g equals mask for every g in ambient."""
    conjugates = _conjugates(table, mask)
    return all(c == mask for g, c in enumerate(conjugates) if ambient >> g & 1)


def conjugation_normal_core(table, mask: int) -> int:
    """Intersection of all conjugates of mask."""
    core = mask
    for c in _conjugates(table, mask):
        core &= c
    return core


def bitloop_conjugates(perms, mask: int) -> tuple[int, ...]:
    """The orbit of mask under the permutations perms, mask first, in
    breadth-first order; each image is built by peeling mask's set bits."""
    orbit, seen = [mask], {mask}
    for m in orbit:  # grows while it is scanned
        for perm in perms:
            image, rest = 0, m
            while rest:
                low = rest & -rest
                image |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return tuple(orbit)


def commutator_central_section(table, upper: int, lower: int) -> bool:
    """True iff [x, g] lies in lower for every x in upper outside lower, g in G."""
    inv = [list(row).index(0) for row in table]
    for x in bits(upper & ~lower):
        for g in range(len(table)):
            if not lower >> table[table[table[inv[x]][inv[g]]][x]][g] & 1:
                return False
    return True


# ---------------------------------------------------------------------------
# Reference routes: the center as the elements whose row equals their
# column, and the central-section test that conjugated every member of each
# class, as the library ran them before both were read off the generator
# conjugation maps.  O(|G|^2), and |C| lookups per class.


def row_column_center(table) -> int:
    """The elements whose row equals their column."""
    return sum(1 << x for x, col in enumerate(zip(*table)) if tuple(table[x]) == col)


def class_member_central_section(group, upper: int, lower: int) -> bool:
    """upper/lower is central in G/lower, lower normal: each class C meeting
    upper outside lower lies in x*lower for x the least element of C."""
    for c in group.conjugacy_classes:
        if c & upper & ~lower:
            row = group.cayley[group.inverse[(c & -c).bit_length() - 1]]
            if not all(lower >> row[y] & 1 for y in bits(c)):
                return False
    return True


# ---------------------------------------------------------------------------
# Reference routes: the irredundant-cover walk as the library ran it before
# the "covered exactly once" mask, holding each chosen trace's private
# generators in a new list at every node, and irredundancy by the union of
# the other members.  Quadratic in the family size per node or per test.


def privacy_list_trace_walk(
    traces, k: int, size_cap: int | None = None, *, fewest_live: bool = False
):
    """Every irredundant family of distinct traces over k generators.

    traces: distinct nonzero masks below 1 << k, narrowest first.
    Returns (family, singles) pairs in visit order: the chosen traces in
    choice order, and whether each is one generator.  Bans the traces
    tried at a node in its later branches; a branch ends when a chosen
    trace has no private generator left.  By default each node branches
    on the least uncovered generator and tries its traces in the given
    order, as the library's counting walk once did; with fewest_live it
    branches on the uncovered generator held by the fewest unbanned
    traces, ties to the least, tries its traces in reverse order, and
    ends the node when that generator has none.
    """
    by_gen = [[] for _ in range(k)]
    for tid, t in enumerate(traces):
        for g in bits(t):
            by_gen[g].append(tid)
    found = []
    chosen = []

    def options(uncovered, banned):
        """The traces to try at a node, in order; none ends the node."""
        if not fewest_live:
            return by_gen[bits(uncovered)[0]]
        live = {
            g: [tid for tid in by_gen[g] if not banned >> tid & 1]
            for g in bits(uncovered)
        }
        return live[min(live, key=lambda g: (len(live[g]), g))][::-1]

    def rec(uncovered, banned, union, priv, singles):
        if uncovered == 0:
            found.append((tuple(traces[tid] for tid in chosen), singles))
            return
        if size_cap is not None and len(chosen) >= size_cap:
            return
        for tid in options(uncovered, banned):
            if banned >> tid & 1:
                continue
            t = traces[tid]
            fresh = t & ~union
            if fresh == 0 or any(p & ~t == 0 for p in priv):
                banned |= 1 << tid
                continue
            chosen.append(tid)
            rec(
                uncovered & ~t,
                banned,
                union | t,
                [p & ~t for p in priv] + [fresh],
                singles and t.bit_count() == 1,
            )
            chosen.pop()
            banned |= 1 << tid

    rec((1 << k) - 1, 0, 0, [], True)
    return found


def least_generator_size_walk(traces, k: int) -> tuple[int, ...]:
    """Every size of an irredundant family of distinct traces, ascending.

    The size walk as the library ran it before it branched on the fewest
    live traces: branch on the least uncovered generator, try its traces
    narrowest first in the given order, and skip a node at depth d with u
    uncovered generators once every size in d+1 .. d+u is known.
    """
    by_gen = [[] for _ in range(k)]
    for tid, t in enumerate(traces):
        for g in bits(t):
            by_gen[g].append(tid)
    full = (1 << k) - 1
    known = set()
    chosen = []

    def rec(union, once, banned):
        uncovered = full & ~union
        d = len(chosen)
        if known.issuperset(range(d + 1, d + uncovered.bit_count() + 1)):
            return
        g = (uncovered & -uncovered).bit_length() - 1
        for tid in by_gen[g]:
            if banned >> tid & 1:
                continue
            banned |= 1 << tid
            t = traces[tid]
            fresh = t & ~union
            if fresh == 0:
                continue
            left = (once & ~t) | fresh
            if any(c & left == 0 for c in chosen):
                continue
            chosen.append(t)
            if fresh == uncovered:
                known.add(len(chosen))
            else:
                rec(union | t, left, banned)
            chosen.pop()

    rec(0, 0, 0)
    return tuple(sorted(known))


def pairwise_is_irredundant(masks, full_mask: int) -> bool:
    """True iff the masks cover full_mask and each has an element outside
    the union of the others (a repeated mask has none)."""
    masks = list(masks)
    union = 0
    for m in masks:
        union |= m
    if union != full_mask:
        return False
    for i, m in enumerate(masks):
        others = 0
        for j, o in enumerate(masks):
            if j != i:
                others |= o
        if m & ~others == 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Reference routes: the structure predicates as the library decided them
# before it read them off the chief series.  Solvability by the derived
# series of all pairwise commutators, nilpotency by Sylow subgroups (one
# per prime, so exactly |G|_p elements of p-power order), supersolvability
# by Huppert's theorem: every maximal subgroup has prime index.


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, n))


def commutator_derived_mask(table, mask: int) -> int:
    """[S, S] for the subgroup mask S: the closure of all its commutators."""
    inv = [list(row).index(0) for row in table]
    members = bits(mask)
    comms = 0
    for a in members:
        for b in members:
            comms |= 1 << table[table[table[inv[a]][inv[b]]][a]][b]
    return pairwise_generated_mask(table, comms)


def derived_series_solvable(table) -> bool:
    mask = (1 << len(table)) - 1
    while True:
        nxt = commutator_derived_mask(table, mask)
        if nxt == mask:
            return mask == 1
        mask = nxt


def sylow_count_nilpotent(table) -> bool:
    """Each Sylow subgroup is normal, i.e. the elements of p-power order
    number exactly |G|_p for every prime p."""
    n = len(table)
    orders = [element_order(table, x) for x in range(n)]
    for p in filter(_is_prime, range(2, n + 1)):
        p_part = 1
        while n % (p_part * p) == 0:
            p_part *= p
        if sum(1 for k in orders if p_part % k == 0) != p_part:
            return False
    return True


def prime_index_supersolvable(order: int, subgroup_masks) -> bool:
    """Every maximal proper subgroup among subgroup_masks has prime index."""
    full = (1 << order) - 1
    proper = [m for m in subgroup_masks if m != full]
    maximal = [m for m in proper if not any(o != m and m & ~o == 0 for o in proper)]
    return all(_is_prime(order // m.bit_count()) for m in maximal)


# ---------------------------------------------------------------------------
# Reference route: the one-sized classification as the library decided it
# before it read the normal Hall factors off element orders.  It loops over
# pairs (H, C) of normal subgroups taken from a subgroup lattice, and
# recognizes H's split shape by scanning the subgroups inside it.


def _is_cyclic_within(orders, mask: int) -> bool:
    return max(orders[x] for x in bits(mask)) == mask.bit_count()


def _pair_loop_family(table, orders, subgroup_masks, h: int):
    """(kind, p, n) of H's recognized shape, or None."""
    members = bits(h)
    m = len(members)
    abelian = all(table[a][b] == table[b][a] for a in members for b in members)
    root = isqrt(m)
    if abelian and root * root == m and _is_prime(root):
        if all(orders[x] in (1, root) for x in members):
            return ("CpTimesCp", root, None)
    if m == 8 and not abelian and sum(orders[x] == 2 for x in members) == 1:
        return ("Q8", None, None)
    if abelian:
        return None
    inside = [s for s in subgroup_masks if s & ~h == 0]
    for p in filter(_is_prime, range(2, m + 1)):
        n = m // p
        if m % p or n < 2 or n % p == 0:
            continue
        # a normal Sylow p-subgroup of H is the only subgroup of order p
        if sum(s.bit_count() == p for s in inside) != 1:
            continue
        if any(s.bit_count() == n and _is_cyclic_within(orders, s) for s in inside):
            return ("CpRtimesCn", p, n)
    return None


def pair_loop_classify(table, subgroup_masks, normal_masks):
    """(kind, p, n, H, C) for the first pair of normal subgroups, in
    ascending (order, mask), where H has a recognized shape, C is cyclic,
    they meet trivially and their coprime orders multiply to |G|.  None
    when there is no such pair."""
    orders = [element_order(table, x) for x in range(len(table))]
    normals = sorted(normal_masks, key=lambda m: (m.bit_count(), m))
    for h in normals:
        family = _pair_loop_family(table, orders, subgroup_masks, h)
        if family is None:
            continue
        for c in normals:
            hc = (h.bit_count(), c.bit_count())
            if h & c != 1 or hc[0] * hc[1] != len(table) or gcd(*hc) != 1:
                continue
            if _is_cyclic_within(orders, c):
                return (*family, h, c)
    return None


# ---------------------------------------------------------------------------
# Reference routes: the two cross-checks as the library ran them before it
# read them off G's own lattice.  The quotient route builds every G/N as a
# group of its own and asks the library for its sigma and lambda; the
# abelian route tests commutativity pair by pair and keeps the abelian
# subgroups that no other one contains.


def pairwise_is_abelian(table, mask: int) -> bool:
    members = bits(mask)
    return all(
        table[a][b] == table[b][a] for i, a in enumerate(members) for b in members[i + 1 :]
    )


def pairwise_maximal_abelian_masks(table, subgroup_masks) -> set[int]:
    """The proper abelian subgroups contained in no other proper abelian one."""
    full = (1 << len(table)) - 1
    abelian = [m for m in subgroup_masks if m != full and pairwise_is_abelian(table, m)]
    return {m for m in abelian if not any(o != m and m & ~o == 0 for o in abelian)}


def centralizer_table_abelian_masks(table, subgroup_masks) -> list[int]:
    """The subgroup masks A with C_G(A) = A, in input order, from C_G(x)
    built for every element x first and intersected over all of A."""
    cent = [
        sum(1 << y for y, a in enumerate(row) if a == table[y][x])
        for x, row in enumerate(table)
    ]
    out = []
    for m in subgroup_masks:
        c = (1 << len(table)) - 1
        for x in bits(m):
            c &= cent[x]
        if c == m:
            out.append(m)
    return out


def quotient_group_invariants(group) -> list[tuple[int, int, int, int]]:
    """(|N|, |G/N|, sigma(G/N), lambda(G/N)) for every normal N, in lattice
    order, whose quotient is not cyclic; G/1 is built like the others."""
    from groupcovers import lambda_, normal_subgroups, quotient, sigma_exact

    out = []
    for n in normal_subgroups(group):
        q, _ = quotient(group, n.members)
        if not q.is_cyclic:
            out.append((n.order, q.order, sigma_exact(q).value, lambda_(q)))
    return out


def loop_cyclic_table(n: int) -> tuple[tuple[int, ...], ...]:
    """Integers mod n under addition: row a is a, a + 1, ..., n - 1, 0, ..., a - 1
    (the rotation is four times cheaper than (a + b) % n per cell)."""
    return tuple((*range(a, n), *range(a)) for a in range(n))


def loop_direct_product_table(ta, tb) -> list[list[int]]:
    """Componentwise product; element (x, y) is x * len(tb) + y."""
    n2 = len(tb)
    return [[p * n2 + q for p in r1 for q in r2] for r1 in ta for r2 in tb]


def coset_quotient_table(table, normal_mask: int):
    """The table of G/N and the coset index of each element of G, cosets
    numbered in order of their least element."""
    members = bits(normal_mask)
    coset_of = [-1] * len(table)
    reps = []
    for a in range(len(table)):
        if coset_of[a] == -1:
            for x in members:
                coset_of[table[a][x]] = len(reps)
            reps.append(a)
    quotient = [[coset_of[table[r][s]] for s in reps] for r in reps]
    return quotient, coset_of


def loop_dihedral_table(n: int) -> list[list[int]]:
    """Dihedral group with n rotations; element f*n + i is s^f r^i."""
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for f1 in (0, 1):
        for i1 in range(n):
            for f2 in (0, 1):
                for i2 in range(n):
                    i = (i2 + i1) % n if f2 == 0 else (i2 - i1) % n
                    table[f1 * n + i1][f2 * n + i2] = (f1 ^ f2) * n + i
    return table


def loop_quaternion_table(k: int) -> list[list[int]]:
    """Generalized quaternion group of order 2^k; element j*m + i is x^i y^j."""
    m = 2 ** (k - 1)
    h = m // 2
    table = [[0] * (2 * m) for _ in range(2 * m)]
    for j1 in (0, 1):
        for i1 in range(m):
            for j2 in (0, 1):
                for i2 in range(m):
                    if j1 == 0:
                        j, i = j2, (i1 + i2) % m
                    elif j2 == 0:
                        j, i = 1, (i1 - i2) % m
                    else:
                        j, i = 0, (i1 - i2 + h) % m
                    table[j1 * m + i1][j2 * m + i2] = j * m + i
    return table


def loop_cpcn_table(p: int, n: int, l: int) -> list[list[int]]:
    """<x, a | x^p, a^n, a^-1 x a = x^l>; element j*p + i is a^j x^i."""
    lpow = [pow(l, j, p) for j in range(n)]
    table = [[0] * (p * n) for _ in range(p * n)]
    for j1 in range(n):
        for i1 in range(p):
            row = table[j1 * p + i1]
            for j2 in range(n):
                shift = i1 * lpow[j2]
                for i2 in range(p):
                    row[j2 * p + i2] = ((j1 + j2) % n) * p + (shift + i2) % p
    return table


def pairwise_permutation_table(degree: int, gens, bound: int = 512):
    """Close image tuples under left-to-right composition, order the
    elements by image tuple and compose every pair; None once the closure
    would pass bound elements."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    if len(seen) >= bound:
                        return None
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[x] for x in p)] for q in perms] for p in perms]


def listcomp_min_set_cover(
    universe: int, candidates: Sequence[int], limit: int | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """Minimum-cardinality subfamily of candidates covering the universe.

    Candidates must be in a fixed canonical order; ties everywhere break
    toward the earlier candidate so results are reproducible.  With a
    limit, returns None when no cover of size <= limit exists.  Each node
    rebuilds every uncovered element's option list by testing every
    candidate against it.
    """
    cands = list(candidates)
    if not cands:
        return None if universe else (0, ())
    max_gain = max(m.bit_count() for m in cands)

    unc = universe
    greedy: list[int] = []
    while unc:
        gain, pick = 0, -1
        for i, m in enumerate(cands):
            g = (m & unc).bit_count()
            if g > gain:
                gain, pick = g, i
        if pick < 0:
            break
        greedy.append(cands[pick])
        unc &= ~cands[pick]

    best_size = len(greedy) if unc == 0 else len(cands) + 1
    best_sel: tuple[int, ...] | None = tuple(greedy) if unc == 0 else None
    if limit is not None and limit + 1 < best_size:
        best_size, best_sel = limit + 1, None

    def rec(unc: int, chosen: list[int], banned: int) -> None:
        nonlocal best_size, best_sel
        if unc == 0:
            if len(chosen) < best_size:
                best_size, best_sel = len(chosen), tuple(chosen)
            return
        need = -(-unc.bit_count() // max_gain)
        if len(chosen) + need >= best_size:
            return
        options: list[int] | None = None
        for e in bits(unc):
            opts = [
                i
                for i in range(len(cands))
                if not banned >> i & 1 and cands[i] >> e & 1
            ]
            if options is None or len(opts) < len(options):
                options = opts
                if not opts:
                    return
        assert options is not None
        for i in options:
            chosen.append(cands[i])
            rec(unc & ~cands[i], chosen, banned)
            chosen.pop()
            banned |= 1 << i

    rec(universe, [], 0)
    if best_sel is None or (limit is not None and best_size > limit):
        return None
    return best_size, best_sel


# ---------------------------------------------------------------------------
# The three set covers over every element of G, as they ran before their
# universe shrank to the generators of the maximal cyclic subgroups


def full_group_minimal_cover(group) -> tuple[int, ...]:
    """A least cover of all of G by its maximal subgroups, as masks."""
    from groupcovers import maximal_subgroups

    masks = [s.members for s in maximal_subgroups(group)]
    return listcomp_min_set_cover(group.full_mask, masks)[1]


def full_group_abelian_cover_exists(group) -> bool:
    """Do sigma(G) maximal abelian subgroups, found pairwise, cover all of G?"""
    from groupcovers import all_subgroups, sigma_exact

    masks = [s.members for s in all_subgroups(group)]
    cands = sorted(pairwise_maximal_abelian_masks(group.cayley, masks))
    limit = sigma_exact(group).value
    return listcomp_min_set_cover(group.full_mask, cands, limit) is not None


def full_group_quotient_items(group) -> list[tuple[int, int, int, int]]:
    """(|N|, |G/N|, sigma(G/N), lambda(G/N)) for every normal N, in lattice
    order, whose quotient group is not cyclic; sigma(G/N) is a least cover
    of all of G by the maximal subgroups above N."""
    from groupcovers import lambda_, maximal_subgroups, normal_subgroups, quotient

    maximals = [s.members for s in maximal_subgroups(group)]
    out = []
    for n in normal_subgroups(group):
        q, _ = quotient(group, n.members)
        if not q.is_cyclic:
            above = [m for m in maximals if n.members & ~m == 0]
            size = listcomp_min_set_cover(group.full_mask, above)[0]
            out.append((n.order, q.order, size, lambda_(q)))
    return out


def lattice_sylow_subgroup(group, p: int):
    """The first subgroup of order |G|_p in the lattice."""
    from groupcovers import all_subgroups

    target = 1
    while group.order % (target * p) == 0:
        target *= p
    return next(s for s in all_subgroups(group) if s.order == target)


def lattice_minimal_normal_subgroups(group):
    """The normal subgroups of the lattice, 1 left out, properly
    containing no other one, in lattice order."""
    from groupcovers import normal_subgroups
    from groupcovers.lattice import minimal_masks

    normals = {s.members: s for s in normal_subgroups(group) if s.members != 1}
    return tuple(normals[m] for m in minimal_masks(list(normals)))


# ---------------------------------------------------------------------------
# Lemma-check statuses as each check and the report module decided them
# before one rule in classify.py replaced the three chains


def if_chain_status(hypothesis: bool, conclusion: bool) -> str:
    if not hypothesis:
        status = "vacuous"
    elif conclusion:
        status = "consistent"
    else:
        status = "violation"
    return status


def ranked_status(statuses) -> str:
    """A violation at any prime, else consistent at any, else vacuous."""
    for status in ("violation", "consistent"):
        if status in statuses:
            return status
    return "vacuous"


def ranked_pnilp_status(group) -> str:
    from groupcovers import check_p_nilpotence, is_solvable, prime_divisors

    primes = prime_divisors(group.order) if is_solvable(group) else ()
    return ranked_status({
        if_chain_status(c.hypothesis_holds, c.conclusion_holds)
        for c in (check_p_nilpotence(group, p) for p in primes)
    })


def abelian_cover_status(group) -> str:
    from groupcovers import check_abelian_sigma_cover

    res = check_abelian_sigma_cover(group)
    return if_chain_status(res.abelian_cover_exists, res.solvable)


def precondition_quotients_status(group) -> str:
    """Vacuous when check_quotient_invariants refuses a multi-sized group."""
    from groupcovers import PreconditionViolation, check_quotient_invariants

    try:
        res = check_quotient_invariants(group)
    except PreconditionViolation:
        return "vacuous"
    ok = all(it.sigma_quotient == res.sigma == it.lambda_quotient for it in res.items)
    return "consistent" if ok else "violation"


# check id -> oracle status on a non-cyclic group
CHECK_STATUS_ORACLES = {
    "lemma-pnilp": ranked_pnilp_status,
    "bryce-serena": abelian_cover_status,
    "osclemma-quotients": precondition_quotients_status,
}


# ---------------------------------------------------------------------------
# Reference routes: structure read off the whole lattice, as the library
# did for every group before nilpotent groups above the enumeration bound
# skipped it.  The chief series takes the least normal subgroup above each
# term from the lattice and counts every factor's complements by a scan
# over all subgroups; nilpotency asks every chief factor to be central;
# a normal p-complement is a normal subgroup of order |G|/|G|_p; the
# maximal abelian subgroups of a non-abelian group are the subgroups A
# with C_G(A) = A.  The maximal subgroups of a nilpotent group are also
# kept as the kernels of functionals over base-p coset coordinates, the
# route the hyperplane growth replaced, which needs no lattice.  They call
# library internals, which the tests above check against the brute-force
# oracles.


def lattice_chief_series(group):
    from groupcovers.arith import prime_power_base
    from groupcovers.lattice import (
        ChiefFactor, _complement_count, _is_central_section, normal_subgroups,
    )

    normals = [s.members for s in normal_subgroups(group)]
    factors = []
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


def central_chief_nilpotent(group) -> bool:
    return all(f.is_central for f in lattice_chief_series(group))


def lattice_maximal_masks(group) -> set[int]:
    from groupcovers.lattice import _lattice

    return set(_lattice(group)[2])


def lattice_has_normal_p_complement(group, p: int) -> bool:
    from groupcovers.lattice import _lattice

    target = group.order
    while target % p == 0:
        target //= p
    return any(m.bit_count() == target for m in _lattice(group)[1])


def coordinate_frattini_maximals(group) -> list[int]:
    """The maximal subgroups of a nilpotent group in canonical order, as
    the kernels of the functionals on G/K_p = F_p^d, read off base-p
    coordinates of the cosets of K_p; no lattice is closed.

    K_p is generated by the p'-elements, the generators' p-th powers and
    the [x, g].  The cosets are labelled in the order they are made: the
    coordinates of coset i are its base-p digits, one per generator that
    enlarges the span of those before it.
    """
    from groupcovers.arith import prime_divisors
    from groupcovers.groups import iter_bits, mask_of
    from groupcovers.lattice import _coset_closure, _orders_mask, generated_mask

    t, inv = group.cayley, group.inverse
    derived = 0
    for perm in group._conjugations:
        for x, y in enumerate(perm):
            derived |= 1 << t[inv[x]][y]
    out = []
    for p in prime_divisors(group.order):
        seed = derived | _orders_mask(group, lambda o: o % p)
        seed |= mask_of(group.power(g, p) for g in group.generators)
        k = generated_mask(group, seed)
        if k.bit_count() * p == group.order:  # d = 1: K_p is the one maximal
            out.append(k)
            continue
        members = list(iter_bits(k))
        reps, cosets, span, d = [0], [k], k, 0  # cosets[i] = reps[i] * K_p
        for g in group.generators:
            if span >> g & 1:
                continue
            n, y = len(reps), g
            for _ in range(p - 1):
                for r in reps[:n]:
                    z = t[r][y]
                    reps.append(z)
                    cosets.append(_coset_closure(t, members, 0, z, (), group.order))
                y = t[y][g]
            span |= sum(cosets[n:])  # disjoint cosets
            d += 1
        out += _hyperplane_preimages(cosets, p, d)
    return sorted(out, key=lambda m: (m.bit_count(), m))


def _hyperplane_preimages(cosets: list[int], p: int, d: int) -> list[int]:
    """The kernel of each functional on F_p^d whose first nonzero
    coefficient is 1, as a union of cosets[i], i's base-p digits being
    the coordinates.

    level[b] holds the elements where the functional, over the
    coordinates so far, sums to b; coordinate j with coefficient a moves
    the elements with digit u there from level b to level b + a*u.  At
    the last coordinate only the elements that reach level 0 are kept.
    """
    digit = [[0] * p for _ in range(d)]  # digit[j][u]: j-th coordinate u
    for i, m in enumerate(cosets):
        for row in digit:
            row[i % p] |= m
            i //= p
    out = []

    def extend(level: list[int], j: int) -> None:
        if j == d:
            out.append(level[0])
        elif j == d - 1:
            last = digit[j]
            out.extend(  # the parts are disjoint, so sum is union
                sum(level[-a * u % p] & last[u] for u in range(p)) for a in range(p)
            )
        else:
            for a in range(p):
                moved = [0] * p
                for u, part in enumerate(digit[j]):
                    for b, m in enumerate(level):
                        moved[(b + a * u) % p] |= m & part
                extend(moved, j + 1)

    for j in range(d):
        extend(digit[j], j + 1)
    return out


def _centralizer(group, a: int, cent: dict[int, int]) -> int:
    """C_G(A), or a mask missing part of A once A is seen to be non-abelian.

    C_G(A) is the intersection of the C_G(x) over x in A, and C_G(x) lies
    in C_G(x^k), so one x per cyclic subgroup, over the part of A outside
    the center, suffices.  cent maps x to C_G(x); each is built the first
    time it is read.
    """
    t = group.cayley
    cur, rest = group.full_mask, a & ~group.center
    while rest and cur & a == a:
        x = (rest & -rest).bit_length() - 1
        if x not in cent:
            cent[x] = sum(1 << y for y, b in enumerate(t[x]) if b == t[y][x])
        cur &= cent[x]
        rest &= ~group.cyclic_masks[x]  # <x> is centralized by now
    return cur


def self_centralizing_masks(group) -> list[int]:
    """The subgroups A with C_G(A) = A, ascending by mask."""
    from groupcovers import all_subgroups

    cent: dict[int, int] = {}
    return sorted(
        a for a in (s.members for s in all_subgroups(group))
        if _centralizer(group, a, cent) == a
    )


# Clique characterization: the maximal abelian subgroups of a non-abelian
# G are the sets Z(G) | <x_1> | ... | <x_k> for the maximal cliques
# {<x_1>, ..., <x_k>} of the commuting graph on the non-central cyclic
# subgroups.  A maximal abelian A is C_G(A), so its non-central cyclic
# subgroups form a clique that no other one commutes with entirely, and
# every element of A lies in the center or in one of them.  Conversely a
# maximal clique generates, with Z(G), an abelian A whose centralizer
# adds no non-central <y> outside the clique, so A = C_G(A) is maximal
# abelian, and its non-central cyclic subgroups are the clique.


def clique_maximal_abelian_masks(group) -> list[int]:
    """The maximal abelian subgroups of a non-abelian group, one per
    maximal clique (Bron and Kerbosch, CACM 16, 1973, with Tomita's pivot:
    TCS 363, 2006)."""
    from groupcovers.groups import iter_bits
    from groupcovers.lattice import cyclic_subgroups

    t, center = group.cayley, group.center
    nodes = [c for c in cyclic_subgroups(group) if not center >> c.generator & 1]
    gens = [c.generator for c in nodes]
    masks = [c.subgroup.members for c in nodes]
    nbrs = [0] * len(gens)  # nbrs[i]: the nodes commuting with node i
    for i, x in enumerate(gens):
        row = t[x]
        for j in range(i + 1, len(gens)):
            y = gens[j]
            if row[y] == t[y][x]:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    out: list[int] = []

    def expand(a: int, cands: int, done: int) -> None:
        """a: the clique's elements; cands, done: nodes it may still take,
        and nodes whose cliques were all reported already."""
        if not cands:
            if not done:
                out.append(a)
            return
        pivot = max(
            iter_bits(cands | done), key=lambda v: (cands & nbrs[v]).bit_count()
        )
        for v in iter_bits(cands & ~nbrs[pivot]):
            expand(a | masks[v], cands & nbrs[v], done & nbrs[v])
            cands &= ~(1 << v)
            done |= 1 << v

    expand(center, (1 << len(gens)) - 1, 0)
    return out
