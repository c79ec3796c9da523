"""Covers of a group by proper subgroups.

A cover is a family of proper subgroups whose union is the whole group;
it is irredundant when no member can be dropped, equivalently when every
member owns a private element.  This module computes the family of
maximal cyclic subgroups (whose size is the largest irredundant cover
size), the minimum cover size two independent ways, and the complete
set of irredundant covers for small groups.

The exact minimum cover and the enumeration rest on one fact.  Fix
generators x_1..x_k of the k maximal cyclic subgroups.  Every element
is a power of some x_i, so a family of subgroups covers the group iff
it covers the generators.  The exact set covers (sigma here, and the
Bryce-Serena and quotient checks in classify.py) therefore take the
generators as their universe, k = lambda items instead of |G|: 31 for
S5 and 121 for A6, against 120 and 360.

The enumeration works at the level of generator traces, and a
member's privacy can be witnessed by a private generator.  Members of
an irredundant cover therefore have pairwise distinct generator traces,
and swapping a member for another subgroup with the same trace preserves
both properties.  So the search runs over distinct traces and multiplies
in the per-trace subgroup counts afterwards, branching on an uncovered
generator with an exclusion set so each trace family is visited exactly
once.

Irredundancy is tracked by one mask.  A node of the walk holds the
generators covered (union) and those covered exactly once (once).  A
generator in once is private to the chosen trace holding it, so a chosen
trace is irredundant exactly while it meets once.  Adding a trace t with
fresh = t & ~union gives once' = (once & ~t) | fresh; every chosen trace
must still meet once', and t completes a cover when fresh is every
uncovered generator, which is reported without a further call.

That test needs no scan of the chosen traces.  Each generator g in once
has one owner, the chosen trace covering it.  A chosen trace c can lose
all of once only if every generator of c in once lies in t, and c owns
those; so t is rejected exactly when some g in once & t has an owner
that misses once & ~t.  The walk writes a generator's owner when it
turns fresh, and a deeper node writes only owners of generators its
parent had uncovered, so an owner read at a node is always current.
The walk carries down the product of the chosen traces' class sizes and
whether one of them holds two or more generators, and tallies each
leaf into the (counts, multi) it returns: covers by size, and the sizes
at which a cover has a multi-generator member.

Only the set of sizes matters for one-sizedness, and that walk can skip
most of the tree.  Every member added below a node must own a generator
that is still uncovered there, so a node at depth d with u uncovered
generators completes only to covers of size d+1 .. d+u.  Once every size
in that window has been seen, the subtree has nothing new to report.
The counting walk (cover_enumeration_stats) never prunes this way and
is the reference route for the size walk.

Both walks branch the same way, on the options _fewest_options picks
among the uncovered generators, widest trace first.  Few options make a
narrow tree with few dead ends, and wide traces first bring the small
covers, and with them the small sizes, early, so the window prune fires
sooner.  Any rule is sound: a node's branches split its families by
which of the chosen generator's traces they hold first among those
tried, because every tried trace is banned in the later branches; so
counts, sizes, the set of covers and the window d+1 .. d+u do not depend
on the generator or the option order.  Only the visit order does.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import (
    EnumerationBoundExceeded,
    GroupIsCyclic,
    InvalidParameters,
    InvariantViolation,
    NoFactorWithMultipleComplements,
    NotProperSubgroup,
    NotSolvable,
    NotSubgroup,
    PreconditionViolation,
)
from .groups import (
    DEFAULT_ENUM_BOUND, Group, _element_mask, _natural, is_cyclic_mask, is_normal_mask,
    is_subgroup_mask, iter_bits, mask_of, per_group,
)
from .lattice import (
    Subgroup,
    all_subgroups,
    chief_series,
    cyclic_subgroups,
    generated_mask,
    is_solvable,
    maximal_subgroups,
    normal_core,
)


class SigmaValue(NamedTuple):
    """Minimum cover size; None encodes infinity (cyclic groups)."""

    value: int | None

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "Infinite" if self.value is None else str(self.value)


INFINITE = SigmaValue(None)


class Cover(NamedTuple):
    """A family of proper subgroups in canonical (order, members) order."""

    members: tuple[Subgroup, ...]
    source_group_order: int

    def __len__(self) -> int:
        return len(self.members)

    def member_masks(self) -> tuple[int, ...]:
        return tuple(s.members for s in self.members)


# The generated _make, behind _replace, checks len(), which counts members here.
Cover._make = classmethod(tuple.__new__)


@per_group
def _subgroup_by_mask(group: Group) -> dict[int, Subgroup]:
    return {s.members: s for s in all_subgroups(group)}


def _as_mask(group: Group, m: Subgroup | int) -> int:
    """m, or its member mask, as a set of elements of group."""
    return _element_mask(group, m.members if isinstance(m, Subgroup) else m)


def _member_masks(group: Group, family: Cover | Iterable[Subgroup | int]) -> list[int]:
    """Each member's mask, checked to be a proper subgroup of group; a
    Cover is checked too, and its repeats are kept."""
    if isinstance(family, Cover):
        family = family.members
    try:
        family = iter(family)
    except TypeError:
        raise InvalidParameters(f"family {family!r} is not iterable") from None
    masks = []
    for mask in (_as_mask(group, m) for m in family):
        if not is_subgroup_mask(group, mask):
            raise NotSubgroup(f"mask {mask:#x} is not a subgroup")
        if mask == group.full_mask:
            raise NotProperSubgroup("cover members must be proper subgroups")
        masks.append(mask)
    return masks


def make_cover(group: Group, family: Iterable[Subgroup | int]) -> Cover:
    """Validate and canonicalize a family of proper subgroups, building no lattice."""
    members = {
        m: Subgroup(m, m.bit_count(), is_normal_mask(group, m))
        for m in _member_masks(group, family)
    }
    ordered = tuple(sorted(members.values(), key=Subgroup.key))
    return Cover(ordered, group.order)


def is_cover(group: Group, family: Cover | Iterable[Subgroup | int]) -> bool:
    union = 0
    for m in _member_masks(group, family):
        union |= m
    return union == group.full_mask


def is_irredundant(
    group: Group, family: Cover | Iterable[Subgroup | int]
) -> bool:
    """True iff the family is a cover and every member has a private
    element.  A repeated member has none in a Cover, which keeps its
    repeats; any other family drops them, as make_cover does."""
    masks = _member_masks(group, family)
    if not isinstance(family, Cover):
        masks = list(dict.fromkeys(masks))
    union = twice = 0
    for m in masks:
        twice |= union & m
        union |= m
    return union == group.full_mask and all(m & ~twice for m in masks)


def _require_noncyclic(group: Group) -> None:
    """The hypothesis of every cover, sigma and lambda: G is not cyclic."""
    if group.is_cyclic:
        raise GroupIsCyclic("cyclic groups have no cover by proper subgroups")


# ---------------------------------------------------------------------------
# Maximal cyclic family and lambda


def maximal_cyclic_family(group: Group) -> Cover:
    _require_noncyclic(group)
    members = tuple(c.subgroup for c in cyclic_subgroups(group) if c.is_maximal)
    return Cover(members, group.order)


def _maximal_cyclic_generators(group: Group) -> tuple[int, ...]:
    """The chosen generator of each maximal cyclic subgroup, in
    `Subgroup.key` order; read off the cyclic subgroups, not the lattice."""
    return tuple(c.generator for c in cyclic_subgroups(group) if c.is_maximal)


def _cover_universe(group: Group) -> int:
    """The maximal-cyclic generators as a mask, the universe of the exact
    set covers: a family of subgroups covers G iff it holds all of them."""
    return mask_of(_maximal_cyclic_generators(group))


def lambda_(group: Group) -> int:
    """Number of maximal cyclic subgroups; the largest irredundant cover size."""
    return len(maximal_cyclic_family(group).members)


def maximal_cyclic_pairs_generate(group: Group) -> bool:
    """True iff any two distinct maximal cyclic subgroups generate the group.

    Holds for every group whose irredundant covers all have one size.
    """
    masks = maximal_cyclic_family(group).member_masks()
    full = group.full_mask
    return all(
        generated_mask(group, a | b) == full
        for i, a in enumerate(masks)
        for b in masks[i + 1 :]
    )


# ---------------------------------------------------------------------------
# Exact minimum cover size via branch and bound


def _fewest_options(items: int, holders: Sequence[int], banned: int) -> int:
    """The unbanned holders of the first item in items with the fewest.

    This is Knuth's "fewest options" rule ("Dancing links", arXiv
    cs/0011047), on which both exact searches branch.  items is a bitmask
    of uncovered items, holders[i] the bitmask of the options holding
    item i, and banned the options already tried.

    The scan stops at the first item with at most one option.  That is
    the item a full scan would pick, ties to the least item included, as
    long as no item has none.  And none has below the root if none has at
    the root: a node that branches on r options enters its j-th branch
    with j - 1 < r of them newly banned (rejected options among them),
    every other uncovered item had at least r, and the option taken
    holds no item left uncovered.
    """
    options = fewest = 0
    free = ~banned
    while items:
        low = items & -items
        opts = holders[low.bit_length() - 1] & free
        k = opts.bit_count()
        if k <= 1:
            return opts
        if k < fewest or not options:
            options, fewest = opts, k
        items ^= low
    return options


def _min_set_cover(
    universe: int, candidates: Sequence[int], limit: int | None = None
) -> tuple[int, tuple[int, ...]] | None:
    """Minimum-cardinality subfamily of candidates covering the universe.

    Candidates must be in a fixed canonical order; ties everywhere break
    toward the earlier candidate so results are reproducible.  With a
    limit, returns None when no cover of size <= limit exists.

    holders[e] is the bitmask of the candidates containing element e, and
    the bound counts only universe elements; each node branches, in
    ascending candidate order, over the options _fewest_options picks
    among the uncovered elements.
    """
    cands = list(candidates)
    if not universe:
        return 0, ()
    holders = [0] * universe.bit_length()
    for i, m in enumerate(cands):
        for e in iter_bits(m & universe):
            holders[e] |= 1 << i
    if not all(holders[e] for e in iter_bits(universe)):
        return None
    max_gain = max((m & universe).bit_count() for m in cands)

    # Every element has a holder, so greedy always finds a cover.
    best_sel: tuple[int, ...] | None = ()
    unc = universe
    while unc:
        pick = max(cands, key=lambda m: (m & unc).bit_count())
        best_sel += (pick,)
        unc &= ~pick
    best_size = len(best_sel)
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
        for i in iter_bits(_fewest_options(unc, holders, banned)):
            chosen.append(cands[i])
            rec(unc & ~cands[i], chosen, banned)
            chosen.pop()
            banned |= 1 << i

    rec(universe, [], 0)
    if best_sel is None or (limit is not None and best_size > limit):
        return None
    return best_size, best_sel


@per_group
def sigma_exact(group: Group) -> SigmaValue:
    """Exact minimum cover size, infinite for cyclic groups."""
    if group.is_cyclic:
        return INFINITE
    return SigmaValue(len(minimal_cover(group)))


def _sigma(group: Group) -> int:
    """sigma_exact(group) as an int, for a group that must not be cyclic."""
    _require_noncyclic(group)
    return sigma_exact(group).value


def minimal_cover(group: Group) -> Cover:
    """A cover of minimum size, the witness for sigma_exact(group).

    Candidates are the maximal subgroups: enlarging each member of any
    cover to a maximal subgroup above it never increases the family
    size, so the optimum over maximal subgroups is the true optimum.
    The universe is the generators of the maximal cyclic subgroups (see
    the module docstring), and the witness is checked against all of G.
    """
    _require_noncyclic(group)
    maximals = maximal_subgroups(group)  # in canonical order
    result = _min_set_cover(_cover_universe(group), [s.members for s in maximals])
    if result is None:
        raise InvariantViolation("maximal subgroups fail to cover a non-cyclic group")
    size, sel = result
    cover = Cover(tuple(s for s in maximals if s.members in sel), group.order)
    union = 0
    for m in sel:
        union |= m
    if len(cover.members) != size or union != group.full_mask:
        raise InvariantViolation("set-cover witness failed validation")
    return cover


@per_group
def sigma_tomkinson(group: Group) -> SigmaValue:
    """Minimum cover size via chief factors, for solvable groups.

    Equals q + 1 where q is the smallest order of a chief factor with
    at least two complements.
    """
    if group.is_cyclic:
        return INFINITE
    if not is_solvable(group):
        raise NotSolvable("the chief-factor formula applies to solvable groups")
    orders = [
        f.factor_order for f in chief_series(group) if f.complement_count >= 2
    ]
    if not orders:
        raise NoFactorWithMultipleComplements(
            f"{group.name}: no chief factor has two or more complements"
        )
    return SigmaValue(min(orders) + 1)


# ---------------------------------------------------------------------------
# Exhaustive irredundant-cover enumeration


class _SearchSpace(NamedTuple):
    """Proper subgroups bucketed by generator trace.

    generators: the chosen generator element of each maximal cyclic
    subgroup.  traces: distinct nonzero bitmasks over those generators.
    class_masks[i]: the subgroup masks whose trace is traces[i].
    """

    generators: tuple[int, ...]
    traces: tuple[int, ...]
    class_masks: tuple[tuple[int, ...], ...]


@per_group
def _search_space(group: Group) -> _SearchSpace:
    gens = _maximal_cyclic_generators(group)
    buckets: dict[int, list[int]] = {}
    for mask in (s.members for s in all_subgroups(group)):
        if mask == group.full_mask:
            continue
        trace = 0
        for i, g in enumerate(gens):
            if mask >> g & 1:
                trace |= 1 << i
        if trace:
            buckets.setdefault(trace, []).append(mask)
    traces = tuple(sorted(buckets, key=lambda t: (t.bit_count(), t)))
    classes = tuple(tuple(sorted(buckets[t])) for t in traces)
    return _SearchSpace(gens, traces, classes)


def _walk_trace_covers(
    space: _SearchSpace,
    on_cover: Callable[[list[int]], None] | None,
    size_cap: int | None,
    known: set[int] | None = None,
) -> tuple[dict[int, int], set[int]]:
    """Visit every irredundant trace family exactly once.

    Returns (counts, multi): counts maps each size to its number of
    covers, the product of the class sizes of a family's traces summed
    over its families, and multi holds the sizes at which some family
    has a trace of two or more generators.  Both are tallied at each
    leaf from a weight and a flag carried down the recursion.  on_cover,
    when not None, also receives the live list of chosen traces at each
    leaf; it may read the list but not keep it, since the walk goes on
    mutating it.  Traces already tried at a node are banned in later
    branches, which partitions the cover space.  A node is (union, once,
    banned), with once as in the module docstring.

    Privacy is tested through owner[g], the one chosen trace that covers
    g while g is in once, written for each fresh generator on descent.
    Adding t can leave a chosen trace c with no generator in once only
    when every generator of c in once lies in t, and c owns those; so t
    is rejected exactly when some g in once & t has
    owner[g] & once & ~t == 0.  A node below writes owners only for
    generators uncovered at its parent, which are not in once here, so
    every owner read is current.

    Each node branches on the traces _fewest_options picks among the
    uncovered generators, from held[g], the bitmask of the traces holding
    g, and tries them from the top bit down, which is widest first since
    traces are sorted by (width, mask).  With a set of known sizes, which
    the walk grows at each leaf, a node below the root at depth d with u
    uncovered generators is also skipped when every size in d+1 .. d+|u|
    is already known: each further member covers at least one of the u,
    so no completion has a size outside that window.  Only the sizes are
    then exact; the families visited and the counts are a subset.  Both
    prunes, and the size cap, are tested before descending, so a skipped
    node costs no call.
    """
    traces = space.traces
    k = len(space.generators)
    full = (1 << k) - 1
    held = [0] * k
    for tid, t in enumerate(traces):
        while t:
            low = t & -t
            held[low.bit_length() - 1] |= 1 << tid
            t ^= low
    weights = list(map(len, space.class_masks))
    cap = k if size_cap is None else size_cap  # no cover has more than k members
    owner = [0] * k
    counts: dict[int, int] = {}
    multi: set[int] = set()
    chosen: list[int] = []

    def rec(union: int, once: int, banned: int, size: int, weight: int, wide: int) -> None:
        # size: the size of a cover completed by one more member
        uncovered = full & ~union
        options = _fewest_options(uncovered, held, banned)
        while options:
            tid = options.bit_length() - 1
            bit = 1 << tid
            options ^= bit
            banned |= bit
            t = traces[tid]
            keep = once & ~t
            hit = once & t
            while hit:
                c = owner[(hit & -hit).bit_length() - 1]
                if c & keep == 0:
                    break
                hit &= ~c
            else:
                fresh = t & ~union  # holds the generator branched on
                n = weight * weights[tid]
                w = wide or t & (t - 1)
                if fresh == uncovered:
                    counts[size] = counts.get(size, 0) + n
                    if w:
                        multi.add(size)
                    if known is not None:
                        known.add(size)
                    if on_cover is not None:
                        chosen.append(t)
                        on_cover(chosen)
                        chosen.pop()
                elif size < cap and (known is None or not known.issuperset(
                    range(size + 1, size + 1 + (uncovered ^ fresh).bit_count())
                )):
                    f = fresh
                    while f:
                        low = f & -f
                        owner[low.bit_length() - 1] = t
                        f ^= low
                    chosen.append(t)
                    rec(union | t, keep | fresh, banned, size + 1, n, w)
                    chosen.pop()

    if cap > 0:
        rec(0, 0, 0, 1, 1, 0)
    return counts, multi


class EnumerationStats(NamedTuple):
    """Counts from a full irredundant-cover walk, no covers materialized.

    min_size and max_size are None when the walk found no cover, as a
    size cap below sigma leaves it.
    """

    cover_count: int
    size_counts: tuple[tuple[int, int], ...]
    multi_trace_sizes: tuple[int, ...]

    @property
    def min_size(self) -> int | None:
        return self.size_counts[0][0] if self.size_counts else None

    @property
    def max_size(self) -> int | None:
        return self.size_counts[-1][0] if self.size_counts else None


def _check_enumerable(
    group: Group, enum_bound: int, size_cap: int | None
) -> int | None:
    """size_cap as an int (or None), once the walk may run on group."""
    if size_cap is not None:
        size_cap = _natural(size_cap, "size cap")
    enum_bound = _natural(enum_bound, "enumeration bound")
    _require_noncyclic(group)
    if group.order > enum_bound:
        raise EnumerationBoundExceeded(group.order, enum_bound)
    return size_cap


def cover_enumeration_stats(
    group: Group,
    size_cap: int | None = None,
    *,
    enum_bound: int = DEFAULT_ENUM_BOUND,
) -> EnumerationStats:
    """Count the irredundant covers by size (size <= size_cap if given).

    This is the counting walk: it visits every irredundant trace family
    and multiplies in the per-trace subgroup counts.  It is also the
    reference route for irredundant_cover_sizes, whose pruned walk must
    report exactly the sizes counted here.
    """
    return _counted_covers(group, _check_enumerable(group, enum_bound, size_cap))


@per_group
def _counted_covers(group: Group, size_cap: int | None) -> EnumerationStats:
    return _count_trace_covers(_search_space(group), size_cap)


def _count_trace_covers(space: _SearchSpace, size_cap: int | None) -> EnumerationStats:
    counts, multi = _walk_trace_covers(space, None, size_cap)
    if not counts and size_cap is None:
        raise InvariantViolation("no irredundant cover found for a non-cyclic group")
    return EnumerationStats(
        cover_count=sum(counts.values()),
        size_counts=tuple(sorted(counts.items())),
        multi_trace_sizes=tuple(sorted(multi)),
    )


cover_enumeration_stats.cache_info = _counted_covers.cache_info


def _trace_cover_sizes(space: _SearchSpace) -> tuple[int, ...]:
    known: set[int] = set()
    _walk_trace_covers(space, None, None, known)
    return tuple(sorted(known))


def irredundant_cover_sizes(
    group: Group, *, enum_bound: int = DEFAULT_ENUM_BOUND
) -> tuple[int, ...]:
    """All sizes attained by irredundant covers, ascending.

    Runs the size walk, which skips every branch whose reachable sizes
    are all known already; cover_enumeration_stats counts the covers.
    Every result is checked against the range endpoints: the smallest
    size must be sigma and the largest lambda.
    """
    _check_enumerable(group, enum_bound, None)
    return _checked_cover_sizes(group)


@per_group
def _checked_cover_sizes(group: Group) -> tuple[int, ...]:
    sizes = _trace_cover_sizes(_search_space(group))
    sig, lam = sigma_exact(group).value, lambda_(group)
    if not sizes or sizes[0] != sig or sizes[-1] != lam:
        raise InvariantViolation(
            f"{group.name}: enumerated sizes {sizes} conflict with "
            f"sigma={sig}, lambda={lam}"
        )
    return sizes


def enumerate_irredundant_covers(
    group: Group,
    size_cap: int | None = None,
    *,
    enum_bound: int = DEFAULT_ENUM_BOUND,
) -> frozenset[Cover]:
    """The complete set of irredundant covers (size <= size_cap if given).

    Materializes one Cover per result, so on groups with very many
    irredundant covers (large elementary abelian ones especially) prefer
    cover_enumeration_stats.
    """
    size_cap = _check_enumerable(group, enum_bound, size_cap)
    space = _search_space(group)
    lookup = _subgroup_by_mask(group)
    class_of = dict(zip(space.traces, space.class_masks))
    found: list[Cover] = []

    def emit(chosen: list[int]) -> None:
        for combo in itertools.product(*(class_of[t] for t in chosen)):
            members = tuple(
                sorted((lookup[m] for m in combo), key=Subgroup.key)
            )
            found.append(Cover(members, group.order))

    _walk_trace_covers(space, emit, size_cap)
    return frozenset(found)


# ---------------------------------------------------------------------------
# The normal-subgroup-plus-conjugates cover construction


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionViolation(message)


def frobenius_style_cover(
    group: Group, normal: Subgroup | int, complement: Subgroup | int
) -> Cover:
    """Cover {N} plus all conjugates of H, for G = N x| H with H cyclic,
    maximal, and core-free.  Always has size |N| + 1, is irredundant,
    and its members intersect pairwise in the identity alone.
    """
    n_mask, h_mask = _as_mask(group, normal), _as_mask(group, complement)
    _require(is_subgroup_mask(group, n_mask), "N is not a subgroup")
    _require(is_subgroup_mask(group, h_mask), "H is not a subgroup")
    _require(is_cyclic_mask(group, h_mask), "H is not cyclic")
    _require(
        any(s.members == h_mask for s in maximal_subgroups(group)),
        "H is not a maximal subgroup",
    )
    _require(normal_core(group, h_mask) == 1, "H is not core-free")
    _require(is_normal_mask(group, n_mask), "N is not normal")
    _require(n_mask & h_mask == 1, "N and H intersect nontrivially")
    n_order, h_order = n_mask.bit_count(), h_mask.bit_count()
    _require(n_order * h_order == group.order, "N H does not exhaust the group")

    cover = make_cover(group, [n_mask, *group.conjugates(h_mask)])

    if len(cover.members) != n_order + 1:
        raise InvariantViolation(
            f"expected |N|+1 = {n_order + 1} members, built {len(cover.members)}"
        )
    if not is_irredundant(group, cover):
        raise InvariantViolation("constructed cover is not irredundant")
    masks = cover.member_masks()
    for a, b in itertools.combinations(masks, 2):
        if a & b != 1:
            raise InvariantViolation("two members intersect beyond the identity")
    return cover


# ---------------------------------------------------------------------------
# One-sizedness


def one_sized_bruteforce(group: Group) -> bool:
    """True iff every irredundant cover has the same size.

    Irredundant cover sizes run from sigma to lambda and attain both, so
    this is lambda == sigma.  irredundant_cover_sizes checks those two
    endpoints against the size walk wherever the walk runs.
    """
    return lambda_(group) == sigma_exact(group).value
