"""The irredundant-cover walk and is_irredundant against the reference
routes in _oracles.

The library tracks irredundancy with one "covered exactly once" mask; the
oracles keep each chosen trace's private generators in a per-node list
and test each member against the union of the others.  The counting
walk, the size walk and enumerate_irredundant_covers must agree with the
oracle walk on synthetic trace families and on the corpus.  The walk
must visit the families of the oracle that branches by the same rule
(fewest live traces, widest first) in the same order, and the same
families, each as a set, as the oracle that branches on the least
uncovered generator, narrowest first.  The size walk must find the same
sizes as the size walk that branched on the least uncovered generator.
"""

import contextlib
import functools
import time
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from groupcovers import (
    Cover,
    InvalidParameters,
    all_subgroups,
    alternating,
    cover_enumeration_stats,
    cyclic,
    dihedral,
    direct_product,
    enumerate_irredundant_covers,
    frobenius_style_cover,
    irredundant_cover_sizes,
    is_irredundant,
    make_cover,
    maximal_cyclic_family,
    maximal_subgroups,
    minimal_cover,
    symmetric,
)
from groupcovers import covers
from groupcovers.covers import (
    _SearchSpace,
    _count_trace_covers,
    _search_space,
    _trace_cover_sizes,
    _walk_trace_covers,
)
from groupcovers.groups import iter_bits
from groupcovers.lattice import Subgroup

from _oracles import (
    least_generator_size_walk,
    pairwise_is_irredundant,
    privacy_list_trace_walk,
)

CAPS = (None, 3, 5)
WALK_ORDER = 32
# Materializing covers costs far more than counting them; past this many
# the enumeration comparison is left to the counting one.
ENUMERATED_COVERS = 5000


def old_order_sizes(space):
    return least_generator_size_walk(space.traces, len(space.generators))


def oracle_families(space, size_cap, fewest_live=True):
    return privacy_list_trace_walk(
        space.traces, len(space.generators), size_cap, fewest_live=fewest_live
    )


def as_sets(families):
    """The families as a multiset, each family sorted."""
    return Counter(tuple(sorted(f)) for f in families)


def visited(space, size_cap):
    out = []
    _walk_trace_covers(space, lambda chosen: out.append(tuple(chosen)), size_cap)
    return out


def oracle_stats(space, families):
    """(size_counts, multi_trace_sizes) from the oracle's families."""
    class_size = dict(zip(space.traces, map(len, space.class_masks)))
    counts = Counter()
    multi = set()
    for family, singles in families:
        n = 1
        for t in family:
            n *= class_size[t]
        counts[len(family)] += n
        if not singles:
            multi.add(len(family))
    return tuple(sorted(counts.items())), tuple(sorted(multi))


def oracle_covers(space, families):
    """Every cover the families stand for, as frozensets of member masks."""
    class_of = dict(zip(space.traces, space.class_masks))
    found = set()
    for family, _ in families:
        combos = {frozenset()}
        for t in family:
            combos = {c | {m} for c in combos for m in class_of[t]}
        found |= combos
    return found


# ---------------------------------------------------------------------------
# Synthetic trace families


@st.composite
def search_spaces(draw):
    """A trace family over k generators with classes of 1 to 3 fake masks.

    About half the families are built around generator 0, among 6 or 7,
    from wide traces: W, every generator but 0; a trace A through 0
    holding 3 to k - 3 generators; A with one other member swapped for a
    non-member, B; and A's complement, which nests in W.
    No generator is held by fewer traces than 0, so the walk branches on
    it first, and when A is the larger mask it tries A before B.  A's
    branch then finds sizes 2 and k - |A| + 1 but none between, while
    B's branch has the same window and holds a size in its middle, so a
    window check that reads only the window's ends loses that size.
    Uniform draws almost never build such a family.
    """
    if draw(st.booleans()):
        k = draw(st.integers(6, 7))
        full = (1 << k) - 1
        others = draw(st.permutations(range(1, k)))
        w = draw(st.integers(2, k - 4))
        a = sum(1 << g for g in others[:w]) | 1
        out = others[draw(st.integers(0, w - 1))]
        into = others[draw(st.integers(w, k - 2))]
        extra = {full & ~1, a, a ^ (1 << out) ^ (1 << into), full & ~a}
    else:
        k = draw(st.integers(1, 7))
        extra = draw(st.frozensets(st.integers(1, (1 << k) - 1), max_size=20))
    traces = sorted(
        {1 << i for i in range(k)} | extra, key=lambda t: (t.bit_count(), t)
    )
    sizes = draw(
        st.lists(st.integers(1, 3), min_size=len(traces), max_size=len(traces))
    )
    classes = tuple(
        tuple(t << 2 | j for j in range(n)) for t, n in zip(traces, sizes)
    )
    return _SearchSpace(tuple(range(k)), tuple(traces), classes)


@settings(max_examples=300, deadline=None)
@given(search_spaces(), st.sampled_from(CAPS))
def test_walk_visits_the_oracle_families_in_order(space, size_cap):
    families = oracle_families(space, size_cap)
    got = visited(space, size_cap)
    assert got == [f for f, _ in families]
    least = oracle_families(space, size_cap, fewest_live=False)
    assert as_sets(got) == as_sets(f for f, _ in least)
    size_counts, multi = oracle_stats(space, families)
    stats = _count_trace_covers(space, size_cap)
    assert stats.size_counts == size_counts
    assert stats.multi_trace_sizes == multi
    assert stats.cover_count == sum(n for _, n in size_counts)
    if size_cap is None:
        assert _trace_cover_sizes(space) == tuple(s for s, _ in size_counts)
        assert _trace_cover_sizes(space) == old_order_sizes(space)


@settings(max_examples=300, deadline=None)
@given(search_spaces(), st.sampled_from(CAPS))
def test_walk_returns_weighted_tallies(space, size_cap):
    # classes of 1 to 3 masks, so a wrong product of the weights carried
    # down the walk shows here and not only on the corpus
    counts, multi = _walk_trace_covers(space, None, size_cap)
    size_counts, multi_sizes = oracle_stats(space, oracle_families(space, size_cap))
    assert tuple(sorted(counts.items())) == size_counts
    assert tuple(sorted(multi)) == multi_sizes
    sizes = _trace_cover_sizes(space)
    assert tuple(s for s in sizes if size_cap is None or s <= size_cap) == tuple(sorted(counts))


@settings(max_examples=150, deadline=None)
@given(search_spaces(), st.sampled_from(CAPS))
def test_enumeration_matches_oracle_on_synthetic_traces(space, size_cap):
    # enumerate_irredundant_covers reads the space and the mask lookup
    # through the module, so a stand-in group can carry a synthetic space
    lookup = {
        m: Subgroup(m, m.bit_count(), False) for c in space.class_masks for m in c
    }
    stand_in = SimpleNamespace(is_cyclic=False, order=1)
    with (
        mock.patch.object(covers, "_search_space", lambda g: space),
        mock.patch.object(covers, "_subgroup_by_mask", lambda g: lookup),
    ):
        got = enumerate_irredundant_covers(stand_in, size_cap)
    expected = oracle_covers(space, oracle_families(space, size_cap))
    assert {frozenset(c.member_masks()) for c in got} == expected
    assert len(got) == len(expected)


# ---------------------------------------------------------------------------
# The early stop of the fewest-options scan


@contextlib.contextmanager
def recorded_scans():
    """Record (items, holders, banned) for every _fewest_options call."""
    calls = []
    real = covers._fewest_options

    def recording(items, holders, banned):
        calls.append((items, holders, banned))
        return real(items, holders, banned)

    with mock.patch.object(covers, "_fewest_options", recording):
        yield calls


def dead_scans(calls):
    """The calls that saw an item with no live option.

    There must be none, or stopping at the first item with one option
    could pass over a dead item that a full scan would pick.  At the
    root every item has a holder: set cover returns None before its
    search otherwise, and every generator holds the trace of its own
    maximal cyclic subgroup (the synthetic families hold each single
    generator).  Below the root the lemma in _fewest_options applies.
    """
    return [
        (items, banned)
        for items, holders, banned in calls
        if any(not holders[i] & ~banned for i in iter_bits(items))
    ]


@settings(max_examples=200, deadline=None)
@given(search_spaces(), st.sampled_from(CAPS))
def test_no_scan_sees_a_dead_generator_on_synthetic_traces(space, size_cap):
    with recorded_scans() as calls:
        _count_trace_covers(space, size_cap)
        _trace_cover_sizes(space)
    assert calls
    assert dead_scans(calls) == []


def test_no_scan_sees_a_dead_item_on_corpus(corpus):
    groups = [g for _, g in sorted(corpus.items()) if not g.is_cyclic]
    walked = [g for g in groups if g.order <= WALK_ORDER]
    assert len(walked) == 59
    with recorded_scans() as calls:
        for g in groups:
            masks = [s.members for s in maximal_subgroups(g)]
            covers._min_set_cover(g.full_mask, masks)
        set_cover_calls = len(calls)
        for g in walked:
            _trace_cover_sizes(_search_space(g))
            if g.name != "E16":  # 674,986 counting-walk nodes
                _count_trace_covers(_search_space(g), None)
    assert set_cover_calls and len(calls) > set_cover_calls
    assert dead_scans(calls) == []


# ---------------------------------------------------------------------------
# Corpus groups


def walk_cases(corpus):
    """(group, cap) for every non-cyclic corpus group of order <= 32.

    E16 uncapped is left out: its 1,603,839 irredundant trace families
    take the oracle about 20 s.  Criterion 5 still counts them with the
    library walk and checks the size walk against that count.
    """
    return [
        (g, cap)
        for _, g in sorted(corpus.items())
        if not g.is_cyclic and g.order <= WALK_ORDER
        for cap in CAPS
        if not (g.name == "E16" and cap is None)
    ]


def test_corpus_walks_match_oracle(corpus):
    cases = walk_cases(corpus)
    assert len({g.name for g, _ in cases}) == 59
    enumerated = 0
    for g, cap in cases:
        space = _search_space(g)
        families = oracle_families(space, cap)
        got = visited(space, cap)
        assert got == [f for f, _ in families], (g.name, cap)
        least = oracle_families(space, cap, fewest_live=False)
        assert as_sets(got) == as_sets(f for f, _ in least), (g.name, cap)
        size_counts, multi = oracle_stats(space, families)
        stats = cover_enumeration_stats(g, cap, enum_bound=WALK_ORDER)
        assert stats.size_counts == size_counts, (g.name, cap)
        assert stats.multi_trace_sizes == multi, (g.name, cap)
        if cap is None:
            sizes = irredundant_cover_sizes(g, enum_bound=WALK_ORDER)
            assert sizes == tuple(s for s, _ in size_counts), g.name
        if stats.cover_count <= ENUMERATED_COVERS:
            got = enumerate_irredundant_covers(g, cap, enum_bound=WALK_ORDER)
            expected = oracle_covers(space, families)
            assert {frozenset(c.member_masks()) for c in got} == expected, (g.name, cap)
            enumerated += 1
    # E16 at cap 5 and D12xC2 uncapped have more covers than the bound
    assert enumerated == len(cases) - 2


# ---------------------------------------------------------------------------
# The size walk against its old branching order


def test_size_walk_matches_least_generator_oracle_on_corpus(corpus):
    # every order: the oracle is slowest on A5, a few seconds
    groups = [g for _, g in sorted(corpus.items()) if not g.is_cyclic]
    assert len(groups) == 74
    for g in groups:
        space = _search_space(g)
        assert _trace_cover_sizes(space) == old_order_sizes(space), g.name


# Sizes from sigma to lambda that no irredundant cover attains; every other
# non-cyclic corpus group attains its whole range.
SPECTRUM_GAPS = {
    "E8": (6,), "A4": (6,), "C4sC4": (6,), "C2xC2xC6": (6,), "SL23": (6,),
    "A4xC2": (6,), "E16": (14,), "D18": (5, 7, 9), "S3xC3": (5,),
    "Dic3xC3": (5,), "E9sC2": (5, 9, 11, 12), "D20": (4, 5), "A5": (30,),
    "S3xC6": (9,), "F20xC2": (5, 13, 15),
}


def test_corpus_spectra_gaps(corpus):
    gaps = {}
    groups = {name: g for name, g in corpus.items() if not g.is_cyclic}
    assert len(groups) == 74
    for name, g in sorted(groups.items()):
        sizes = irredundant_cover_sizes(g, enum_bound=512)
        missing = tuple(sorted(set(range(sizes[0], sizes[-1] + 1)) - set(sizes)))
        if missing:
            gaps[name] = missing
    assert gaps == SPECTRUM_GAPS


def test_size_walk_on_s4xc4_is_fast():
    g = direct_product(symmetric(4), cyclic(4))
    start = time.perf_counter()
    sizes = irredundant_cover_sizes(g, enum_bound=96)
    assert time.perf_counter() - start < 2.0
    assert sizes == tuple(range(3, 38))


# ---------------------------------------------------------------------------
# is_irredundant


IRREDUNDANCE_GROUPS = {
    "D8": lambda: dihedral(4),
    "S4": lambda: symmetric(4),
    "A5": lambda: alternating(5),
}


@functools.cache
def irredundance_case(name):
    """The group, its proper subgroups, and three covers to perturb."""
    g = IRREDUNDANCE_GROUPS[name]()
    proper = [s for s in all_subgroups(g) if s.order < g.order]
    covers_ = [maximal_cyclic_family(g), minimal_cover(g), make_cover(g, maximal_subgroups(g))]
    return g, proper, [c.members for c in covers_]


@pytest.mark.parametrize("name", sorted(IRREDUNDANCE_GROUPS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_is_irredundant_matches_pairwise_oracle(name, data):
    # a known cover with up to two members dropped and up to three added,
    # repeats included: irredundant covers, redundant ones and non-covers
    # all come up
    g, proper, bases = irredundance_case(name)
    members = list(data.draw(st.sampled_from(bases)))
    dropped = data.draw(st.sets(st.sampled_from(members), max_size=2))
    added = data.draw(st.lists(st.sampled_from(proper + members), max_size=3))
    members = [s for s in members if s not in dropped] + added
    masks = [s.members for s in members]
    # make_cover drops repeated members; a Cover built directly keeps them
    assert is_irredundant(g, members) == pairwise_is_irredundant(
        set(masks), g.full_mask
    )
    raw = Cover(tuple(members), g.order)
    assert is_irredundant(g, raw) == pairwise_is_irredundant(masks, g.full_mask)


@pytest.mark.parametrize("name", sorted(IRREDUNDANCE_GROUPS))
def test_is_irredundant_on_known_covers(name):
    g, _, bases = irredundance_case(name)
    for members in bases:
        masks = [s.members for s in members]
        assert is_irredundant(g, members) == pairwise_is_irredundant(masks, g.full_mask)
        repeated = Cover((*members, members[0]), g.order)
        assert not is_irredundant(g, repeated)
        assert not pairwise_is_irredundant([*masks, masks[0]], g.full_mask)
    # the maximal cyclic family and a minimum cover are irredundant
    assert is_irredundant(g, bases[0]) and is_irredundant(g, bases[1])


# ---------------------------------------------------------------------------
# Masks must be integers


class TestMaskCoercion:
    def test_float_mask_rejected(self):
        g = dihedral(4)
        with pytest.raises(InvalidParameters, match="not an integer"):
            make_cover(g, [1.5])
        with pytest.raises(InvalidParameters, match="not an integer"):
            is_irredundant(g, [float(g.center)])
        with pytest.raises(InvalidParameters, match="not an integer"):
            frobenius_style_cover(symmetric(3), 25.0, 3)

    def test_string_mask_rejected(self):
        g = dihedral(4)
        with pytest.raises(InvalidParameters, match="not an integer"):
            make_cover(g, ["3"])
        with pytest.raises(InvalidParameters, match="not an integer"):
            frobenius_style_cover(symmetric(3), 25, "3")

    def test_int_masks_accepted(self):
        g = symmetric(3)
        n = next(s for s in all_subgroups(g) if s.order == 3)
        h = next(s for s in all_subgroups(g) if s.order == 2)
        cover = make_cover(g, [n.members, h])
        assert cover.member_masks() == (h.members, n.members)
        assert len(frobenius_style_cover(g, n.members, h.members)) == 4
