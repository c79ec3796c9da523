import importlib
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from groupcovers import (
    AnalyzeOptions,
    Cover,
    GroupIsCyclic,
    INFINITE,
    InvalidParameters,
    InvariantViolation,
    NotProperSubgroup,
    NotSolvable,
    NotSubgroup,
    PreconditionViolation,
    all_subgroups,
    alternating,
    bundled_catalog_text,
    cover_enumeration_stats,
    cyclic,
    dihedral,
    direct_product,
    enumerate_irredundant_covers,
    frobenius_style_cover,
    from_permutation_generators,
    generalized_quaternion,
    irredundant_cover_sizes,
    is_cover,
    is_irredundant,
    lambda_,
    make_cover,
    maximal_cyclic_family,
    maximal_cyclic_pairs_generate,
    minimal_cover,
    one_sized_bruteforce,
    parse_catalog,
    run_analyze,
    run_verify_corpus,
    semidirect_cp_cn,
    sigma_exact,
    sigma_tomkinson,
    symmetric,
)
from groupcovers import covers
from groupcovers.covers import _SearchSpace, _trace_cover_sizes, _walk_trace_covers
from groupcovers.groups import mask_of

from _oracles import (
    brute_irredundant_covers,
    brute_maximal_cyclic_masks,
    brute_min_cover_size,
    listcomp_min_set_cover,
)


def v4():
    return direct_product(cyclic(2), cyclic(2), name="V4")


def e8():
    return direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2), name="E8")


def e9():
    return direct_product(cyclic(3), cyclic(3), name="E9")


def proper_nontrivial_masks(g):
    return [s.members for s in all_subgroups(g) if 1 < s.order < g.order]


SMALL_NONCYCLIC = [
    v4,
    lambda: symmetric(3),
    lambda: generalized_quaternion(3),
    lambda: dihedral(4),
    e8,
    e9,
    lambda: direct_product(cyclic(4), cyclic(2)),
    lambda: alternating(4),
    lambda: dihedral(6),
    lambda: semidirect_cp_cn(3, 4, 2),
    lambda: dihedral(8),
    lambda: direct_product(cyclic(4), cyclic(4)),
]


class TestSigma:
    def test_cyclic_is_infinite(self):
        val = sigma_exact(cyclic(6))
        assert val is INFINITE
        assert val.is_infinite
        assert val.value is None
        assert str(val) == "Infinite"

    @pytest.mark.parametrize("make", SMALL_NONCYCLIC)
    def test_matches_unrestricted_bruteforce(self, make):
        # the solver restricts candidates to maximal subgroups; the oracle
        # searches over every proper nontrivial subgroup
        g = make()
        expected = brute_min_cover_size(proper_nontrivial_masks(g), g.full_mask)
        assert sigma_exact(g).value == expected

    def test_spot_values(self):
        assert sigma_exact(v4()).value == 3
        assert sigma_exact(e9()).value == 4
        assert sigma_exact(symmetric(4)).value == 4
        assert sigma_exact(alternating(4)).value == 5
        assert sigma_exact(alternating(5)).value == 10

    def test_minimal_cover_is_a_witness(self):
        for make in SMALL_NONCYCLIC:
            g = make()
            cov = minimal_cover(g)
            assert is_cover(g, cov)
            assert len(cov) == sigma_exact(g).value

    def test_minimal_cover_rejects_cyclic(self):
        with pytest.raises(GroupIsCyclic):
            minimal_cover(cyclic(4))


class TestLambda:
    @pytest.mark.parametrize("make", SMALL_NONCYCLIC)
    def test_family_matches_bruteforce(self, make):
        g = make()
        expected = brute_maximal_cyclic_masks(g.cayley)
        fam = maximal_cyclic_family(g)
        assert set(fam.member_masks()) == expected
        assert lambda_(g) == len(expected)

    def test_family_is_irredundant_cover(self):
        for make in SMALL_NONCYCLIC:
            g = make()
            assert is_irredundant(g, maximal_cyclic_family(g))

    def test_cyclic_rejected(self):
        with pytest.raises(GroupIsCyclic):
            maximal_cyclic_family(cyclic(9))
        with pytest.raises(GroupIsCyclic):
            lambda_(cyclic(9))

    def test_pairwise_generation(self):
        assert maximal_cyclic_pairs_generate(v4())
        assert maximal_cyclic_pairs_generate(generalized_quaternion(3))
        # in C2 x C2 x C2 two maximal cyclics only span a V4
        assert not maximal_cyclic_pairs_generate(e8())


class TestCoverPredicates:
    def test_make_cover_canonicalizes_and_dedupes(self):
        g = symmetric(3)
        subs = [s for s in all_subgroups(g) if 1 < s.order < 6]
        cov = make_cover(g, [*subs, subs[0], subs[0].members])
        assert len(cov) == len(subs)
        keys = [(s.order, s.members) for s in cov.members]
        assert keys == sorted(keys)

    def test_make_cover_rejects_non_subgroup(self):
        g = symmetric(3)
        with pytest.raises(NotSubgroup):
            make_cover(g, [0b0110])

    @pytest.mark.parametrize("mask", [-1, -2, 1 << 6, 1 | 1 << 10])
    def test_make_cover_rejects_masks_outside_the_group(self, mask):
        # -1 once looped forever in iter_bits; bits past |G| raised IndexError
        with pytest.raises(InvalidParameters, match="not a set of elements"):
            make_cover(symmetric(3), [mask])

    def test_make_cover_rejects_subgroup_of_a_larger_group(self):
        big = next(s for s in all_subgroups(symmetric(4)) if s.members >> 6)
        with pytest.raises(InvalidParameters, match="not a set of elements"):
            make_cover(symmetric(3), [big])

    @pytest.mark.parametrize("predicate", [make_cover, is_cover, is_irredundant])
    @pytest.mark.parametrize("family", [None, 5])
    def test_non_iterable_family_is_rejected(self, predicate, family):
        with pytest.raises(InvalidParameters, match=f"family {family} is not iterable"):
            predicate(symmetric(3), family)

    def test_make_cover_rejects_whole_group(self):
        g = symmetric(3)
        with pytest.raises(NotProperSubgroup):
            make_cover(g, [g.full_mask])

    def test_make_cover_of_a_cover_is_that_cover(self):
        g = symmetric(3)
        cov = maximal_cyclic_family(g)
        assert make_cover(g, cov) == cov

    def test_is_cover(self):
        g = v4()
        c2s = [s for s in all_subgroups(g) if s.order == 2]
        assert is_cover(g, c2s)
        assert not is_cover(g, c2s[:2])

    def test_is_cover_rejects_a_raw_cover_holding_the_group(self):
        # a Cover built directly skips make_cover's check
        g = v4()
        whole = next(s for s in all_subgroups(g) if s.order == g.order)
        with pytest.raises(NotProperSubgroup):
            is_cover(g, Cover((whole,), g.order))

    def test_cover_predicates_check_a_cover_of_another_group(self):
        # a Cover's members are checked like any family's: D12's minimum
        # cover is no family of subgroups of A4, and S4's lies outside S3
        d12 = minimal_cover(dihedral(6))
        with pytest.raises(NotSubgroup):
            is_cover(alternating(4), d12)
        with pytest.raises(NotSubgroup):
            is_irredundant(alternating(4), d12)
        with pytest.raises(InvalidParameters, match="not a set of elements"):
            is_cover(symmetric(3), minimal_cover(symmetric(4)))

    def test_is_irredundant(self):
        g = dihedral(4)
        fam = maximal_cyclic_family(g)
        assert is_irredundant(g, fam)
        # adding the rotation C4's subgroup C2 keeps it a cover but kills
        # irredundancy: the C2 has no private element
        center_c2 = next(
            s for s in all_subgroups(g) if s.order == 2 and s.members == g.center
        )
        assert not is_irredundant(g, [*fam.members, center_c2])
        assert not is_irredundant(g, fam.members[:2])

    def test_cover_checks_on_e128_build_no_lattice(self):
        # E128 has 29,212 subgroups; closing them to look members up took about 2 s
        g = cyclic(2)
        for _ in range(6):
            g = direct_product(g, cyclic(2))  # element x is a bit vector, x*y = x^y
        family = [
            mask_of(x for x in range(128) if not x & 1),
            mask_of(x for x in range(128) if not x & 2),
            mask_of(x for x in range(128) if x & 1 == x >> 1 & 1),
        ]
        misses = all_subgroups.cache_info().misses
        assert len(make_cover(g, family)) == 3
        assert is_cover(g, family) and is_irredundant(g, family)
        assert all_subgroups.cache_info().misses == misses

    def test_make_cover_keeps_each_lattice_subgroup(self, corpus):
        # the normal flag make_cover computes is the lattice's
        for g in corpus.values():
            if g.order <= 24:
                for s in all_subgroups(g)[:-1]:
                    assert make_cover(g, [s]).members == (s,), (g.name, s)


class TestEnumeration:
    @pytest.mark.parametrize(
        "make",
        [v4, lambda: symmetric(3), lambda: generalized_quaternion(3),
         lambda: dihedral(4), e8, e9, lambda: alternating(4),
         lambda: direct_product(cyclic(4), cyclic(2))],
    )
    def test_full_walk_matches_subset_bruteforce(self, make):
        g = make()
        expected = brute_irredundant_covers(
            proper_nontrivial_masks(g), g.full_mask
        )
        got = {
            frozenset(c.member_masks())
            for c in enumerate_irredundant_covers(g)
        }
        assert got == expected

    def test_unique_cover_groups(self):
        for make in (v4, lambda: generalized_quaternion(3), lambda: symmetric(3), e9):
            g = make()
            covs = enumerate_irredundant_covers(g)
            assert len(covs) == 1
            only = next(iter(covs))
            assert set(only.member_masks()) == set(
                maximal_cyclic_family(g).member_masks()
            )

    def test_frozen_stats(self):
        st = cover_enumeration_stats(dihedral(4))
        assert st.cover_count == 4
        assert st.size_counts == ((3, 1), (4, 2), (5, 1))
        assert st.multi_trace_sizes == (3, 4)

        st = cover_enumeration_stats(e8())
        assert st.cover_count == 64
        assert st.size_counts == ((3, 7), (4, 49), (5, 7), (7, 1))
        assert st.min_size == 3
        assert st.max_size == 7
        # the size-7 cover uses every maximal cyclic subgroup once
        assert 7 not in st.multi_trace_sizes

        st = cover_enumeration_stats(alternating(4))
        assert st.size_counts == ((5, 1), (7, 1))

    def test_sizes_helper(self):
        assert irredundant_cover_sizes(e8()) == (3, 4, 5, 7)
        assert irredundant_cover_sizes(symmetric(3)) == (4,)

    def test_size_cap(self):
        st = cover_enumeration_stats(e8(), 3)
        assert st.size_counts == ((3, 7),)
        capped = enumerate_irredundant_covers(e8(), 3)
        assert len(capped) == 7
        assert all(len(c) == 3 for c in capped)

    def test_negative_cap_rejected(self):
        with pytest.raises(InvalidParameters):
            cover_enumeration_stats(e8(), -1)
        with pytest.raises(InvalidParameters):
            enumerate_irredundant_covers(e8(), -1)

    def test_negative_enum_bound_rejected(self):
        with pytest.raises(InvalidParameters):
            cover_enumeration_stats(e8(), enum_bound=-5)
        with pytest.raises(InvalidParameters):
            enumerate_irredundant_covers(e8(), enum_bound=-5)
        with pytest.raises(InvalidParameters):
            irredundant_cover_sizes(e8(), enum_bound=-5)

    def test_cap_below_sigma_is_empty(self):
        st = cover_enumeration_stats(dihedral(4), 2)
        assert st.cover_count == 0
        assert st.size_counts == ()
        assert st.min_size is None
        assert st.max_size is None

    def test_cyclic_group_has_no_covers_to_count(self):
        with pytest.raises(GroupIsCyclic):
            cover_enumeration_stats(cyclic(4))

    def test_enum_bound_enforced(self):
        big = dihedral(20)
        with pytest.raises(Exception) as info:
            cover_enumeration_stats(big, enum_bound=32)
        assert "40" in str(info.value)
        assert cover_enumeration_stats(big, enum_bound=40).cover_count > 0

    def test_sizes_checked_against_lambda(self, monkeypatch):
        g = dihedral(4)
        monkeypatch.setattr(covers, "lambda_", lambda group: 99)
        with pytest.raises(InvariantViolation, match="lambda=99"):
            irredundant_cover_sizes(g)

    def test_bounds_share_one_size_walk(self, monkeypatch):
        walks = []

        def counting_walk(*args):
            walks.append(args)
            return _walk_trace_covers(*args)

        monkeypatch.setattr(covers, "_walk_trace_covers", counting_walk)
        g = dihedral(4)
        assert irredundant_cover_sizes(g, enum_bound=32) == (3, 4, 5)
        assert irredundant_cover_sizes(g, enum_bound=40) == (3, 4, 5)
        assert len(walks) == 1


@st.composite
def trace_families(draw):
    k = draw(st.integers(1, 7))
    extra = draw(st.frozensets(st.integers(1, (1 << k) - 1), max_size=20))
    return k, extra


# The window check must cover every size in d+1 .. d+|u|, not just its ends.
# On (6, {0b000111, 0b001011, 0b110100, 0b111110}) sizes 2 and 4 are known
# when the walk, branching on generator 0 and widest trace first, reaches
# the branch that starts with 0b000111 (window 2..4), and that branch holds
# the only size-3 cover, so checking the endpoints alone loses size 3.
# (5, {0b00011, 0b01100, 0b11110}) did the same for the walk's earlier
# order, least uncovered generator and narrowest trace first.  Random
# families catch that rarely, hence the examples.
@settings(max_examples=500, deadline=None)
@given(trace_families())
@example((6, frozenset({0b000111, 0b001011, 0b110100, 0b111110})))
@example((5, frozenset({0b00011, 0b01100, 0b11110})))
def test_size_walk_matches_counting_walk_on_synthetic_traces(family):
    k, extra = family
    traces = sorted(
        {1 << i for i in range(k)} | extra, key=lambda t: (t.bit_count(), t)
    )
    space = _SearchSpace(tuple(range(k)), tuple(traces), tuple((t,) for t in traces))
    counted = set()
    _walk_trace_covers(space, lambda chosen: counted.add(len(chosen)), None)
    assert _trace_cover_sizes(space) == tuple(sorted(counted))


class TestTomkinson:
    def test_cyclic(self):
        assert sigma_tomkinson(cyclic(8)) is INFINITE

    def test_not_solvable(self):
        with pytest.raises(NotSolvable):
            sigma_tomkinson(alternating(5))

    @pytest.mark.parametrize(
        "make,expected",
        [
            (v4, 3),
            (lambda: symmetric(3), 4),
            (lambda: generalized_quaternion(3), 3),
            (lambda: dihedral(4), 3),
            (lambda: alternating(4), 5),
            (e9, 4),
            (lambda: semidirect_cp_cn(7, 6, 3), 8),
            (lambda: symmetric(4), 4),
        ],
    )
    def test_values(self, make, expected):
        g = make()
        assert sigma_tomkinson(g).value == expected
        assert sigma_tomkinson(g).value == sigma_exact(g).value


class TestFrobeniusStyle:
    def pick(self, g, order, **flags):
        want_normal = flags.get("normal")
        for s in all_subgroups(g):
            if s.order != order:
                continue
            if want_normal is not None and s.is_normal != want_normal:
                continue
            return s
        raise AssertionError("no such subgroup")

    def test_s3(self):
        g = symmetric(3)
        cov = frobenius_style_cover(g, self.pick(g, 3), self.pick(g, 2))
        assert len(cov) == 4
        assert is_irredundant(g, cov)

    def test_d10(self):
        g = dihedral(5)
        cov = frobenius_style_cover(g, self.pick(g, 5), self.pick(g, 2))
        assert len(cov) == 6

    def test_f20(self):
        g = semidirect_cp_cn(5, 4, 2)
        cov = frobenius_style_cover(g, self.pick(g, 5), self.pick(g, 4))
        assert len(cov) == 6
        masks = cov.member_masks()
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                assert a & b == 1

    def test_accepts_raw_masks(self):
        g = symmetric(3)
        cov = frobenius_style_cover(
            g, self.pick(g, 3).members, self.pick(g, 2).members
        )
        assert len(cov) == 4

    def test_h_not_cyclic(self):
        g = symmetric(4)
        sylow2 = self.pick(g, 8)
        a4 = self.pick(g, 12)
        with pytest.raises(PreconditionViolation, match="cyclic"):
            frobenius_style_cover(g, a4, sylow2)

    def test_h_not_maximal(self):
        g = semidirect_cp_cn(5, 4, 2)
        with pytest.raises(PreconditionViolation, match="maximal"):
            frobenius_style_cover(g, self.pick(g, 5), self.pick(g, 2))

    def test_h_not_core_free(self):
        g = generalized_quaternion(3)
        c4s = [s for s in all_subgroups(g) if s.order == 4]
        with pytest.raises(PreconditionViolation, match="core"):
            frobenius_style_cover(g, c4s[0], c4s[1])

    def test_n_not_normal(self):
        g = semidirect_cp_cn(5, 4, 2)
        with pytest.raises(PreconditionViolation, match="normal"):
            frobenius_style_cover(g, self.pick(g, 2, normal=False), self.pick(g, 4))

    def test_overlapping_pair(self):
        g = semidirect_cp_cn(5, 4, 2)
        with pytest.raises(PreconditionViolation, match="intersect"):
            frobenius_style_cover(g, self.pick(g, 10), self.pick(g, 4))

    def test_underfull_pair(self):
        g = semidirect_cp_cn(5, 4, 2)
        with pytest.raises(PreconditionViolation, match="exhaust"):
            frobenius_style_cover(g, self.pick(g, 1), self.pick(g, 4))

    def test_not_a_subgroup(self):
        g = symmetric(3)
        with pytest.raises(PreconditionViolation, match="subgroup"):
            frobenius_style_cover(g, 0b0110, self.pick(g, 2))

    @pytest.mark.parametrize("mask", [-1, 1 | 1 << 10])
    def test_masks_outside_the_group(self, mask):
        g = symmetric(3)
        with pytest.raises(InvalidParameters, match="not a set of elements"):
            frobenius_style_cover(g, mask, self.pick(g, 2))
        with pytest.raises(InvalidParameters, match="not a set of elements"):
            frobenius_style_cover(g, self.pick(g, 3), mask)


class TestOneSized:
    @pytest.mark.parametrize(
        "make,expected",
        [
            (v4, True),
            (lambda: symmetric(3), True),
            (lambda: generalized_quaternion(3), True),
            (e9, True),
            (lambda: semidirect_cp_cn(5, 4, 2), True),
            (e8, False),
            (lambda: dihedral(4), False),
            (lambda: direct_product(cyclic(4), cyclic(2)), False),
            (lambda: alternating(4), False),
            (lambda: generalized_quaternion(4), False),
        ],
    )
    def test_values(self, make, expected):
        assert one_sized_bruteforce(make()) is expected

    def test_beyond_enum_bound_skips_crosscheck(self):
        # answers via lambda == sigma alone; no walk runs, whatever the order
        g = dihedral(20)
        assert one_sized_bruteforce(g) is False


def test_cover_len_and_masks():
    g = v4()
    fam = maximal_cyclic_family(g)
    assert isinstance(fam, Cover)
    assert len(fam) == 3
    assert fam.source_group_order == 4
    union = 0
    for m in fam.member_masks():
        union |= m
    assert union == g.full_mask


# ---------------------------------------------------------------------------
# The set-cover kernel against the route that rebuilt every element's
# option list at each node.  Both must return the same witness, not just
# the same size: the search order is part of the contract, since the
# witness of sigma_exact is minimal_cover's answer.

classify_module = importlib.import_module("groupcovers.classify")


def test_set_cover_matches_listcomp_oracle_on_corpus_and_large_groups():
    calls = []
    real = covers._min_set_cover

    def recording(universe, candidates, limit=None):
        result = real(universe, candidates, limit)
        calls.append(((universe, list(candidates), limit), result))
        return result

    d8xd8 = from_permutation_generators(8, ["(1 2 3 4)", "(1 3)", "(5 6 7 8)", "(5 7)"])
    options = AnalyzeOptions(max_order=512)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "_min_set_cover", recording)
        mp.setattr(classify_module, "_min_set_cover", recording)
        # verify-corpus builds its groups afresh, so no sigma is memoized
        run_verify_corpus(parse_catalog(bundled_catalog_text()), options)
        for g in (symmetric(5), direct_product(alternating(5), cyclic(2)), d8xd8):
            run_analyze(g, options)
        # One-sized groups whose quotient checks solve set covers of their own
        for p, m in itertools.product((3, 5, 7), (2, 4, 6, 10)):
            run_analyze(direct_product(direct_product(cyclic(p), cyclic(p)), cyclic(m)), options)
        # Non-abelian one-sized groups, whose Bryce-Serena checks search too
        for h, m in itertools.product(
            (generalized_quaternion(3), semidirect_cp_cn(3, 4, 2), semidirect_cp_cn(5, 4, 2)),
            (7, 11, 13),
        ):
            run_analyze(direct_product(h, cyclic(m)), options)

    assert len(calls) > 200
    assert any(limit is not None for (_, _, limit), _ in calls)
    assert not [
        args for args, result in calls if listcomp_min_set_cover(*args) != result
    ]


@st.composite
def set_cover_instances(draw):
    """Up to 12 candidates over a universe of up to 24 bits.

    Witnesses can differ only where the search beats the greedy start.
    So each draw plants three covers of k members, the classes of three
    labellings of the elements, among random masks that can lure greedy
    away from them.  Some draws cut the list short, repeat a candidate
    or keep only part of the elements in the universe.
    """
    n = draw(st.integers(0, 24))
    full = (1 << n) - 1
    universe = draw(st.integers(0, full)) if draw(st.booleans()) else full
    k = draw(st.integers(2, 4))
    labellings = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    cands = []
    for labels in (draw(labellings), draw(labellings), draw(labellings)):
        cands += [sum(1 << e for e, b in enumerate(labels) if b == j) for j in range(k)]
    cands += draw(st.lists(st.integers(0, full), max_size=12 - 3 * k))
    cands = draw(st.permutations(cands))
    if draw(st.integers(0, 4)) == 0:
        cands = cands[: draw(st.integers(0, len(cands)))]
    if len(cands) > 1 and draw(st.integers(0, 4)) == 0:
        cands[draw(st.integers(1, len(cands) - 1))] = cands[0]
    limit = draw(st.none() | st.integers(0, 6))
    return universe, cands, limit


@given(set_cover_instances())
@settings(max_examples=300, deadline=None)
def test_set_cover_matches_listcomp_oracle_on_drawn_instances(instance):
    universe, cands, limit = instance
    got = covers._min_set_cover(universe, cands, limit)
    if universe and not any(cands):
        # the oracle divides by a zero largest candidate here
        assert got is None
    else:
        assert got == listcomp_min_set_cover(universe, cands, limit)
    if universe == 0:
        size = 0
    else:
        size = brute_min_cover_size({m & universe for m in cands}, universe)
    if limit is not None and size is not None and size > limit:
        size = None
    assert (got and got[0]) == size
    if got is not None:
        union = 0
        for m in got[1]:
            union |= m
        assert union & universe == universe and len(got[1]) == got[0]


class Tagged(int):
    """An int that remembers which candidate it is; equal ones stay apart."""

    def __new__(cls, value, tag):
        self = super().__new__(cls, value)
        self.tag = tag
        return self


class TestSetCoverEdgeCases:
    def test_no_candidates(self):
        assert covers._min_set_cover(0, []) == (0, ())
        assert covers._min_set_cover(0b1, []) is None
        assert covers._min_set_cover(0b1, [], limit=3) is None
        assert covers._min_set_cover(0b1, [0, 0]) is None

    def test_empty_universe_with_candidates(self):
        assert covers._min_set_cover(0, [0b11, 0b1]) == (0, ())
        assert covers._min_set_cover(0, [0b11], limit=0) == (0, ())

    def test_element_that_no_candidate_holds(self):
        assert covers._min_set_cover(0b111, [0b011, 0b001]) is None
        assert covers._min_set_cover(0b1000, [0b111]) is None

    def test_candidate_bits_outside_the_universe(self):
        # the witness keeps the candidates as given, outside bits and all;
        # greedy counts only the universe's bits, so 0b10110 comes first
        assert covers._min_set_cover(0b0111, [0b1001, 0b10110]) == (2, (0b10110, 0b1001))
        assert covers._min_set_cover(0b0110, [0b1001, 0b1110]) == (1, (0b1110,))
        assert covers._min_set_cover(0b0110, [0b11000, 0b1000]) is None

    def test_limit(self):
        cands = [0b0011, 0b1100, 0b0110]
        assert covers._min_set_cover(0b1111, cands, limit=1) is None
        assert covers._min_set_cover(0b1111, cands, limit=2) == (2, (0b0011, 0b1100))

    def test_duplicate_candidates_earlier_one_wins(self):
        # Greedy takes C first and needs three members, so the optimum
        # {A, B} comes from the search: element 5 has one holder (B), then
        # element 0 has the holders A and its duplicate, tried in order.
        c = Tagged(0b011110, "C")
        a = Tagged(0b000111, "A")
        b = Tagged(0b111000, "B")
        dup = Tagged(0b000111, "A2")
        for found in (
            covers._min_set_cover(0b111111, [c, a, b, dup]),
            listcomp_min_set_cover(0b111111, [c, a, b, dup]),
        ):
            assert found == (2, (b, a))
            assert [m.tag for m in found[1]] == ["B", "A"]


class Reads(list):
    """A list that records which indices were read."""

    def __init__(self, items):
        super().__init__(items)
        self.read = []

    def __getitem__(self, i):
        self.read.append(i)
        return super().__getitem__(i)


class TestFewestOptions:
    def test_ties_go_to_the_first_item(self):
        holders = [0b0011, 0b0110, 0b1100]
        assert covers._fewest_options(0b111, holders, 0) == 0b0011
        assert covers._fewest_options(0b110, holders, 0) == 0b0110

    def test_banned_holders_are_excluded(self):
        holders = [0b00111, 0b11100]
        assert covers._fewest_options(0b11, holders, 0b00001) == 0b00110
        assert covers._fewest_options(0b11, holders, 0b10000) == 0b01100

    def test_stops_at_one_option(self):
        # a full scan would pick item 2, which has none
        holders = Reads([0b11, 0b100, 0, 0b111])
        assert covers._fewest_options(0b1111, holders, 0) == 0b100
        assert holders.read == [0, 1]
        holders = Reads([0b11, 0b110, 0b1100])
        assert covers._fewest_options(0b111, holders, 0b10) == 0b1
        assert holders.read == [0]

    def test_no_items(self):
        assert covers._fewest_options(0, [0b1], 0) == 0
        assert covers._fewest_options(0, [], 0) == 0


class TestEnumerationArguments:
    """size_cap and enum_bound go through the constructors' integer check."""

    CALLERS = [
        cover_enumeration_stats,
        irredundant_cover_sizes,
        enumerate_irredundant_covers,
    ]

    @pytest.mark.parametrize("caller", CALLERS)
    @pytest.mark.parametrize("bound", ["32", 32.0, None])
    def test_non_integer_bound(self, caller, bound):
        with pytest.raises(InvalidParameters, match="enumeration bound"):
            caller(symmetric(3), enum_bound=bound)

    @pytest.mark.parametrize(
        "caller", [cover_enumeration_stats, enumerate_irredundant_covers]
    )
    @pytest.mark.parametrize("cap", ["3", 2.5])
    def test_non_integer_cap(self, caller, cap):
        with pytest.raises(InvalidParameters, match="size cap"):
            caller(symmetric(3), cap)

    def test_integer_like_arguments_still_count(self):
        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        g = symmetric(3)  # one irredundant cover: the three C2 and the C3
        assert cover_enumeration_stats(g, Index(4)) == cover_enumeration_stats(g, 4)
        assert len(enumerate_irredundant_covers(g, Index(4), enum_bound=Index(6))) == 1
        assert irredundant_cover_sizes(g, enum_bound=Index(6)) == (4,)
