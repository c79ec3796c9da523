import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from groupcovers import (
    InvalidParameters,
    NotNormal,
    NotSubgroup,
    OrderBoundExceeded,
    PrimeDoesNotDivideOrder,
    all_subgroups,
    alternating,
    check_p_nilpotence,
    chief_series,
    classify,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    frattini_subgroup,
    from_permutation_generators,
    generalized_quaternion,
    has_normal_p_complement,
    is_nilpotent,
    is_solvable,
    is_supersolvable,
    lambda_,
    maximal_subgroups,
    minimal_normal_subgroups,
    normal_subgroups,
    quotient,
    semidirect_cp_cn,
    symmetric,
    sylow_subgroup,
)
from groupcovers import lattice
from groupcovers.arith import is_prime
from groupcovers.groups import mask_of
from groupcovers.lattice import generated_mask, normal_core

import _oracles
from _oracles import (
    bits,
    brute_maximal_cyclic_masks,
    brute_subgroup_masks,
    class_rep_lattice,
    commutator_derived_mask,
    conjugation_class,
    conjugation_is_normal,
    containment_maximal_masks,
    cyclic_join_subgroup_masks,
    derived_series_solvable,
    pairwise_generated_mask,
    pairwise_subgroup_masks,
    prime_index_supersolvable,
    sylow_count_nilpotent,
)


def elementary_abelian(k):
    g = cyclic(2)
    for _ in range(k - 2):
        g = direct_product(g, cyclic(2))
    return direct_product(g, cyclic(2), name=f"E{2 ** k}")


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic(12),
        lambda: symmetric(3),
        lambda: dihedral(4),
        lambda: generalized_quaternion(3),
        lambda: alternating(4),
        pytest.param(lambda: elementary_abelian(3), id="elementary_abelian_8"),
        lambda: direct_product(cyclic(4), cyclic(2)),
        lambda: semidirect_cp_cn(3, 4, 2),
        lambda: dihedral(8),
        lambda: direct_product(cyclic(4), cyclic(4)),
    ],
)
def test_all_subgroups_match_subset_bruteforce(make):
    g = make()
    expected = brute_subgroup_masks(g.cayley)
    got = {s.members for s in all_subgroups(g)}
    assert got == expected


def test_all_subgroups_match_pairwise_oracle_on_corpus(corpus):
    checked = 0
    for g in corpus.values():
        if g.order > 64:
            continue
        got = {s.members for s in all_subgroups(g)}
        assert got == pairwise_subgroup_masks(g.cayley), g.name
        checked += 1
    assert checked == 95


# Sparse seeds of a few elements reach proper subgroups; dense random
# masks almost always generate the whole group.
SEED_GROUPS = {
    "S4": symmetric(4),
    "D8xD8": direct_product(dihedral(4), dihedral(4)),
    "A5": alternating(5),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_mask_matches_pairwise_oracle(data):
    g = SEED_GROUPS[data.draw(st.sampled_from(sorted(SEED_GROUPS)))]
    elements = st.integers(min_value=0, max_value=g.order - 1)
    seed = data.draw(
        st.one_of(
            st.lists(elements, max_size=4).map(mask_of),
            st.integers(min_value=0, max_value=g.full_mask),
        )
    )
    assert generated_mask(g, seed) == pairwise_generated_mask(g.cayley, seed)


def test_subgroups_sorted_canonically():
    subs = all_subgroups(symmetric(4))
    keys = [(s.order, s.members) for s in subs]
    assert keys == sorted(keys)
    assert len(subs) == 30


def test_a5_subgroup_count():
    assert len(all_subgroups(alternating(5))) == 59


def test_subgroup_membership():
    g = symmetric(3)
    c3 = next(s for s in all_subgroups(g) if s.order == 3)
    # the identity and the two 3-cycles
    members = [x for x in range(g.order) if g.element_order(x) in (1, 3)]
    assert [x for x in range(g.order) if x in c3] == members
    assert g.order not in c3


def test_normality_flags():
    s3 = symmetric(3)
    by_order = {}
    for s in all_subgroups(s3):
        by_order.setdefault(s.order, []).append(s)
    assert all(s.is_normal for s in by_order[1] + by_order[3] + by_order[6])
    assert not any(s.is_normal for s in by_order[2])


def test_normal_subgroups_of_s4():
    orders = sorted(s.order for s in normal_subgroups(symmetric(4)))
    assert orders == [1, 4, 12, 24]


def test_minimal_normal_subgroups():
    a4 = alternating(4)
    mins = minimal_normal_subgroups(a4)
    assert [s.order for s in mins] == [4]
    e8 = elementary_abelian(3)
    assert [s.order for s in minimal_normal_subgroups(e8)] == [2] * 7


def test_maximal_subgroups_of_q8():
    q8 = generalized_quaternion(3)
    maxes = maximal_subgroups(q8)
    assert [s.order for s in maxes] == [4, 4, 4]
    assert all(s.is_normal for s in maxes)


def test_maximal_subgroups_scan_once_per_group():
    g = symmetric(4)
    misses = maximal_subgroups.cache_info().misses
    first = maximal_subgroups(g)
    assert maximal_subgroups(g) is first
    assert frattini_subgroup(g) == 1
    assert maximal_subgroups.cache_info().misses == misses + 1


def test_cyclic_subgroups_cover_elements(corpus):
    g = dihedral(6)
    union = 0
    for c in cyclic_subgroups(g):
        union |= c.subgroup.members
    assert union == g.full_mask
    # maximal_cyclic_family and the cover walk take this order as given
    for h in [g, *corpus.values()]:
        keys = [c.subgroup.key() for c in cyclic_subgroups(h)]
        assert keys == sorted(set(keys)), h.name

    def span(x):
        mask, y = 1, x
        while y != 0:
            mask |= 1 << y
            y = g.mul(y, x)
        return mask

    for c in cyclic_subgroups(g):
        # recorded generator is the least element generating that subgroup
        assert c.generator == min(
            x for x in range(g.order) if span(x) == c.subgroup.members
        )


def test_maximal_cyclic_flags():
    g = dihedral(4)
    flags = [(c.subgroup.order, c.is_maximal) for c in cyclic_subgroups(g)]
    # the rotation C4 and the four reflection C2s are maximal cyclic;
    # the trivial subgroup, and the C2 inside C4, are not
    assert sum(1 for _, m in flags if m) == 5


def test_generated_mask():
    g = symmetric(4)
    assert generated_mask(g, 1) == 1
    full = generated_mask(g, g.full_mask)
    assert full == g.full_mask


def test_normal_core():
    s4 = symmetric(4)
    for s in all_subgroups(s4):
        core = normal_core(s4, s.members)
        assert core & ~s.members == 0
        if s.is_normal:
            assert core == s.members


def test_frattini():
    q8 = generalized_quaternion(3)
    assert frattini_subgroup(q8) == q8.center
    assert frattini_subgroup(elementary_abelian(3)) == 1
    assert frattini_subgroup(cyclic(4)).bit_count() == 2


def test_derived_subgroup():
    s4 = symmetric(4)
    d1 = commutator_derived_mask(s4.cayley, s4.full_mask)
    assert bin(d1).count("1") == 12
    d2 = commutator_derived_mask(s4.cayley, d1)
    assert bin(d2).count("1") == 4


def test_sylow():
    s4 = symmetric(4)
    assert sylow_subgroup(s4, 2).order == 8
    assert sylow_subgroup(s4, 3).order == 3
    with pytest.raises(InvalidParameters):
        sylow_subgroup(s4, 4)
    with pytest.raises(PrimeDoesNotDivideOrder):
        sylow_subgroup(s4, 5)


def test_huge_prime_fails_fast():
    # trial division of 2^61 - 1 ran past 8 s; no p above |G| divides |G|
    s3 = symmetric(3)
    for call in (sylow_subgroup, has_normal_p_complement, check_p_nilpotence):
        start = time.perf_counter()
        with pytest.raises(PrimeDoesNotDivideOrder):
            call(s3, 2**61 - 1)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p", ["2", None, 2.0])
def test_prime_must_be_an_integer(p):
    for group, call in ((symmetric(4), sylow_subgroup),
                        (symmetric(4), has_normal_p_complement),
                        (alternating(4), check_p_nilpotence)):
        with pytest.raises(InvalidParameters, match="must be an integer"):
            call(group, p)


def test_integer_like_prime_is_reported_as_an_int():
    class Two:
        def __index__(self):
            return 2

    res = check_p_nilpotence(alternating(4), Two())
    assert type(res.prime) is int and res.prime == 2
    assert sylow_subgroup(symmetric(4), Two()).order == 8


@pytest.mark.parametrize(
    "make,solvable,nilpotent,supersolvable",
    [
        (lambda: cyclic(12), True, True, True),
        (lambda: symmetric(3), True, False, True),
        (lambda: dihedral(6), True, False, True),
        (lambda: generalized_quaternion(3), True, True, True),
        (lambda: alternating(4), True, False, False),
        (lambda: symmetric(4), True, False, False),
        (lambda: alternating(5), False, False, False),
        (lambda: semidirect_cp_cn(5, 4, 2), True, False, True),
    ],
)
def test_structure_flags(make, solvable, nilpotent, supersolvable):
    g = make()
    assert is_solvable(g) is solvable
    assert is_nilpotent(g) is nilpotent
    assert is_supersolvable(g) is supersolvable


def library_predicates(g):
    return (is_solvable(g), is_nilpotent(g), is_supersolvable(g))


def oracle_predicates(g):
    # Maximal subgroups come from the library lattice, which the tests
    # above check against pairwise closure; closing order-210 lattices
    # pairwise takes seconds each.
    masks = [s.members for s in all_subgroups(g)]
    return (
        derived_series_solvable(g.cayley),
        sylow_count_nilpotent(g.cayley),
        prime_index_supersolvable(g.order, masks),
    )


def test_predicates_match_oracles_on_corpus(corpus):
    mismatched = [
        name
        for name, g in corpus.items()
        if library_predicates(g) != oracle_predicates(g)
    ]
    assert not mismatched


# every valid <x, a | x^p, a^n, a^-1 x a = x^l> of order at most 100
CPCN_PARAMS = [
    (p, n, l)
    for p in (2, 3, 5, 7, 11, 13)
    for n in range(1, 100 // p + 1)
    for l in range(1, p)
    if pow(l, n, p) == 1
]

FACTORS = [
    cyclic(2), cyclic(3), cyclic(4), symmetric(3), dihedral(4),
    generalized_quaternion(3), alternating(4), dihedral(5),
    semidirect_cp_cn(7, 3, 2), alternating(5),
]


@st.composite
def predicate_groups(draw):
    if draw(st.booleans()):
        return semidirect_cp_cn(*draw(st.sampled_from(CPCN_PARAMS)))
    a = draw(st.sampled_from(FACTORS))
    b = draw(st.sampled_from([f for f in FACTORS if a.order * f.order <= 120]))
    return direct_product(a, b)


@given(predicate_groups())
@settings(deadline=None, max_examples=60)
def test_predicates_match_oracles_on_drawn_groups(g):
    assert library_predicates(g) == oracle_predicates(g)


def lattice_disagreements(g):
    """Where the library lattice differs from the old cyclic-join closure,
    from normality by conjugation, or from a containment scan for maximality."""
    t = g.cayley
    masks = cyclic_join_subgroup_masks(t)
    subs = all_subgroups(g)
    wrong = []
    if {s.members for s in subs} != masks:
        wrong.append("masks")
    if any(s.is_normal != conjugation_is_normal(t, s.members) for s in subs):
        wrong.append("normal")
    if {s.members for s in maximal_subgroups(g)} != containment_maximal_masks(masks):
        wrong.append("maximal")
    return wrong


def test_lattice_matches_cyclic_join_oracle_on_corpus(corpus):
    wrong = {name: w for name, g in corpus.items() if (w := lattice_disagreements(g))}
    assert not wrong
    assert max(g.order for g in corpus.values()) == 210


@st.composite
def lattice_groups(draw):
    kind = draw(st.sampled_from(["cpcn", "product", "perm"]))
    if kind == "cpcn":
        return semidirect_cp_cn(*draw(st.sampled_from(CPCN_PARAMS)))
    if kind == "product":
        a = draw(st.sampled_from(FACTORS))
        return direct_product(a, draw(st.sampled_from(
            [f for f in FACTORS if a.order * f.order <= 120]
        )))
    degree = draw(st.integers(min_value=2, max_value=6))
    perms = st.permutations(range(degree))
    try:
        g = from_permutation_generators(degree, [draw(perms), draw(perms)])
    except OrderBoundExceeded:  # S6 has order 720
        g = None
    assume(g is not None and g.order <= 128)
    return g


@given(lattice_groups())
@settings(deadline=None, max_examples=60)
def test_lattice_matches_cyclic_join_oracle_on_drawn_groups(g):
    assert not lattice_disagreements(g)


def test_lattice_matches_class_rep_oracle_on_corpus(corpus):
    wrong = [name for name, g in corpus.items()
             if lattice._lattice(g) != class_rep_lattice(g.cayley)]
    assert not wrong


@given(lattice_groups())
@settings(deadline=None, max_examples=60)
def test_lattice_matches_class_rep_oracle_on_drawn_groups(g):
    assert lattice._lattice(g) == class_rep_lattice(g.cayley)


def cyclic_flag_disagreements(g):
    """Where cyclic_subgroups' flags differ from the power-closure scan
    for maximality or from conjugation for normality."""
    t = g.cayley
    subs = cyclic_subgroups(g)
    wrong = []
    maximal = {c.subgroup.members for c in subs if c.is_maximal}
    if maximal != brute_maximal_cyclic_masks(t):
        wrong.append("maximal")
    if any(c.subgroup.is_normal != conjugation_is_normal(t, c.subgroup.members)
           for c in subs):
        wrong.append("normal")
    return wrong


def test_cyclic_flags_match_oracles_on_corpus(corpus):
    wrong = {name: w for name, g in corpus.items() if (w := cyclic_flag_disagreements(g))}
    assert not wrong


@given(lattice_groups())
@settings(deadline=None, max_examples=60)
def test_cyclic_flags_match_oracles_on_drawn_groups(g):
    assert not cyclic_flag_disagreements(g)


@st.composite
def double_coset_triples(draw):
    """(group, generators of a subgroup S, x): S may be trivial and x may lie in S."""
    g = draw(lattice_groups())
    elements = st.integers(min_value=0, max_value=g.order - 1)
    gens = tuple(draw(st.lists(elements, max_size=2)))
    inside = bits(generated_mask(g, mask_of(gens)))
    x = draw(st.sampled_from(inside) if draw(st.booleans()) else elements)
    return g, gens, x


@given(double_coset_triples())
@example((dihedral(4), (), 3))  # trivial S: S*x*S = {x}
@example((dihedral(4), (1,), 3))  # x in S = <1> of order 4: S*x*S = S
@settings(deadline=None, max_examples=80)
def test_double_coset_matches_bruteforce(triple):
    g, gens, x = triple
    members = bits(generated_mask(g, mask_of(gens)))
    t = g.cayley
    expected = mask_of(t[t[a][x]][b] for a in members for b in members)
    assert lattice._coset_closure(t, members, 0, x, gens, g.order) == expected


@pytest.mark.parametrize(
    "make",
    [
        lambda: direct_product(symmetric(4), symmetric(3)),
        lambda: direct_product(alternating(5), cyclic(4)),
        lambda: direct_product(direct_product(dihedral(4), dihedral(4)), cyclic(2)),
        lambda: elementary_abelian(6),
        lambda: alternating(6),
        lambda: direct_product(symmetric(5), cyclic(2)),
        lambda: cyclic(1),
        lambda: cyclic(2),
        lambda: cyclic(4),
        lambda: cyclic(9),
        lambda: direct_product(cyclic(7), cyclic(7)),
        lambda: generalized_quaternion(3),
        lambda: alternating(5),
    ],
    ids=["S4xS3", "A5xC4", "D8xD8xC2", "E64", "A6", "S5xC2",
         "C1", "C2", "C4", "C9", "C7xC7", "Q8", "A5"],
)
def test_lattice_matches_class_rep_oracle(make):
    """Same masks in the same order, same normal and maximal sets.  The
    cyclic layer is seeded from the class map: C1 and C2 seed nothing, so
    {1} is maximal in C2 and nothing is in C1, and a cyclic G is not
    seeded."""
    g = make()
    assert lattice._lattice(g) == class_rep_lattice(g.cayley)


# Joins made from the seeded cyclic layer (from the trivial subgroup, in
# the same order: 37, 57, 1,382, 26, 141, 200 and 33; before double-coset
# marking: 54, 98, 1,812, 33, 297, 376 and 33).
MOST_JOINS = {
    "S4": 24, "A5": 26, "D8 x D8": 1347, "C7:C6[3]": 11, "S5": 100,
    "A5 x C2": 153, "C7 x C7 x C2": 24,
}


@pytest.mark.parametrize(
    "make",
    [
        lambda: symmetric(4),
        lambda: alternating(5),
        lambda: direct_product(dihedral(4), dihedral(4)),
        lambda: semidirect_cp_cn(7, 6, 3),
        lambda: symmetric(5),
        lambda: direct_product(alternating(5), cyclic(2)),
        lambda: direct_product(direct_product(cyclic(7), cyclic(7)), cyclic(2)),
    ],
)
def test_closure_joins_one_class_representative_by_prime_steps(make, monkeypatch):
    """Every join <S, c> has c meeting S in prime index, the subgroups S
    joined are pairwise non-conjugate and of composite index, each coset
    S*c is joined once, no c lies in an earlier join of prime index over
    the same S nor in S*c'*S for an earlier join <S, c'> that is G or of
    composite index, and there are fewer joins than without these rules.
    The cyclic layer is seeded: no join starts from the trivial subgroup
    and no cyclic subgroup's class is an orbit walk."""
    g = make()
    joins, orbits = [], []

    def recording_closure(table, members, mask, x, gens, cap):
        out = closure(table, members, mask, x, gens, cap)
        if mask & 1:  # a join <S, x>; a double coset S*x*S starts from 0
            joins.append((mask, x, out))
        return out

    def recording_conjugates(group, mask):
        orbits.append(mask)
        return conjugates(group, mask)

    closure, conjugates = lattice._coset_closure, type(g).conjugates
    cyclic = {c.generator: c.subgroup.members for c in cyclic_subgroups(g)}
    monkeypatch.setattr(lattice, "_coset_closure", recording_closure)
    monkeypatch.setattr(type(g), "conjugates", recording_conjugates)
    lattice._lattice(g)
    assert joins and orbits
    assert all(s != 1 for s, _, _ in joins)
    assert not set(orbits) & set(cyclic.values())
    for s, c, _ in joins:
        index = cyclic[c].bit_count() // (cyclic[c] & s).bit_count()
        assert is_prime(index), (s, c)
        assert not is_prime(g.order // s.bit_count()), s
    reps = {s for s, _, _ in joins}
    classes = {s: conjugation_class(g.cayley, s) for s in reps}
    assert all(r == s or r not in classes[s] for r in reps for s in reps)
    cosets = [(s, mask_of(g.mul(m, c) for m in range(g.order) if s >> m & 1))
              for s, c, _ in joins]
    assert len(set(cosets)) == len(cosets)
    covered = dict.fromkeys(reps, 0)  # elements whose join from S is known
    for s, c, j in joins:
        assert not covered[s] >> c & 1, (s, c)
        if j != g.full_mask and is_prime(j.bit_count() // s.bit_count()):
            covered[s] |= j
        else:
            members = bits(s)
            covered[s] |= mask_of(g.mul(g.mul(a, c), b) for a in members for b in members)
    assert len(joins) <= MOST_JOINS[g.name]

    oracle_joins = []

    def counted_join(*args):
        oracle_joins.append(args)
        return oracle_join(*args)

    oracle_join = _oracles._coset_join
    monkeypatch.setattr(_oracles, "_coset_join", counted_join)
    class_rep_lattice(g.cayley)
    assert len(joins) < len(oracle_joins)


def test_lambda_and_cyclic_subgroups_build_no_lattice():
    g = direct_product(symmetric(3), cyclic(3))
    misses = lattice._lattice.cache_info().misses
    assert lambda_(g) == 6  # three C6 and three C3 outside them
    cyclic_subgroups(g)
    assert lattice._lattice.cache_info().misses == misses


def test_classify_builds_no_lattice():
    g = direct_product(dihedral(5), cyclic(3))
    misses = lattice._lattice.cache_info().misses
    out = classify(g)
    assert out.one_sized and (out.witness_h.order, out.witness_c.order) == (10, 3)
    assert lattice._lattice.cache_info().misses == misses


def test_classify_reads_e128_quickly_without_a_lattice():
    # 29,212 subgroups: the pair loop over its normal ones took 22 s
    g = cyclic(2)
    for _ in range(6):
        g = direct_product(g, cyclic(2))
    misses = lattice._lattice.cache_info().misses
    start = time.perf_counter()
    out = classify(g)
    assert time.perf_counter() - start < 1.0
    assert g.order == 128 and not out.one_sized
    assert lattice._lattice.cache_info().misses == misses


def test_maximal_subgroups_read_the_lattice_through_all_subgroups(monkeypatch):
    """So time spent closing the lattice is charged to all_subgroups."""
    g = symmetric(4)
    calls = []
    real = lattice.all_subgroups

    def counted(group):
        calls.append(lattice._lattice.cache_info().misses)
        return real(group)

    monkeypatch.setattr(lattice, "all_subgroups", counted)
    misses = lattice._lattice.cache_info().misses
    assert len(lattice.maximal_subgroups(g)) == 8
    assert calls == [misses]


class TestChiefSeries:
    def test_orders_multiply_to_group_order(self):
        for make in (symmetric(4), dihedral(12), semidirect_cp_cn(7, 6, 3)):
            total = 1
            for f in chief_series(make):
                total *= f.factor_order
            assert total == make.order

    def test_c4(self):
        factors = [(f.factor_order, f.complement_count) for f in chief_series(cyclic(4))]
        assert factors == [(2, 0), (2, 0)]

    def test_s3(self):
        factors = [(f.factor_order, f.complement_count) for f in chief_series(symmetric(3))]
        assert factors == [(3, 3), (2, 0)]

    def test_q8(self):
        factors = [(f.factor_order, f.complement_count) for f in chief_series(generalized_quaternion(3))]
        assert factors == [(2, 0), (2, 2), (2, 0)]

    def test_a4_central_flags(self):
        series = chief_series(alternating(4))
        assert [f.factor_order for f in series] == [4, 3]
        assert not series[0].is_central
        assert series[0].prime == 2
        assert series[0].complement_count == 4

    def test_elementary_abelian(self):
        series = chief_series(elementary_abelian(3))
        assert [(f.factor_order, f.complement_count) for f in series] == [
            (2, 4),
            (2, 2),
            (2, 0),
        ]
        assert all(f.is_central for f in series)

    def test_chain_is_normal_and_increasing(self):
        g = dihedral(12)
        prev = 1
        for f in chief_series(g):
            assert f.lower == prev
            assert f.upper & ~g.full_mask == 0
            assert prev & ~f.upper == 0
            prev = f.upper
        assert prev == g.full_mask


class TestNormalPComplement:
    def test_s3(self):
        s3 = symmetric(3)
        assert has_normal_p_complement(s3, 2)  # C3 is normal
        assert not has_normal_p_complement(s3, 3)

    def test_a4(self):
        a4 = alternating(4)
        assert not has_normal_p_complement(a4, 2)
        assert has_normal_p_complement(a4, 3)

    def test_nilpotent_has_all(self):
        q8xc3 = direct_product(generalized_quaternion(3), cyclic(3))
        assert has_normal_p_complement(q8xc3, 2)
        assert has_normal_p_complement(q8xc3, 3)

    def test_errors(self):
        with pytest.raises(InvalidParameters):
            has_normal_p_complement(symmetric(3), 6)
        with pytest.raises(PrimeDoesNotDivideOrder):
            has_normal_p_complement(symmetric(3), 5)


def test_quotient_requires_normal():
    s3 = symmetric(3)
    some_c2 = next(s for s in all_subgroups(s3) if s.order == 2)
    with pytest.raises(NotNormal):
        quotient(s3, some_c2.members)
    with pytest.raises(NotSubgroup):
        quotient(s3, 0b110)
