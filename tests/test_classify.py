import collections
import importlib
import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from groupcovers import (
    CHECK_IDS,
    ClassificationOutcome,
    FamilyTag,
    GroupIsCyclic,
    InvalidParameters,
    NotSolvable,
    OrderBoundExceeded,
    PNilpotenceCheck,
    PreconditionViolation,
    PrimeDoesNotDivideOrder,
    all_subgroups,
    alternating,
    check_abelian_sigma_cover,
    check_p_nilpotence,
    check_quotient_invariants,
    chief_series,
    classify,
    cyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    generalized_quaternion,
    is_solvable,
    normal_subgroups,
    prime_divisors,
    run_check,
    semidirect_cp_cn,
    symmetric,
    verify_classification,
)
from groupcovers.classify import _recognize_family
from groupcovers.covers import _cover_universe
from groupcovers.groups import Group, is_cyclic_mask, iter_bits
from groupcovers.lattice import maximal_masks

from _oracles import (
    CHECK_STATUS_ORACLES,
    conjugation_is_normal_within,
    centralizer_table_abelian_masks,
    if_chain_status,
    pair_loop_classify,
    pairwise_is_abelian,
    pairwise_maximal_abelian_masks,
    quotient_group_invariants,
    ranked_status,
)

# the package's classify is the function; the module is shadowed by it
classify_module = importlib.import_module("groupcovers.classify")


def v4():
    return direct_product(cyclic(2), cyclic(2), name="V4")


def e8():
    return direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2), name="E8")


def e9():
    return direct_product(cyclic(3), cyclic(3), name="E9")


class TestPositives:
    @pytest.mark.parametrize(
        "make,kind,p,n",
        [
            (v4, "CpTimesCp", 2, None),
            (e9, "CpTimesCp", 3, None),
            (lambda: direct_product(cyclic(5), cyclic(5)), "CpTimesCp", 5, None),
            (lambda: direct_product(cyclic(7), cyclic(7)), "CpTimesCp", 7, None),
            (lambda: generalized_quaternion(3), "Q8", None, None),
            (lambda: symmetric(3), "CpRtimesCn", 3, 2),
            (lambda: semidirect_cp_cn(3, 4, 2), "CpRtimesCn", 3, 4),
            (lambda: semidirect_cp_cn(5, 4, 2), "CpRtimesCn", 5, 4),
            (lambda: semidirect_cp_cn(7, 6, 3), "CpRtimesCn", 7, 6),
            (lambda: semidirect_cp_cn(13, 4, 5), "CpRtimesCn", 13, 4),
            (lambda: dihedral(5), "CpRtimesCn", 5, 2),
        ],
    )
    def test_bare_families(self, make, kind, p, n):
        out = classify(make())
        assert out.one_sized
        assert out.family == FamilyTag(kind, p=p, n=n)
        assert out.witness_c is not None and out.witness_c.order == 1

    @pytest.mark.parametrize(
        "make,kind,c_order",
        [
            (lambda: direct_product(v4(), cyclic(3)), "CpTimesCp", 3),
            (lambda: direct_product(e9(), cyclic(2)), "CpTimesCp", 2),
            (lambda: direct_product(generalized_quaternion(3), cyclic(3)), "Q8", 3),
            (lambda: direct_product(generalized_quaternion(3), cyclic(5)), "Q8", 5),
            (lambda: direct_product(symmetric(3), cyclic(5)), "CpRtimesCn", 5),
            (lambda: direct_product(semidirect_cp_cn(5, 4, 2), cyclic(3)), "CpRtimesCn", 3),
        ],
    )
    def test_coprime_cyclic_factor(self, make, kind, c_order):
        out = classify(make())
        assert out.one_sized
        assert out.family is not None and out.family.kind == kind
        assert out.witness_c is not None and out.witness_c.order == c_order
        assert out.witness_h is not None
        assert out.witness_h.order * c_order == make().order

    def test_witnesses_decompose_the_group(self):
        g = direct_product(symmetric(3), cyclic(5))
        out = classify(g)
        assert out.witness_h.members & out.witness_c.members == 1
        assert out.witness_h.is_normal and out.witness_c.is_normal


class TestNegatives:
    @pytest.mark.parametrize(
        "make",
        [
            e8,
            lambda: dihedral(4),
            lambda: generalized_quaternion(4),
            lambda: generalized_quaternion(5),
            lambda: direct_product(cyclic(4), cyclic(2)),
            lambda: dihedral(15),
            lambda: direct_product(symmetric(3), cyclic(6)),
            lambda: direct_product(semidirect_cp_cn(3, 4, 2), cyclic(3)),
            lambda: direct_product(semidirect_cp_cn(5, 4, 2), cyclic(2)),
            lambda: direct_product(generalized_quaternion(3), cyclic(4)),
            lambda: alternating(4),
            lambda: symmetric(4),
        ],
    )
    def test_not_one_sized(self, make):
        out = classify(make())
        assert not out.one_sized
        assert out.family is None
        assert out.witness_h is None and out.witness_c is None

    def test_cyclic_rejected(self):
        with pytest.raises(GroupIsCyclic):
            classify(cyclic(5))


class TestAgreement:
    @pytest.mark.parametrize(
        "make",
        [v4, e8, e9, lambda: symmetric(3), lambda: dihedral(4),
         lambda: generalized_quaternion(3), lambda: alternating(4),
         lambda: semidirect_cp_cn(5, 4, 2),
         lambda: direct_product(generalized_quaternion(3), cyclic(4))],
    )
    def test_structural_matches_bruteforce(self, make):
        res = verify_classification(make())
        assert res.agreement

    def test_fields(self):
        res = verify_classification(dihedral(4))
        assert not res.structural.one_sized
        assert not res.bruteforce
        assert res.sigma_value == 3
        assert res.lambda_value == 5


class TestPNilpotence:
    def test_vacuous(self):
        res = check_p_nilpotence(symmetric(3), 3)
        assert not res.hypothesis_holds
        assert not res.conclusion_holds
        assert res.status == "vacuous"

    def test_consistent_abelian(self):
        res = check_p_nilpotence(cyclic(12), 2)
        assert res.hypothesis_holds and res.conclusion_holds
        assert res.status == "consistent"

    def test_consistent_p_group(self):
        # chief factors of a nilpotent group are all central, and the
        # p-complement is the trivial subgroup
        res = check_p_nilpotence(dihedral(4), 2)
        assert res.status == "consistent"

    def test_s3_at_two(self):
        res = check_p_nilpotence(symmetric(3), 2)
        assert res.conclusion_holds  # the C3 is a normal 2-complement
        assert res.status in ("consistent", "vacuous")

    def test_a4(self):
        assert check_p_nilpotence(alternating(4), 2).status == "vacuous"
        assert check_p_nilpotence(alternating(4), 3).status == "consistent"

    def test_never_violated_on_small_solvables(self):
        from groupcovers import is_solvable, prime_divisors

        for make in (symmetric(4), dihedral(10), semidirect_cp_cn(7, 6, 3),
                     direct_product(symmetric(3), cyclic(6))):
            assert is_solvable(make)
            for p in prime_divisors(make.order):
                assert check_p_nilpotence(make, p).status != "violation"

    def test_errors(self):
        with pytest.raises(NotSolvable):
            check_p_nilpotence(alternating(5), 2)
        with pytest.raises(PrimeDoesNotDivideOrder):
            check_p_nilpotence(symmetric(3), 5)
        with pytest.raises(InvalidParameters):
            check_p_nilpotence(cyclic(12), 6)

    def test_non_prime_rejected_before_chief_series(self):
        g = dihedral(4)
        misses = chief_series.cache_info().misses
        with pytest.raises(InvalidParameters):
            check_p_nilpotence(g, 4)
        assert chief_series.cache_info().misses == misses


class TestAbelianSigmaCover:
    def test_a5_has_none(self):
        res = check_abelian_sigma_cover(alternating(5))
        assert res.sigma == 10
        assert not res.abelian_cover_exists
        assert not res.solvable
        assert res.status == "vacuous"

    def test_s3(self):
        res = check_abelian_sigma_cover(symmetric(3))
        assert res.sigma == 4
        assert res.abelian_cover_exists
        assert res.status == "consistent"

    def test_all_abelian_group(self):
        res = check_abelian_sigma_cover(e9())
        assert res.sigma == 4
        assert res.status == "consistent"

    def test_s4(self):
        # sigma(S4) = 4 via three D8s and A4, but abelian members suffice too?
        res = check_abelian_sigma_cover(symmetric(4))
        assert res.status in ("consistent", "vacuous")
        assert res.solvable

    def test_cyclic_rejected(self):
        with pytest.raises(GroupIsCyclic):
            check_abelian_sigma_cover(cyclic(7))


class TestQuotientInvariants:
    def test_s3(self):
        res = check_quotient_invariants(symmetric(3))
        assert res.sigma == 4
        assert res.status == "consistent"
        assert [it.quotient_order for it in res.items] == [6]
        assert res.items[0].lambda_quotient == 4

    def test_q8(self):
        res = check_quotient_invariants(generalized_quaternion(3))
        assert res.sigma == 3
        assert res.status == "consistent"
        # the quotient by the center is V4, itself non-cyclic
        assert sorted(it.quotient_order for it in res.items) == [4, 8]
        assert all(it.sigma_quotient == 3 for it in res.items)

    def test_product_case(self):
        res = check_quotient_invariants(direct_product(symmetric(3), cyclic(5)))
        assert res.status == "consistent"
        assert all(it.sigma_quotient == res.sigma for it in res.items)

    def test_rejects_multi_sized_group(self):
        with pytest.raises(PreconditionViolation):
            check_quotient_invariants(dihedral(4))

    def test_trivial_normal_subgroup_reads_the_group_itself(self, monkeypatch):
        g = direct_product(symmetric(3), cyclic(5))
        built = []
        real = Group.__init__

        def recording_init(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        # no quotient is built, G/1 included: every G/N is read off G
        monkeypatch.setattr(Group, "__init__", recording_init)
        res = check_quotient_invariants(g)
        assert built == []
        first = res.items[0]
        assert (first.normal_order, first.quotient_order) == (1, 30)
        assert (first.sigma_quotient, first.lambda_quotient) == (4, 4)

    @pytest.mark.parametrize("name, n", [("C7xC7xC2", 2), ("F42xC5", 5)])
    def test_quotient_above_every_maximal_reuses_sigma(self, corpus, monkeypatch, name, n):
        """With every maximal subgroup above N, sigma(G/N) is sigma(G)'s
        own set cover; only the other quotient runs one."""
        g = corpus[name]
        calls = []
        real = classify_module._min_set_cover

        def counted(universe, candidates, limit=None):
            calls.append(len(candidates))
            return real(universe, candidates, limit)

        monkeypatch.setattr(classify_module, "_min_set_cover", counted)
        res = check_quotient_invariants(g)
        assert [(it.normal_order, it.sigma_quotient, it.lambda_quotient)
                for it in res.items] == [(1, 8, 8), (n, 8, 8)]
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# "H has a normal subgroup of order p" as "H has one subgroup of order p"

SYLOW_CORPUS_ORDER = 128


def split_tag_by_conjugation(g, h, inside):
    """The CpRtimesCn step of _recognize_family, deciding normality in H
    by conjugating with every element of H."""
    for p in prime_divisors(h.order):
        n = h.order // p
        if n < 2 or n % p == 0:
            continue
        if not any(
            s.order == p and conjugation_is_normal_within(g.cayley, h.members, s.members)
            for s in inside
        ):
            continue
        if any(s.order == n and is_cyclic_mask(g, s.members) for s in inside):
            return FamilyTag("CpRtimesCn", p=p, n=n)
    return None


def test_unique_sylow_matches_conjugation_within_h(corpus):
    # p does not divide n = |H|/p, so the subgroups of order p are H's
    # Sylow p-subgroups: one is normal in H exactly when it is the only one
    cases = recognized = 0
    for _, g in sorted(corpus.items()):
        if g.order > SYLOW_CORPUS_ORDER:
            continue
        subgroups = all_subgroups(g)
        for h in normal_subgroups(g):
            inside = [s for s in subgroups if s.members & ~h.members == 0]
            for p in prime_divisors(h.order):
                n = h.order // p
                if n < 2 or n % p == 0:
                    continue
                order_p = [s.members for s in inside if s.order == p]
                normal = any(
                    conjugation_is_normal_within(g.cayley, h.members, m) for m in order_p
                )
                assert (len(order_p) == 1) == normal, (g.name, h.members, p)
                # what _recognize_family reads in place of the subgroups
                elements_p = sum(g.element_orders[x] == p for x in iter_bits(h.members))
                assert elements_p == (p - 1) * len(order_p), (g.name, h.members, p)
                cases += 1
            tag = _recognize_family(g, h)
            if pairwise_is_abelian(g.cayley, h.members) or tag == FamilyTag("Q8"):
                continue
            assert tag == split_tag_by_conjugation(g, h, inside), (g.name, h.members)
            recognized += tag is not None
    assert (cases, recognized) == (337, 54)


# ---------------------------------------------------------------------------
# classify from element orders against the pair loop over the lattice


def pair_loop_outcome(g):
    subgroups = all_subgroups(g)
    found = pair_loop_classify(
        g.cayley,
        [s.members for s in subgroups],
        [s.members for s in subgroups if s.is_normal],
    )
    if found is None:
        return ClassificationOutcome(False, None, None, None)
    kind, p, n, h, c = found
    by_mask = {s.members: s for s in subgroups}
    return ClassificationOutcome(True, FamilyTag(kind, p=p, n=n), by_mask[h], by_mask[c])


def test_classify_matches_pair_loop_oracle_on_corpus(corpus):
    outcomes = {n: classify(g) for n, g in corpus.items() if not g.is_cyclic}
    assert not [n for n, o in outcomes.items() if o != pair_loop_outcome(corpus[n])]
    assert len(outcomes) == 74
    assert sum(o.one_sized for o in outcomes.values()) == 34
    assert sum(o.one_sized and o.witness_c.order > 1 for o in outcomes.values()) == 16


CPCN_PARAMS = [
    (p, n, l)
    for p in (2, 3, 5, 7, 11, 13)
    for n in range(1, 200 // p + 1)
    for l in range(1, p)
    if pow(l, n, p) == 1
]

# coprime cyclic factors give witnesses with a nontrivial C
PRODUCT_FACTORS = [
    cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(7), v4(), e9(),
    symmetric(3), dihedral(4), generalized_quaternion(3), alternating(4),
    dihedral(5), semidirect_cp_cn(7, 3, 2), semidirect_cp_cn(5, 4, 2),
]


@st.composite
def classify_groups(draw, max_order=200):
    kind = draw(st.sampled_from(["cpcn", "product", "perm"]))
    if kind == "cpcn":
        g = semidirect_cp_cn(*draw(st.sampled_from(
            [(p, n, l) for p, n, l in CPCN_PARAMS if p * n <= max_order]
        )))
    elif kind == "product":
        a = draw(st.sampled_from(PRODUCT_FACTORS))
        g = direct_product(a, draw(st.sampled_from(
            [f for f in PRODUCT_FACTORS if a.order * f.order <= max_order]
        )))
    else:
        degree = draw(st.integers(min_value=2, max_value=6))
        perms = st.permutations(range(degree))
        try:
            g = from_permutation_generators(degree, [draw(perms), draw(perms)])
        except OrderBoundExceeded:  # S6 has order 720
            g = None
        assume(g is not None and g.order <= 128)
    assume(not g.is_cyclic)
    return g


@given(classify_groups())
@settings(deadline=None, max_examples=150)
def test_classify_matches_pair_loop_oracle_on_drawn_groups(g):
    assert classify(g) == pair_loop_outcome(g)


# ---------------------------------------------------------------------------
# The cross-checks read off G's lattice against the routes that built
# quotient groups, tested commutativity pair by pair and tabled C_G(x) for
# every element


def library_quotient_items(g):
    """check_quotient_invariants' items with the one-sized precondition
    lifted, so groups whose quotients do differ are compared too."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "one_sized_bruteforce", lambda group: True)
        items = check_quotient_invariants(g).items
    return [
        (it.normal_order, it.quotient_order, it.sigma_quotient, it.lambda_quotient)
        for it in items
    ]


def library_abelian_candidates(g):
    """The candidate masks check_abelian_sigma_cover hands to set cover, or
    None for an abelian group, which must run no search and find that an
    abelian minimum cover exists."""
    seen = []
    real = classify_module._min_set_cover

    def recording(universe, candidates, limit=None):
        seen.append(list(candidates))
        return real(universe, candidates, limit)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify_module, "_min_set_cover", recording)
        check = check_abelian_sigma_cover(g)
    if pairwise_is_abelian(g.cayley, g.full_mask):
        assert seen == [] and check.abelian_cover_exists, g.name
        return None
    [candidates] = seen
    return candidates


def generator_traces(g, masks):
    """The maximal traces of masks on the maximal-cyclic generators, which
    are the candidates of a non-abelian group."""
    universe = _cover_universe(g)
    return maximal_masks(sorted({m & universe for m in masks}))


def oracle_abelian_candidates(g):
    """None for an abelian group, whose subgroups are all abelian."""
    if pairwise_is_abelian(g.cayley, g.full_mask):
        return None
    masks = [s.members for s in all_subgroups(g)]
    return generator_traces(g, pairwise_maximal_abelian_masks(g.cayley, masks))


def table_abelian_candidates(g):
    """The candidates as check_abelian_sigma_cover once chose them from a
    centralizer table of every element, and None for an abelian group."""
    if g.is_abelian:
        return None
    masks = [s.members for s in all_subgroups(g)]
    return generator_traces(g, centralizer_table_abelian_masks(g.cayley, masks))


def test_cross_checks_match_quotient_group_oracles_on_corpus(corpus):
    groups = [g for _, g in sorted(corpus.items()) if not g.is_cyclic]
    assert len(groups) == 74
    assert not [
        g.name for g in groups if library_quotient_items(g) != quotient_group_invariants(g)
    ]
    assert not [
        g.name for g in groups
        if library_abelian_candidates(g) != oracle_abelian_candidates(g)
    ]
    assert not [
        g.name for g in groups
        if library_abelian_candidates(g) != table_abelian_candidates(g)
    ]


@given(classify_groups(max_order=128))
@settings(deadline=None, max_examples=80)
def test_cross_checks_match_quotient_group_oracles_on_drawn_groups(g):
    assert library_quotient_items(g) == quotient_group_invariants(g)
    assert library_abelian_candidates(g) == oracle_abelian_candidates(g)
    assert library_abelian_candidates(g) == table_abelian_candidates(g)


# ---------------------------------------------------------------------------
# Lemma-check statuses from classify.py's one rule against the if/elif
# chains and the per-prime ranking it replaced


def test_verdict_truth_table():
    table = {
        (False, False): "vacuous",
        (False, True): "vacuous",
        (True, True): "consistent",
        (True, False): "violation",
    }
    for (hypothesis, conclusion), status in table.items():
        assert classify_module._verdict(hypothesis, conclusion) == status
        assert if_chain_status(hypothesis, conclusion) == status


def assert_statuses_match_oracles(g):
    for p in prime_divisors(g.order) if is_solvable(g) else ():
        c = check_p_nilpotence(g, p)
        assert c.status == if_chain_status(c.hypothesis_holds, c.conclusion_holds), p
    got = {cid: run_check(g, cid) for cid in CHECK_IDS}
    assert got == {cid: oracle(g) for cid, oracle in CHECK_STATUS_ORACLES.items()}
    return got


def test_check_statuses_match_oracles_on_corpus(corpus):
    groups = [g for _, g in sorted(corpus.items()) if not g.is_cyclic and g.order <= 512]
    assert len(groups) == 74
    splits = collections.Counter()
    for g in groups:
        got = assert_statuses_match_oracles(g)
        splits[got["lemma-pnilp"], got["osclemma-quotients"]] += 1
    # no corpus group violates a lemma, so the patched test below covers that
    assert splits == {
        ("consistent", "consistent"): 34,
        ("consistent", "vacuous"): 38,
        ("vacuous", "vacuous"): 2,
    }


@given(classify_groups(max_order=128))
@settings(deadline=None, max_examples=80)
def test_check_statuses_match_oracles_on_drawn_groups(g):
    assert_statuses_match_oracles(g)


def test_pnilp_status_over_patched_primes(monkeypatch):
    g = direct_product(symmetric(3), cyclic(5))  # solvable, primes 2, 3 and 5
    truths = {}

    def patched(group, p):
        return PNilpotenceCheck(p, *truths[p], if_chain_status(*truths[p]))

    # the check table reads check_p_nilpotence from the module when called
    monkeypatch.setattr(classify_module, "check_p_nilpotence", patched)
    statuses = {}
    pairs = list(itertools.product([False, True], repeat=2))  # (hypothesis, conclusion)
    for pattern in itertools.product(pairs, repeat=3):
        truths.update(zip((2, 3, 5), pattern))
        statuses[pattern] = run_check(g, "lemma-pnilp")
        assert statuses[pattern] == ranked_status({if_chain_status(*t) for t in pattern})
    # a violation at one prime outranks consistent and vacuous ones
    assert statuses[(True, False), (True, True), (True, True)] == "violation"
    assert statuses[(True, True), (False, True), (True, False)] == "violation"
    assert statuses[(False, False), (True, True), (False, True)] == "consistent"
    assert statuses[(False, True), (False, False), (False, True)] == "vacuous"
