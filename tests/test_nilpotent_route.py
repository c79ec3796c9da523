"""The lattice-free route for nilpotent groups above the enumeration bound,
and the lattice-free answers every group now gets (complement counts of
abelian chief factors, normal p-complements, the commuting cliques of
maximal-cyclic generators behind the Bryce-Serena check, Sylow and
minimal normal subgroups), each against the route it replaced
(tests/_oracles.py)."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from groupcovers import (
    AnalyzeOptions,
    OrderBoundExceeded,
    alternating,
    build_catalog,
    chief_series,
    cyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    generalized_quaternion,
    has_normal_p_complement,
    is_nilpotent,
    maximal_subgroups,
    minimal_normal_subgroups,
    parse_catalog,
    prime_divisors,
    run_analyze,
    sylow_subgroup,
    symmetric,
)
from groupcovers import lattice
from groupcovers.classify import _commuting_cliques
from groupcovers.covers import DEFAULT_ENUM_BOUND, _cover_universe
from groupcovers.groups import DEFAULT_ENUM_BOUND as GROUPS_ENUM_BOUND, iter_bits
from groupcovers.lattice import maximal_masks

from _oracles import (
    central_chief_nilpotent,
    clique_maximal_abelian_masks,
    coordinate_frattini_maximals,
    lattice_chief_series,
    lattice_has_normal_p_complement,
    lattice_maximal_masks,
    lattice_minimal_normal_subgroups,
    lattice_sylow_subgroup,
    self_centralizing_masks,
    sylow_count_nilpotent,
)
from test_cayley_tables import ladder_catalog_text


def route_maximals(g):
    return lattice._frattini_maximals(g)


def route_chief_series(g):
    """The whole chief series as the route gives it, at any order."""
    return lattice._chief_factors(g, lattice._central_chief_terms(g), route_maximals(g))


def route_disagreements(g):
    wrong = []
    masks = route_maximals(g)
    if masks != sorted(masks, key=lambda m: (m.bit_count(), m)):
        wrong.append("maximal order")
    if set(masks) != lattice_maximal_masks(g):
        wrong.append("maximal")
    if route_chief_series(g) != lattice_chief_series(g):
        wrong.append("chief series")
    return wrong


def test_one_enumeration_bound():
    assert DEFAULT_ENUM_BOUND is GROUPS_ENUM_BOUND


def test_nilpotency_matches_both_old_routes_on_corpus(corpus):
    wrong = [
        name for name, g in corpus.items()
        if not is_nilpotent(g)
        == sylow_count_nilpotent(g.cayley)
        == central_chief_nilpotent(g)
    ]
    assert not wrong


def test_route_matches_lattice_on_nilpotent_corpus(corpus):
    groups = {name: g for name, g in corpus.items() if is_nilpotent(g)}
    assert len(groups) == 60
    assert sum(g.order > DEFAULT_ENUM_BOUND for g in groups.values()) == 4
    wrong = {name: w for name, g in groups.items() if (w := route_disagreements(g))}
    assert not wrong


def heisenberg27():
    """x: (u, v) -> (u + 1, v) and y: (u, v) -> (u, v + u) on F_3^2, of
    exponent 3: no generator's cube reaches the commutator [x, y]."""
    def perm(f):
        images = (f(u, v) for u in range(3) for v in range(3))
        return [3 * (a % 3) + b % 3 for a, b in images]

    return from_permutation_generators(
        9, [perm(lambda u, v: (u + 1, v)), perm(lambda u, v: (u, v + u))]
    )


# p-groups built from the presets or permutations, each with its prime
P_GROUPS = [
    (3, heisenberg27),
    # D8 generated by two reflections, whose squares are trivial
    (2, lambda: from_permutation_generators(4, ["(1 2)(3 4)", "(1 3)"])),
    (2, lambda: cyclic(4)),
    (2, lambda: cyclic(8)),
    (2, lambda: direct_product(cyclic(2), cyclic(2))),
    (2, lambda: direct_product(cyclic(4), cyclic(2))),
    (2, lambda: direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))),
    (2, lambda: dihedral(4)),
    (2, lambda: dihedral(8)),
    (2, lambda: generalized_quaternion(3)),
    (2, lambda: generalized_quaternion(4)),
    (2, lambda: direct_product(dihedral(4), cyclic(2))),
    (2, lambda: direct_product(generalized_quaternion(3), cyclic(2))),
    (2, lambda: direct_product(dihedral(4), cyclic(4))),
    (3, lambda: cyclic(9)),
    (3, lambda: direct_product(cyclic(3), cyclic(3))),
    (3, lambda: direct_product(cyclic(9), cyclic(3))),
    (5, lambda: direct_product(cyclic(5), cyclic(5))),
    (7, lambda: direct_product(cyclic(7), cyclic(7))),
    # odd primes with d >= 3, so hyperplanes grow over hyperplanes
    (3, lambda: elementary(3, 3)),
    (3, lambda: elementary(4, 3)),
    (3, lambda: direct_product(heisenberg27(), cyclic(3))),
    (5, lambda: elementary(3, 5)),
]
# Products stay at or below this order, where the lattice oracle is quick.
ROUTE_CAP = 128


@st.composite
def nilpotent_products(draw):
    p, make = draw(st.sampled_from(P_GROUPS))
    g = make()
    m = draw(st.sampled_from([m for m in range(1, ROUTE_CAP // g.order + 1) if m % p]))
    return g if m == 1 else direct_product(g, cyclic(m))


@given(nilpotent_products())
@settings(deadline=None, max_examples=40)
def test_route_matches_lattice_on_drawn_nilpotent_products(g):
    assert is_nilpotent(g)
    assert not route_disagreements(g)
    if g.order > DEFAULT_ENUM_BOUND:  # the library takes the route itself
        assert [s.members for s in maximal_subgroups(g)] == route_maximals(g)
        assert all(s.is_normal for s in maximal_subgroups(g))
        assert chief_series(g) == route_chief_series(g)


def test_route_matches_lattice_on_every_p_group():
    """Each p-group above once, where the drawn products only sample them."""
    wrong = [i for i, (_, make) in enumerate(P_GROUPS) if route_disagreements(make())]
    assert not wrong


def test_route_matches_coordinate_oracle_without_lattice():
    """On groups whose lattices tier-1 cannot close, the grown hyperplane
    preimages equal the kernels read off base-p coset coordinates, and
    neither route closes a lattice."""
    d8 = dihedral(4)
    d8xd8 = direct_product(d8, d8)
    groups = {
        "E128": elementary(7), "E256": elementary(8),
        "D8^3": direct_product(d8xd8, d8), "D8xD8xE4": direct_product(d8xd8, elementary(2)),
        "C7^3": elementary(3, 7), "C3^5": elementary(5, 3),
    }
    misses = lattice._lattice.cache_info().misses
    found = {name: route_maximals(g) for name, g in groups.items()}
    wrong = [
        name for name, g in groups.items() if found[name] != coordinate_frattini_maximals(g)
    ]
    assert lattice._lattice.cache_info().misses == misses
    assert not wrong
    assert {name: len(masks) for name, masks in found.items()} == {
        "E128": 127, "E256": 255, "D8^3": 63, "D8xD8xE4": 63, "C7^3": 57, "C3^5": 121,
    }


def test_abelian_factor_complements_match_lattice_scan(corpus):
    checked = 0
    for name, g in corpus.items():
        for f in chief_series(g):
            if f.prime is not None:
                count = lattice._complement_count(g, f.lower, f.upper)
                assert f.complement_count == count, name
                checked += 1
    assert checked > 200


def test_normal_p_complement_matches_lattice_on_corpus(corpus):
    pairs = [(name, p) for name, g in corpus.items() for p in prime_divisors(g.order)]
    assert len(pairs) == 167
    wrong = [
        (name, p) for name, p in pairs
        if has_normal_p_complement(corpus[name], p)
        != lattice_has_normal_p_complement(corpus[name], p)
    ]
    assert not wrong


def test_cliques_match_self_centralizing_scan_on_corpus(corpus):
    groups = {name: g for name, g in corpus.items() if not g.is_abelian}
    assert len(groups) == 55
    wrong = [
        name for name, g in groups.items()
        if sorted(clique_maximal_abelian_masks(g)) != self_centralizing_masks(g)
    ]
    assert not wrong


def test_commuting_cliques_are_the_maximal_abelian_traces(corpus):
    """The maximal cliques of commuting maximal-cyclic generators are the
    maximal traces of the maximal abelian subgroups on those generators."""
    ladder = build_catalog(parse_catalog(ladder_catalog_text()))
    groups = [
        *(("corpus", name, g) for name, g in corpus.items()),
        *(("ladder", name, g) for name, g in ladder.items()),
        *(("named", name, NOT_NILPOTENT[name][0]()) for name in ("A6", "PSL(2,8)")),
    ]
    groups = [(source, name, g) for source, name, g in groups if not g.is_abelian]
    assert len(groups) == 65
    wrong = []
    for source, name, g in groups:
        universe = _cover_universe(g)
        traces = sorted({m & universe for m in self_centralizing_masks(g)})
        if sorted(_commuting_cliques(g)) != maximal_masks(traces):
            wrong.append((source, name))
    assert not wrong


def test_analyze_closes_no_lattice_for_d8xd8():
    g = direct_product(dihedral(4), dihedral(4))
    misses = lattice._lattice.cache_info().misses
    r = run_analyze(g, AnalyzeOptions(max_order=512))
    assert lattice._lattice.cache_info().misses == misses
    assert r.errors == ()
    assert (r.sigma_exact, r.lambda_value, r.is_nilpotent) == (3, 46, True)
    assert all(c["status"] for c in r.lemma_checks)


def test_sylow_matches_lattice_scan_on_corpus(corpus):
    pairs = [(name, p) for name, g in corpus.items() for p in prime_divisors(g.order)]
    assert len(pairs) == 167
    wrong = [
        (name, p) for name, p in pairs
        if sylow_subgroup(corpus[name], p) != lattice_sylow_subgroup(corpus[name], p)
    ]
    assert not wrong


def test_normal_sylow_subgroup_closes_no_lattice():
    d8 = dihedral(4)
    d8_cubed = direct_product(direct_product(d8, d8), d8)
    e256 = cyclic(2)
    for _ in range(7):
        e256 = direct_product(e256, cyclic(2))
    d8xd8xc3 = direct_product(direct_product(d8, d8), cyclic(3))
    misses = lattice._lattice.cache_info().misses
    for g in (d8_cubed, e256):
        assert sylow_subgroup(g, 2) == lattice.Subgroup(g.full_mask, g.order, True)
    assert [sylow_subgroup(d8xd8xc3, p).order for p in (2, 3)] == [64, 3]
    assert lattice._lattice.cache_info().misses == misses


def structure_disagreements(g):
    """The primes whose Sylow subgroup differs from the lattice scan, and
    "minimal normal" if the minimal normal subgroups do; whole records
    are compared."""
    wrong = [
        p for p in prime_divisors(g.order)
        if sylow_subgroup(g, p) != lattice_sylow_subgroup(g, p)
    ]
    if minimal_normal_subgroups(g) != lattice_minimal_normal_subgroups(g):
        wrong.append("minimal normal")
    return wrong


def test_minimal_normal_subgroups_match_lattice_scan_on_corpus(corpus):
    wrong = [
        name for name, g in corpus.items()
        if minimal_normal_subgroups(g) != lattice_minimal_normal_subgroups(g)
    ]
    assert not wrong


PRESETS = [
    cyclic(2), cyclic(3), cyclic(4), cyclic(5), symmetric(3), dihedral(4),
    generalized_quaternion(3), alternating(4), dihedral(5), symmetric(4),
    alternating(5),
]


@st.composite
def structure_groups(draw):
    """A subgroup of S5 or S6 on two permutations, or a product of two presets."""
    if draw(st.booleans()):
        degree = draw(st.sampled_from([5, 6]))
        perms = st.permutations(range(degree))
        try:
            g = from_permutation_generators(degree, [draw(perms), draw(perms)])
        except OrderBoundExceeded:  # S6 has order 720
            g = None
        assume(g is not None)
        return g
    a = draw(st.sampled_from(PRESETS))
    return direct_product(a, draw(st.sampled_from(
        [f for f in PRESETS if a.order * f.order <= 240]
    )))


@given(structure_groups())
@settings(deadline=None, max_examples=60)
def test_structure_matches_lattice_scans_on_drawn_groups(g):
    assert not structure_disagreements(g)


def elementary(k, p=2):
    """C_p^k."""
    g = cyclic(p)
    for _ in range(k - 1):
        g = direct_product(g, cyclic(p))
    return g


# name -> (build, Sylow orders by prime, how many are normal, minimal normals)
NOT_NILPOTENT = {
    "E32xS3": (lambda: direct_product(elementary(5), symmetric(3)), [64, 3], 1, 32),
    "E16xS4": (lambda: direct_product(elementary(4), symmetric(4)), [128, 3], 0, 16),
    "A6": (lambda: alternating(6), [8, 9, 5], 0, 1),
    "PSL(2,8)": (
        lambda: from_permutation_generators(
            9, ["(1 2)(3 4)(5 6)(7 8)", "(2 3 5 4 7 8 6)", "(1 9)(3 6)(4 7)(5 8)"]
        ),
        [8, 9, 7], 0, 1,
    ),
}


@pytest.mark.parametrize("name", NOT_NILPOTENT)
def test_structure_without_lattice_matches_it(name):
    """A fresh group's Sylow and minimal normal subgroups close no lattice,
    and they equal the lattice scans."""
    make, orders, normal, minimal = NOT_NILPOTENT[name]
    g = make()
    misses = lattice._lattice.cache_info().misses
    sylows = [sylow_subgroup(g, p) for p in prime_divisors(g.order)]
    minimals = minimal_normal_subgroups(g)
    assert lattice._lattice.cache_info().misses == misses
    assert [s.order for s in sylows] == orders
    assert sum(s.is_normal for s in sylows) == normal
    assert len(minimals) == minimal
    assert not structure_disagreements(g)


def test_minimal_normal_subgroups_close_no_lattice():
    """Above the enumeration bound, D8^3's minimal normal subgroups are the
    7 of order 2 in its center E8, and E256's are its 255 of order 2."""
    d8 = dihedral(4)
    d8_cubed = direct_product(direct_product(d8, d8), d8)
    misses = lattice._lattice.cache_info().misses
    for g, count in ((d8_cubed, 7), (elementary(8), 255)):
        minimals = minimal_normal_subgroups(g)
        assert len(minimals) == count
        assert all(s.order == 2 and s.is_normal for s in minimals)
        assert {s.members for s in minimals} == {
            1 | 1 << z for z in iter_bits(g.center & ~1)  # {1, z}, z central
        }
    assert lattice._lattice.cache_info().misses == misses
