"""The exact set covers over the generators of the maximal cyclic
subgroups, against the same covers over every element of G
(tests/_oracles.py), and sigma against values from the literature and
against the direct-product lemma."""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from groupcovers import (
    INFINITE,
    alternating,
    build_catalog,
    check_abelian_sigma_cover,
    check_quotient_invariants,
    cyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    generalized_quaternion,
    is_cover,
    is_solvable,
    lambda_,
    minimal_cover,
    one_sized_bruteforce,
    parse_catalog,
    semidirect_cp_cn,
    sigma_exact,
    symmetric,
)
from groupcovers import lattice
from groupcovers.covers import _cover_universe, _maximal_cyclic_generators, _search_space

from _oracles import (
    commutator_derived_mask,
    full_group_abelian_cover_exists,
    full_group_minimal_cover,
    full_group_quotient_items,
)
from test_cayley_tables import ladder_catalog_text


def universe_disagreements(g):
    """The checks whose answer differs from the full-|G| route."""
    wrong = []
    sig = sigma_exact(g).value
    cover = minimal_cover(g)
    if not (sig == len(cover) == len(full_group_minimal_cover(g)) and is_cover(g, cover)):
        wrong.append("sigma")
    if check_abelian_sigma_cover(g).abelian_cover_exists != full_group_abelian_cover_exists(g):
        wrong.append("bryce-serena")
    if one_sized_bruteforce(g):
        items = [tuple(it) for it in check_quotient_invariants(g).items]
        if items != full_group_quotient_items(g):
            wrong.append("quotients")
    return wrong


def test_covers_match_full_group_route_on_corpus(corpus):
    groups = {name: g for name, g in corpus.items() if not g.is_cyclic}
    assert len(groups) == 74
    wrong = {name: w for name, g in groups.items() if (w := universe_disagreements(g))}
    assert not wrong


def test_covers_match_full_group_route_on_ladder():
    groups = build_catalog(parse_catalog(ladder_catalog_text()))
    groups = {name: g for name, g in groups.items() if not g.is_cyclic}
    assert len(groups) == 10
    wrong = {name: w for name, g in groups.items() if (w := universe_disagreements(g))}
    assert not wrong


SMALL = [
    cyclic(2), cyclic(3), cyclic(4), dihedral(3), dihedral(4), dihedral(5),
    generalized_quaternion(3), alternating(4), semidirect_cp_cn(7, 3, 2),
    semidirect_cp_cn(5, 4, 2),
]


@st.composite
def drawn_groups(draw):
    """A subgroup of S5 on two drawn permutations, or a product of two
    small groups; cyclic draws are rejected."""
    if draw(st.booleans()):
        degree = draw(st.integers(3, 5))
        gens = draw(st.lists(st.permutations(range(degree)), min_size=2, max_size=2))
        g = from_permutation_generators(degree, gens)
    else:
        g = direct_product(draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL)))
    assume(not g.is_cyclic)
    return g


@given(drawn_groups())
@settings(max_examples=40, deadline=None)
def test_covers_match_full_group_route_on_drawn_groups(g):
    assert universe_disagreements(g) == []


@pytest.mark.parametrize(
    "g, size",
    [
        (symmetric(5), 31),
        (direct_product(alternating(5), cyclic(2)), 46),
        (direct_product(semidirect_cp_cn(7, 6, 3), cyclic(5)), 8),
    ],
)
def test_universe_is_one_generator_per_maximal_cyclic_subgroup(g, size):
    misses = lattice._lattice.cache_info().misses
    assert _cover_universe(g).bit_count() == size
    assert lattice._lattice.cache_info().misses == misses  # read no lattice
    gens = _maximal_cyclic_generators(g)
    assert len(gens) == lambda_(g) == size
    assert gens == _search_space(g).generators


def test_set_covers_close_no_lattice_above_the_bound():
    # D8xD8 is nilpotent of order 64, above the enumeration bound, so its
    # maximal subgroups come without the lattice; so must the universe.
    g = from_permutation_generators(8, ["(1 2 3 4)", "(1 3)", "(5 6 7 8)", "(5 7)"])
    misses = lattice._lattice.cache_info().misses
    assert len(minimal_cover(g)) == 3
    # its maximal abelian subgroups have index 4, so three cannot cover
    assert not check_abelian_sigma_cover(g).abelian_cover_exists
    assert lattice._lattice.cache_info().misses == misses


# sigma of non-solvable groups, where sigma_tomkinson gives no check:
# Cohn, "On n-sum groups", Math. Scand. 75 (1994), for A5 and S5; Bryce,
# Fedri and Serena, "Subgroup coverings of some linear groups", Bull.
# Austral. Math. Soc. 60 (1999), for PSL(2,7) and PSL(2,8).
LITERATURE_CATALOG = """\
group A5
preset alt 5

group S5
preset sym 5

group PSL27
perm 8; (1 2 3 4 5 6 7); (2 3 5)(4 7 6); (1 8)(2 7)(3 4)(5 6)

group PSL28
perm 9; (1 2)(3 4)(5 6)(7 8); (2 3 5 4 7 8 6); (1 9)(3 6)(4 7)(5 8)
"""

LITERATURE_SIGMA = {"A5": (60, 10), "S5": (120, 16), "PSL27": (168, 15), "PSL28": (504, 36)}


def test_sigma_matches_literature_for_non_solvable_groups():
    groups = build_catalog(parse_catalog(LITERATURE_CATALOG))
    got = {name: (g.order, sigma_exact(g).value) for name, g in groups.items()}
    assert got == LITERATURE_SIGMA


# sigma of a direct product.  If G and H have no common nontrivial simple
# quotient, Goursat's lemma makes every maximal subgroup of G x H a product
# M x H or G x M', so sigma(G x H) = min(sigma(G), sigma(H)), infinite when
# both are cyclic.  A common abelian simple quotient C_p needs p to divide
# both |G:G'| and |H:H'|, and a non-abelian one needs both non-solvable; so
# coprime abelianizations and a solvable factor suffice.
PRODUCT_PRESETS = [*SMALL, cyclic(5), cyclic(7), symmetric(4), alternating(5)]


def abelianization_order(g):
    return g.order // commutator_derived_mask(g.cayley, g.full_mask).bit_count()


def smaller_sigma(a, b):
    return min(
        (sigma_exact(f) for f in (a, b) if not f.is_cyclic),
        key=lambda s: s.value,
        default=INFINITE,
    )


@st.composite
def coprime_products(draw):
    """Two presets with |G||H| <= 240 that share no simple quotient."""
    a = draw(st.sampled_from(PRODUCT_PRESETS))
    b = draw(st.sampled_from([f for f in PRODUCT_PRESETS if a.order * f.order <= 240]))
    assume(gcd(abelianization_order(a), abelianization_order(b)) == 1)
    assume(is_solvable(a) or is_solvable(b))
    return a, b


@given(coprime_products())
@settings(max_examples=40, deadline=None)
def test_sigma_of_a_product_is_the_smaller_factor_sigma(pair):
    a, b = pair
    assert sigma_exact(direct_product(a, b)) == smaller_sigma(a, b)


@pytest.mark.parametrize(
    "a, b, sigma",
    [
        (alternating(5), cyclic(7), 10),
        (alternating(5), symmetric(3), 4),
        (alternating(5), dihedral(4), 3),
        (symmetric(5), cyclic(3), 16),
    ],
)
def test_sigma_of_non_solvable_products(a, b, sigma):
    # sigma_tomkinson cannot check these: each product is non-solvable
    assert sigma_exact(direct_product(a, b)).value == smaller_sigma(a, b).value == sigma


def test_sigma_of_a_product_with_a_common_quotient():
    # S3 x S3 maps onto C2 x C2, so sigma is 3, below min(4, 4)
    s3 = symmetric(3)
    assert abelianization_order(s3) == 2
    assert (sigma_exact(direct_product(s3, s3)).value, smaller_sigma(s3, s3).value) == (3, 4)
