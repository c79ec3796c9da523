"""Conjugacy classes and the normality tests built on them, against the
conjugate-by-every-element reference routes in _oracles.

The library decides normality, normal cores and central chief factors
from the group's non-central classes, reads the center and the normality
of cyclic subgroups off the per-element class map, and decides
centrality modulo a normal subgroup by commutators with the generators;
the oracles conjugate by every element of G on the raw table, and take
the center as the elements whose row equals their column.  Both must agree on every subgroup of the
corpus and on arbitrary masks, subgroups or not, with or without the
identity.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from groupcovers import (
    all_subgroups,
    alternating,
    build_catalog,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    generalized_quaternion,
    normal_subgroups,
    parse_catalog,
    symmetric,
    validate_group,
)
from groupcovers.groups import is_normal_mask, iter_bits, mask_of
from groupcovers.lattice import _is_central_section, generated_mask, normal_core

from _oracles import (
    bitloop_conjugates,
    class_member_central_section,
    commutator_central_section,
    conjugation_class,
    conjugation_is_normal,
    conjugation_normal_core,
    row_column_center,
)
from test_cayley_tables import ladder_catalog_text
from test_classify import classify_groups
from test_lattice import lattice_groups
from test_nilpotent_route import NOT_NILPOTENT, elementary

SMALL_CORPUS_ORDER = 128


def small_corpus(corpus):
    return [g for _, g in sorted(corpus.items()) if g.order <= SMALL_CORPUS_ORDER]


# ---------------------------------------------------------------------------
# The classes themselves


@pytest.mark.parametrize(
    "make, count",
    [
        (lambda: symmetric(3), 3),
        (lambda: dihedral(4), 5),
        (lambda: generalized_quaternion(3), 5),
        (lambda: alternating(4), 4),
        (lambda: symmetric(4), 5),
        (lambda: alternating(5), 5),
    ],
    ids=["S3", "D8", "Q8", "A4", "S4", "A5"],
)
def test_class_count(make, count):
    g = make()
    assert len(g.conjugacy_classes) + g.center.bit_count() == count


def test_abelian_group_has_no_noncentral_class():
    g = direct_product(cyclic(4), cyclic(6))
    assert g.conjugacy_classes == ()
    assert is_normal_mask(g, 0b1010_0110)


def test_classes_are_lazy():
    g = symmetric(4)
    assert "conjugacy_classes" not in vars(g)
    g.conjugacy_classes
    assert "conjugacy_classes" in vars(g)


def test_class_equation(corpus):
    for g in small_corpus(corpus):
        classes = g.conjugacy_classes
        union = 0
        for c in classes:
            assert c.bit_count() > 1 and g.order % c.bit_count() == 0, g.name
            assert c & union == 0 and c & g.center == 0, g.name
            union |= c
            assert c == _class_of(g, (c & -c).bit_length() - 1), g.name
        assert sum(c.bit_count() for c in classes) == g.order - g.center.bit_count()
        assert union == g.full_mask & ~g.center, g.name
        least = [c & -c for c in classes]
        assert least == sorted(least), g.name


def test_classes_of_validated_relabelled_tables(corpus):
    """A validated table's generators come from Light's test, not from the
    builder; the orbits under them must still be the full classes."""
    rng = random.Random(23)
    for g in small_corpus(corpus):
        n = g.order
        perm = [0] + rng.sample(range(1, n), n - 1)
        table = [[0] * n for _ in range(n)]
        for a, row in enumerate(g.cayley):
            for b, c in enumerate(row):
                table[perm[a]][perm[b]] = perm[c]
        h = validate_group(table)
        want = set()
        for x in range(n):
            cls = sum(conjugation_class(table, 1 << x))  # distinct singletons
            if cls.bit_count() > 1:
                want.add(cls)
        assert h.conjugacy_classes == tuple(sorted(want, key=lambda c: c & -c)), g.name


def _class_of(g, x):
    """The class of x, conjugating by every element of G."""
    out = 0
    for h in range(g.order):
        out |= 1 << g.conjugate(x, h)
    return out


def class_map_disagreements(g):
    """Where Group.class_masks differs from conjugating by every element,
    or cyclic_subgroups' normality from the class scan it replaced."""
    wrong = [x for x in range(g.order)
             if g.class_masks[x] != sum(conjugation_class(g.cayley, 1 << x))]
    wrong += [c.subgroup.members for c in cyclic_subgroups(g)
              if c.subgroup.is_normal != is_normal_mask(g, c.subgroup.members)]
    return wrong


def test_class_map_matches_conjugation_on_corpus_and_ladder(corpus):
    groups = list(corpus.values())
    groups += build_catalog(parse_catalog(ladder_catalog_text())).values()
    wrong = {g.name: w for g in groups if (w := class_map_disagreements(g))}
    assert not wrong


@given(lattice_groups())
@settings(deadline=None, max_examples=60)
def test_class_map_matches_conjugation_on_drawn_groups(g):
    assert not class_map_disagreements(g)


# ---------------------------------------------------------------------------
# The center and abelianity read off the generator conjugations, against
# the row-equals-column scan they replaced


def center_disagreements(g):
    center = row_column_center(g.cayley)
    wrong = [] if g.center == center else ["center"]
    if g.is_abelian != (center == g.full_mask):
        wrong.append("is_abelian")
    return wrong


def test_center_matches_row_column_scan_on_corpus_ladder_and_large_groups(corpus):
    large = {
        "D512": dihedral(256), "E256": elementary(8),
        "A6": NOT_NILPOTENT["A6"][0](), "PSL(2,8)": NOT_NILPOTENT["PSL(2,8)"][0](),
    }
    groups = [*corpus.values(), *large.values()]
    groups += build_catalog(parse_catalog(ladder_catalog_text())).values()
    wrong = {g.name: w for g in groups if (w := center_disagreements(g))}
    assert not wrong
    assert {name: g.center.bit_count() for name, g in large.items()} == {
        "D512": 2, "E256": 256, "A6": 1, "PSL(2,8)": 1,
    }
    assert [name for name, g in large.items() if g.is_abelian] == ["E256"]


@given(st.one_of(lattice_groups(), classify_groups()))
@settings(deadline=None, max_examples=80)
def test_center_matches_row_column_scan_on_drawn_groups(g):
    assert not center_disagreements(g)


# ---------------------------------------------------------------------------
# Against the reference routes on the corpus


def test_normality_and_core_on_every_corpus_subgroup(corpus):
    checked = 0
    for g in small_corpus(corpus):
        for s in all_subgroups(g):
            want = conjugation_is_normal(g.cayley, s.members)
            assert s.is_normal == want == is_normal_mask(g, s.members), (g.name, s)
            assert normal_core(g, s.members) == conjugation_normal_core(
                g.cayley, s.members
            ), (g.name, s)
            checked += 1
    assert checked > 1000


def test_subgroup_classes_from_generators_on_corpus(corpus):
    """Group.conjugates closes under the generators only; the oracle
    conjugates by every element."""
    for g in small_corpus(corpus):
        assert len(g.generators) <= g.order.bit_length() - 1
        assert generated_mask(g, mask_of(g.generators)) == g.full_mask, g.name
        for s in all_subgroups(g):
            orbit = g.conjugates(s.members)
            assert orbit[0] == s.members and len(set(orbit)) == len(orbit)
            assert set(orbit) == conjugation_class(g.cayley, s.members), (g.name, s)
            assert (len(orbit) == 1) == s.is_normal


def test_conjugates_of_element_sets_on_corpus(corpus):
    """Group.conjugates on every singleton, every subgroup, and every
    subgroup without the identity: the orbit's set, and the bit loop's
    order, which every caller sees."""
    for _, g in sorted(corpus.items()):
        subgroups = [s.members for s in all_subgroups(g)]
        masks = [1 << x for x in range(g.order)] + subgroups
        masks += [m & ~1 for m in subgroups if m != 1]
        for mask in masks:
            orbit = g.conjugates(mask)
            assert orbit == bitloop_conjugates(g._conjugations, mask), (g.name, mask)
            assert orbit[0] == mask and len(set(orbit)) == len(orbit)
            assert set(orbit) == conjugation_class(g.cayley, mask), (g.name, mask)


def test_conjugates_skips_central_generators():
    g = direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2))
    for s in all_subgroups(g):
        assert g.conjugates(s.members) == (s.members,)
    assert g._conjugations == ()
    h = direct_product(symmetric(3), cyclic(2))
    moving = [x for x in h.generators if not h.center >> x & 1]
    assert 0 < len(moving) < len(h.generators)
    assert len(h._conjugations) == len(moving)


def test_central_section_on_every_nested_normal_pair(corpus):
    checked = 0
    for g in small_corpus(corpus):
        normals = [s.members for s in normal_subgroups(g)]
        for lower in normals:
            for upper in normals:
                if lower & ~upper == 0:
                    want = commutator_central_section(g.cayley, upper, lower)
                    assert _is_central_section(g, upper, lower) == want, (
                        g.name, upper, lower,
                    )
                    assert class_member_central_section(g, upper, lower) == want
                    checked += 1
    assert checked > 3000


def test_central_section_without_least_class_members(corpus):
    """upper is a class without its least element, so every class it meets
    has its least element outside upper."""
    noncentral = 0
    for g in small_corpus(corpus):
        for lower in (s.members for s in normal_subgroups(g)):
            for c in g.conjugacy_classes:
                upper = c & ~(c & -c)
                want = commutator_central_section(g.cayley, upper, lower)
                assert _is_central_section(g, upper, lower) == want, (g.name, c, lower)
                noncentral += not want
    assert noncentral > 800


# ---------------------------------------------------------------------------
# Against the reference routes on arbitrary masks

POOL = [
    symmetric(4),
    alternating(5),
    generalized_quaternion(4),
    direct_product(dihedral(4), dihedral(4)),
]


def _flip(mask, bit, n):
    return mask ^ (1 << (bit % n))


masks = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, len(POOL) - 1), raw=masks)
def test_conjugates_of_random_masks(which, raw):
    g = POOL[which]
    seed = raw & g.full_mask
    assert set(g.conjugates(seed)) == conjugation_class(g.cayley, seed)
    assert g.conjugates(seed) == bitloop_conjugates(g._conjugations, seed)


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, len(POOL) - 1), raw=masks, bit=st.integers(0, 63))
def test_random_masks_agree(which, raw, bit):
    g = POOL[which]
    t, n = g.cayley, g.order
    seed = raw & g.full_mask
    closure = 0
    for c in conjugation_class(t, seed):
        closure |= c
    core = conjugation_normal_core(t, seed)
    # Random masks are almost never invariant; their core and normal
    # closure always are, and one flipped bit usually breaks that.
    for m in (seed, seed & ~1, core, closure, _flip(core, bit, n), _flip(closure, bit, n)):
        assert is_normal_mask(g, m) == conjugation_is_normal(t, m), (g.name, m)
        assert normal_core(g, m) == conjugation_normal_core(t, m), (g.name, m)
    assert is_normal_mask(g, core) and is_normal_mask(g, closure)


@settings(max_examples=200, deadline=None)
@given(which=st.integers(0, len(POOL) - 1), raw=masks, pick=st.integers(0, 10**6))
def test_central_section_any_upper(which, raw, pick):
    """For lower normal, the class test is exact for any upper mask."""
    g = POOL[which]
    normals = normal_subgroups(g)
    lower = normals[pick % len(normals)].members
    for upper in (raw & g.full_mask, (raw & g.full_mask) | lower):
        want = commutator_central_section(g.cayley, upper, lower)
        assert _is_central_section(g, upper, lower) == want, (g.name, upper, lower)
        assert class_member_central_section(g, upper, lower) == want


def test_masks_without_identity():
    g = symmetric(4)
    for c in g.conjugacy_classes:
        assert is_normal_mask(g, c)
        assert normal_core(g, c) == c
        without_one = c & ~(c & -c)
        assert not is_normal_mask(g, without_one)
        assert normal_core(g, without_one) == 0
    assert is_normal_mask(g, 0) and normal_core(g, 0) == 0
    assert [is_normal_mask(g, 1 << x) for x in iter_bits(g.full_mask)] == [
        conjugation_is_normal(g.cayley, 1 << x) for x in range(g.order)
    ]
