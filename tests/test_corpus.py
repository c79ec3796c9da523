"""Sanity checks on the shipped catalog: every isomorphism type of order
at most 24 appears exactly once, spare entries above that range are
pairwise distinct, and the handful of deliberately redundant entries
(alternate constructions of one group) really are redundant.
"""

import collections
import itertools

import pytest

from groupcovers import all_subgroups

from _oracles import commutator_derived_mask, find_isomorphism

# number of isomorphism types at each order from 1 to 24
CENSUS = [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14, 1, 5, 1, 5, 2, 2, 1, 15]

# same group, built two ways; everything else must be pairwise distinct
KNOWN_ALIASES = [
    ("C2xC6", "V4xC3"),
    ("C3sC2", "S3"),
    ("C3xC6", "E9xC2"),
    ("C3xQ8", "Q8xC3"),
    ("F20", "F20b"),
    ("F20bxC3", "F20xC3"),
]

REQUIRED_NAMES = [
    # one-sized positives and their coprime cyclic extensions
    "V4", "E9", "C5xC5", "C7xC7", "Q8",
    "S3", "Dic3", "F20", "F42", "C13sC4",
    "V4xC3", "E9xC2", "C5xC5xC2", "C7xC7xC2",
    "Q8xC3", "Q8xC5", "S3xC5", "F20xC3", "F42xC5", "C13sC4xC3",
    # negatives the classifier must reject
    "E8", "D8", "Q16", "Q32", "C4xC2",
    "S3xC6", "Dic3xC3", "F20xC2", "Q8xC4",
    # the smallest non-solvable group
    "A5",
]


@pytest.fixture(scope="module")
def profiles(corpus):
    out = {}
    for name, g in corpus.items():
        subs = all_subgroups(g)
        out[name] = (
            g.order,
            tuple(sorted(g.element_orders)),
            g.is_abelian,
            tuple(
                sorted(
                    g.element_order(x)
                    for x in range(g.order)
                    if (g.center >> x) & 1
                )
            ),
            commutator_derived_mask(g.cayley, g.full_mask).bit_count(),
            tuple(sorted(s.order for s in subs)),
            tuple(sorted(s.order for s in subs if s.is_normal)),
        )
    return out


def test_census_of_small_orders(profiles):
    distinct = collections.defaultdict(set)
    for prof in profiles.values():
        if prof[0] <= 24:
            distinct[prof[0]].add(prof)
    assert [len(distinct[o]) for o in range(1, 25)] == CENSUS


def test_required_names_present(corpus):
    missing = [n for n in REQUIRED_NAMES if n not in corpus]
    assert not missing


def test_alias_pairs_share_profiles(profiles):
    for a, b in KNOWN_ALIASES:
        assert profiles[a] == profiles[b]


def test_alias_pairs_are_isomorphic(corpus):
    for a, b in KNOWN_ALIASES:
        if corpus[a].order > 24:
            continue  # backtracking search gets slow; profile match suffices
        assert find_isomorphism(corpus[a].cayley, corpus[b].cayley) is not None


def test_everything_else_distinct(profiles):
    aliased = {frozenset(pair) for pair in KNOWN_ALIASES}
    by_order = collections.defaultdict(list)
    for name, prof in profiles.items():
        by_order[prof[0]].append(name)
    clashes = []
    for names in by_order.values():
        for a, b in itertools.combinations(sorted(names), 2):
            if frozenset((a, b)) in aliased:
                continue
            if profiles[a] == profiles[b]:
                clashes.append((a, b))
    assert not clashes


def test_expected_orders_all_declared_and_match(corpus_entries, corpus):
    for entry in corpus_entries:
        assert entry.expected_order == corpus[entry.name].order
