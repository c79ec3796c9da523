"""Tables built from generators against the routes they replaced.

Every constructor but validate_group goes through one builder that
fills rows along the edges of the generator closure.  Its tables must
equal, entry for entry, those of the cell-by-cell preset, direct
product and quotient loops and of composing every pair of permutations,
so element labels stay what the constructors' docstrings promise.
Non-integer parameters and masks that are not element sets must raise
InvalidParameters before the closure starts.
"""

import importlib.util
import signal
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from groupcovers import (
    ORDER_BOUND,
    InvalidParameters,
    OrderBoundExceeded,
    alternating,
    build_catalog,
    bundled_catalog_text,
    cyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    generalized_quaternion,
    normal_subgroups,
    parse_catalog,
    quotient,
    semidirect_cp_cn,
    symmetric,
)
from groupcovers.catalog import PermSource
from groupcovers.groups import _parse_permutation

from _oracles import (
    coset_quotient_table,
    loop_cpcn_table,
    loop_cyclic_table,
    loop_dihedral_table,
    loop_direct_product_table,
    loop_quaternion_table,
    pairwise_permutation_table,
)


def rows(table):
    return tuple(map(tuple, table))


def ladder_catalog_text():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LADDER_CATALOG


def test_cyclic_matches_cell_loop():
    for n in range(1, ORDER_BOUND + 1):
        assert cyclic(n).cayley == loop_cyclic_table(n), n


def test_dihedral_matches_cell_loop():
    for n in range(1, 257):
        assert dihedral(n).cayley == rows(loop_dihedral_table(n)), n


@pytest.mark.parametrize("k", range(3, 10))
def test_quaternion_matches_cell_loop(k):
    assert generalized_quaternion(k).cayley == rows(loop_quaternion_table(k))


CPCN_SMALL = [
    (p, n, l)
    for p in range(2, 129)
    if all(p % d for d in range(2, p))
    for n in range(1, 128 // p + 1)
    for l in range(1, p)
    if pow(l, n, p) == 1
]


def test_cpcn_matches_cell_loop():
    assert len(CPCN_SMALL) > 300
    for params in CPCN_SMALL + [(17, 16, 3), (251, 2, 250), (127, 4, 126)]:
        expected = rows(loop_cpcn_table(*params))
        assert semidirect_cp_cn(*params).cayley == expected, params


def perm_entries(text):
    return [
        (e.name, e.source)
        for e in parse_catalog(text)
        if isinstance(e.source, PermSource)
    ]


def test_catalog_permutation_entries_match_pairwise_composition():
    entries = perm_entries(bundled_catalog_text())
    entries += perm_entries(ladder_catalog_text())
    names = {name for name, _ in entries}
    assert {"Dic6", "SD16", "D8xD8"} <= names
    for name, src in entries:
        gens = [_parse_permutation(g, src.degree) for g in src.generators]
        expected = pairwise_permutation_table(src.degree, gens)
        got = from_permutation_generators(src.degree, src.generators).cayley
        assert got == rows(expected), name


def cycle(*points):
    return "(" + " ".join(map(str, points)) + ")"


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_matches_pairwise_composition(n):
    # Any generating set gives the same elements, hence the same labels.
    gens = [_parse_permutation(cycle(1, k), n) for k in range(2, n + 1)]
    assert symmetric(n).cayley == rows(pairwise_permutation_table(n, gens))


@pytest.mark.parametrize("n", range(1, 7))
def test_alternating_matches_pairwise_composition(n):
    # The 3-cycles (1 2 k) generate A_n.
    gens = [_parse_permutation(cycle(1, 2, k), n) for k in range(3, n + 1)]
    assert alternating(n).cayley == rows(pairwise_permutation_table(n, gens))


@st.composite
def two_generator_groups(draw):
    degree = draw(st.integers(min_value=1, max_value=7))
    perms = st.permutations(range(degree))
    return degree, [tuple(draw(perms)), tuple(draw(perms))]


@given(two_generator_groups())
@settings(deadline=None, max_examples=150)
def test_drawn_permutation_groups_match_pairwise_composition(drawn):
    degree, gens = drawn
    expected = pairwise_permutation_table(degree, gens)
    if expected is None:
        with pytest.raises(OrderBoundExceeded):
            from_permutation_generators(degree, gens)
    else:
        assert from_permutation_generators(degree, gens).cayley == rows(expected)


def test_long_cycle_builds_fast():
    start = time.perf_counter()
    g = from_permutation_generators(512, [cycle(*range(1, 513))])
    assert time.perf_counter() - start < 2.0
    # r^k sends point 0 to k, so sorting image tuples labels it k
    assert g.cayley == loop_cyclic_table(512)


def product_matches_cell_loop(a, b):
    expected = rows(loop_direct_product_table(a.cayley, b.cayley))
    return direct_product(a, b).cayley == expected


def test_direct_products_of_small_corpus_groups_match_cell_loop(corpus):
    small = [g for g in corpus.values() if g.order <= 16]
    assert len(small) > 40
    for a, b in combinations_with_replacement(small, 2):
        assert product_matches_cell_loop(a, b), (a.name, b.name)


def test_named_direct_products_match_cell_loop():
    e = cyclic(2)
    while e.order < ORDER_BOUND:  # E4, E8, ..., E512
        assert product_matches_cell_loop(e, cyclic(2)), e.order
        e = direct_product(e, cyclic(2))
    assert e.order == 512 and e.exponent == 2
    assert product_matches_cell_loop(dihedral(16), generalized_quaternion(4))
    assert product_matches_cell_loop(alternating(5), cyclic(4))
    assert product_matches_cell_loop(cyclic(4), alternating(5))


small_groups = st.one_of(
    st.integers(min_value=1, max_value=24).map(cyclic),
    st.integers(min_value=1, max_value=12).map(dihedral),
    st.integers(min_value=3, max_value=5).map(generalized_quaternion),
    st.integers(min_value=1, max_value=4).map(symmetric),
    st.integers(min_value=1, max_value=5).map(alternating),
)


@given(small_groups, small_groups)
@settings(deadline=None, max_examples=100)
def test_drawn_direct_products_match_cell_loop(a, b):
    if a.order * b.order > ORDER_BOUND:
        with pytest.raises(OrderBoundExceeded):
            direct_product(a, b)
    else:
        assert product_matches_cell_loop(a, b)


def test_quotients_match_coset_loop(corpus):
    checked = 0
    for g in corpus.values():
        if g.order > 128:
            continue
        for n in normal_subgroups(g):
            q, projection = quotient(g, n.members)
            table, coset_of = coset_quotient_table(g.cayley, n.members)
            assert q.cayley == rows(table), (g.name, n.members)
            assert projection.mapping == tuple(coset_of), (g.name, n.members)
            checked += 1
    assert checked > 800


class Three:
    def __index__(self):
        return 3


def test_integer_like_parameters_are_accepted():
    assert dihedral(Three()).name == "D6"
    assert semidirect_cp_cn(Three(), 2, 2).order == 6
    assert from_permutation_generators(Three(), ["(1 2 3)"]).order == 3


NON_INTEGER_PARAMETERS = [
    (cyclic, (2.5,)),
    (cyclic, (5.0,)),
    (dihedral, (2.5,)),
    (generalized_quaternion, (3.0,)),
    (symmetric, (3.0,)),
    (alternating, ("4",)),
    (semidirect_cp_cn, (3.0, 2, 2)),
    (semidirect_cp_cn, (3, 2.0, 2)),
    (semidirect_cp_cn, (3, 2, Fraction(2))),
    (from_permutation_generators, (3.0, ["(1 2 3)"])),
]


@pytest.mark.parametrize(
    "build, args",
    NON_INTEGER_PARAMETERS,
    ids=[f"{build.__name__}{args}" for build, args in NON_INTEGER_PARAMETERS],
)
def test_non_integer_parameters_are_rejected(build, args):
    with pytest.raises(InvalidParameters, match="must be an integer"):
        build(*args)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block once seconds have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("mask", [-1, 1 | 1 << 10, 1.0, "1"])
def test_quotient_rejects_masks_that_are_not_element_sets(mask):
    g = symmetric(3)
    with time_limit(2.0), pytest.raises(InvalidParameters):
        quotient(g, mask)


def test_builder_inverses_match_row_scan(corpus):
    # The builder derives b^-1 = p^-1 * g^-1 along its closure edges
    # instead of searching each row for the identity.
    groups = list(corpus.values())
    groups += build_catalog(parse_catalog(ladder_catalog_text())).values()
    groups += [cyclic(n) for n in range(1, ORDER_BOUND + 1, 7)]
    groups += [dihedral(n) for n in range(1, 257, 5)]
    groups += [generalized_quaternion(k) for k in range(3, 10)]
    groups += [semidirect_cp_cn(*params) for params in CPCN_SMALL[::5]]
    groups += [symmetric(n) for n in range(1, 6)]
    groups += [alternating(n) for n in range(1, 7)]
    groups += [direct_product(dihedral(16), generalized_quaternion(4))]
    groups += [
        quotient(g, n.members)[0]
        for g in corpus.values()
        if g.order <= 64
        for n in normal_subgroups(g)
    ]
    for g in groups:
        assert g.inverse == tuple(row.index(0) for row in g.cayley), g.name
