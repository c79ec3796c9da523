"""Tables built from generators against the routes they replaced.

Permutation groups and the dihedral, quaternion and C_p x| C_n presets
share one builder that fills rows along the edges of the generator
closure.  Its tables must equal, entry for entry, those of the
cell-by-cell preset loops and of composing every pair of permutations,
so element labels stay what the constructors' docstrings promise.
"""

import importlib.util
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from groupcovers import (
    OrderBoundExceeded,
    alternating,
    bundled_catalog_text,
    cyclic,
    dihedral,
    from_permutation_generators,
    generalized_quaternion,
    parse_catalog,
    semidirect_cp_cn,
    symmetric,
)
from groupcovers.catalog import PermSource
from groupcovers.groups import _parse_permutation

from _oracles import (
    loop_cpcn_table,
    loop_dihedral_table,
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
    assert g.cayley == cyclic(512).cayley
