"""The table validator against a full triple scan.

validate_group checks associativity only for a greedily chosen
generating set (Light's test); _oracles.table_axiom_error checks every
triple.  On relabelled corpus tables, on mutants of small group tables
and on every reduced Latin square of order at most 6, both must give
the same verdict and error class, and every NotAssociative witness must
be a genuinely failing triple.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from groupcovers import (
    GroupValidationError,
    MissingInverse,
    NotAssociative,
    NotLatinSquare,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    semidirect_cp_cn,
    symmetric,
    validate_group,
)
from groupcovers import groups
from groupcovers.groups import _greedy_generators

from _oracles import pairwise_generated_mask, set_greedy_generators, table_axiom_error


def library_error(table) -> tuple[str, tuple] | None:
    """validate_group's verdict in the oracle's terms."""
    try:
        validate_group(table)
    except NotLatinSquare as exc:
        return "NotLatinSquare", (exc.axis, exc.index)
    except MissingInverse as exc:
        return "MissingInverse", (exc.element,)
    except NotAssociative as exc:
        return "NotAssociative", exc.witness
    except GroupValidationError as exc:
        return type(exc).__name__, ()
    return None


def assert_agrees(table) -> None:
    got, want = library_error(table), table_axiom_error(table)
    if want is not None and want[0] == "NotAssociative":
        assert got is not None and got[0] == "NotAssociative", table
        x, y, z = got[1]
        assert table[table[x][y]][z] != table[x][table[y][z]], (table, got)
    else:
        assert got == want, table


def relabelled(table, rng: random.Random) -> tuple[list[list[int]], list[int]]:
    """The table with every non-identity element renamed, and the renaming."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return out, perm


def product_table(ta, tb) -> list[list[int]]:
    """Componentwise product of two tables; (x, y) gets index x * |tb| + y."""
    m = len(tb)
    return [[p * m + q for p in ra for q in rb] for ra in ta for rb in tb]


def reduced_latin_squares(n: int) -> list[list[list[int]]]:
    """Every Latin square on 0..n-1 whose row 0 and column 0 are 0..n-1."""
    rows = [list(range(n))] + [[r] + [-1] * (n - 1) for r in range(1, n)]
    in_column = [{c} for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    out = []

    def fill(k: int) -> None:
        if k == len(cells):
            out.append([list(row) for row in rows])
            return
        r, c = cells[k]
        for v in range(n):
            if v in in_column[c] or v in rows[r]:
                continue
            rows[r][c] = v
            in_column[c].add(v)
            fill(k + 1)
            rows[r][c] = -1
            in_column[c].discard(v)

    fill(0)
    return out


# A non-associative loop in which every element is its own inverse (the
# table of TestValidation.test_nonassociative_loop_rejected).
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

SMALL_GROUPS = [
    cyclic(4),
    dihedral(3),
    dihedral(4),
    dihedral(6),
    generalized_quaternion(3),
    alternating(4),
    semidirect_cp_cn(3, 4, 2),
    direct_product(cyclic(2), cyclic(4)),
    direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
    direct_product(cyclic(3), cyclic(3)),
    symmetric(4),
]


def intercalates(table) -> list[tuple[int, int, int, int]]:
    """Every (r1, r2, c1, c2) with r1 < r2 whose four cells hold a 2x2
    Latin subsquare; swapping its two symbols leaves a Latin square."""
    n = len(table)
    where = [{v: c for c, v in enumerate(row)} for row in table]
    out = []
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                c2 = where[r1][table[r2][c1]]
                if c1 < c2 and table[r2][c2] == table[r1][c1]:
                    out.append((r1, r2, c1, c2))
    return out


def swapped(table, cell) -> list[list[int]]:
    r1, r2, c1, c2 = cell
    out = [list(row) for row in table]
    out[r1][c1], out[r1][c2] = out[r1][c2], out[r1][c1]
    out[r2][c1], out[r2][c2] = out[r2][c2], out[r2][c1]
    return out


class TestAgainstTripleScan:
    def test_relabelled_corpus_groups(self, corpus):
        rng = random.Random(6)
        checked = 0
        for g in corpus.values():
            if g.order > 32:
                continue
            table, perm = relabelled(g.cayley, rng)
            assert table_axiom_error(table) is None
            h = validate_group(table)
            assert [list(row) for row in h.cayley] == table
            assert all(h.inverse[perm[a]] == perm[g.inverse[a]] for a in range(g.order))
            checked += 1
        assert checked > 50

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_every_reduced_latin_square(self, order):
        squares = reduced_latin_squares(order)
        assert len(squares) == {2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}[order]
        for table in squares:
            assert_agrees(table)

    @pytest.mark.parametrize("group", [cyclic(2), cyclic(3), dihedral(3)], ids=str)
    def test_loop_times_group(self, group):
        # Element 1 of LOOP5 x G lies in G, which associates with
        # everything, so a validator must not stop after one generator.
        for table in (product_table(LOOP5, group.cayley), product_table(group.cayley, LOOP5)):
            for seed in range(3):
                assert_agrees(relabelled(table, random.Random(seed))[0])
            assert_agrees(table)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_intercalate_swap_mutants(self, data):
        table = [list(row) for row in data.draw(st.sampled_from(SMALL_GROUPS)).cayley]
        for _ in range(data.draw(st.integers(1, 3))):
            cells = intercalates(table)
            if not cells:
                break
            table = swapped(table, data.draw(st.sampled_from(cells)))
        assert_agrees(table)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_entry_mutants(self, data):
        table = [list(row) for row in data.draw(st.sampled_from(SMALL_GROUPS)).cayley]
        n = len(table)
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        table[r][c] = data.draw(st.integers(-1, n).filter(lambda v: v != table[r][c]))
        assert_agrees(table)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_latin_rows_arbitrary_columns(self, data):
        # Identity row and column 0 and every row a permutation: only
        # such tables reach the column and inverse checks, which a group
        # table never needs.  Intercalate swaps keep the columns Latin.
        if data.draw(st.booleans()):
            n = data.draw(st.integers(2, 7))
            table = [list(range(n))] + [
                [a, *data.draw(st.permutations([v for v in range(1, n) if v != a] + [0]))]
                for a in range(1, n)
            ]
        else:
            table = [list(row) for row in data.draw(st.sampled_from(SMALL_GROUPS)).cayley]
            n = len(table)
            r, c1 = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 2))
            c2 = data.draw(st.integers(c1 + 1, n - 1))
            table[r][c1], table[r][c2] = table[r][c2], table[r][c1]
        assert_agrees(table)


class TestGreedyGenerators:
    def test_few_generators_that_generate(self, corpus):
        for g in corpus.values():
            gens = list(_greedy_generators(g.cayley))
            assert len(gens) <= math.log2(g.order)
            assert pairwise_generated_mask(g.cayley, sum(1 << y for y in gens)) == g.full_mask

    def test_validated_group_keeps_the_checked_generators(self, corpus, monkeypatch):
        # Light's test already finds the generators; the group must not
        # run the greedy closure again to get them.
        rng = random.Random(7)
        tables = [relabelled(g.cayley, rng)[0] for g in corpus.values() if g.order <= 64]
        assert len(tables) > 80
        for table in tables:
            h = validate_group(table)
            with monkeypatch.context() as m:
                m.setattr(groups, "_greedy_generators", lambda t: pytest.fail("recomputed"))
                gens = h.generators
            assert gens == tuple(_greedy_generators(h.cayley))

    def test_same_yields_as_the_set_closure_on_corpus(self, corpus):
        for g in corpus.values():
            got = list(_greedy_generators(g.cayley))
            assert got == list(set_greedy_generators(g.cayley)), g.name

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_yields_on_row_permutation_tables(self, data):
        # Validation runs the closure before associativity is known, so
        # it must agree on non-groups too, row 0 the identity or not.
        n = data.draw(st.integers(1, 12))
        rows = [tuple(data.draw(st.permutations(range(n)))) for _ in range(n)]
        if data.draw(st.booleans()):
            rows[0] = tuple(range(n))
        table = tuple(rows)
        assert list(_greedy_generators(table)) == list(set_greedy_generators(table))

    def test_large_relabelled_tables(self):
        rng = random.Random(512)
        for g in (dihedral(256), generalized_quaternion(9)):
            table, perm = relabelled(g.cayley, rng)
            h = validate_group(table)
            assert all(h.inverse[perm[a]] == perm[g.inverse[a]] for a in range(g.order))
            assert len(list(_greedy_generators(h.cayley))) <= 9
