import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import groupcovers
from groupcovers import (
    Group,
    InvalidParameters,
    MalformedCycle,
    MissingInverse,
    NoIdentityAtZero,
    NotAssociative,
    NotLatinSquare,
    OrderBoundExceeded,
    alternating,
    classify,
    cover_enumeration_stats,
    cyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    generalized_quaternion,
    quotient,
    run_analyze,
    semidirect_cp_cn,
    sigma_exact,
    symmetric,
    validate_group,
)
from groupcovers.covers import DEFAULT_ENUM_BOUND
from groupcovers.groups import mask_of

from _oracles import element_order, find_isomorphism, power_masks


class TestValidation:
    def test_trivial_group(self):
        g = validate_group([[0]])
        assert g.order == 1

    def test_ragged_table_rejected(self):
        with pytest.raises(InvalidParameters):
            validate_group([[0, 1], [1]])

    def test_empty_table_rejected(self):
        with pytest.raises(InvalidParameters):
            validate_group([])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidParameters):
            validate_group([[0, 1]])

    def test_identity_must_sit_at_zero(self):
        # C2 with the identity labelled 1 instead of 0
        with pytest.raises(NoIdentityAtZero):
            validate_group([[1, 0], [0, 1]])

    def test_out_of_range_entry(self):
        with pytest.raises(NotLatinSquare):
            validate_group([[0, 1], [1, 2]])

    def test_negative_entry(self):
        # range-checked before any lookup, where -1 would wrap to 1
        with pytest.raises(NotLatinSquare) as exc:
            validate_group([[0, 1], [1, -1]])
        assert (exc.value.axis, exc.value.index) == ("row", 1)

    def test_float_entry_rejected(self):
        # 0.5 must not truncate to 0 and pass as C2
        with pytest.raises(InvalidParameters):
            validate_group([[0, 1], [1, 0.5]])

    def test_string_entry_rejected(self):
        with pytest.raises(InvalidParameters):
            validate_group([["0", "1"], ["1", "0"]])

    def test_repeated_entry_in_row(self):
        with pytest.raises(NotLatinSquare) as exc:
            validate_group([[0, 1, 2], [1, 1, 0], [2, 0, 1]])
        assert exc.value.axis == "row"

    def test_repeated_entry_in_column(self):
        # rows are permutations but column 1 repeats; found after rows pass
        table = [
            [0, 1, 2, 3],
            [1, 0, 3, 2],
            [2, 3, 0, 1],
            [3, 0, 1, 2],
        ]
        with pytest.raises(NotLatinSquare) as exc:
            validate_group(table)
        assert exc.value.axis == "column"

    def test_one_sided_inverse_rejected(self):
        # Latin square with identity where 2's right inverse 3 is not a
        # left inverse
        table = [
            [0, 1, 2, 3, 4],
            [1, 2, 0, 4, 3],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 0, 3, 1, 2],
        ]
        with pytest.raises(MissingInverse):
            validate_group(table)

    def test_nonassociative_loop_rejected(self):
        # every element self-inverse; an associative table with that
        # property would be abelian of exponent 2, impossible at order 5
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(NotAssociative) as exc:
            validate_group(table)
        a, b, c = exc.value.witness
        t = table
        assert t[t[a][b]][c] != t[a][t[b][c]]

    def test_order_bound(self):
        with pytest.raises(OrderBoundExceeded):
            cyclic(513)
        with pytest.raises(OrderBoundExceeded):
            dihedral(257)  # order 514
        # no Latin square, but its size is checked first
        with pytest.raises(OrderBoundExceeded):
            validate_group([[0] * 513] * 513)

    def test_order_bound_checked_before_any_entry(self):
        class Unreadable:
            def __len__(self):
                return 600

            def __iter__(self):
                raise AssertionError("row read before the size check")

        with pytest.raises(OrderBoundExceeded):
            validate_group([Unreadable()] * 600)


class TestPermutationParsing:
    def test_identity_generator(self):
        g = from_permutation_generators(3, ["()"])
        assert g.order == 1

    def test_no_generators(self):
        g = from_permutation_generators(4, [])
        assert g.order == 1

    def test_comma_separated_points(self):
        g = from_permutation_generators(3, ["(1,2,3)"])
        assert g.order == 3

    def test_point_out_of_range(self):
        with pytest.raises(MalformedCycle):
            from_permutation_generators(3, ["(1 4)"])

    def test_zero_point_rejected(self):
        with pytest.raises(MalformedCycle):
            from_permutation_generators(3, ["(0 1)"])

    def test_repeated_point(self):
        with pytest.raises(MalformedCycle):
            from_permutation_generators(4, ["(1 2)(2 3)"])

    def test_int_sequence_generator(self):
        g = from_permutation_generators(3, [(1, 2, 0), [1, 0, 2]])
        assert g.order == 6

    def test_float_point_rejected(self):
        with pytest.raises(MalformedCycle):
            from_permutation_generators(2, [[1.5, 0]])
        with pytest.raises(MalformedCycle):
            from_permutation_generators(2, [[1.0, 0.0]])

    def test_int_sequence_must_be_a_permutation(self):
        with pytest.raises(MalformedCycle, match="is not a permutation of 0..2"):
            from_permutation_generators(3, [[0, 0, 1]])

    def test_string_point_rejected(self):
        with pytest.raises(MalformedCycle):
            from_permutation_generators(2, [["1", "0"]])

    @pytest.mark.parametrize("generators", [None, 5])
    def test_non_iterable_generators_rejected(self, generators):
        with pytest.raises(InvalidParameters, match=f"generators {generators} is not iterable"):
            from_permutation_generators(3, generators)

    def test_bare_string_of_generators_rejected(self):
        # it was read one character at a time, "(" first
        with pytest.raises(InvalidParameters, match="a sequence of permutations, not a str"):
            from_permutation_generators(3, "(1 2)")

    def test_generators_from_a_generator(self):
        g = from_permutation_generators(3, (c for c in ["(1 2)", "(1 2 3)"]))
        assert g.order == 6

    def test_garbage_rejected(self):
        with pytest.raises(MalformedCycle):
            from_permutation_generators(3, ["(1 2) junk"])
        with pytest.raises(MalformedCycle):
            from_permutation_generators(3, ["(1 x)"])

    def test_closure_order(self):
        g = from_permutation_generators(4, ["(1 2 3 4)", "(1 2)"])
        assert g.order == 24


class TestPresets:
    @pytest.mark.parametrize(
        "make,args,order",
        [
            (cyclic, (1,), 1),
            (cyclic, (12,), 12),
            (dihedral, (1,), 2),
            (dihedral, (4,), 8),
            (dihedral, (12,), 24),
            (generalized_quaternion, (3,), 8),
            (generalized_quaternion, (5,), 32),
            (symmetric, (1,), 1),
            (symmetric, (4,), 24),
            (alternating, (2,), 1),
            (alternating, (3,), 3),
            (alternating, (4,), 12),
            (alternating, (5,), 60),
            (semidirect_cp_cn, (3, 4, 2), 12),
            (semidirect_cp_cn, (5, 4, 2), 20),
            (semidirect_cp_cn, (13, 4, 5), 52),
        ],
    )
    def test_orders(self, make, args, order):
        assert make(*args).order == order

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            cyclic(0)
        with pytest.raises(InvalidParameters):
            dihedral(0)
        with pytest.raises(InvalidParameters):
            generalized_quaternion(2)
        with pytest.raises(InvalidParameters):
            semidirect_cp_cn(4, 2, 1)  # p not prime
        with pytest.raises(InvalidParameters):
            semidirect_cp_cn(5, 3, 2)  # 2^3 != 1 mod 5
        with pytest.raises(InvalidParameters):
            semidirect_cp_cn(5, 4, 5)  # l out of range
        with pytest.raises(InvalidParameters, match="n must be at least 1"):
            semidirect_cp_cn(3, 0, 1)

    @pytest.mark.parametrize(
        "make,args,message",
        [
            (cyclic, (0,), "cyclic group order must be at least 1"),
            (cyclic, (-7,), "cyclic group order must be at least 1"),
            (dihedral, (0,), "dihedral parameter must be at least 1"),
            (symmetric, (0,), "symmetric degree must lie in 1..512"),
            (symmetric, (513,), "symmetric degree must lie in 1..512"),
            (alternating, (0,), "alternating degree must lie in 1..512"),
            (alternating, (513,), "alternating degree must lie in 1..512"),
            (from_permutation_generators, (0, []), "permutation degree must lie in 1..512"),
            (from_permutation_generators, (513, []), "permutation degree must lie in 1..512"),
            (semidirect_cp_cn, (3, 0, 1), "n must be at least 1"),
            (semidirect_cp_cn, (3, -2, 1), "n must be at least 1"),
            # both n and l are bad: l is read before n
            (semidirect_cp_cn, (3, 0.5, "2"), "twist l must be an integer, not '2'"),
        ],
    )
    def test_range_messages(self, make, args, message):
        with pytest.raises(InvalidParameters) as info:
            make(*args)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "make,args,default",
        [
            (cyclic, (4,), "C4"),
            (dihedral, (4,), "D8"),
            (generalized_quaternion, (3,), "Q8"),
            (symmetric, (3,), "S3"),
            (alternating, (4,), "A4"),
            (semidirect_cp_cn, (3, 4, 2), "C3:C4[2]"),
            (direct_product, (cyclic(2), cyclic(3)), "C2 x C3"),
            (from_permutation_generators, (3, ["(1 2)"]), "G2"),
            (validate_group, (((0, 1), (1, 0)),), "G2"),
        ],
    )
    def test_name_is_kept_and_defaults_only_for_none(self, make, args, default):
        assert make(*args).name == make(*args, name=None).name == default
        assert make(*args, name="").name == ""
        assert make(*args, name="G").name == "G"
        for name in (0, 5, b"C4", ["C4"]):
            with pytest.raises(InvalidParameters, match="group name must be a str"):
                make(*args, name=name)

    def test_dihedral_matches_symmetric(self):
        a, b = dihedral(3), symmetric(3)
        assert find_isomorphism(a.cayley, b.cayley) is not None

    def test_cpcn_trivial_twist_is_abelian(self):
        g = semidirect_cp_cn(7, 3, 1)
        assert g.is_abelian and g.is_cyclic  # C7 x C3 = C21

    def test_quaternion_has_unique_involution(self):
        for k in (3, 4, 5):
            g = generalized_quaternion(k)
            assert sum(1 for x in range(g.order) if g.element_order(x) == 2) == 1

    def test_element_orders_dic3(self):
        g = semidirect_cp_cn(3, 4, 2)
        assert sorted(g.element_orders) == [1, 2, 3, 3, 4, 4, 4, 4, 4, 4, 6, 6]

    @pytest.mark.parametrize(
        "make",
        [lambda: cyclic(512), lambda: dihedral(256), lambda: generalized_quaternion(9)],
        ids=["C512", "D512", "Q512"],
    )
    def test_power_walk_at_the_order_bound(self, make):
        assert power_walk_disagreements(make()) == []

    def test_semidirect_conjugation_twist(self):
        # generator of the cyclic complement must conjugate the normal
        # C5 generator to its l-th power
        g = semidirect_cp_cn(5, 4, 2)
        x, a = 1, 5  # element 1 generates C5, element p=5 is the twist
        assert g.element_order(x) == 5
        assert g.conjugate(x, a) in (g.power(x, 2),)


def power_walk_disagreements(g: Group) -> list[str]:
    """Where cyclic_masks or element_orders differ from every element's
    own power walk."""
    t = g.cayley
    wrong = []
    if list(g.cyclic_masks) != power_masks(t):
        wrong.append("cyclic_masks")
    if list(g.element_orders) != [element_order(t, x) for x in range(g.order)]:
        wrong.append("element_orders")
    return wrong


def test_power_walk_matches_oracle_on_corpus(corpus):
    wrong = {name: w for name, g in corpus.items() if (w := power_walk_disagreements(g))}
    assert not wrong


class TestProductsAndQuotients:
    def test_direct_product_order(self):
        g = direct_product(dihedral(4), cyclic(3))
        assert g.order == 24

    def test_coprime_cyclic_product_is_cyclic(self):
        g = direct_product(cyclic(4), cyclic(3))
        assert g.is_cyclic

    def test_non_coprime_product_not_cyclic(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert not g.is_cyclic and g.exponent == 2

    def test_quotient_s4_by_v4(self):
        s4 = symmetric(4)
        v4 = next(
            m
            for m in _normal_masks(s4)
            if bin(m).count("1") == 4
        )
        q, hom = quotient(s4, v4)
        assert q.order == 6
        assert find_isomorphism(q.cayley, symmetric(3).cayley) is not None
        for a in range(s4.order):
            for b in range(s4.order):
                assert hom(s4.mul(a, b)) == q.mul(hom(a), hom(b))

    def test_quotient_by_trivial(self):
        g = dihedral(4)
        q, hom = quotient(g, 1)
        assert q.order == g.order
        assert find_isomorphism(q.cayley, g.cayley) is not None

    def test_center_of_d8(self):
        g = dihedral(4)
        assert bin(g.center).count("1") == 2

    def test_commutator_identity(self):
        g = symmetric(4)
        for a in (1, 5, 17):
            for b in (2, 9, 23):
                lhs = g.commutator(a, b)
                rhs = g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
                assert lhs == rhs

    def test_exponent(self):
        assert symmetric(3).exponent == 6
        assert generalized_quaternion(3).exponent == 4


def _normal_masks(group: Group):
    from groupcovers.lattice import normal_subgroups

    return [s.members for s in normal_subgroups(group)]


def test_import_loads_no_numpy():
    # The library has no runtime dependencies; tables are plain tuples.
    code = "import sys, groupcovers; print('numpy' in sys.modules)"
    src = str(Path(groupcovers.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"


def test_mask_helper():
    assert mask_of([0, 2, 5]) == 0b100101


class TestPerGroupMemo:
    # D8xC3 is not one-sized; S3xC5 is, so run_analyze also builds its
    # quotients.
    @pytest.mark.parametrize("make, k, n", [(dihedral, 4, 3), (symmetric, 3, 5)])
    def test_group_is_freed_after_analysis(self, make, k, n):
        g = direct_product(make(k), cyclic(n))
        run_analyze(g)
        classify(g)
        sigma_exact(g)
        cover_enumeration_stats(g)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None

    def test_one_entry_per_meaning(self):
        g = dihedral(4)
        before = cover_enumeration_stats.cache_info()
        first = cover_enumeration_stats(g)
        assert cover_enumeration_stats(g, None) is first
        assert cover_enumeration_stats(g, enum_bound=DEFAULT_ENUM_BOUND) is first
        after = cover_enumeration_stats.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 2
