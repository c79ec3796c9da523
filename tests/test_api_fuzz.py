"""Fuzz the library's public entry points with arbitrary arguments.

Every argument that is not the Group is drawn from values of any shape:
None, bools, huge and negative ints, floats, str and bytes, lists of small
ints, integer-like objects, and a Subgroup or Cover of another group.  Each
call must return or raise a GroupCoversError; a bare TypeError or
AttributeError from deep inside the library fails the test.
"""

from hypothesis import event, given, settings, strategies as st

from groupcovers import (
    CHECK_IDS,
    AnalyzeOptions,
    GroupCoversError,
    all_subgroups,
    check_p_nilpotence,
    cover_enumeration_stats,
    cyclic,
    dihedral,
    direct_product,
    enumerate_irredundant_covers,
    frobenius_style_cover,
    from_permutation_generators,
    has_normal_p_complement,
    irredundant_cover_sizes,
    is_cover,
    is_irredundant,
    make_cover,
    minimal_cover,
    quotient,
    run_analyze,
    sylow_subgroup,
    symmetric,
)


class Index:
    """An integer-like value: it has __index__ and nothing else."""

    def __init__(self, n):
        self.n = n

    def __index__(self):
        return self.n

    def __repr__(self):
        return f"Index({self.n})"


GROUPS = [
    symmetric(3),
    direct_product(cyclic(2), cyclic(2), name="V4"),
    cyclic(4),
    dihedral(4),
]
_S4 = symmetric(4)
FOREIGN = [*all_subgroups(_S4), minimal_cover(_S4), minimal_cover(dihedral(6))]

VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.lists(st.integers(-2, 40), max_size=5)
    | st.builds(Index, st.integers(-3, 40))
    | st.sampled_from(FOREIGN)
)
CHECKS = VALUES | st.lists(st.sampled_from(CHECK_IDS), max_size=4)
GENERATORS = VALUES | st.lists(
    VALUES | st.sampled_from(["()", "(1 2)", "(1 2 3)", "(1 2)(3 4)", "(1 x)"]), max_size=3
)

# name -> (call on a group, a strategy per argument after the group)
ENTRY_POINTS = {
    "make_cover": (make_cover, [VALUES]),
    "is_cover": (is_cover, [VALUES]),
    "is_irredundant": (is_irredundant, [VALUES]),
    "frobenius_style_cover": (frobenius_style_cover, [VALUES, VALUES]),
    "quotient": (quotient, [VALUES]),
    "sylow_subgroup": (sylow_subgroup, [VALUES]),
    "has_normal_p_complement": (has_normal_p_complement, [VALUES]),
    "check_p_nilpotence": (check_p_nilpotence, [VALUES]),
    "cover_enumeration_stats": (
        lambda g, cap, bound: cover_enumeration_stats(g, cap, enum_bound=bound),
        [VALUES, VALUES],
    ),
    "enumerate_irredundant_covers": (
        lambda g, cap, bound: enumerate_irredundant_covers(g, cap, enum_bound=bound),
        [VALUES, VALUES],
    ),
    "irredundant_cover_sizes": (
        lambda g, bound: irredundant_cover_sizes(g, enum_bound=bound),
        [VALUES],
    ),
    "run_analyze": (
        lambda g, max_order, bound, checks: run_analyze(g, AnalyzeOptions(max_order, bound, checks)),
        [VALUES, VALUES, CHECKS],
    ),
    "from_permutation_generators": (
        lambda g, degree, generators: from_permutation_generators(degree, generators),
        [VALUES, GENERATORS],
    ),
}


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_entry_points_return_or_raise_a_library_error(data):
    group = data.draw(st.sampled_from(GROUPS), label="group")
    name = data.draw(st.sampled_from(sorted(ENTRY_POINTS)), label="entry point")
    call, strategies = ENTRY_POINTS[name]
    args = [data.draw(s, label=f"argument {i}") for i, s in enumerate(strategies, 1)]
    try:
        call(group, *args)
    except GroupCoversError as exc:
        event(f"{name}: {type(exc).__name__}")
    else:
        event(f"{name}: returned")
