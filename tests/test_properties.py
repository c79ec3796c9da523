"""Property-based checks: invariance under relabeling, Lagrange-style
divisibility, quotient homomorphisms, and the chief-factor formula
against the exact solver on randomly assembled small groups.
"""

from hypothesis import given, settings, strategies as st

from groupcovers import (
    all_subgroups,
    alternating,
    classify,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    is_solvable,
    lambda_,
    normal_subgroups,
    quotient,
    semidirect_cp_cn,
    sigma_exact,
    sigma_tomkinson,
    symmetric,
    validate_group,
)

from _oracles import element_order, power_masks

# one shared pool so lattice caches stay warm across examples
POOL = [
    cyclic(1), cyclic(2), cyclic(6), cyclic(8), cyclic(12), cyclic(15),
    cyclic(24), cyclic(30),
    dihedral(2), dihedral(3), dihedral(4), dihedral(5), dihedral(6),
    dihedral(9), dihedral(12),
    generalized_quaternion(3), generalized_quaternion(4),
    symmetric(3), symmetric(4), alternating(4), alternating(5),
    semidirect_cp_cn(3, 4, 2), semidirect_cp_cn(5, 4, 2),
    semidirect_cp_cn(7, 3, 2), semidirect_cp_cn(7, 6, 3),
    semidirect_cp_cn(13, 4, 5),
    direct_product(cyclic(2), cyclic(2)),
    direct_product(cyclic(3), cyclic(3)),
    direct_product(cyclic(4), cyclic(2)),
    direct_product(cyclic(4), cyclic(4)),
    direct_product(symmetric(3), cyclic(5)),
    direct_product(generalized_quaternion(3), cyclic(3)),
    direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2)),
]

SMALL = [g for g in POOL if g.order <= 16]

groups = st.sampled_from(POOL)
small_groups = st.sampled_from(SMALL)


@st.composite
def relabelings(draw):
    g = draw(small_groups)
    rest = draw(st.permutations(range(1, g.order)))
    pi = [0, *rest]
    n = g.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[pi[a]][pi[b]] = pi[g.cayley[a][b]]
    return g, validate_group(table, name=f"{g.name}'")


@given(relabelings())
@settings(deadline=None, max_examples=60)
def test_relabeling_preserves_everything(pair):
    g, h = pair
    assert sorted(g.element_orders) == sorted(h.element_orders)
    assert g.is_cyclic == h.is_cyclic
    assert is_solvable(g) == is_solvable(h)
    if g.is_cyclic:
        assert sigma_exact(h).is_infinite
    else:
        assert sigma_exact(g) == sigma_exact(h)
        assert lambda_(g) == lambda_(h)
        assert classify(g).one_sized == classify(h).one_sized


@given(relabelings())
@settings(deadline=None, max_examples=60)
def test_power_walk_matches_oracle_on_relabelled_tables(pair):
    _, h = pair
    assert list(h.cyclic_masks) == power_masks(h.cayley)
    assert list(h.element_orders) == [element_order(h.cayley, x) for x in range(h.order)]


@given(groups)
@settings(deadline=None)
def test_lagrange(g):
    for s in all_subgroups(g):
        assert g.order % s.order == 0
    for x in range(g.order):
        assert g.order % g.element_order(x) == 0


@given(groups, st.data())
@settings(deadline=None)
def test_quotient_homomorphism(g, data):
    normals = normal_subgroups(g)
    n = data.draw(st.sampled_from(normals), label="normal subgroup")
    q, hom = quotient(g, n.members)
    assert q.order * n.order == g.order
    a = data.draw(st.integers(0, g.order - 1), label="a")
    b = data.draw(st.integers(0, g.order - 1), label="b")
    assert hom(g.mul(a, b)) == q.mul(hom(a), hom(b))
    assert hom(0) == 0


@given(small_groups, st.data())
@settings(deadline=None)
def test_subgroup_closure(g, data):
    s = data.draw(st.sampled_from(all_subgroups(g)), label="subgroup")
    members = [x for x in range(g.order) if (s.members >> x) & 1]
    a = data.draw(st.sampled_from(members), label="a")
    b = data.draw(st.sampled_from(members), label="b")
    assert (s.members >> g.mul(a, b)) & 1
    assert (s.members >> g.inv(a)) & 1


@given(groups)
@settings(deadline=None)
def test_chief_factor_formula_agrees_with_exact_search(g):
    if g.is_cyclic or not is_solvable(g):
        return
    assert sigma_tomkinson(g) == sigma_exact(g)


@st.composite
def cpcn_parameters(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    l = draw(st.integers(1, p - 1))
    d, power = 1, l % p
    while power != 1:
        power = power * l % p
        d += 1
    n = d * draw(st.integers(1, 2))
    if n == 1:
        n = 2
    return p, n, l


@given(cpcn_parameters())
@settings(deadline=None)
def test_cpcn_twist(params):
    p, n, l = params
    g = semidirect_cp_cn(p, n, l)
    assert g.order == p * n
    # 1 generates the normal C_p, p indexes the twisting generator
    assert g.conjugate(1, p) == g.power(1, l)
    assert g.is_abelian == (l == 1)
    if l == 1:
        assert is_solvable(g)
