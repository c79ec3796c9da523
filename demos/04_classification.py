"""Which groups have irredundant covers of only one size?

The answer is a short list: C_p x C_p, the quaternion group of order 8,
and nonabelian C_p x| C_n with coprime p and n; each optionally times a
cyclic group of coprime order.  classify() recognizes the shape from
element orders alone (both factors are normal Hall subgroups), without
a subgroup lattice or enumerating covers, and verify_classification()
compares it with the cover-based answer, lambda == sigma.
"""

from groupcovers import (
    check_p_nilpotence,
    check_quotient_invariants,
    classify,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    prime_divisors,
    semidirect_cp_cn,
    symmetric,
    verify_classification,
)

candidates = [
    direct_product(cyclic(3), cyclic(3)),
    generalized_quaternion(3),
    semidirect_cp_cn(5, 4, 2),
    direct_product(symmetric(3), cyclic(5)),
    # and three near misses
    direct_product(direct_product(cyclic(2), cyclic(2)), cyclic(2), name="E8"),
    generalized_quaternion(4),
    direct_product(symmetric(3), cyclic(6)),
]

for g in candidates:
    out = classify(g)
    if out.one_sized:
        extra = "" if out.witness_c.order == 1 else f" x C{out.witness_c.order}"
        fam = out.family.kind
        if out.family.p is not None:
            fam += f"(p={out.family.p}" + (
                f", n={out.family.n})" if out.family.n else ")"
            )
        print(f"{g.name:12s} one-sized: {fam}{extra}")
    else:
        print(f"{g.name:12s} not one-sized")

# The two decision procedures always agree.
res = verify_classification(generalized_quaternion(3))
print(
    f"\nQ8 agreement: structural={res.structural.one_sized}"
    f" bruteforce={res.bruteforce} (sigma={res.sigma_value}, lambda={res.lambda_value})"
)

# One-sized groups pass their quotient test: every non-cyclic quotient
# keeps the same sigma and the same number of maximal cyclic subgroups.
q = check_quotient_invariants(semidirect_cp_cn(5, 4, 2))
print(f"F20 quotient invariants: {q.status}, {len(q.items)} non-cyclic quotient(s)")

# Side check relating chief factors to normal p-complements.
g = dihedral(6)
for p in prime_divisors(g.order):
    print(f"{g.name} at p={p}: {check_p_nilpotence(g, p).status}")
