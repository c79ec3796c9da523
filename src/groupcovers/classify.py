"""Structural recognition of the groups whose irredundant covers all
have one size, plus corpus-level consistency checks.

The decision procedure looks for G = H x C with C cyclic of coprime
order and H one of three recognized shapes: elementary abelian of rank
2, the quaternion group of order 8, or a nonabelian split extension of
a prime-order group by a coprime cyclic group.  Both factors are normal
Hall subgroups, and a normal Hall subgroup is the set of all elements
whose orders divide its order, so element orders replace the lattice.
Lemma: let d be a Hall divisor of |G| and e = |G|/d.  If e elements
have order dividing e and one has order e, they form a cyclic subgroup
C, normal since element orders are class invariants.  By Schur-Zassenhaus
C has a complement of order d, inside the set H of elements of order
dividing d; so if |H| = d, H is that complement, normal too, and
G = H x C.  H is not cyclic, as G is not, so its shape is read off
its order and element counts by order, never by isomorphism search.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple

from .arith import is_prime, prime_divisors
from .covers import (
    _cover_universe, _maximal_cyclic_generators, _min_set_cover, _require_noncyclic,
    _sigma, lambda_, one_sized_bruteforce,
)
from .errors import NotSolvable, PreconditionViolation
from .groups import Group, iter_bits, per_group
from .lattice import (
    Subgroup,
    _check_prime_divisor,
    _orders_mask,
    all_subgroups,
    chief_series,
    cyclic_subgroups,
    has_normal_p_complement,
    is_solvable,
    maximal_masks,
    maximal_subgroups,
    normal_subgroups,
)


class FamilyTag(NamedTuple):
    """Which recognized shape the H factor has."""

    kind: str  # "CpTimesCp" | "Q8" | "CpRtimesCn"
    p: int | None = None
    n: int | None = None


class ClassificationOutcome(NamedTuple):
    one_sized: bool
    family: FamilyTag | None
    witness_h: Subgroup | None
    witness_c: Subgroup | None


def _recognize_family(group: Group, h: Subgroup) -> FamilyTag | None:
    """H's shape, for H not cyclic: so order 8 and one involution make
    it Q8, and C_p x| C_n with p, n coprime is nonabelian."""
    m = h.order
    orders = [group.element_orders[x] for x in iter_bits(h.members)]

    root = isqrt(m)
    if root * root == m and is_prime(root):
        if all(o in (1, root) for o in orders):
            return FamilyTag("CpTimesCp", p=root)

    if m == 8 and orders.count(2) == 1:
        return FamilyTag("Q8")

    for p in prime_divisors(m):
        n = m // p
        if n < 2 or n % p == 0:
            continue
        # p does not divide n: H has a normal Sylow p-subgroup iff it has
        # one subgroup of order p, i.e. p - 1 elements of order p
        if orders.count(p) == p - 1 and n in orders:
            return FamilyTag("CpRtimesCn", p=p, n=n)
    return None


@per_group
def classify(group: Group) -> ClassificationOutcome:
    """Decide one-sizedness structurally, returning the witnesses.

    Tries the Hall divisors d of |G| in ascending order, H and C being
    the elements of order dividing d and |G|/d; C may be trivial.
    """
    _require_noncyclic(group)
    for d in range(1, group.order + 1):
        e = group.order // d
        if group.order % d or gcd(d, e) != 1 or e not in group.order_masks:
            continue
        c = _orders_mask(group, lambda o: e % o == 0)
        h = _orders_mask(group, lambda o: d % o == 0)
        if c.bit_count() != e or h.bit_count() != d:
            continue
        witness_h = Subgroup(h, d, True)
        family = _recognize_family(group, witness_h)
        if family is not None:
            return ClassificationOutcome(True, family, witness_h, Subgroup(c, e, True))
    return ClassificationOutcome(False, None, None, None)


class ClassificationAgreement(NamedTuple):
    structural: ClassificationOutcome
    bruteforce: bool
    lambda_value: int
    sigma_value: int

    @property
    def agreement(self) -> bool:
        return self.structural.one_sized == self.bruteforce


def verify_classification(group: Group) -> ClassificationAgreement:
    """Run the structural decision and the cover-based one side by side."""
    outcome = classify(group)
    brute = one_sized_bruteforce(group)
    return ClassificationAgreement(
        structural=outcome,
        bruteforce=brute,
        lambda_value=lambda_(group),
        sigma_value=_sigma(group),
    )


# ---------------------------------------------------------------------------
# Chief-factor centrality versus normal p-complements


def _verdict(hypothesis: bool, conclusion: bool) -> str:
    """Vacuous if the hypothesis fails, else consistent iff the conclusion holds."""
    if not hypothesis:
        return "vacuous"
    return "consistent" if conclusion else "violation"


class PNilpotenceCheck(NamedTuple):
    prime: int
    hypothesis_holds: bool
    conclusion_holds: bool
    status: str  # "consistent" | "vacuous" | "violation"


def check_p_nilpotence(group: Group, p: int) -> PNilpotenceCheck:
    """If every complemented chief factor of p-power order is central,
    the group must have a normal p-complement.  Records both truths."""
    p = _check_prime_divisor(group, p)
    if not is_solvable(group):
        raise NotSolvable("chief-factor centrality check needs a solvable group")
    hypothesis = all(
        f.is_central
        for f in chief_series(group)
        if f.is_complemented and f.prime == p
    )
    conclusion = has_normal_p_complement(group, p)
    return PNilpotenceCheck(p, hypothesis, conclusion, _verdict(hypothesis, conclusion))


# ---------------------------------------------------------------------------
# Abelian minimum-size covers force solvability


class AbelianCoverCheck(NamedTuple):
    sigma: int
    abelian_cover_exists: bool
    solvable: bool
    status: str


# Lemma: elements that commute pairwise generate an abelian subgroup,
# proper when G is not abelian, and a family covers G exactly when it
# holds every maximal-cyclic generator (see covers.py).  So an abelian
# cover of size <= k exists exactly when <= k maximal cliques of the
# generators' commuting graph hold all of them: each member's generators
# form a clique, inside a maximal one, and each maximal clique generates
# an abelian proper subgroup that holds it.


def _commuting_cliques(group: Group) -> list[int]:
    """The maximal cliques of the commuting graph on the maximal-cyclic
    generators, each as the mask of its generators (Bron and Kerbosch,
    CACM 16, 1973, with Tomita's pivot: TCS 363, 2006)."""
    t = group.cayley
    gens = _maximal_cyclic_generators(group)
    nbrs = [0] * len(gens)  # nbrs[i]: the nodes commuting with node i
    for i, x in enumerate(gens):
        row = t[x]
        for j in range(i + 1, len(gens)):
            y = gens[j]
            if row[y] == t[y][x]:
                nbrs[i] |= 1 << j
                nbrs[j] |= 1 << i
    out: list[int] = []

    def expand(a: int, cands: int, done: int) -> None:
        """a: the clique's generators; cands, done: nodes it may still
        take, and nodes whose cliques were all reported already."""
        if not cands:
            if not done:
                out.append(a)
            return
        pivot = max(
            iter_bits(cands | done), key=lambda v: (cands & nbrs[v]).bit_count()
        )
        for v in iter_bits(cands & ~nbrs[pivot]):
            expand(a | 1 << gens[v], cands & nbrs[v], done & nbrs[v])
            cands &= ~(1 << v)
            done |= 1 << v

    expand(0, (1 << len(gens)) - 1, 0)
    return out


def check_abelian_sigma_cover(group: Group) -> AbelianCoverCheck:
    """Does some cover of minimum size consist of abelian subgroups?

    Existence must imply solvability.  Every subgroup of an abelian G is
    abelian and G is solvable, so sigma's own minimum cover answers.
    Otherwise the search runs exact set cover, capped at sigma, of the
    maximal-cyclic generators (see covers.py) by the maximal cliques of
    their commuting graph, by the lemma above.
    """
    sig = _sigma(group)
    if group.is_abelian:
        return AbelianCoverCheck(sig, True, True, _verdict(True, True))
    cliques = _commuting_cliques(group)
    found = _min_set_cover(_cover_universe(group), sorted(cliques), limit=sig)
    exists = found is not None
    solvable = is_solvable(group)
    return AbelianCoverCheck(sig, exists, solvable, _verdict(exists, solvable))


# ---------------------------------------------------------------------------
# Quotient invariants of one-sized groups


class QuotientCheckItem(NamedTuple):
    normal_order: int
    quotient_order: int
    sigma_quotient: int
    lambda_quotient: int


class QuotientInvariantsCheck(NamedTuple):
    sigma: int
    items: tuple[QuotientCheckItem, ...]
    status: str


def check_quotient_invariants(group: Group) -> QuotientInvariantsCheck:
    """For a one-sized group, every non-cyclic quotient must again have
    minimum cover size sigma(G) and exactly sigma(G) maximal cyclic
    subgroups.

    Lemma: the maximal subgroups of G/N are the M/N, M maximal in G above
    N, and every maximal cyclic subgroup of G/N is the image <x>N/N of a
    maximal cyclic <x> of G.  So sigma(G/N) is a least cover of G (of its
    maximal-cyclic generators) by those M, and lambda(G/N) counts the
    maximal sets among the <x>N; G/N is cyclic if G is one.  N being
    normal, <x>N is the one subgroup of order |N||x|/|N & <x>| above
    N | <x>, found among the subgroups of that order.
    """
    if not one_sized_bruteforce(group):
        raise PreconditionViolation(
            "quotient invariants only apply to one-sized groups"
        )
    sig = _sigma(group)
    of_order: dict[int, list[int]] = {}
    for s in all_subgroups(group):
        of_order.setdefault(s.order, []).append(s.members)
    maximals = [s.members for s in maximal_subgroups(group)]
    cyclics = [c.subgroup for c in cyclic_subgroups(group) if c.is_maximal]
    universe = _cover_universe(group)
    items = []
    for n in normal_subgroups(group):
        images = set()
        for x in cyclics:
            size = n.order * x.order // (n.members & x.members).bit_count()
            union = n.members | x.members
            images.add(next(m for m in of_order[size] if union & ~m == 0))
        if group.full_mask in images:
            continue
        above = [m for m in maximals if n.members & ~m == 0]
        same = len(above) == len(maximals)  # sigma(G)'s own set-cover instance
        qsig = sig if same else _min_set_cover(universe, above)[0]
        qlam = len(maximal_masks(list(images)))
        items.append(QuotientCheckItem(n.order, group.order // n.order, qsig, qlam))
    ok = all(it.sigma_quotient == sig == it.lambda_quotient for it in items)
    return QuotientInvariantsCheck(sig, tuple(items), _verdict(True, ok))


def _pnilp_status(group: Group) -> str:
    """Hypothesis: some prime's holds; conclusion: each such prime's holds."""
    primes = prime_divisors(group.order) if is_solvable(group) else ()
    checks = [check_p_nilpotence(group, p) for p in primes]
    held = [c for c in checks if c.hypothesis_holds]
    return _verdict(bool(held), all(c.conclusion_holds for c in held))


# Check id -> status on a non-cyclic group.  The entries read the check_*
# functions from the module globals when called, not at import.
_CHECKS = {
    "lemma-pnilp": _pnilp_status,
    "bryce-serena": lambda group: check_abelian_sigma_cover(group).status,
    "osclemma-quotients": lambda group: (
        check_quotient_invariants(group).status
        if one_sized_bruteforce(group)
        else _verdict(False, True)  # the lemma is about one-sized groups
    ),
}
