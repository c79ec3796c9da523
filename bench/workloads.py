"""Workload inputs and the per-group work of each benchmark workload.

Three workloads, chosen so that each planned optimisation has one
workload that exercises it and one that bypasses it (see DESIGN.md):

* corpus64 -- the bundled catalog through run_verify_corpus with default
  options, the work of `groupcovers --json verify-corpus`.
* ladder   -- larger groups (every non-cyclic one above the enumeration
  bound 32) through run_verify_corpus at max-order 512: lattice-bound,
  the cover walk never runs.
* stream   -- seeded small groups handed over as raw, relabelled Cayley
  tables: the untrusted validation path and a cold cache per request.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("corpus64", "ladder", "stream")

# Entries of the ladder catalog.  C7xC7xC2, C13sC4xC3 and F42xC5 use the
# same construction lines as the bundled corpus; the cyclic and small
# non-cyclic entries before them exist only because a product names
# earlier entries.  D8xD8 is given by permutations so that no group of
# order <= 32 (which would run the cover walk) enters the ladder.
LADDER_CATALOG = """\
group C2
preset cyclic 2
order 2

group C3
preset cyclic 3
order 3

group C5
preset cyclic 5
order 5

group C7
preset cyclic 7
order 7

group C7xC7
preset product C7 C7
order 49

group C7xC7xC2
preset product C7xC7 C2
order 98

group C13sC4
preset cpcn 13 4 5
order 52

group C13sC4xC3
preset product C13sC4 C3
order 156

group F42
preset cpcn 7 6 3
order 42

group F42xC5
preset product F42 C5
order 210

group S5
preset sym 5
order 120

group A5
preset alt 5
order 60

group A5xC2
preset product A5 C2
order 120

group D8xD8
perm 8; (1 2 3 4); (1 3); (5 6 7 8); (5 7)
order 64
"""

LADDER_MAX_ORDER = 512

# --- stream ---------------------------------------------------------------

STREAM_MAX_ORDER = 48
STREAM_ENUM_BOUND = 32  # the library's default enumeration bound

# Random 2-generator permutation groups per pass, by isomorphism type.
# A type is told apart by its order and element-order histogram, which
# suffices for the 2-generated subgroups of S6 of order <= 48.  Fixing
# the mix keeps a pass's cost steady across seeds; the seed still picks
# the generators, hence the labelling of every table.
PERM_QUOTA = {
    (4, ((1, 1), (2, 3))): 4,  # V4
    (6, ((1, 1), (2, 3), (3, 2))): 12,  # S3
    (8, ((1, 1), (2, 5), (4, 2))): 10,  # D8
    (10, ((1, 1), (2, 5), (5, 4))): 4,  # D10
    (12, ((1, 1), (2, 3), (3, 8))): 12,  # A4
    (12, ((1, 1), (2, 7), (3, 2), (6, 2))): 6,  # D12
    (18, ((1, 1), (2, 3), (3, 8), (6, 6))): 3,  # C3xS3
    (20, ((1, 1), (2, 5), (4, 10), (5, 4))): 8,  # F20
    (24, ((1, 1), (2, 7), (3, 8), (6, 8))): 6,  # A4xC2
    (24, ((1, 1), (2, 9), (3, 8), (4, 6))): 30,  # S4
    (36, ((1, 1), (2, 9), (3, 8), (4, 18))): 4,  # C3^2:C4
    (36, ((1, 1), (2, 15), (3, 8), (6, 12))): 3,  # S3xS3
    (48, ((1, 1), (2, 19), (3, 8), (4, 12), (6, 8))): 6,  # S4xC2
}

# Small presets whose pairwise products join the stream.
PRODUCT_FACTORS = (
    ("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("cyclic", 5), ("cyclic", 6),
    ("cyclic", 8), ("dihedral", 2), ("dihedral", 3), ("dihedral", 4),
    ("dihedral", 5), ("dihedral", 6), ("quaternion", 3), ("sym", 3),
    ("sym", 4), ("alt", 4),
)


def _preset(gc, kind, *args):
    maker = {
        "cyclic": gc.cyclic,
        "dihedral": gc.dihedral,
        "quaternion": gc.generalized_quaternion,
        "sym": gc.symmetric,
        "alt": gc.alternating,
        "cpcn": gc.semidirect_cp_cn,
    }[kind]
    return maker(*args)


def cpcn_params(gc) -> list[tuple[int, int, int]]:
    """Every (p, n, l) accepted by `preset cpcn` with a non-cyclic group
    of order p*n <= STREAM_MAX_ORDER."""
    out = []
    for p in range(2, STREAM_MAX_ORDER + 1):
        if not gc.is_prime(p):
            continue
        for n in range(1, STREAM_MAX_ORDER // p + 1):
            for l in range(1, p):
                if pow(l, n, p) == 1 and not (l == 1 and math.gcd(p, n) == 1):
                    out.append((p, n, l))
    return out


def product_pairs(gc) -> list[tuple[tuple, tuple]]:
    """Pairs of small presets whose product has order <= 48 and either
    coprime factor orders or order above the enumeration bound.

    The excluded products (V4xV4, V4xD8, C2xD12, V4xS3, ...) are 2-heavy
    groups of order <= 32 whose counting walk takes from 1.5 s to more
    than 3 s each (V4xV4 = E16: about 16 s); one of them would outweigh
    the rest of a pass.  corpus64 carries that case through E16 and
    D12xC2.
    """
    orders = {f: _preset(gc, *f).order for f in PRODUCT_FACTORS}
    pairs = []
    for i, a in enumerate(PRODUCT_FACTORS):
        for b in PRODUCT_FACTORS[i:]:
            n = orders[a] * orders[b]
            if n <= STREAM_MAX_ORDER and (
                math.gcd(orders[a], orders[b]) == 1 or n > STREAM_ENUM_BOUND
            ):
                pairs.append((a, b))
    return pairs


def _perm_closure(degree: int, gens: list[tuple[int, ...]], cap: int):
    """Elements generated by gens, or None once more than cap appear."""
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[x] for x in p)
                if q not in seen:
                    if len(seen) >= cap:
                        return None
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _perm_type(elements) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(order, element-order histogram) of a permutation group."""
    histogram: dict[int, int] = {}
    for p in elements:
        identity = tuple(range(len(p)))
        k, q = 1, p
        while q != identity:
            q = tuple(p[x] for x in q)
            k += 1
        histogram[k] = histogram.get(k, 0) + 1
    return len(elements), tuple(sorted(histogram.items()))


def _random_perm_groups(gc, rng: random.Random) -> list:
    left = dict(PERM_QUOTA)
    out = []
    while any(left.values()):
        degree = rng.choice((4, 5, 6))
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(2)]
        elements = _perm_closure(degree, gens, STREAM_MAX_ORDER)
        if elements is None:
            continue
        kind = _perm_type(elements)
        if not left.get(kind):
            continue
        left[kind] -= 1
        out.append(gc.from_permutation_generators(degree, [list(g) for g in gens]))
    return out


def _relabelled_table(table, rng: random.Random) -> list[list[int]]:
    """The table with every non-identity element renamed at random."""
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(table):
        pa = out[perm[a]]
        for b, c in enumerate(row):
            pa[perm[b]] = perm[c]
    return out


def stream_inputs(gc, seed: int) -> list[tuple[str, list[list[int]]]]:
    """(name, raw Cayley table) for one stream pass, built from the seed.

    Every valid non-cyclic cpcn group and every product pair once, plus
    the seeded permutation groups; all relabelled and shuffled.
    """
    rng = random.Random(seed)
    groups = [_preset(gc, "cpcn", *pnl) for pnl in cpcn_params(gc)]
    groups += [
        gc.direct_product(_preset(gc, *a), _preset(gc, *b))
        for a, b in product_pairs(gc)
    ]
    groups = [g for g in groups if not g.is_cyclic]
    groups += _random_perm_groups(gc, rng)
    rng.shuffle(groups)
    return [
        (f"s{i:03d}-{g.name.replace(' ', '')}", _relabelled_table(g.cayley, rng))
        for i, g in enumerate(groups)
    ]


def stream_query(gc, name, table, walk_counts):
    """The library calls behind `sigma`, `lambda`, `classify` and
    `covers --enumerate` for one freshly validated group."""
    g = gc.validate_group(table, name)
    sigma = gc.sigma_exact(g)
    lam = gc.lambda_(g)
    outcome = gc.classify(g)
    solvable = gc.is_solvable(g)
    tomkinson = gc.sigma_tomkinson(g) if solvable else None
    stats = walk_counts(g) if g.order <= STREAM_ENUM_BOUND else None
    return g.order, sigma, lam, outcome, tomkinson, stats


def stream_answer(result) -> tuple[dict, list[str]]:
    """The comparable answer of one stream query and its cross-route
    disagreements (empty when the answers are consistent)."""
    order, sigma, lam, outcome, tomkinson, stats = result
    problems = []
    if sigma.value is None:
        problems.append("sigma is infinite for a non-cyclic group")
    if outcome.one_sized != (lam == sigma.value):
        problems.append(f"classify one_sized={outcome.one_sized} but lambda={lam}, sigma={sigma.value}")
    if tomkinson is not None and tomkinson != sigma:
        problems.append(f"sigma_tomkinson={tomkinson.value} != sigma_exact={sigma.value}")
    if stats is not None and (stats.min_size != sigma.value or stats.max_size != lam):
        problems.append(
            f"walk sizes {stats.min_size}..{stats.max_size} != sigma {sigma.value}..lambda {lam}"
        )
    answer = {
        "order": order,
        "sigma": sigma.value,
        "lambda": lam,
        "oneSized": outcome.one_sized,
        "family": None if outcome.family is None else outcome.family.kind,
        "tomkinson": None if tomkinson is None else tomkinson.value,
        "covers": None if stats is None else stats.cover_count,
        "sizes": None if stats is None else [list(sc) for sc in stats.size_counts],
    }
    return answer, problems
