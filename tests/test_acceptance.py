"""Acceptance gate: ten end-to-end criteria over the bundled corpus.

Each test prints one "[criterion NN] PASS/FAIL" line (visible with -s);
the test outcome itself carries the same verdict.  The corpus fixture is
session-scoped, so lattice and cover caches accumulate across criteria.
"""

import functools
import hashlib
import itertools
import json
import time

import pytest

from groupcovers import (
    AnalyzeOptions,
    all_subgroups,
    alternating,
    check_abelian_sigma_cover,
    check_p_nilpotence,
    check_quotient_invariants,
    classify,
    cli,
    cover_enumeration_stats,
    cyclic,
    dihedral,
    direct_product,
    enumerate_irredundant_covers,
    frobenius_style_cover,
    irredundant_cover_sizes,
    is_irredundant,
    is_solvable,
    lambda_,
    maximal_cyclic_family,
    maximal_cyclic_pairs_generate,
    one_sized_bruteforce,
    prime_divisors,
    semidirect_cp_cn,
    sigma_exact,
    sigma_tomkinson,
    symmetric,
)

from _oracles import (
    brute_irredundant_covers,
    brute_min_cover_size,
    brute_subgroup_masks,
)

ENUM_BOUND = 32
FULL_SUBSET_LIMIT = 17  # 2^m subsets is affordable up to here
CAPPED_SIZE = 4


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL - {desc}")
                raise
            print(f"[criterion {num:02d}] PASS - {desc}")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def noncyclic(corpus):
    return [g for g in corpus.values() if not g.is_cyclic]


def proper_nontrivial_masks(g):
    return [s.members for s in all_subgroups(g) if 1 < s.order < g.order]


@criterion(1, "sigma of the two smallest elementary abelian groups, under 1 s")
def test_criterion_01_smallest_sigma_values():
    start = time.perf_counter()
    assert sigma_exact(direct_product(cyclic(2), cyclic(2))).value == 3
    elapsed_v4 = time.perf_counter() - start
    start = time.perf_counter()
    assert sigma_exact(direct_product(cyclic(3), cyclic(3))).value == 4
    elapsed_e9 = time.perf_counter() - start
    assert elapsed_v4 < 1.0 and elapsed_e9 < 1.0


@criterion(2, "chief-factor formula equals exact search on all solvable corpus groups")
def test_criterion_02_tomkinson_equivalence(corpus):
    start = time.perf_counter()
    mismatches = []
    checked = 0
    for g in corpus.values():
        if g.is_cyclic or not is_solvable(g):
            continue
        checked += 1
        if sigma_tomkinson(g) != sigma_exact(g):
            mismatches.append(g.name)
    assert not mismatches
    assert checked >= 70
    assert time.perf_counter() - start < 300


POSITIVE_NAMES = [
    "V4", "E9", "C5xC5", "C7xC7",
    "Q8",
    "C3sC2", "F20", "F20b", "C7sC3", "F42", "C13sC4",
    "V4xC3", "E9xC2", "C5xC5xC2", "C7xC7xC2",
    "Q8xC3", "Q8xC5",
    "S3xC5", "F20xC3", "F20bxC3", "C7sC3xC2", "F42xC5", "C13sC4xC3",
]
NEGATIVE_NAMES = [
    "E8", "D8", "Q16", "Q32", "C4xC2",
    "S3xC6", "Dic3xC3", "F20xC2", "Q8xC4",
]


@criterion(3, "structural classification matches brute force on every corpus group")
def test_criterion_03_classification(corpus, noncyclic):
    disagreements = [
        g.name for g in noncyclic if classify(g).one_sized != one_sized_bruteforce(g)
    ]
    assert not disagreements
    # the full size walk, where it runs, must agree too
    walked = [g for g in noncyclic if g.order <= ENUM_BOUND]
    assert walked
    for g in walked:
        assert (len(irredundant_cover_sizes(g)) == 1) == classify(g).one_sized, g.name
    for name in POSITIVE_NAMES:
        assert classify(corpus[name]).one_sized, name
    for name in NEGATIVE_NAMES:
        assert not classify(corpus[name]).one_sized, name


@criterion(4, "cover enumeration against subset brute force, |G| <= 16")
def test_criterion_04_enumeration_oracle(corpus, noncyclic):
    e8 = corpus["E8"]
    sizes = [s for s, _ in cover_enumeration_stats(e8).size_counts]
    assert 3 in sizes and 7 in sizes
    assert len(enumerate_irredundant_covers(corpus["Q8"])) == 1
    assert len(enumerate_irredundant_covers(corpus["V4"])) == 1

    for g in noncyclic:
        if g.order > 16:
            continue
        candidates = proper_nontrivial_masks(g)
        cap = None if len(candidates) <= FULL_SUBSET_LIMIT else CAPPED_SIZE
        expected = brute_irredundant_covers(candidates, g.full_mask, cap)
        got = {
            frozenset(c.member_masks())
            for c in enumerate_irredundant_covers(g, cap)
        }
        assert got == expected, g.name
        if cap is None:
            sizes = tuple(sorted({len(c) for c in expected}))
            assert irredundant_cover_sizes(g) == sizes, g.name


@criterion(5, "size-range, trace, and quotient properties across the corpus")
def test_criterion_05_cover_structure(noncyclic):
    for g in noncyclic:
        if g.order > ENUM_BOUND:
            continue
        assert is_irredundant(g, maximal_cyclic_family(g)), g.name
        stats = cover_enumeration_stats(g, enum_bound=ENUM_BOUND)
        assert irredundant_cover_sizes(g, enum_bound=ENUM_BOUND) == tuple(
            s for s, _ in stats.size_counts
        ), g.name
        sig = sigma_exact(g).value
        lam = lambda_(g)
        assert stats.min_size == sig and stats.max_size == lam, g.name
        assert all(sig <= s <= lam for s, _ in stats.size_counts), g.name
        # a size-lambda cover must use each maximal cyclic subgroup once
        assert lam not in stats.multi_trace_sizes, g.name
        if one_sized_bruteforce(g):
            res = check_quotient_invariants(g)
            assert res.status == "consistent", g.name
            assert maximal_cyclic_pairs_generate(g), g.name


@criterion(6, "normal-plus-conjugates construction on three witness groups")
def test_criterion_06_frobenius_style_construction():
    cases = [
        (symmetric(3), 3, 2),
        (dihedral(5), 5, 2),
        (semidirect_cp_cn(5, 4, 2), 5, 4),
    ]
    for g, n_order, h_order in cases:
        n = next(s for s in all_subgroups(g) if s.order == n_order and s.is_normal)
        h = next(s for s in all_subgroups(g) if s.order == h_order)
        cover = frobenius_style_cover(g, n, h)
        assert len(cover) == n_order + 1
        assert is_irredundant(g, cover)
        for a, b in itertools.combinations(cover.member_masks(), 2):
            assert a & b == 1


@criterion(7, "no solvable corpus group contradicts the p-nilpotence implication")
def test_criterion_07_p_nilpotence(corpus):
    violations = []
    for g in corpus.values():
        if not is_solvable(g):
            continue
        for p in prime_divisors(g.order):
            res = check_p_nilpotence(g, p)
            if res.hypothesis_holds and not res.conclusion_holds:
                violations.append((g.name, p))
    assert not violations


@criterion(8, "abelian minimum covers exist only for solvable corpus groups")
def test_criterion_08_abelian_sigma_covers(corpus, noncyclic):
    a5 = check_abelian_sigma_cover(corpus["A5"])
    assert a5.sigma == 10
    assert not a5.abelian_cover_exists
    offenders = []
    for g in noncyclic:
        res = check_abelian_sigma_cover(g)
        if res.abelian_cover_exists and not res.solvable:
            offenders.append(g.name)
    assert not offenders


@criterion(9, "subgroup lattice and sigma against unrestricted brute force, |G| <= 16")
def test_criterion_09_oracles(corpus):
    for g in corpus.values():
        if g.order > 16:
            continue
        assert {s.members for s in all_subgroups(g)} == brute_subgroup_masks(
            g.cayley
        ), g.name
        if not g.is_cyclic:
            assert sigma_exact(g).value == brute_min_cover_size(
                proper_nontrivial_masks(g), g.full_mask
            ), g.name


# sha256 of the stdout of `groupcovers --json verify-corpus` with these
# extra flags.  A change that alters the corpus output on purpose updates
# the pins and says so.
CORPUS_JSON_SHA256 = {
    ():
        "a618335e1e93d83ed632ceafa476c32e76656e8cf63d7d3313c0eaf6b1102d1e",
    ("--max-order", "512"):
        "ea9ff60ee748db625b7be46ed30e518af24094847b5f5a65a17a773b36763ca8",
}


@criterion(10, "corpus verification runs emit byte-identical, pinned JSON")
def test_criterion_10_determinism(capsys):
    outputs = []
    for _ in range(2):
        assert cli.main(["--json", "verify-corpus"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    envelope = json.loads(outputs[0])
    assert envelope["summary"]["disagreements"] == 0
    for flags, digest in CORPUS_JSON_SHA256.items():
        assert cli.main(["--json", "verify-corpus", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, flags


# sha256 of the stdout of `groupcovers <argv>`: the verify-corpus text,
# whose agree/DISAGREE column reads the verdicts classify.py decides,
# analyze's per-group reports with their lemma-check statuses, and the
# counting walk's statistics (covers by size up to 5) for every corpus group
# of order at most 32, which must not depend on the walk's visit order.
# The uncapped statistics, whose E16 walk takes seconds, are pinned in CI.
CLI_OUTPUT_SHA256 = {
    ("verify-corpus",):
        "296499e80d84c19017c865c2b7a67118a0ee069bd05caeba4da81e78abbde4e3",
    ("--max-order", "512", "verify-corpus"):
        "1c9c9b4bb18f9fe6067febd77dff3baf7c776306c1bed18bb60e29ad2e212d58",
    ("analyze",):
        "51d3cd1bb794dff31ee6c03643909d74d3afc91c3e79d8ea2c3c84850a688d4e",
    ("--max-order", "512", "analyze"):
        "cb1adf8c3c35909f5655f4e9a3f3ab461cc3ed041212be1b866bd93c8e8352f5",
    ("--json", "--max-order", "512", "analyze"):
        "97b04b50330f216d221b12fe97d52be70709eff957baf1a0b884b41907630d1f",
    ("--json", "--max-order", "32", "covers", "--enumerate", "--cap", "5"):
        "bf478255548ec629de65666d9375846a7565d7d5becd56985e275324a6e626c4",
}


@pytest.mark.parametrize("argv", CLI_OUTPUT_SHA256, ids=" ".join)
def test_cli_output_matches_pin(capsys, argv):
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_OUTPUT_SHA256[argv]
