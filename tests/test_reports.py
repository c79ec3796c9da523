import re

import pytest

from groupcovers import (
    CHECK_IDS,
    COMPLEMENT_COUNT_ASSUMPTION,
    AnalyzeOptions,
    Group,
    GroupCoversError,
    GroupIsCyclic,
    InvalidParameters,
    InvariantViolation,
    NoFactorWithMultipleComplements,
    VerificationReport,
    alternating,
    build_catalog,
    bundled_catalog_text,
    cyclic,
    dihedral,
    direct_product,
    generalized_quaternion,
    parse_catalog,
    parse_report,
    run_analyze,
    run_check,
    run_verify_corpus,
    serialize_envelope,
    serialize_report,
    symmetric,
)
from groupcovers import covers, lattice, reports
from groupcovers.lattice import _lattice

from _oracles import build_every_entry_verify_corpus


def v4():
    return direct_product(cyclic(2), cyclic(2), name="V4")


def bundled_corpus_512():
    """The text of every report of the bundled catalog at max order 512."""
    entries = parse_catalog(bundled_catalog_text())
    envelope = run_verify_corpus(entries, AnalyzeOptions(max_order=512))
    return [serialize_envelope(d) for d in envelope["reports"]]


def build_error():
    """The text of a report that carries only a build error."""
    envelope = run_verify_corpus(parse_catalog("group C4\npreset cyclic 4\norder 5\n"))
    [d] = envelope["reports"]
    assert d["errors"][0].startswith("build: ")
    return [serialize_envelope(d)]


class TestRunAnalyze:
    def test_full_report_on_v4(self):
        r = run_analyze(v4())
        assert r.group_name == "V4"
        assert r.order == 4
        assert r.is_cyclic is False
        assert r.is_solvable and r.is_nilpotent and r.is_supersolvable
        assert r.lambda_value == 3
        assert r.sigma_exact == 3
        assert r.sigma_tomkinson == 3
        assert r.irredundant_sizes == (3,)
        assert r.one_sized_bruteforce is True
        assert r.classify_outcome == {
            "oneSized": True,
            "family": {"kind": "CpTimesCp", "p": 2, "n": None},
            "witnessHOrder": 4,
            "witnessCOrder": 1,
        }
        assert r.agreement is True
        assert [c["id"] for c in r.lemma_checks] == list(CHECK_IDS)
        assert all(c["status"] in ("consistent", "vacuous") for c in r.lemma_checks)
        assert r.errors == ()

    def test_cyclic_group(self):
        r = run_analyze(cyclic(6))
        assert r.is_cyclic is True
        assert r.sigma_exact == "Infinite"
        assert r.sigma_tomkinson == "Infinite"
        assert r.lambda_value is None
        assert r.classify_outcome is None
        assert r.lemma_checks == ()
        assert r.errors == ()

    def test_skip_above_max_order(self):
        r = run_analyze(alternating(5), AnalyzeOptions(max_order=32))
        assert r.order == 60
        assert r.is_cyclic is None
        assert r.sigma_exact is None
        assert r.errors == ("skipped: order 60 exceeds max-order 32",)

    def test_non_solvable_group(self):
        r = run_analyze(alternating(5), AnalyzeOptions(max_order=64, enum_bound=4))
        assert r.is_solvable is False
        assert r.sigma_exact == 10
        assert r.sigma_tomkinson is None  # formula needs solvability
        assert r.irredundant_sizes is None  # order above the enumeration bound
        assert r.agreement is True
        statuses = {c["id"]: c["status"] for c in r.lemma_checks}
        assert statuses == {
            "lemma-pnilp": "vacuous",
            "bryce-serena": "vacuous",
            "osclemma-quotients": "vacuous",
        }

    def test_enum_bound_respected_without_force(self):
        r = run_analyze(dihedral(4), AnalyzeOptions(enum_bound=4))
        assert r.irredundant_sizes is None
        assert r.one_sized_bruteforce is False  # still decided via lambda vs sigma

    def test_checks_subset(self):
        r = run_analyze(v4(), AnalyzeOptions(checks=("bryce-serena",)))
        assert [c["id"] for c in r.lemma_checks] == ["bryce-serena"]

    def test_every_stage_failing_leaves_its_error_in_stage_order(self, monkeypatch):
        def fail(label):
            def raise_error(*args, **kwargs):
                raise GroupCoversError(f"{label} failed")
            return raise_error

        for module, name in [
            (lattice, "is_solvable"), (lattice, "is_nilpotent"),
            (lattice, "is_supersolvable"), (covers, "sigma_exact"),
            (covers, "lambda_"), (covers, "irredundant_cover_sizes"),
            (reports, "verify_classification"), (reports, "run_check"),
        ]:
            monkeypatch.setattr(module, name, fail(name))
        r = run_analyze(symmetric(3))
        # No tomkinson stage runs: solvability is unknown.
        assert r == VerificationReport(
            "S3", 6, is_cyclic=False,
            lemma_checks=tuple({"id": c, "status": None} for c in CHECK_IDS),
            errors=(
                "solvability: is_solvable failed",
                "nilpotency: is_nilpotent failed",
                "supersolvability: is_supersolvable failed",
                "sigma: sigma_exact failed",
                "lambda: lambda_ failed",
                "enumeration: irredundant_cover_sizes failed",
                "classify: verify_classification failed",
                "lemma-pnilp: run_check failed",
                "bryce-serena: run_check failed",
                "osclemma-quotients: run_check failed",
            ),
        )

    def test_one_lattice_per_corpus_group(self, corpus_entries):
        # built afresh, so no other test has filled their memos
        corpus = build_catalog(corpus_entries)
        opts = AnalyzeOptions(max_order=512)
        built = {}
        for name, g in sorted(corpus.items()):
            misses = _lattice.cache_info().misses
            run_analyze(g, opts)
            built[name] = _lattice.cache_info().misses - misses
        assert len(built) == 98
        assert {n: k for n, k in built.items() if k != 1} == {}


class TestSerialization:
    @pytest.mark.parametrize(
        "make",
        [v4, lambda: cyclic(6), lambda: symmetric(3), lambda: alternating(5),
         lambda: generalized_quaternion(3), bundled_corpus_512, build_error],
    )
    def test_round_trip(self, make):
        # make gives a group to analyze or the texts of finished reports
        texts = made = make()
        if isinstance(made, Group):
            r = run_analyze(made, AnalyzeOptions(max_order=64))
            assert parse_report(serialize_report(r)) == r
            texts = [serialize_report(r)]
        for s in texts:
            assert serialize_report(parse_report(s)) == s

    def test_skipped_report_round_trips(self):
        r = run_analyze(alternating(5), AnalyzeOptions(max_order=10))
        assert parse_report(serialize_report(r)) == r

    def test_serialization_is_stable(self):
        r = run_analyze(symmetric(3))
        assert serialize_report(r) == serialize_report(run_analyze(symmetric(3)))
        assert serialize_report(r).endswith("\n")

    def test_camel_case_keys(self):
        d = run_analyze(v4()).to_dict()
        assert set(d) == {
            "groupName", "order", "isCyclic", "isSolvable", "isNilpotent",
            "isSupersolvable", "lambda", "sigmaExact", "sigmaTomkinson",
            "irredundantSizes", "oneSizedBruteforce", "classifyOutcome",
            "agreement", "lemmaChecks", "errors",
        }
        assert VerificationReport.from_dict(d) == run_analyze(v4())

    def test_missing_key_is_named(self):
        with pytest.raises(InvalidParameters, match="'groupName'"):
            parse_report("{}")
        d = run_analyze(v4()).to_dict()
        del d["irredundantSizes"]
        with pytest.raises(InvalidParameters, match="'irredundantSizes'"):
            VerificationReport.from_dict(d)

    def test_all_null_object_is_rejected(self):
        keys = run_analyze(v4()).to_dict()
        with pytest.raises(InvalidParameters, match="'groupName'"):
            VerificationReport.from_dict(dict.fromkeys(keys))

    @pytest.mark.parametrize(
        "key,value",
        [("errors", "ab"), ("errors", [1]), ("order", True), ("order", 4.0),
         ("lambda", False), ("irredundantSizes", [3, None]), ("lemmaChecks", ["x"])],
    )
    def test_wrong_type_is_named(self, key, value):
        d = run_analyze(v4()).to_dict()
        d[key] = value
        with pytest.raises(InvalidParameters, match=f"'{key}'"):
            parse_report(serialize_envelope(d))

    @pytest.mark.parametrize(
        "key,value,named",
        [("lemmaChecks", [{}], "'lemmaChecks'[0]['id']"),
         ("lemmaChecks", [{"id": "bryce-serena", "status": 1}], "'lemmaChecks'[0]['status']"),
         ("classifyOutcome", {}, "'classifyOutcome'['oneSized']"),
         ("classifyOutcome", {"oneSized": True, "family": {"kind": "Q8"},
                              "witnessHOrder": 8, "witnessCOrder": 1},
          "'classifyOutcome'['family']['p']")],
    )
    def test_nested_missing_key_is_named(self, key, value, named):
        # the CLI renderer reads these keys, so a report lacking one must
        # not parse
        d = run_analyze(symmetric(3)).to_dict()
        d[key] = value
        with pytest.raises(InvalidParameters, match=re.escape(named)):
            parse_report(serialize_envelope(d))

    def test_first_bad_key_in_field_order_is_named(self):
        d = run_analyze(v4()).to_dict()
        d["errors"], d["isCyclic"] = "ab", "no"
        del d["agreement"]
        with pytest.raises(InvalidParameters, match="'isCyclic'"):
            VerificationReport.from_dict(d)

    @pytest.mark.parametrize("text", [None, 5, ["{}"]])
    def test_non_text_is_rejected(self, text):
        with pytest.raises(InvalidParameters, match="not decodable JSON"):
            parse_report(text)

    def test_bytes_are_decoded(self):
        r = run_analyze(v4())
        assert parse_report(serialize_report(r).encode()) == r

    def test_empty_group_name_round_trips(self):
        r = run_analyze(cyclic(4, name=""))
        assert r.group_name == ""
        assert parse_report(serialize_report(r)) == r

    def test_non_object_is_rejected(self):
        with pytest.raises(InvalidParameters, match="not a JSON object"):
            parse_report("[]")

    @pytest.mark.parametrize("text", ["groupName: V4", "[" * 100_000])
    def test_non_json_is_rejected(self, text):
        # the second nests past the interpreter's recursion limit
        with pytest.raises(InvalidParameters, match="not decodable JSON"):
            parse_report(text)


class TestRunCheck:
    def test_statuses(self):
        assert run_check(symmetric(3), "lemma-pnilp") == "consistent"
        assert run_check(alternating(5), "lemma-pnilp") == "vacuous"
        assert run_check(symmetric(3), "bryce-serena") == "consistent"
        assert run_check(alternating(5), "bryce-serena") == "vacuous"
        assert run_check(symmetric(3), "osclemma-quotients") == "consistent"
        # not one-sized, so the quotient condition does not apply
        assert run_check(dihedral(4), "osclemma-quotients") == "vacuous"

    def test_pnilp_aggregates_over_primes(self):
        # consistent at one prime beats vacuous at another
        assert run_check(alternating(4), "lemma-pnilp") == "consistent"

    @pytest.mark.parametrize("n", [1, 4, 6])
    @pytest.mark.parametrize("check_id", CHECK_IDS)
    def test_cyclic_group_is_rejected(self, n, check_id):
        # every check, lemma-pnilp too, is about groups that have a cover
        with pytest.raises(GroupIsCyclic):
            run_check(cyclic(n), check_id)

    @pytest.mark.parametrize("check_id", [["bryce-serena"], {}, None, 5])
    def test_check_id_that_is_not_a_str(self, check_id):
        with pytest.raises(InvalidParameters, match="unknown check id"):
            run_check(symmetric(3), check_id)

    def test_unknown_id(self):
        with pytest.raises(InvalidParameters):
            run_check(v4(), "bogus")
        with pytest.raises(InvalidParameters):
            run_check(cyclic(4), "bogus")
        with pytest.raises(InvalidParameters):
            AnalyzeOptions(checks=("bogus",))


class TestAnalyzeOptions:
    @pytest.mark.parametrize("field", ["max_order", "enum_bound"])
    @pytest.mark.parametrize("value", ["5", 5.0, None])
    def test_non_integer_bound_is_rejected(self, field, value):
        with pytest.raises(InvalidParameters, match="must be an integer"):
            AnalyzeOptions(**{field: value})

    def test_negative_bound_is_rejected(self):
        with pytest.raises(InvalidParameters, match="max order -1 is negative"):
            AnalyzeOptions(max_order=-1)
        with pytest.raises(InvalidParameters, match="enumeration bound -1 is negative"):
            AnalyzeOptions(enum_bound=-1)

    def test_integer_like_bounds_are_stored_as_ints(self):
        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        opts = AnalyzeOptions(max_order=Index(64), enum_bound=Index(8))
        assert opts == (64, 8, CHECK_IDS)
        assert type(opts.max_order) is int and type(opts.enum_bound) is int
        g = symmetric(3)
        assert run_analyze(g, opts) == run_analyze(g, AnalyzeOptions(64, 8))
        entries = parse_catalog(CATALOG)
        assert run_verify_corpus(entries, opts) == run_verify_corpus(entries, AnalyzeOptions(64, 8))

    def test_bool_bound_is_stored_as_an_int(self):
        opts = AnalyzeOptions(max_order=True, enum_bound=False)
        assert type(opts.max_order) is int and type(opts.enum_bound) is int
        assert (opts.max_order, opts.enum_bound) == (1, 0)

    def test_bare_string_of_checks_is_rejected(self):
        with pytest.raises(InvalidParameters, match="a sequence of check ids, not a str"):
            AnalyzeOptions(checks="lemma-pnilp")

    @pytest.mark.parametrize("checks", [None, 5])
    def test_non_iterable_checks_are_rejected(self, checks):
        with pytest.raises(InvalidParameters, match=f"checks {checks} is not a sequence"):
            AnalyzeOptions(checks=checks)

    def test_repeated_check_id_is_rejected(self):
        with pytest.raises(InvalidParameters, match="'bryce-serena' is given twice"):
            AnalyzeOptions(checks=["bryce-serena", "bryce-serena"])
        with pytest.raises(InvalidParameters, match="'lemma-pnilp' is given twice"):
            AnalyzeOptions(checks=(c for c in ["lemma-pnilp", "bryce-serena", "lemma-pnilp"]))

    def test_checks_from_a_generator_are_kept(self):
        g = symmetric(3)
        opts = AnalyzeOptions(checks=(c for c in ["lemma-pnilp"]))
        assert opts.checks == ("lemma-pnilp",)
        assert [c["id"] for c in run_analyze(g, opts).lemma_checks] == ["lemma-pnilp"]

    @pytest.mark.parametrize("options", [(64, 32, ()), (), 5, {"max_order": 64}])
    def test_options_must_be_analyze_options(self, options):
        # a plain tuple equals the record but skips its checks
        with pytest.raises(InvalidParameters, match="is not an AnalyzeOptions"):
            run_analyze(symmetric(3), options)
        with pytest.raises(InvalidParameters, match="is not an AnalyzeOptions"):
            run_verify_corpus(parse_catalog(CATALOG), options)

    def test_checks_given_as_a_list_stay_hashable(self):
        opts = AnalyzeOptions(checks=["lemma-pnilp"])
        assert opts.checks == ("lemma-pnilp",)
        assert hash(opts) == hash(AnalyzeOptions(checks=("lemma-pnilp",)))


CATALOG = """\
group C6
preset cyclic 6

group S3
perm 3; (1 2 3); (1 2)

group D8
preset dihedral 4
"""


class TestVerifyCorpus:
    def test_small_catalog(self):
        env = run_verify_corpus(parse_catalog(CATALOG))
        assert env["assumptions"] == [COMPLEMENT_COUNT_ASSUMPTION]
        assert env["summary"] == {
            "groups": 3,
            "nonCyclic": 2,
            "agreements": 2,
            "disagreements": 0,
            "errors": 0,
        }
        names = [r["groupName"] for r in env["reports"]]
        assert names == sorted(names) == ["C6", "D8", "S3"]

    @pytest.mark.parametrize(
        "entries,message",
        [(None, "None is not iterable"), (5, "5 is not iterable"),
         ([1], "1 is not a CatalogEntry"), ("abc", "'a' is not a CatalogEntry")],
    )
    def test_entries_must_be_catalog_entries(self, entries, message):
        with pytest.raises(InvalidParameters, match=message):
            run_verify_corpus(entries)

    def test_empty_catalog(self):
        env = run_verify_corpus(())
        assert env["reports"] == []
        assert env["summary"] == {
            "groups": 0,
            "nonCyclic": 0,
            "agreements": 0,
            "disagreements": 0,
            "errors": 0,
        }

    def test_build_failure_is_embedded_and_run_continues(self):
        text = CATALOG + "\ngroup Broken\npreset cyclic 4\norder 5\n\ngroup V4\npreset product C2 C2\norder 4\n\ngroup C2\npreset cyclic 2\n"
        env = run_verify_corpus(parse_catalog(text))
        by_name = {r["groupName"]: r for r in env["reports"]}
        assert by_name["Broken"]["order"] == 5
        assert by_name["Broken"]["errors"][0].startswith("build:")
        assert by_name["Broken"]["isCyclic"] is None
        # V4 also fails: its product references C2 before C2 is defined
        assert by_name["V4"]["errors"][0].startswith("build:")
        # but C2 itself and everything before still analyze fine
        assert by_name["C2"]["isCyclic"] is True
        assert by_name["S3"]["agreement"] is True
        assert env["summary"]["errors"] == 2

    @pytest.mark.parametrize(
        "error", [InvariantViolation, NoFactorWithMultipleComplements]
    )
    def test_tomkinson_failure_is_embedded_and_run_continues(self, monkeypatch, error):
        def fail(group):
            raise error(f"no formula for {group.name}")

        monkeypatch.setattr(covers, "sigma_tomkinson", fail)
        env = run_verify_corpus(parse_catalog(CATALOG))
        by_name = {r["groupName"]: r for r in env["reports"]}
        assert sorted(by_name) == ["C6", "D8", "S3"]
        for name in ("S3", "D8"):
            assert by_name[name]["errors"] == [f"tomkinson: no formula for {name}"]
            assert by_name[name]["sigmaTomkinson"] is None
            assert by_name[name]["sigmaExact"] is not None
            assert by_name[name]["agreement"] is True
        assert by_name["C6"]["errors"] == []
        assert env["summary"]["errors"] == 2

    def test_skips_count_as_errors_not_disagreements(self):
        env = run_verify_corpus(parse_catalog(CATALOG), AnalyzeOptions(max_order=6))
        by_name = {r["groupName"]: r for r in env["reports"]}
        assert by_name["D8"]["errors"] == ["skipped: order 8 exceeds max-order 6"]
        assert env["summary"]["errors"] == 1
        assert env["summary"]["disagreements"] == 0
        assert env["summary"]["agreements"] == 1

    def test_envelope_serialization_deterministic(self):
        a = serialize_envelope(run_verify_corpus(parse_catalog(CATALOG)))
        b = serialize_envelope(run_verify_corpus(parse_catalog(CATALOG)))
        assert a == b
        assert a.endswith("\n")


# Products above max-order that the corpus run reports as skipped without
# building: S3xS3 (36, its order line matching) and S3xC2xC3 (36, no order
# line).  S3xC2 (12) is named by S3xC2xC3 and S3xC4 (24) by Early, which
# names it before it is defined, so both are built.  Huge passes
# ORDER_BOUND, Wrong's order line does not match, and Orphan and Early
# name groups not built before them, so those four keep their build errors.
PRODUCTS = """\
group C2
preset cyclic 2

group C3
preset cyclic 3

group C4
preset cyclic 4
order 4

group Early
preset product S3xC4 C2

group S3
preset sym 3
order 6

group C6
preset product C2 C3
order 6

group S3xC2
preset product S3 C2
order 12

group S3xC4
preset product S3 C4
order 24

group S3xC2xC3
preset product S3xC2 C3

group S3xS3
preset product S3 S3
order 36

group Wrong
preset product S3 C4
order 25

group A6
preset alt 6

group Huge
preset product A6 C2

group Orphan
preset product Missing C2
"""


@pytest.fixture
def built(monkeypatch):
    """The names of the entries run_verify_corpus builds, in order."""
    names = []
    real = reports.build_entry
    monkeypatch.setattr(
        reports, "build_entry", lambda e, groups: names.append(e.name) or real(e, groups)
    )
    return names


class TestUnbuiltProducts:
    @pytest.mark.parametrize("max_order", [0, 4, 6, 11, 12, 24, 35, 36, 512])
    def test_same_envelope_as_building_every_entry(self, max_order):
        entries = parse_catalog(PRODUCTS)
        opts = AnalyzeOptions(max_order=max_order, checks=())
        assert serialize_envelope(run_verify_corpus(entries, opts)) == serialize_envelope(
            build_every_entry_verify_corpus(entries, opts)
        )

    def test_skipped_products_are_not_built(self, built):
        entries = parse_catalog(PRODUCTS)
        env = run_verify_corpus(entries, AnalyzeOptions(max_order=11, checks=()))
        assert sorted({e.name for e in entries} - set(built)) == ["S3xC2xC3", "S3xS3"]
        by_name = {r["groupName"]: r for r in env["reports"]}
        for name in ("S3xC2xC3", "S3xS3"):
            assert by_name[name]["order"] == 36
            assert by_name[name]["errors"] == ["skipped: order 36 exceeds max-order 11"]
        assert by_name["S3xC4"]["errors"] == ["skipped: order 24 exceeds max-order 11"]
        assert by_name["S3xC2"]["errors"] == ["skipped: order 12 exceeds max-order 11"]
        for name in ("Early", "Wrong", "Huge", "Orphan"):
            assert by_name[name]["errors"][0].startswith("build: "), name

    def test_bundled_catalog_leaves_three_products_unbuilt(self, built, corpus_entries):
        run_verify_corpus(corpus_entries, AnalyzeOptions(checks=()))
        unbuilt = {e.name for e in corpus_entries} - set(built)
        assert unbuilt == {"C7xC7xC2", "C13sC4xC3", "F42xC5"}

    @pytest.mark.parametrize("max_order", [1, 32, 97, 98])
    def test_bundled_catalog_matches_building_every_entry(self, max_order, corpus_entries):
        opts = AnalyzeOptions(max_order=max_order)
        assert serialize_envelope(run_verify_corpus(corpus_entries, opts)) == serialize_envelope(
            build_every_entry_verify_corpus(corpus_entries, opts)
        )
