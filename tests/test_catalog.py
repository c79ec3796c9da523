import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from groupcovers import (
    CatalogEntry,
    DuplicateName,
    GroupCoversError,
    InvalidParameters,
    OrderBoundExceeded,
    OrderMismatch,
    ParseError,
    PermSource,
    PresetSource,
    build_catalog,
    build_entry,
    bundled_catalog_text,
    parse_catalog,
    parse_report,
    run_verify_corpus,
    serialize_envelope,
)


def test_perm_record():
    entries = parse_catalog("group S3\nperm 3; (1 2 3); (1 2)\n")
    assert len(entries) == 1
    built = build_catalog(entries)
    assert built["S3"].order == 6


def test_preset_record():
    entries = parse_catalog("group Q8\npreset quaternion 3\n")
    assert build_catalog(entries)["Q8"].order == 8


def test_product_references_earlier_entry():
    text = """\
group C2
preset cyclic 2

group V4
preset product C2 C2
order 4
"""
    built = build_catalog(parse_catalog(text))
    assert built["V4"].order == 4
    assert not built["V4"].is_cyclic


def test_comments_and_blank_lines():
    text = """\
# leading comment

group C6   # trailing comment
preset cyclic 6
order 6    # checked after building


# another comment between records
group S3
perm 3; (1 2 3); (1 2)
"""
    entries = parse_catalog(text)
    assert [e.name for e in entries] == ["C6", "S3"]
    assert entries[0].expected_order == 6
    assert entries[1].expected_order is None


def test_order_line_optional_and_checked():
    entries = parse_catalog("group C4\npreset cyclic 4\norder 5\n")
    with pytest.raises(OrderMismatch) as info:
        build_catalog(entries)
    assert "C4" in str(info.value)
    assert "5" in str(info.value) and "4" in str(info.value)


class TestParseErrors:
    def check(self, text, lineno, fragment=None):
        with pytest.raises(ParseError) as info:
            parse_catalog(text)
        assert info.value.line == lineno
        if fragment:
            assert fragment in str(info.value)

    def test_record_must_start_with_group(self):
        self.check("preset cyclic 4\n", 1)

    def test_group_needs_a_name(self):
        self.check("group\npreset cyclic 4\n", 1)

    def test_missing_construction(self):
        self.check("group C4\n\ngroup C2\npreset cyclic 2\n", 1)

    def test_two_constructions(self):
        self.check("group X\npreset cyclic 4\nperm 3; (1 2 3)\n", 3)

    def test_duplicate_order_line(self):
        self.check("group C4\npreset cyclic 4\norder 4\norder 4\n", 4)

    def test_order_not_a_number(self):
        self.check("group C4\npreset cyclic 4\norder four\n", 3)

    def test_unknown_preset(self):
        self.check("group X\npreset wreath 2 2\n", 2)

    def test_construction_keyword_matches_exactly(self):
        self.check("group X\npresetx cyclic 3\n", 2, "expected 'perm' or 'preset'")
        self.check("group X\npreset_foo dihedral 3\n", 2)
        self.check("group X\npermx 3; (1 2 3)\n", 2)

    def test_wrong_preset_arity(self):
        self.check("group X\npreset cyclic 4 5\n", 2)
        self.check("group X\npreset product C2\n", 2)

    def test_non_numeric_preset_arg_fails_at_build(self):
        # arity is checked while parsing; numeric validity at build time
        entries = parse_catalog("group X\npreset cyclic two\n")
        with pytest.raises(ParseError) as info:
            build_catalog(entries)
        assert info.value.line == 1

    def test_bad_perm_degree(self):
        self.check("group X\nperm zero; (1 2)\n", 2)
        self.check("group X\nperm 3 4; (1 2)\n", 2, "expected 'perm <degree>; ...'")
        self.check("group X\nperm 0; (1)\n", 2, "degree must be positive")

    def test_bare_preset(self):
        self.check("group X\npreset\n", 2, "expected 'preset <kind> <args>'")

    def test_order_must_be_positive(self):
        self.check("group C4\npreset cyclic 4\norder 0\n", 3, "order must be positive")

    def test_line_numbers_skip_comments(self):
        text = "# one\n# two\ngroup X\npreset nope 1\n"
        self.check(text, 4)

    def test_trailing_junk_line(self):
        self.check("group C4\npreset cyclic 4\nextra stuff\n", 3)


# A catalog line ends at \n, \r\n or a lone \r.  str.splitlines also ends
# one at a form feed, \x1c-\x1e, NEL, U+2028 and U+2029, which an editor
# shows inside a line; those are whitespace.
def test_a_form_feed_line_between_records_is_one_blank_line():
    text = "group A\npreset cyclic 2\n\f\ngroup B\npreset bogus 1\n"
    with pytest.raises(ParseError) as info:
        parse_catalog(text)
    assert str(info.value) == "line 5: unknown preset kind 'bogus'"


@pytest.mark.parametrize(
    "header",
    ["group A  # note\u2028see below", "group A  # note\fsee below", "group A\x85"],
    ids=["line-separator-in-comment", "form-feed-in-comment", "trailing-nel"],
)
def test_other_line_breaks_stay_inside_the_line(header):
    [entry] = parse_catalog(header + "\npreset cyclic 2\n")
    assert (entry.name, entry.source, entry.line) == ("A", PresetSource("cyclic", ("2",)), 1)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_line_numbers(newline):
    lines = ["# comment", "group A", "preset cyclic 2", "", "group B", "preset cyclic 3"]
    entries = parse_catalog(newline.join(lines) + newline)
    assert [(e.name, e.line) for e in entries] == [("A", 2), ("B", 5)]
    with pytest.raises(ParseError) as info:
        parse_catalog(newline.join(lines + ["order x"]) + newline)
    assert info.value.line == 7


def test_duplicate_name():
    text = "group A\npreset cyclic 2\n\ngroup A\npreset cyclic 3\n"
    with pytest.raises(DuplicateName):
        parse_catalog(text)


def test_unknown_product_reference():
    text = "group V4\npreset product C2 C2\n"
    entries = parse_catalog(text)
    with pytest.raises(ParseError) as info:
        build_catalog(entries)
    assert info.value.line == 1


def test_forward_product_reference_fails():
    text = """\
group V4
preset product C2 C2

group C2
preset cyclic 2
"""
    with pytest.raises(ParseError):
        build_catalog(parse_catalog(text))


def test_build_entry_single():
    entries = parse_catalog("group D4\npreset dihedral 4\norder 8\n")
    g = build_entry(entries[0], {})
    assert g.order == 8
    assert g.name == "D4"


def test_malformed_cycles_surface_at_build():
    from groupcovers import MalformedCycle

    entries = parse_catalog("group X\nperm 3; (1 2 99)\n")
    with pytest.raises(MalformedCycle):
        build_catalog(entries)


# Entries that OVERSIZED rows may name, built before the timed call.
FACTORS = "group C500\npreset cyclic 500\n\ngroup D500\npreset dihedral 250\n"

# Construction lines whose parameters are far past the order bound.  Each
# used to hang in a primality test, a huge power or a degree-sized
# allocation before the bound was checked.
OVERSIZED = [
    ("preset cpcn 2305843009213693951 2 1", OrderBoundExceeded),
    ("preset quaternion 10000000000", OrderBoundExceeded),
    # the generated-table builder stops each of these at 512 elements
    ("preset cyclic 10000000000", OrderBoundExceeded),
    ("preset dihedral 10000000000", OrderBoundExceeded),
    ("preset product C500 D500", OrderBoundExceeded),
    ("perm 10000000; (1 2); (3 4)", InvalidParameters),
    ("perm 300000000; (1 2)", InvalidParameters),
    ("preset sym 100000000", InvalidParameters),
    ("preset alt 100000000", InvalidParameters),
]


@pytest.mark.parametrize("line,error", OVERSIZED)
def test_oversized_parameters_fail_fast(line, error):
    built = build_catalog(parse_catalog(FACTORS))
    (entry,) = parse_catalog(f"group X\n{line}\n")
    start = time.perf_counter()
    with pytest.raises(error):
        build_entry(entry, built)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", [None, 5, b"group A\npreset cyclic 2\n"])
def test_catalog_text_must_be_a_str(text):
    with pytest.raises(InvalidParameters, match="catalog text must be a str"):
        parse_catalog(text)


@pytest.mark.parametrize(
    "entries,message",
    [(None, "None is not iterable"), (5, "5 is not iterable"),
     ("abc", "'a' is not a CatalogEntry"), ([None], "None is not a CatalogEntry")],
)
def test_build_catalog_needs_catalog_entries(entries, message):
    with pytest.raises(InvalidParameters, match=message):
        build_catalog(entries)


def test_build_entry_needs_a_catalog_entry():
    with pytest.raises(InvalidParameters, match="None is not a CatalogEntry"):
        build_entry(None, {})


C2_ENTRY = CatalogEntry("A", PresetSource("cyclic", ("2",)), None, 1)

# build_entry, build_catalog and run_verify_corpus, each run on a tuple of entries
EACH_ENTRY_POINT = pytest.mark.parametrize(
    "run",
    [lambda entries: build_entry(entries[-1], {}), build_catalog, run_verify_corpus],
    ids=["build_entry", "build_catalog", "run_verify_corpus"],
)


@EACH_ENTRY_POINT
@pytest.mark.parametrize(
    "entry,message",
    [
        (CatalogEntry("X", None, None, 1), "'X' has source None"),
        (CatalogEntry("X", ("cyclic", ("3",)), None, 1), "'X' has source \\('cyclic'"),
        (CatalogEntry("X", PresetSource("nosuch", ()), None, 1), "'X' has source PresetSource"),
        (CatalogEntry("X", PresetSource(["cyclic"], ("3",)), None, 1), "'X' has source"),
        (CatalogEntry("X", PresetSource("cyclic", ("3", "4")), None, 1), "'X' has source"),
        (CatalogEntry("X", PresetSource("cyclic", ["3"]), None, 1), "'X' has source"),
        (CatalogEntry("X", PresetSource("cyclic", (3,)), None, 1), "'X' has source"),
        (CatalogEntry(3, PresetSource("cyclic", ("3",)), None, 1), "3 has a name that"),
        (CatalogEntry("X", PresetSource("cyclic", ("3",)), "a", 1), "'X' has expected order 'a'"),
        (CatalogEntry("X", PresetSource("cyclic", ("3",)), 0, 1), "'X' has expected order 0"),
        (CatalogEntry("X", PresetSource("cyclic", ("3",)), True, 1), "'X' has expected order True"),
    ],
)
def test_hand_built_entries_are_checked_like_parsed_ones(run, entry, message):
    # the bad entry follows a good one, so a run over both reaches it
    with pytest.raises(InvalidParameters, match="catalog entry " + message):
        run((C2_ENTRY, entry))


@EACH_ENTRY_POINT
@pytest.mark.parametrize("line", [None, 0, -1, True, "1", 1.0])
def test_hand_built_entry_line_is_checked(run, line):
    # parse_catalog numbers lines from 1; a product names its line on a bad reference
    entry = CatalogEntry("X", PresetSource("product", ("A", "A")), None, line)
    message = f"catalog entry 'X' has line {line!r}, not a positive int"
    with pytest.raises(InvalidParameters, match=re.escape(message)):
        run((C2_ENTRY, entry))


@pytest.mark.parametrize("run", [build_catalog, run_verify_corpus])
def test_hand_built_entries_repeating_a_name_are_rejected(run):
    # as parse_catalog rejects the same two records
    d6 = CatalogEntry("A", PresetSource("dihedral", ("3",)), None, 4)
    with pytest.raises(DuplicateName, match="group 'A' defined twice"):
        run((C2_ENTRY, d6))


def test_hand_built_perm_entry_fails_as_a_build_error():
    # from_permutation_generators checks a PermSource's degree and generators
    entry = CatalogEntry("P", PermSource("3", ()), 6, 1)
    with pytest.raises(InvalidParameters, match="permutation degree must be an integer"):
        build_entry(entry, {})
    (report,) = run_verify_corpus([entry])["reports"]
    assert report["order"] == 6 and report["errors"][0].startswith("build: ")
    assert parse_report(serialize_envelope(report)).order == 6


def test_perm_degree_at_the_bound_still_builds():
    (entry,) = parse_catalog("group C2\nperm 512; (511 512)\n")
    assert build_entry(entry, {}).order == 2


def test_bundled_catalog(corpus_entries):
    assert len(corpus_entries) == 98
    names = [e.name for e in corpus_entries]
    assert len(set(names)) == 98
    # every entry in the shipped catalog carries an order assertion
    assert all(e.expected_order is not None for e in corpus_entries)
    assert bundled_catalog_text().count("group ") >= 98


# ---------------------------------------------------------------------------
# Fuzzing: any text either parses into entries or raises a GroupCoversError

BUNDLED_LINES = bundled_catalog_text().splitlines()

# Words of the format, so drawn text reaches past the header checks
catalog_words = st.sampled_from(
    ["group", "perm", "preset", "order", "product", "cyclic", "cpcn", "sym",
     ";", "#", "(1 2)", "0", "-1", "3", "C2", "E4", "\n", "\n\n", " ", "\t"]
)
drawn_text = st.text(max_size=40) | st.lists(catalog_words, max_size=12).map(" ".join)


def assert_parses_or_fails_typed(text):
    try:
        entries = parse_catalog(text)
    except GroupCoversError:
        return
    assert all(isinstance(e, CatalogEntry) for e in entries)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parse_catalog_on_arbitrary_text(text):
    assert_parses_or_fails_typed(text)


@st.composite
def mutated_catalogs(draw):
    """The bundled catalog with up to six lines deleted, duplicated,
    swapped, replaced, inserted, or with a token replaced."""
    lines = list(BUNDLED_LINES)
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert", "token"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "replace":
            lines[i] = draw(drawn_text)
        elif op == "insert":
            lines.insert(i, draw(drawn_text))
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(drawn_text)
            lines[i] = " ".join(tokens)
    return "\n".join(lines)


@given(mutated_catalogs())
@settings(max_examples=300, deadline=None)
def test_parse_catalog_on_mutated_bundled_catalog(text):
    assert_parses_or_fails_typed(text)
