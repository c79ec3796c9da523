"""The library's records are NamedTuples: fields, immutability, equality.

Each record keeps the field names and order it had as a frozen dataclass,
so positional construction and keyword construction are unchanged.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupcovers
from groupcovers import (
    AnalyzeOptions,
    Cover,
    alternating,
    check_abelian_sigma_cover,
    check_p_nilpotence,
    check_quotient_invariants,
    chief_series,
    classify,
    cover_enumeration_stats,
    cyclic,
    cyclic_subgroups,
    dihedral,
    direct_product,
    enumerate_irredundant_covers,
    minimal_cover,
    parse_catalog,
    quotient,
    run_analyze,
    sigma_exact,
    symmetric,
    verify_classification,
)
from groupcovers.covers import _search_space
from groupcovers.lattice import normal_subgroups
from groupcovers.reports import _REPORT_SCHEMA, VerificationReport

CATALOG = """\
group S3
perm 3; (1 2 3); (1 2)

group C6
preset cyclic 6
"""


def _records():
    """(record, its field names as a frozen dataclass) for all 20 classes."""
    s3, s4 = symmetric(3), symmetric(4)
    s3xc5 = direct_product(s3, cyclic(5))
    perm, preset = parse_catalog(CATALOG)
    n = next(s for s in normal_subgroups(s4) if s.order == 4)
    quotient_check = check_quotient_invariants(s3xc5)
    return [
        (perm.source, ("degree", "generators")),
        (preset.source, ("kind", "args")),
        (perm, ("name", "source", "expected_order", "line")),
        (classify(s3).family, ("kind", "p", "n")),
        (classify(s3), ("one_sized", "family", "witness_h", "witness_c")),
        (verify_classification(s3),
         ("structural", "bruteforce", "lambda_value", "sigma_value")),
        (check_p_nilpotence(s3, 2),
         ("prime", "hypothesis_holds", "conclusion_holds", "status")),
        (check_abelian_sigma_cover(s3),
         ("sigma", "abelian_cover_exists", "solvable", "status")),
        (quotient_check.items[0],
         ("normal_order", "quotient_order", "sigma_quotient", "lambda_quotient")),
        (quotient_check, ("sigma", "items", "status")),
        (sigma_exact(s3), ("value",)),
        (minimal_cover(s3), ("members", "source_group_order")),
        (_search_space(s3), ("generators", "traces", "class_masks")),
        (cover_enumeration_stats(s3),
         ("cover_count", "size_counts", "multi_trace_sizes")),
        (quotient(s4, n.members)[1], ("source", "target", "mapping")),
        (n, ("members", "order", "is_normal")),
        (cyclic_subgroups(s3)[1], ("subgroup", "generator", "is_maximal")),
        (chief_series(s4)[0],
         ("lower", "upper", "factor_order", "complement_count", "is_central",
          "prime")),
        (AnalyzeOptions(), ("max_order", "enum_bound", "checks")),
        (run_analyze(cyclic(6)),
         ("group_name", "order", "is_cyclic", "is_solvable", "is_nilpotent",
          "is_supersolvable", "lambda_value", "sigma_exact", "sigma_tomkinson",
          "irredundant_sizes", "one_sized_bruteforce", "classify_outcome",
          "agreement", "lemma_checks", "errors")),
    ]


RECORDS = _records()


def test_every_record_class_is_listed():
    classes = {type(r) for r, _ in RECORDS}
    assert len(classes) == len(RECORDS) == 20
    assert all(issubclass(c, tuple) for c in classes)


@pytest.mark.parametrize(
    "record, names", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS]
)
class TestRecordSemantics:
    def test_fields_keep_their_names_and_order(self, record, names):
        assert type(record)._fields == names
        assert tuple(record._asdict()) == names
        assert tuple(record) == tuple(getattr(record, f) for f in names)

    def test_fields_cannot_be_assigned(self, record, names):
        with pytest.raises(AttributeError):
            setattr(record, names[0], None)
        with pytest.raises(AttributeError):
            record.not_a_field = None

    def test_equal_values_are_equal_and_hash_equal(self, record, names):
        copy = type(record)(**record._asdict())
        assert copy == record and copy is not record
        assert hash(copy) == hash(record)
        assert record._replace() == record
        assert type(record._replace()) is type(record)


def test_len_of_a_cover_counts_its_members():
    cover = minimal_cover(symmetric(4))
    assert len(cover) == len(cover.members) == 4
    assert len(Cover((), 1)) == 0
    replaced = cover._replace(source_group_order=0)
    assert replaced.members == cover.members and len(replaced) == 4


def test_enumerated_covers_stay_deduplicated():
    g = dihedral(4)
    covers = enumerate_irredundant_covers(g)
    assert isinstance(covers, frozenset)
    assert len(covers) == cover_enumeration_stats(g).cover_count
    rebuilt = {Cover(c.members, c.source_group_order) for c in covers}
    assert rebuilt == covers


def test_report_dict_keys_keep_their_order():
    report = run_analyze(alternating(4))
    assert list(report.to_dict()) == [
        "groupName", "order", "isCyclic", "isSolvable", "isNilpotent",
        "isSupersolvable", "lambda", "sigmaExact", "sigmaTomkinson",
        "irredundantSizes", "oneSizedBruteforce", "classifyOutcome",
        "agreement", "lemmaChecks", "errors",
    ]


def test_report_schema_matches_the_fields():
    # A field defaults to None if nullable, () if an array, else is required.
    assert tuple(name for name, _, _ in _REPORT_SCHEMA) == VerificationReport._fields
    for name, _, kind in _REPORT_SCHEMA:
        nullable = type(kind) is tuple and None in kind
        default = None if nullable else () if type(kind) is list else "required"
        assert VerificationReport._field_defaults.get(name, "required") == default, name


def test_options_from_a_generator_are_validated_and_stored_as_a_tuple():
    opts = AnalyzeOptions(checks=(c for c in ["bryce-serena"]))
    assert type(opts.checks) is tuple and opts.checks == ("bryce-serena",)
    with pytest.raises(groupcovers.InvalidParameters, match="unknown check id 'x'"):
        AnalyzeOptions(checks=(c for c in ["bryce-serena", "x"]))


def test_import_loads_no_dataclasses():
    code = "import sys, groupcovers; print('dataclasses' in sys.modules)"
    src = str(Path(groupcovers.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "False"
