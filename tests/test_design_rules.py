"""The package's design rules, checked on its source text.

Each test greps the package's source for what a rule forbids.  CI runs
this file as its own step, before the long console-script checks, so a
change that breaks a rule fails there first.
"""

import re
from pathlib import Path

import pytest


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "groupcovers"


def source_files(pattern="*"):
    return sorted(
        p for p in PACKAGE.rglob(pattern) if p.is_file() and "__pycache__" not in p.parts
    )


def matching_lines(regex, files):
    """(file name, line number, line) for each line of files matching regex."""
    return [
        (path.name, number, line)
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(regex, line)
    ]


@pytest.mark.parametrize(
    "regex",
    [
        # One cache mechanism: per_group memos keyed by group.  A
        # module-level functools cache would hold its arguments for the
        # whole process, and a table keyed by id(group) would outlive the
        # group or, once the id is reused, answer for another one.
        r"lru_cache|\bcache\(|import .*\bcache\b|\bid\(",
        # One record mechanism: typing.NamedTuple.  Importing dataclasses
        # loads inspect, and each frozen dataclass execs its generated
        # methods, together about a fifth of the benchmark's setup time.
        # collections.namedtuple would be a second tuple-record mechanism.
        r"dataclass|\bnamedtuple\b",
    ],
    ids=["no-module-level-cache", "no-dataclass"],
)
def test_package_never_matches(regex):
    assert matching_lines(regex, source_files()) == []


# The package's public names are the ones __init__.py imports and lists in
# its __all__; a second __all__ in a module could disagree.
def test_all_only_in_init():
    modules = [p for p in source_files("*.py") if p.name != "__init__.py"]
    assert matching_lines(r"^__all__", modules) == []


# Covers, sigma and lambda need a non-cyclic group; covers._require_noncyclic
# alone raises GroupIsCyclic, so every entry point says it the same way.
def test_one_no_cover_gate():
    [(name, _, _)] = matching_lines(r"raise GroupIsCyclic", source_files())
    assert name == "covers.py"


# The cover walk rejects a trace through its owner index, one read per
# chosen trace that owns a once-covered generator of it; a scan over every
# chosen trace at every option lives on only in the oracle.
def test_no_per_member_privacy_scan():
    assert matching_lines(r"for c in chosen", [PACKAGE / "covers.py"]) == []
