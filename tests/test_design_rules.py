"""The design rules that CI states as grep gates, checked in the test suite.

Each test reads the package's source text the way the matching step of
.github/workflows/tests.yml greps it, so a change that breaks a rule fails
here as well as in CI.
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
        # One cache mechanism: per_group memos keyed by group, no
        # module-level functools cache, no table keyed by id(group).
        r"lru_cache|\bcache\(|import .*\bcache\b|\bid\(",
        # One record mechanism: typing.NamedTuple.
        r"dataclass|\bnamedtuple\b",
    ],
    ids=["no-module-level-cache", "no-dataclass"],
)
def test_package_never_matches(regex):
    assert matching_lines(regex, source_files()) == []


def test_all_only_in_init():
    modules = [p for p in source_files("*.py") if p.name != "__init__.py"]
    assert matching_lines(r"^__all__", modules) == []


def test_one_no_cover_gate():
    [(name, _, _)] = matching_lines(r"raise GroupIsCyclic", source_files())
    assert name == "covers.py"


def test_no_per_member_privacy_scan():
    assert matching_lines(r"for c in chosen", [PACKAGE / "covers.py"]) == []
