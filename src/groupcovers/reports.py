"""Per-group verification reports and whole-corpus runs.

A report captures everything the library can say about one group: the
basic structure flags, both minimum-cover values, the enumeration data
when the group is small enough, the structural classification, and the
statuses of the optional cross-checks.  Failures are embedded in the
report's error list so one bad entry cannot abort a corpus run.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Any, NamedTuple

from . import covers, lattice
from .catalog import CatalogEntry, PresetSource, _entries, build_entry
from .classify import (
    _CHECKS,
    verify_classification,
)
from .covers import DEFAULT_ENUM_BOUND, SigmaValue
from .errors import (
    GroupCoversError,
    InvalidParameters,
)
from .groups import ORDER_BOUND, Group, _natural


CHECK_IDS = tuple(_CHECKS)

DEFAULT_MAX_ORDER = 64

COMPLEMENT_COUNT_ASSUMPTION = (
    "Complements of a chief factor are counted as distinct subgroups, not up "
    "to conjugacy, and the degenerate complement equal to the factor's lower "
    "term is excluded from the count."
)


class _AnalyzeFields(NamedTuple):
    max_order: int
    enum_bound: int
    checks: tuple[str, ...]


class AnalyzeOptions(_AnalyzeFields):
    """Validated options; _make and _replace skip the validation."""

    __slots__ = ()

    def __new__(
        cls,
        max_order: int = DEFAULT_MAX_ORDER,
        enum_bound: int = DEFAULT_ENUM_BOUND,
        checks: Iterable[str] = CHECK_IDS,
    ) -> "AnalyzeOptions":
        max_order = _natural(max_order, "max order")
        enum_bound = _natural(enum_bound, "enumeration bound")
        if isinstance(checks, str):  # would iterate its characters
            raise InvalidParameters("checks must be a sequence of check ids, not a str")
        try:  # a generator would be used up by the loop below, a list unhashable
            checks = tuple(checks)
        except TypeError:
            raise InvalidParameters(f"checks {checks!r} is not a sequence") from None
        for i, c in enumerate(checks):
            if c not in CHECK_IDS:
                raise InvalidParameters(f"unknown check id {c!r}")
            if c in checks[:i]:
                raise InvalidParameters(f"check id {c!r} is given twice")
        return super().__new__(cls, max_order, enum_bound, checks)


# The report's JSON schema as plain data.  A kind is a type, None, a tuple
# of alternatives, [kind] for an array of kind values, or {key: kind} for
# an object holding each key.
_FAMILY = {"kind": str, "p": (int, None), "n": (int, None)}
_OUTCOME = {
    "oneSized": bool,
    "family": (_FAMILY, None),
    "witnessHOrder": (int, None),
    "witnessCOrder": (int, None),
}
_LEMMA_CHECK = {"id": str, "status": (str, None)}
_MISSING = object()  # a key the decoded report lacks


def _alternatives(kind: Any) -> tuple[Any, ...]:
    return kind if type(kind) is tuple else (kind,)


def _kind_name(kind: Any) -> str:
    if type(kind) is tuple:
        return " | ".join(map(_kind_name, kind))
    if type(kind) is list:
        return f"list[{_kind_name(*kind)}]"
    return "object" if type(kind) is dict else "None" if kind is None else kind.__name__


def _check_json(value: Any, kind: Any, where: str) -> None:
    """Raise InvalidParameters naming where, or its first bad entry, unless a
    decoded JSON value is of kind."""
    for k in _alternatives(kind):
        if type(k) is list and type(value) is list:
            for i, v in enumerate(value):
                _check_json(v, *k, f"{where}[{i}]")
            return
        if type(k) is dict and type(value) is dict:
            for key, v_kind in k.items():
                _check_json(value.get(key, _MISSING), v_kind, f"{where}[{key!r}]")
            return
        if (value is None) if k is None else (type(value) is k):
            return
    raise InvalidParameters(f"report key {where} must hold {_kind_name(kind)}")


def _converted(value: Any, sequence: type) -> Any:
    """A tuple or list as the given sequence type, its dicts copied."""
    if isinstance(value, (tuple, list)):
        return sequence(dict(v) if isinstance(v, dict) else v for v in value)
    return value


# (VerificationReport field, its JSON key, the kind of value the key holds),
# in JSON key order.  A field defaults to None if nullable, () if an array.
_REPORT_SCHEMA = (
    ("group_name", "groupName", str),
    ("order", "order", int),
    ("is_cyclic", "isCyclic", (bool, None)),
    ("is_solvable", "isSolvable", (bool, None)),
    ("is_nilpotent", "isNilpotent", (bool, None)),
    ("is_supersolvable", "isSupersolvable", (bool, None)),
    ("lambda_value", "lambda", (int, None)),
    ("sigma_exact", "sigmaExact", (int, str, None)),
    ("sigma_tomkinson", "sigmaTomkinson", (int, str, None)),
    ("irredundant_sizes", "irredundantSizes", ([int], None)),
    ("one_sized_bruteforce", "oneSizedBruteforce", (bool, None)),
    ("classify_outcome", "classifyOutcome", (_OUTCOME, None)),
    ("agreement", "agreement", (bool, None)),
    ("lemma_checks", "lemmaChecks", [_LEMMA_CHECK]),
    ("errors", "errors", [str]),
)


class VerificationReport(NamedTuple):
    group_name: str
    order: int
    is_cyclic: bool | None = None
    is_solvable: bool | None = None
    is_nilpotent: bool | None = None
    is_supersolvable: bool | None = None
    lambda_value: int | None = None
    sigma_exact: int | str | None = None
    sigma_tomkinson: int | str | None = None
    irredundant_sizes: tuple[int, ...] | None = None
    one_sized_bruteforce: bool | None = None
    classify_outcome: dict[str, Any] | None = None
    agreement: bool | None = None
    lemma_checks: tuple[dict[str, Any], ...] = ()
    errors: tuple[str, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return {
            key: _converted(getattr(self, name), list)
            for name, key, _ in _REPORT_SCHEMA
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "VerificationReport":
        values = {}
        for name, key, kind in _REPORT_SCHEMA:
            _check_json(d.get(key, _MISSING), kind, repr(key))
            values[name] = _converted(d[key], tuple)
        return cls(**values)


def serialize_report(report: VerificationReport) -> str:
    return serialize_envelope(report.to_dict())


def parse_report(text: str) -> VerificationReport:
    try:
        d = json.loads(text)
    except (ValueError, TypeError, RecursionError) as exc:
        raise InvalidParameters(f"report is not decodable JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InvalidParameters("report is not a JSON object")
    return VerificationReport.from_dict(d)


def _sigma_json(value: SigmaValue) -> int | str:
    return "Infinite" if value.is_infinite else value.value


def outcome_json(outcome: Any) -> dict[str, Any]:
    return {
        "oneSized": outcome.one_sized,
        "family": None if outcome.family is None else outcome.family._asdict(),
        "witnessHOrder": None if outcome.witness_h is None else outcome.witness_h.order,
        "witnessCOrder": None if outcome.witness_c is None else outcome.witness_c.order,
    }


def run_check(group: Group, check_id: str) -> str:
    """Status of one named cross-check on a non-cyclic group; a cyclic one
    raises GroupIsCyclic."""
    status = _CHECKS.get(check_id) if isinstance(check_id, str) else None
    if status is None:
        raise InvalidParameters(f"unknown check id {check_id!r}")
    covers._require_noncyclic(group)
    return status(group)


def _options(options: AnalyzeOptions | None) -> AnalyzeOptions:
    """options, or the defaults for None; anything else is InvalidParameters."""
    if options is None:
        return AnalyzeOptions()
    if not isinstance(options, AnalyzeOptions):
        raise InvalidParameters(f"options {options!r} is not an AnalyzeOptions")
    return options


def _skipped(name: str, order: int, max_order: int) -> VerificationReport:
    """The report of a group of the given order above max_order."""
    skipped = f"skipped: order {order} exceeds max-order {max_order}"
    return VerificationReport(name, order, errors=(skipped,))


def run_analyze(
    group: Group, options: AnalyzeOptions | None = None
) -> VerificationReport:
    opts = _options(options)
    if group.order > opts.max_order:
        return _skipped(group.name, group.order, opts.max_order)
    errors: list[str] = []

    def stage(label, fn):
        try:
            return fn()
        except GroupCoversError as exc:
            errors.append(f"{label}: {exc}")
            return None

    # Each stage's value under the report field it fills, stages in order.
    fields: dict[str, Any] = {
        "is_solvable": stage("solvability", lambda: lattice.is_solvable(group)),
        "is_nilpotent": stage("nilpotency", lambda: lattice.is_nilpotent(group)),
        "is_supersolvable": stage(
            "supersolvability", lambda: lattice.is_supersolvable(group)
        ),
        "sigma_exact": stage("sigma", lambda: _sigma_json(covers.sigma_exact(group))),
    }
    if group.is_cyclic:
        # No cover by proper subgroups exists; nothing further applies.
        fields["sigma_tomkinson"] = fields["sigma_exact"]
    else:
        fields["lambda_value"] = stage("lambda", lambda: covers.lambda_(group))
        if fields["is_solvable"]:
            fields["sigma_tomkinson"] = stage(
                "tomkinson", lambda: _sigma_json(covers.sigma_tomkinson(group))
            )
        if group.order <= opts.enum_bound:
            fields["irredundant_sizes"] = stage(
                "enumeration",
                lambda: covers.irredundant_cover_sizes(
                    group, enum_bound=opts.enum_bound
                ),
            )
        verified = stage("classify", lambda: verify_classification(group))
        if verified is not None:
            fields["one_sized_bruteforce"] = verified.bruteforce
            fields["classify_outcome"] = outcome_json(verified.structural)
            fields["agreement"] = verified.agreement
        fields["lemma_checks"] = tuple(
            {"id": cid, "status": stage(cid, lambda cid=cid: run_check(group, cid))}
            for cid in opts.checks
        )
    return VerificationReport(
        group.name, group.order, group.is_cyclic, errors=tuple(errors), **fields
    )


def _factors(entry: CatalogEntry) -> tuple[str, ...]:
    """The names of the two factors of a product entry, () for any other."""
    src = entry.source
    return src.args if isinstance(src, PresetSource) and src.kind == "product" else ()


def _unbuilt_order(
    entry: CatalogEntry, built: dict[str, Group], factors: set[str], max_order: int
) -> int | None:
    """The order of a product entry that the corpus run reports as skipped
    without building its table, else None.

    That is a product of two built groups, of order above max_order and
    within ORDER_BOUND, whose order line is absent or matches and which no
    product entry names as a factor: building it could only give its
    order, which the factors already give.
    """
    names = _factors(entry)
    if not names or entry.name in factors or not all(n in built for n in names):
        return None
    a, b = (built[n].order for n in names)
    if max_order < a * b <= ORDER_BOUND and entry.expected_order in (None, a * b):
        return a * b
    return None


def run_verify_corpus(
    entries: Iterable[CatalogEntry], options: AnalyzeOptions | None = None
) -> dict[str, Any]:
    """Analyze every catalog entry; envelope with reports and summary.

    Construction failures become reports carrying only an error entry,
    so later entries still run.  A product that run_analyze would only
    report as skipped, and that no product uses, is reported so without
    building its table.  Reports are sorted by group name and all values
    are deterministic, making serialized output byte-stable.
    """
    opts = _options(options)
    entries = tuple(_entries(entries))
    factors = {name for e in entries for name in _factors(e)}
    built: dict[str, Group] = {}
    reports: list[VerificationReport] = []
    for entry in entries:
        order = _unbuilt_order(entry, built, factors, opts.max_order)
        if order is not None:
            reports.append(_skipped(entry.name, order, opts.max_order))
            continue
        try:
            group = build_entry(entry, built)
        except GroupCoversError as exc:
            reports.append(
                VerificationReport(
                    entry.name,
                    entry.expected_order or 0,
                    errors=(f"build: {exc}",),
                )
            )
            continue
        built[entry.name] = group
        reports.append(run_analyze(group, opts))
    reports.sort(key=lambda r: r.group_name)
    summary = {
        "groups": len(reports),
        "nonCyclic": sum(1 for r in reports if r.is_cyclic is False),
        "agreements": sum(1 for r in reports if r.agreement is True),
        "disagreements": sum(1 for r in reports if r.agreement is False),
        "errors": sum(1 for r in reports if r.errors),
    }
    return {
        "assumptions": [COMPLEMENT_COUNT_ASSUMPTION],
        "reports": [r.to_dict() for r in reports],
        "summary": summary,
    }


def serialize_envelope(envelope: dict[str, Any]) -> str:
    """The JSON text of reports, envelopes and command-line rows alike."""
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
