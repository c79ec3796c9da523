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
from dataclasses import dataclass
from typing import Any

from . import covers, lattice
from .arith import prime_divisors
from .catalog import CatalogEntry, build_entry
from .classify import (
    check_abelian_sigma_cover,
    check_p_nilpotence,
    check_quotient_invariants,
    classify,
)
from .covers import DEFAULT_ENUM_BOUND, SigmaValue
from .errors import (
    GroupCoversError,
    InvalidParameters,
    PreconditionViolation,
)
from .groups import Group

CHECK_IDS = ("lemma-pnilp", "bryce-serena", "osclemma-quotients")

DEFAULT_MAX_ORDER = 64

COMPLEMENT_COUNT_ASSUMPTION = (
    "Complements of a chief factor are counted as distinct subgroups, not up "
    "to conjugacy, and the degenerate complement equal to the factor's lower "
    "term is excluded from the count."
)


@dataclass(frozen=True)
class AnalyzeOptions:
    max_order: int = DEFAULT_MAX_ORDER
    enum_bound: int = DEFAULT_ENUM_BOUND
    checks: tuple[str, ...] = CHECK_IDS

    def __post_init__(self) -> None:
        if self.max_order < 0:
            raise InvalidParameters(f"max order {self.max_order} is negative")
        if self.enum_bound < 0:
            raise InvalidParameters(f"enumeration bound {self.enum_bound} is negative")
        unknown = [c for c in self.checks if c not in CHECK_IDS]
        if unknown:
            raise InvalidParameters(f"unknown check id {unknown[0]!r}")


@dataclass(frozen=True)
class VerificationReport:
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
            "groupName": self.group_name,
            "order": self.order,
            "isCyclic": self.is_cyclic,
            "isSolvable": self.is_solvable,
            "isNilpotent": self.is_nilpotent,
            "isSupersolvable": self.is_supersolvable,
            "lambda": self.lambda_value,
            "sigmaExact": self.sigma_exact,
            "sigmaTomkinson": self.sigma_tomkinson,
            "irredundantSizes": None
            if self.irredundant_sizes is None
            else list(self.irredundant_sizes),
            "oneSizedBruteforce": self.one_sized_bruteforce,
            "classifyOutcome": self.classify_outcome,
            "agreement": self.agreement,
            "lemmaChecks": [dict(c) for c in self.lemma_checks],
            "errors": list(self.errors),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "VerificationReport":
        sizes = d["irredundantSizes"]
        return cls(
            group_name=d["groupName"],
            order=d["order"],
            is_cyclic=d["isCyclic"],
            is_solvable=d["isSolvable"],
            is_nilpotent=d["isNilpotent"],
            is_supersolvable=d["isSupersolvable"],
            lambda_value=d["lambda"],
            sigma_exact=d["sigmaExact"],
            sigma_tomkinson=d["sigmaTomkinson"],
            irredundant_sizes=None if sizes is None else tuple(sizes),
            one_sized_bruteforce=d["oneSizedBruteforce"],
            classify_outcome=d["classifyOutcome"],
            agreement=d["agreement"],
            lemma_checks=tuple(dict(c) for c in d["lemmaChecks"]),
            errors=tuple(d["errors"]),
        )


def serialize_report(report: VerificationReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_report(text: str) -> VerificationReport:
    return VerificationReport.from_dict(json.loads(text))


def _sigma_json(value: SigmaValue) -> int | str:
    return "Infinite" if value.is_infinite else value.value


def outcome_json(outcome: Any) -> dict[str, Any]:
    family = None
    if outcome.family is not None:
        family = {
            "kind": outcome.family.kind,
            "p": outcome.family.p,
            "n": outcome.family.n,
        }
    return {
        "oneSized": outcome.one_sized,
        "family": family,
        "witnessHOrder": None if outcome.witness_h is None else outcome.witness_h.order,
        "witnessCOrder": None if outcome.witness_c is None else outcome.witness_c.order,
    }


def run_check(group: Group, check_id: str) -> str:
    """Status of one named cross-check on a non-cyclic group."""
    if check_id == "lemma-pnilp":
        if not lattice.is_solvable(group):
            return "vacuous"
        statuses = [
            check_p_nilpotence(group, p).status for p in prime_divisors(group.order)
        ]
        if "violation" in statuses:
            return "violation"
        if "consistent" in statuses:
            return "consistent"
        return "vacuous"
    if check_id == "bryce-serena":
        return check_abelian_sigma_cover(group).status
    if check_id == "osclemma-quotients":
        try:
            return check_quotient_invariants(group).status
        except PreconditionViolation:
            return "vacuous"
    raise InvalidParameters(f"unknown check id {check_id!r}")


def run_analyze(
    group: Group, options: AnalyzeOptions | None = None
) -> VerificationReport:
    opts = options or AnalyzeOptions()
    errors: list[str] = []

    def stage(label, fn):
        try:
            return fn()
        except GroupCoversError as exc:
            errors.append(f"{label}: {exc}")
            return None

    if group.order > opts.max_order:
        errors.append(
            f"skipped: order {group.order} exceeds max-order {opts.max_order}"
        )
        return VerificationReport(group.name, group.order, errors=tuple(errors))

    is_solv = stage("solvability", lambda: lattice.is_solvable(group))
    is_nilp = stage("nilpotency", lambda: lattice.is_nilpotent(group))
    is_sup = stage("supersolvability", lambda: lattice.is_supersolvable(group))
    sig = stage("sigma", lambda: _sigma_json(covers.sigma_exact(group)))

    if group.is_cyclic:
        # No cover by proper subgroups exists; nothing further applies.
        return VerificationReport(
            group.name,
            group.order,
            is_cyclic=True,
            is_solvable=is_solv,
            is_nilpotent=is_nilp,
            is_supersolvable=is_sup,
            sigma_exact=sig,
            sigma_tomkinson=sig,
            errors=tuple(errors),
        )

    lam = stage("lambda", lambda: covers.lambda_(group))
    sig_tom = None
    if is_solv:
        sig_tom = stage("tomkinson", lambda: _sigma_json(covers.sigma_tomkinson(group)))

    sizes = None
    if group.order <= opts.enum_bound:
        sizes = stage(
            "enumeration",
            lambda: covers.irredundant_cover_sizes(group, enum_bound=opts.enum_bound),
        )

    one_sized = stage("one-sized", lambda: covers.one_sized_bruteforce(group))
    outcome = stage("classify", lambda: classify(group))

    agreement = None
    if outcome is not None and one_sized is not None:
        agreement = outcome.one_sized == one_sized

    lemma_checks = tuple(
        {
            "id": cid,
            "status": stage(cid, lambda cid=cid: run_check(group, cid)),
        }
        for cid in opts.checks
    )

    return VerificationReport(
        group_name=group.name,
        order=group.order,
        is_cyclic=False,
        is_solvable=is_solv,
        is_nilpotent=is_nilp,
        is_supersolvable=is_sup,
        lambda_value=lam,
        sigma_exact=sig,
        sigma_tomkinson=sig_tom,
        irredundant_sizes=sizes,
        one_sized_bruteforce=one_sized,
        classify_outcome=None if outcome is None else outcome_json(outcome),
        agreement=agreement,
        lemma_checks=lemma_checks,
        errors=tuple(errors),
    )


def run_verify_corpus(
    entries: Iterable[CatalogEntry], options: AnalyzeOptions | None = None
) -> dict[str, Any]:
    """Analyze every catalog entry; envelope with reports and summary.

    Construction failures become reports carrying only an error entry,
    so later entries still run.  Reports are sorted by group name and
    all values are deterministic, making serialized output byte-stable.
    """
    opts = options or AnalyzeOptions()
    built: dict[str, Group] = {}
    reports: list[VerificationReport] = []
    for entry in entries:
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
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"
