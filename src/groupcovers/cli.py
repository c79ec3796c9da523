"""Command-line interface.

Subcommands operate on a catalog file (bundled corpus when omitted):

    analyze [catalog] [--group NAME]     full per-group reports
    sigma / lambda / classify            single quantities
    covers --enumerate [--cap K]         irredundant-cover statistics, for
                                         groups up to --enum-bound
    verify-corpus [catalog]              corpus run, nonzero exit on
                                         any classification disagreement
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import Any

from . import covers
from .catalog import build_catalog, bundled_catalog_text, parse_catalog
from .classify import classify
from .covers import DEFAULT_ENUM_BOUND
from .errors import GroupCoversError, InvalidParameters
from .groups import Group, _natural
from .reports import (
    CHECK_IDS,
    DEFAULT_MAX_ORDER,
    AnalyzeOptions,
    _sigma_json,
    outcome_json,
    run_analyze,
    run_verify_corpus,
    serialize_envelope,
)


def build_parser() -> argparse.ArgumentParser:
    # The global flags, on a parent that the root parser and every
    # subcommand take, so they may stand on either side of the subcommand
    # and the later value wins.  Their defaults are suppressed and main
    # seeds the namespace with them instead: the parsers share these
    # actions, so a default set on any parser would be written again by
    # the subcommand's parse over a value given before the subcommand.
    flags = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    flags.add_argument("--json", action="store_true", help="emit JSON output")
    flags.add_argument(
        "--max-order", type=int, metavar="N",
        help=f"skip groups larger than N (default {DEFAULT_MAX_ORDER})",
    )
    flags.add_argument(
        "--enum-bound", type=int, metavar="N",
        help=f"enumerate covers only for groups of order at most N "
        f"(default {DEFAULT_ENUM_BOUND})",
    )
    flags.add_argument(
        "--checks", metavar="IDS", help="comma-separated cross-checks to run (default: all)"
    )
    parser = argparse.ArgumentParser(
        prog="groupcovers",
        description="Minimum covers of finite groups by proper subgroups.",
        parents=[flags],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str, group_flag: bool = True):
        p = sub.add_parser(name, help=help_text, parents=[flags])
        p.add_argument(
            "catalog", nargs="?", default=None, help="catalog file (default: bundled)"
        )
        if group_flag:
            p.add_argument("--group", metavar="NAME", help="restrict to one group")
        p.set_defaults(func=handler)
        return p

    command("analyze", _cmd_analyze, "full verification report per group")
    command("sigma", _cmd_sigma, "minimum size of a proper-subgroup cover")
    command("lambda", _cmd_lambda, "number of maximal cyclic subgroups")
    p = command("covers", _cmd_covers, "irredundant cover statistics")
    p.add_argument(
        "--enumerate", action="store_true", help="walk all irredundant covers"
    )
    p.add_argument(
        "--cap", type=int, metavar="K", default=None, help="only covers of size <= K"
    )
    command("classify", _cmd_classify, "structural one-sized classification")
    command("verify-corpus", _cmd_verify, "analyze a whole catalog", group_flag=False)
    return parser


def _options(args: argparse.Namespace) -> AnalyzeOptions:
    checks = tuple(c for c in args.checks.split(",") if c)
    return AnalyzeOptions(
        max_order=args.max_order, enum_bound=args.enum_bound, checks=checks
    )


def _load_entries(path: str | None):
    text = Path(path).read_text(encoding="utf-8-sig") if path else bundled_catalog_text()
    return parse_catalog(text)


def _select(args: argparse.Namespace) -> list[Group]:
    groups = build_catalog(_load_entries(args.catalog))
    if getattr(args, "group", None) is not None:
        if args.group not in groups:
            raise InvalidParameters(f"no group named {args.group!r} in the catalog")
        return [groups[args.group]]
    return list(groups.values())


def _per_group(
    args: argparse.Namespace,
    opts: AnalyzeOptions,
    describe: Callable[[Group, dict[str, Any]], str],
    cyclic: tuple[str, str] | None = None,
) -> int:
    """One JSON row and one text line per selected group.

    describe(g, row) adds its fields to the row and returns the text
    after "name: "; groups above --max-order get a skip row instead, and
    with cyclic = (key, text) a cyclic group gets key null and that text.
    """
    rows, text = [], []
    for g in _select(args):
        row: dict[str, Any] = {"groupName": g.name, "order": g.order}
        if g.order > opts.max_order:
            row["skipped"] = True
            line = f"skipped (order {g.order} exceeds --max-order {opts.max_order})"
        elif cyclic is not None and g.is_cyclic:
            key, line = cyclic
            row[key] = None
        else:
            line = describe(g, row)
        rows.append(row)
        text.append(f"{g.name}: {line}")
    if args.json:
        sys.stdout.write(serialize_envelope(rows))
    else:
        for line in text:
            print(line)
    return 0


_CYCLIC_LAMBDA = ("lambda", "cyclic, no cover by proper subgroups")
_CYCLIC_CLASSIFY = ("classifyOutcome", "cyclic, not applicable")


def _cmd_analyze(args: argparse.Namespace, opts: AnalyzeOptions) -> int:
    reports = [run_analyze(g, opts) for g in _select(args)]
    if args.json:
        docs = [r.to_dict() for r in reports]
        sys.stdout.write(serialize_envelope(docs[0] if len(docs) == 1 else docs))
        return 0
    for r in reports:
        for line in _render_report(r):
            print(line)
    return 0


def _family_text(fam: dict[str, Any] | None) -> str:
    if fam is None:
        return "none"
    if fam["p"] is None:
        return fam["kind"]
    return f"{fam['kind']}(p={fam['p']},n={fam['n']})"


def _render_report(r) -> list[str]:
    lines = [f"{r.group_name}: order={r.order} cyclic={_yn(r.is_cyclic)}"]
    if r.is_cyclic:
        lines.append(f"  sigma={r.sigma_exact} (no cover by proper subgroups)")
    elif r.is_cyclic is False:
        lines.append(
            f"  solvable={_yn(r.is_solvable)} nilpotent={_yn(r.is_nilpotent)}"
            f" supersolvable={_yn(r.is_supersolvable)}"
        )
        sizes = "-" if r.irredundant_sizes is None else list(r.irredundant_sizes)
        lines.append(
            f"  lambda={r.lambda_value} sigma={r.sigma_exact}"
            f" tomkinson={r.sigma_tomkinson} sizes={sizes}"
        )
        out = r.classify_outcome
        if out is not None:
            lines.append(
                f"  oneSized={_yn(out['oneSized'])} family={_family_text(out['family'])}"
                f" bruteforce={_yn(r.one_sized_bruteforce)}"
                f" agreement={_yn(r.agreement)}"
            )
        if r.lemma_checks:
            checks = " ".join(f"{c['id']}={c['status']}" for c in r.lemma_checks)
            lines.append(f"  checks: {checks}")
    for err in r.errors:
        lines.append(f"  ! {err}")
    return lines


def _yn(v: bool | None) -> str:
    return "-" if v is None else ("yes" if v else "no")


def _cmd_sigma(args: argparse.Namespace, opts: AnalyzeOptions) -> int:
    def describe(g: Group, row: dict[str, Any]) -> str:
        row["sigma"] = s = _sigma_json(covers.sigma_exact(g))
        return f"sigma={s}"

    return _per_group(args, opts, describe)


def _cmd_lambda(args: argparse.Namespace, opts: AnalyzeOptions) -> int:
    def describe(g: Group, row: dict[str, Any]) -> str:
        row["lambda"] = lam = covers.lambda_(g)
        return f"lambda={lam}"

    return _per_group(args, opts, describe, _CYCLIC_LAMBDA)


def _cmd_covers(args: argparse.Namespace, opts: AnalyzeOptions) -> int:
    if args.cap is not None:
        _natural(args.cap, "size cap")

    def describe(g: Group, row: dict[str, Any]) -> str:
        family = covers.maximal_cyclic_family(g)
        orders = [m.order for m in family.members]
        row["lambda"] = len(family)
        row["memberOrders"] = orders
        line = f"lambda={len(family)} maximal cyclic orders={orders}"
        if args.enumerate and g.order > opts.enum_bound:
            row["enumeration"] = None
            line += f"\n  not enumerated: order above --enum-bound {opts.enum_bound}"
        elif args.enumerate:
            stats = covers.cover_enumeration_stats(
                g, args.cap, enum_bound=opts.enum_bound
            )
            row["enumeration"] = {
                "coverCount": stats.cover_count,
                "sizeCounts": [list(p) for p in stats.size_counts],
                "multiTraceSizes": list(stats.multi_trace_sizes),
            }
            pairs = " ".join(f"{s}:{c}" for s, c in stats.size_counts)
            cap_note = "" if args.cap is None else f" (cap {args.cap})"
            line += f"\n  covers={stats.cover_count}{cap_note} by size: {pairs}"
        return line

    return _per_group(args, opts, describe, _CYCLIC_LAMBDA)


def _cmd_classify(args: argparse.Namespace, opts: AnalyzeOptions) -> int:
    def describe(g: Group, row: dict[str, Any]) -> str:
        row["classifyOutcome"] = out = outcome_json(classify(g))
        return f"oneSized={_yn(out['oneSized'])} family={_family_text(out['family'])}"

    return _per_group(args, opts, describe, _CYCLIC_CLASSIFY)


def _cmd_verify(args: argparse.Namespace, opts: AnalyzeOptions) -> int:
    envelope = run_verify_corpus(_load_entries(args.catalog), opts)
    summary = envelope["summary"]
    if args.json:
        sys.stdout.write(serialize_envelope(envelope))
    else:
        for r in envelope["reports"]:
            status = "agree" if r["agreement"] else (
                "cyclic" if r["isCyclic"] else
                "DISAGREE" if r["agreement"] is False else "-"
            )
            extra = f" ! {'; '.join(r['errors'])}" if r["errors"] else ""
            print(
                f"{r['groupName']}: order={r['order']}"
                f" sigma={r['sigmaExact']} {status}{extra}"
            )
        print(
            "summary: groups={groups} nonCyclic={nonCyclic}"
            " agreements={agreements} disagreements={disagreements}"
            " errors={errors}".format(**summary)
        )
    return 1 if summary["disagreements"] else 0


def main(argv: Sequence[str] | None = None) -> int:
    defaults = argparse.Namespace(
        json=False, max_order=DEFAULT_MAX_ORDER, enum_bound=DEFAULT_ENUM_BOUND,
        checks=",".join(CHECK_IDS),
    )
    args = build_parser().parse_args(argv, defaults)
    try:
        return args.func(args, _options(args))
    except (GroupCoversError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
