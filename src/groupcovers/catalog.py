"""Catalog files: a line-based text format for naming a corpus of groups.

Records are separated by blank lines.  A record is:

    group <name>
    perm <degree>; <cycles>; <cycles>; ...     (or)
    preset <kind> <args...>
    order <m>                                  (optional assertion)

Preset kinds: cyclic n | dihedral n | quaternion k | sym n | alt n |
product <name> <name> | cpcn p n l.  Products refer to earlier entries
by name.  '#' starts a comment anywhere on a line.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from importlib import resources
from typing import NamedTuple

from .errors import DuplicateName, InvalidParameters, OrderMismatch, ParseError
from .groups import (
    Group,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    from_permutation_generators,
    generalized_quaternion,
    semidirect_cp_cn,
    symmetric,
)


class PermSource(NamedTuple):
    degree: int
    generators: tuple[str, ...]


class PresetSource(NamedTuple):
    kind: str
    args: tuple[str, ...]


class CatalogEntry(NamedTuple):
    name: str
    source: PermSource | PresetSource
    expected_order: int | None
    line: int  # 1-based line of the `group` header, for diagnostics


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {token!r}", line) from None


def _ints(entry: CatalogEntry, built: dict[str, Group]) -> list[int]:
    return [_parse_int(a, "preset argument", entry.line) for a in entry.source.args]


def _groups(entry: CatalogEntry, built: dict[str, Group]) -> list[Group]:
    src = entry.source
    for a in src.args:
        if a not in built:
            raise ParseError(f"{src.kind} refers to unknown group {a!r}", entry.line)
    return [built[a] for a in src.args]


# Preset kind -> (arity, reader of its arguments from the entry and the
# groups built so far, constructor).
_PRESETS = {
    "cyclic": (1, _ints, cyclic),
    "dihedral": (1, _ints, dihedral),
    "quaternion": (1, _ints, generalized_quaternion),
    "sym": (1, _ints, symmetric),
    "alt": (1, _ints, alternating),
    "product": (2, _groups, direct_product),
    "cpcn": (3, _ints, semidirect_cp_cn),
}


def _parse_record(lines: list[tuple[int, str]]) -> CatalogEntry:
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "group":
        raise ParseError(f"expected 'group <name>', got {header!r}", lineno)
    name = parts[1]
    if len(lines) < 2:
        raise ParseError(f"group {name!r} has no construction line", lineno)

    src_lineno, src_line = lines[1]
    tokens = src_line.split()
    source: PermSource | PresetSource
    if tokens[0] == "perm":
        chunks = [c.strip() for c in src_line.split(";")]
        head = chunks[0].split()
        if len(head) != 2:
            raise ParseError("expected 'perm <degree>; ...'", src_lineno)
        degree = _parse_int(head[1], "degree", src_lineno)
        if degree < 1:
            raise ParseError("degree must be positive", src_lineno)
        gens = tuple(c for c in chunks[1:] if c)
        source = PermSource(degree, gens)
    elif tokens[0] == "preset":
        if len(tokens) < 2:
            raise ParseError("expected 'preset <kind> <args>'", src_lineno)
        kind = tokens[1]
        if kind not in _PRESETS:
            raise ParseError(f"unknown preset kind {kind!r}", src_lineno)
        arity = _PRESETS[kind][0]
        args = tuple(tokens[2:])
        if len(args) != arity:
            raise ParseError(
                f"preset {kind} takes {arity} argument(s), got {len(args)}",
                src_lineno,
            )
        source = PresetSource(kind, args)
    else:
        raise ParseError(
            f"expected 'perm' or 'preset' line, got {src_line!r}", src_lineno
        )

    expected_order: int | None = None
    for extra_lineno, extra in lines[2:]:
        tokens = extra.split()
        if tokens[0] == "order" and len(tokens) == 2:
            if expected_order is not None:
                raise ParseError("duplicate order line", extra_lineno)
            expected_order = _parse_int(tokens[1], "order", extra_lineno)
            if expected_order < 1:
                raise ParseError("order must be positive", extra_lineno)
        else:
            raise ParseError(f"unexpected line {extra!r}", extra_lineno)
    return CatalogEntry(name, source, expected_order, lineno)


def _claim(name: str, seen: set[str]) -> None:
    """Add name to the names seen so far, which must not hold it yet."""
    if name in seen:
        raise DuplicateName(f"group {name!r} defined twice")
    seen.add(name)


def parse_catalog(text: str) -> tuple[CatalogEntry, ...]:
    """Parse catalog text into entries, in file order."""
    if not isinstance(text, str):
        raise InvalidParameters(f"catalog text must be a str, not {type(text).__name__}")
    record: list[tuple[int, str]] = []
    entries: list[CatalogEntry] = []
    seen: set[str] = set()

    def flush() -> None:
        if not record:
            return
        entry = _parse_record(record)
        _claim(entry.name, seen)
        entries.append(entry)
        record.clear()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            flush()
            continue
        record.append((lineno, line))
    flush()
    return tuple(entries)


def _is_preset(src: object) -> bool:
    """Is src a preset line as parse_catalog reads it: a PresetSource of a
    known kind with as many str arguments as that kind takes?"""
    return (
        isinstance(src, PresetSource) and isinstance(src.kind, str) and src.kind in _PRESETS
        and isinstance(src.args, tuple) and len(src.args) == _PRESETS[src.kind][0]
        and all(isinstance(a, str) for a in src.args)
    )


def _entry(entry: CatalogEntry) -> CatalogEntry:
    """entry, once it is checked to have the shape parse_catalog gives one."""
    if not isinstance(entry, CatalogEntry):
        raise InvalidParameters(f"catalog entry {entry!r} is not a CatalogEntry")
    src, order = entry.source, entry.expected_order
    if not isinstance(entry.name, str):
        problem = "has a name that is not a str"
    elif not (isinstance(src, PermSource) or _is_preset(src)):
        problem = f"has source {src!r}, not a PermSource or a preset the format knows"
    elif order is not None and (type(order) is not int or order < 1):
        problem = f"has expected order {order!r}, not None or a positive int"
    elif type(entry.line) is not int or entry.line < 1:
        problem = f"has line {entry.line!r}, not a positive int"
    else:
        return entry
    raise InvalidParameters(f"catalog entry {entry.name!r} {problem}")


def _entries(entries: Iterable[CatalogEntry]) -> Iterator[CatalogEntry]:
    """Each of entries, checked as it is reached to be a CatalogEntry
    whose name no earlier entry has, as parse_catalog checks its records."""
    try:
        entries = iter(entries)
    except TypeError:
        raise InvalidParameters(f"catalog entries {entries!r} is not iterable") from None
    seen: set[str] = set()
    for entry in entries:
        _claim(_entry(entry).name, seen)
        yield entry


def build_entry(entry: CatalogEntry, built: dict[str, Group]) -> Group:
    """Construct the group for one entry; products resolve against built."""
    src = _entry(entry).source
    if isinstance(src, PermSource):
        group = from_permutation_generators(src.degree, src.generators, entry.name)
    else:
        _, arguments, make = _PRESETS[src.kind]
        group = make(*arguments(entry, built), name=entry.name)
    if entry.expected_order is not None and group.order != entry.expected_order:
        raise OrderMismatch(entry.name, entry.expected_order, group.order)
    return group


def build_catalog(entries: tuple[CatalogEntry, ...]) -> dict[str, Group]:
    """Build every entry, in order, returning name -> Group."""
    built: dict[str, Group] = {}
    for entry in _entries(entries):
        built[entry.name] = build_entry(entry, built)
    return built


def bundled_catalog_text() -> str:
    return (
        resources.files("groupcovers")
        .joinpath("data/small_groups.cat")
        .read_text(encoding="utf-8")
    )
