"""Spans and counts recorded from outside the library.

The traced child replaces each layer's public functions, in every
groupcovers module namespace that holds them, with wrappers that record
a span (name, start, end, parent, group).  Spans nest by call, so a
layer's self time is its spans' durations minus the time their child
spans cover: a lattice filled from inside sigma_exact is charged to
lattice.subgroups, wherever the first call happens.  Nothing here runs
in the untraced child.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("catalog", "groups", "lattice", "covers", "classify", "reports")

# Span name -> (module, public function) pairs timed under that name.
LAYER_FUNCTIONS = {
    "catalog.parse": [("catalog", "parse_catalog")],
    "groups.build": [
        ("catalog", "build_entry"),
        ("groups", "cyclic"),
        ("groups", "dihedral"),
        ("groups", "generalized_quaternion"),
        ("groups", "symmetric"),
        ("groups", "alternating"),
        ("groups", "direct_product"),
        ("groups", "semidirect_cp_cn"),
        ("groups", "from_permutation_generators"),
    ],
    "groups.validate": [("groups", "validate_group")],
    "lattice.subgroups": [
        ("lattice", "all_subgroups"),
        ("lattice", "cyclic_subgroups"),
        ("lattice", "normal_subgroups"),
    ],
    "lattice.maximal": [
        ("lattice", "maximal_subgroups"),
        ("lattice", "minimal_normal_subgroups"),
        ("lattice", "frattini_subgroup"),
    ],
    "lattice.predicates": [
        ("lattice", "is_solvable"),
        ("lattice", "is_nilpotent"),
        ("lattice", "is_supersolvable"),
        ("lattice", "sylow_subgroup"),
        ("lattice", "has_normal_p_complement"),
    ],
    "lattice.chief": [("lattice", "chief_series")],
    "covers.walk_sizes": [("covers", "irredundant_cover_sizes")],
    "covers.sigma_exact": [("covers", "sigma_exact")],
    "covers.sigma_tomkinson": [("covers", "sigma_tomkinson")],
    "covers.lambda": [("covers", "lambda_")],
    "classify.classify": [("classify", "classify")],
    "classify.one_sized": [("covers", "one_sized_bruteforce")],
    "classify.check_pnilp": [("classify", "check_p_nilpotence")],
    "classify.check_abelian": [("classify", "check_abelian_sigma_cover")],
    "classify.check_quotients": [("classify", "check_quotient_invariants")],
    "reports.analyze": [
        ("reports", "run_verify_corpus"),
        ("reports", "run_analyze"),
        ("reports", "run_check"),
    ],
    "reports.serialize": [("reports", "serialize_envelope")],
}

# Opened by the benchmark itself around a direct cover_enumeration_stats
# call (stream); inside irredundant_cover_sizes the same walk stays part
# of covers.walk_sizes.
WALK_COUNTS = "covers.walk_counts"
SPAN_NAMES = tuple(LAYER_FUNCTIONS) + (WALK_COUNTS,)
COUNT_NAMES = (
    "lattice.subgroups_found",
    "covers.covers_enumerated",
    "covers.sizes_reported",
    "classify.quotient_items",
)


class Tracer:
    def __init__(self) -> None:
        # Each span is [name, start, end, parent index, group label].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group: str | None = None
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.group]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _counting(self, fn, on_new_result):
        """Wrap an lru_cached fn; on_new_result sees results it computed."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            misses = fn.cache_info().misses
            result = fn(*args, **kwargs)
            if fn.cache_info().misses != misses:
                on_new_result(result)
            return result

        return counted

    def install(self, package) -> None:
        """Patch every groupcovers namespace; call before any analysis."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        counts = self.counts

        def on_walk(stats):
            counts["covers.covers_enumerated"] += stats.cover_count
            counts["covers.sizes_reported"] += len(stats.size_counts)

        def on_lattice(subgroups):
            counts["lattice.subgroups_found"] += len(subgroups)

        def quotient_items(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["classify.quotient_items"] += len(result.items)
                return result

            return counted

        # Counting wrappers sit inside the span wrappers.  The walk gets no
        # span of its own: its time belongs to whoever called it.
        walk = modules["covers"].cover_enumeration_stats
        subs = modules["lattice"].all_subgroups
        check = modules["classify"].check_quotient_invariants
        inner = {
            id(walk): self._counting(walk, on_walk),
            id(subs): self._counting(subs, on_lattice),
            id(check): quotient_items(check),
        }
        replace = {id(walk): inner[id(walk)]}
        for name, funcs in LAYER_FUNCTIONS.items():
            for mod, attr in funcs:
                fn = getattr(modules[mod], attr)
                replace[id(fn)] = self.wrap(name, inner.get(id(fn), fn))

        for mod in [package, *modules.values()]:
            for attr, value in list(vars(mod).items()):
                new = replace.get(id(value))
                if new is not None:
                    setattr(mod, attr, new)

    def self_times(self, start: float = float("-inf"), end: float = float("inf")):
        """Self time per span name over spans that begin in [start, end]."""
        child_time = [0.0] * len(self.spans)
        for name, s, e, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        out: dict[str, float] = defaultdict(float)
        for i, (name, s, e, _, _) in enumerate(self.spans):
            if start <= s <= end:
                out[name] += (e - s) - child_time[i]
        return out

    def total_time(self, name: str) -> float:
        """Summed duration of the spans of one name, children included."""
        return sum(e - s for n, s, e, _, _ in self.spans if n == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, s, e, parent, group) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {"id": i, "name": name, "start": s, "end": e, "parent": parent, "group": group}
                    )
                    + "\n"
                )
