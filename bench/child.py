"""One pass of one workload, in a fresh interpreter.

Started by run.py, never by hand.  Prints one JSON line per analysed
group as soon as it is done (so a pass cut by its time limit still
reports what finished) and one final JSON line with the pass summary.
The module-level lru_caches of the library key on Group identity and
never free a group; a fresh process per pass keeps them from warming up
or inflating later passes.

Modes: probe (set up, then stop), run (untraced, times in reference
seconds, see speed.py) and trace (spans, raw seconds).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import groupcovers as gc  # noqa: E402

if not Path(gc.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"groupcovers was imported from {gc.__file__}, not from {ROOT / 'src'}")

import speed  # noqa: E402
import workloads  # noqa: E402
from tracing import WALK_COUNTS, Tracer  # noqa: E402


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def catalog_pass(entries, options, sampler, tracer):
    """run_verify_corpus with run_analyze timed per group from outside."""
    reports = gc.reports
    analyze = reports.run_analyze
    marks = []

    def timed_analyze(group, opts=None):
        if tracer is not None:
            tracer.group = group.name
        a = sampler.mark()
        report = analyze(group, opts)
        b = sampler.mark()
        if tracer is not None:
            tracer.group = None
        marks.append((a, b))
        emit({"group": group.name, "ms": (b[0] - a[0]) * 1e3})
        return report

    reports.run_analyze = timed_analyze
    try:
        start = sampler.mark()
        envelope = gc.run_verify_corpus(entries, options)
        text = gc.serialize_envelope(envelope)
        end = sampler.mark()
    finally:
        reports.run_analyze = analyze
    return start, end, marks, {
        "envelope_sha256": sha256(text),
        "reports": {
            r["groupName"]: sha256(json.dumps(r, sort_keys=True)) for r in envelope["reports"]
        },
        "disagreements": envelope["summary"]["disagreements"],
    }


def stream_pass(inputs, sampler, tracer):
    walk_counts = gc.cover_enumeration_stats
    query = workloads.stream_query
    if tracer is not None:
        walk_counts = tracer.wrap(WALK_COUNTS, walk_counts)
        query = tracer.wrap("bench.group", query)
    answers = {}
    marks = []
    start = sampler.mark()
    for name, table in inputs:
        if tracer is not None:
            tracer.group = name
        a = sampler.mark()
        try:
            result = query(gc, name, table, walk_counts)
        except Exception as exc:  # a wrong answer of any kind fails this group only
            b = sampler.mark()
            problems = [f"{type(exc).__name__}: {exc}"]
        else:
            b = sampler.mark()
            answer, problems = workloads.stream_answer(result)
            answers[name] = sha256(json.dumps(answer, sort_keys=True))
        marks.append((a, b))
        emit({"group": name, "ms": (b[0] - a[0]) * 1e3, "problems": problems})
    end = sampler.mark()
    return start, end, marks, {"answers": answers}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        tracer.install(gc)

    if args.workload == "stream":
        inputs = workloads.stream_inputs(gc, args.seed)
    else:
        text = gc.bundled_catalog_text() if args.workload == "corpus64" else workloads.LADDER_CATALOG
        inputs = gc.parse_catalog(text)
        max_order = gc.DEFAULT_MAX_ORDER if args.workload == "corpus64" else workloads.LADDER_MAX_ORDER
        options = gc.AnalyzeOptions(max_order=max_order)
    # Setup ends here: the next library call is the first analysis call.
    setup_raw = time.monotonic() - args.spawned_at
    setup_scale = speed.scale([speed.kernel() for _ in range(3)])
    summary = {"setup_s": setup_raw * setup_scale, "groups": len(inputs)}
    if args.mode == "probe":
        emit({"summary": summary})
        return

    sampler = speed.Sampler()
    if tracer is None:
        sampler.start()
    try:
        if args.workload == "stream":
            start, end, marks, outputs = stream_pass(inputs, sampler, tracer)
        else:
            start, end, marks, outputs = catalog_pass(inputs, options, sampler, tracer)
    finally:
        sampler.stop()
    summary.update(outputs)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def raw(a, b):
        return (b[0] - a[0]) - (b[1] - a[1])

    seconds = raw if tracer is not None else sampler.reference_seconds
    summary["group_ms"] = [seconds(a, b) * 1e3 for a, b in marks]
    if args.workload == "stream":
        summary["wall_s"] = sum(summary["group_ms"]) / 1e3
        summary["wall_raw_s"] = sum(raw(a, b) for a, b in marks)
    else:
        summary["wall_s"] = seconds(start, end)
        summary["wall_raw_s"] = raw(start, end)
    if tracer is not None:
        summary["self_all"] = tracer.self_times()
        summary["self_analysis"] = tracer.self_times(start[0], end[0])
        summary["check_quotients_total_s"] = tracer.total_time("classify.check_quotients")
        summary["counts"] = tracer.counts
        summary["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    emit({"summary": summary})


if __name__ == "__main__":
    main()
