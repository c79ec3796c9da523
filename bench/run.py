"""groupcovers benchmark: one workload, measured end to end or traced.

    python3 bench/run.py --workload corpus64|ladder|stream --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
Every pass runs in a fresh child interpreter (bench/child.py) under a
wall-clock limit.  --trace 0 prints the end-to-end metrics, --trace 1
one untraced and one traced pass and the per-layer metrics.  Human
readable lines come first; the last line is one JSON object with
correct, attempted, failed and metrics.  See bench/DESIGN.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = BENCH / "out"

# A run must end within 180 s; passes and children share this budget.
RUN_LIMIT_S = 170.0
# Extra fresh interpreters that only set up, for the setup_s median.
SETUP_PROBES = 3
TAIL_BEYOND = 10

sys.path.insert(0, str(BENCH))
from tracing import SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(workload, seed, mode, deadline, spans=None):
    """Run one child; returns its per-group lines, summary and status."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, deadline - time.monotonic())
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    groups, summary = [], None
    for line in out.splitlines():
        obj = json.loads(line)
        if "summary" in obj:
            summary = obj["summary"]
        else:
            groups.append(obj)
    if proc.returncode != 0 and not timed_out:
        print(f"child {mode} pass exited {proc.returncode}: {err.strip()[-2000:]}")
    if timed_out:
        print(f"child {mode} pass hit the time limit after {len(groups)} groups")
    return {"groups": groups, "summary": summary, "timed_out": timed_out}


def load_reference(workload):
    if workload == "stream":
        return None
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))[workload]


def verify(workload, child, expected, reference):
    """(attempted, failed, problems) for one pass; an operation is one
    group, and a group that never reported fails."""
    summary = child["summary"]
    problems = []
    if workload == "stream":
        for g in child["groups"]:
            problems += [f"{g['group']}: {p}" for p in g["problems"]]
        failed = expected - sum(1 for g in child["groups"] if not g["problems"])
    elif summary is None:
        failed = expected
    else:
        want, got = reference["reports"], summary["reports"]
        bad = sorted(n for n in set(want) | set(got) if got.get(n) != want.get(n))
        problems += [f"{n}: report differs from the reference" for n in bad]
        failed = len(bad)
        if not bad and summary["envelope_sha256"] != reference["envelope_sha256"]:
            problems.append("envelope differs from the reference")
            failed = 1
        if summary["disagreements"]:
            problems.append(f"{summary['disagreements']} classification disagreements")
    if summary is None:
        problems.append("pass did not finish")
    return expected, min(failed, expected), problems


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by Beta((n+1)q, (n+1)(1-q)) over each one's share
    of [0, 1].  Per-group times cluster (cyclic groups, small non-cyclic
    ones, ...), and a single order statistic jumps across the gap between
    two clusters from run to run."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(u):
        if u <= 0 or u >= 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))

    steps = 8  # Simpson's rule on each order statistic's interval
    weights = []
    for i in range(n):
        h = 1 / (n * steps)
        u = [i / n + k * h for k in range(steps + 1)]
        weights.append(h / 3 * sum(
            pdf(x) * (1 if k in (0, steps) else 4 if k % 2 else 2) for k, x in enumerate(u)))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum when there are fewer
    than 2 * TAIL_BEYOND samples, where that percentile would not lie
    above the median."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return max(values), 100.0, 0
    q = (n - TAIL_BEYOND) / n
    return quantile(values, q), 100.0 * q, TAIL_BEYOND


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def check_counts(workload, seed, counts):
    """Counts must repeat exactly for the same code and inputs; compare
    with the first traced run recorded in this checkout."""
    OUT.mkdir(exist_ok=True)
    store = OUT / "counts.json"
    seen = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    key = f"{workload}:{seed if workload == 'stream' else '-'}:{src_digest()}"
    if key in seen:
        return seen[key] == counts
    seen[key] = counts
    store.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    return True


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline, reference):
    probes = [spawn(args.workload, args.seed, "probe", deadline) for _ in range(SETUP_PROBES)]
    if any(p["summary"] is None for p in probes):
        fail("setup failed in a fresh interpreter")
    expected = probes[0]["summary"]["groups"]
    passes = []
    t0 = time.monotonic()
    while True:
        child = spawn(args.workload, args.seed, "run", deadline)
        passes.append(child)
        used = time.monotonic() - t0
        if child["summary"] is None or used * (len(passes) + 1) / len(passes) > args.seconds:
            break

    attempted = failed = 0
    for child in passes:
        a, f, problems = verify(args.workload, child, expected, reference)
        attempted, failed = attempted + a, failed + f
        for p in problems[:20]:
            print(f"  wrong: {p}")
    finished = [c for c in passes if c["summary"] is not None]
    basis = finished or passes
    times = [c["summary"]["group_ms"] if c["summary"] else [g["ms"] for g in c["groups"]] or [0.0]
             for c in basis]
    walls = [c["summary"]["wall_s"] if c["summary"] else sum(t) / 1e3 for c, t in zip(basis, times)]
    setups = [c["summary"]["setup_s"] for c in probes + finished]
    tails = [tail(t) for t in times]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "group_p50_ms": metric(statistics.median(quantile(t, 0.5) for t in times), "ms"),
        "group_tail_ms": metric(statistics.median(t[0] for t in tails), "ms"),
        "peak_rss_mb": metric(statistics.median(
            [c["summary"]["peak_rss_mb"] for c in finished] or [0.0]), "MB"),
    }
    raw_walls = [c["summary"]["wall_raw_s"] for c in finished]
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  groups/pass {expected}"
          "  (times in reference seconds, see bench/speed.py)")
    for name, m in metrics.items():
        print(f"  {name:14s} {m['value']:12.4f} {m['unit']}")
    print(f"  setup_s is the median of {len(setups)} fresh interpreters; raw wall_s per pass:"
          f" {', '.join(f'{w:.3f}' for w in raw_walls)} s")
    print(f"  group_tail_ms is p{tails[0][1]:.1f} of {len(times[0])} groups, {tails[0][2]} beyond it")
    print(f"  failed_share   {failed}/{attempted} = {failed / attempted:.4f}")
    return attempted, failed, metrics


def traced(args, deadline, reference):
    plain = spawn(args.workload, args.seed, "run", deadline - (deadline - time.monotonic()) / 2)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    trace = spawn(args.workload, args.seed, "trace", deadline, spans=spans_path)
    if plain["summary"] is None or trace["summary"] is None:
        fail("a pass did not finish; no per-layer numbers")
    expected = plain["summary"]["groups"]
    attempted = failed = 0
    for child in (plain, trace):
        a, f, problems = verify(args.workload, child, expected, reference)
        attempted, failed = attempted + a, failed + f
        for p in problems[:20]:
            print(f"  wrong: {p}")
    ps, ts = plain["summary"], trace["summary"]
    key = "answers" if args.workload == "stream" else "reports"
    differ = sorted(n for n in set(ps[key]) | set(ts[key]) if ps[key].get(n) != ts[key].get(n))
    for n in differ[:20]:
        print(f"  traced answer differs: {n}")
    failed += len(differ)
    deterministic = check_counts(args.workload, args.seed, ts["counts"])
    if not deterministic:
        print("  NONDETERMINISM: counts differ from an earlier traced run of this code and seed")
        failed += 1

    self_all = ts["self_all"]
    counts = ts["counts"]
    metrics = {f"{name}_s": metric(self_all.get(name, 0.0), "s") for name in SPAN_NAMES}
    for name in ("lattice.subgroups_found", "covers.covers_enumerated", "classify.quotient_items"):
        metrics[name] = metric(counts[name], "count")
    covers = counts["covers.covers_enumerated"]
    metrics["covers.walk_yield"] = metric(
        counts["covers.sizes_reported"] / covers if covers else 0.0, "ratio")
    metrics["classify.check_quotients_total_s"] = metric(ts["check_quotients_total_s"], "s")
    # Raw seconds on both sides: spans are not speed-corrected.
    overhead = ts["wall_raw_s"] - ps["wall_raw_s"]
    layers = sum(v for k, v in ts["self_analysis"].items() if k in SPAN_NAMES)
    metrics["trace.overhead_s"] = metric(overhead, "s")
    metrics["trace.coverage"] = metric(layers / ts["wall_raw_s"], "ratio")

    print(f"workload {args.workload}  seed {args.seed}  traced, {ts['spans']} spans -> {spans_path.relative_to(ROOT)}")
    print(f"  raw wall: untraced {ps['wall_raw_s']:.3f} s, traced {ts['wall_raw_s']:.3f} s, overhead {overhead:.3f} s")
    print(f"  layer self time in the traced wall {layers:.3f} s, unattributed {ts['wall_raw_s'] - layers:.3f} s")
    for name in sorted(SPAN_NAMES, key=lambda n: -self_all.get(n, 0.0)):
        v = self_all.get(name, 0.0)
        print(f"  {name + '_s':28s} {v:10.4f} s  {100 * v / ts['wall_raw_s']:5.1f}%")
    for name, m in metrics.items():
        if not name.endswith("_s"):
            print(f"  {name:28s} {m['value']:10.6g} {m['unit']}")
    return attempted, failed, metrics


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "groupcovers" / "__init__.py").is_file():
        fail(f"no src/groupcovers under {ROOT}; run from the root of a groupcovers checkout")
    reference = load_reference(args.workload)

    run = traced if args.trace else end_to_end
    attempted, failed, metrics = run(args, deadline, reference)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
