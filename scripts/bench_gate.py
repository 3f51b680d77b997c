#!/usr/bin/env python3
"""Bench regression gate for committed BENCH_*.json records.

Compares a freshly measured bench record against the committed baseline
and fails (exit 1) when any watched field of any matching row regresses
by more than the threshold.  The schema — row key and watched fields — is
picked by the record's "bench" name:

  engine_throughput (rows keyed by threads, cache):
    * jobs_per_sec         — regression = current below baseline
    * avg_hit_ms           — regression = current above baseline
    * avg_miss_ms          — regression = current above baseline
    * queue_depth_peak     — regression = current above baseline

  serve_throughput (rows keyed by mode, tenants; records predating the
  overload mode default their rows to mode="steady"):
    * jobs_per_sec         — regression = current below baseline
    * p50_cycles           — regression = current above baseline
    * p99_cycles           — regression = current above baseline
    * p99_hi_cycles        — regression = current above baseline
                             (highest-priority tail: the overload rows'
                             "shed instead of collapse" yardstick)
    * deadline_missed      — regression = current above baseline
    * rejected             — regression = current above baseline
    * shed                 — regression = current above baseline
    * degraded             — regression = current above baseline

The per-job latency columns use a wider band (--latency-threshold,
default 1.0 = 2x): at the ~10us (hit) and ~1ms (miss) scales a
preemption on a shared box moves a single measurement far more than 30%,
while the regressions the gate exists to catch (e.g. losing single-flight
coalescing re-grows miss latency ~5x at 4 threads) clear 2x easily.
Throughput and queue depth aggregate a whole batch and hold the tight
threshold.  The serve bench's cycle fields are *virtual time* — fully
deterministic, zero measurement noise — so the tight threshold flags any
real scheduling change while wall-clock noise only touches jobs_per_sec.

Latency baselines below MIN_MS (warm rows report avg_miss_ms = 0) carry no
signal at millisecond resolution and are skipped.  Rows present in only
one file are reported but do not fail the gate — a sweep with a different
--max-threads is a different experiment, not a regression.

Absolute numbers only compare like hardware: both records carry the
machine's "hardware_threads", and when they differ (or either record
predates the field) every absolute comparison is skipped with a loud
warning — a 16-core runner beating a 1-core baseline is not a signal,
and a 1-core runner "regressing" from a 16-core baseline doubly so.
Hardware-independent *ratios* still gate in that case: for
engine_throughput, every cold row above 1 thread must keep
speedup_vs_serial_cold >= --min-cold-speedup (default 1.0) — parallel
cold batches running slower than serial is the regression this bench
exists to catch, on any machine.

Usage:
  scripts/bench_gate.py BASELINE.json CURRENT.json [--threshold 0.30]

Exit codes: 0 ok, 1 regression, 2 usage/parse error.
"""

import argparse
import json
import sys

SCHEMAS = {
    "engine_throughput": {
        "key": ("threads", "cache"),
        "watched": {
            "jobs_per_sec": "higher",
            "avg_hit_ms": "lower",
            "avg_miss_ms": "lower",
            "queue_depth_peak": "lower",
        },
        "latency_fields": {"avg_hit_ms", "avg_miss_ms"},
    },
    "serve_throughput": {
        "key": ("mode", "tenants"),
        # Rows written before the overload mode carry no "mode" field —
        # they were all steady-state measurements.
        "key_defaults": {"mode": "steady"},
        "watched": {
            "jobs_per_sec": "higher",
            "p50_cycles": "lower",
            "p99_cycles": "lower",
            "p99_hi_cycles": "lower",
            "deadline_missed": "lower",
            "rejected": "lower",
            "shed": "lower",
            "degraded": "lower",
        },
        "latency_fields": set(),
    },
}

# Latency baselines below this are noise at the recorded resolution.
MIN_MS = 0.001


def load_doc(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_gate: cannot read {path}: {e}")
    return doc


def index_rows(path, doc, key_fields, key_defaults):
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        sys.exit(f"bench_gate: {path} has no rows")
    indexed = {}
    for row in rows:
        key = tuple(row.get(f, key_defaults.get(f)) for f in key_fields)
        if None in key:
            sys.exit(f"bench_gate: {path} row missing {'/'.join(key_fields)}: {row}")
        indexed[key] = row
    return indexed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed relative regression (default 0.30)")
    parser.add_argument("--latency-threshold", type=float, default=1.00,
                        help="allowed relative regression for per-job "
                             "latency fields (default 1.00, i.e. 2x)")
    parser.add_argument("--min-cold-speedup", type=float, default=1.00,
                        help="floor for speedup_vs_serial_cold on cold rows "
                             "above 1 thread (engine_throughput; default 1.0 "
                             "— parallel cold must never lose to serial)")
    args = parser.parse_args()

    base_doc = load_doc(args.baseline)
    cur_doc = load_doc(args.current)
    # The baseline names the experiment; default to engine_throughput for
    # records predating the "bench" field.
    bench = base_doc.get("bench", "engine_throughput")
    if cur_doc.get("bench", "engine_throughput") != bench:
        sys.exit(f"bench_gate: bench mismatch: {args.baseline} is {bench!r}, "
                 f"{args.current} is {cur_doc.get('bench')!r}")
    schema = SCHEMAS.get(bench)
    if schema is None:
        sys.exit(f"bench_gate: unknown bench {bench!r} "
                 f"(known: {', '.join(sorted(SCHEMAS))})")
    key_fields = schema["key"]
    watched = schema["watched"]
    latency_fields = schema["latency_fields"]

    key_defaults = schema.get("key_defaults", {})
    base = index_rows(args.baseline, base_doc, key_fields, key_defaults)
    cur = index_rows(args.current, cur_doc, key_fields, key_defaults)

    # Absolute fields (jobs/sec, latencies, queue depth) are meaningless
    # across different machines.  The records carry hardware_threads for
    # exactly this comparison; records predating the field are treated as
    # unknown hardware.
    base_hw = base_doc.get("hardware_threads")
    cur_hw = cur_doc.get("hardware_threads")
    compare_absolute = base_hw is not None and base_hw == cur_hw
    if not compare_absolute:
        reason = (f"baseline hardware_threads={base_hw} vs current "
                  f"hardware_threads={cur_hw}" if base_hw is not None
                  and cur_hw is not None else
                  f"hardware_threads missing ({args.baseline}: {base_hw}, "
                  f"{args.current}: {cur_hw})")
        print("bench_gate: " + "=" * 66)
        print(f"bench_gate: WARNING: {reason}")
        print("bench_gate: WARNING: absolute comparisons SKIPPED — only "
              "hardware-independent ratios are gated.  Regenerate the "
              "committed baseline on this machine to restore full coverage.")
        print("bench_gate: " + "=" * 66)

    regressions = []
    checked = 0
    for key in sorted(base.keys() | cur.keys(), key=str):
        label = " ".join(f"{f}={v}" for f, v in zip(key_fields, key))
        if key not in base or key not in cur:
            where = "baseline" if key not in cur else "current"
            print(f"bench_gate: note: row [{label}] only in {where}; skipped")
            continue
        if not compare_absolute:
            continue
        for field, direction in watched.items():
            b, c = base[key].get(field), cur[key].get(field)
            if b is None or c is None:
                continue
            if direction == "lower" and field.endswith("_ms") and b < MIN_MS:
                continue
            if b <= 0:
                continue
            delta = (b - c) / b if direction == "higher" else (c - b) / b
            limit = (args.latency_threshold if field in latency_fields
                     else args.threshold)
            checked += 1
            if delta > limit:
                regressions.append(
                    f"[{label}] {field}: baseline {b} -> current {c} "
                    f"({delta:+.0%}, limit {limit:.0%})")

    # Hardware-independent floor: a parallel cold batch that loses to the
    # serial cold pass is the scaling bug this bench exists to catch — the
    # ratio gates on every machine, including when absolute comparisons
    # were skipped above.
    if bench == "engine_throughput":
        for key, row in sorted(cur.items(), key=str):
            threads, cache = key
            if cache != "cold" or threads <= 1:
                continue
            speedup = row.get("speedup_vs_serial_cold")
            if speedup is None:
                continue
            checked += 1
            if speedup < args.min_cold_speedup:
                regressions.append(
                    f"[threads={threads} cache=cold] speedup_vs_serial_cold: "
                    f"{speedup} below floor {args.min_cold_speedup} — "
                    f"parallel cold batch is slower than serial")

    if checked == 0:
        sys.exit("bench_gate: no comparable fields found")
    if regressions:
        print(f"bench_gate: FAIL — {len(regressions)} regression(s) "
              f"of {checked} checks:")
        for r in regressions:
            print("  " + r)
        return 1
    print(f"bench_gate: ok — {bench}: {checked} checks within limits "
          f"({args.threshold:.0%}, latency {args.latency_threshold:.0%}) "
          f"of {args.baseline}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
