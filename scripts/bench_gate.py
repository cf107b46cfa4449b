#!/usr/bin/env python3
"""CI bench-regression gate.

Compares a fresh benchmark run (the JSONL emitted via EADP_BENCH_JSON)
against the committed perf trajectory in BENCH_results.json and fails on
regressions beyond a guard band.

CI runners and developer machines differ in raw speed, so absolute medians
are not comparable across hosts. The gate therefore normalizes: it
computes the geometric-mean ratio (fresh / committed) over all matched
median_ms cases — the host-speed scale factor — and flags a case only when
its own ratio exceeds that scale by more than the guard band (default
±30%). A uniform slowdown (slower runner) passes; a *relative* slowdown of
specific cases (an actual regression) fails. Only wall-clock `median_ms`
records gate; `value` records (qps, speedups, hit rates, host properties)
are host-bound by nature and are reported but never gate.

Usage:
  scripts/bench_gate.py FRESH.jsonl [BENCH_results.json]
      [--section current] [--band 0.30] [--min-ms 0.05]

Exit status: 0 clean, 1 regression(s), 2 usage/matching problems.
"""

import argparse
import json
import math
import re
import sys

# Sentinel distinguishing "no host filter" from "rows with host == None"
# (pre-stamping rows have no host field; a section full of them must
# still gate as one coherent host, not fall back to a multi-host blend).
ANY_HOST = object()

# Multithreaded wall-clock cases measure core topology as much as code: a
# threads=8 batch is ~flat on a 1-core recording host but ~4x faster on a
# 4-core runner, which would deflate the host scale factor and push every
# single-thread case toward the band edge. Gate only thread-independent
# cases (threads=1 / workers=1 / conns=1 rows stay in). "threads=" names
# the batch benches' pool size, "workers=" the intra-query parallel
# DP's worker count (bench_parallel_dp, fig16 workers sweep), "conns=" the
# plan server's concurrent connection count (bench_server).
MULTITHREAD_CASE = re.compile(r"(?:threads|workers|conns)=(\d+)")


def core_count_sensitive(case):
    m = MULTITHREAD_CASE.search(case)
    return m is not None and int(m.group(1)) > 1


def load_jsonl(path):
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def median_map(rows, host=ANY_HOST):
    """(suite, case) -> median_ms, restricted to one host unless ANY_HOST
    (host=None selects exactly the host-less pre-stamping rows). Core-
    count-sensitive cases are dropped. Later rows win, matching bench.sh's
    same-(suite,case,host) replacement semantics."""
    out = {}
    for r in rows:
        if "median_ms" not in r or core_count_sensitive(r["case"]):
            continue
        if host is not ANY_HOST and r.get("host") != host:
            continue
        out[(r["suite"], r["case"])] = r["median_ms"]
    return out


def pick_baseline_host(rows, requested):
    """bench.sh keeps one row per (suite, case, host), so a section may
    mix hosts of different speeds; normalizing against a blend would skew
    every per-case ratio by the inter-host speed gap. Gate against ONE
    host's rows: the requested one, or the host with the most median_ms
    rows (ties broken lexicographically for determinism)."""
    if requested:
        return requested
    counts = {}
    for r in rows:
        if "median_ms" in r:
            host = r.get("host")
            counts[host] = counts.get(host, 0) + 1
    if not counts:
        return None
    return sorted(counts.items(), key=lambda kv: (-kv[1], str(kv[0])))[0][0]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="JSONL from the CI bench run")
    ap.add_argument("committed", nargs="?", default="BENCH_results.json")
    ap.add_argument("--section", default="current",
                    help="BENCH_results.json section to gate against")
    ap.add_argument("--host", default=None,
                    help="gate against this host's committed rows only "
                         "(default: the host with the most rows)")
    ap.add_argument("--band", type=float, default=0.30,
                    help="guard band around the host-scale factor")
    ap.add_argument("--min-ms", type=float, default=0.05,
                    help="ignore cases whose committed median is below this "
                         "(1-rep micro-medians are scheduler noise)")
    args = ap.parse_args()

    fresh = median_map(load_jsonl(args.fresh))
    with open(args.committed) as f:
        doc = json.load(f)
    if args.section not in doc:
        print(f"error: no '{args.section}' section in {args.committed}")
        return 2
    rows = doc[args.section]["results"]
    host = pick_baseline_host(rows, args.host)
    committed = median_map(rows, host)
    print(f"gating against committed host: {host}")

    matched = []
    for key in sorted(fresh.keys() & committed.keys()):
        base = committed[key]
        if base < args.min_ms or fresh[key] <= 0:
            continue
        matched.append((key, base, fresh[key], fresh[key] / base))
    if len(matched) < 3:
        print(f"error: only {len(matched)} comparable cases "
              f"(fresh={len(fresh)}, committed={len(committed)}) — "
              "gate cannot estimate the host scale factor")
        return 2

    scale = math.exp(sum(math.log(r) for _, _, _, r in matched)
                     / len(matched))
    print(f"{len(matched)} matched median_ms cases; host scale factor "
          f"{scale:.3f}x (fresh/committed geomean), guard band "
          f"±{args.band:.0%}\n")

    regressions, improvements = [], []
    for key, base, cur, ratio in matched:
        rel = ratio / scale
        tag = ""
        if rel > 1 + args.band:
            regressions.append(key)
            tag = "  << REGRESSION"
        elif rel < 1 - args.band:
            improvements.append(key)
            tag = "  (improved)"
        print(f"  {key[0]}/{key[1]}: {base:.4f} -> {cur:.4f} ms  "
              f"(x{ratio:.2f} raw, x{rel:.2f} normalized){tag}")

    print(f"\n{len(regressions)} regression(s), "
          f"{len(improvements)} improvement(s) beyond the band")
    if regressions:
        print("FAIL: cases slower than the committed trajectory after "
              "host-speed normalization:")
        for suite, case in regressions:
            print(f"  - {suite}/{case}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
