#!/usr/bin/env python3
"""Compares a traced perfbench run's work counters with committed values.

The DP's work counters (csg-cmp-pairs, plans built, plans kept, pruned
candidates and evictions) are a function of the code and the seed, not of
the host: a change that claims "same plans, same work" must leave them
exactly where they were. The values file names the workload and seed it
was recorded for and the expected counter values.

Usage:
  python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 2 --trace 1 \\
      | tee plan_cold_trace.txt
  scripts/check_counters.py scripts/plan_cold_counters.json plan_cold_trace.txt

The run output may be '-' (stdin). Its last line must be the
result JSON ({"correct", ..., "metrics": {name: {"value": ...}}}); the line
before it is the run metadata, which must match the values file's workload
and seed.

Exit status: 0 all counters match, 1 a counter differs or is missing,
2 usage or parse problems.
"""

import json
import sys


def last_json_lines(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("run output has fewer than two lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        expected = json.load(f)
    if argv[2] == "-":
        text = sys.stdin.read()
    else:
        with open(argv[2]) as f:
            text = f.read()
    try:
        meta, result = last_json_lines(text)
        meta = meta["meta"]
        metrics = result["metrics"]
    except (ValueError, KeyError) as e:
        print(f"check_counters: cannot parse run output: {e}", file=sys.stderr)
        return 2
    if (meta.get("workload"), meta.get("seed")) != (
        expected["workload"],
        expected["seed"],
    ):
        print(
            f"check_counters: run is {meta.get('workload')} seed "
            f"{meta.get('seed')}, values are for {expected['workload']} "
            f"seed {expected['seed']}",
            file=sys.stderr,
        )
        return 2
    if not meta.get("trace"):
        print("check_counters: run was not traced (--trace 1)", file=sys.stderr)
        return 2

    failures = 0
    for name, want in expected["counters"].items():
        got = metrics.get(name, {}).get("value")
        ok = got is not None and float(got) == float(want)
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got} (expected {want})")
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
