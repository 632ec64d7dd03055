#!/usr/bin/env python3
"""Compare two result sets of the host-cost benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that perfbench/run.py appends: .bench_build/
results.jsonl by default, or the file named by --record.
For every workload and metric the step prints each side's median and
quartiles. An end-to-end metric is flagged only when the new median differs
from the base median by more than that metric's bound in BENCHMARK.json;
per-layer metrics have no bound and are never flagged. Records from
different host blocks (nproc, CPU model, compiler, build type) are never
compared. Exit code: 0 when the sets agree, 1 when anything is flagged,
2 when the sets cannot be compared.
"""

import json
import statistics
import sys
from collections import defaultdict

import run


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_identity(record):
    return tuple((k, record["host"][k]) for k in run.HOST_IDENTITY)


def group(records):
    """{(workload, trace): {"metrics": {name: [values]}, "attempted": n,
    "failed": n}}"""
    out = defaultdict(lambda: {"metrics": defaultdict(list), "attempted": 0,
                               "failed": 0})
    for r in records:
        g = out[(r["host"]["workload"], r["trace"])]
        g["attempted"] += r["result"]["attempted"]
        g["failed"] += r["result"]["failed"]
        for name, m in r["result"]["metrics"].items():
            g["metrics"][name].append(m["value"])
    return out


def verdict(base, new, spec):
    """'' when within bound, else 'WORSE' or 'BETTER' (spec has the bound)."""
    if base == 0:  # end-to-end metrics are never 0; nothing to scale by
        return ""
    change = (new - base) / abs(base)
    if spec["better"] == "higher":
        change = -change
    if change > spec["bound"]:
        return "WORSE"
    if change < -spec["bound"]:
        return "BETTER"
    return ""


def compare(base_records, new_records, bench_spec, out=sys.stdout):
    """Print the comparison; return the number of flagged differences."""
    hosts = {host_identity(r) for r in base_records + new_records}
    if len(hosts) != 1:
        raise ValueError("records come from different host blocks: "
                         + " vs ".join(str(dict(h)) for h in sorted(hosts)))
    bounded = {m["name"]: m for m in bench_spec["end_to_end"]}
    base, new = group(base_records), group(new_records)
    flagged = 0
    for key in sorted(base.keys() | new.keys()):
        workload, trace = key
        print(f"\n{workload} ({'traced' if trace else 'untraced'})", file=out)
        if key not in base or key not in new:
            print("  only in one set; not compared", file=out)
            continue
        b, n = base[key], new[key]
        for side, g in (("base", b), ("new", n)):
            print(f"  {side}: {g['failed']} of {g['attempted']} operations "
                  "failed", file=out)
        if n["failed"] or b["failed"]:
            flagged += 1
            print("  FAILED OPERATIONS", file=out)
        print(f"  {'metric':34s} {'base median [q1, q3]':>36s} "
              f"{'new median [q1, q3]':>36s} {'change':>8s}  flag", file=out)
        for name in sorted(b["metrics"].keys() & n["metrics"].keys()):
            bq1, bmed, bq3 = quartiles(b["metrics"][name])
            nq1, nmed, nq3 = quartiles(n["metrics"][name])
            change = (nmed - bmed) / abs(bmed) * 100 if bmed else 0.0
            flag = verdict(bmed, nmed, bounded[name]) if name in bounded else ""
            if flag:
                flagged += 1
                flag += f" (bound {bounded[name]['bound']:.0%})"
            print(f"  {name:34s} {bmed:12.6g} [{bq1:10.6g}, {bq3:10.6g}] "
                  f"{nmed:12.6g} [{nq1:10.6g}, {nq3:10.6g}] "
                  f"{change:+7.2f}%  {flag}", file=out)
    print(f"\n{'sets agree' if not flagged else f'{flagged} flagged'}",
          file=out)
    return flagged


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        flagged = compare(load(argv[1]), load(argv[2]), run.benchmark_spec())
    except (OSError, ValueError, KeyError, run.BenchError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
