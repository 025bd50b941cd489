#!/usr/bin/env python3
"""Compare two `run.sh --all --json` files against the bounds of BENCHMARK.json.

usage: compare.py BENCHMARK.json old.json new.json

Prints, per workload, every metric's old and new value and the share by
which it got worse. An end-to-end metric that got worse by more than its
bound is marked and makes the exit code 1; per-layer metrics have no bound
and are listed for reading only.
"""
import json
import sys


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    with open(sys.argv[2]) as f:
        old = json.load(f)
    with open(sys.argv[3]) as f:
        new = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    for side, doc in (("old", old), ("new", new)):
        print(f"{side}: host {json.dumps(doc['host'], sort_keys=True)}")
    beyond = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a = old["workloads"].get(workload)
        b = new["workloads"].get(workload)
        if a is None or b is None:
            print(f"\n{workload}: missing from {'old' if a is None else 'new'}")
            beyond += 1
            continue
        print(f"\n{workload}: correct {a['correct']} -> {b['correct']}, "
              f"failed ops {a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}")
        if not b["correct"] or b["failed"] > a["failed"]:
            beyond += 1
        for name, m in b["metrics"].items():
            if name not in a["metrics"]:
                print(f"  {name:40s} new metric")
                continue
            x, y = a["metrics"][name]["value"], m["value"]
            worse = (x - y if better.get(name) == "higher" else y - x) / abs(x) if x else 0.0
            bound = bounded.get(name, {}).get("bound")
            mark = ""
            if bound is not None:
                mark = f"  bound {bound:.3f}"
                if worse > bound:
                    mark += "  BEYOND BOUND"
                    beyond += 1
            print(f"  {name:40s} {x:14.4f} -> {y:14.4f} {m['unit']:9s} worse by {worse:+8.4f}{mark}")
    print(f"\n{beyond} beyond bound" if beyond else "\nall within bounds")
    sys.exit(1 if beyond else 0)


if __name__ == "__main__":
    main()
