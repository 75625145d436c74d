#!/usr/bin/env python3
"""Interleaved same-host A/B of two source trees on the repo benchmark.

    python3 tools/ab.py --parent ../parent --change . \\
        --workload fast_grid --pairs 10 --seed 11 --seconds 20

Each tree runs its own repobench/run.py, built into its own
directory (CARGO_TARGET_DIR = BUILD_ROOT/parent or BUILD_ROOT/change),
so the two builds never share objects. Pair i runs the parent first
when i is even and the change first when i is odd. For every metric
the final JSON line reports (the end-to-end metrics with --trace 0,
the per-layer ones with --trace 1) it prints each side's median and
quartiles, how many pairs the change won (ties count for neither
side) and a verdict:

  GAIN        the change won at least 9 of every 10 pairs and the
              medians differ by more than the parent's interquartile
              range (the claim rule for a gain);
  LOSS        the same rule with the sides swapped (per-layer only);
  REGRESSION  the change's median is worse than the parent's by more
              than the metric's BENCHMARK.json bound;
  UNRESOLVED  within the bound, but the parent's own spread is wider
              than the bound and the runs do not separate;
  no change   none of the above.

Metric direction and bounds come from the change tree's
BENCHMARK.json. Every run's value is printed, as is each side's
output-check count; the exit status is 1 when a run fails its output
check or the change has a REGRESSION.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order
    statistics (the 'inclusive' method: q1/q3 of [1, 2, 3, 4, 5] are
    2 and 4)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """Is a strictly better than b?"""
    return a > b if direction == "higher" else a < b


def wins(parent, change, direction):
    """Pairs the change won; ties count for neither side."""
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def verdict(parent, change, direction, bound=None):
    """Classify one metric's paired runs (see the module doc)."""
    n = len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    need = math.ceil(0.9 * n)
    spread = p_q3 - p_q1
    if (wins(parent, change, direction) >= need and
            abs(c_med - p_med) > spread and
            better(c_med, p_med, direction)):
        return "GAIN"
    if bound is None:
        if (wins(change, parent, direction) >= need and
                abs(c_med - p_med) > spread and
                better(p_med, c_med, direction)):
            return "LOSS"
        return "no change"
    if p_med == 0:
        return "no change" if c_med == 0 else "UNRESOLVED"
    worse = (p_med - c_med if direction == "higher"
             else c_med - p_med) / abs(p_med)
    if worse > bound:
        return "REGRESSION"
    separated = all(better(c, p, direction)
                    for c in change for p in parent)
    if spread / abs(p_med) > bound and not separated:
        return "UNRESOLVED"
    return "no change"


def pair_order(i):
    """Sides of pair i in run order."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def parse_result(stdout):
    """The JSON object run.py prints as its last line."""
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        raise ValueError("run.py printed nothing")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError("run.py result lacks %r" % key)
    return result


def metric_specs(tree):
    """name -> (better, bound or None) from a tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {m["name"]: (m["better"], m["bound"])
             for m in bench["end_to_end"]}
    specs.update({m["name"]: (m["better"], None)
                  for m in bench.get("per_layer", [])})
    return specs


def run_side(tree, build_dir, args):
    cmd = [sys.executable, os.path.join("repobench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("ab: run.py failed in %s" % tree)
    return parse_result(proc.stdout)


def report(runs, specs):
    """Print the per-metric table; returns the REGRESSION count."""
    names = list(runs["parent"][0]["metrics"])
    print("%-28s %-8s %28s %28s %7s %5s  %s" %
          ("metric", "unit", "parent median [q1, q3]",
           "change median [q1, q3]", "ratio", "wins", "verdict"))
    regressions = 0
    n = len(runs["parent"])
    for name in names:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        unit = runs["parent"][0]["metrics"][name]["unit"]
        direction, bound = specs.get(name, (None, None))
        pq, cq = quartiles(p), quartiles(c)
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        if direction:
            v = verdict(p, c, direction, bound)
            w = "%d/%d" % (wins(p, c, direction), n)
        else:
            v, w = "(direction unknown)", "-"
        regressions += v == "REGRESSION"
        print("%-28s %-8s %11.4g [%6.4g, %6.4g] %11.4g [%6.4g, %6.4g]"
              " %7.3f %5s  %s" % (name, unit, pq[1], pq[0], pq[2],
                                  cq[1], cq[0], cq[2], ratio, w, v))
    return regressions


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="baseline tree")
    ap.add_argument("--change", required=True, help="changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build-root", default=os.path.join(
        ".bench_build", "ab"), help="parent of the two build dirs")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    build_root = os.path.abspath(args.build_root)
    specs = metric_specs(trees["change"])
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for i in range(args.pairs):
        for side in pair_order(i):
            result = run_side(trees[side],
                              os.path.join(build_root, side), args)
            runs[side].append(result)
            failed[side] += result["failed"]
            shown = ", ".join("%s %.4g" % (k, v["value"]) for k, v in
                              list(result["metrics"].items())[:3])
            print("pair %d %-6s attempted %d failed %d: %s" %
                  (i, side, result["attempted"], result["failed"],
                   shown), flush=True)
    print("%s seed %d, %d pairs, --seconds %d --trace %d; failed runs:"
          " parent %d, change %d" % (args.workload, args.seed,
                                     args.pairs, args.seconds,
                                     args.trace, failed["parent"],
                                     failed["change"]))
    regressions = report(runs, specs)
    return 1 if regressions or failed["change"] or failed["parent"] else 0


if __name__ == "__main__":
    sys.exit(main())
