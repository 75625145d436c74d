#!/usr/bin/env python3
"""Capture the expected output digests in repobench/expected/.

    python3 repobench/capture_expected.py [workload ...]

Runs one untraced pass over every input set of each workload and
writes the rows' digests, in row order, to expected/<workload>.json.
Run it only at a commit whose simulated results are the reference:
the benchmark then fails any row whose results differ from these.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402


def capture(binary, workload):
    sets = {}
    input_sets = None
    tmp = os.path.join(run.ROOT, run.OUT_DIR,
                       "capture-%s.json" % workload)
    s = 0
    while input_sets is None or s < input_sets:
        raw = run.run_binary(binary, workload, s, 1, 0, tmp,
                             setup_reps=1)
        input_sets = raw["input_sets"]
        if raw["sets"][0]["set"] != s:
            run.fail("%s: seed %d ran input set %d" %
                     (workload, s, raw["sets"][0]["set"]))
        bad = [e["failure"] for e in raw["execs"] if e["failure"]]
        if bad:
            run.fail("%s set %d: %s" % (workload, s, bad[0]))
        sets[str(s)] = [e["digest"][-metrics.DIGEST_HEX:]
                        for e in raw["execs"]]
        print("%s set %d: %d rows" % (workload, s, len(sets[str(s)])),
              file=sys.stderr)
        s += 1
    os.remove(tmp)
    path = os.path.join(HERE, "expected", workload + ".json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "sets": sets}, f,
                  separators=(",", ":"))
        f.write("\n")


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    binary = run.build()
    os.makedirs(os.path.join(run.ROOT, run.OUT_DIR), exist_ok=True)
    os.makedirs(os.path.join(HERE, "expected"), exist_ok=True)
    for w in workloads:
        if w not in run.WORKLOADS:
            run.fail("unknown workload " + w)
        capture(binary, w)
    return 0


if __name__ == "__main__":
    sys.exit(main())
