#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

    python3 repobench/run.py --workload fast_grid --seed 3 \\
        --seconds 20 --trace 0
    python3 repobench/run.py --workload all

Run it from the repository root. It builds the measuring binary
(repobench/repobench.cc, linked against the library as the default
build compiles it) into $CARGO_TARGET_DIR or .bench_build, runs the
workload as a single-threaded closed loop, checks every row's output
digest against repobench/expected/, and prints every metric by name
and unit. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer ones. --workload all
runs the four workloads in turn and prefixes each metric with its
workload's name. Full results, a Chrome trace_event file and a
per-layer self-time table go to .bench_out/. See repobench/README.md
for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

WORKLOADS = ("fast_grid", "timing_grid", "sampled_grid",
             "oracle_campaign")

# Host seconds one pass (one input set) takes at the commit that
# defined the benchmark, on the 4-vCPU Xeon it was tuned on. A run
# does round(--seconds / this) passes, so the work is fixed for a
# given --seconds and two commits are compared on identical inputs.
NOMINAL_PASS_S = {
    "fast_grid": 5.5,
    "timing_grid": 9.0,
    "sampled_grid": 3.0,
    "oracle_campaign": 2.7,
}

SETUP_REPS = 7
BINARY_TIMEOUT_S = 170
OUT_DIR = ".bench_out"


def fail(msg):
    print("repobench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configure once and (incrementally) build the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no simulator sources next to repobench/; run from a "
             "full checkout")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "--target", "repobench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the report.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "repobench")


def clean_env():
    """The default build's behaviour: no TPRE_* overrides."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("TPRE_")}


def run_binary(binary, workload, seed, passes, trace, out_path,
               setup_reps=SETUP_REPS):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--passes", str(passes), "--trace", str(int(trace)),
           "--setup-reps", str(setup_reps), "--out", out_path]
    try:
        r = subprocess.run(cmd, env=clean_env(), stdout=sys.stderr,
                           timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("measuring binary exceeded %d s" % BINARY_TIMEOUT_S)
    if r.returncode != 0:
        fail("measuring binary exited with %d" % r.returncode)
    with open(out_path) as f:
        return json.load(f)


def load_expected(workload):
    path = os.path.join(HERE, "expected", workload + ".json")
    with open(path) as f:
        return json.load(f)


def cmake_cache(bdir):
    keys = ("CMAKE_BUILD_TYPE", "CMAKE_CXX_COMPILER", "TPRE_CHECK",
            "TPRE_OBS_DISABLED", "TPRE_NATIVE_ARCH")
    found = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                name, _, value = line.strip().partition("=")
                name = name.split(":")[0]
                if name in keys:
                    found[name] = value
    except OSError:
        pass
    return {k: found.get(k, "unknown") for k in keys}


def first_line(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=30, cwd=ROOT)
        out = r.stdout.strip().splitlines()
        return out[0] if r.returncode == 0 and out else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the library sources, for checkouts without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance():
    cache = cmake_cache(build_dir())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.pop("CMAKE_CXX_COMPILER")
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": first_line([compiler, "--version"]) or compiler,
        "git_describe": first_line(["git", "describe", "--always",
                                    "--dirty", "--tags"])
        or "unknown (not a git checkout)",
        "source_sha256": source_digest(),
        "build": cache,
    }


def print_metric(name, value, unit, note=""):
    print("  %-28s %14.6g %-8s %s" % (name, value, unit, note))


def run_workload(binary, workload, seed, seconds, trace):
    """Run, check and report one workload. Returns (output check,
    reported metrics as name -> {value, unit})."""
    expected = load_expected(workload)
    passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    if trace:
        # Each input set runs twice (traced and untraced).
        passes = max(1, round(passes / 2))

    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    raw_path = os.path.join(ROOT, OUT_DIR, "raw-" + tag + ".json")
    raw = run_binary(binary, workload, seed, passes, trace, raw_path)

    # Traced rows must also pass the span self-time sum.
    check = metrics.check_outputs(raw, expected,
                                  metrics.self_sum_failures(raw))
    e2e = metrics.end_to_end(raw)
    prov = provenance()

    print("repobench %s seed=%d passes=%d trace=%d" %
          (workload, seed, passes, trace))
    print("  host: %s, %s vCPU, %s" % (prov["host"], prov["nproc"],
                                       prov["cpu"]))
    print("  build: %s; %s; git %s; src %s" %
          (", ".join("%s=%s" % kv for kv in prov["build"].items()),
           prov["compiler"], prov["git_describe"],
           prov["source_sha256"]))
    print("  input sets: %s" % ", ".join(
        str(s["set"]) for s in raw["sets"]))
    print("output check: %d attempted, %d failed (failed_frac %.4g)" %
          (check["attempted"], check["failed"], check["failed_frac"]))
    for name, why in check["failures"][:20]:
        print("  FAILED %s: %s" % (name, why))

    print("end-to-end (untraced passes, host CPU time):")
    for name, (value, unit, note) in e2e.items():
        print_metric(name, value, unit, note)
    print_metric("wall_mips", metrics.wall_mips(raw), "MIPS",
                 "over wall time; CPU share of wall %.3f" %
                 metrics.cpu_share(raw))
    if workload == "oracle_campaign":
        # A row of this workload is a fuzz case.
        print_metric("cases_per_s", metrics.rows_per_s(raw), "1/s",
                     "cases per host CPU second")
        for alias, name in (("case_ms_p50", "row_ms_p50"),
                            ("case_ms_p90", "row_ms_p90")):
            print_metric(alias, e2e[name][0], e2e[name][1],
                         "= " + name)
    print_metric("failed_frac", check["failed_frac"], "frac",
                 "rows or cases whose output check failed")

    result = {
        "workload": workload, "seed": seed, "passes": passes,
        "trace": trace, "provenance": prov, "output_check": check,
        "end_to_end": {k: {"value": v[0], "unit": v[1]}
                       for k, v in e2e.items()},
    }
    if trace:
        layers = metrics.per_layer(raw)
        print("per-layer (traced passes, host time; 0 = layer does "
              "not run on this workload):")
        for name, (value, unit, note) in layers["metrics"].items():
            print_metric(name, value, unit, note)
        table_path = os.path.join(ROOT, OUT_DIR, tag + ".layers.txt")
        trace_path = os.path.join(ROOT, OUT_DIR, tag + ".trace.json")
        with open(table_path, "w") as f:
            f.write(layers["table"])
        with open(trace_path, "w") as f:
            json.dump(metrics.chrome_trace(raw), f)
        print(layers["table"], end="")
        print("  chrome trace: %s" % os.path.relpath(trace_path, ROOT))
        result["per_layer"] = {k: {"value": v[0], "unit": v[1]}
                               for k, v in layers["metrics"].items()}

    with open(os.path.join(ROOT, OUT_DIR, tag + ".result.json"),
              "w") as f:
        json.dump(result, f, indent=1)
    return check, result["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    reported = {}
    for w in workloads:
        check, m = run_workload(binary, w, args.seed, args.seconds,
                                args.trace)
        attempted += check["attempted"]
        failed += check["failed"]
        if args.workload == "all":
            m = {w + "/" + k: v for k, v in m.items()}
        reported.update(m)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
