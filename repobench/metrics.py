"""Arithmetic of the repository benchmark: percentiles, the output
check, end-to-end metrics, span self times and per-layer metrics.

Everything here is a pure function of the measuring binary's JSON
(see repobench.cc) so test_repobench.py can check it on hand-built
inputs.
"""

import statistics
from collections import OrderedDict

# Percentiles a tail may be reported at, in per-mille.
TAIL_CANDIDATES = (999, 990, 900, 500)
# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
# Digests are compared on their last DIGEST_HEX hex digits; the
# expected files store only those.
DIGEST_HEX = 8
# A row's span self times must sum to the row span within this share
# of the row's duration, or the row counts as failed. For properly
# nested spans the sum holds by construction; a row outside the
# tolerance means broken span recording (a span left open, or one
# escaping its parent).
SELF_SUM_TOLERANCE = 0.001


def rank_index(n, permille):
    """0-based nearest-rank index of the permille-th percentile."""
    return max(0, -(-permille * n // 1000) - 1)


def beyond(n, permille):
    """Samples strictly above the nearest-rank percentile."""
    return n - (rank_index(n, permille) + 1)


def tail_percentile(n):
    """Highest candidate percentile (per-mille) with at least
    MIN_BEYOND samples beyond it, or None."""
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def percentile(values, permille):
    """Nearest-rank percentile of values."""
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), permille)]


def pct_name(permille):
    return "p" + ("%g" % (permille / 10))


def row_name(raw, ex):
    """Name of the row an exec ran."""
    s = raw["passes"][ex["pass"]]["set"]
    return raw["sets"][s]["rows"][ex["row"]]


def check_outputs(raw, expected, extra=None):
    """Compare every exec's digest with the expected one. extra maps
    exec ids to the failure of a check made elsewhere (see
    self_sum_failures); such an exec fails if its digest passed."""
    extra = extra or {}
    failures = []
    for ex in raw["execs"]:
        name = row_name(raw, ex)
        set_id = str(raw["sets"][raw["passes"][ex["pass"]]["set"]]["set"])
        want = expected["sets"].get(set_id)
        got = ex["digest"][-DIGEST_HEX:]
        if ex["failure"]:
            failures.append((name, ex["failure"]))
        elif want is None or ex["row"] >= len(want):
            failures.append((name, "no expected digest for input set "
                             + set_id))
        elif want[ex["row"]] != got:
            failures.append((name, "digest %s, expected %s" %
                             (got, want[ex["row"]])))
        elif ex["exec"] in extra:
            failures.append((name, extra[ex["exec"]]))
    attempted = len(raw["execs"])
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 0.0,
        "failures": failures,
    }


def untraced(raw):
    """(execs of the untraced passes, their passes' CPU seconds)."""
    passes = {i for i, p in enumerate(raw["passes"])
              if not p["traced"]}
    return ([e for e in raw["execs"] if e["pass"] in passes],
            sum(raw["passes"][i]["cpu_s"] for i in passes))


def rows_per_s(raw):
    """Rows per host CPU second over the untraced passes (printed as
    cases_per_s on oracle_campaign)."""
    execs, cpu = untraced(raw)
    return len(execs) / cpu


def end_to_end(raw):
    """End-to-end metrics over the untraced passes: name -> (value,
    unit, note). Times are CPU time of the single-threaded measuring
    process, which excludes the time a shared host kept it off the
    CPU (see cpu_share)."""
    execs, cpu = untraced(raw)
    ms = [e["cpu_ms"] for e in execs]
    n = len(ms)
    tail = tail_percentile(n)
    p50_note = "n=%d" % n
    if tail is not None and tail > 900:
        p50_note += "; %s=%.4g ms, %d beyond" % (
            pct_name(tail), percentile(ms, tail), beyond(n, tail))
    p90_note = "n=%d, %d beyond" % (n, beyond(n, 900))
    if beyond(n, 900) < MIN_BEYOND:
        p90_note += " (below the %d-sample rule)" % MIN_BEYOND
    m = OrderedDict()
    m["mips"] = (sum(e["insts"] for e in execs) / cpu / 1e6, "MIPS",
                 "simulated instructions per host CPU second")
    m["row_ms_p50"] = (percentile(ms, 500), "ms", p50_note)
    m["row_ms_p90"] = (percentile(ms, 900), "ms", p90_note)
    m["setup_s"] = (statistics.median(raw["setup_cpu_s"]), "s",
                    "median of %d set-ups" % len(raw["setup_cpu_s"]))
    m["peak_rss_mb"] = (raw["peak_rss_kb"] / 1024.0, "MB",
                        "process peak resident set")
    return m


def wall_mips(raw):
    """mips over wall-clock time instead of CPU time."""
    execs, _ = untraced(raw)
    return sum(e["insts"] for e in execs) / sum(
        p["wall_s"] for p in raw["passes"] if not p["traced"]) / 1e6


def cpu_share(raw):
    """CPU time over wall time of the untraced passes; below 1 when
    the process waited for a CPU (other tenants, host steal)."""
    passes = [p for p in raw["passes"] if not p["traced"]]
    return ratio(sum(p["cpu_s"] for p in passes),
                 sum(p["wall_s"] for p in passes))


def covered(interval, children):
    """Length of interval covered by the union of children."""
    lo, hi = interval
    parts = sorted((max(lo, a), min(hi, b)) for a, b in children)
    total, cur_a, cur_b = 0, None, None
    for a, b in parts:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval its children cover. spans: [name, exec, parent, t0, t1]."""
    children = [[] for _ in spans]
    for s in spans:
        if s[2] >= 0:
            children[s[2]].append((s[3], s[4]))
    return [(s[4] - s[3]) - covered((s[3], s[4]), children[i])
            for i, s in enumerate(spans)]


def sum_errors(spans, selfs, rows):
    """|sum of self times over a row's subtree - row span| / row span,
    for each row span index in rows."""
    sums = subtree_sums(spans, selfs)
    return {i: ratio(abs(sums[i] - (spans[i][4] - spans[i][3])),
                     spans[i][4] - spans[i][3]) for i in rows}


def self_sum_failures(raw):
    """exec id -> failure, for traced rows whose self times miss the
    row span by more than SELF_SUM_TOLERANCE."""
    spans = raw["spans"]
    rows = [i for i, s in enumerate(spans) if s[0] == "row"]
    errs = sum_errors(spans, self_times(spans), rows)
    return {spans[i][1]: "span self times sum to the row span only "
            "within %.3g%%, outside the %.3g%% tolerance" %
            (100 * err, 100 * SELF_SUM_TOLERANCE)
            for i, err in errs.items() if err > SELF_SUM_TOLERANCE}


def subtree_sums(spans, selfs):
    """Sum of self times over each root span's subtree."""
    total = list(selfs)
    # Children are recorded after their parents, so a reverse sweep
    # folds every subtree into its root.
    for i in range(len(spans) - 1, -1, -1):
        if spans[i][2] >= 0:
            total[spans[i][2]] += total[i]
    return total


def parse_row(name):
    """'gcc/w3/256TC+128PB+prep' -> (profile, wseed, tc, pb, prep)."""
    profile, wseed, shape = name.split("/")
    parts = shape.split("+")
    tc = int(parts[0][:-2])
    pb = next((int(p[:-2]) for p in parts if p.endswith("PB")), 0)
    return profile, wseed, tc, pb, "prep" in parts


def sibling_diffs(costs, sibling_of):
    """costs: {(pass, row_key): ns_per_inst}. For each entry whose
    sibling (sibling_of(row_key), same pass) exists, the entry's cost
    minus its sibling's."""
    out = []
    for (p, key), cost in sorted(costs.items()):
        sib = sibling_of(key)
        if sib is not None and (p, sib) in costs:
            out.append(cost - costs[(p, sib)])
    return out


def precon_sibling(key):
    profile, wseed, tc, pb, prep = key
    return (profile, wseed, tc, 0, prep) if pb > 0 else None


def prep_sibling(key):
    profile, wseed, tc, pb, prep = key
    return (profile, wseed, tc, pb, False) if prep else None


def ratio(a, b):
    return a / b if b else 0.0


def median_or_zero(xs):
    return statistics.median(xs) if xs else 0.0


# name -> (unit, note); the order is the report's.
LAYER_METRICS = OrderedDict([
    ("workload.generate_ms", ("ms", "median per generated workload")),
    ("sim.construct_ms", ("ms", "FastSim/TraceProcessor constructor")),
    ("sim.teardown_ms", ("ms", "simulator destructor")),
    ("func.ff_ns_per_inst", ("ns/inst", "FastSim::fastForward probe")),
    ("func.block_hit_ratio", ("ratio", "block-cache hits/lookups")),
    ("frontend.ns_per_inst", ("ns/inst", "FastSim::run, PB=0 rows")),
    ("trace.ns_per_inst", ("ns/inst", "frontend minus func.ff")),
    ("trace.tc_hit_ratio", ("ratio", "trace-cache hits/traces")),
    ("precon.ns_per_inst", ("ns/inst", "(TC,PB) row minus (TC,0)")),
    ("precon.useful_ratio", ("ratio", "pb hits/traces constructed")),
    ("tproc.ns_per_inst", ("ns/inst", "TraceProcessor::run, base")),
    ("tproc.ns_per_cycle", ("ns/cycle", "TraceProcessor::run, base")),
    ("prep.ns_per_inst", ("ns/inst", "prep row minus prep-off row")),
    ("sample.ns_per_inst", ("ns/inst", "sample::runSampled")),
    ("sample.ff_frac", ("frac", "skipped/total instructions")),
    ("sample.windows", ("count", "measurement windows per row")),
    ("check.case_make_ms", ("ms", "makeFuzzCase, median per case")),
    ("check.reference_ms", ("ms", "referenceRun, median per case")),
    ("check.diff_ms", ("ms", "diffModels, median per case")),
    ("tracefmt.encode_ns_per_inst", ("ns/inst", "TptWriter")),
    ("tracefmt.decode_ns_per_inst", ("ns/inst", "TptReader::next")),
    ("process.sys_frac", ("frac", "kernel share of CPU, all passes")),
    ("process.minflt_per_row", ("count", "minor page faults per row")),
    ("row.unattributed_frac", ("frac", "row self time/row time")),
    ("tracing.self_sum_err", ("frac", "max |sum(self)-row|/row")),
    ("tracing.overhead_frac", ("frac", "traced/untraced CPU time - 1")),
])


def per_layer(raw):
    """Per-layer metrics and the self-time table of a traced run."""
    spans = raw["spans"]
    selfs = self_times(spans)
    traced_passes = {i for i, p in enumerate(raw["passes"])
                     if p["traced"]}
    execs = {e["exec"]: e for e in raw["execs"]
             if e["pass"] in traced_passes}
    oracle = raw["workload"] == "oracle_campaign"

    by_name = {}
    rows = []
    probes = {p["exec"]: p for p in raw.get("probes", [])}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)
        if s[0] == "row" and s[1] in execs:
            rows.append(i)

    def dur(i):
        return spans[i][4] - spans[i][3]

    def layer_ns(name, exec_filter=lambda e: True):
        """(total ns of a layer's spans, instructions, cycles) over the
        traced execs passing exec_filter."""
        ns = insts = cycles = 0
        for i in by_name.get(name, []):
            e = execs.get(spans[i][1])
            if e is not None and exec_filter(e):
                ns += dur(i)
                insts += e["insts"]
                cycles += e["cycles"]
        return ns, insts, cycles

    def counter(name, exec_filter=lambda e: True):
        return sum(e["counters"].get(name, 0) for e in execs.values()
                   if exec_filter(e))

    def key(e):
        return parse_row(row_name(raw, e))

    m = OrderedDict((k, 0.0) for k in LAYER_METRICS)
    items = raw["setup_item_ms"]
    if oracle:
        m["check.case_make_ms"] = median_or_zero(items)
    else:
        m["workload.generate_ms"] = median_or_zero(items)
    for layer in ("sim.construct", "sim.teardown", "check.reference",
                  "check.diff"):
        m[layer + "_ms"] = median_or_zero(
            [selfs[i] / 1e6 for i in by_name.get(layer, [])
             if spans[i][1] in execs])

    ff = [i for i in by_name.get("func.ff", []) if spans[i][1] in probes]
    ff_ns = sum(dur(i) for i in ff)
    ff_insts = sum(probes[spans[i][1]]["insts"] for i in ff)
    m["func.ff_ns_per_inst"] = ratio(ff_ns, ff_insts)
    hits = counter("block_hits")
    m["func.block_hit_ratio"] = ratio(hits,
                                      hits + counter("blocks_decoded"))

    def base(e):
        """No preconstruction buffer, no preprocessing."""
        k = key(e)
        return k[3] == 0 and not k[4]

    def pb_rows(e):
        return key(e)[3] > 0

    if not oracle:
        ns, insts, cycles = layer_ns("frontend.run", base)
        m["frontend.ns_per_inst"] = ratio(ns, insts)
        if ns:
            m["trace.ns_per_inst"] = (m["frontend.ns_per_inst"] -
                                      m["func.ff_ns_per_inst"])
        m["trace.tc_hit_ratio"] = ratio(counter("tc_hits"),
                                        counter("traces"))
        ns, insts, cycles = layer_ns("tproc.run", base)
        m["tproc.ns_per_inst"] = ratio(ns, insts)
        m["tproc.ns_per_cycle"] = ratio(ns, cycles)
        row_cost = {}
        for i in rows:
            e = execs[spans[i][1]]
            row_cost[(e["pass"], key(e))] = ratio(dur(i), e["insts"])
        m["precon.ns_per_inst"] = median_or_zero(
            sibling_diffs(row_cost, precon_sibling))
        m["prep.ns_per_inst"] = median_or_zero(
            sibling_diffs(row_cost, prep_sibling))
        m["precon.useful_ratio"] = ratio(
            counter("pb_hits", pb_rows),
            counter("precon_constructed", pb_rows))
        ns, insts, _ = layer_ns("sample.run")
        m["sample.ns_per_inst"] = ratio(ns, insts)
        if ns:
            total = sum(e["insts"] for e in execs.values())
            m["sample.ff_frac"] = ratio(counter("skipped"), total)
            m["sample.windows"] = ratio(counter("windows"), len(execs))

    stream = sum(e["counters"].get("stream_insts", 0)
                 for e in execs.values())
    for layer in ("encode", "decode"):
        ns = sum(dur(i) for i in by_name.get("tracefmt." + layer, [])
                 if spans[i][1] in execs)
        m["tracefmt.%s_ns_per_inst" % layer] = ratio(ns, stream)

    m["process.sys_frac"] = ratio(
        raw["passes_sys_s"], raw["passes_sys_s"] + raw["passes_user_s"])
    m["process.minflt_per_row"] = ratio(raw["passes_minflt"],
                                        len(raw["execs"]))
    row_total = sum(dur(i) for i in rows)
    m["row.unattributed_frac"] = ratio(sum(selfs[i] for i in rows),
                                       row_total)
    m["tracing.self_sum_err"] = max(
        sum_errors(spans, selfs, rows).values(), default=0.0)
    cpu = {True: 0.0, False: 0.0}
    for p in raw["passes"]:
        cpu[p["traced"]] += p["cpu_s"]
    m["tracing.overhead_frac"] = ratio(cpu[True], cpu[False]) - 1.0

    metrics = OrderedDict(
        (k, (v,) + LAYER_METRICS[k]) for k, v in m.items())
    return {"metrics": metrics,
            "table": self_time_table(raw, spans, selfs, rows, execs,
                                     m["tracing.self_sum_err"])}


def self_time_table(raw, spans, selfs, rows, execs, sum_err):
    """Per-layer self time over the traced rows, largest first."""
    row_ids = set(execs)
    agg = {}
    for i, s in enumerate(spans):
        if s[1] not in row_ids:
            continue
        name = "(row, unattributed)" if s[0] == "row" else s[0]
        n, t = agg.get(name, (0, 0))
        agg[name] = (n + 1, t + selfs[i])
    total = sum(spans[i][4] - spans[i][3] for i in rows) or 1
    verdict = ("within" if sum_err <= SELF_SUM_TOLERANCE
               else "OUTSIDE")
    lines = ["self time per layer, %s, %d traced rows (max |sum of "
             "self times - row span| %.2g%% of the row, %s the "
             "%.1f%% tolerance; rows outside it fail):" %
             (raw["workload"], len(rows), 100 * sum_err, verdict,
              100 * SELF_SUM_TOLERANCE),
             "  %-22s %8s %12s %8s %12s" %
             ("layer", "spans", "self ms", "share", "us/span")]
    for name, (n, t) in sorted(agg.items(), key=lambda kv: -kv[1][1]):
        lines.append("  %-22s %8d %12.2f %7.2f%% %12.2f" %
                     (name, n, t / 1e6, 100.0 * t / total,
                      t / 1e3 / n))
    return "\n".join(lines) + "\n"


def chrome_trace(raw):
    """The traced spans as a Chrome trace_event document (the shape
    the simulator's --trace-out writes; opens in Perfetto)."""
    names = {e["exec"]: row_name(raw, e) for e in raw["execs"]}
    for p in raw.get("probes", []):
        names[p["exec"]] = "probe"
    events = [
        {"pid": 1, "tid": 0, "ph": "M", "name": "process_name",
         "args": {"name": "repobench wall-clock (us)"}},
        {"pid": 1, "tid": 1, "ph": "M", "name": "thread_name",
         "args": {"name": "closed-loop client"}},
    ]
    for s in raw["spans"]:
        events.append({
            "pid": 1, "tid": 1, "ph": "X", "cat": s[0].split(".")[0],
            "name": s[0], "ts": s[3] / 1e3, "dur": (s[4] - s[3]) / 1e3,
            "args": {"row": names.get(s[1], "?"), "exec": s[1]},
        })
    return {"traceEvents": events}
