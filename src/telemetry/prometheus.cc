#include "telemetry/prometheus.hh"

#include <cstdio>
#include <mutex>

namespace tpre::telemetry
{

namespace
{

std::string
u64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
i64(std::int64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(v));
    return buf;
}

/** HELP-line escaping: backslash and newline only (the spec). */
std::string
helpEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else
            out += c;
    }
    return out;
}

const char *
kindWord(obs::MetricKind kind)
{
    switch (kind) {
      case obs::MetricKind::Counter: return "counter";
      case obs::MetricKind::Gauge: return "gauge";
      case obs::MetricKind::Histogram: return "histogram";
    }
    return "untyped";
}

} // namespace

std::string
promFamilyName(std::string_view name, obs::MetricKind kind)
{
    std::string out = "tpre_";
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    if (kind == obs::MetricKind::Counter)
        out += "_total";
    return out;
}

std::string
renderPrometheus(const std::vector<obs::MetricRow> &rows)
{
    std::string out;
    for (const obs::MetricRow &row : rows) {
        const std::string family =
            promFamilyName(row.name, row.kind);
        out += "# HELP " + family + " tpre::obs " +
               kindWord(row.kind) + " " + helpEscape(row.name) +
               "\n";
        out += "# TYPE " + family + " " + kindWord(row.kind) + "\n";
        switch (row.kind) {
          case obs::MetricKind::Counter:
            out += family + " " +
                   u64(static_cast<std::uint64_t>(row.value)) +
                   "\n";
            break;
          case obs::MetricKind::Gauge:
            out += family + " " + i64(row.value) + "\n";
            break;
          case obs::MetricKind::Histogram: {
            // The registry stores per-bucket counts with inclusive
            // upper bounds; Prometheus buckets are cumulative and
            // end with the mandatory le="+Inf" == _count.
            std::uint64_t cumulative = 0;
            for (std::size_t i = 0; i < row.hist.bounds.size();
                 ++i) {
                cumulative += i < row.hist.buckets.size()
                                  ? row.hist.buckets[i]
                                  : 0;
                out += family + "_bucket{le=\"" +
                       u64(row.hist.bounds[i]) + "\"} " +
                       u64(cumulative) + "\n";
            }
            out += family + "_bucket{le=\"+Inf\"} " +
                   u64(row.hist.count) + "\n";
            out += family + "_sum " + u64(row.hist.sum) + "\n";
            out += family + "_count " + u64(row.hist.count) + "\n";
            break;
          }
        }
    }
    return out;
}

std::string
renderRegistryPrometheus()
{
    return renderPrometheus(
        obs::MetricsRegistry::instance().snapshot());
}

namespace
{

/** One labeled series source: its label set and the cell it reads. */
struct LabeledCell
{
    std::string labels;
    AttribCell cell;
};

/** A counter family reading one value per ledger cell. */
struct CellFamily
{
    const char *family;
    const char *help;
    std::uint64_t (*get)(const AttribCell &);
};

void
familyHeader(std::string &out, const char *family, const char *help)
{
    out += std::string("# HELP ") + family + " " + help + "\n";
    out += std::string("# TYPE ") + family + " counter\n";
}

void
emitFamily(std::string &out, const CellFamily &f,
           const std::vector<LabeledCell> &rows)
{
    familyHeader(out, f.family, f.help);
    for (const LabeledCell &row : rows) {
        out += std::string(f.family) + "{" + row.labels + "} " +
               u64(f.get(row.cell)) + "\n";
    }
}

/**
 * A family split by one more label: each labeled cell yields @p n
 * samples, sample i labeled @p label = name(i) with value
 * value(cell, i).
 */
template <typename Name, typename Value>
void
emitSplitFamily(std::string &out, const char *family,
                const char *help, const std::vector<LabeledCell> &rows,
                const char *label, std::size_t n, Name name,
                Value value)
{
    familyHeader(out, family, help);
    for (const LabeledCell &row : rows) {
        for (std::size_t i = 0; i < n; ++i) {
            out += std::string(family) + "{" + row.labels + "," +
                   label + "=\"" + name(i) + "\"} " +
                   u64(value(row.cell, i)) + "\n";
        }
    }
}

std::string
originLabel(TraceOrigin origin)
{
    return std::string("origin=\"") + traceOriginName(origin) + "\"";
}

const CellFamily kProvenanceFamilies[] = {
    {"tpre_provenance_builds_total",
     "Trace-cache lines inserted, by builder origin",
     [](const AttribCell &c) { return c.builds; }},
    {"tpre_provenance_hits_total", "Fetches served, by builder origin",
     [](const AttribCell &c) { return c.hits; }},
    {"tpre_provenance_first_uses_total",
     "Lines that served at least one fetch, by origin",
     [](const AttribCell &c) { return c.firstUses; }},
    {"tpre_provenance_first_use_latency_cycles_total",
     "Summed construction-to-first-use latency, by origin",
     [](const AttribCell &c) { return c.firstUseLatencySum; }},
    {"tpre_provenance_evicted_unused_total",
     "Evicted lines that never served a fetch, by origin",
     [](const AttribCell &c) { return c.evictedUnused; }},
};

const CellFamily kAttribFamilies[] = {
    {"tpre_attrib_builds_total",
     "Trace builds, by origin and loop-structure class",
     [](const AttribCell &c) { return c.builds; }},
    {"tpre_attrib_hits_total",
     "Trace-cache hits, by origin and loop-structure class",
     [](const AttribCell &c) { return c.hits; }},
    {"tpre_attrib_first_uses_total",
     "First uses, by origin and loop-structure class",
     [](const AttribCell &c) { return c.firstUses; }},
    {"tpre_attrib_first_use_latency_cycles_total",
     "Summed first-use latency, by origin and loop class",
     [](const AttribCell &c) { return c.firstUseLatencySum; }},
    {"tpre_attrib_evictions_total",
     "Evictions (all reasons), by origin and loop class",
     [](const AttribCell &c) { return c.evictions(); }},
    {"tpre_attrib_evicted_unused_total",
     "Unused evictions, by origin and loop class",
     [](const AttribCell &c) { return c.evictedUnused; }},
};

} // namespace

std::string
renderLedgerPrometheus(const AttribTable &table)
{
    std::vector<LabeledCell> origins;
    std::vector<LabeledCell> cells;
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        origins.push_back(
            {originLabel(origin), table.originSum(origin)});
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            cells.push_back({originLabel(origin) + ",loop_class=\"" +
                                 loopClassName(cls) + "\"",
                             table.of(origin, cls)});
        }
    }

    std::string out;
    for (const CellFamily &f : kProvenanceFamilies)
        emitFamily(out, f, origins);
    static const char *const kReasons[] = {"capacity", "refresh",
                                           "invalidate", "clear"};
    static constexpr std::uint64_t AttribCell::*kReasonFields[] = {
        &AttribCell::evictCapacity, &AttribCell::evictRefresh,
        &AttribCell::evictInvalidate, &AttribCell::evictClear};
    emitSplitFamily(
        out, "tpre_provenance_evictions_total",
        "Line evictions, by builder origin and reason", origins,
        "reason", std::size(kReasons),
        [](std::size_t i) { return kReasons[i]; },
        [](const AttribCell &c, std::size_t i) {
            return c.*kReasonFields[i];
        });

    for (const CellFamily &f : kAttribFamilies)
        emitFamily(out, f, cells);
    const auto kindName = [](std::size_t k) {
        return instKindName(static_cast<InstKind>(k));
    };
    emitSplitFamily(
        out, "tpre_attrib_inst_built_total",
        "Instructions inserted, by origin, loop class and type", cells,
        "inst_type", kNumInstKinds, kindName,
        [](const AttribCell &c, std::size_t k) {
            return c.instBuilt[k];
        });
    emitSplitFamily(
        out, "tpre_attrib_inst_served_total",
        "Instructions served, by origin, loop class and type", cells,
        "inst_type", kNumInstKinds, kindName,
        [](const AttribCell &c, std::size_t k) {
            return c.instServed[k];
        });
    return out;
}

namespace
{

/**
 * Process-wide ledger aggregate behind the /metrics scrape: every
 * finished Simulator run folds its table in (the parallel sweep
 * publishes from worker threads, hence the mutex).
 */
struct PublishedLedger
{
    std::mutex mutex;
    AttribTable table;
};

PublishedLedger &
publishedLedger()
{
    static PublishedLedger ledger;
    return ledger;
}

} // namespace

void
publishRunLedgers(const AttribTable &table)
{
    PublishedLedger &pub = publishedLedger();
    const std::lock_guard<std::mutex> lock(pub.mutex);
    pub.table.add(table);
}

AttribTable
publishedLedgers()
{
    PublishedLedger &pub = publishedLedger();
    const std::lock_guard<std::mutex> lock(pub.mutex);
    return pub.table;
}

std::string
renderPublishedLedgers()
{
    PublishedLedger &pub = publishedLedger();
    const std::lock_guard<std::mutex> lock(pub.mutex);
    return renderLedgerPrometheus(pub.table);
}

void
resetPublishedLedgers()
{
    PublishedLedger &pub = publishedLedger();
    const std::lock_guard<std::mutex> lock(pub.mutex);
    pub.table = AttribTable();
}

} // namespace tpre::telemetry
