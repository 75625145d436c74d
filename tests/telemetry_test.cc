/**
 * @file
 * Tests for the tpre::telemetry layer: Prometheus text rendering
 * pinned against golden documents, the live HTTP endpoint
 * (including a scrape taken *during* a parallel batch), the run
 * registry, trace provenance reconciliation against the simulator
 * statistics, structured NDJSON logging, the heartbeat record
 * formats, strict TPRE_TRACE_BUF parsing, and the crash flight
 * recorder (as a death test whose child leaves a dump behind).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "check/diff.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "obs/obs.hh"
#include "par/parallel_sweep.hh"
#include "sim/simulator.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/heartbeat.hh"
#include "telemetry/prometheus.hh"
#include "telemetry/attrib.hh"
#include "telemetry/run_registry.hh"
#include "telemetry/server.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"
#include "trace/trace_cache.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

using obs::MetricKind;
using obs::MetricRow;
using telemetry::promFamilyName;
using telemetry::renderPrometheus;

// ---------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------

TEST(PromNameTest, PrefixesSanitizesAndSuffixesCounters)
{
    EXPECT_EQ(promFamilyName("tcache.probes", MetricKind::Counter),
              "tpre_tcache_probes_total");
    EXPECT_EQ(
        promFamilyName("pool.queue_depth", MetricKind::Gauge),
        "tpre_pool_queue_depth");
    EXPECT_EQ(
        promFamilyName("precon.stack_depth",
                       MetricKind::Histogram),
        "tpre_precon_stack_depth");
    // Anything outside [a-zA-Z0-9_] becomes '_'.
    EXPECT_EQ(promFamilyName("a-b c/d", MetricKind::Gauge),
              "tpre_a_b_c_d");
}

TEST(PromRenderTest, GoldenDocument)
{
    std::vector<MetricRow> rows(3);
    rows[0].name = "tcache.probes";
    rows[0].kind = MetricKind::Counter;
    rows[0].value = 42;
    rows[1].name = "pool.queue_depth";
    rows[1].kind = MetricKind::Gauge;
    rows[1].value = -3;
    rows[2].name = "lat";
    rows[2].kind = MetricKind::Histogram;
    rows[2].hist.bounds = {1, 2, 4};
    rows[2].hist.buckets = {5, 0, 2, 1};  // last = overflow
    rows[2].hist.count = 8;
    rows[2].hist.sum = 30;

    EXPECT_EQ(renderPrometheus(rows),
              "# HELP tpre_tcache_probes_total tpre::obs counter "
              "tcache.probes\n"
              "# TYPE tpre_tcache_probes_total counter\n"
              "tpre_tcache_probes_total 42\n"
              "# HELP tpre_pool_queue_depth tpre::obs gauge "
              "pool.queue_depth\n"
              "# TYPE tpre_pool_queue_depth gauge\n"
              "tpre_pool_queue_depth -3\n"
              "# HELP tpre_lat tpre::obs histogram lat\n"
              "# TYPE tpre_lat histogram\n"
              "tpre_lat_bucket{le=\"1\"} 5\n"
              "tpre_lat_bucket{le=\"2\"} 5\n"
              "tpre_lat_bucket{le=\"4\"} 7\n"
              "tpre_lat_bucket{le=\"+Inf\"} 8\n"
              "tpre_lat_sum 30\n"
              "tpre_lat_count 8\n");
}

TEST(PromRenderTest, HelpLineEscapesBackslashAndNewline)
{
    std::vector<MetricRow> rows(1);
    rows[0].name = "weird\\name\nhere";
    rows[0].kind = MetricKind::Gauge;
    rows[0].value = 1;
    const std::string doc = renderPrometheus(rows);
    EXPECT_NE(doc.find("weird\\\\name\\nhere"), std::string::npos);
    // The family name itself is sanitized, so the document stays
    // line-oriented: exactly 3 lines.
    EXPECT_NE(doc.find("tpre_weird_name_here 1\n"),
              std::string::npos);
}

TEST(PromRenderTest, RegistrySnapshotRendersRegisteredMetrics)
{
    obs::Counter counter("telemetry_test.scrapes");
    counter.add(7);
    const std::string doc = telemetry::renderRegistryPrometheus();
    EXPECT_NE(doc.find("tpre_telemetry_test_scrapes_total"),
              std::string::npos);
    // Families from the simulator contract are present once any
    // simulation ran in this process; at minimum the document is
    // non-empty and every line is HELP, TYPE or a sample.
    std::istringstream lines(doc);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        if (line[0] == '#') {
            EXPECT_TRUE(line.rfind("# HELP ", 0) == 0 ||
                        line.rfind("# TYPE ", 0) == 0)
                << line;
        } else {
            EXPECT_EQ(line.rfind("tpre_", 0), 0u) << line;
        }
    }
}

// ---------------------------------------------------------------
// HTTP endpoint.
// ---------------------------------------------------------------

/** Minimal blocking GET against 127.0.0.1:port; "" on error. */
std::string
httpGet(std::uint16_t port, const char *path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return "";
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        ::close(fd);
        return "";
    }
    std::string req = std::string("GET ") + path +
                      " HTTP/1.1\r\nHost: localhost\r\n"
                      "Connection: close\r\n\r\n";
    (void)!::write(fd, req.data(), req.size());
    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(TelemetryServerTest, ServesMetricsHealthzRunsAnd404)
{
    obs::Counter counter("telemetry_test.server");
    counter.add();

    telemetry::TelemetryServer server;
    server.start(0);  // ephemeral
    ASSERT_TRUE(server.running());
    ASSERT_GT(server.port(), 0);

    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("ok"), std::string::npos);

    const std::string metrics = httpGet(server.port(), "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics.find("tpre_telemetry_test_server_total"),
              std::string::npos);

    const std::string runs = httpGet(server.port(), "/runs");
    EXPECT_NE(runs.find("200 OK"), std::string::npos);
    EXPECT_NE(runs.find("application/json"), std::string::npos);
    EXPECT_NE(runs.find("["), std::string::npos);

    const std::string missing = httpGet(server.port(), "/nope");
    EXPECT_NE(missing.find("404"), std::string::npos);

    server.stop();
    EXPECT_FALSE(server.running());
    server.stop();  // idempotent
}

TEST(TelemetryServerTest, ScrapeDuringRunJobsSeesTheRun)
{
    // Direct registration, so the scrape has at least one family
    // before any simulator run has published.
    obs::Counter counter("telemetry_test.batch");
    counter.add();

    telemetry::TelemetryServer server;
    server.start(0);
    const std::uint16_t port = server.port();

    std::string duringRuns, duringMetrics;
    par::runJobs(
        4, 2, 99,
        [&](std::size_t i, Rng &) {
            if (i == 0) {
                duringRuns = httpGet(port, "/runs");
                duringMetrics = httpGet(port, "/metrics");
            } else {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            }
        },
        "telemetry_test_run");
    server.stop();

    // Scraped from inside a job, so the RunScope was open.
    EXPECT_NE(duringRuns.find("\"name\": \"telemetry_test_run\""),
              std::string::npos);
    EXPECT_NE(duringRuns.find("\"total_jobs\": 4"),
              std::string::npos);
    EXPECT_NE(duringMetrics.find("tpre_"), std::string::npos);

    // After the batch the scope is closed again.
    EXPECT_EQ(telemetry::RunRegistry::instance().numRuns(), 0u);
}

TEST(TelemetryServerTest, SilentClientDoesNotBlockStop)
{
    telemetry::TelemetryServer server;
    server.start(0);

    // A client that connects and never sends a request must not
    // wedge the serving thread: stop() has to return promptly (the
    // request poll watches the stop pipe), not hang on join().
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd,
                        reinterpret_cast<const sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    // Let the server accept and enter the request wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const auto start = std::chrono::steady_clock::now();
    server.stop();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(5));
    ::close(fd);
}

TEST(TelemetryServerTest, MidResponseDisconnectDoesNotKillProcess)
{
    obs::Counter counter("telemetry_test.disconnect");
    counter.add();

    telemetry::TelemetryServer server;
    server.start(0);

    // Scrapers that vanish mid-response (curl --max-time, scrape
    // timeouts) must surface as EPIPE in the server, not a
    // process-terminating SIGPIPE. SO_LINGER(0) turns close() into
    // an immediate RST so the server's send() hits a dead socket.
    for (int i = 0; i < 20; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(server.port());
        if (::connect(fd,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) < 0) {
            ::close(fd);
            continue;
        }
        const char req[] =
            "GET /metrics HTTP/1.1\r\nHost: l\r\n\r\n";
        (void)!::write(fd, req, sizeof(req) - 1);
        const linger hardClose{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hardClose,
                     sizeof(hardClose));
        ::close(fd);
    }

    // Still alive and serving.
    const std::string health = httpGet(server.port(), "/healthz");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    server.stop();
}

TEST(RunRegistryTest, ScopesAppearAndDisappear)
{
    auto &registry = telemetry::RunRegistry::instance();
    EXPECT_EQ(registry.runsJson(), "[]");
    {
        telemetry::RunScope run("unit_run", 3);
        run.jobFinished();
        run.jobFinished();
        const std::string json = registry.runsJson();
        EXPECT_NE(json.find("\"name\": \"unit_run\""),
                  std::string::npos);
        EXPECT_NE(json.find("\"total_jobs\": 3"),
                  std::string::npos);
        EXPECT_NE(json.find("\"completed_jobs\": 2"),
                  std::string::npos);
        EXPECT_NE(json.find("\"mips\": "), std::string::npos);
        EXPECT_NE(json.find("\"queue_depth\": "),
                  std::string::npos);
    }
    EXPECT_EQ(registry.runsJson(), "[]");
}

// ---------------------------------------------------------------
// Trace provenance.
// ---------------------------------------------------------------

Trace
provTrace(Addr start, TraceOrigin origin, Cycle buildCycle = 0)
{
    Trace t;
    t.id = {start, 0, 0};
    Instruction inst;
    inst.op = Opcode::Add;
    inst.rd = 1;
    inst.rs1 = 1;
    inst.rs2 = 2;
    t.insts.push_back({start, inst, false, 0});
    t.fallThrough = start + 4;
    t.origin = origin;
    t.buildCycle = buildCycle;
    return t;
}

TEST(ProvenanceTest, LedgerTracksBuildsHitsAndEvictions)
{
    TraceCache tc(4, 2);  // 2 sets x 2 ways
    tc.insert(provTrace(0x1000, TraceOrigin::FillUnit));
    tc.insert(provTrace(0x2000, TraceOrigin::Precon));

    // The provenance view is the ledger's origin row sum.
    const auto prov = [&tc](TraceOrigin origin) {
        return tc.attrib().originSum(origin);
    };
    EXPECT_EQ(prov(TraceOrigin::FillUnit).builds, 1u);
    EXPECT_EQ(prov(TraceOrigin::Precon).builds, 1u);
    EXPECT_EQ(tc.attrib().total().hits, 0u);

    // Two lookups: first use + a repeat hit.
    EXPECT_NE(tc.lookup({0x1000, 0, 0}), nullptr);
    EXPECT_NE(tc.lookup({0x1000, 0, 0}), nullptr);
    EXPECT_EQ(prov(TraceOrigin::FillUnit).hits, 2u);
    EXPECT_EQ(prov(TraceOrigin::FillUnit).firstUses, 1u);

    // Invalidate the never-used precon line: evicted unused.
    EXPECT_TRUE(tc.invalidate({0x2000, 0, 0}));
    EXPECT_EQ(prov(TraceOrigin::Precon).evictInvalidate, 1u);
    EXPECT_EQ(prov(TraceOrigin::Precon).evictedUnused, 1u);

    // clear() closes the remaining line's record.
    tc.clear();
    EXPECT_EQ(prov(TraceOrigin::FillUnit).evictClear, 1u);
    const AttribCell total = tc.attrib().total();
    EXPECT_EQ(total.builds - total.evictions(), tc.numValid());
    EXPECT_EQ(total.resident(), 0u);
}

TEST(ProvenanceTest, FirstUseLatencyMeasuredOnProvenanceClock)
{
    TraceCache tc(4, 2);
    tc.advanceTo(100);
    tc.insert(provTrace(0x1000, TraceOrigin::Precon,
                        /*buildCycle=*/40));
    tc.advanceTo(150);
    EXPECT_NE(tc.lookup({0x1000, 0, 0}), nullptr);
    const AttribCell pre =
        tc.attrib().originSum(TraceOrigin::Precon);
    EXPECT_EQ(pre.firstUses, 1u);
    EXPECT_EQ(pre.firstUseLatencySum, 110u);  // 150 - 40
    EXPECT_DOUBLE_EQ(pre.meanFirstUseLatency(), 110.0);
}

TEST(ProvenanceTest, ServedAtInsertCountsAsHitAndFirstUse)
{
    TraceCache tc(4, 2);
    tc.insert(provTrace(0x1000, TraceOrigin::Precon),
              /*servedAtInsert=*/true);
    const AttribCell pre =
        tc.attrib().originSum(TraceOrigin::Precon);
    EXPECT_EQ(pre.builds, 1u);
    EXPECT_EQ(pre.hits, 1u);
    EXPECT_EQ(pre.firstUses, 1u);
    // A promote-serve is not a probe: the fast-mode algebra
    // (probes == traces) depends on probes() counting lookup()
    // calls only.
    EXPECT_EQ(tc.probes(), 0u);
    EXPECT_NE(tc.lookup({0x1000, 0, 0}), nullptr);
    EXPECT_EQ(tc.probes(), 1u);
    EXPECT_EQ(tc.lookup({0x2000, 0, 0}), nullptr);
    EXPECT_EQ(tc.probes(), 2u);
}

TEST(ProvenanceTest, CapacityEvictionClosesTheVictimRecord)
{
    TraceCache tc(2, 2);  // one set, two ways
    tc.insert(provTrace(0x1000, TraceOrigin::FillUnit));
    tc.insert(provTrace(0x2000, TraceOrigin::FillUnit));
    tc.insert(provTrace(0x3000, TraceOrigin::FillUnit));
    const AttribCell fill =
        tc.attrib().originSum(TraceOrigin::FillUnit);
    EXPECT_EQ(fill.builds, 3u);
    EXPECT_EQ(fill.evictCapacity, 1u);
    EXPECT_EQ(tc.attrib().total().resident(), tc.numValid());
}

TEST(ProvenanceTest, SimulatorRowReconcilesWithProvenance)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "gcc";
    cfg.traceCacheEntries = 128;
    cfg.preconBufferEntries = 128;
    cfg.maxInsts = 200000;
    const SimResult r = sim.run(cfg);

    const AttribCell fill = r.attrib.originSum(TraceOrigin::FillUnit);
    const AttribCell pre = r.attrib.originSum(TraceOrigin::Precon);

    // Every miss fill and every promotion built exactly one line.
    EXPECT_EQ(fill.builds, r.tcMisses);
    EXPECT_EQ(pre.builds, r.pbHits);
    EXPECT_GT(pre.builds, 0u) << "workload exercised no precon";

    // Serves: trace-cache hits plus promote-serves.
    EXPECT_EQ(fill.hits + pre.hits, r.traces - r.tcMisses);

    // A promoted line is served as it lands.
    EXPECT_EQ(pre.firstUses, pre.builds);
    EXPECT_EQ(pre.evictedUnused, 0u);
    EXPECT_GT(pre.firstUseLatencySum, 0u);
}

TEST(ProvenanceTest, DiffOracleChecksProvenanceEveryCase)
{
    // diffModels embeds ledgerReconciles{Fast,Timing}; a green
    // diff over a non-trivial case is the end-to-end guarantee the
    // fuzzer relies on.
    Simulator sim;
    const auto workload = sim.workload("go", 0);
    const Program &program = workload->program;
    check::DiffConfig cfg;
    cfg.traceCacheEntries = 64;
    cfg.preconEnabled = true;
    cfg.maxInsts = 60000;
    cfg.runProcessor = true;
    const check::DiffResult r = check::diffModels(program, cfg);
    EXPECT_FALSE(r.failure) << *r.failure;
}

TEST(ProvenanceTest, JsonRenderingCarriesBothOrigins)
{
    // Each origin's row sums its loop-class cells.
    AttribTable table;
    table.of(TraceOrigin::FillUnit, LoopClass::LoopBody).builds = 1;
    table.of(TraceOrigin::FillUnit, LoopClass::CallChain).builds = 2;
    table.of(TraceOrigin::Precon, LoopClass::LoopExit).hits = 9;
    const std::string json = renderProvenanceJson(table);
    EXPECT_NE(json.find("\"fill\": {\"builds\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"precon\": {"), std::string::npos);
    EXPECT_NE(json.find("\"hits\": 9"), std::string::npos);
    EXPECT_NE(json.find("\"first_use_latency_sum\": 0"),
              std::string::npos);
    // The provenance shape carries no instruction-type histograms.
    EXPECT_EQ(json.find("inst_built"), std::string::npos);
}

// ---------------------------------------------------------------
// Structured logging + heartbeat.
// ---------------------------------------------------------------

/** RAII: force a log format/level, restore the previous one. */
struct ScopedLogConfig
{
    ScopedLogConfig(LogFormat format, LogLevel level)
        : format_(logFormat()), level_(logLevel())
    {
        setLogFormat(format);
        setLogLevel(level);
    }
    ~ScopedLogConfig()
    {
        setLogFormat(format_);
        setLogLevel(level_);
    }
    LogFormat format_;
    LogLevel level_;
};

TEST(JsonLogTest, EmitsOneParseableRecordPerMessage)
{
    ScopedLogConfig scope(LogFormat::Json, LogLevel::Info);
    ScopedLogTag tag("t7");
    testing::internal::CaptureStderr();
    inform("hello \"world\" %d", 42);
    warn("tab\there");
    const std::string err = testing::internal::GetCapturedStderr();

    EXPECT_NE(err.find("{\"ts_us\": "), std::string::npos);
    EXPECT_NE(err.find("\"level\": \"info\""), std::string::npos);
    EXPECT_NE(err.find("\"thread\": \"t7\""), std::string::npos);
    EXPECT_NE(err.find("\"msg\": \"hello \\\"world\\\" 42\""),
              std::string::npos);
    EXPECT_NE(err.find("\"level\": \"warn\""), std::string::npos);
    EXPECT_NE(err.find("tab\\there"), std::string::npos);
    // NDJSON: every line is one record, starting with '{' and
    // ending with '}'.
    std::istringstream lines(err);
    std::string line;
    while (std::getline(lines, line)) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
}

TEST(JsonLogTest, LevelThresholdSuppressesBelow)
{
    ScopedLogConfig scope(LogFormat::Text, LogLevel::Warn);
    testing::internal::CaptureStderr();
    debugmsg("invisible");
    inform("also invisible");
    warn("visible");
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("invisible"), std::string::npos);
    EXPECT_NE(err.find("visible"), std::string::npos);
    EXPECT_FALSE(logLevelEnabled(LogLevel::Debug));
    EXPECT_TRUE(logLevelEnabled(LogLevel::Error));
}

telemetry::Heartbeat::Counts
beatCounts(std::uint64_t instructions, std::uint64_t hits,
           std::uint64_t fillBuilds, std::uint64_t preconBuilds)
{
    telemetry::Heartbeat::Counts c;
    c.instructions = instructions;
    c.hits = hits;
    c.fillBuilds = fillBuilds;
    c.preconBuilds = preconBuilds;
    return c;
}

/** The numeric value of @p field in a JSON heartbeat record. */
double
beatField(const std::string &beat, const std::string &field)
{
    const std::string key = "\"" + field + "\": ";
    const std::size_t at = beat.find(key);
    EXPECT_NE(at, std::string::npos) << field << " in " << beat;
    return at == std::string::npos
               ? -1.0
               : std::stod(beat.substr(at + key.size()));
}

TEST(HeartbeatTest, FormatsJsonAndTextBeats)
{
    {
        ScopedLogConfig scope(LogFormat::Json, LogLevel::Info);
        const std::string beat = telemetry::Heartbeat::formatBeat(
            beatCounts(2000000, 800, 200, 200), 2.0);
        EXPECT_EQ(beat.front(), '{');
        EXPECT_EQ(beat.back(), '}');
        EXPECT_NE(beat.find("\"event\": \"heartbeat\""),
                  std::string::npos);
        EXPECT_NE(beat.find("\"instructions\": 2000000"),
                  std::string::npos);
        EXPECT_NE(beat.find("\"mips\": 1"), std::string::npos);
        // 800 hits of 1000 fetched traces, 200 / 800 promoted.
        EXPECT_NE(beat.find("\"tcache_hit_rate\": 0.8"),
                  std::string::npos);
        EXPECT_NE(beat.find("\"precon_coverage\": 0.25"),
                  std::string::npos);
    }
    {
        ScopedLogConfig scope(LogFormat::Text, LogLevel::Info);
        const std::string beat = telemetry::Heartbeat::formatBeat(
            beatCounts(2000000, 800, 200, 200), 2.0);
        EXPECT_NE(beat.find("heartbeat: 2000000 insts"),
                  std::string::npos);
        EXPECT_NE(beat.find("1.000 MIPS"), std::string::npos);
    }
}

TEST(HeartbeatTest, TimingRunRatesCountEachPromotionOnce)
{
    // Timing mode probes the trace cache twice per buffer
    // promotion; a beat built from cache probes would report
    // (tcHits + 2 pbHits) / (tcHits + tcMisses + 2 pbHits). The
    // published ledger counts each fetched trace once.
    Simulator sim;
    const auto workload = sim.workload("gcc", 0);
    ProcessorConfig cfg;
    cfg.traceCacheEntries = 128;
    cfg.preconEnabled = true;
    cfg.precon.bufferEntries = 128;
    TraceProcessor proc(workload->program, cfg);
    const ProcessorStats &st = proc.run(100000);
    ASSERT_GT(st.pbHits, 0u) << "workload exercised no precon";
    ASSERT_GT(st.tcHits, 0u);
    ASSERT_GT(st.tcMisses, 0u);

    telemetry::resetPublishedLedgers();
    telemetry::publishRunLedgers(st.attrib);
    telemetry::Heartbeat::Counts interval =
        telemetry::Heartbeat::Counts::published();
    interval.instructions = st.instructions;
    telemetry::resetPublishedLedgers();

    ScopedLogConfig scope(LogFormat::Json, LogLevel::Info);
    const std::string beat =
        telemetry::Heartbeat::formatBeat(interval, 1.0);
    const double hits = static_cast<double>(st.tcHits + st.pbHits);
    EXPECT_DOUBLE_EQ(beatField(beat, "tcache_hit_rate"),
                     hits / (hits + static_cast<double>(st.tcMisses)));
    EXPECT_DOUBLE_EQ(beatField(beat, "precon_coverage"),
                     static_cast<double>(st.pbHits) / hits);
}

TEST(HeartbeatTest, StartsAndStopsCleanly)
{
    telemetry::Heartbeat heartbeat;
    EXPECT_FALSE(heartbeat.running());
    heartbeat.start(3600);  // no beat fires during the test
    EXPECT_TRUE(heartbeat.running());
    heartbeat.stop();
    EXPECT_FALSE(heartbeat.running());
    heartbeat.stop();  // idempotent
}

// ---------------------------------------------------------------
// TPRE_TRACE_BUF strict parsing.
// ---------------------------------------------------------------

TEST(TraceBufTest, ParsesValidCapacity)
{
    ASSERT_EQ(setenv("TPRE_TRACE_BUF", "1024", 1), 0);
    EXPECT_EQ(obs::traceRingCapacityFromEnv(), 1024u);
    ASSERT_EQ(unsetenv("TPRE_TRACE_BUF"), 0);
    EXPECT_EQ(obs::traceRingCapacityFromEnv(), 65536u);
}

TEST(TraceBufDeathTest, RejectsGarbageAndUndersizedRings)
{
    // Regression: these used to warn and silently fall back to the
    // default capacity.
    EXPECT_EXIT(
        {
            setenv("TPRE_TRACE_BUF", "64k", 1);
            obs::traceRingCapacityFromEnv();
        },
        testing::ExitedWithCode(1), "TPRE_TRACE_BUF.*64k");
    EXPECT_EXIT(
        {
            setenv("TPRE_TRACE_BUF", "8", 1);
            obs::traceRingCapacityFromEnv();
        },
        testing::ExitedWithCode(1), "minimum ring capacity");
    EXPECT_EXIT(
        {
            setenv("TPRE_TRACE_BUF", "-4", 1);
            obs::traceRingCapacityFromEnv();
        },
        testing::ExitedWithCode(1), "not a decimal integer");
}

// ---------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------

TEST(FlightRecorderTest, WritesRegistryDump)
{
    obs::Counter counter("telemetry_test.flight");
    counter.add(5);
    const std::string dir = testing::TempDir();
    ASSERT_EQ(setenv("TPRE_BENCH_DIR", dir.c_str(), 1), 0);
    const std::string path =
        telemetry::writeFlightRecord("unit-test");
    ASSERT_EQ(unsetenv("TPRE_BENCH_DIR"), 0);
    ASSERT_FALSE(path.empty());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const std::string doc = content.str();
    EXPECT_NE(doc.find("\"reason\": \"unit-test\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"counters\": {"), std::string::npos);
    EXPECT_NE(doc.find("\"telemetry_test.flight\": 5"),
              std::string::npos);
}

TEST(FlightRecorderDeathTest, FatalSignalLeavesADumpBehind)
{
    const std::string dir = testing::TempDir();
    const std::string dump = dir + "FLIGHT_telemetry_test.json";
    std::remove(dump.c_str());

    EXPECT_DEATH(
        {
            setenv("TPRE_BENCH_DIR", dir.c_str(), 1);
            telemetry::installFlightRecorder("telemetry_test");
            std::abort();
        },
        "flight recorder: SIGABRT");

    // The handler dumped before re-raising; the child's file
    // survives it.
    std::ifstream in(dump);
    EXPECT_TRUE(in.good()) << dump;
}

} // namespace
} // namespace tpre
