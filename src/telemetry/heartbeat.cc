#include "telemetry/heartbeat.hh"

#include <chrono>
#include <cstdio>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/tracer.hh"
#include "sim/json_report.hh"
#include "telemetry/prometheus.hh"

namespace tpre::telemetry
{

namespace
{

std::string
fixed(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    return buf;
}

} // namespace

Heartbeat::~Heartbeat()
{
    stop();
}

void
Heartbeat::start(unsigned periodSeconds)
{
    tpre_assert(!thread_.joinable(), "heartbeat already running");
    tpre_assert(periodSeconds > 0);
    stopping_ = false;
    thread_ =
        std::thread([this, periodSeconds] { beatLoop(periodSeconds); });
}

void
Heartbeat::stop()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> guard(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
}

Heartbeat::Counts
Heartbeat::Counts::published()
{
    const AttribTable ledger = publishedLedgers();
    Counts c;
    c.instructions = obs::MetricsRegistry::instance().counterValue(
        "sim.instructions");
    c.hits = ledger.total().hits;
    c.fillBuilds = ledger.originSum(TraceOrigin::FillUnit).builds;
    c.preconBuilds = ledger.originSum(TraceOrigin::Precon).builds;
    return c;
}

Heartbeat::Counts
Heartbeat::Counts::operator-(const Counts &earlier) const
{
    Counts d;
    d.instructions = instructions - earlier.instructions;
    d.hits = hits - earlier.hits;
    d.fillBuilds = fillBuilds - earlier.fillBuilds;
    d.preconBuilds = preconBuilds - earlier.preconBuilds;
    return d;
}

std::string
Heartbeat::formatBeat(const Counts &interval, double seconds)
{
    const std::uint64_t instructions = interval.instructions;
    const double mips =
        seconds > 0.0
            ? static_cast<double>(instructions) / 1e6 / seconds
            : 0.0;
    const std::uint64_t fetched = interval.hits + interval.fillBuilds;
    const double hitRate =
        fetched > 0 ? static_cast<double>(interval.hits) /
                          static_cast<double>(fetched)
                    : 0.0;
    const double preconCoverage =
        interval.hits > 0
            ? static_cast<double>(interval.preconBuilds) /
                  static_cast<double>(interval.hits)
            : 0.0;

    if (logFormat() == LogFormat::Json) {
        std::string line = "{\"event\": \"heartbeat\", ";
        line += "\"instructions\": " + std::to_string(instructions) +
                ", ";
        line += "\"interval_seconds\": " + jsonNumber(seconds) + ", ";
        line += "\"mips\": " + jsonNumber(mips) + ", ";
        line += "\"tcache_hit_rate\": " + jsonNumber(hitRate) + ", ";
        line += "\"precon_coverage\": " + jsonNumber(preconCoverage);
        if (!logThreadTag().empty())
            line += ", \"thread\": \"" + jsonEscape(logThreadTag()) +
                    "\"";
        line += "}";
        return line;
    }
    return "heartbeat: " + std::to_string(instructions) +
           " insts in " + fixed(seconds) + "s (" + fixed(mips) +
           " MIPS), tcache hit rate " + fixed(hitRate) +
           ", precon coverage " + fixed(preconCoverage);
}

void
Heartbeat::beatLoop(unsigned periodSeconds)
{
    ScopedLogTag tag("heartbeat");
    Counts last = Counts::published();
    std::uint64_t lastMicros = obs::wallMicros();

    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock,
                         std::chrono::seconds(periodSeconds),
                         [this] { return stopping_; })) {
        const Counts now = Counts::published();
        const std::uint64_t nowMicros = obs::wallMicros();

        const std::string beat = formatBeat(
            now - last,
            static_cast<double>(nowMicros - lastMicros) / 1e6);
        if (logFormat() == LogFormat::Json)
            logRawLine(beat);
        else
            inform("%s", beat.c_str());

        last = now;
        lastMicros = nowMicros;
    }
}

} // namespace tpre::telemetry
