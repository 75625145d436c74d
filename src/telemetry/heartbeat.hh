/**
 * @file
 * Periodic progress heartbeat: a background thread that every N
 * wall-seconds publishes the interval's throughput — instructions
 * simulated, MIPS, trace-cache hit rate, preconstruction coverage —
 * as an info-level log record. Under TPRE_LOG=json each beat is a
 * complete NDJSON record with "event": "heartbeat" and numeric
 * fields, so long unattended sweeps leave a machine-readable
 * progress trail even without a scraper attached to /metrics.
 *
 * Enabled via TPRE_HEARTBEAT_SECS or Heartbeat::start(); when
 * unset no thread starts. Rates are interval deltas, not lifetime
 * averages, so a stalled run is visible as a zero-MIPS beat. The
 * instruction count is the registry's sim.instructions; the hit
 * rate and coverage come from the published trace-cache ledger
 * (telemetry::publishedLedgers()), the same table the reports and
 * /metrics read. Both are published as each run finishes.
 */

#ifndef TPRE_TELEMETRY_HEARTBEAT_HH
#define TPRE_TELEMETRY_HEARTBEAT_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace tpre::telemetry
{

class Heartbeat
{
  public:
    Heartbeat() = default;
    ~Heartbeat();
    Heartbeat(const Heartbeat &) = delete;
    Heartbeat &operator=(const Heartbeat &) = delete;

    /** Start beating every @p periodSeconds (> 0). */
    void start(unsigned periodSeconds);

    /** Stop the thread (idempotent). */
    void stop();

    bool running() const { return thread_.joinable(); }

    /** The cumulative counts a beat differences. */
    struct Counts
    {
        std::uint64_t instructions = 0;  ///< sim.instructions
        std::uint64_t hits = 0;          ///< ledger hits (tc + pb)
        std::uint64_t fillBuilds = 0;    ///< fill builds (= misses)
        std::uint64_t preconBuilds = 0;  ///< precon builds (= pb hits)

        /** Everything published so far. */
        static Counts published();

        Counts operator-(const Counts &earlier) const;
    };

    /**
     * One beat's record from interval deltas; exposed so tests pin
     * the formats without waiting wall-clock seconds. The hit rate
     * is hits / (hits + fill builds) — every fetched trace is a hit
     * or a demand fill — and the precon coverage is the promoted
     * share of the hits (paper section 4). Returns the NDJSON
     * record (json) or the human sentence (text).
     */
    static std::string formatBeat(const Counts &interval,
                                  double seconds);

  private:
    void beatLoop(unsigned periodSeconds);

    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace tpre::telemetry

#endif // TPRE_TELEMETRY_HEARTBEAT_HH
