/**
 * @file
 * Trace-provenance vocabulary (DESIGN.md section 12): who built each
 * trace-cache line — the preconstruction engine or the demand-path
 * fill unit — and why a line's lifetime ended. Every Trace carries
 * its origin and construction cycle; the TraceCache's one ledger
 * (telemetry/attrib.hh) counts each line's outcome in an
 * (origin × loop-class) cell, and the per-origin provenance view —
 * the paper's Section 5 "useful preconstruction" question — is the
 * origin row sum of those cells.
 *
 * The types live in namespace tpre (not tpre::telemetry) because
 * the trace layer embeds them.
 */

#ifndef TPRE_TELEMETRY_PROVENANCE_HH
#define TPRE_TELEMETRY_PROVENANCE_HH

#include <cstddef>
#include <cstdint>

namespace tpre
{

/** Who assembled a trace. */
enum class TraceOrigin : std::uint8_t
{
    FillUnit = 0,  ///< demand path: segmented at commit, filled on miss
    Precon = 1,    ///< preconstruction engine, ahead of demand
};

inline constexpr std::size_t kNumOrigins = 2;

/** Stable lowercase name ("fill" / "precon") for reports. */
inline const char *
traceOriginName(TraceOrigin origin)
{
    return origin == TraceOrigin::Precon ? "precon" : "fill";
}

/** Why a trace-cache line's lifetime ended. */
enum class EvictReason : std::uint8_t
{
    Capacity,    ///< displaced by an insert into a full set
    Refresh,     ///< overwritten in place by the same identity
    Invalidate,  ///< explicit invalidate()
    Clear,       ///< cache-wide clear()
};

} // namespace tpre

#endif // TPRE_TELEMETRY_PROVENANCE_HH
