/**
 * @file
 * The trace-cache ledger (DESIGN.md section 12): *who* built each
 * line, *why* it was reused and what became of it. Every trace is
 * classified once at insert time — a loop-structure class derived
 * from its back-edge shape plus an instruction-type histogram over
 * Opcode kinds — and the TraceCache counts builds, hits, first-use
 * latency and eviction splits per (origin × loop-class) cell, with
 * the instruction-type histograms decanting each cell into the
 * third dimension. This is the decomposition of "Decanting the
 * Contribution of Instruction Types and Loop Structures in the
 * Reuse of Traces" (PAPERS.md) grafted onto the paper's Section 5
 * provenance question.
 *
 * The cells are the only store. The per-origin provenance view is
 * the origin row sum (AttribTable::originSum), computed wherever a
 * report or check needs it. Bookkeeping is plain integer
 * arithmetic on the owning simulator's thread — no atomics, no obs
 * macros — so the ledger is exact and checkable.
 *
 * The types live in namespace tpre (not tpre::telemetry) because
 * the trace layer embeds them; the telemetry subsystem renders
 * them.
 */

#ifndef TPRE_TELEMETRY_ATTRIB_HH
#define TPRE_TELEMETRY_ATTRIB_HH

#include <array>
#include <cstdint>
#include <string>

#include "telemetry/provenance.hh"
#include "trace/trace.hh"

namespace tpre
{

/**
 * Loop-structure class of a trace, from its head/back-edge shape.
 * Classification priority: a taken back edge anywhere in the body
 * marks a loop body (the trace participates in an iterating loop)
 * even when calls are embedded too; a not-taken back edge without a
 * taken one is the loop-exit path; otherwise the presence of a call
 * or return makes it call-chain glue; what remains is straight-line
 * code.
 */
enum class LoopClass : std::uint8_t
{
    LoopBody = 0,      ///< embeds a taken (loop-closing) back edge
    LoopExit = 1,      ///< back edge present but not taken
    CallChain = 2,     ///< no back edge; embeds a call or return
    StraightLine = 3,  ///< none of the above
};

inline constexpr std::size_t kNumLoopClasses = 4;

/** Stable snake_case name ("loop_body", ...) for reports. */
const char *loopClassName(LoopClass cls);

/**
 * Instruction-type buckets. Disjoint by construction: an
 * instruction lands in the first bucket whose predicate matches, in
 * this order — call/return first (so a linking Jalr counts as a
 * call, not an indirect branch), then conditional branches, the
 * remaining indirect jumps, memory ops, and everything else
 * (including Halt and preprocessing-fused ops) as ALU.
 */
enum class InstKind : std::uint8_t
{
    CondBranch = 0,
    IndirectBranch = 1,
    CallReturn = 2,
    LoadStore = 3,
    Alu = 4,
};

inline constexpr std::size_t kNumInstKinds = 5;

/** Stable snake_case name ("cond_branch", ...) for reports. */
const char *instKindName(InstKind kind);

/** Bucket one instruction (see InstKind for the priority order). */
inline InstKind
instKindOf(const Instruction &inst)
{
    if (inst.isCall() || inst.isReturn())
        return InstKind::CallReturn;
    if (inst.isCondBranch())
        return InstKind::CondBranch;
    if (inst.isIndirectJump())
        return InstKind::IndirectBranch;
    if (inst.isLoad() || inst.isStore())
        return InstKind::LoadStore;
    return InstKind::Alu;
}

/**
 * The classification of one trace, computed once when the trace
 * enters the cache and cached beside the line (a trace body is
 * immutable while resident, so the class never changes).
 */
struct TraceClass
{
    LoopClass loopClass = LoopClass::StraightLine;
    /** Instruction count per kind; the body holds <= 16 insts. */
    std::array<std::uint8_t, kNumInstKinds> instCounts{};
};

/** Classify @p trace (loop class + instruction-type histogram). */
TraceClass classifyTrace(const Trace &trace);

/**
 * One (origin × loop-class) ledger cell. An origin's row sum (its
 * provenance) and the table's grand total have the same shape.
 */
struct AttribCell
{
    /** Lines inserted into the trace cache. */
    std::uint64_t builds = 0;
    /** Fetches served by these lines. */
    std::uint64_t hits = 0;
    /** Lines that served at least one fetch. */
    std::uint64_t firstUses = 0;
    /** Sum over first uses of (use cycle - construction cycle). */
    std::uint64_t firstUseLatencySum = 0;
    std::uint64_t evictCapacity = 0;
    std::uint64_t evictRefresh = 0;
    std::uint64_t evictInvalidate = 0;
    std::uint64_t evictClear = 0;
    /** Evicted lines (any reason) that never served a fetch. */
    std::uint64_t evictedUnused = 0;
    /** Instructions inserted, decanted by kind (builds-weighted). */
    std::array<std::uint64_t, kNumInstKinds> instBuilt{};
    /** Instructions served by fetches, decanted by kind. */
    std::array<std::uint64_t, kNumInstKinds> instServed{};

    std::uint64_t
    evictions() const
    {
        return evictCapacity + evictRefresh + evictInvalidate +
               evictClear;
    }

    /**
     * Lines still resident: every build either was evicted (any
     * reason) or is still valid in the cache. The invariant
     * checkers pin the table total against TraceCache::numValid().
     */
    std::uint64_t resident() const { return builds - evictions(); }

    /** Mean construction-to-first-use latency in cycles. */
    double
    meanFirstUseLatency() const
    {
        return firstUses == 0
                   ? 0.0
                   : static_cast<double>(firstUseLatencySum) /
                         static_cast<double>(firstUses);
    }

    /** Accumulate @p other field by field. */
    void add(const AttribCell &other);
};

/** A scalar counter of AttribCell: report key, field name, member. */
struct CellCounter
{
    const char *key;
    const char *name;
    std::uint64_t AttribCell::*field;
};

/**
 * Every scalar counter of a cell, in report order. The JSON
 * renderer, the replay-equality check and AttribCell::add walk this
 * one list, so a new counter is reported, compared and folded by
 * adding one row.
 */
inline constexpr CellCounter kCellCounters[] = {
    {"builds", "builds", &AttribCell::builds},
    {"hits", "hits", &AttribCell::hits},
    {"first_uses", "firstUses", &AttribCell::firstUses},
    {"first_use_latency_sum", "firstUseLatencySum",
     &AttribCell::firstUseLatencySum},
    {"evict_capacity", "evictCapacity", &AttribCell::evictCapacity},
    {"evict_refresh", "evictRefresh", &AttribCell::evictRefresh},
    {"evict_invalidate", "evictInvalidate",
     &AttribCell::evictInvalidate},
    {"evict_clear", "evictClear", &AttribCell::evictClear},
    {"evicted_unused", "evictedUnused", &AttribCell::evictedUnused},
};

/** The (origin × loop-class) ledger of one trace cache or run. */
struct AttribTable
{
    std::array<AttribCell, kNumOrigins * kNumLoopClasses> cells;

    AttribCell &
    of(TraceOrigin origin, LoopClass cls)
    {
        return cells[static_cast<std::size_t>(origin) *
                         kNumLoopClasses +
                     static_cast<std::size_t>(cls)];
    }

    const AttribCell &
    of(TraceOrigin origin, LoopClass cls) const
    {
        return const_cast<AttribTable *>(this)->of(origin, cls);
    }

    /** One origin's loop-class cells summed: its provenance row. */
    AttribCell originSum(TraceOrigin origin) const;

    /** Every cell summed. */
    AttribCell total() const;

    /** Accumulate another table cell-wise (bench aggregation). */
    void add(const AttribTable &other);
};

/**
 * The per-origin provenance view as a JSON object keyed by origin
 * name, e.g.
 *   {"fill": {"builds": N, "hits": N, ...}, "precon": {...}}
 * Each row is originSum() without the instruction-type histograms.
 * Used by the BENCH JSON rows.
 */
std::string renderProvenanceJson(const AttribTable &table);

/**
 * The cells as a JSON object keyed origin -> loop class, e.g.
 *   {"fill": {"loop_body": {"builds": N, ...,
 *             "inst_built": {"cond_branch": N, ...},
 *             "inst_served": {...}}, ...}, "precon": {...}}
 * Used by the BENCH JSON rows and the aggregate report section.
 */
std::string renderAttribJson(const AttribTable &table);

} // namespace tpre

#endif // TPRE_TELEMETRY_ATTRIB_HH
