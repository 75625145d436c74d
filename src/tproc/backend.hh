/**
 * @file
 * TimingBackend: the distributed trace-processor execution engine
 * of Section 4.1 — four processing elements, each holding one
 * 16-instruction trace with 2-way issue, eight global result buses
 * with an extra cycle of cross-PE latency, a 4-ported non-blocking
 * L1 data cache (2-cycle hit, perfect 10-cycle L2) and R10000-like
 * operation latencies. Memory disambiguation is ideal, standing in
 * for the ARB.
 *
 * The backend executes the *actual* dynamic instructions (oracle
 * functional stream) with dependence-accurate timing; control
 * misprediction is modeled by the frontend as fetch stalls until
 * the resolving instruction's completion time, which the backend
 * exposes per instruction.
 */

#ifndef TPRE_TPROC_BACKEND_HH
#define TPRE_TPROC_BACKEND_HH

#include <array>
#include <span>
#include <vector>

#include "cache/set_assoc.hh"
#include "func/core.hh"
#include "trace/trace.hh"

namespace tpre
{

/** Backend configuration; defaults match the paper's Section 4.1. */
struct BackendConfig
{
    unsigned numPes = 4;
    unsigned issuePerPe = 2;
    /**
     * PEs issue in program order within their trace (stalling at
     * the first non-ready instruction). This is what makes the
     * preprocessing pipeline's intra-trace scheduling valuable;
     * set false for an out-of-order-PE ablation.
     */
    bool inOrderPe = true;
    unsigned resultBuses = 8;
    /** Extra cycles for a result to cross PEs via a bus. */
    unsigned crossPeLatency = 2;
    unsigned dcachePorts = 4;
    unsigned dcachePortsPerPe = 2;
    CacheGeometry dcacheGeometry{64 * 1024, 4, lineBytes};
    Cycle dcacheHitLatency = 2;
    Cycle dcacheMissLatency = 10;
    Cycle mulLatency = 5;
    Cycle divLatency = 20;
};

/**
 * The trace-processor execution engine.
 *
 * Event-driven bookkeeping (DESIGN.md section 10.1): handles are
 * dispatched and retired in order, so the in-flight traces plus the
 * last kRetainedTraces retired ones form one contiguous handle
 * window, held in a fixed ring indexed by handle. Each source
 * operand's producer is resolved at dispatch; a producer writes its
 * consumers' ready cycles through a wakeup list when it issues, so
 * a cycle's work grows with the instructions that can issue rather
 * than with the instructions in flight.
 */
class TimingBackend
{
  public:
    struct Stats
    {
        std::uint64_t instsIssued = 0;
        std::uint64_t dcacheAccesses = 0;
        std::uint64_t dcacheMisses = 0;
        std::uint64_t busTransfers = 0;
        std::uint64_t busStalls = 0;
    };

    /** Retired traces whose completions stay queryable. */
    static constexpr unsigned kRetainedTraces = 16;

    explicit TimingBackend(BackendConfig config = {});

    /** Is a processing element free for dispatch? */
    bool
    hasFreePe() const
    {
        return nextHandle_ - headHandle_ < config_.numPes;
    }

    /**
     * Dispatch a trace into a free PE at cycle @p now. @p dyn are
     * the matching dynamic records in *original* program order
     * (TraceInst::srcPos indexes into them); they are read during
     * the call only, so the caller may reuse their storage.
     *
     * @return a handle identifying the in-flight trace.
     */
    std::uint64_t dispatch(const Trace &trace,
                           std::span<const DynInst> dyn, Cycle now);

    /** Advance execution by one cycle. */
    void tick(Cycle now);

    /**
     * Cycle at which the oldest trace's last instruction
     * completes; noCompletion while any instruction is unissued.
     */
    Cycle headCompletionTime() const;
    /** Handle of the oldest in-flight trace (must exist). */
    std::uint64_t headHandle() const;
    /**
     * Retire the oldest trace, freeing its PE.
     * @return the dynamic instructions it commits (its dispatched
     *         records; preprocessing may have dropped some of the
     *         trace's own instructions).
     */
    unsigned retireHead();

    bool empty() const { return headHandle_ == nextHandle_; }

    /**
     * Completion cycle of instruction @p idx (position in the
     * *dispatched* trace) of in-flight or just-retired trace
     * @p handle; invalid (not yet known) completions return
     * noCompletion, and traces retired more than kRetainedTraces
     * retirements ago return 0 (value available long ago).
     */
    static constexpr Cycle noCompletion = ~static_cast<Cycle>(0);
    Cycle completionOf(std::uint64_t handle, unsigned idx) const;

    const Stats &stats() const { return stats_; }
    const BackendConfig &config() const { return config_; }

  private:
    /** Producer info for register values. */
    struct WriterInfo
    {
        std::uint64_t handle = 0;
        unsigned idx = 0;
        unsigned pe = 0;
        bool valid = false;
    };

    /** Wakeup-list link / operand reference: (slot, inst, source). */
    using OperandRef = std::uint32_t;
    static constexpr OperandRef noOperand = ~OperandRef(0);

    /** A source operand with its producer resolved at dispatch. */
    struct Operand
    {
        /** Cycle the value is readable in this PE; noCompletion
         *  until the producer issues. */
        Cycle availAt = 0;
        /** Cross-PE bus latency (0 for a same-PE producer). */
        std::uint32_t busLatency = 0;
        /** Next consumer operand waiting on the same producer. */
        OperandRef nextWaiter = noOperand;
    };

    struct InflightInst
    {
        Addr effAddr = 0;
        /** max(dispatch + 1, operand availability): the first
         *  cycle the instruction may issue. */
        Cycle readyAt = 0;
        Cycle completion = noCompletion;
        Operand src[2];
        /** Head of this instruction's consumer wakeup list. */
        OperandRef waiters = noOperand;
        Opcode op = Opcode::Halt;
        /** Source operands fed over the global result buses. */
        std::uint8_t crossOperands = 0;
    };

    /** One ring slot: a trace in flight or recently retired. */
    struct Slot
    {
        unsigned pe = 0;
        unsigned len = 0;
        /** Dynamic records dispatched with the trace. */
        unsigned numDyn = 0;
        /** Unissued instructions. */
        unsigned remaining = 0;
        /** First unissued instruction. */
        unsigned cursor = 0;
        Cycle notBefore = 0;
        /** Latest completion among issued instructions. */
        Cycle latest = 0;
        std::array<InflightInst, kMaxTraceLen> insts;
    };

    Slot &
    slotOf(std::uint64_t handle)
    {
        return ring_[handle & ringMask_];
    }
    const Slot &
    slotOf(std::uint64_t handle) const
    {
        return ring_[handle & ringMask_];
    }
    /** Recompute an instruction's ready cycle from its operands. */
    static void refreshReady(InflightInst &inst, Cycle notBefore);
    void issue(Slot &slot, InflightInst &inst, Cycle now);
    /**
     * Walk a wakeup list from @p ref: each consumer operand reads
     * a value produced at @p valueAt (plus its bus latency).
     */
    void wake(OperandRef ref, Cycle valueAt);
    /** Drop the oldest retained trace from the handle window. */
    void ageOut();

    BackendConfig config_;
    SetAssocCache dcache_;
    /** Handle window [oldestHandle_, nextHandle_); in flight from
     *  headHandle_. Sized to a power of two >= numPes + retained. */
    std::vector<Slot> ring_;
    std::uint64_t ringMask_ = 0;
    std::uint64_t oldestHandle_ = 1;
    std::uint64_t headHandle_ = 1;
    std::uint64_t nextHandle_ = 1;
    std::array<WriterInfo, numArchRegs> lastWriter_;
    std::vector<bool> peBusy_;
    /** Result-bus usage per cycle (small ring buffer). */
    std::array<unsigned, 64> busUse_ = {};
    Cycle busRingBase_ = 0;
    Stats stats_;
};

} // namespace tpre

#endif // TPRE_TPROC_BACKEND_HH
