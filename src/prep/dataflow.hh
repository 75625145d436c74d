/**
 * @file
 * Intra-trace dataflow analysis used by the preprocessing passes:
 * per-instruction register def/use masks, producer links and
 * basic-block segmentation (control instructions end segments).
 * Everything lives in fixed-capacity storage sized by the 16-
 * instruction trace bound, so an analysis allocates nothing.
 */

#ifndef TPRE_PREP_DATAFLOW_HH
#define TPRE_PREP_DATAFLOW_HH

#include <cstdint>

#include "trace/trace.hh"

namespace tpre
{

/** A set of architectural registers: bit r stands for register r. */
using RegMask = std::uint32_t;
static_assert(numArchRegs <= 32, "RegMask holds one bit per register");

/** Registers @p inst reads (the same operands the executor reads). */
inline RegMask
useMask(const Instruction &inst)
{
    RegMask mask = 0;
    if (inst.numSources() >= 1)
        mask |= RegMask(1) << inst.rs1;
    if (inst.readsRs2())
        mask |= RegMask(1) << inst.rs2;
    return mask;
}

/** The register @p inst writes, as a mask (empty for none/r0). */
inline RegMask
defMask(const Instruction &inst)
{
    return inst.writesReg() ? RegMask(1) << inst.rd : 0;
}

/** Dataflow facts for one trace instruction. */
struct InstDataflow
{
    /** Index of the in-trace producer of rs1/rs2; -1 = live-in. */
    int producer1 = -1;
    int producer2 = -1;
    /** Does a later in-trace instruction read this one's result? */
    bool hasConsumer = false;
    /**
     * Is the destination dead within the trace (overwritten before
     * any use, so it is not live-out either)?
     */
    bool deadWithinTrace = false;
    /** Index of this instruction's basic-block segment. */
    unsigned segment = 0;
};

/** Dataflow analysis over a whole trace. */
class TraceDataflow
{
  public:
    explicit TraceDataflow(const Trace &trace);

    const InstDataflow &at(std::size_t i) const { return info_[i]; }
    std::size_t size() const { return info_.size(); }
    unsigned numSegments() const { return numSegments_; }

    /**
     * True if register @p reg holds the same value at instruction
     * @p to as it did just after instruction @p from executed
     * (i.e. no redefinition in between).
     */
    bool regUnchangedBetween(RegIndex reg, std::size_t from,
                             std::size_t to,
                             const Trace &trace) const;

  private:
    InlineVec<InstDataflow, kMaxTraceLen> info_;
    unsigned numSegments_ = 1;
};

} // namespace tpre

#endif // TPRE_PREP_DATAFLOW_HH
