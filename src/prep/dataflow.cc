#include "prep/dataflow.hh"

#include <array>

#include "common/logging.hh"

namespace tpre
{

TraceDataflow::TraceDataflow(const Trace &trace)
{
    const std::size_t n = trace.insts.size();
    info_.resize(n);

    std::array<int, numArchRegs> last_writer;
    last_writer.fill(-1);

    unsigned segment = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const Instruction &inst = trace.insts[i].inst;
        InstDataflow &df = info_[i];
        df.segment = segment;

        if (inst.numSources() >= 1)
            df.producer1 = last_writer[inst.rs1];
        if (inst.readsRs2())
            df.producer2 = last_writer[inst.rs2];

        if (df.producer1 >= 0)
            info_[df.producer1].hasConsumer = true;
        if (df.producer2 >= 0)
            info_[df.producer2].hasConsumer = true;

        if (inst.writesReg())
            last_writer[inst.rd] = static_cast<int>(i);

        if (inst.isControl())
            ++segment;
    }
    numSegments_ = segment + 1;

    // Dead-within-trace: the destination is rewritten later with no
    // intervening read. One backward scan keeps the registers whose
    // next access is a write; a read at the same instruction as a
    // write counts first, as the read happens before the write.
    RegMask written_next = 0;
    for (std::size_t i = n; i-- > 0;) {
        const Instruction &inst = trace.insts[i].inst;
        const RegMask def = defMask(inst);
        info_[i].deadWithinTrace = (def & written_next) != 0;
        written_next = (written_next | def) & ~useMask(inst);
    }
}

bool
TraceDataflow::regUnchangedBetween(RegIndex reg, std::size_t from,
                                   std::size_t to,
                                   const Trace &trace) const
{
    tpre_assert(from <= to && to < trace.insts.size());
    for (std::size_t k = from + 1; k < to; ++k) {
        const Instruction &inst = trace.insts[k].inst;
        if (inst.writesReg() && inst.rd == reg)
            return false;
    }
    return true;
}

} // namespace tpre
