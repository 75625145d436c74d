#include "prep/scheduler.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hh"
#include "prep/dataflow.hh"

namespace tpre
{

namespace
{

/** Approximate execution latency used for scheduling heights. */
unsigned
schedLatency(const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Mul: return 5;
      case Opcode::Div: return 20;
      case Opcode::Ld: return 2;
      default: return 1;
    }
}

/** A set of segment-body instructions: bit i = the i-th one. */
using BodyMask = std::uint32_t;
static_assert(kMaxTraceLen <= 32, "BodyMask holds one bit per inst");

constexpr BodyMask
bit(unsigned i)
{
    return BodyMask(1) << i;
}

/** Call @p fn with the index of every set bit of @p mask, low first. */
template <typename Mask, typename Fn>
void
forEachBit(Mask mask, Fn fn)
{
    for (; mask != 0; mask &= mask - 1)
        fn(static_cast<unsigned>(std::countr_zero(mask)));
}

} // namespace

unsigned
scheduleTrace(Trace &trace)
{
    const std::size_t n = trace.insts.size();
    if (n < 3)
        return 0;

    TraceBody result;

    unsigned moved = 0;
    std::size_t seg_start = 0;
    while (seg_start < n) {
        // Find the segment [seg_start, seg_end): the first control
        // instruction ends it and stays put.
        std::size_t body_end = seg_start;
        while (body_end < n && !trace.insts[body_end].inst.isControl())
            ++body_end;
        const bool ends_in_control = body_end < n;
        const std::size_t seg_end = body_end + ends_in_control;
        const auto body_len =
            static_cast<unsigned>(body_end - seg_start);

        if (body_len < 2) {
            for (std::size_t i = seg_start; i < seg_end; ++i)
                result.push_back(trace.insts[i]);
            seg_start = seg_end;
            continue;
        }

        // Local dependence graph over the segment body, from
        // per-instruction register def/use masks plus a memory
        // mask: j depends on an earlier i through RAW (j reads a
        // register i writes), WAW, WAR (j writes a register i
        // reads), or when both access memory (no static alias
        // information inside a trace). The control instruction
        // stays last, after every body instruction exactly as in
        // program order, so it still reads its sources correctly.
        std::array<BodyMask, numArchRegs> writers{};
        std::array<BodyMask, numArchRegs> readers{};
        BodyMask mem_ops = 0;
        std::array<BodyMask, kMaxTraceLen> preds;
        std::array<BodyMask, kMaxTraceLen> succs{};
        for (unsigned j = 0; j < body_len; ++j) {
            const Instruction &inst = trace.insts[seg_start + j].inst;
            const RegMask use = useMask(inst);
            const RegMask def = defMask(inst);
            BodyMask p = 0;
            forEachBit(use, [&](unsigned r) { p |= writers[r]; });
            forEachBit(def, [&](unsigned r) {
                p |= writers[r] | readers[r];
            });
            if (inst.isLoad() || inst.isStore()) {
                p |= mem_ops;
                mem_ops |= bit(j);
            }
            preds[j] = p;
            forEachBit(p, [&](unsigned i) { succs[i] |= bit(j); });
            forEachBit(use, [&](unsigned r) { readers[r] |= bit(j); });
            forEachBit(def, [&](unsigned r) { writers[r] |= bit(j); });
        }

        // Dependence heights (critical-path lengths): every
        // successor of i comes after it, so a backward pass sees
        // each height final before pushing it to the predecessors.
        std::array<unsigned, kMaxTraceLen> below{};
        std::array<unsigned, kMaxTraceLen> height;
        for (unsigned j = body_len; j-- > 0;) {
            height[j] = below[j] + schedLatency(
                trace.insts[seg_start + j].inst);
            forEachBit(preds[j], [&](unsigned i) {
                below[i] = std::max(below[i], height[j]);
            });
        }

        // Greedy list scheduling over the ready mask: repeatedly
        // take the ready instruction with the greatest height
        // (ties: original order, keeping the schedule stable).
        BodyMask ready = 0;
        for (unsigned i = 0; i < body_len; ++i)
            ready |= preds[i] == 0 ? bit(i) : 0;
        BodyMask done = 0;
        for (unsigned picked = 0; picked < body_len; ++picked) {
            tpre_assert(ready != 0, "scheduling deadlock");
            unsigned best = static_cast<unsigned>(
                std::countr_zero(ready));
            forEachBit(ready & (ready - 1), [&](unsigned i) {
                if (height[i] > height[best])
                    best = i;
            });
            done |= bit(best);
            ready &= ~bit(best);
            forEachBit(succs[best], [&](unsigned j) {
                if ((preds[j] & ~done) == 0)
                    ready |= bit(j);
            });
            if (best != picked)
                ++moved;
            result.push_back(trace.insts[seg_start + best]);
        }
        if (ends_in_control)
            result.push_back(trace.insts[body_end]);
        seg_start = seg_end;
    }

    tpre_assert(result.size() == n);
    trace.insts = std::move(result);
    return moved;
}

} // namespace tpre
