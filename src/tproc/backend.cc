#include "tproc/backend.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace tpre
{

TimingBackend::TimingBackend(BackendConfig config)
    : config_(config), dcache_(config.dcacheGeometry),
      ring_(std::bit_ceil(config.numPes + kRetainedTraces)),
      ringMask_(ring_.size() - 1), peBusy_(config.numPes, false)
{
    tpre_assert(config_.numPes >= 1);
    tpre_assert(ring_.size() * 2 * kMaxTraceLen < noOperand,
                "too many PEs for the operand encoding");
    for (auto &writer : lastWriter_)
        writer.valid = false;
}

inline void
TimingBackend::refreshReady(InflightInst &inst, Cycle notBefore)
{
    inst.readyAt = std::max(
        notBefore, std::max(inst.src[0].availAt, inst.src[1].availAt));
}

std::uint64_t
TimingBackend::dispatch(const Trace &trace,
                        const std::vector<DynInst> &dyn, Cycle now)
{
    tpre_assert(hasFreePe(), "dispatch() with no free PE");

    const std::uint64_t handle = nextHandle_++;
    const std::size_t slot_idx = handle & ringMask_;
    Slot &slot = ring_[slot_idx];

    // Lowest free PE number (PEs are symmetric).
    unsigned pe = 0;
    while (peBusy_[pe])
        ++pe;
    peBusy_[pe] = true;

    slot.pe = pe;
    slot.len = static_cast<unsigned>(trace.insts.size());
    slot.remaining = slot.len;
    slot.cursor = 0;
    slot.notBefore = now + 1;
    slot.latest = 0;

    for (unsigned i = 0; i < slot.len; ++i) {
        const TraceInst &ti = trace.insts[i];
        InflightInst &inst = slot.insts[i];
        tpre_assert(ti.srcPos < dyn.size(),
                    "srcPos out of range of dynamic records");
        inst.effAddr = dyn[ti.srcPos].effAddr;
        inst.completion = noCompletion;
        inst.waiters = noOperand;
        inst.op = ti.inst.op;
        inst.crossOperands = 0;

        // Resolve each source's producer: a long-retired one's value
        // was available at cycle 0; an in-window one links this
        // operand into its wakeup list.
        const bool reads[2] = {
            ti.inst.numSources() >= 1 && ti.inst.rs1 != zeroReg,
            ti.inst.readsRs2() && ti.inst.rs2 != zeroReg};
        const RegIndex regs[2] = {ti.inst.rs1, ti.inst.rs2};
        for (unsigned s = 0; s < 2; ++s) {
            Operand &op = inst.src[s];
            op = Operand{};
            const WriterInfo &writer = lastWriter_[regs[s]];
            if (!reads[s] || !writer.valid)
                continue;
            const bool cross = writer.pe != pe;
            op.busLatency = cross ? config_.crossPeLatency : 0;
            inst.crossOperands += cross;
            if (writer.handle < oldestHandle_) {
                op.availAt = op.busLatency;
                continue;
            }
            InflightInst &producer =
                slotOf(writer.handle).insts[writer.idx];
            op.availAt = producer.completion == noCompletion
                             ? noCompletion
                             : producer.completion + op.busLatency;
            op.nextWaiter = producer.waiters;
            producer.waiters = static_cast<OperandRef>(
                (slot_idx * kMaxTraceLen + i) * 2 + s);
        }
        refreshReady(inst, slot.notBefore);

        if (ti.inst.writesReg())
            lastWriter_[ti.inst.rd] = {handle, i, pe, true};
    }
    return handle;
}

void
TimingBackend::issue(Slot &slot, InflightInst &inst, Cycle now)
{
    ++stats_.instsIssued;

    Cycle latency = 1;
    switch (inst.op) {
      case Opcode::Mul:
        latency = config_.mulLatency;
        break;
      case Opcode::Div:
        latency = config_.divLatency;
        break;
      case Opcode::Ld: {
        ++stats_.dcacheAccesses;
        const bool hit = dcache_.access(inst.effAddr);
        if (!hit)
            ++stats_.dcacheMisses;
        latency = hit ? config_.dcacheHitLatency
                      : config_.dcacheMissLatency;
        break;
      }
      case Opcode::Sd:
        ++stats_.dcacheAccesses;
        dcache_.access(inst.effAddr);
        break;
      default:
        break;
    }
    inst.completion = now + latency;
    slot.latest = std::max(slot.latest, inst.completion);
    tpre_assert(slot.remaining > 0);
    --slot.remaining;

    wake(inst.waiters, inst.completion);
}

void
TimingBackend::wake(OperandRef ref, Cycle valueAt)
{
    while (ref != noOperand) {
        Slot &slot = ring_[ref / (2 * kMaxTraceLen)];
        InflightInst &consumer = slot.insts[(ref / 2) % kMaxTraceLen];
        Operand &op = consumer.src[ref & 1];
        op.availAt = valueAt + op.busLatency;
        refreshReady(consumer, slot.notBefore);
        ref = op.nextWaiter;
    }
}

void
TimingBackend::tick(Cycle now)
{
    // Roll the bus-usage ring forward.
    while (busRingBase_ + busUse_.size() <= now + 1) {
        busUse_[busRingBase_ % busUse_.size()] = 0;
        ++busRingBase_;
    }
    unsigned &bus_now = busUse_[now % busUse_.size()];

    unsigned dcache_ports_used = 0;

    // Oldest trace first: the PEs share the buses and the D-cache.
    for (std::uint64_t h = headHandle_; h != nextHandle_; ++h) {
        Slot &slot = slotOf(h);
        if (slot.remaining == 0)
            continue;
        unsigned issued_this_pe = 0;
        unsigned dcache_pe_used = 0;

        for (unsigned i = slot.cursor;
             i < slot.len && issued_this_pe < config_.issuePerPe;
             ++i) {
            InflightInst &inst = slot.insts[i];
            if (inst.completion != noCompletion)
                continue;
            if (inst.readyAt > now) {
                if (config_.inOrderPe)
                    break;
                continue;
            }

            // Global result buses for cross-PE operands.
            if (inst.crossOperands > 0) {
                if (bus_now + inst.crossOperands >
                    config_.resultBuses) {
                    ++stats_.busStalls;
                    if (config_.inOrderPe)
                        break;
                    continue;
                }
                bus_now += inst.crossOperands;
                stats_.busTransfers += inst.crossOperands;
            }

            // Data-cache ports for memory operations.
            if (inst.op == Opcode::Ld || inst.op == Opcode::Sd) {
                if (dcache_ports_used >= config_.dcachePorts ||
                    dcache_pe_used >= config_.dcachePortsPerPe) {
                    if (config_.inOrderPe)
                        break;
                    continue;
                }
                ++dcache_ports_used;
                ++dcache_pe_used;
            }

            issue(slot, inst, now);
            ++issued_this_pe;
        }
        while (slot.cursor < slot.len &&
               slot.insts[slot.cursor].completion != noCompletion)
            ++slot.cursor;
    }
}

Cycle
TimingBackend::headCompletionTime() const
{
    tpre_assert(!empty());
    const Slot &head = slotOf(headHandle_);
    return head.remaining > 0 ? noCompletion : head.latest;
}

std::uint64_t
TimingBackend::headHandle() const
{
    tpre_assert(!empty());
    return headHandle_;
}

void
TimingBackend::retireHead()
{
    tpre_assert(!empty());
    peBusy_[slotOf(headHandle_).pe] = false;
    ++headHandle_;
    if (headHandle_ - oldestHandle_ > kRetainedTraces)
        ageOut();
}

void
TimingBackend::ageOut()
{
    // Completions of a trace outside the window read as 0 ("long
    // retired"); any consumer still holding one of its values
    // switches to that reading.
    const Slot &slot = slotOf(oldestHandle_++);
    for (unsigned i = 0; i < slot.len; ++i)
        wake(slot.insts[i].waiters, 0);
}

Cycle
TimingBackend::completionOf(std::uint64_t handle,
                            unsigned idx) const
{
    if (handle < oldestHandle_ || handle >= nextHandle_)
        return 0; // long retired
    const Slot &slot = slotOf(handle);
    tpre_assert(idx < slot.len);
    return slot.insts[idx].completion;
}

} // namespace tpre
