#include "check/invariants.hh"

#include <sstream>
#include <unordered_set>

#include "common/logging.hh"
#include "common/random.hh"
#include "isa/disasm.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"

namespace tpre::check
{

void
enforce(const Violation &v, const char *where)
{
    if (v)
        panic("invariant violated at %s: %s", where, v->c_str());
}

namespace
{

/** Format helper: everything streams into one message. */
class Msg
{
  public:
    template <typename T>
    Msg &
    operator<<(const T &value)
    {
        os_ << value;
        return *this;
    }

    operator Violation() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

/**
 * Hard trace terminators (selection rule 1): returns, indirect
 * jumps and Halt. A return is a Jalr, so two opcode compares cover
 * all three.
 */
bool
hardTerminator(const Instruction &inst)
{
    return inst.op == Opcode::Jalr || inst.op == Opcode::Halt;
}

/**
 * The address execution reaches after @p ti, along the embedded
 * path; invalidAddr when it cannot be derived statically (indirect
 * targets).
 */
Addr
embeddedNext(const TraceInst &ti)
{
    const Instruction &inst = ti.inst;
    if (inst.isCondBranch())
        return ti.taken ? inst.targetOf(ti.pc)
                        : Instruction::fallThrough(ti.pc);
    if (inst.isDirectJump())
        return inst.targetOf(ti.pc);
    if (hardTerminator(inst))
        return invalidAddr;
    return Instruction::fallThrough(ti.pc);
}

/** Re-derive the TraceBuilder's rule-2/3 target length. */
unsigned
ruleTargetLen(const Trace &t, const SelectionPolicy &policy,
              int lastBackward)
{
    if (lastBackward < 0 || policy.alignGranule == 0)
        return policy.maxLen;
    const unsigned beyond = static_cast<unsigned>(lastBackward) + 1;
    const unsigned room = policy.maxLen - beyond;
    (void)t;
    return beyond + policy.alignGranule * (room / policy.alignGranule);
}

} // namespace

Violation
traceWellFormed(const Trace &t, const SelectionPolicy &policy,
                bool partial)
{
    if (!t.id.valid())
        return Msg() << "trace-well-formed: invalid TraceId";
    if (t.insts.empty())
        return Msg() << "trace-well-formed: empty trace @0x"
                     << std::hex << t.id.startPc;
    if (t.len() > policy.maxLen)
        return Msg() << "trace-well-formed: length " << t.len()
                     << " exceeds policy cap " << policy.maxLen;
    if (t.id.startPc != t.insts.front().pc)
        return Msg() << "trace-well-formed: id.startPc 0x" << std::hex
                     << t.id.startPc << " != first inst pc 0x"
                     << t.insts.front().pc;

    // One pass over the body does the branch accounting and finds
    // the first slot that holds a hard terminator before the last
    // slot, breaks path contiguity or has a wrong srcPos. That slot
    // is reported only after the branch accounting passes, so the
    // violation named is the one a pass per rule would name first.
    // `next` is where the embedded path goes after the slot just
    // visited, so a path break after slot i shows at slot i + 1
    // (slot 0 matches by construction: `next` starts at its pc).
    const unsigned n = t.len();
    const bool contiguous = !t.preprocessed;
    unsigned branches = 0;
    std::uint16_t flags = 0;
    int last_backward = -1;
    unsigned broken = n;
    Addr next = t.insts[0].pc;
    unsigned i = 0;
    for (const TraceInst &ti : t.insts) {
        const Instruction &inst = ti.inst;
        bool jumps = inst.isDirectJump();
        if (inst.isCondBranch()) {
            if (branches >= 16)
                return Msg() << "trace-well-formed: more than 16 "
                                "embedded branches";
            if (ti.taken)
                flags |= std::uint16_t(1) << branches;
            ++branches;
            if (inst.imm < 0)
                last_backward = static_cast<int>(i);
            jumps = ti.taken;
        }
        if (contiguous && broken == n) {
            if (ti.pc != next)
                broken = i - 1;
            else if (i + 1 < n &&
                     (hardTerminator(inst) || ti.srcPos != i))
                broken = i;
        }
        next = Instruction::fallThrough(ti.pc) +
               (jumps ? static_cast<Addr>(
                            static_cast<std::int64_t>(inst.imm) *
                            static_cast<std::int64_t>(instBytes))
                      : 0);
        ++i;
    }
    if (branches != t.id.numBranches)
        return Msg() << "trace-well-formed: id.numBranches "
                     << unsigned(t.id.numBranches) << " but trace embeds "
                     << branches << " conditional branches";
    if (flags != t.id.branchFlags)
        return Msg() << "trace-well-formed: id.branchFlags 0x"
                     << std::hex << t.id.branchFlags
                     << " disagree with embedded outcomes 0x" << flags;

    // Preprocessing may rewrite, reorder and delete instructions;
    // only the identity checks above survive it.
    if (t.preprocessed)
        return std::nullopt;

    // Path contiguity and hard terminators only in the last slot.
    if (broken < n) {
        i = broken;
        const TraceInst &ti = t.insts[i];
        if (hardTerminator(ti.inst))
            return Msg() << "trace-well-formed: "
                         << disassemble(ti.inst, ti.pc)
                         << " terminates mid-trace at slot " << i;
        const Addr succ = embeddedNext(ti);
        if (t.insts[i + 1].pc != succ)
            return Msg() << "trace-well-formed: path break after "
                         << "slot " << i << " (0x" << std::hex << ti.pc
                         << " -> expected 0x" << succ << ", embedded 0x"
                         << t.insts[i + 1].pc << ")";
        return Msg() << "trace-well-formed: srcPos "
                     << unsigned(ti.srcPos) << " at slot " << i
                     << " of an unpreprocessed trace";
    }

    // End reason vs. the last instruction, and fall-through.
    const TraceInst &last = t.insts.back();
    const bool last_hard = hardTerminator(last.inst);
    switch (t.endReason) {
      case TraceEndReason::Return:
        if (!last.inst.isReturn())
            return Msg() << "trace-well-formed: endReason Return but "
                            "last inst is "
                         << disassemble(last.inst, last.pc);
        break;
      case TraceEndReason::IndirectJump:
        if (!last.inst.isIndirectJump() || last.inst.isReturn())
            return Msg() << "trace-well-formed: endReason "
                            "IndirectJump but last inst is "
                         << disassemble(last.inst, last.pc);
        break;
      case TraceEndReason::Halt:
        if (last.inst.op != Opcode::Halt)
            return Msg() << "trace-well-formed: endReason Halt but "
                            "last inst is "
                         << disassemble(last.inst, last.pc);
        break;
      case TraceEndReason::MaxLength:
      case TraceEndReason::Alignment:
        if (last_hard)
            return Msg() << "trace-well-formed: length-based "
                            "endReason but last inst "
                         << disassemble(last.inst, last.pc)
                         << " is a hard terminator";
        break;
    }
    if (last_hard) {
        if (t.fallThrough != invalidAddr)
            return Msg() << "trace-well-formed: fallThrough 0x"
                         << std::hex << t.fallThrough
                         << " set on a hard-terminated trace";
    } else {
        if (t.fallThrough != next)
            return Msg() << "trace-well-formed: fallThrough 0x"
                         << std::hex << t.fallThrough
                         << " != successor 0x" << next
                         << " of the last instruction";
    }

    // Selection rules 2/3: a non-hard-terminated trace ends exactly
    // at the alignment/length target (unless flushed mid-assembly).
    if (!last_hard && !partial) {
        const unsigned target = ruleTargetLen(t, policy, last_backward);
        if (t.len() != target)
            return Msg() << "trace-well-formed: length " << t.len()
                         << " violates the selection rules (target "
                         << target << ", lastBackward " << last_backward
                         << ", granule " << policy.alignGranule << ")";
        const bool aligned =
            last_backward >= 0 && target != policy.maxLen;
        const TraceEndReason want = aligned ? TraceEndReason::Alignment
                                            : TraceEndReason::MaxLength;
        if (t.endReason != want)
            return Msg() << "trace-well-formed: endReason "
                         << unsigned(static_cast<std::uint8_t>(
                                t.endReason))
                         << " but the selection rules demand "
                         << unsigned(static_cast<std::uint8_t>(want));
    }
    return std::nullopt;
}

Violation
tracesMatch(const Trace &expected, const Trace &served)
{
    if (!(expected.id == served.id))
        return Msg() << "served-trace: identity mismatch (@0x"
                     << std::hex << expected.id.startPc << " flags 0x"
                     << expected.id.branchFlags << "/"
                     << std::dec << unsigned(expected.id.numBranches)
                     << " vs @0x" << std::hex << served.id.startPc
                     << " flags 0x" << served.id.branchFlags << "/"
                     << std::dec << unsigned(served.id.numBranches)
                     << ")";
    // Preprocessed traces are compared by the architectural
    // equivalence checker instead (content legitimately differs).
    if (served.preprocessed)
        return std::nullopt;
    if (expected.len() != served.len())
        return Msg() << "served-trace: @0x" << std::hex
                     << expected.id.startPc << std::dec << " length "
                     << served.len() << " served for demanded length "
                     << expected.len();
    for (unsigned i = 0; i < expected.len(); ++i) {
        const TraceInst &a = expected.insts[i];
        const TraceInst &b = served.insts[i];
        if (a.pc != b.pc || !(a.inst == b.inst) || a.taken != b.taken)
            return Msg() << "served-trace: @0x" << std::hex
                         << expected.id.startPc << " slot " << std::dec
                         << i << " demanded '"
                         << disassemble(a.inst, a.pc) << "' (pc 0x"
                         << std::hex << a.pc << ", taken " << a.taken
                         << ") but served '"
                         << disassemble(b.inst, b.pc) << "' (pc 0x"
                         << b.pc << ", taken " << b.taken << ")";
    }
    if (expected.fallThrough != served.fallThrough)
        return Msg() << "served-trace: @0x" << std::hex
                     << expected.id.startPc << " fallThrough 0x"
                     << served.fallThrough << " served, 0x"
                     << expected.fallThrough << " demanded";
    return std::nullopt;
}

Violation
tracesArchEquivalent(const Trace &original, const Trace &processed,
                     std::uint64_t seed)
{
    // Identical randomized register files; memory starts empty in
    // both, so value agreement at every touched address implies the
    // store streams agree too.
    Rng rng(seed);
    ArchState sa, sb;
    for (RegIndex r = 1; r < numArchRegs; ++r) {
        const RegValue v = rng.next();
        sa.setReg(r, v);
        sb.setReg(r, v);
    }

    std::unordered_set<Addr> touched;
    auto run = [&touched](const Trace &t, ArchState &state) {
        for (const TraceInst &ti : t.insts) {
            const ExecResult res = executeInst(ti.inst, ti.pc, state);
            if (ti.inst.isLoad() || ti.inst.isStore())
                touched.insert(res.effAddr & ~Addr(7));
        }
    };
    run(original, sa);
    run(processed, sb);

    for (RegIndex r = 0; r < numArchRegs; ++r) {
        if (sa.reg(r) != sb.reg(r))
            return Msg() << "arch-equivalence: r" << unsigned(r)
                         << " = 0x" << std::hex << sb.reg(r)
                         << " after the processed trace @0x"
                         << original.id.startPc << ", 0x" << sa.reg(r)
                         << " after the original";
    }
    for (Addr addr : touched) {
        if (sa.mem.read(addr) != sb.mem.read(addr))
            return Msg() << "arch-equivalence: mem[0x" << std::hex
                         << addr << "] = 0x" << sb.mem.read(addr)
                         << " after the processed trace @0x"
                         << original.id.startPc << ", 0x"
                         << sa.mem.read(addr)
                         << " after the original";
    }
    return std::nullopt;
}

Violation
buffersWellFormed(const PreconstructionBuffers &buffers,
                  const SelectionPolicy &policy)
{
    Violation found;
    buffers.forEachValid([&](const Trace &t, std::uint64_t seq) {
        if (found)
            return;
        if (Violation v = traceWellFormed(t, policy))
            found = Msg() << "precon-buffers: entry of region " << seq
                          << ": " << *v;
    });
    return found;
}

Violation
rasWellFormed(const ReturnAddressStack &ras)
{
    if (ras.depth() == 0)
        return Msg() << "ras: zero depth";
    if (ras.size() > ras.depth())
        return Msg() << "ras: size " << ras.size()
                     << " exceeds depth " << ras.depth();
    if (ras.empty() != (ras.size() == 0))
        return Msg() << "ras: empty() disagrees with size() = "
                     << ras.size();
    if (ras.empty() && ras.top() != invalidAddr)
        return Msg() << "ras: top() of an empty stack is 0x"
                     << std::hex << ras.top();
    return std::nullopt;
}

Violation
streamCallRetBalanced(const std::vector<DynInst> &stream, bool halted)
{
    std::int64_t depth = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const DynInst &dyn = stream[i];
        if (dyn.inst.isCall())
            ++depth;
        else if (dyn.inst.isReturn() && --depth < 0)
            return Msg() << "call-ret-balance: return at stream index "
                         << i << " (pc 0x" << std::hex << dyn.pc
                         << ") with no matching call";
    }
    if (halted && depth != 0)
        return Msg() << "call-ret-balance: halted stream ends at call "
                        "depth " << depth;
    return std::nullopt;
}

namespace
{

/** One exact equality of the ledger contract. */
Violation
ledgerEq(const char *what, std::uint64_t ledgerValue,
         std::uint64_t statsValue)
{
    if (ledgerValue == statsValue)
        return std::nullopt;
    return Msg() << "ledger-reconcile: " << what << ": ledger says "
                 << ledgerValue << " but stats say " << statsValue;
}

std::uint64_t
kindSum(const std::array<std::uint64_t, kNumInstKinds> &counts)
{
    std::uint64_t n = 0;
    for (std::uint64_t v : counts)
        n += v;
    return n;
}

/** Structural sanity of one cell; @p where names it. */
Violation
cellSane(const AttribCell &cell, const std::string &where)
{
    const std::uint64_t built = kindSum(cell.instBuilt);
    const std::uint64_t served = kindSum(cell.instServed);
    if (built < cell.builds || built > cell.builds * kMaxTraceLen) {
        return Msg() << "ledger-reconcile: " << where
                     << " instBuilt sum " << built
                     << " outside [builds, 16*builds] for builds "
                     << cell.builds;
    }
    if (served < cell.hits || served > cell.hits * kMaxTraceLen) {
        return Msg() << "ledger-reconcile: " << where
                     << " instServed sum " << served
                     << " outside [hits, 16*hits] for hits "
                     << cell.hits;
    }
    if (cell.firstUses > cell.builds) {
        return Msg() << "ledger-reconcile: " << where << " firstUses "
                     << cell.firstUses << " exceed builds "
                     << cell.builds;
    }
    if (cell.firstUses > cell.hits) {
        return Msg() << "ledger-reconcile: " << where << " firstUses "
                     << cell.firstUses << " exceed hits " << cell.hits;
    }
    if (cell.evictions() > cell.builds) {
        return Msg() << "ledger-reconcile: " << where << " evictions "
                     << cell.evictions() << " exceed builds "
                     << cell.builds;
    }
    return std::nullopt;
}

} // namespace

Violation
ledgerReconciles(const AttribTable &ledger, std::uint64_t tcHits,
                 std::uint64_t pbHits, std::uint64_t tcMisses,
                 std::uint64_t residentValid)
{
    const AttribCell fill = ledger.originSum(TraceOrigin::FillUnit);
    const AttribCell pre = ledger.originSum(TraceOrigin::Precon);

    if (auto v = ledgerEq("fill builds vs tcMisses", fill.builds,
                          tcMisses)) {
        return v;
    }
    if (auto v = ledgerEq("precon builds vs pbHits", pre.builds,
                          pbHits)) {
        return v;
    }
    if (auto v = ledgerEq("per-origin hits vs tcHits + pbHits",
                          fill.hits + pre.hits, tcHits + pbHits)) {
        return v;
    }
    // A promoted line serves the fetch that promoted it, so every
    // precon build is used immediately and none can die unused.
    if (auto v = ledgerEq("precon firstUses vs precon builds",
                          pre.firstUses, pre.builds)) {
        return v;
    }
    if (auto v = ledgerEq("precon evictedUnused", pre.evictedUnused,
                          0)) {
        return v;
    }
    if (auto v = ledgerEq("resident lines vs valid entries",
                          ledger.total().resident(), residentValid)) {
        return v;
    }
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            if (auto v = cellSane(ledger.of(origin, cls),
                                  std::string(traceOriginName(origin)) +
                                      "/" + loopClassName(cls))) {
                return v;
            }
        }
    }
    return std::nullopt;
}

namespace
{

/** One exact equality between a component's count and the stats. */
Violation
countEq(const char *what, std::uint64_t counted,
        std::uint64_t statsValue)
{
    if (counted == statsValue)
        return std::nullopt;
    return Msg() << "count-reconcile: " << what << ": counted "
                 << counted << " but stats say " << statsValue;
}

/** The engine's buffer counts, identical in both sim modes. */
template <typename Stats>
Violation
bufferCountsReconcile(const Stats &stats)
{
    // No engine leaves both sides zero; with one, the buffers are
    // probed exactly on every trace-cache miss.
    if (stats.precon.bufferProbes != 0 || stats.pbHits != 0) {
        if (auto v = countEq("buffer probes vs tcMisses + pbHits",
                             stats.precon.bufferProbes,
                             stats.tcMisses + stats.pbHits)) {
            return v;
        }
    }
    return countEq("engine bufferHits vs pbHits",
                   stats.precon.bufferHits, stats.pbHits);
}

/** The ledger contract over a finished run of either model. */
template <typename Stats>
Violation
runLedgerReconciles(const Stats &stats, const TraceCache &cache)
{
    if (auto v = ledgerEq("stats ledger builds vs cache ledger builds",
                          stats.attrib.total().builds,
                          cache.attrib().total().builds)) {
        return v;
    }
    return ledgerReconciles(cache.attrib(), stats.tcHits,
                            stats.pbHits, stats.tcMisses,
                            cache.numValid());
}

} // namespace

Violation
ledgerReconcilesFast(const FastSimStats &stats,
                     const TraceCache &cache,
                     const FillUnit::Stats &fill)
{
    if (auto v = countEq("cache probes vs traces", cache.probes(),
                         stats.traces)) {
        return v;
    }
    if (auto v = bufferCountsReconcile(stats))
        return v;
    if (auto v = countEq("fill insts vs instructions", fill.insts,
                         stats.instructions)) {
        return v;
    }
    if (auto v = countEq("fill traces + flushes vs traces",
                         fill.traces + fill.flushes, stats.traces)) {
        return v;
    }
    return runLedgerReconciles(stats, cache);
}

Violation
ledgerReconcilesTiming(const ProcessorStats &stats,
                       const TraceCache &cache,
                       const NextTracePredictor::Stats &ntp)
{
    // Each pb promotion re-probes the cache for the stored image.
    // A run stopped by its budget may have looked up one trace it
    // never dispatched; that lookup counts on both sides.
    if (auto v = countEq("cache probes vs tcHits + tcMisses + 2*pbHits",
                         cache.probes(),
                         stats.tcHits + stats.tcMisses +
                             2 * stats.pbHits)) {
        return v;
    }
    if (auto v = bufferCountsReconcile(stats))
        return v;
    if (auto v = countEq("ntp updates vs traces", ntp.updates,
                         stats.traces)) {
        return v;
    }
    if (auto v = countEq(
            "ntp predictions vs ntpCorrect + ntpWrong + ntpNone",
            ntp.predictions,
            stats.ntpCorrect + stats.ntpWrong + stats.ntpNone)) {
        return v;
    }
    return runLedgerReconciles(stats, cache);
}

} // namespace tpre::check
