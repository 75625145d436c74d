/**
 * @file
 * Tests for the tpre::check differential oracle and fuzzing
 * subsystem: the invariant checkers accept real data and detect
 * injected corruption, the reference interpreter agrees with the
 * FunctionalCore, diffModels() is clean on real workloads, a
 * bounded fuzz campaign passes, and the shrinker reduces a failing
 * case while preserving the failure category.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "check/diff.hh"
#include "check/fuzz.hh"
#include "check/invariants.hh"
#include "check/stats_check.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"
#include "trace/fill_unit.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

using check::failureCategory;
using check::Violation;

/** Collect the first @p count demand traces of a gcc run. */
std::vector<Trace>
realTraces(std::size_t count, const SelectionPolicy &policy = {})
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    FunctionalCore core(wl.program);
    FillUnit fill(policy);
    std::vector<Trace> traces;
    while (!core.halted() && traces.size() < count) {
        if (auto t = fill.feed(core.step()))
            traces.push_back(std::move(*t));
    }
    return traces;
}

Instruction
callInst()
{
    Instruction inst;
    inst.op = Opcode::Jal;
    inst.rd = linkReg;
    return inst;
}

Instruction
retInst()
{
    Instruction inst;
    inst.op = Opcode::Jalr;
    inst.rd = zeroReg;
    inst.rs1 = linkReg;
    return inst;
}

// ---------------------------------------------------------------
// Invariant checkers on real and corrupted data.
// ---------------------------------------------------------------

TEST(TraceWellFormed, AcceptsRealTraces)
{
    const auto traces = realTraces(200);
    ASSERT_GE(traces.size(), 100u);
    for (const Trace &t : traces) {
        const Violation v = check::traceWellFormed(t);
        EXPECT_FALSE(v.has_value()) << *v;
    }
}

TEST(TraceWellFormed, DetectsPathBreak)
{
    auto traces = realTraces(50);
    for (Trace &t : traces) {
        if (t.len() < 3)
            continue;
        t.insts[1].pc += 4; // break embedded-path contiguity
        const Violation v = check::traceWellFormed(t);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(failureCategory(*v), "trace-well-formed");
        return;
    }
    FAIL() << "no trace long enough to corrupt";
}

TEST(TraceWellFormed, DetectsBranchFlagDrift)
{
    auto traces = realTraces(200);
    for (Trace &t : traces) {
        if (t.id.numBranches == 0)
            continue;
        t.id.branchFlags ^= 1; // claim the opposite first outcome
        const Violation v = check::traceWellFormed(t);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(failureCategory(*v), "trace-well-formed");
        return;
    }
    FAIL() << "no trace with a conditional branch";
}

TEST(TraceWellFormed, DetectsShortLengthTermination)
{
    // An injected off-by-one in the selection length rule would
    // produce traces one instruction short; strict checking must
    // reject a truncated length-terminated trace.
    auto traces = realTraces(200);
    for (Trace &t : traces) {
        if (t.endReason != TraceEndReason::MaxLength &&
            t.endReason != TraceEndReason::Alignment)
            continue;
        if (t.len() < 2)
            continue;
        t.fallThrough = t.insts.back().pc;
        t.insts.pop_back();
        const Violation v = check::traceWellFormed(t);
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(failureCategory(*v), "trace-well-formed");
        return;
    }
    FAIL() << "no length-terminated trace found";
}

TEST(TracesMatch, DetectsServedContentDrift)
{
    auto traces = realTraces(10);
    ASSERT_FALSE(traces.empty());
    const Trace &demanded = traces.front();
    EXPECT_FALSE(
        check::tracesMatch(demanded, demanded).has_value());

    Trace served = demanded;
    served.insts[0].inst.imm ^= 1;
    const Violation v = check::tracesMatch(demanded, served);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(failureCategory(*v), "served-trace");
}

// ---------------------------------------------------------------
// Every rejection class of traceWellFormed() and tracesMatch(),
// each pinned to its diagnostic text.
// ---------------------------------------------------------------

Instruction
addiInst()
{
    Instruction inst;
    inst.op = Opcode::Addi;
    inst.rd = 1;
    inst.rs1 = 1;
    inst.imm = 1;
    return inst;
}

Instruction
bneInst(std::int32_t offset)
{
    Instruction inst;
    inst.op = Opcode::Bne;
    inst.rs1 = 1;
    inst.rs2 = 2;
    inst.imm = offset;
    return inst;
}

/**
 * Assemble a trace through the shared TraceBuilder from (inst,
 * taken) steps starting at @p pc, each following the previous one's
 * embedded successor. The checkers read only the trace, so the body
 * need not come from a program image.
 */
Trace
assemble(Addr pc, const std::vector<std::pair<Instruction, bool>> &steps)
{
    TraceBuilder builder;
    builder.begin(pc);
    bool done = false;
    for (const auto &[inst, taken] : steps) {
        EXPECT_FALSE(done) << "steps continue past the trace end";
        Addr next = Instruction::fallThrough(pc);
        if (inst.isDirectJump() || (inst.isCondBranch() && taken))
            next = inst.targetOf(pc);
        else if (inst.isIndirectJump() || inst.op == Opcode::Halt)
            next = invalidAddr;
        done = builder.append(inst, pc, taken, next);
        pc = next;
    }
    EXPECT_TRUE(done) << "steps end before the trace does";
    return builder.take();
}

std::vector<std::pair<Instruction, bool>>
addis(unsigned n)
{
    return std::vector<std::pair<Instruction, bool>>(
        n, {addiInst(), false});
}

/**
 * 16 instructions at 0x1000, MaxLength: addi, a taken forward bne
 * to 0x1014, then addis up to 0x1048; falls through to 0x104c.
 */
Trace
straightTrace()
{
    auto steps = addis(1);
    steps.push_back({bneInst(3), true});
    for (const auto &step : addis(14))
        steps.push_back(step);
    return assemble(0x1000, steps);
}

/** addi, addi, return at 0x2000: a hard-terminated trace. */
Trace
returnTrace()
{
    auto steps = addis(2);
    steps.push_back({retInst(), false});
    return assemble(0x2000, steps);
}

/**
 * 15 instructions at 0x3000, Alignment: a taken backward bne in
 * slot 2 (to 0x2f0c) puts the target at 3 + 4 * 3.
 */
Trace
loopTrace()
{
    auto steps = addis(2);
    steps.push_back({bneInst(-64), true});
    for (const auto &step : addis(12))
        steps.push_back(step);
    return assemble(0x3000, steps);
}

TEST(TraceWellFormed, BaseTracesAreWellFormed)
{
    for (const Trace &t : {straightTrace(), returnTrace(), loopTrace()})
        EXPECT_FALSE(check::traceWellFormed(t).has_value());
    EXPECT_EQ(straightTrace().endReason, TraceEndReason::MaxLength);
    EXPECT_EQ(straightTrace().fallThrough, 0x104cu);
    EXPECT_EQ(returnTrace().endReason, TraceEndReason::Return);
    EXPECT_EQ(loopTrace().endReason, TraceEndReason::Alignment);
    EXPECT_EQ(loopTrace().len(), 15u);
}

TEST(TraceWellFormed, EachRejectionClassKeepsItsMessage)
{
    // "More than 16 embedded branches" has no row: the 17th branch
    // needs a 17th slot, which a trace body cannot hold.
    static_assert(TraceBody::capacity() <= 16);

    struct Mutant
    {
        const char *rejects;
        Trace (*base)();
        std::function<void(Trace &)> mutate;
        /** The expected diagnostic text; empty when accepted. */
        std::string want;
        SelectionPolicy policy = {};
        bool partial = false;
    };
    SelectionPolicy cap8;
    cap8.maxLen = 8;
    const std::vector<Mutant> mutants = {
        {"invalid id", straightTrace,
         [](Trace &t) { t.id.startPc = invalidAddr; },
         "trace-well-formed: invalid TraceId"},
        {"empty", straightTrace, [](Trace &t) { t.insts.clear(); },
         "trace-well-formed: empty trace @0x1000"},
        {"over-length", straightTrace, [](Trace &) {},
         "trace-well-formed: length 16 exceeds policy cap 8", cap8},
        {"startPc mismatch", straightTrace,
         [](Trace &t) { t.id.startPc = 0x2000; },
         "trace-well-formed: id.startPc 0x2000 != first inst pc "
         "0x1000"},
        {"numBranches drift", straightTrace,
         [](Trace &t) { ++t.id.numBranches; },
         "trace-well-formed: id.numBranches 2 but trace embeds 1 "
         "conditional branches"},
        {"branchFlags drift", straightTrace,
         [](Trace &t) { t.id.branchFlags = 0; },
         "trace-well-formed: id.branchFlags 0x0 disagree with "
         "embedded outcomes 0x1"},
        {"mid-trace hard terminator", straightTrace,
         [](Trace &t) { t.insts[3].inst = retInst(); },
         "trace-well-formed: jalr  r0, 0(r31) terminates mid-trace "
         "at slot 3"},
        {"path break", straightTrace,
         [](Trace &t) { t.insts[2].pc += 4; },
         "trace-well-formed: path break after slot 1 (0x1004 -> "
         "expected 0x1014, embedded 0x1018)"},
        {"srcPos", straightTrace,
         [](Trace &t) { t.insts[2].srcPos = 7; },
         "trace-well-formed: srcPos 7 at slot 2 of an unpreprocessed "
         "trace"},
        {"endReason Return", straightTrace,
         [](Trace &t) { t.endReason = TraceEndReason::Return; },
         "trace-well-formed: endReason Return but last inst is "
         "addi  r1, r1, 1"},
        {"endReason IndirectJump", straightTrace,
         [](Trace &t) { t.endReason = TraceEndReason::IndirectJump; },
         "trace-well-formed: endReason IndirectJump but last inst is "
         "addi  r1, r1, 1"},
        {"endReason IndirectJump on a return", returnTrace,
         [](Trace &t) { t.endReason = TraceEndReason::IndirectJump; },
         "trace-well-formed: endReason IndirectJump but last inst is "
         "jalr  r0, 0(r31)"},
        {"endReason Halt", straightTrace,
         [](Trace &t) { t.endReason = TraceEndReason::Halt; },
         "trace-well-formed: endReason Halt but last inst is "
         "addi  r1, r1, 1"},
        {"endReason MaxLength on a hard terminator", returnTrace,
         [](Trace &t) { t.endReason = TraceEndReason::MaxLength; },
         "trace-well-formed: length-based endReason but last inst "
         "jalr  r0, 0(r31) is a hard terminator"},
        {"endReason Alignment on a hard terminator", returnTrace,
         [](Trace &t) { t.endReason = TraceEndReason::Alignment; },
         "trace-well-formed: length-based endReason but last inst "
         "jalr  r0, 0(r31) is a hard terminator"},
        {"fallThrough on a hard-terminated trace", returnTrace,
         [](Trace &t) { t.fallThrough = 0x2000; },
         "trace-well-formed: fallThrough 0x2000 set on a "
         "hard-terminated trace"},
        {"wrong fallThrough", straightTrace,
         [](Trace &t) { t.fallThrough += 4; },
         "trace-well-formed: fallThrough 0x1050 != successor 0x104c "
         "of the last instruction"},
        {"rule-2/3 length", straightTrace,
         [](Trace &t) {
             t.insts.pop_back();
             t.fallThrough -= 4;
         },
         "trace-well-formed: length 15 violates the selection rules "
         "(target 16, lastBackward -1, granule 4)"},
        {"rule-2/3 length after a backward branch", loopTrace,
         [](Trace &t) {
             t.insts.pop_back();
             t.fallThrough -= 4;
         },
         "trace-well-formed: length 14 violates the selection rules "
         "(target 15, lastBackward 2, granule 4)"},
        {"rule-2/3 endReason", straightTrace,
         [](Trace &t) { t.endReason = TraceEndReason::Alignment; },
         "trace-well-formed: endReason 1 but the selection rules "
         "demand 0"},
        {"rule-2/3 endReason after a backward branch", loopTrace,
         [](Trace &t) { t.endReason = TraceEndReason::MaxLength; },
         "trace-well-formed: endReason 0 but the selection rules "
         "demand 1"},
        {"partial trace may stop short", straightTrace,
         [](Trace &t) {
             t.insts.pop_back();
             t.fallThrough -= 4;
         },
         "", {}, true},
        {"preprocessed trace skips contiguity", straightTrace,
         [](Trace &t) {
             t.preprocessed = true;
             t.insts[2].pc += 4;
             t.insts[3].srcPos = 9;
             t.insts[5].inst = retInst();
             t.fallThrough = 0;
             t.endReason = TraceEndReason::Halt;
         },
         ""},
        {"preprocessed trace keeps identity checks", straightTrace,
         [](Trace &t) {
             t.preprocessed = true;
             ++t.id.numBranches;
         },
         "trace-well-formed: id.numBranches 2 but trace embeds 1 "
         "conditional branches"},
    };
    for (const Mutant &m : mutants) {
        SCOPED_TRACE(m.rejects);
        Trace t = m.base();
        m.mutate(t);
        const Violation v =
            check::traceWellFormed(t, m.policy, m.partial);
        if (m.want.empty()) {
            EXPECT_FALSE(v.has_value()) << *v;
        } else {
            ASSERT_TRUE(v.has_value());
            EXPECT_EQ(*v, m.want);
        }
    }
}

TEST(TracesMatch, EachRejectionClassKeepsItsMessage)
{
    struct Mutant
    {
        const char *rejects;
        std::function<void(Trace &)> mutate;
        std::string want;
    };
    const std::vector<Mutant> mutants = {
        {"identity", [](Trace &t) { t.id.branchFlags = 0; },
         "served-trace: identity mismatch (@0x1000 flags 0x1/1 vs "
         "@0x1000 flags 0x0/1)"},
        {"length",
         [](Trace &t) {
             t.insts.pop_back();
         },
         "served-trace: @0x1000 length 15 served for demanded "
         "length 16"},
        {"slot",
         [](Trace &t) { t.insts[4].inst.imm = 2; },
         "served-trace: @0x1000 slot 4 demanded 'addi  r1, r1, 1' "
         "(pc 0x101c, taken 0) but served 'addi  r1, r1, 2' (pc "
         "0x101c, taken 0)"},
        {"fallThrough", [](Trace &t) { t.fallThrough = 0x2000; },
         "served-trace: @0x1000 fallThrough 0x2000 served, 0x104c "
         "demanded"},
        {"preprocessed served trace skips content",
         [](Trace &t) {
             t.preprocessed = true;
             t.insts.pop_back();
             t.insts[0].taken = true;
         },
         ""},
    };
    const Trace demanded = straightTrace();
    EXPECT_FALSE(check::tracesMatch(demanded, demanded).has_value());
    for (const Mutant &m : mutants) {
        SCOPED_TRACE(m.rejects);
        Trace served = demanded;
        m.mutate(served);
        const Violation v = check::tracesMatch(demanded, served);
        if (m.want.empty()) {
            EXPECT_FALSE(v.has_value()) << *v;
        } else {
            ASSERT_TRUE(v.has_value());
            EXPECT_EQ(*v, m.want);
        }
    }
}


TEST(StreamBalance, DetectsUnmatchedReturn)
{
    DynInst call, ret;
    call.inst = callInst();
    ret.inst = retInst();

    EXPECT_FALSE(
        check::streamCallRetBalanced({call, ret}, true).has_value());

    const Violation v = check::streamCallRetBalanced({ret}, false);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(failureCategory(*v), "call-ret-balance");

    const Violation unbalanced =
        check::streamCallRetBalanced({call}, true);
    ASSERT_TRUE(unbalanced.has_value());
    EXPECT_EQ(failureCategory(*unbalanced), "call-ret-balance");
}

TEST(StatsConserved, DetectsFastSimLeak)
{
    FastSimStats s;
    s.traces = 10;
    s.tcHits = 5;
    s.pbHits = 1;
    s.tcMisses = 4;
    EXPECT_FALSE(check::statsConserved(s).has_value());

    s.tcMisses = 3; // one fetched trace unaccounted for
    const Violation v = check::statsConserved(s);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(failureCategory(*v), "stats");
}

TEST(StatsConserved, ProcessorAllowsOneInFlightLookup)
{
    ProcessorStats s;
    s.traces = 10;
    s.tcHits = 7;
    s.tcMisses = 3;
    EXPECT_FALSE(check::statsConserved(s).has_value());
    s.tcMisses = 4; // the chained lookup of an undispatched trace
    EXPECT_FALSE(check::statsConserved(s).has_value());
    s.tcMisses = 5;
    EXPECT_TRUE(check::statsConserved(s).has_value());
}

TEST(FastStatsEqual, FlagsServedCountMovedBetweenKinds)
{
    // Same hits, same per-cell instruction total: only the kind
    // split differs, and replay equality must still see it.
    FastSimStats live;
    AttribCell &cell =
        live.attrib.of(TraceOrigin::FillUnit, LoopClass::LoopBody);
    cell.hits = 2;
    cell.instServed[std::size_t(InstKind::Alu)] = 3;
    cell.instServed[std::size_t(InstKind::LoadStore)] = 1;
    FastSimStats replayed = live;
    EXPECT_FALSE(check::fastStatsEqual(live, replayed).has_value());

    AttribCell &moved = replayed.attrib.of(TraceOrigin::FillUnit,
                                           LoopClass::LoopBody);
    --moved.instServed[std::size_t(InstKind::Alu)];
    ++moved.instServed[std::size_t(InstKind::LoadStore)];
    const Violation v = check::fastStatsEqual(live, replayed);
    ASSERT_TRUE(v.has_value());
    EXPECT_NE(v->find("attrib.fill.loop_body.instServed.load_store"),
              std::string::npos)
        << *v;
}

TEST(FastStatsEqual, FlagsEvictionMovedBetweenReasons)
{
    FastSimStats live;
    live.attrib.of(TraceOrigin::Precon, LoopClass::CallChain)
        .evictCapacity = 1;
    FastSimStats replayed = live;
    AttribCell &moved = replayed.attrib.of(TraceOrigin::Precon,
                                           LoopClass::CallChain);
    moved.evictCapacity = 0;
    moved.evictClear = 1;
    const Violation v = check::fastStatsEqual(live, replayed);
    ASSERT_TRUE(v.has_value());
    EXPECT_NE(v->find("attrib.precon.call_chain.evictCapacity"),
              std::string::npos)
        << *v;
}

// ---------------------------------------------------------------
// The counting contract: every equality ledgerReconciles{Fast,
// Timing} keeps between a component's own count and the stats
// fires when one side of a real run moves by one.
// ---------------------------------------------------------------

class CountReconcile : public testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        WorkloadGenerator gen(specint95Profile("gcc"));
        workload_ =
            std::make_unique<GeneratedWorkload>(gen.generate());

        FastSimConfig fcfg;
        fcfg.traceCacheEntries = 128;
        fcfg.preconEnabled = true;
        fcfg.precon.bufferEntries = 128;
        fast_ = std::make_unique<FastSim>(workload_->program, fcfg);
        fast_->run(kInsts);

        ProcessorConfig pcfg;
        pcfg.traceCacheEntries = 128;
        pcfg.preconEnabled = true;
        pcfg.precon.bufferEntries = 128;
        timing_ =
            std::make_unique<TraceProcessor>(workload_->program, pcfg);
        timing_->run(kInsts);
    }

    static void
    TearDownTestSuite()
    {
        // The simulators hold references into the workload.
        timing_.reset();
        fast_.reset();
        workload_.reset();
    }

    static Violation
    checkFast(const FastSimStats &stats, const FillUnit::Stats &fill)
    {
        return check::ledgerReconcilesFast(stats, fast_->traceCache(),
                                           fill);
    }

    static Violation
    checkTiming(const ProcessorStats &stats,
                const NextTracePredictor::Stats &ntp)
    {
        return check::ledgerReconcilesTiming(
            stats, timing_->traceCache(), ntp);
    }

    /** @p v must be the count equality @p what. */
    static void
    expectFires(const Violation &v, const std::string &what)
    {
        ASSERT_TRUE(v.has_value()) << what;
        EXPECT_EQ(failureCategory(*v), "count-reconcile");
        EXPECT_EQ(v->rfind("count-reconcile: " + what + ": counted ", 0),
                  0u)
            << *v;
    }

    static constexpr InstCount kInsts = 100000;
    static inline std::unique_ptr<GeneratedWorkload> workload_;
    static inline std::unique_ptr<FastSim> fast_;
    static inline std::unique_ptr<TraceProcessor> timing_;
};

TEST_F(CountReconcile, RealRunsReconcile)
{
    EXPECT_GT(fast_->stats().pbHits, 0u);
    EXPECT_GT(timing_->stats().pbHits, 0u);
    const Violation fast =
        checkFast(fast_->stats(), fast_->fillUnit().stats());
    EXPECT_FALSE(fast.has_value()) << *fast;
    const Violation timing =
        checkTiming(timing_->stats(), timing_->ntp().stats());
    EXPECT_FALSE(timing.has_value()) << *timing;
}

TEST_F(CountReconcile, FastCacheProbesVsTraces)
{
    FastSimStats stats = fast_->stats();
    ++stats.traces;
    expectFires(checkFast(stats, fast_->fillUnit().stats()),
                "cache probes vs traces");
}

TEST_F(CountReconcile, FastBufferProbesVsMissesAndPbHits)
{
    FastSimStats stats = fast_->stats();
    --stats.precon.bufferProbes;
    expectFires(checkFast(stats, fast_->fillUnit().stats()),
                "buffer probes vs tcMisses + pbHits");
}

TEST_F(CountReconcile, FastEngineBufferHitsVsPbHits)
{
    FastSimStats stats = fast_->stats();
    ++stats.precon.bufferHits;
    expectFires(checkFast(stats, fast_->fillUnit().stats()),
                "engine bufferHits vs pbHits");
}

TEST_F(CountReconcile, FastFillInstsVsInstructions)
{
    FastSimStats stats = fast_->stats();
    --stats.instructions;
    expectFires(checkFast(stats, fast_->fillUnit().stats()),
                "fill insts vs instructions");
}

TEST_F(CountReconcile, FastFillTracesAndFlushesVsTraces)
{
    FillUnit::Stats fill = fast_->fillUnit().stats();
    ++fill.flushes;
    expectFires(checkFast(fast_->stats(), fill),
                "fill traces + flushes vs traces");
}

TEST_F(CountReconcile, TimingCacheProbesCountPromotionsTwice)
{
    ProcessorStats stats = timing_->stats();
    ++stats.tcHits;
    expectFires(checkTiming(stats, timing_->ntp().stats()),
                "cache probes vs tcHits + tcMisses + 2*pbHits");
}

TEST_F(CountReconcile, TimingBufferProbesVsMissesAndPbHits)
{
    ProcessorStats stats = timing_->stats();
    ++stats.precon.bufferProbes;
    expectFires(checkTiming(stats, timing_->ntp().stats()),
                "buffer probes vs tcMisses + pbHits");
}

TEST_F(CountReconcile, TimingEngineBufferHitsVsPbHits)
{
    ProcessorStats stats = timing_->stats();
    --stats.precon.bufferHits;
    expectFires(checkTiming(stats, timing_->ntp().stats()),
                "engine bufferHits vs pbHits");
}

TEST_F(CountReconcile, TimingNtpUpdatesVsTraces)
{
    ProcessorStats stats = timing_->stats();
    ++stats.traces;
    expectFires(checkTiming(stats, timing_->ntp().stats()),
                "ntp updates vs traces");
}

TEST_F(CountReconcile, TimingNtpPredictionsVsOutcomes)
{
    NextTracePredictor::Stats ntp = timing_->ntp().stats();
    --ntp.predictions;
    expectFires(checkTiming(timing_->stats(), ntp),
                "ntp predictions vs ntpCorrect + ntpWrong + ntpNone");
}

TEST(RasWellFormed, DefaultStackIsSane)
{
    ReturnAddressStack ras;
    EXPECT_FALSE(check::rasWellFormed(ras).has_value());
    ras.push(0x1000);
    EXPECT_FALSE(check::rasWellFormed(ras).has_value());
}

// ---------------------------------------------------------------
// The reference interpreter.
// ---------------------------------------------------------------

TEST(ReferenceRun, AgreesWithFunctionalCore)
{
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();

    const check::RefRun ref =
        check::referenceRun(wl.program, {}, 20000);
    EXPECT_FALSE(ref.leftImage);
    ASSERT_GE(ref.stream.size(), 20000u);

    FunctionalCore core(wl.program);
    for (const DynInst &dyn : ref.stream) {
        ASSERT_FALSE(core.halted());
        const DynInst &want = core.step();
        ASSERT_EQ(dyn.pc, want.pc);
        ASSERT_EQ(dyn.inst, want.inst);
        ASSERT_EQ(dyn.nextPc, want.nextPc);
        ASSERT_EQ(dyn.taken, want.taken);
        ASSERT_EQ(dyn.effAddr, want.effAddr);
    }
    for (const Trace &t : ref.traces) {
        const Violation v = check::traceWellFormed(t);
        EXPECT_FALSE(v.has_value()) << *v;
    }
}

TEST(ReferenceRun, ReportsImageEscape)
{
    // A program without a halt runs off the end of the image; the
    // reference interpreter must stop and report, not fault.
    ProgramBuilder b(0x1000);
    for (int i = 0; i < 8; ++i)
        b.addi(1, 1, 1);
    const Program program = b.build();
    const check::RefRun ref =
        check::referenceRun(program, {}, 1000);
    EXPECT_TRUE(ref.leftImage);
    EXPECT_FALSE(ref.halted);
    EXPECT_EQ(ref.stream.size(), 8u);
}

// ---------------------------------------------------------------
// The differential oracle on real workloads.
// ---------------------------------------------------------------

TEST(DiffModels, CleanOnRealWorkloads)
{
    for (const char *name : {"compress", "li"}) {
        WorkloadGenerator gen(specint95Profile(name));
        auto wl = gen.generate();
        check::DiffConfig cfg;
        cfg.maxInsts = 8000;
        cfg.preconEnabled = true;
        cfg.prepEnabled = true;
        const check::DiffResult r =
            check::diffModels(wl.program, cfg);
        EXPECT_TRUE(r.ok()) << name << ": " << *r.failure;
        EXPECT_GE(r.instructions, 8000u);
        EXPECT_GT(r.traces, 0u);
    }
}

TEST(DiffModels, RejectsImageEscapingProgram)
{
    ProgramBuilder b(0x1000);
    b.addi(1, 1, 1);
    const Program program = b.build();
    check::DiffConfig cfg;
    cfg.maxInsts = 100;
    const check::DiffResult r = check::diffModels(program, cfg);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(failureCategory(*r.failure), "invalid-program");
}

// ---------------------------------------------------------------
// Fuzzing: bounded campaign and the shrinker.
// ---------------------------------------------------------------

TEST(Fuzz, CasesAreDeterministic)
{
    const check::FuzzCase a = check::makeFuzzCase(42, 2000);
    const check::FuzzCase b = check::makeFuzzCase(42, 2000);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.base, b.base);
    EXPECT_EQ(a.entry, b.entry);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.description, b.description);
}

TEST(Fuzz, BoundedCampaignIsClean)
{
    check::FuzzOptions opts;
    opts.baseSeed = 1;
    opts.seeds = 10;
    opts.maxInsts = 3000;
    const check::FuzzReport report = check::runFuzz(opts);
    EXPECT_EQ(report.casesRun, 10u);
    EXPECT_GT(report.instructionsExecuted, 0u);
    EXPECT_GT(report.tracesChecked, 0u);
    for (const check::FuzzFailure &f : report.failures)
        ADD_FAILURE() << "seed " << f.shrunk.seed << " ["
                      << f.shrunk.description
                      << "]: " << f.failure;
}

TEST(Fuzz, ShrinkerReducesWhilePreservingCategory)
{
    // A halting-free program fails with "invalid-program"; the
    // shrinker should nop out nearly everything while that category
    // keeps reproducing (an all-nop program still walks off the
    // image), never crossing into a different failure kind.
    ProgramBuilder b(0x1000);
    for (int i = 0; i < 48; ++i)
        b.addi(RegIndex(1 + i % 8), 1, i);
    const Program program = b.build();

    check::FuzzCase failing;
    failing.seed = 7;
    failing.kind = check::CaseKind::RandomProgram;
    failing.base = program.base();
    failing.entry = program.entry();
    for (Addr pc = program.base(); pc < program.end();
         pc += instBytes)
        failing.code.push_back(program.wordAt(pc));
    failing.diff.maxInsts = 1000;
    failing.diff.runProcessor = false;

    const check::DiffResult orig =
        check::diffModels(failing.program(), failing.diff);
    ASSERT_FALSE(orig.ok());
    ASSERT_EQ(failureCategory(*orig.failure), "invalid-program");

    const std::string shrunkFailure =
        check::shrinkCase(failing, *orig.failure);
    EXPECT_EQ(failureCategory(shrunkFailure), "invalid-program");

    // The shrunk image must still fail the same way...
    const check::DiffResult after =
        check::diffModels(failing.program(), failing.diff);
    ASSERT_FALSE(after.ok());
    EXPECT_EQ(failureCategory(*after.failure), "invalid-program");

    // ... and the distinctive addi payload must be gone (nopped).
    ProgramBuilder nb(0);
    nb.nop();
    const InstWord nop = nb.build().wordAt(0);
    std::size_t live = 0;
    for (const InstWord w : failing.code)
        live += w != nop;
    EXPECT_EQ(live, 0u);
}

} // namespace
} // namespace tpre
