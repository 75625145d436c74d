/**
 * @file
 * Tests for the timing models: the TimingBackend's dependence and
 * resource behaviour, the fast frontend simulator, and the full
 * TraceProcessor.
 */

#include <gtest/gtest.h>

#include "check/stats_check.hh"
#include "isa/builder.hh"
#include "tproc/backend.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

Instruction
makeInst(Opcode op, RegIndex rd, RegIndex rs1, RegIndex rs2,
         std::int32_t imm = 0)
{
    Instruction inst;
    inst.op = op;
    inst.rd = rd;
    inst.rs1 = rs1;
    inst.rs2 = rs2;
    inst.imm = imm;
    return inst;
}

/** Build a trace plus matching dynamic records. */
std::pair<Trace, std::vector<DynInst>>
traceAndDyn(const std::vector<Instruction> &insts)
{
    Trace t;
    t.id.startPc = 0x1000;
    std::vector<DynInst> dyn;
    Addr pc = 0x1000;
    std::uint8_t pos = 0;
    for (const Instruction &inst : insts) {
        t.insts.push_back({pc, inst, false, pos++});
        DynInst d;
        d.pc = pc;
        d.inst = inst;
        d.nextPc = pc + 4;
        d.effAddr = 0x100000 + pos * 8;
        dyn.push_back(d);
        pc += 4;
    }
    t.fallThrough = pc;
    return {t, dyn};
}

Cycle
runUntilRetired(TimingBackend &be, Cycle start = 0)
{
    Cycle now = start;
    while (!be.empty()) {
        ++now;
        be.tick(now);
        while (!be.empty()) {
            Cycle done = be.headCompletionTime();
            if (done == TimingBackend::noCompletion || done > now)
                break;
            be.retireHead();
        }
        if (now > start + 100000)
            ADD_FAILURE() << "backend did not drain";
    }
    return now;
}

TEST(BackendTest, IndependentOpsRunAtIssueWidth)
{
    TimingBackend be;
    std::vector<Instruction> insts;
    for (int i = 0; i < 8; ++i)
        insts.push_back(
            makeInst(Opcode::Addi, RegIndex(1 + i), 0, 0, 1));
    auto [t, dyn] = traceAndDyn(insts);
    be.dispatch(t, dyn, 0);
    Cycle end = runUntilRetired(be);
    // 8 independent 1-cycle ops at 2/cycle: ~4 cycles + epsilon.
    EXPECT_LE(end, 6u);
    EXPECT_EQ(be.stats().instsIssued, 8u);
}

TEST(BackendTest, DependentChainSerializes)
{
    TimingBackend be;
    std::vector<Instruction> insts;
    for (int i = 0; i < 8; ++i)
        insts.push_back(makeInst(Opcode::Addi, 1, 1, 0, 1));
    auto [t, dyn] = traceAndDyn(insts);
    be.dispatch(t, dyn, 0);
    Cycle end = runUntilRetired(be);
    EXPECT_GE(end, 8u); // one per cycle at best
}

TEST(BackendTest, MulLatencyObserved)
{
    BackendConfig cfg;
    cfg.mulLatency = 5;
    TimingBackend be(cfg);
    auto [t, dyn] = traceAndDyn({
        makeInst(Opcode::Mul, 1, 2, 3),
        makeInst(Opcode::Addi, 4, 1, 0, 1), // depends on the mul
    });
    be.dispatch(t, dyn, 0);
    Cycle end = runUntilRetired(be);
    EXPECT_GE(end, 1u + 5 + 1);
}

TEST(BackendTest, CrossPeCommunicationCostsExtra)
{
    // Producer in PE0, consumer trace in PE1: the consumer sees
    // crossPeLatency extra cycles.
    TimingBackend be;
    auto [t1, d1] = traceAndDyn({makeInst(Opcode::Mul, 1, 2, 3)});
    auto [t2, d2] = traceAndDyn({makeInst(Opcode::Addi, 4, 1, 0, 1)});
    be.dispatch(t1, d1, 0);
    be.dispatch(t2, d2, 0);
    be.tick(1);
    be.tick(2);
    // mul completes at 1 + 5 = 6; cross-PE adds 2 -> issue at 8,
    // complete at 9.
    Cycle now = 2;
    while (be.completionOf(2, 0) == TimingBackend::noCompletion)
        be.tick(++now);
    EXPECT_EQ(be.completionOf(2, 0), 9u);
}

TEST(BackendTest, DcacheMissLatency)
{
    BackendConfig cfg;
    cfg.dcacheHitLatency = 2;
    cfg.dcacheMissLatency = 10;
    TimingBackend be(cfg);
    auto [t, dyn] = traceAndDyn({
        makeInst(Opcode::Ld, 1, 2, 0, 0),   // cold: miss
        makeInst(Opcode::Addi, 3, 1, 0, 1), // dependent
    });
    be.dispatch(t, dyn, 0);
    runUntilRetired(be);
    EXPECT_EQ(be.stats().dcacheMisses, 1u);
    // Load issues at 1, completes at 11; dependent at 12.
    EXPECT_EQ(be.completionOf(1, 1), 12u);
}

TEST(BackendTest, DcachePortsLimitMemOpsPerCycle)
{
    BackendConfig cfg;
    cfg.dcachePorts = 4;
    cfg.dcachePortsPerPe = 2;
    cfg.inOrderPe = false;
    TimingBackend be(cfg);
    std::vector<Instruction> loads;
    for (int i = 0; i < 4; ++i)
        loads.push_back(
            makeInst(Opcode::Ld, RegIndex(1 + i), 20, 0, i * 8));
    auto [t, dyn] = traceAndDyn(loads);
    be.dispatch(t, dyn, 0);
    be.tick(1);
    // Only 2 loads issue in cycle 1 (per-PE port limit).
    unsigned issued_now = 0;
    for (unsigned i = 0; i < 4; ++i)
        issued_now +=
            be.completionOf(1, i) != TimingBackend::noCompletion;
    EXPECT_EQ(issued_now, 2u);
}

TEST(BackendTest, RetireInProgramOrder)
{
    TimingBackend be;
    auto [t1, d1] = traceAndDyn({makeInst(Opcode::Div, 1, 2, 3)});
    auto [t2, d2] = traceAndDyn({makeInst(Opcode::Addi, 4, 0, 0, 1)});
    std::uint64_t h1 = be.dispatch(t1, d1, 0);
    be.dispatch(t2, d2, 0);
    // Head (slow div) is not done even when trace 2 finished.
    for (Cycle c = 1; c < 5; ++c)
        be.tick(c);
    EXPECT_EQ(be.headHandle(), h1);
    EXPECT_EQ(be.headCompletionTime(), 1u + 20);
    runUntilRetired(be, 5);
}

TEST(BackendTest, PeCapacity)
{
    TimingBackend be;
    auto [t, d] = traceAndDyn({makeInst(Opcode::Div, 1, 2, 3)});
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(be.hasFreePe());
        be.dispatch(t, d, 0);
    }
    EXPECT_FALSE(be.hasFreePe());
    // Retiring the head frees exactly one PE.
    Cycle now = 0;
    while (be.headCompletionTime() == TimingBackend::noCompletion)
        be.tick(++now);
    be.retireHead();
    EXPECT_TRUE(be.hasFreePe());
    be.dispatch(t, d, now);
    EXPECT_FALSE(be.hasFreePe());
}

TEST(BackendTest, InOrderPeStallsAtNotReady)
{
    BackendConfig cfg;
    cfg.inOrderPe = true;
    TimingBackend be(cfg);
    auto [t, dyn] = traceAndDyn({
        makeInst(Opcode::Mul, 1, 2, 3),     // 5 cycles
        makeInst(Opcode::Addi, 4, 1, 0, 1), // dependent
        makeInst(Opcode::Addi, 5, 0, 0, 1), // independent
    });
    be.dispatch(t, dyn, 0);
    be.tick(1);
    be.tick(2);
    // In-order: the independent op must NOT have issued yet.
    EXPECT_EQ(be.completionOf(1, 2), TimingBackend::noCompletion);

    BackendConfig ooo = cfg;
    ooo.inOrderPe = false;
    TimingBackend be2(ooo);
    be2.dispatch(t, dyn, 0);
    be2.tick(1);
    EXPECT_NE(be2.completionOf(1, 2), TimingBackend::noCompletion);
}

TEST(BackendTest, HandleRingWrapsAndForgetsOldTraces)
{
    // Three laps of the handle ring, one trace at a time, each
    // reading the register the previous trace wrote.
    TimingBackend be;
    auto [t, d] = traceAndDyn({makeInst(Opcode::Addi, 1, 1, 0, 1)});
    const unsigned n =
        3 * (be.config().numPes + TimingBackend::kRetainedTraces);
    std::vector<std::uint64_t> handles;
    std::vector<Cycle> done;
    Cycle now = 0;
    for (unsigned k = 0; k < n; ++k) {
        handles.push_back(be.dispatch(t, d, now));
        EXPECT_EQ(handles.back(), k + 1u);
        Cycle c;
        while ((c = be.headCompletionTime()) ==
                   TimingBackend::noCompletion ||
               c > now)
            be.tick(++now);
        if (!done.empty()) {
            EXPECT_GT(c, done.back());
        }
        done.push_back(c);
        be.retireHead();
        // Just retired: the real completion cycle.
        EXPECT_EQ(be.completionOf(handles.back(), 0), c);
    }
    EXPECT_TRUE(be.empty());
    const unsigned kept = TimingBackend::kRetainedTraces;
    EXPECT_EQ(be.completionOf(handles[n - kept], 0), done[n - kept]);
    // Retired more than kRetainedTraces traces ago: long retired.
    EXPECT_EQ(be.completionOf(handles[n - kept - 1], 0), 0u);
    EXPECT_EQ(be.completionOf(handles[0], 0), 0u);
}

TEST(BackendTest, PeReusedAfterRetirement)
{
    // A slow div holds PE0 while three quick traces fill PE1-3.
    TimingBackend be;
    auto [slow, ds] = traceAndDyn({makeInst(Opcode::Div, 1, 2, 3)});
    auto [fast, df] = traceAndDyn({makeInst(Opcode::Addi, 5, 0, 0, 1)});
    const std::uint64_t h_div = be.dispatch(slow, ds, 0);
    for (int i = 0; i < 3; ++i)
        be.dispatch(fast, df, 0);
    Cycle now = 0;
    while (be.headCompletionTime() == TimingBackend::noCompletion ||
           be.headCompletionTime() > now)
        be.tick(++now);
    EXPECT_EQ(now, 1u + 20);
    EXPECT_EQ(be.headHandle(), h_div);
    be.retireHead();
    ASSERT_TRUE(be.hasFreePe());

    // The consumer lands on the freed PE0, next to its producer, so
    // it pays no cross-PE latency: ready at 21, issues at 22.
    auto [use, du] = traceAndDyn({makeInst(Opcode::Addi, 4, 1, 0, 1)});
    const std::uint64_t h_use = be.dispatch(use, du, now);
    EXPECT_FALSE(be.hasFreePe());
    be.tick(++now);
    EXPECT_EQ(be.completionOf(h_use, 0), 23u);
    EXPECT_EQ(be.stats().busTransfers, 0u);
}

TEST(BackendTest, OutOfOrderPeWakesCrossPeConsumer)
{
    BackendConfig cfg;
    cfg.inOrderPe = false;
    cfg.crossPeLatency = 3;
    TimingBackend be(cfg);
    auto [ta, da] = traceAndDyn({
        makeInst(Opcode::Mul, 1, 2, 3),     // 5 cycles
        makeInst(Opcode::Addi, 4, 1, 0, 1), // stalls on the mul
        makeInst(Opcode::Addi, 5, 0, 0, 1), // issues past the stall
        makeInst(Opcode::Addi, 7, 1, 0, 1), // waits on the mul too
    });
    auto [tb, db] = traceAndDyn({makeInst(Opcode::Addi, 6, 5, 0, 1)});
    const std::uint64_t ha = be.dispatch(ta, da, 0);
    const std::uint64_t hb = be.dispatch(tb, db, 0);

    be.tick(1);
    EXPECT_EQ(be.completionOf(ha, 0), 1u + 5);
    EXPECT_EQ(be.completionOf(ha, 1), TimingBackend::noCompletion);
    const Cycle produced = be.completionOf(ha, 2);
    EXPECT_EQ(produced, 2u);

    // The consumer in PE1 wakes exactly crossPeLatency cycles after
    // its producer completes.
    const Cycle wake = produced + cfg.crossPeLatency;
    Cycle now = 1;
    while (now + 1 < wake) {
        be.tick(++now);
        EXPECT_EQ(be.completionOf(hb, 0), TimingBackend::noCompletion);
    }
    be.tick(++now);
    EXPECT_EQ(be.completionOf(hb, 0), wake + 1);
    EXPECT_EQ(be.stats().busTransfers, 1u);
    runUntilRetired(be, now);
    // Both mul consumers issue together, past the issued slot 2.
    EXPECT_EQ(be.completionOf(ha, 1), 1u + 5 + 1);
    EXPECT_EQ(be.completionOf(ha, 3), 1u + 5 + 1);
}

TEST(BackendTest, ConsumerOutlivingItsProducerSeesItLongRetired)
{
    // A consumer still waiting when its producer leaves the handle
    // window reads the value as available since cycle 0 (plus the
    // bus crossing), exactly like a consumer dispatched afterwards.
    BackendConfig cfg;
    cfg.crossPeLatency = 100;
    TimingBackend be(cfg);
    auto [tp, dp] = traceAndDyn({makeInst(Opcode::Addi, 1, 0, 0, 1)});
    auto [tf, df] = traceAndDyn({makeInst(Opcode::Addi, 9, 0, 0, 1)});
    auto [tc, dc] = traceAndDyn({makeInst(Opcode::Addi, 4, 1, 0, 1)});
    Cycle now = 0;
    auto retireWhenDone = [&] {
        while (be.headCompletionTime() == TimingBackend::noCompletion ||
               be.headCompletionTime() > now)
            be.tick(++now);
        be.retireHead();
    };
    const std::uint64_t hp = be.dispatch(tp, dp, now); // PE0
    retireWhenDone();
    EXPECT_EQ(be.completionOf(hp, 0), 2u);
    // kRetainedTraces - 1 more retirements keep the producer in
    // the window; the last filler stays in flight on PE0.
    for (unsigned k = 1; k < TimingBackend::kRetainedTraces; ++k) {
        be.dispatch(tf, df, now);
        retireWhenDone();
    }
    be.dispatch(tf, df, now);
    const std::uint64_t hc = be.dispatch(tc, dc, now); // PE1: cross
    EXPECT_EQ(be.completionOf(hp, 0), 2u);
    retireWhenDone(); // the producer ages out here
    EXPECT_EQ(be.completionOf(hp, 0), 0u);
    ASSERT_LT(now, 50u);
    while (be.completionOf(hc, 0) == TimingBackend::noCompletion)
        be.tick(++now);
    // Available from 0 + 100, not from 2 + 100.
    EXPECT_EQ(be.completionOf(hc, 0), 100u + 1);
}

// ---------------------------------------------------------------
// FastSim.
// ---------------------------------------------------------------

TEST(FastSimTest, DeterministicAcrossRuns)
{
    WorkloadGenerator gen(specint95Profile("li"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.preconEnabled = true;
    cfg.precon.bufferEntries = 64;

    FastSim a(wl.program, cfg);
    FastSim b(wl.program, cfg);
    const FastSimStats &sa = a.run(150000);
    const FastSimStats &sb = b.run(150000);
    EXPECT_EQ(sa.instructions, sb.instructions);
    EXPECT_EQ(sa.tcMisses, sb.tcMisses);
    EXPECT_EQ(sa.pbHits, sb.pbHits);
    EXPECT_EQ(sa.cycles, sb.cycles);
}

TEST(FastSimTest, RepeatedTraceHitsAfterFirstMiss)
{
    // A tight loop: the trace misses once and then always hits.
    ProgramBuilder b;
    b.li(1, 8000);
    auto loop = b.here();
    b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, loop);
    b.halt();
    Program p = b.build();

    FastSim sim(p);
    const FastSimStats &st = sim.run(100000);
    EXPECT_GT(st.traces, 500u);
    EXPECT_LE(st.tcMisses, 8u);
    EXPECT_GT(st.tcHits, st.tcMisses);
}

TEST(FastSimTest, MissesTrackWorkingSetGrowth)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    double prev = 1e9;
    // Misses per kilo-instruction decrease with trace cache size.
    for (std::size_t tc : {64, 256, 1024}) {
        FastSimConfig cfg;
        cfg.traceCacheEntries = tc;
        FastSim sim(wl.program, cfg);
        double mpk = sim.run(300000).missesPerKiloInst();
        EXPECT_LT(mpk, prev);
        prev = mpk;
    }
}

TEST(FastSimTest, ICacheStatsPopulated)
{
    WorkloadGenerator gen(specint95Profile("m88ksim"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.traceCacheEntries = 64;
    FastSim sim(wl.program, cfg);
    const FastSimStats &st = sim.run(200000);
    EXPECT_GT(st.slowPathInsts, 0u);
    EXPECT_GT(st.icache.demandAccesses, 0u);
    EXPECT_GT(st.icache.demandMisses, 0u);
    EXPECT_GE(st.slowPathInsts, st.slowPathInstsFromMisses);
}

TEST(FastSimTest, TraceWorkingSetTracked)
{
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.trackTraceWorkingSet = true;
    FastSim sim(wl.program, cfg);
    const FastSimStats &st = sim.run(100000);
    EXPECT_GT(st.traceWorkingSet, 10u);
    EXPECT_LT(st.traceWorkingSet, st.traces);
}

// ---------------------------------------------------------------
// Block dispatch (ROADMAP 2b): fast-forward vs the scalar loop.
// ---------------------------------------------------------------

TEST(FastSimBlockDispatchTest, StatsBitIdenticalToScalarLoop)
{
    WorkloadGenerator gen(specint95Profile("li"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.preconEnabled = true;
    cfg.precon.bufferEntries = 64;

    cfg.blockCache = false;
    FastSim scalar(wl.program, cfg);
    const FastSimStats scalarStats = scalar.run(150000);

    cfg.blockCache = true;
    FastSim block(wl.program, cfg);
    const FastSimStats &blockStats = block.run(150000);

    const auto v = check::fastStatsEqual(scalarStats, blockStats);
    EXPECT_FALSE(v.has_value()) << *v;
    // The fast path actually ran: blocks decoded once, then hit.
    EXPECT_GT(blockStats.blocks.decoded, 0u);
    EXPECT_GT(blockStats.blocks.hits, blockStats.blocks.decoded);
    EXPECT_EQ(scalarStats.blocks.decoded, 0u);
}

TEST(FastSimBlockDispatchTest, MidBlockBudgetSpillMatchesScalar)
{
    // A 40-instruction straight-line loop body: traces complete
    // every 16 instructions, so the budget stop lands mid-block
    // and the fast loop must spill back out exactly there.
    ProgramBuilder b;
    b.li(1, 1000);
    auto loop = b.here();
    for (int i = 0; i < 40; ++i)
        b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, loop);
    b.halt();
    Program p = b.build();

    for (InstCount budget : {100u, 1000u, 1001u}) {
        FastSimConfig cfg;
        cfg.blockCache = false;
        FastSim scalar(p, cfg);
        const FastSimStats scalarStats = scalar.run(budget);

        cfg.blockCache = true;
        FastSim block(p, cfg);
        const FastSimStats &blockStats = block.run(budget);

        EXPECT_EQ(scalarStats.instructions, blockStats.instructions)
            << "budget " << budget;
        const auto v =
            check::fastStatsEqual(scalarStats, blockStats);
        EXPECT_FALSE(v.has_value()) << *v;
    }
}

TEST(FastSimBlockDispatchTest, CommitHookForcesScalarLoop)
{
    // An armed onCommit hook needs full dynamic records, which bulk
    // retirement never materializes — the block cache must stand
    // down even when enabled.
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();
    FastSimConfig cfg;
    cfg.blockCache = true;
    InstCount committed = 0;
    cfg.hooks.onCommit = [&committed](const DynInst &) {
        ++committed;
    };
    FastSim sim(wl.program, cfg);
    const FastSimStats &st = sim.run(50000);
    EXPECT_EQ(st.blocks.decoded, 0u);
    EXPECT_EQ(st.blocks.hits, 0u);
    EXPECT_EQ(committed, st.instructions);
}

// ---------------------------------------------------------------
// TraceProcessor (timing mode).
// ---------------------------------------------------------------

TEST(ProcessorTest, RunsAndReportsSaneIpc)
{
    WorkloadGenerator gen(specint95Profile("compress"));
    auto wl = gen.generate();
    TraceProcessor proc(wl.program, {});
    const ProcessorStats &st = proc.run(150000);
    EXPECT_GE(st.instructions, 150000u);
    EXPECT_GT(st.ipc(), 0.3);
    EXPECT_LT(st.ipc(), 8.0);
    EXPECT_GT(st.ntpCorrect, 0u);
}

TEST(ProcessorTest, DeterministicAcrossRuns)
{
    WorkloadGenerator gen(specint95Profile("perl"));
    auto wl = gen.generate();
    ProcessorConfig cfg;
    cfg.preconEnabled = true;
    cfg.prepEnabled = true;
    TraceProcessor a(wl.program, cfg);
    TraceProcessor b(wl.program, cfg);
    EXPECT_EQ(a.run(120000).cycles, b.run(120000).cycles);
}

TEST(ProcessorTest, PreconReducesMissesAndHelpsIpc)
{
    WorkloadGenerator gen(specint95Profile("vortex"));
    auto wl = gen.generate();

    ProcessorConfig base;
    base.traceCacheEntries = 256;
    TraceProcessor pbase(wl.program, base);
    const ProcessorStats &sb = pbase.run(250000);

    ProcessorConfig pre = base;
    pre.traceCacheEntries = 128;
    pre.preconEnabled = true;
    pre.precon.bufferEntries = 128;
    TraceProcessor ppre(wl.program, pre);
    const ProcessorStats &sp = ppre.run(250000);

    EXPECT_GT(sp.pbHits, 0u);
    EXPECT_LT(sp.tcMisses, sb.tcMisses);
    EXPECT_GT(sp.ipc(), sb.ipc());
}

TEST(ProcessorTest, PreprocessingImprovesIpc)
{
    WorkloadGenerator gen(specint95Profile("perl"));
    auto wl = gen.generate();

    ProcessorConfig base;
    TraceProcessor pbase(wl.program, base);
    double ipc_base = pbase.run(250000).ipc();

    ProcessorConfig prep = base;
    prep.prepEnabled = true;
    TraceProcessor pprep(wl.program, prep);
    const ProcessorStats &sp = pprep.run(250000);

    EXPECT_GT(sp.prep.tracesProcessed, 0u);
    EXPECT_GT(sp.prep.opsFused, 0u);
    EXPECT_GT(sp.ipc(), ipc_base * 1.02);
}

TEST(ProcessorTest, CombinationIsSuperAdditive)
{
    WorkloadGenerator gen(specint95Profile("gcc"));
    auto wl = gen.generate();
    const InstCount n = 300000;

    auto ipc_of = [&](bool pre, bool prep) {
        ProcessorConfig cfg;
        cfg.traceCacheEntries = pre ? 128 : 256;
        cfg.preconEnabled = pre;
        cfg.precon.bufferEntries = 128;
        cfg.prepEnabled = prep;
        TraceProcessor proc(wl.program, cfg);
        return proc.run(n).ipc();
    };

    const double base = ipc_of(false, false);
    const double pre = ipc_of(true, false) / base - 1.0;
    const double prep = ipc_of(false, true) / base - 1.0;
    const double both = ipc_of(true, true) / base - 1.0;
    EXPECT_GT(pre, 0.0);
    EXPECT_GT(prep, 0.0);
    // The paper's Figure 8 result: combined > sum of parts.
    EXPECT_GT(both, pre + prep);
}

TEST(ProcessorTest, SlowPathStatsPopulated)
{
    WorkloadGenerator gen(specint95Profile("go"));
    auto wl = gen.generate();
    ProcessorConfig cfg;
    cfg.traceCacheEntries = 64;
    TraceProcessor proc(wl.program, cfg);
    const ProcessorStats &st = proc.run(150000);
    EXPECT_GT(st.slowPathInsts, 0u);
    EXPECT_GT(st.slowMispredicts, 0u);
    EXPECT_GT(st.icache.demandMisses, 0u);
    EXPECT_GT(st.backend.instsIssued, st.instructions / 2);
}

} // namespace
} // namespace tpre
