/**
 * @file
 * Tests for tpre::mem: the per-run arena (bump allocation, chunk
 * retention across reset, cap exhaustion, oversized requests), the
 * std-allocator bridge, the typed free-list pool (slot recycling,
 * double-release detection), the checkpoint byte codec, and the
 * FastSim checkpoint/fork contract — restore-then-run must equal an
 * uninterrupted run field by field for arbitrary (mid-block,
 * mid-trace) snapshot points over fuzz-shaped programs. Also holds
 * the Simulator workload-cache LRU regression test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "check/fuzz.hh"
#include "check/stats_check.hh"
#include "mem/arena.hh"
#include "mem/checkpoint.hh"
#include "sim/simulator.hh"
#include "tproc/fast_sim.hh"
#include "workload/generator.hh"

namespace tpre
{
namespace
{

// --- Arena ------------------------------------------------------

TEST(ArenaTest, BumpAllocationIsAlignedAndCounted)
{
    mem::Arena arena;
    void *a = arena.allocate(24, 8);
    void *b = arena.allocate(1, 1);
    void *c = arena.allocate(64, 64);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % 8, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c) % 64, 0u);
    EXPECT_EQ(arena.stats().allocCount, 3u);
    EXPECT_GE(arena.stats().allocBytes, 24u + 1u + 64u);
    EXPECT_EQ(arena.stats().chunkCount, 1u);
}

TEST(ArenaTest, ResetRetainsChunksForTheNextRun)
{
    mem::Arena arena(1024);
    // Force several chunk refills...
    for (int i = 0; i < 8; ++i)
        arena.allocate(512, 8);
    const std::uint64_t chunks = arena.stats().chunkCount;
    ASSERT_GE(chunks, 2u);
    const std::size_t reserved = arena.reservedBytes();

    // ... then the same workload after reset() must be served
    // entirely from retained chunks.
    arena.reset();
    for (int i = 0; i < 8; ++i)
        arena.allocate(512, 8);
    EXPECT_EQ(arena.stats().chunkCount, chunks);
    EXPECT_EQ(arena.reservedBytes(), reserved);
    EXPECT_EQ(arena.stats().resets, 1u);
}

TEST(ArenaTest, LargeRequestGetsDedicatedChunk)
{
    mem::Arena arena(256);
    void *p = arena.allocate(4000, 16);
    ASSERT_NE(p, nullptr);
    EXPECT_GE(arena.stats().chunkBytes, 4000u);
}

TEST(ArenaDeathTest, OversizedAllocationIsFatal)
{
    mem::Arena arena;
    EXPECT_DEATH(arena.allocate(mem::Arena::kMaxAllocBytes + 1, 8),
                 "oversized allocation");
}

TEST(ArenaDeathTest, ExhaustingTheCapIsFatal)
{
    // 1 KB chunks under a 2 KB cap: the third chunk refill must
    // trip the exhaustion check rather than grow without bound.
    mem::Arena arena(1024, 2048);
    arena.allocate(1024, 8);
    arena.allocate(1024, 8);
    EXPECT_DEATH(arena.allocate(1024, 8), "Arena exhausted");
}

// --- ArenaAllocator ---------------------------------------------

TEST(ArenaAllocatorTest, VectorDrawsFromTheArena)
{
    mem::Arena arena;
    mem::ArenaVector<int> v{mem::ArenaAllocator<int>(arena)};
    for (int i = 0; i < 1000; ++i)
        v.push_back(i);
    EXPECT_GT(arena.stats().allocCount, 0u);
    EXPECT_GE(arena.stats().allocBytes, 1000 * sizeof(int));
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(v[i], i);
}

TEST(ArenaAllocatorTest, NullRefFallsBackToGlobalAllocator)
{
    mem::ArenaVector<int> v; // default-constructed: null ref
    for (int i = 0; i < 100; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 100u);
}

TEST(ArenaAllocatorTest, MoveKeepsTheAllocator)
{
    mem::Arena arena;
    mem::ArenaVector<int> v{mem::ArenaAllocator<int>(arena)};
    v.push_back(7);
    mem::ArenaVector<int> moved = std::move(v);
    EXPECT_EQ(moved.get_allocator().arena(), &arena);
    EXPECT_EQ(moved.at(0), 7);
}

// --- Checkpoint byte codec --------------------------------------

TEST(ByteCodecTest, PodsAndBytesRoundTrip)
{
    mem::ByteWriter w;
    w.put<std::uint64_t>(0x1122334455667788ULL);
    w.put<std::uint16_t>(42);
    const char raw[] = {'a', 'b', 'c'};
    w.putBytes(raw, sizeof(raw));
    const std::vector<std::uint8_t> bytes = w.take();

    mem::ByteReader r(bytes);
    EXPECT_EQ(r.get<std::uint64_t>(), 0x1122334455667788ULL);
    EXPECT_EQ(r.get<std::uint16_t>(), 42);
    char back[3];
    r.getBytes(back, sizeof(back));
    EXPECT_EQ(std::memcmp(back, raw, sizeof(raw)), 0);
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteCodecDeathTest, ReadingPastTheEndIsFatal)
{
    const std::vector<std::uint8_t> two(2, 0);
    mem::ByteReader r(two);
    EXPECT_DEATH(r.get<std::uint64_t>(), "truncated payload");
}

TEST(CheckpointTest, SerializeDeserializeRoundTrip)
{
    mem::Checkpoint ck;
    ck.kind = mem::CheckpointKind::Functional;
    ck.configSig = 0xABCDEF0123456789ULL;
    ck.bytes = {1, 2, 3, 4, 5};

    const mem::Checkpoint back =
        mem::Checkpoint::deserialize(ck.serialize());
    EXPECT_EQ(back.kind, ck.kind);
    EXPECT_EQ(back.configSig, ck.configSig);
    EXPECT_EQ(back.bytes, ck.bytes);
}

TEST(CheckpointDeathTest, BadMagicIsFatal)
{
    mem::Checkpoint ck;
    ck.bytes = {1, 2, 3};
    std::vector<std::uint8_t> wire = ck.serialize();
    wire[0] ^= 0xFF;
    EXPECT_DEATH(mem::Checkpoint::deserialize(wire), "bad magic");
}

TEST(CheckpointDeathTest, WrongVersionIsFatal)
{
    mem::Checkpoint ck;
    ck.bytes = {1, 2, 3};
    std::vector<std::uint8_t> wire = ck.serialize();
    // The 16-bit version follows the 32-bit magic.
    wire[sizeof(mem::Checkpoint::kMagic)] ^= 0xFF;
    wire[sizeof(mem::Checkpoint::kMagic) + 1] ^= 0xFF;
    EXPECT_DEATH(mem::Checkpoint::deserialize(wire),
                 "unsupported version");
}

// --- FastSim checkpoint/fork contract ---------------------------

FastSimConfig
configFor(const check::FuzzCase &fuzzCase)
{
    FastSimConfig cfg;
    cfg.traceCacheEntries = fuzzCase.diff.traceCacheEntries;
    cfg.traceCacheAssoc = fuzzCase.diff.traceCacheAssoc;
    cfg.selection = fuzzCase.diff.selection;
    cfg.preconEnabled = fuzzCase.diff.preconEnabled;
    cfg.precon = fuzzCase.diff.precon;
    return cfg;
}

TEST(CheckpointForkTest, ForkedRunEqualsUninterruptedRun)
{
    // For several fuzz-seed shapes, snapshot a run at arbitrary
    // core-instruction points — odd offsets land mid basic block
    // and mid trace by construction — serialize the checkpoint,
    // restore it into a fresh simulator and run to the same
    // budget. Every statistic must match the uninterrupted run.
    constexpr InstCount kBudget = 6000;
    for (const std::uint64_t seed : {1, 2, 3, 5, 8}) {
        const check::FuzzCase fuzzCase =
            check::makeFuzzCase(seed, kBudget);
        const Program program = fuzzCase.program();
        const FastSimConfig cfg = configFor(fuzzCase);

        FastSim uninterrupted(program, cfg);
        const FastSimStats ref = uninterrupted.run(kBudget);

        for (const InstCount at :
             {InstCount{1}, kBudget / 4 + 1, kBudget / 2,
              3 * kBudget / 4 + 3}) {
            SCOPED_TRACE("seed " + std::to_string(seed) +
                         " snapshot at " + std::to_string(at));
            FastSim donor(program, cfg);
            donor.runUntil(at);
            const mem::Checkpoint saved =
                donor.checkpoint(mem::CheckpointKind::Full);
            const mem::Checkpoint restored =
                mem::Checkpoint::deserialize(saved.serialize());

            FastSim forked(program, cfg);
            forked.forkFrom(restored);
            const FastSimStats &got = forked.run(kBudget);
            const check::Violation v =
                check::fastStatsEqual(ref, got);
            EXPECT_FALSE(v) << *v;
        }
    }
}

TEST(CheckpointForkTest, FunctionalForkServesDifferentShapes)
{
    // One Functional (warm-subset) checkpoint is valid for every
    // frontend shape: fork it into simulators with different trace
    // cache and buffer geometry. Statistics start zeroed — the
    // forked run measures only the post-warm-up window.
    const check::FuzzCase fuzzCase = check::makeFuzzCase(4, 8000);
    const Program program = fuzzCase.program();

    FastSim donor(program, configFor(fuzzCase));
    donor.runUntil(2000);
    const mem::Checkpoint warm =
        donor.checkpoint(mem::CheckpointKind::Functional);

    for (const std::size_t tcEntries : {32, 256}) {
        FastSimConfig cfg = configFor(fuzzCase);
        cfg.traceCacheEntries = tcEntries;
        FastSim forked(program, cfg);
        forked.forkFrom(warm);
        const FastSimStats &stats = forked.run(3000);
        EXPECT_GT(stats.instructions, 0u);
        const check::Violation v = check::statsConserved(stats);
        EXPECT_FALSE(v) << *v;
    }
}

TEST(CheckpointForkDeathTest, SignatureMismatchIsFatal)
{
    const check::FuzzCase fuzzCase = check::makeFuzzCase(6, 4000);
    const Program program = fuzzCase.program();

    FastSim donor(program, configFor(fuzzCase));
    donor.runUntil(500);
    const mem::Checkpoint ck =
        donor.checkpoint(mem::CheckpointKind::Full);

    FastSimConfig other = configFor(fuzzCase);
    other.traceCacheEntries = other.traceCacheEntries * 2;
    FastSim mismatched(program, other);
    EXPECT_DEATH(mismatched.forkFrom(ck), "config signature");
}

TEST(CheckpointForkDeathTest, ForkIntoUsedSimulatorIsFatal)
{
    const check::FuzzCase fuzzCase = check::makeFuzzCase(7, 4000);
    const Program program = fuzzCase.program();
    const FastSimConfig cfg = configFor(fuzzCase);

    FastSim donor(program, cfg);
    donor.runUntil(100);
    const mem::Checkpoint ck =
        donor.checkpoint(mem::CheckpointKind::Full);

    FastSim used(program, cfg);
    used.run(200);
    EXPECT_DEATH(used.forkFrom(ck), "already");
}

TEST(CheckpointForkTest, ArenaBackedForkAlsoMatches)
{
    // The checkpoint wire format is allocator-agnostic: a snapshot
    // of a global-allocator run restored into an arena-backed
    // simulator (and vice versa) must still reproduce the
    // uninterrupted run.
    constexpr InstCount kBudget = 5000;
    const check::FuzzCase fuzzCase =
        check::makeFuzzCase(9, kBudget);
    const Program program = fuzzCase.program();
    const FastSimConfig cfg = configFor(fuzzCase);

    FastSim uninterrupted(program, cfg);
    const FastSimStats ref = uninterrupted.run(kBudget);

    FastSim donor(program, cfg);
    donor.runUntil(kBudget / 2 + 1);
    const mem::Checkpoint ck =
        donor.checkpoint(mem::CheckpointKind::Full);

    mem::Arena arena;
    FastSimConfig arenaCfg = cfg;
    arenaCfg.arena = arena;
    {
        FastSim forked(program, arenaCfg);
        forked.forkFrom(ck);
        const FastSimStats &got = forked.run(kBudget);
        const check::Violation v = check::fastStatsEqual(ref, got);
        EXPECT_FALSE(v) << *v;
    }
}

TEST(CheckpointTest, IdenticalRunsGiveIdenticalBytes)
{
    // Checkpoints hold no stale padding: two identically configured
    // runs, alive side by side so their heaps differ, must
    // serialize to the same bytes. Precon and diagnostics are on so
    // every padded record type (trace bodies and ids, the dynamic
    // window, decision paths, start points, cache lines) is written.
    WorkloadGenerator gen(specint95Profile("gcc"));
    const GeneratedWorkload wl = gen.generate();
    FastSimConfig cfg;
    cfg.preconEnabled = true;
    cfg.diagnostics = true;

    FastSim first(wl.program, cfg);
    FastSim second(wl.program, cfg);
    first.runUntil(200000);
    second.runUntil(200000);
    const std::vector<std::uint8_t> a =
        first.checkpoint(mem::CheckpointKind::Full).serialize();
    const std::vector<std::uint8_t> b =
        second.checkpoint(mem::CheckpointKind::Full).serialize();
    ASSERT_EQ(a.size(), b.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        differing += a[i] != b[i];
    EXPECT_EQ(differing, 0u) << "of " << a.size() << " bytes";
}

// --- Warm-state reuse through the Simulator ---------------------

TEST(WarmReuseTest, FastModeForksFromSharedCheckpoint)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 40000;
    cfg.warmupInsts = 10000;
    const SimResult r = sim.run(cfg);
    EXPECT_TRUE(r.warm);
    EXPECT_EQ(r.warmupInsts, 10000u);
    EXPECT_TRUE(r.warmFallback.empty()) << r.warmFallback;
    // The warm row measures only the post-warm-up window.
    EXPECT_GE(r.instructions, 30000u);
    EXPECT_LT(r.instructions, 40000u);

    // A second row with a different frontend shape reuses the same
    // cached checkpoint (same workload + warm-up + selection).
    SimConfig other = cfg;
    other.traceCacheEntries *= 2;
    const SimResult s = sim.run(other);
    EXPECT_TRUE(s.warm);
}

TEST(WarmReuseTest, TimingModeFallsBackCold)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.mode = SimMode::Timing;
    cfg.maxInsts = 30000;
    cfg.warmupInsts = 10000;
    const SimResult r = sim.run(cfg);
    EXPECT_FALSE(r.warm);
    EXPECT_EQ(r.warmFallback, "timing-mode");
    EXPECT_GT(r.instructions, 0u);
}

TEST(WarmReuseTest, WarmupSwallowingTheBudgetFallsBackCold)
{
    Simulator sim;
    SimConfig cfg;
    cfg.benchmark = "compress";
    cfg.maxInsts = 20000;
    cfg.warmupInsts = 20000;
    const SimResult r = sim.run(cfg);
    EXPECT_FALSE(r.warm);
    EXPECT_EQ(r.warmFallback, "warmup>=maxInsts");
    EXPECT_GE(r.instructions, 20000u);
}

// --- Simulator workload-cache LRU (bounded RSS) -----------------

TEST(WorkloadCacheTest, LruEvictionBoundsTheCache)
{
    // Regression: the cache used to retain every generated
    // workload for process lifetime, growing RSS monotonically
    // over long grid sweeps.
    Simulator sim;
    sim.setWorkloadCacheLimit(2);

    const auto compress = sim.workload("compress", 7);
    const auto li = sim.workload("li", 7);
    EXPECT_EQ(sim.workloadCacheSize(), 2u);

    // A third workload evicts the least-recently-used (compress).
    const auto go = sim.workload("go", 7);
    EXPECT_EQ(sim.workloadCacheSize(), 2u);

    // li and go survive: identical objects come back.
    EXPECT_EQ(sim.workload("li", 7).get(), li.get());
    EXPECT_EQ(sim.workload("go", 7).get(), go.get());
    // compress was evicted: it regenerates as a distinct object
    // (the old shared_ptr keeps the first copy alive for us).
    EXPECT_NE(sim.workload("compress", 7).get(), compress.get());
}

TEST(WorkloadCacheTest, LimitOfOneKeepsOnlyTheCurrentWorkload)
{
    Simulator sim;
    sim.setWorkloadCacheLimit(1);
    (void)sim.workload("compress", 7);
    (void)sim.workload("li", 7);
    EXPECT_EQ(sim.workloadCacheSize(), 1u);
}

} // namespace
} // namespace tpre
