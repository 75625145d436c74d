/**
 * @file
 * Allocation budget of timing mode (DESIGN.md section 10.1): once a
 * TraceProcessor is built, its per-trace path -- the pending-trace
 * ring, dispatch, preprocessing and preconstruction region start-up
 * -- runs from fixed-capacity storage, so TraceProcessor::run makes
 * almost no heap allocations. The remaining ones are capacity
 * growth that stops once every structure has reached its working
 * size.
 *
 * This is its own executable because it replaces the global
 * operator new with a counting one. The count is exact under the
 * sanitizers too: a user-defined operator new takes precedence over
 * the sanitizer runtime's, and its malloc/free stay intercepted.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "tproc/processor.hh"
#include "workload/generator.hh"

namespace
{

std::atomic<std::uint64_t> allocations{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(size)
                  : std::aligned_alloc(
                        align, (size + align - 1) / align * align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size, 0); }
void *operator new[](std::size_t size) { return countedAlloc(size, 0); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace tpre
{
namespace
{

TEST(AllocBudget, CounterSeesHeapAllocations)
{
    const std::uint64_t before = allocations.load();
    auto *p = new std::uint64_t(7);
    delete p;
    EXPECT_EQ(allocations.load() - before, 1u);
}

TEST(AllocBudget, TimingRunStaysUnderTwoPerThousandInsts)
{
    // gcc with 256TC + 256PB + preprocessing: every per-trace
    // mechanism of timing mode is live.
    WorkloadGenerator gen(specint95Profile("gcc"));
    const GeneratedWorkload wl = gen.generate();
    ProcessorConfig cfg;
    cfg.traceCacheEntries = 256;
    cfg.preconEnabled = true;
    cfg.precon.bufferEntries = 256;
    cfg.prepEnabled = true;
    TraceProcessor proc(wl.program, cfg);

    const std::uint64_t before = allocations.load();
    const ProcessorStats &stats = proc.run(200'000);
    const std::uint64_t made = allocations.load() - before;

    ASSERT_GE(stats.instructions, 200'000u);
    EXPECT_GT(stats.prep.tracesProcessed, 0u);
    EXPECT_GT(stats.precon.regionsStarted, 0u);
    const double per_ki = 1000.0 * static_cast<double>(made) /
                          static_cast<double>(stats.instructions);
    RecordProperty("allocations", static_cast<int>(made));
    EXPECT_LT(per_ki, 2.0)
        << made << " heap allocations in run() over "
        << stats.instructions << " instructions";
}

} // namespace
} // namespace tpre
