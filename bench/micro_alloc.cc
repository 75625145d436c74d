/**
 * @file
 * Allocation microbenchmark for the per-run arena (DESIGN.md
 * section 15): count the allocations that reach the global
 * allocator during one simulator run, with the arena off (every
 * container allocation is a malloc) and on (only arena chunk
 * refills are; container traffic is bump-pointer). Measured via
 * the obs counters `alloc.count` / `alloc.bytes`, which are bumped
 * from the two global-allocation call sites in src/mem/arena.cc.
 *
 * Each (benchmark, arena) cell is one cold Simulator run; the
 * second arena run per thread reuses the run arena's retained
 * chunks, so steady-state arena rows show near-zero global
 * allocations. Emits BENCH_micro_alloc.json; the per-row `arena`
 * field tells the two series apart.
 */

#include "bench_common.hh"

using namespace tpre;

namespace
{

/** Current aggregated values of the alloc.count/bytes counters. */
struct AllocCounters
{
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
};

AllocCounters
allocSnapshot()
{
    AllocCounters out;
    for (const obs::MetricRow &row :
         obs::MetricsRegistry::instance().snapshot()) {
        if (row.kind != obs::MetricKind::Counter)
            continue;
        if (row.name == "alloc.count")
            out.count = static_cast<std::uint64_t>(row.value);
        else if (row.name == "alloc.bytes")
            out.bytes = static_cast<std::uint64_t>(row.value);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("micro_alloc", argc, argv);
    if (harness.replaying())
        return harness.runReplay();
    bench::banner(
        "Per-run allocation traffic: arena vs global operator new",
        "arena runs replace per-object mallocs with a handful of "
        "chunk refills, so global allocations drop by orders of "
        "magnitude");

    Simulator sim;
    const InstCount insts = bench::runLength(500'000);

    TableReport table({"benchmark", "arena", "globalAllocs",
                       "globalKB", "allocs/KI"});
    for (const char *name : {"compress", "gcc", "go"}) {
        for (const bool arena : {false, true}) {
            SimConfig cfg;
            cfg.benchmark = name;
            cfg.maxInsts = insts;
            cfg.arena = arena;
            // Workload generation allocates outside the counted
            // call sites; trigger it before the measured window.
            (void)sim.workload(cfg.benchmark, cfg.workloadSeed);

            const AllocCounters before = allocSnapshot();
            const SimResult r = harness.record(sim.run(cfg));
            const AllocCounters after = allocSnapshot();

            const std::uint64_t allocs = after.count - before.count;
            const std::uint64_t bytes = after.bytes - before.bytes;
            table.addRow(
                {name, arena ? "on" : "off",
                 TableReport::num(allocs),
                 TableReport::num(bytes / 1024),
                 TableReport::num(
                     1000.0 * static_cast<double>(allocs) /
                         static_cast<double>(r.instructions),
                     3)});
        }
    }
    std::printf("%s", table.render().c_str());
    return harness.finish();
}
