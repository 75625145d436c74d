/**
 * @file
 * Dynamic TC/buffer partitioning (the paper's Section 5.1 future
 * work): compare, at equal total storage, (a) the paper's split
 * design at several static splits, (b) a unified way-partitioned
 * cache at every static boundary, and (c) the unified cache with
 * the adaptive hill-climbing controller. The paper observes that
 * gcc prefers a small buffer and go a large one; the adaptive
 * design should track each benchmark's preference without tuning.
 *
 * The 3 x 5 design grid mixes Simulator and PartitionSim runs, so
 * it is sharded through par::runJobs directly (--jobs N /
 * TPRE_JOBS); only the Simulator-backed split rows carry the full
 * SimResult schema into BENCH_ablation_dynamic_partition.json, but
 * every design's instructions count toward its MIPS.
 */

#include "bench_common.hh"
#include "tproc/partition_sim.hh"

using namespace tpre;

namespace
{

/** One table row computed by a sharded job. */
struct Row
{
    std::vector<std::string> cells;
    bool hasSimResult = false;
    SimResult simResult;
    /** Instructions a PartitionSim design simulated. */
    InstCount partitionInsts = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::Harness harness("ablation_dynamic_partition", argc,
                           argv);
    if (harness.replaying())
        return harness.runReplay();
    bench::banner(
        "Dynamic partitioning of trace-cache vs preconstruction "
        "storage (Section 5.1 extension)",
        "gcc prefers mostly-cache, go prefers a bigger buffer; "
        "the adaptive controller should match the best static "
        "split per benchmark");

    Simulator sim;
    const InstCount insts = bench::runLength(1'500'000);
    const std::size_t total = 512; // 32 KB combined
    const char *names[] = {"gcc", "go", "vortex"};

    // Designs per benchmark: the paper's 50/50 split (Simulator),
    // unified static 0/1/2 precon ways, unified adaptive.
    constexpr std::size_t designsPerBench = 5;
    const std::size_t n = std::size(names) * designsPerBench;
    std::vector<Row> rows(n);

    par::runJobs(
        n, harness.jobs(), 7, [&](std::size_t i, Rng &) {
            const char *name = names[i / designsPerBench];
            const std::size_t design = i % designsPerBench;
            Row &row = rows[i];

            if (design == 0) {
                SimConfig split;
                split.benchmark = name;
                split.maxInsts = insts;
                split.traceCacheEntries = total / 2;
                split.preconBufferEntries = total / 2;
                const SimResult s = sim.run(split);
                row.cells = {"split 256TC+256PB",
                             TableReport::num(s.missesPerKi, 2),
                             TableReport::num(s.pbHits), "-"};
                row.hasSimResult = true;
                row.simResult = s;
                return;
            }

            const auto wlp = sim.workload(name, 7);
            const GeneratedWorkload &wl = *wlp;
            PartitionSimConfig cfg;
            cfg.totalEntries = total;
            if (design <= 3) {
                cfg.preconWays = unsigned(design - 1);
            } else {
                cfg.preconWays = 1;
                cfg.adaptive = true;
            }
            PartitionSim psim(wl.program, cfg);
            const PartitionSimStats &r = psim.run(insts);

            char label[48];
            if (cfg.adaptive)
                std::snprintf(label, sizeof(label),
                              "unified adaptive");
            else
                std::snprintf(label, sizeof(label),
                              "unified static %u/4 ways",
                              cfg.preconWays);
            row.cells = {label,
                         TableReport::num(r.missesPerKiloInst(),
                                          2),
                         TableReport::num(r.preconHits),
                         TableReport::num(
                             std::uint64_t(r.finalPreconWays))};
            row.partitionInsts = r.instructions;
        });

    for (std::size_t bi = 0; bi < std::size(names); ++bi) {
        TableReport table({"design", "misses/1000", "preconHits",
                           "finalWays"});
        for (std::size_t d = 0; d < designsPerBench; ++d) {
            Row &row = rows[bi * designsPerBench + d];
            if (row.hasSimResult)
                harness.record(row.simResult);
            else
                harness.countInstructions(row.partitionInsts);
            table.addRow(row.cells);
        }
        std::printf("\n--- %s ---\n%s", names[bi],
                    table.render().c_str());
    }
    return harness.finish();
}
