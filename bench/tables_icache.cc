/**
 * @file
 * Tables 1-3: the I-cache side of the trace processor for gcc and
 * go, comparing a 512-entry trace cache against a 256-entry trace
 * cache + 256-entry preconstruction buffer. The three tables read
 * different columns of the same four runs, so one run prints all
 * three:
 *   Table 1: instructions supplied by the I-cache per 1000
 *            instructions; the paper reports a drop of over 20%.
 *   Table 2: I-cache misses per 1000 instructions; preconstruction
 *            roughly doubles them (its prefetching competes for
 *            L2), while the absolute numbers stay small.
 *   Table 3: instructions supplied by I-cache *misses* per 1000;
 *            a large drop, because the engine prefetches lines the
 *            slow path then finds resident.
 */

#include "bench_common.hh"

using namespace tpre;

int
main(int argc, char **argv)
{
    bench::Harness harness("tables_icache", argc, argv);
    if (harness.replaying())
        return harness.runReplay();

    Simulator sim;
    const InstCount insts = bench::runLength(2'000'000);
    const char *names[] = {"gcc", "go"};

    // Two configs per benchmark: 512TC baseline, then 256TC+256PB.
    std::vector<SimConfig> configs;
    for (const char *name : names) {
        SimConfig base;
        base.benchmark = name;
        base.maxInsts = insts;
        base.traceCacheEntries = 512;
        configs.push_back(base);

        SimConfig pre = base;
        pre.traceCacheEntries = 256;
        pre.preconBufferEntries = 256;
        configs.push_back(pre);
    }
    for (SimConfig &cfg : configs)
        harness.applySample(cfg);
    const std::vector<SimResult> results =
        par::runParallelGrid(sim, configs, harness.sweepOptions());
    for (const SimResult &r : results)
        harness.record(r);

    // One table per paper table: the column, its precision and how
    // the 256TC+256PB value compares with the 512TC one.
    const struct
    {
        const char *title;
        const char *paper;
        double SimResult::*column;
        int digits;
        bool ratio;  ///< "2.0x" instead of a "-20.0%" reduction
    } tables[] = {
        {"Table 1: instructions supplied by the I-cache (per 1000 "
         "instructions)",
         "gcc: 233 -> 181, go: 326 -> 213 (both drop by >20%)",
         &SimResult::icacheSupplyPerKi, 0, false},
        {"Table 2: I-cache misses (per 1000 instructions)",
         "gcc: 3.0 -> 6.2, go: 7.8 -> 11 (preconstruction roughly "
         "doubles them)",
         &SimResult::icacheMissesPerKi, 1, true},
        {"Table 3: instructions supplied by I-cache misses (per "
         "1000 instructions)",
         "gcc: 10 -> 7.1, go: 35 -> 14 (slow path sees fewer "
         "misses)",
         &SimResult::icacheMissSupplyPerKi, 1, false},
    };
    for (const auto &t : tables) {
        bench::banner(t.title, t.paper);
        TableReport table({"benchmark", "512TC", "256TC+256PB",
                           t.ratio ? "ratio" : "reduction"});
        for (std::size_t i = 0; i < std::size(names); ++i) {
            const double b = results[2 * i].*t.column;
            const double p = results[2 * i + 1].*t.column;
            table.addRow(
                {names[i], TableReport::num(b, t.digits),
                 TableReport::num(p, t.digits),
                 t.ratio ? TableReport::num(p / b, 2) + "x"
                         : TableReport::num(100.0 * (b - p) / b, 1) +
                               "%"});
        }
        std::printf("%s\n", table.render().c_str());
    }
    return harness.finish();
}
