/**
 * @file
 * The repository benchmark's measuring binary. It builds one
 * workload's rows from a seed, runs them as a single-threaded
 * closed loop (one row at a time, the next issued when the previous
 * returns) through the library's public entry points, and writes
 * every row execution, span and set-up timing as JSON for run.py to
 * turn into metrics. Nothing here interprets the numbers.
 *
 *   repobench --workload fast_grid --seed 3 --passes 6 --trace 0
 *             --out result.json
 *
 * A pass runs every row of one input set; pass k of a run uses set
 * (seed * passes + k) mod kInputSets. With --trace 1 every set is
 * run twice, once with span recording and once without.
 *
 * --max-insts N replaces the grid workloads' per-row budget, to
 * compare their layer split with that at another budget; rows then
 * have no expected digests.
 */

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/diff.hh"
#include "check/fuzz.hh"
#include "mem/arena.hh"
#include "sample/sample.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "tproc/fast_sim.hh"
#include "tproc/processor.hh"
#include "tracefmt/reader.hh"
#include "tracefmt/writer.hh"

using namespace tpre;

namespace
{

using Clock = std::chrono::steady_clock;

/** CPU seconds the process has used: unlike wall time, this leaves
 *  out periods when it was not running (host steal, other tenants). */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Distinct input sets. Every seed maps onto sets whose expected
 * digests were captured (repobench/expected/).
 */
constexpr std::uint64_t kInputSets = 32;

/**
 * Instructions per row: long enough that a row's host cost per
 * instruction is within a few percent of that at the fig5/fig6
 * harnesses' 2M/1.2M-instruction budgets (README.md, "Row budgets").
 * One pass takes 3 to 9 seconds.
 */
constexpr InstCount kFastBudget = 500'000;
constexpr InstCount kSampledBudget = 1'000'000;
constexpr InstCount kTimingBudget = 200'000;
/** Workload seeds per input set in timing_grid (24 configs each). */
constexpr std::uint64_t kTimingSeeds = 3;
/** Fuzz cases per input set, and each case's instruction budget
 *  (tools/check_fuzz's default). */
constexpr std::uint64_t kOracleCases = 100;
constexpr InstCount kOracleBudget = 20'000;

enum class Kind
{
    FastGrid,
    TimingGrid,
    SampledGrid,
    Oracle,
};

/** One closed-loop request: a simulation row or a fuzz case. */
struct Row
{
    std::string name;
    SimConfig cfg;
    /** Oracle rows: the makeFuzzCase seed and the case's index in
     *  Inputs. */
    std::uint64_t fuzzSeed = 0;
    std::size_t caseIdx = 0;
};

/** Word-wise order-sensitive digest of a row's simulated results. */
class Digest
{
  public:
    Digest &
    add(std::uint64_t v)
    {
        h_ = (h_ ^ v) * 0x100000001b3ULL;
        h_ ^= h_ >> 29;
        return *this;
    }

    Digest &
    add(double d)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        return add(bits);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void
addIcache(Digest &d, const ICache::Stats &s)
{
    d.add(s.demandAccesses).add(s.demandMisses);
    d.add(s.preconAccesses).add(s.preconMisses);
}

void
addPrecon(Digest &d, const PreconstructionEngine::Stats &s)
{
    d.add(s.startPointsPushed).add(s.regionsStarted);
    d.add(s.regionsCompleted).add(s.regionsCaughtUp);
    d.add(s.regionsPrefetchFull).add(s.regionsBuffersFull);
    d.add(s.regionsWarm).add(s.tracesConstructed);
    d.add(s.tracesBuffered).add(s.tracesAlreadyInTc);
    d.add(s.bufferHits).add(s.linesFetched);
}

void
addFast(Digest &d, const FastSimStats &s)
{
    d.add(s.instructions).add(s.cycles).add(s.traces);
    d.add(s.tcHits).add(s.pbHits).add(s.tcMisses);
    d.add(s.slowPathInsts).add(s.slowPathInstsFromMisses);
    addIcache(d, s.icache);
    addPrecon(d, s.precon);
}

void
addEstimate(Digest &d, const sample::MetricEstimate &e)
{
    d.add(e.mean).add(e.ci95).add(e.windows);
}

/** A span: one timed call into a layer. */
struct Span
{
    const char *name;
    /** Row execution (or probe) the span belongs to. */
    std::uint64_t exec;
    /** Index of the enclosing span in the log, -1 for a root. */
    long parent;
    std::int64_t t0;
    std::int64_t t1;
};

/**
 * In-memory span log. Recording is a run-time switch so traced and
 * untraced passes execute the same code; spans are written out only
 * when the run ends.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    bool on = false;
    std::uint64_t exec = 0;
    std::vector<Span> spans;

    long
    open(const char *name, long parent)
    {
        if (!on)
            return -1;
        spans.push_back({name, exec, parent, now(), 0});
        return static_cast<long>(spans.size()) - 1;
    }

    void
    close(long idx)
    {
        if (idx >= 0)
            spans[static_cast<std::size_t>(idx)].t1 = now();
    }

    std::int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

  private:
    Clock::time_point origin_;
};

/** RAII span; a no-op while the log is off. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name, long parent)
        : log_(log), idx_(log.open(name, parent))
    {
    }
    ~Scope() { log_.close(idx_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    long idx() const { return idx_; }

  private:
    SpanLog &log_;
    long idx_;
};

/** Outcome of one row execution. */
struct Exec
{
    std::size_t row = 0;
    unsigned pass = 0;
    std::uint64_t id = 0;
    /** Wall and CPU milliseconds of the whole row. */
    double ms = 0.0;
    double cpuMs = 0.0;
    InstCount insts = 0;
    Cycle cycles = 0;
    std::uint64_t digest = 0;
    /** Empty when the row's own checks passed. */
    std::string failure;
    std::vector<std::pair<const char *, std::uint64_t>> counters;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool trace = false;
    unsigned passes = 1;
    unsigned setupReps = 5;
    /** Per-row budget of the grid workloads; 0 keeps their own. */
    InstCount maxInsts = 0;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "repobench: %s\nusage: repobench --workload "
                 "{fast_grid|timing_grid|sampled_grid|"
                 "oracle_campaign} --seed N --passes N --trace 0|1 "
                 "--out FILE [--setup-reps N] [--max-insts N]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || s[0] == '-')
        usage("expected a non-negative integer");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *v = argv[++i];
        if (flag == "--workload")
            a.workload = v;
        else if (flag == "--seed")
            a.seed = parseCount(v);
        else if (flag == "--trace")
            a.trace = parseCount(v) != 0;
        else if (flag == "--passes")
            a.passes = static_cast<unsigned>(parseCount(v));
        else if (flag == "--setup-reps")
            a.setupReps = static_cast<unsigned>(parseCount(v));
        else if (flag == "--max-insts")
            a.maxInsts = parseCount(v);
        else if (flag == "--out")
            a.out = v;
        else
            usage("unknown flag");
    }
    if (a.out.empty() || a.passes == 0 || a.setupReps == 0)
        usage("--out, and non-zero --passes and --setup-reps, are "
              "required");
    return a;
}

SimConfig
rowConfig(const std::string &profile, std::uint64_t seed,
          SimMode mode, InstCount budget, std::size_t tc,
          std::size_t pb, bool prep)
{
    SimConfig cfg;
    cfg.benchmark = profile;
    cfg.workloadSeed = seed;
    cfg.mode = mode;
    cfg.maxInsts = budget;
    cfg.traceCacheEntries = tc;
    cfg.preconBufferEntries = pb;
    cfg.prepEnabled = prep;
    return cfg;
}

std::string
configName(const SimConfig &cfg)
{
    std::string s = cfg.benchmark + "/w" +
                    std::to_string(cfg.workloadSeed) + "/" +
                    std::to_string(cfg.traceCacheEntries) + "TC";
    if (cfg.preconBufferEntries > 0)
        s += "+" + std::to_string(cfg.preconBufferEntries) + "PB";
    if (cfg.prepEnabled)
        s += "+prep";
    return s;
}

/** The grid rows of one input set (oracle rows are cases);
 *  maxInsts, when not 0, replaces the grids' per-row budget. */
std::vector<Row>
buildRows(Kind kind, std::uint64_t set, InstCount maxInsts)
{
    std::vector<Row> rows;
    // Workload seeds start at 1 and never collide across input sets.
    if (kind == Kind::FastGrid || kind == Kind::SampledGrid) {
        const InstCount budget =
            maxInsts ? maxInsts
                     : kind == Kind::FastGrid ? kFastBudget
                                              : kSampledBudget;
        // Each trace-cache size gets its own program per profile: a
        // set then holds 8 x 5 programs, so no single program sways
        // a set's figures much. A (TC,PB) row and its (TC,0) sibling
        // share a program.
        const std::vector<SizePoint> grid = figure5Grid();
        std::vector<std::size_t> tcSizes;
        for (const SizePoint &pt : grid)
            if (std::find(tcSizes.begin(), tcSizes.end(),
                          pt.tcEntries) == tcSizes.end())
                tcSizes.push_back(pt.tcEntries);
        for (const std::string &p : specint95Names()) {
            for (const SizePoint &pt : grid) {
                const std::uint64_t column = static_cast<std::uint64_t>(
                    std::find(tcSizes.begin(), tcSizes.end(),
                              pt.tcEntries) -
                    tcSizes.begin());
                Row r;
                r.cfg = rowConfig(p, 1 + set * tcSizes.size() + column,
                                  SimMode::Fast, budget, pt.tcEntries,
                                  pt.pbEntries, false);
                r.name = configName(r.cfg);
                rows.push_back(std::move(r));
            }
        }
    } else if (kind == Kind::TimingGrid) {
        struct Point
        {
            std::size_t tc, pb;
            bool prep;
        };
        // Figure 6's four area-matched shapes plus Figure 8's
        // preprocessing variants.
        const Point points[] = {{256, 0, false},  {128, 128, false},
                                {512, 0, false},  {256, 256, false},
                                {256, 0, true},   {128, 128, true}};
        for (std::uint64_t j = 0; j < kTimingSeeds; ++j) {
            for (const char *p : {"gcc", "go", "perl", "vortex"}) {
                for (const Point &pt : points) {
                    Row r;
                    r.cfg = rowConfig(p, 1 + set * kTimingSeeds + j,
                                      SimMode::Timing,
                                      maxInsts ? maxInsts
                                               : kTimingBudget,
                                      pt.tc, pt.pb, pt.prep);
                    r.name = configName(r.cfg);
                    rows.push_back(std::move(r));
                }
            }
        }
    } else {
        for (std::uint64_t i = 0; i < kOracleCases; ++i) {
            Row r;
            r.fuzzSeed = 1 + set * kOracleCases + i;
            r.name = "case/" + std::to_string(r.fuzzSeed);
            rows.push_back(std::move(r));
        }
    }
    return rows;
}

/** Inputs generated during set-up. */
struct Inputs
{
    std::map<std::pair<std::string, std::uint64_t>,
             std::shared_ptr<const GeneratedWorkload>>
        workloads;
    std::vector<check::FuzzCase> cases;
    std::vector<Program> programs;
};

/**
 * Generate every input the rows need, assigning oracle rows their
 * case index. Returns per-item generation times in ms (one per
 * workload or fuzz case).
 */
std::vector<double>
setUp(Kind kind, std::vector<std::vector<Row>> &sets, Inputs &in)
{
    std::vector<double> itemMs;
    in = Inputs{};
    std::vector<Row *> rows;
    for (std::vector<Row> &set : sets)
        for (Row &r : set)
            rows.push_back(&r);
    if (kind == Kind::Oracle) {
        for (Row *r : rows) {
            const auto t0 = Clock::now();
            r->caseIdx = in.cases.size();
            in.cases.push_back(
                check::makeFuzzCase(r->fuzzSeed, kOracleBudget));
            in.programs.push_back(in.cases.back().program());
            itemMs.push_back(
                std::chrono::duration<double, std::milli>(
                    Clock::now() - t0)
                    .count());
        }
        return itemMs;
    }
    // A fresh Simulator per set-up so every repetition generates.
    Simulator sim;
    for (const Row *r : rows) {
        const auto key =
            std::make_pair(r->cfg.benchmark, r->cfg.workloadSeed);
        if (in.workloads.count(key))
            continue;
        const auto t0 = Clock::now();
        in.workloads[key] = sim.workload(key.first, key.second);
        itemMs.push_back(std::chrono::duration<double, std::milli>(
                             Clock::now() - t0)
                             .count());
    }
    return itemMs;
}

const Program &
programOf(const Inputs &in, const SimConfig &cfg)
{
    return in.workloads.at({cfg.benchmark, cfg.workloadSeed})->program;
}

/**
 * Fast-mode configuration as Simulator::run builds it: with
 * SimConfig::arena on (the default), the simulator draws its heaps
 * from a per-run arena that the caller resets once it is destroyed.
 */
FastSimConfig
fastConfig(const SimConfig &cfg, mem::Arena &arena)
{
    FastSimConfig fcfg = cfg.toFastConfig();
    if (cfg.arena)
        fcfg.arena = mem::ArenaRef(arena);
    return fcfg;
}

void
runFastRow(const Row &row, const Inputs &in, mem::Arena &arena,
           SpanLog &log, long root, Exec &ex, bool sampled)
{
    std::unique_ptr<FastSim> sim;
    {
        Scope s(log, "sim.construct", root);
        sim = std::make_unique<FastSim>(programOf(in, row.cfg),
                                        fastConfig(row.cfg, arena));
    }
    Digest d;
    if (sampled) {
        sample::SampledRun run;
        {
            Scope s(log, "sample.run", root);
            run = sample::runSampled(
                *sim, sample::defaultSpec(row.cfg.maxInsts),
                row.cfg.maxInsts);
        }
        d.add(std::uint64_t{run.sampled}).add(run.windows);
        d.add(run.instructions).add(run.sampledInsts);
        d.add(run.skippedInsts).add(run.warmInsts);
        for (const sample::MetricEstimate *e :
             {&run.missesPerKi, &run.tracesPerKi, &run.pbHitsPerKi,
              &run.cyclesPerKi, &run.coverage,
              &run.icacheMissesPerKi, &run.icacheSupplyPerKi,
              &run.icacheMissSupplyPerKi})
            addEstimate(d, *e);
        addFast(d, run.raw);
        ex.insts = run.instructions;
        ex.cycles = run.raw.cycles;
        // Detailed portions only, like every raw ledger of a
        // sampled run.
        ex.counters = {{"skipped", run.skippedInsts},
                       {"windows", run.windows},
                       {"traces", run.raw.traces},
                       {"tc_hits", run.raw.tcHits},
                       {"pb_hits", run.raw.pbHits},
                       {"precon_constructed",
                        run.raw.precon.tracesConstructed},
                       {"block_hits", run.raw.blocks.hits},
                       {"blocks_decoded", run.raw.blocks.decoded}};
    } else {
        const FastSimStats *st = nullptr;
        {
            Scope s(log, "frontend.run", root);
            st = &sim->run(row.cfg.maxInsts);
        }
        addFast(d, *st);
        ex.insts = st->instructions;
        ex.cycles = st->cycles;
        ex.counters = {{"traces", st->traces},
                       {"tc_hits", st->tcHits},
                       {"pb_hits", st->pbHits},
                       {"precon_constructed",
                        st->precon.tracesConstructed},
                       {"block_hits", st->blocks.hits},
                       {"blocks_decoded", st->blocks.decoded}};
    }
    ex.digest = d.value();
    Scope s(log, "sim.teardown", root);
    sim.reset();
    arena.reset();
}

void
runTimingRow(const Row &row, const Inputs &in, SpanLog &log,
             long root, Exec &ex)
{
    std::unique_ptr<TraceProcessor> proc;
    {
        Scope s(log, "sim.construct", root);
        proc = std::make_unique<TraceProcessor>(
            programOf(in, row.cfg), row.cfg.toProcessorConfig());
    }
    const ProcessorStats *st = nullptr;
    {
        Scope s(log, "tproc.run", root);
        st = &proc->run(row.cfg.maxInsts);
    }
    Digest d;
    d.add(st->instructions).add(st->cycles).add(st->traces);
    d.add(st->tcHits).add(st->pbHits).add(st->tcMisses);
    d.add(st->ntpCorrect).add(st->ntpWrong).add(st->ntpNone);
    d.add(st->slowPathInsts).add(st->slowMispredicts);
    addIcache(d, st->icache);
    d.add(st->backend.instsIssued).add(st->backend.dcacheAccesses);
    d.add(st->backend.dcacheMisses).add(st->backend.busTransfers);
    d.add(st->backend.busStalls);
    addPrecon(d, st->precon);
    d.add(st->prep.tracesProcessed).add(st->prep.constsPropagated);
    d.add(st->prep.opsFused).add(st->prep.instsMoved);
    d.add(st->ipc());
    ex.digest = d.value();
    ex.insts = st->instructions;
    ex.cycles = st->cycles;
    ex.counters = {{"traces", st->traces},
                   {"tc_hits", st->tcHits},
                   {"pb_hits", st->pbHits},
                   {"precon_constructed", st->precon.tracesConstructed}};
    Scope s(log, "sim.teardown", root);
    proc.reset();
}

void
runOracleCase(const Row &row, const Inputs &in, SpanLog &log,
              long root, Exec &ex)
{
    const check::FuzzCase &fc = in.cases[row.caseIdx];
    const Program &program = in.programs[row.caseIdx];

    check::RefRun ref;
    {
        Scope s(log, "check.reference", root);
        ref = check::referenceRun(program, fc.diff.selection,
                                  fc.diff.maxInsts);
    }
    std::string bytes;
    {
        Scope s(log, "tracefmt.encode", root);
        tracefmt::TptWriter writer(program);
        for (const DynInst &dyn : ref.stream)
            writer.add(dyn);
        bytes = writer.finish();
    }
    Digest d;
    d.add(std::uint64_t{ref.stream.size()});
    d.add(std::uint64_t{ref.traces.size()});
    d.add(std::uint64_t{ref.halted}).add(std::uint64_t{ref.leftImage});
    for (const DynInst &dyn : ref.stream) {
        d.add(dyn.pc).add(dyn.nextPc).add(dyn.effAddr);
        d.add(std::uint64_t{dyn.taken});
    }
    d.add(std::uint64_t{bytes.size()});
    std::size_t mismatches = 0;
    {
        Scope s(log, "tracefmt.decode", root);
        tracefmt::TptReader reader(bytes);
        DynInst dyn;
        std::size_t i = 0;
        while (reader.next(dyn)) {
            if (i >= ref.stream.size() ||
                dyn.pc != ref.stream[i].pc ||
                dyn.nextPc != ref.stream[i].nextPc ||
                dyn.taken != ref.stream[i].taken ||
                dyn.effAddr != ref.stream[i].effAddr)
                ++mismatches;
            ++i;
        }
        if (!reader.done() || i != ref.stream.size())
            ++mismatches;
    }
    check::DiffResult diff;
    {
        Scope s(log, "check.diff", root);
        diff = check::diffModels(program, fc.diff);
    }
    d.add(diff.instructions).add(diff.traces);
    d.add(std::uint64_t{diff.ok()});
    ex.digest = d.value();
    ex.insts = diff.instructions;
    ex.counters = {{"stream_insts", ref.stream.size()}};
    if (!diff.ok())
        ex.failure = *diff.failure;
    else if (mismatches)
        ex.failure = "tpt round trip: decoded stream differs from the "
                     "reference stream";
}

/** Functional fast-forward over the row budget, one per workload. */
void
runFfProbes(const std::vector<std::vector<Row>> &sets,
            const Inputs &in, mem::Arena &arena, SpanLog &log,
            std::vector<Exec> &probes)
{
    std::map<std::pair<std::string, std::uint64_t>, InstCount> seen;
    for (const std::vector<Row> &rows : sets)
        for (const Row &row : rows)
            seen.emplace(std::make_pair(row.cfg.benchmark,
                                        row.cfg.workloadSeed),
                         row.cfg.maxInsts);
    for (const auto &[key, budget] : seen) {
        Exec ex;
        ex.id = ++log.exec;
        {
            FastSim sim(in.workloads.at(key)->program,
                        fastConfig(SimConfig{}, arena));
            const auto t0 = Clock::now();
            {
                Scope s(log, "func.ff", -1);
                ex.insts = sim.fastForward(budget);
            }
            ex.ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
        }
        arena.reset();
        probes.push_back(ex);
    }
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    out += '"';
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

void
appendExec(std::string &out, const Exec &e)
{
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(e.digest));
    out += "{\"row\":" + num(std::uint64_t{e.row}) +
           ",\"pass\":" + num(std::uint64_t{e.pass}) +
           ",\"exec\":" + num(e.id) + ",\"ms\":" + num(e.ms) +
           ",\"cpu_ms\":" + num(e.cpuMs) +
           ",\"insts\":" + num(e.insts) +
           ",\"cycles\":" + num(e.cycles) + ",\"digest\":\"" + hex +
           "\",\"failure\":";
    appendJsonString(out, e.failure);
    out += ",\"counters\":{";
    for (std::size_t i = 0; i < e.counters.size(); ++i) {
        if (i)
            out += ',';
        appendJsonString(out, e.counters[i].first);
        out += ":" + num(e.counters[i].second);
    }
    out += "}}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const std::map<std::string, Kind> kinds = {
        {"fast_grid", Kind::FastGrid},
        {"timing_grid", Kind::TimingGrid},
        {"sampled_grid", Kind::SampledGrid},
        {"oracle_campaign", Kind::Oracle}};
    const auto kindIt = kinds.find(args.workload);
    if (kindIt == kinds.end())
        usage("unknown workload");
    const Kind kind = kindIt->second;

    std::vector<std::uint64_t> setIds;
    std::vector<std::vector<Row>> sets;
    for (unsigned k = 0; k < args.passes; ++k) {
        setIds.push_back((args.seed * args.passes + k) % kInputSets);
        sets.push_back(buildRows(kind, setIds.back(), args.maxInsts));
    }

    // Set-up, repeated so its time can be reported as a median; the
    // inputs of the last repetition are the ones the run uses.
    Inputs in;
    std::vector<double> setupS;
    std::vector<double> setupCpuS;
    std::vector<double> itemMs;
    for (unsigned rep = 0; rep < args.setupReps; ++rep) {
        const auto t0 = Clock::now();
        const double c0 = cpuSeconds();
        const std::vector<double> ms = setUp(kind, sets, in);
        setupS.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        setupCpuS.push_back(cpuSeconds() - c0);
        itemMs.insert(itemMs.end(), ms.begin(), ms.end());
    }

    struct Pass
    {
        std::size_t set;
        bool traced;
        double wallS;
        double cpuS;
    };
    std::vector<Pass> passes;
    for (std::size_t k = 0; k < sets.size(); ++k) {
        passes.push_back({k, false, 0.0, 0.0});
        // Traced runs repeat each set with spans on, alternating
        // which copy goes first so warm host caches favour neither.
        if (args.trace) {
            passes.push_back({k, true, 0.0, 0.0});
            if (k % 2 == 1)
                std::swap(passes[passes.size() - 1],
                          passes[passes.size() - 2]);
        }
    }

    // Reused across rows, like Simulator::run's per-thread arena.
    mem::Arena arena;
    rusage before{};
    getrusage(RUSAGE_SELF, &before);
    SpanLog log(Clock::now());
    std::vector<Exec> execs;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        Pass &pass = passes[p];
        const std::vector<Row> &rows = sets[pass.set];
        log.on = pass.traced;
        const auto p0 = Clock::now();
        const double pc0 = cpuSeconds();
        for (std::size_t i = 0; i < rows.size(); ++i) {
            Exec ex;
            ex.row = i;
            ex.pass = static_cast<unsigned>(p);
            ex.id = ++log.exec;
            const auto t0 = Clock::now();
            const double c0 = cpuSeconds();
            {
                Scope root(log, "row", -1);
                if (kind == Kind::TimingGrid)
                    runTimingRow(rows[i], in, log, root.idx(), ex);
                else if (kind == Kind::Oracle)
                    runOracleCase(rows[i], in, log, root.idx(), ex);
                else
                    runFastRow(rows[i], in, arena, log, root.idx(),
                               ex, kind == Kind::SampledGrid);
            }
            ex.ms = std::chrono::duration<double, std::milli>(
                        Clock::now() - t0)
                        .count();
            ex.cpuMs = (cpuSeconds() - c0) * 1e3;
            execs.push_back(std::move(ex));
        }
        pass.wallS =
            std::chrono::duration<double>(Clock::now() - p0).count();
        pass.cpuS = cpuSeconds() - pc0;
    }

    rusage after{};
    getrusage(RUSAGE_SELF, &after);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };

    std::vector<Exec> probes;
    if (args.trace &&
        (kind == Kind::FastGrid || kind == Kind::SampledGrid)) {
        log.on = true;
        runFfProbes(sets, in, arena, log, probes);
    }

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);

    std::string out = "{\"workload\":";
    appendJsonString(out, args.workload);
    out += ",\"seed\":" + num(args.seed) +
           ",\"input_sets\":" + num(kInputSets) +
           ",\"peak_rss_kb\":" +
           num(static_cast<std::uint64_t>(usage.ru_maxrss)) +
           // Kernel-side cost of the passes (page faults, mostly).
           ",\"passes_sys_s\":" +
           num(seconds(after.ru_stime) - seconds(before.ru_stime)) +
           ",\"passes_user_s\":" +
           num(seconds(after.ru_utime) - seconds(before.ru_utime)) +
           ",\"passes_minflt\":" +
           num(static_cast<std::uint64_t>(after.ru_minflt -
                                          before.ru_minflt)) +
           ",\"setup_s\":[";
    for (std::size_t i = 0; i < setupS.size(); ++i)
        out += (i ? "," : "") + num(setupS[i]);
    out += "],\"setup_cpu_s\":[";
    for (std::size_t i = 0; i < setupCpuS.size(); ++i)
        out += (i ? "," : "") + num(setupCpuS[i]);
    out += "],\"setup_item_ms\":[";
    for (std::size_t i = 0; i < itemMs.size(); ++i)
        out += (i ? "," : "") + num(itemMs[i]);
    out += "],\"sets\":[";
    for (std::size_t k = 0; k < sets.size(); ++k) {
        out += std::string(k ? ",\n" : "") +
               "{\"set\":" + num(setIds[k]) + ",\"rows\":[";
        for (std::size_t i = 0; i < sets[k].size(); ++i) {
            if (i)
                out += ',';
            appendJsonString(out, sets[k][i].name);
        }
        out += "]}";
    }
    out += "],\"passes\":[";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        out += std::string(i ? "," : "") +
               "{\"set\":" + num(std::uint64_t{passes[i].set}) +
               ",\"traced\":" + (passes[i].traced ? "true" : "false") +
               ",\"wall_s\":" + num(passes[i].wallS) +
               ",\"cpu_s\":" + num(passes[i].cpuS) + "}";
    }
    out += "],\"execs\":[\n";
    for (std::size_t i = 0; i < execs.size(); ++i) {
        if (i)
            out += ",\n";
        appendExec(out, execs[i]);
    }
    out += "],\"probes\":[";
    for (std::size_t i = 0; i < probes.size(); ++i) {
        if (i)
            out += ",\n";
        appendExec(out, probes[i]);
    }
    out += "],\"spans\":[\n";
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
        const Span &s = log.spans[i];
        if (i)
            out += ",\n";
        out += "[";
        appendJsonString(out, s.name);
        out += "," + num(s.exec) + "," + std::to_string(s.parent) +
               "," + std::to_string(s.t0) + "," +
               std::to_string(s.t1) + "]";
    }
    out += "]}\n";

    std::FILE *f = std::fopen(args.out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "repobench: cannot write %s\n",
                     args.out.c_str());
        return 1;
    }
    const bool ok = std::fwrite(out.data(), 1, out.size(), f) ==
                        out.size() &&
                    std::fclose(f) == 0;
    return ok ? 0 : 1;
}
