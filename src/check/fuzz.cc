#include "check/fuzz.hh"

#include <algorithm>
#include <sstream>

#include "common/random.hh"
#include "par/parallel_sweep.hh"

namespace tpre::check
{

namespace
{

/** Encoded nop, used to erase instructions during shrinking. */
InstWord
nopWord()
{
    static const InstWord word = [] {
        ProgramBuilder b(0);
        b.nop();
        return b.build().wordAt(0);
    }();
    return word;
}

std::size_t
countActive(const std::vector<InstWord> &code)
{
    return std::count_if(code.begin(), code.end(), [](InstWord w) {
        return w != nopWord();
    });
}

// ---- profile-mutation cases ------------------------------------

BenchmarkProfile
mutateProfile(Rng &rng)
{
    const auto &names = specint95Names();
    BenchmarkProfile p =
        specint95Profile(names[rng.nextIndex(names.size())],
                         rng.next());
    p.seed = rng.next();
    p.numFuncs = unsigned(rng.nextRange(4, 80));
    p.minFuncInsts = unsigned(rng.nextRange(4, 24));
    p.meanFuncInsts =
        p.minFuncInsts + unsigned(rng.nextRange(4, 60));
    p.maxFuncInsts =
        p.meanFuncInsts + unsigned(rng.nextRange(8, 120));
    p.calleeWindow = unsigned(rng.nextRange(1, 16));
    p.loopWeight = rng.nextDouble() * 0.5;
    p.ifWeight = rng.nextDouble() * 0.5;
    p.callWeight = rng.nextDouble() * 0.3;
    p.indirectCallFrac = rng.nextDouble() * 0.4;
    p.loopIterBase = unsigned(rng.nextRange(1, 6));
    p.loopIterVarMask = (1u << rng.nextRange(0, 4)) - 1;
    p.biasedBranchFrac = rng.nextDouble();
    p.biasBits = unsigned(rng.nextRange(1, 8));
    p.memOpFrac = rng.nextDouble() * 0.5;
    p.phaseCount = unsigned(rng.nextRange(1, 8));
    p.phasePool =
        unsigned(rng.nextRange(4, std::int64_t(p.numFuncs)));
    p.callsPerPhase = unsigned(rng.nextRange(2, 40));
    p.phaseShift = unsigned(rng.nextRange(1, 8));
    // The per-case instruction budget stops the run long before the
    // schedule finishes; small repeats keep generation cheap.
    p.outerRepeats = unsigned(rng.nextRange(1, 3));
    p.dispatchDirect = unsigned(
        rng.nextRange(0, std::int64_t(std::min(6u, p.phasePool))));
    return p;
}

// ---- raw structured-random programs ----------------------------

/**
 * Symbol of function @p i, "f<i>". Appended rather than built as
 * `"f" + std::to_string(i)`, which trips a g++ 12 -Wrestrict false
 * positive.
 */
std::string
funcSymbol(unsigned i)
{
    std::string name = "f";
    name += std::to_string(i);
    return name;
}


/**
 * Emits a random but well-behaved program: a DAG of functions (each
 * calls only higher-indexed ones, so there is no recursion and
 * every call terminates), bounded counted loops, forward
 * conditional skips, and a halting main. Functions are emitted
 * last-to-first so a callee's address is always bound when a caller
 * wants an indirect (li + jalr) call to it.
 */
class RandomProgramGen
{
  public:
    explicit RandomProgramGen(Rng &rng) : rng_(rng), b_(0x1000) {}

    Program
    generate(std::string &desc)
    {
        const unsigned numFuncs = unsigned(rng_.nextRange(2, 8));
        funcs_.clear();
        for (unsigned i = 0; i < numFuncs; ++i)
            funcs_.push_back(b_.newLabel(funcSymbol(i)));

        for (unsigned i = numFuncs; i-- > 0;)
            emitFunction(i);

        const ProgramBuilder::Label mainL = b_.here("main");
        // r15 = 0x100000: shared data pointer for global accesses.
        b_.lui(15, 16);
        for (RegIndex r = 1; r <= 12; ++r)
            b_.li(r, std::int32_t(rng_.nextRange(0, 999)));
        emitBody(0, unsigned(rng_.nextRange(16, 48)), 0);
        b_.halt();

        std::ostringstream os;
        os << "random program: " << numFuncs << " functions, "
           << b_.numInsts() << " static insts";
        desc = os.str();
        return b_.build(mainL);
    }

  private:
    RegIndex
    fillerReg()
    {
        return RegIndex(1 + rng_.nextBelow(12));
    }

    void
    emitFiller()
    {
        const RegIndex rd = fillerReg();
        const RegIndex a = fillerReg();
        const RegIndex c = fillerReg();
        switch (rng_.nextBelow(8)) {
          case 0: b_.add(rd, a, c); break;
          case 1: b_.sub(rd, a, c); break;
          case 2: b_.xor_(rd, a, c); break;
          case 3: b_.and_(rd, a, c); break;
          case 4: b_.or_(rd, a, c); break;
          case 5: b_.slli(rd, a, std::int32_t(rng_.nextBelow(8)));
            break;
          case 6:
            b_.addi(rd, a, std::int32_t(rng_.nextRange(-64, 64)));
            break;
          default:
            b_.li(rd, std::int32_t(rng_.nextRange(0, 4095)));
            break;
        }
    }

    void
    emitMemOp()
    {
        const std::int32_t off =
            std::int32_t(rng_.nextBelow(16)) * 8;
        if (rng_.nextBool(0.5))
            b_.sd(fillerReg(), 15, off);
        else
            b_.ld(fillerReg(), 15, off);
    }

    void
    emitCondSkip(unsigned funcIndex, unsigned depth)
    {
        const ProgramBuilder::Label skip = b_.newLabel();
        if (rng_.nextBool(0.5))
            b_.beq(fillerReg(), zeroReg, skip);
        else
            b_.bne(fillerReg(), zeroReg, skip);
        emitBody(funcIndex, unsigned(rng_.nextRange(1, 4)),
                 depth + 1);
        b_.bind(skip);
    }

    void
    emitLoop(unsigned funcIndex, unsigned depth)
    {
        const RegIndex ctr = RegIndex(16 + depth);
        b_.li(ctr, std::int32_t(rng_.nextRange(1, 5)));
        const ProgramBuilder::Label top = b_.here();
        emitBody(funcIndex, unsigned(rng_.nextRange(1, 4)),
                 depth + 1);
        b_.addi(ctr, ctr, -1);
        b_.bne(ctr, zeroReg, top);
    }

    void
    emitCall(unsigned funcIndex)
    {
        const unsigned callee = unsigned(rng_.nextRange(
            funcIndex + 1, std::int64_t(funcs_.size()) - 1));
        const Addr target = b_.labelAddr(funcs_[callee]);
        if (rng_.nextBool(0.3) && target <= 0x7fff) {
            b_.li(14, std::int32_t(target));
            b_.jalr(linkReg, 14, 0);
        } else {
            b_.call(funcs_[callee]);
        }
    }

    /**
     * @p funcIndex is the caller for DAG call targets; main passes
     * 0 and may call anything. Calls are only legal while a callee
     * with a higher index exists.
     */
    void
    emitBody(unsigned funcIndex, unsigned budget, unsigned depth)
    {
        while (budget > 0) {
            --budget;
            const double roll = rng_.nextDouble();
            if (roll < 0.12 && depth < 2) {
                emitLoop(funcIndex, depth);
            } else if (roll < 0.27 && depth < 3) {
                emitCondSkip(funcIndex, depth);
            } else if (roll < 0.37 &&
                       funcIndex + 1 < funcs_.size()) {
                emitCall(funcIndex);
            } else if (roll < 0.55) {
                emitMemOp();
            } else {
                emitFiller();
            }
        }
    }

    void
    emitFunction(unsigned index)
    {
        b_.bind(funcs_[index]);
        b_.addi(stackReg, stackReg, -16);
        b_.sd(linkReg, stackReg, 0);
        emitBody(index, unsigned(rng_.nextRange(4, 24)), 0);
        b_.ld(linkReg, stackReg, 0);
        b_.addi(stackReg, stackReg, 16);
        b_.ret();
    }

    Rng &rng_;
    ProgramBuilder b_;
    std::vector<ProgramBuilder::Label> funcs_;
};

std::vector<InstWord>
imageWords(const Program &program)
{
    std::vector<InstWord> code;
    code.reserve(program.numInsts());
    for (Addr pc = program.base(); pc < program.end();
         pc += instBytes)
        code.push_back(program.wordAt(pc));
    return code;
}

} // namespace

FuzzCase
makeFuzzCase(std::uint64_t seed, InstCount maxInsts)
{
    Rng rng(mix64(seed ^ 0xf0221c4e5a9eULL));
    FuzzCase c;
    c.seed = seed;
    c.diff.maxInsts = maxInsts;

    // Randomize the shared selection policy so the independent rule
    // re-derivation in traceWellFormed() is exercised across
    // geometries, not just the paper defaults.
    static constexpr unsigned maxLens[] = {8, 12, 16};
    static constexpr unsigned granules[] = {0, 2, 4};
    c.diff.selection.maxLen = maxLens[rng.nextBelow(3)];
    c.diff.selection.alignGranule = granules[rng.nextBelow(3)];

    static constexpr std::size_t tcEntries[] = {16, 64, 128};
    c.diff.traceCacheEntries = tcEntries[rng.nextBelow(3)];
    c.diff.traceCacheAssoc = 1u << rng.nextBelow(3);

    c.diff.preconEnabled = rng.nextBool(0.75);
    c.diff.precon.numConstructors = unsigned(rng.nextRange(1, 4));
    c.diff.precon.numPrefetchCaches = unsigned(rng.nextRange(1, 4));
    c.diff.precon.bufferEntries = 16u << rng.nextBelow(3);
    c.diff.precon.warmRegionThreshold =
        rng.nextBool(0.5) ? 0 : unsigned(rng.nextRange(1, 4));

    c.diff.runProcessor = rng.nextBool(0.5);
    c.diff.prepEnabled = rng.nextBool(0.3);

    std::string desc;
    if (rng.nextBool(0.5)) {
        c.kind = CaseKind::Profile;
        const BenchmarkProfile profile = mutateProfile(rng);
        WorkloadGenerator gen(profile);
        const Program program = gen.generate().program;
        std::ostringstream os;
        os << "mutated profile " << profile.name << " (seed "
           << profile.seed << ", " << profile.numFuncs << " funcs, "
           << program.numInsts() << " static insts)";
        desc = os.str();
        c.base = program.base();
        c.entry = program.entry();
        c.code = imageWords(program);
    } else {
        c.kind = CaseKind::RandomProgram;
        RandomProgramGen gen(rng);
        const Program program = gen.generate(desc);
        c.base = program.base();
        c.entry = program.entry();
        c.code = imageWords(program);
    }
    std::ostringstream os;
    os << desc << "; maxLen=" << c.diff.selection.maxLen
       << " granule=" << c.diff.selection.alignGranule
       << " precon=" << c.diff.preconEnabled
       << " prep=" << c.diff.prepEnabled
       << " processor=" << c.diff.runProcessor;
    c.description = os.str();
    return c;
}

std::string
failureCategory(const std::string &failure)
{
    const auto colon = failure.find(':');
    return colon == std::string::npos ? failure
                                      : failure.substr(0, colon);
}

std::string
shrinkCase(FuzzCase &failing, const std::string &failure,
           std::size_t maxEvals)
{
    const std::string category = failureCategory(failure);
    const InstWord nop = nopWord();
    std::string last = failure;
    std::size_t evals = 0;

    const auto stillFails = [&](const std::vector<InstWord> &code,
                                std::string &msg) {
        if (evals >= maxEvals)
            return false;
        ++evals;
        const DiffResult r = diffModels(
            Program(failing.base, code, failing.entry),
            failing.diff);
        if (!r.failure || failureCategory(*r.failure) != category)
            return false;
        msg = *r.failure;
        return true;
    };

    const auto activeIndices = [&] {
        std::vector<std::size_t> active;
        for (std::size_t i = 0; i < failing.code.size(); ++i)
            if (failing.code[i] != nop)
                active.push_back(i);
        return active;
    };

    // ddmin-style greedy pass: nop out chunks of the remaining
    // live instructions, halving the chunk size until single
    // instructions are tried; repeat while anything was removed.
    bool progress = true;
    while (progress && evals < maxEvals) {
        progress = false;
        std::vector<std::size_t> active = activeIndices();
        std::size_t chunk = std::max<std::size_t>(active.size(), 1);
        while (chunk >= 1 && evals < maxEvals) {
            bool removedAtThisSize = false;
            for (std::size_t start = 0; start < active.size();
                 start += chunk) {
                std::vector<InstWord> trial = failing.code;
                const std::size_t stop =
                    std::min(start + chunk, active.size());
                for (std::size_t k = start; k < stop; ++k)
                    trial[active[k]] = nop;
                std::string msg;
                if (stillFails(trial, msg)) {
                    failing.code = std::move(trial);
                    last = std::move(msg);
                    progress = removedAtThisSize = true;
                }
            }
            if (removedAtThisSize)
                active = activeIndices();
            if (chunk == 1)
                break;
            chunk /= 2;
        }
    }
    return last;
}

FuzzReport
runFuzz(const FuzzOptions &opts)
{
    FuzzReport report;

    // Account one evaluated case in seed order; returns false once
    // the failure budget stops the campaign. Shrinking runs here,
    // on the scanning thread.
    const auto processCase = [&](FuzzCase c,
                                 const DiffResult &r) -> bool {
        ++report.casesRun;
        report.instructionsExecuted += r.instructions;
        report.tracesChecked += r.traces;
        if (opts.onCase)
            opts.onCase(c, r);
        if (!r.failure)
            return true;

        FuzzFailure f;
        f.failure = *r.failure;
        f.shrunk = std::move(c);
        f.originalInsts = countActive(f.shrunk.code);
        f.shrunkFailure = opts.shrink
                              ? shrinkCase(f.shrunk, f.failure)
                              : f.failure;
        f.shrunkInsts = countActive(f.shrunk.code);
        report.failures.push_back(std::move(f));
        return report.failures.size() < opts.maxFailures;
    };

    if (opts.jobs <= 1) {
        for (std::uint64_t i = 0; i < opts.seeds; ++i) {
            FuzzCase c =
                makeFuzzCase(opts.baseSeed + i, opts.maxInsts);
            const DiffResult r = diffModels(c.program(), c.diff);
            if (!processCase(std::move(c), r))
                break;
        }
        return report;
    }

    // Parallel campaign: evaluate seeds in blocks across the pool,
    // then scan each block in seed order. Blocks bound the
    // speculative work thrown away when an early seed fails.
    const std::uint64_t block = std::uint64_t(opts.jobs) * 8;
    for (std::uint64_t start = 0; start < opts.seeds;) {
        const std::uint64_t count =
            std::min<std::uint64_t>(block, opts.seeds - start);
        std::vector<FuzzCase> cases(count);
        std::vector<DiffResult> results(count);
        par::runJobs(
            static_cast<std::size_t>(count), opts.jobs,
            opts.baseSeed, [&](std::size_t i, Rng &) {
                cases[i] = makeFuzzCase(opts.baseSeed + start + i,
                                        opts.maxInsts);
                results[i] =
                    diffModels(cases[i].program(), cases[i].diff);
            },
            "check_fuzz");
        for (std::uint64_t i = 0; i < count; ++i)
            if (!processCase(std::move(cases[i]), results[i]))
                return report;
        start += count;
    }
    return report;
}

} // namespace tpre::check
