#include "workload/generator.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tpre
{

namespace
{

// Scratch register assignments (see header for the full map).
constexpr RegIndex rSel = 23;
constexpr RegIndex rT1 = 24;
constexpr RegIndex rT2 = 25;
constexpr RegIndex rMulC = 26;
constexpr RegIndex rLcg = 27;
constexpr RegIndex rGp = 28;
constexpr RegIndex rTbl = 29;

constexpr std::int32_t lcgMultiplier = 25173;

/** Data-slot offsets off the global pointer. */
constexpr std::int32_t lcgSlot = 0;
constexpr std::int32_t outerSlot = 8;
constexpr std::int32_t phaseSlot = 16;
constexpr std::int32_t dataOffBase = 64;

/** Stack frame layout: ra at 0, loop counters above. */
constexpr std::int32_t frameBytes = 64;
constexpr unsigned maxLoopDepth = 4;
constexpr unsigned maxIfDepth = 3;

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

unsigned
floorPow2(unsigned v)
{
    unsigned p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

} // namespace

WorkloadGenerator::WorkloadGenerator(BenchmarkProfile profile)
    : profile_(std::move(profile)), rng_(profile_.seed),
      builder_(0x1000)
{
    tpre_assert(profile_.numFuncs >= 2 &&
                profile_.numFuncs <= 4000,
                "function count out of range");
    tpre_assert(profile_.phasePool >= 4);
}

void
WorkloadGenerator::emitLcgStep()
{
    builder_.mul(rLcg, rLcg, rMulC);
    const auto c = static_cast<std::int32_t>(
        rng_.nextRange(1, 32767)) | 1;
    builder_.addi(rLcg, rLcg, c);
}

void
WorkloadGenerator::emitCondValue(unsigned bits)
{
    tpre_assert(bits >= 1 && bits <= 12);
    const auto sh = static_cast<std::int32_t>(rng_.nextRange(8, 19));
    builder_.srli(rT1, rLcg, sh);
    builder_.andi(rT1, rT1, (1 << bits) - 1);
}

void
WorkloadGenerator::emitFiller(unsigned index, unsigned count)
{
    const std::int32_t data_base =
        dataOffBase + static_cast<std::int32_t>((index * 640) % 30000);

    // Chained dataflow: integer code carries long dependence
    // chains (address arithmetic, reductions); about half of the
    // filler consumes the previous result.
    RegIndex chain = static_cast<RegIndex>(1 + rng_.nextBelow(19));
    for (unsigned i = 0; i < count; ++i) {
        const auto rd =
            static_cast<RegIndex>(1 + rng_.nextBelow(19));
        const auto ra =
            rng_.nextBool(0.5)
                ? chain
                : static_cast<RegIndex>(1 + rng_.nextBelow(19));
        const auto rb =
            static_cast<RegIndex>(1 + rng_.nextBelow(19));

        if (rng_.nextBool(profile_.memOpFrac)) {
            const auto off = data_base + static_cast<std::int32_t>(
                8 * rng_.nextBelow(32));
            if (rng_.nextBool(0.5)) {
                builder_.ld(rd, rGp, off);
                chain = rd;
            } else {
                builder_.sd(ra, rGp, off);
            }
            continue;
        }

        if (rng_.nextBool(0.18) && i + 1 < count) {
            // Address-generation idioms: a shift or add feeding a
            // dependent add, which trace preprocessing can fuse
            // into one combined-ALU op.
            if (rng_.nextBool(0.5)) {
                builder_.slli(rd, ra, 3);
                builder_.add(rd, rd, rb);
            } else {
                builder_.add(rd, ra, rb);
                builder_.addi(rd, rd, static_cast<std::int32_t>(
                    rng_.nextRange(-64, 63)));
            }
            chain = rd;
            ++i;
            continue;
        }

        switch (rng_.nextBelow(8)) {
          case 0: builder_.add(rd, ra, rb); break;
          case 1: builder_.sub(rd, ra, rb); break;
          case 2: builder_.xor_(rd, ra, rb); break;
          case 3: builder_.and_(rd, ra, rb); break;
          case 4: builder_.or_(rd, ra, rb); break;
          case 5: builder_.slt(rd, ra, rb); break;
          case 6:
            builder_.addi(rd, ra, static_cast<std::int32_t>(
                rng_.nextRange(-128, 127)));
            break;
          default:
            if (rng_.nextBool(0.25))
                builder_.mul(rd, ra, rb);
            else
                builder_.srli(rd, ra, static_cast<std::int32_t>(
                    rng_.nextRange(1, 12)));
            break;
        }
        chain = rd;
    }
}

void
WorkloadGenerator::emitIf(unsigned index, unsigned budget,
                          unsigned loopDepth, unsigned ifDepth)
{
    if (rng_.nextBool(0.5))
        emitLcgStep();

    // Real integer-code branch bias is bimodal: most branches are
    // strongly skewed, a band is moderately skewed, and only a few
    // are genuine coin flips (these hurt both the bimodal
    // predictor and preconstruction's biased-path pruning).
    const double roll_bias = rng_.nextDouble();
    const bool biased = roll_bias < profile_.biasedBranchFrac;
    unsigned bits;
    if (biased)
        bits = profile_.biasBits;
    else if (roll_bias < profile_.biasedBranchFrac +
                             0.7 * (1.0 - profile_.biasedBranchFrac))
        bits = 2; // moderate: ~75/25
    else
        bits = 1; // coin flip
    emitCondValue(bits);

    const unsigned inner = budget > 6 ? budget - 6 : 2;
    unsigned hot = std::max(2u, (inner * 3) / 5);
    unsigned cold = std::max(2u, biased ? inner / 4 : hot);

    Label else_label = builder_.newLabel();
    Label end_label = builder_.newLabel();

    // Polarity: with beq the fall-through (then) side is dominant
    // for biased branches; with bne the jump is dominant, so the
    // hot code goes on the else side.
    const bool use_bne = rng_.nextBool(0.5);
    if (use_bne) {
        builder_.bne(rT1, zeroReg, else_label);
        emitSeq(index, cold, loopDepth, ifDepth + 1);
        builder_.jmp(end_label);
        builder_.bind(else_label);
        emitSeq(index, hot, loopDepth, ifDepth + 1);
    } else {
        builder_.beq(rT1, zeroReg, else_label);
        emitSeq(index, hot, loopDepth, ifDepth + 1);
        builder_.jmp(end_label);
        builder_.bind(else_label);
        emitSeq(index, cold, loopDepth, ifDepth + 1);
    }
    builder_.bind(end_label);
}

void
WorkloadGenerator::emitLoop(unsigned index, unsigned budget,
                            unsigned loopDepth, unsigned ifDepth)
{
    // Trip count = base + ((lcg >> sh) & varMask), kept in a stack
    // slot so it survives calls in the loop body.
    const auto sh = static_cast<std::int32_t>(rng_.nextRange(8, 19));
    const std::int32_t slot =
        8 + static_cast<std::int32_t>(loopDepth) * 8;

    builder_.srli(rT1, rLcg, sh);
    builder_.andi(rT1, rT1,
                  static_cast<std::int32_t>(profile_.loopIterVarMask));
    builder_.addi(rT1, rT1,
                  static_cast<std::int32_t>(profile_.loopIterBase));
    builder_.sd(rT1, stackReg, slot);

    const unsigned body_budget = std::min<unsigned>(
        budget > 12 ? budget - 12 : 4,
        static_cast<unsigned>(rng_.nextGeometric(4, 14.0, 40)));

    Label top = builder_.here();
    emitLcgStep();
    emitSeq(index, body_budget, loopDepth + 1, ifDepth);
    builder_.ld(rT1, stackReg, slot);
    builder_.addi(rT1, rT1, -1);
    builder_.sd(rT1, stackReg, slot);
    builder_.bne(rT1, zeroReg, top);
}

void
WorkloadGenerator::emitCall(unsigned index)
{
    const unsigned last = profile_.numFuncs - 1;
    if (index >= last) {
        emitFiller(index, 3);
        return;
    }

    const bool indirect =
        rng_.nextBool(profile_.indirectCallFrac) && index + 4 <= last;
    if (indirect) {
        // Pick one of four table entries in (index, index+4] at
        // run time: a genuinely unpredictable indirect call.
        const auto sh =
            static_cast<std::int32_t>(rng_.nextRange(8, 19));
        builder_.srli(rT1, rLcg, sh);
        builder_.andi(rT1, rT1, 3);
        builder_.addi(rT1, rT1,
                      static_cast<std::int32_t>(index + 1));
        builder_.slli(rT1, rT1, 3);
        builder_.add(rT1, rT1, rTbl);
        builder_.ld(rT2, rT1, 0);
        builder_.jalr(linkReg, rT2, 0);
        return;
    }

    const unsigned window =
        std::min<unsigned>(profile_.calleeWindow, last - index);
    const unsigned callee =
        index + 1 + static_cast<unsigned>(rng_.nextBelow(window));
    builder_.jal(linkReg, funcLabels_[callee]);
}

void
WorkloadGenerator::emitSeq(unsigned index, unsigned budget,
                           unsigned loopDepth, unsigned ifDepth)
{
    while (budget > 0) {
        if (budget < 12) {
            emitFiller(index, budget);
            return;
        }

        const std::size_t before = builder_.numInsts();
        const double roll = rng_.nextDouble();
        double acc = 0.0;

        if (roll < (acc += profile_.loopWeight) &&
            loopDepth < maxLoopDepth && budget >= 16) {
            emitLoop(index, budget, loopDepth, ifDepth);
        } else if (roll < (acc += profile_.ifWeight) &&
                   ifDepth < maxIfDepth) {
            emitIf(index, budget, loopDepth, ifDepth);
        } else if (roll < (acc += profile_.callWeight) &&
                   loopDepth == 0 && callsLeft_ > 0) {
            --callsLeft_;
            emitCall(index);
        } else {
            emitFiller(index,
                       static_cast<unsigned>(rng_.nextRange(3, 8)));
        }

        const std::size_t emitted = builder_.numInsts() - before;
        budget -= std::min<unsigned>(budget,
                                     static_cast<unsigned>(emitted));
    }
}

void
WorkloadGenerator::emitFunction(unsigned index)
{
    builder_.bind(funcLabels_[index]);

    // Prologue: frame, save ra, refresh the global LCG so every
    // invocation sees fresh pseudo-random control-flow bits.
    builder_.addi(stackReg, stackReg, -frameBytes);
    builder_.sd(linkReg, stackReg, 0);
    builder_.li(rMulC, lcgMultiplier);
    builder_.ld(rLcg, rGp, lcgSlot);
    emitLcgStep();
    builder_.sd(rLcg, rGp, lcgSlot);

    // Cap the call sites per function and keep them outside loops
    // so the dynamic call tree of one dispatch is a *subcritical*
    // branching process (mean fan-out ~0.85): trees stay local to
    // the root's index neighbourhood and dispatches always return.
    const double call_roll = rng_.nextDouble();
    callsLeft_ = call_roll < 0.35 ? 0 : (call_roll < 0.80 ? 1 : 2);

    const auto budget = static_cast<unsigned>(rng_.nextGeometric(
        profile_.minFuncInsts,
        static_cast<double>(profile_.meanFuncInsts),
        profile_.maxFuncInsts));
    emitSeq(index, budget, 0, 0);

    // Epilogue.
    builder_.ld(linkReg, stackReg, 0);
    builder_.addi(stackReg, stackReg, frameBytes);
    builder_.ret();
}

void
WorkloadGenerator::emitDispatcher()
{
    dispatcherStart_ = builder_.numInsts();

    const unsigned pool_size =
        std::min(floorPow2(profile_.phasePool), profile_.numFuncs);
    const auto pool_mask = static_cast<std::int32_t>(pool_size - 1);

    builder_.lui(rGp, static_cast<std::int32_t>(dataBase >> 16));
    builder_.lui(rTbl, static_cast<std::int32_t>(tableBase >> 16));
    builder_.li(rMulC, lcgMultiplier);
    builder_.li(rT1, static_cast<std::int32_t>(
        (profile_.seed & 0x3fff) | 1));
    builder_.sd(rT1, rGp, lcgSlot);

    // Function-pointer table initialization.
    for (unsigned i = 0; i < profile_.numFuncs; ++i) {
        const Addr addr = builder_.labelAddr(funcLabels_[i]);
        builder_.lui(rT1, static_cast<std::int32_t>(addr >> 16));
        builder_.ori(rT1, rT1,
                     static_cast<std::int32_t>(
                         static_cast<std::int16_t>(addr & 0xffff)));
        builder_.sd(rT1, rTbl, static_cast<std::int32_t>(i * 8));
    }

    builder_.li(rT1, static_cast<std::int32_t>(
        std::min<unsigned>(profile_.outerRepeats, 32767)));
    builder_.sd(rT1, rGp, outerSlot);

    Label outer_top = builder_.here("outer_loop");

    for (unsigned p = 0; p < profile_.phaseCount; ++p) {
        unsigned pool_base = p * profile_.phaseShift;
        if (pool_base + pool_size > profile_.numFuncs)
            pool_base = profile_.numFuncs - pool_size;

        builder_.li(rT1, static_cast<std::int32_t>(
            profile_.callsPerPhase));
        builder_.sd(rT1, rGp, phaseSlot);

        Label phase_top = builder_.here();

        // Advance the global LCG and pick a root function.
        builder_.ld(rLcg, rGp, lcgSlot);
        builder_.mul(rLcg, rLcg, rMulC);
        builder_.addi(rLcg, rLcg,
                      static_cast<std::int32_t>(12289 + p * 2));
        builder_.sd(rLcg, rGp, lcgSlot);
        builder_.srli(rSel, rLcg, 9);
        builder_.andi(rSel, rSel, pool_mask);

        // A short compare chain of direct calls; everything else
        // dispatches through the function-pointer table.
        const unsigned directs =
            std::min(profile_.dispatchDirect, pool_size);
        std::vector<Label> direct_labels;
        Label join = builder_.newLabel();
        for (unsigned k = 0; k < directs; ++k) {
            direct_labels.push_back(builder_.newLabel());
            builder_.li(rT1, static_cast<std::int32_t>(k));
            builder_.beq(rSel, rT1, direct_labels[k]);
        }
        builder_.slli(rT1, rSel, 3);
        builder_.addi(rT1, rT1,
                      static_cast<std::int32_t>(pool_base * 8));
        builder_.add(rT1, rT1, rTbl);
        builder_.ld(rT2, rT1, 0);
        builder_.jalr(linkReg, rT2, 0);
        builder_.jmp(join);
        for (unsigned k = 0; k < directs; ++k) {
            builder_.bind(direct_labels[k]);
            builder_.jal(linkReg, funcLabels_[pool_base + k]);
            builder_.jmp(join);
        }
        builder_.bind(join);

        builder_.ld(rT1, rGp, phaseSlot);
        builder_.addi(rT1, rT1, -1);
        builder_.sd(rT1, rGp, phaseSlot);
        builder_.bne(rT1, zeroReg, phase_top);
    }

    builder_.ld(rT1, rGp, outerSlot);
    builder_.addi(rT1, rT1, -1);
    builder_.sd(rT1, rGp, outerSlot);
    builder_.bne(rT1, zeroReg, outer_top);
    builder_.halt();
}

GeneratedWorkload
WorkloadGenerator::generate()
{
    tpre_assert(!generated_, "generate() called twice");
    generated_ = true;

    funcLabels_.reserve(profile_.numFuncs);
    for (unsigned i = 0; i < profile_.numFuncs; ++i)
        funcLabels_.push_back(
            builder_.newLabel(funcSymbol(i)));

    for (unsigned i = 0; i < profile_.numFuncs; ++i)
        emitFunction(i);

    Label entry = builder_.newLabel("_start");
    builder_.bind(entry);
    emitDispatcher();

    const std::size_t total = builder_.numInsts();
    GeneratedWorkload out{builder_.build(entry), {}, total,
                          total - dispatcherStart_};
    for (unsigned i = 0; i < profile_.numFuncs; ++i)
        out.funcAddrs.push_back(
            out.program.symbol(funcSymbol(i)));
    return out;
}

} // namespace tpre
