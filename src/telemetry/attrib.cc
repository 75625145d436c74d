#include "telemetry/attrib.hh"

#include <cstdio>

namespace tpre
{

const char *
loopClassName(LoopClass cls)
{
    switch (cls) {
      case LoopClass::LoopBody: return "loop_body";
      case LoopClass::LoopExit: return "loop_exit";
      case LoopClass::CallChain: return "call_chain";
      case LoopClass::StraightLine: return "straight_line";
    }
    return "unknown";
}

const char *
instKindName(InstKind kind)
{
    switch (kind) {
      case InstKind::CondBranch: return "cond_branch";
      case InstKind::IndirectBranch: return "indirect_branch";
      case InstKind::CallReturn: return "call_return";
      case InstKind::LoadStore: return "load_store";
      case InstKind::Alu: return "alu";
    }
    return "unknown";
}

TraceClass
classifyTrace(const Trace &trace)
{
    TraceClass tc;
    bool backTaken = false;
    bool backNotTaken = false;
    bool callRet = false;
    for (const TraceInst &ti : trace.insts) {
        const InstKind kind = instKindOf(ti.inst);
        ++tc.instCounts[static_cast<std::size_t>(kind)];
        if (kind == InstKind::CallReturn)
            callRet = true;
        else if (ti.inst.isBackwardBranch()) {
            if (ti.taken)
                backTaken = true;
            else
                backNotTaken = true;
        }
    }
    tc.loopClass = backTaken      ? LoopClass::LoopBody
                   : backNotTaken ? LoopClass::LoopExit
                   : callRet      ? LoopClass::CallChain
                                  : LoopClass::StraightLine;
    return tc;
}

void
AttribCell::add(const AttribCell &other)
{
    for (const CellCounter &c : kCellCounters)
        this->*c.field += other.*c.field;
    for (std::size_t k = 0; k < kNumInstKinds; ++k) {
        instBuilt[k] += other.instBuilt[k];
        instServed[k] += other.instServed[k];
    }
}

AttribCell
AttribTable::originSum(TraceOrigin origin) const
{
    AttribCell sum;
    for (std::size_t c = 0; c < kNumLoopClasses; ++c)
        sum.add(of(origin, static_cast<LoopClass>(c)));
    return sum;
}

AttribCell
AttribTable::total() const
{
    AttribCell sum;
    for (const AttribCell &cell : cells)
        sum.add(cell);
    return sum;
}

void
AttribTable::add(const AttribTable &other)
{
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].add(other.cells[i]);
}

namespace
{

std::string
u64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
renderKindMap(const std::array<std::uint64_t, kNumInstKinds> &counts)
{
    std::string out = "{";
    for (std::size_t k = 0; k < kNumInstKinds; ++k) {
        if (k)
            out += ", ";
        out += "\"";
        out += instKindName(static_cast<InstKind>(k));
        out += "\": " + u64(counts[k]);
    }
    out += "}";
    return out;
}

/**
 * One cell as a JSON object: every scalar counter, then (for the
 * attribution shape) the two instruction-type histograms.
 */
std::string
renderCellJson(const AttribCell &cell, bool withKinds)
{
    std::string out = "{";
    for (const CellCounter &c : kCellCounters) {
        if (&c != kCellCounters)
            out += ", ";
        out += "\"";
        out += c.key;
        out += "\": " + u64(cell.*c.field);
    }
    if (withKinds) {
        out += ", \"inst_built\": " + renderKindMap(cell.instBuilt);
        out +=
            ", \"inst_served\": " + renderKindMap(cell.instServed);
    }
    out += "}";
    return out;
}

/** {"fill": row(fill), "precon": row(precon)}. */
template <typename Row>
std::string
renderByOrigin(Row &&row)
{
    std::string out = "{";
    for (std::size_t i = 0; i < kNumOrigins; ++i) {
        const auto origin = static_cast<TraceOrigin>(i);
        if (i)
            out += ", ";
        out += "\"";
        out += traceOriginName(origin);
        out += "\": " + row(origin);
    }
    out += "}";
    return out;
}

} // namespace

std::string
renderProvenanceJson(const AttribTable &table)
{
    return renderByOrigin([&](TraceOrigin origin) {
        return renderCellJson(table.originSum(origin), false);
    });
}

std::string
renderAttribJson(const AttribTable &table)
{
    return renderByOrigin([&](TraceOrigin origin) {
        std::string out = "{";
        for (std::size_t c = 0; c < kNumLoopClasses; ++c) {
            const auto cls = static_cast<LoopClass>(c);
            if (c)
                out += ", ";
            out += "\"";
            out += loopClassName(cls);
            out += "\": " +
                   renderCellJson(table.of(origin, cls), true);
        }
        out += "}";
        return out;
    });
}

} // namespace tpre
