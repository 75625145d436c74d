/**
 * @file
 * NextTracePredictor: path-based next-trace prediction (Jacobson,
 * Rotenberg & Smith, MICRO'97), the frontend predictor of the trace
 * processor. Treats traces as the unit of prediction: a hashed
 * history of recent trace identities indexes a prediction table
 * whose entries name the expected next trace.
 *
 * The implementation is the paper's enhanced configuration: a
 * hybrid of a long-history (path) table and a single-trace history
 * table to reduce cold-start and aliasing losses, plus the Return
 * History Stack, which saves path history across calls so that
 * post-return predictions see pre-call context.
 */

#ifndef TPRE_BPRED_NEXT_TRACE_HH
#define TPRE_BPRED_NEXT_TRACE_HH

#include <array>
#include <vector>

#include "trace/trace.hh"

namespace tpre
{

/** Next-trace predictor configuration. */
struct NtpConfig
{
    std::size_t primaryEntries = 1 << 16;
    std::size_t secondaryEntries = 1 << 14;
    /** Trace-granular path history depth (max 8). */
    unsigned historyDepth = 4;
    /** Return history stack depth. */
    unsigned rhsDepth = 32;
    /** Confidence threshold for preferring the primary table. */
    std::uint8_t confThreshold = 2;
};

/** Path-based next-trace predictor with RHS and hybrid tables. */
class NextTracePredictor
{
  public:
    static constexpr unsigned maxHistoryDepth = 8;

    /** Snapshot of speculative state for misprediction recovery. */
    struct Checkpoint
    {
        std::array<std::uint64_t, maxHistoryDepth> history;
        std::vector<std::array<std::uint64_t, maxHistoryDepth>> rhs;
    };

    explicit NextTracePredictor(NtpConfig config = {});

    /**
     * Predict the identity of the next trace given the current
     * path history. Returns an invalid TraceId when neither table
     * has an opinion.
     */
    TraceId predict() const;

    /**
     * Advance the predictor with the trace that actually executed
     * next: trains both tables against the prediction they would
     * have made, rolls the path history, and performs RHS push /
     * restore based on the trace's call and return behaviour.
     *
     * @param actual The trace that followed.
     * @param containsCall The trace contains a procedure call.
     * @param endsInReturn The trace ends with a return.
     */
    void advance(const TraceId &actual, bool containsCall,
                 bool endsInReturn);

    /** Capture speculative state before a predicted dispatch. */
    Checkpoint checkpoint() const;

    /** Restore state captured by checkpoint() (squash recovery). */
    void restore(const Checkpoint &checkpoint);

    void clear();

    const NtpConfig &config() const { return config_; }

    /** Statistics for predictor studies. */
    struct Stats
    {
        std::uint64_t predictions = 0;
        /** advance() calls: one per trace that executed. */
        std::uint64_t updates = 0;
        std::uint64_t fromPrimary = 0;
        std::uint64_t fromSecondary = 0;
        std::uint64_t noPrediction = 0;
    };
    const Stats &stats() const { return stats_; }

  private:
    /**
     * One table entry: the predicted trace's identity without
     * TraceId's cached hash, which predictions do not need (the
     * frontend compares ids field by field). 16 bytes, so the
     * tables the predictor initializes at construction and misses
     * into on every predict() and advance() are half the size.
     */
    struct Entry
    {
        Addr startPc = invalidAddr;
        std::uint16_t branchFlags = 0;
        std::uint8_t numBranches = 0;
        std::uint8_t conf = 0;

        bool valid() const { return startPc != invalidAddr; }
        bool
        holds(const TraceId &id) const
        {
            return startPc == id.startPc &&
                   branchFlags == id.branchFlags &&
                   numBranches == id.numBranches;
        }
        /** The predicted id; its hash is computed on first use. */
        TraceId
        id() const
        {
            TraceId out;
            out.startPc = startPc;
            out.branchFlags = branchFlags;
            out.numBranches = numBranches;
            return out;
        }
    };
    static_assert(sizeof(Entry) == 16);

    std::size_t primaryIndex() const;
    std::size_t secondaryIndex() const;
    static void train(Entry &entry, const TraceId &actual);

    NtpConfig config_;
    std::vector<Entry> primary_;
    std::vector<Entry> secondary_;
    /** history_[0] is the most recent trace's hash. */
    std::array<std::uint64_t, maxHistoryDepth> history_ = {};
    std::vector<std::array<std::uint64_t, maxHistoryDepth>> rhs_;
    mutable Stats stats_;
};

} // namespace tpre

#endif // TPRE_BPRED_NEXT_TRACE_HH
