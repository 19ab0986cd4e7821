/**
 * @file
 * A machine-wide bank of message predictors.
 *
 * The paper allocates one Cosmos predictor beside every cache and
 * every directory module (§3.2). PredictorBank instantiates one
 * predictor per (node, role), routes trace records to the right
 * instance, and aggregates accuracy (Table 5), arc statistics
 * (Figures 6/7), and memory accounting (Table 7).
 *
 * Because the paper evaluates prediction in isolation, a single
 * simulated trace can be replayed through banks of any configuration
 * -- depth and filter sweeps reuse one simulation.
 */

#ifndef COSMOS_COSMOS_PREDICTOR_BANK_HH
#define COSMOS_COSMOS_PREDICTOR_BANK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "obs/metrics.hh"
#include "cosmos/accuracy.hh"
#include "cosmos/arc_stats.hh"
#include "cosmos/batch.hh"
#include "cosmos/cosmos_predictor.hh"
#include "cosmos/memory_stats.hh"
#include "cosmos/predictor.hh"
#include "trace/trace.hh"

namespace cosmos::pred
{

/** Creates one predictor instance for a given (node, role). */
using PredictorFactory =
    std::function<std::unique_ptr<MessagePredictor>(NodeId,
                                                    proto::Role)>;

/** Bank of per-module predictors with aggregated statistics. */
class PredictorBank
{
  public:
    /** Bank of Cosmos predictors with the given configuration. */
    PredictorBank(NodeId num_nodes, const CosmosConfig &cfg);

    /** Bank of arbitrary predictors (directed baselines, etc.). */
    PredictorBank(NodeId num_nodes, PredictorFactory factory);

    /**
     * Feed one trace record to its (node, role) predictor. This is
     * the reference semantics of every replay below, and the entry
     * for callers that interleave prediction with the run itself
     * (accel/online.cc, accel/speculation.cc).
     */
    void observe(const trace::TraceRecord &r);

    /**
     * Replay a whole trace through the batched pipeline
     * (cosmos/batch.hh). Records with iteration > @p max_iteration
     * are skipped (Table 8 replays prefixes of one trace). Counters
     * are bit-identical to calling observe() on each record in trace
     * order: the pipeline changes only when memory is touched, never
     * what is computed. Banks of other predictors (directed
     * baselines, variants) observe record by record; their virtual
     * observe dominates anyway.
     */
    void replay(const trace::Trace &t,
                std::int32_t max_iteration = INT32_MAX);

    /**
     * Replay a pre-selected slice of a trace -- typically one block
     * shard (replay/sharding.hh) or one forge class. Pointers must
     * stay valid for the call; records are fed in the given order.
     */
    void replay(const std::vector<const trace::TraceRecord *> &records,
                std::int32_t max_iteration = INT32_MAX);

    /** Old name of replay(const Trace &), still called by perfbench's
     *  replay-grid driver; delete it when perfbench next changes. */
    void replayBatched(const trace::Trace &t,
                       std::int32_t max_iteration = INT32_MAX)
    {
        replay(t, max_iteration);
    }

    /**
     * Feed one contiguous chunk of records through the batched path.
     * Chunks arrive in trace order and the pointer only needs to live
     * for the call. This is the constant-memory entry: pair it with
     * harness::TrafficConfig::recordSink and an arbitrarily long
     * machine run never materializes its trace.
     */
    void observeChunk(const trace::TraceRecord *recs, std::size_t n,
                      std::int32_t max_iteration = INT32_MAX);

    /**
     * Pre-size every predictor's block table from a
     * trace::moduleBlockCensus() vector (index 2*node + role), so a
     * subsequent replay performs no block-table rehash at all. A
     * shorter census vector reserves only the modules it covers.
     */
    void reserveFromCensus(const std::vector<std::uint32_t> &census);

    const AccuracyTracker &accuracy() const { return accuracy_; }
    const ArcStats &arcs(proto::Role role) const;

    /**
     * Aggregate Table 7 memory accounting. Only meaningful for banks
     * of Cosmos predictors; panics otherwise.
     */
    MemoryStats memoryStats() const;

    /**
     * Publish predictor observability into @p reg under @p prefix.
     * Only meaningful for Cosmos banks. Stable metrics (counters):
     * MHR/PHT entry counts, which are pure functions of the replayed
     * records. Volatile metrics: block-table load factors, the
     * probe-length histogram, and arena bytes -- these depend on per-
     * instance table growth history and differ between serial and
     * sharded replays, so they never enter the stable JSON export.
     */
    void publishMetrics(obs::Registry &reg,
                        const std::string &prefix = "pred") const;

    /** The predictor instance beside node @p n in role @p role. */
    MessagePredictor &predictor(NodeId n, proto::Role role);
    const MessagePredictor &predictor(NodeId n, proto::Role role) const;

    NodeId numNodes() const { return numNodes_; }

  private:
    std::size_t index(NodeId n, proto::Role role) const;

    /**
     * The one staging loop behind every replay entry: @p at(i) is the
     * i-th of @p n records. Cosmos banks stage windows of
     * batch_window records and apply them; other banks observe()
     * record by record.
     */
    template <typename RecordAt>
    void replayRecords(std::size_t n, std::int32_t max_iteration,
                       RecordAt at);

    /**
     * Apply one staged batch module-major: the batch is stably
     * partitioned by destination module and each module's slice runs
     * the probe/apply pipeline consecutively. Cosmos banks only.
     */
    void applyStaged(const SoaBatch &batch);

    /**
     * Two-pass probe/apply pipeline over one module's slice of a
     * module-major window: sub-batches of batch_depth are probed
     * (with slot prefetch batch_prefetch_distance elements ahead)
     * and then applied in order against one hoisted predictor.
     */
    void applySlice(CosmosPredictor &p, bool dir_side,
                    const Addr *blocks, const std::uint16_t *tuples,
                    const std::int32_t *iters, std::size_t n);

    NodeId numNodes_;
    unsigned cosmosDepth_ = 0; ///< nonzero iff a Cosmos bank
    std::vector<std::unique_ptr<MessagePredictor>> predictors_;
    AccuracyTracker accuracy_;
    ArcStats cacheArcs_;
    ArcStats dirArcs_;
    /// last incoming message type per (node, role, block), feeding
    /// the arc statistics.
    FlatMap<std::uint64_t, proto::MsgType> lastType_;
    /// reused SoA staging buffer of replay; bounds replay scratch at
    /// batch_window elements.
    SoaBatch stage_;
    /// module-major reorder target: stage_ stably partitioned by
    /// (module, block-hash) bucket (modules array unused -- the
    /// partition bounds carry that information).
    SoaBatch sorted_;
    /// counting-sort scratch: per-element bucket keys, bucket
    /// boundaries, and scatter cursors.
    std::vector<std::uint32_t> keys_, cnt_, pos_;
    /// probe-pass scratch of applySlice: per-element block refs
    /// (stable node pointers; null for never-seen blocks).
    std::vector<void *> refs_;
};

} // namespace cosmos::pred

#endif // COSMOS_COSMOS_PREDICTOR_BANK_HH
