/**
 * @file
 * Parallel predictor-configuration sweeps over message traces.
 *
 * The paper's evaluation replays the same traces through many Cosmos
 * configurations (Tables 5-8 are (app x depth x filter x run-length)
 * grids). Each cell is independent, and within a cell prediction is
 * per-block, so the engine parallelizes on two axes:
 *
 *  - across ReplayJobs: every grid cell is one parallelFor index;
 *  - within a job: when cells are scarcer than threads, the trace is
 *    block-sharded (replay/sharding.hh) and the shards replay through
 *    separate PredictorBanks, on the cell's share of the threads,
 *    whose statistics are then merged in shard-index order.
 *
 * All statistics are integer counters merged by addition, so sweep
 * results are bit-identical to a serial replay regardless of thread
 * or shard count.
 */

#ifndef COSMOS_REPLAY_SWEEP_HH
#define COSMOS_REPLAY_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hh"
#include "cosmos/accuracy.hh"
#include "cosmos/arc_stats.hh"
#include "cosmos/cosmos_predictor.hh"
#include "cosmos/memory_stats.hh"
#include "trace/trace.hh"

namespace cosmos::replay
{

/** One sweep cell: which trace, and which predictor configuration. */
struct ReplayJob
{
    std::string app;
    /** Traced iterations; -1 = workload default. */
    int iterations = -1;
    OwnerReadPolicy policy = OwnerReadPolicy::half_migratory;
    std::uint64_t seed = 0x5eedc05305ULL;
    /** Predictor configuration replayed over the trace. */
    pred::CosmosConfig config{};
    /** Replay only records with iteration <= this (Table 8 prefixes). */
    std::int32_t maxIteration = INT32_MAX;
    /** Block shards within this job; 0 = engine decides. */
    unsigned shards = 0;
};

/** Everything a sweep cell produces. */
struct ReplayResult
{
    pred::AccuracyTracker accuracy;
    pred::ArcStats cacheArcs;
    pred::ArcStats directoryArcs;
    pred::MemoryStats memory;

    /**
     * Fold another (block-disjoint) partial result into this one.
     * Addition of integer counters: associative, and commutative up
     * to iteration-vector sizing -- the engine still merges in shard
     * index order so the reduction is wholly deterministic.
     */
    void merge(const ReplayResult &other);
};

/** Maps a job to the trace it replays (must outlive the sweep). */
using TraceProvider =
    std::function<const trace::Trace &(const ReplayJob &)>;

/**
 * Threads each cell of a @p cells-cell sweep gets out of @p threads:
 * threads / cells, and at least one.
 */
unsigned cellThreads(unsigned threads, std::size_t cells);

/**
 * Block shards replayTrace() splits @p job into, over a trace of
 * @p records records, for a cell with @p threads threads: job.shards
 * when set, else one per thread but no more than one per ~64k
 * records (below that, bank construction dominates).
 */
unsigned shardCount(const ReplayJob &job, std::size_t records,
                    unsigned threads);

/**
 * Run every job on @p threads threads (0 = defaultThreadCount()),
 * fetching traces through @p provider; result i belongs to jobs[i].
 * A cell sharded into s > 1 shards runs them as s parallelFor
 * indices on its cellThreads() share.
 */
std::vector<ReplayResult> runJobs(const std::vector<ReplayJob> &jobs,
                                  const TraceProvider &provider,
                                  unsigned threads);

/**
 * Replay one job over an already-fetched trace with @p threads
 * threads. With shardCount() > 1 the replay is block-sharded across
 * them, and the partial results are merged in shard-index order.
 */
ReplayResult replayTrace(const trace::Trace &t, const ReplayJob &job,
                         unsigned threads = 1);

} // namespace cosmos::replay

#endif // COSMOS_REPLAY_SWEEP_HH
