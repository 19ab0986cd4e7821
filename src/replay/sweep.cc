#include "replay/sweep.hh"

#include <algorithm>

#include "cosmos/predictor_bank.hh"
#include "obs/trace_event.hh"
#include "replay/parallel_for.hh"
#include "replay/sharding.hh"

namespace cosmos::replay
{

namespace
{

ReplayResult
extract(const pred::PredictorBank &bank)
{
    ReplayResult r;
    r.accuracy = bank.accuracy();
    r.cacheArcs = bank.arcs(proto::Role::cache);
    r.directoryArcs = bank.arcs(proto::Role::directory);
    r.memory = bank.memoryStats();
    return r;
}

} // namespace

void
ReplayResult::merge(const ReplayResult &other)
{
    accuracy.merge(other.accuracy);
    cacheArcs.merge(other.cacheArcs);
    directoryArcs.merge(other.directoryArcs);
    memory.merge(other.memory);
}

unsigned
cellThreads(unsigned threads, std::size_t cells)
{
    return static_cast<unsigned>(
        std::max<std::size_t>(threads / std::max<std::size_t>(cells, 1), 1));
}

unsigned
shardCount(const ReplayJob &job, std::size_t records, unsigned threads)
{
    if (job.shards != 0)
        return job.shards;
    return static_cast<unsigned>(std::min<std::size_t>(
        records / 65536 + 1, std::max(threads, 1u)));
}

std::vector<ReplayResult>
runJobs(const std::vector<ReplayJob> &jobs, const TraceProvider &provider,
        unsigned threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    const unsigned per_cell = cellThreads(threads, jobs.size());
    std::vector<ReplayResult> results(jobs.size());
    parallelFor(threads, jobs.size(), [&](std::size_t i) {
        COSMOS_SPAN_ARGS("replay", "cell", "job", i);
        results[i] = replayTrace(provider(jobs[i]), jobs[i], per_cell);
    });
    return results;
}

ReplayResult
replayTrace(const trace::Trace &t, const ReplayJob &job, unsigned threads)
{
    const unsigned shards = shardCount(job, t.records.size(), threads);
    if (shards == 1) {
        COSMOS_SPAN_ARGS("replay", "shard", "records",
                         t.records.size());
        pred::PredictorBank bank(t.numNodes, job.config);
        bank.reserveFromCensus(trace::moduleBlockCensus(t));
        bank.replay(t, job.maxIteration);
        return extract(bank);
    }

    const auto parts = shardByBlock(t, shards);
    std::vector<ReplayResult> partial(parts.size());
    parallelFor(threads, parts.size(), [&](std::size_t s) {
        COSMOS_SPAN_ARGS("replay", "shard", "index", s, "records",
                         parts[s].records.size());
        pred::PredictorBank bank(t.numNodes, job.config);
        bank.reserveFromCensus(
            trace::moduleBlockCensus(parts[s].records, t.numNodes));
        bank.replay(parts[s].records, job.maxIteration);
        partial[s] = extract(bank);
    });

    // Deterministic reduction: fold in shard-index order.
    ReplayResult merged = std::move(partial.front());
    for (std::size_t s = 1; s < partial.size(); ++s)
        merged.merge(partial[s]);
    return merged;
}

} // namespace cosmos::replay
