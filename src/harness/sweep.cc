#include "harness/sweep.hh"

#include <set>

#include "common/log.hh"
#include "harness/trace_cache.hh"
#include "replay/parallel_for.hh"

namespace cosmos::harness
{

namespace
{

std::string
cellName(const replay::ReplayJob &job)
{
    std::string n = "sweep." + job.app + ".d" +
                    std::to_string(job.config.depth) + ".f" +
                    std::to_string(job.config.filterMax);
    if (job.config.maxPhtPerBlock != 0)
        n += ".p" + std::to_string(job.config.maxPhtPerBlock);
    if (job.maxIteration != INT32_MAX)
        n += ".i" + std::to_string(job.maxIteration);
    if (job.policy != OwnerReadPolicy::half_migratory)
        n += ".dash";
    return n;
}

} // namespace

std::vector<replay::ReplayResult>
runSweep(const std::vector<replay::ReplayJob> &jobs,
         const SweepOptions &opts)
{
    const unsigned threads =
        opts.threads != 0 ? opts.threads : replay::defaultThreadCount();
    const replay::TraceProvider fetch =
        [](const replay::ReplayJob &job) -> const trace::Trace & {
        return cachedTrace(job.app, job.iterations, job.policy, job.seed);
    };
    auto results = replay::runJobs(jobs, fetch, threads);
    if (opts.metrics != nullptr) {
        // One task per cell, plus one per shard of a sharded cell.
        // Shard counts follow the thread count, so this is volatile.
        std::uint64_t tasks = jobs.size();
        const unsigned per_cell = replay::cellThreads(threads, jobs.size());
        for (const auto &job : jobs) {
            const unsigned shards = replay::shardCount(
                job, fetch(job).records.size(), per_cell);
            tasks += shards > 1 ? shards : 0;
        }
        opts.metrics
            ->counter("replay.pool.tasks_submitted",
                      obs::Stability::volatile_)
            .add(tasks);
    }
    return results;
}

void
publishSweepMetrics(const std::vector<replay::ReplayJob> &jobs,
                    const std::vector<replay::ReplayResult> &results,
                    obs::Registry &reg)
{
    cosmos_assert(jobs.size() == results.size(),
                  "jobs/results size mismatch");
    reg.counter("sweep.cells").add(jobs.size());

    std::set<std::string> used;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        std::string base = cellName(jobs[i]);
        // Two jobs can legitimately share a configuration (e.g. a
        // shard-count study); keep their cells distinct by job index.
        if (!used.insert(base).second)
            base += ".job" + std::to_string(i);
        const replay::ReplayResult &r = results[i];

        reg.counter(base + ".lookups").add(r.accuracy.overall().total);
        reg.counter(base + ".hits").add(r.accuracy.overall().hits);
        reg.counter(base + ".cache.lookups")
            .add(r.accuracy.cacheSide().total);
        reg.counter(base + ".cache.hits")
            .add(r.accuracy.cacheSide().hits);
        reg.counter(base + ".dir.lookups")
            .add(r.accuracy.directorySide().total);
        reg.counter(base + ".dir.hits")
            .add(r.accuracy.directorySide().hits);
        reg.counter(base + ".cold_misses")
            .add(r.accuracy.coldMisses());
        reg.counter(base + ".mhr_entries").add(r.memory.mhrEntries);
        reg.counter(base + ".pht_entries").add(r.memory.phtEntries);
    }
}

} // namespace cosmos::harness
