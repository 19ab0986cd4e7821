/**
 * @file
 * One-call parallel sweeps over the standard paper traces.
 *
 * runSweep() glues the replay subsystem to the process-wide trace
 * cache: jobs fetch their traces through harness::cachedTrace (so
 * the five simulations run at most once, concurrently on first use)
 * and replay through replay::runJobs. Results are in job
 * order and bit-identical to a serial replay of each cell.
 */

#ifndef COSMOS_HARNESS_SWEEP_HH
#define COSMOS_HARNESS_SWEEP_HH

#include <vector>

#include "obs/metrics.hh"
#include "replay/sweep.hh"

namespace cosmos::harness
{

/** Knobs of one runSweep call. */
struct SweepOptions
{
    /**
     * Total threads, the calling thread included; 1 runs the sweep
     * serially on the caller. 0 resolves via COSMOS_THREADS, then
     * hardware_concurrency (replay::defaultThreadCount).
     */
    unsigned threads = 0;

    /**
     * When set, runSweep publishes execution observability here:
     * replay.pool.tasks_submitted, one task per cell plus one per
     * shard of a sharded cell, tagged volatile -- it depends on the
     * thread count, never on the simulated results.
     */
    obs::Registry *metrics = nullptr;
};

/**
 * Run every job on opts.threads threads; result i belongs to jobs[i].
 * Traces are fetched (simulating on first use) through cachedTrace.
 */
std::vector<replay::ReplayResult> runSweep(
    const std::vector<replay::ReplayJob> &jobs,
    const SweepOptions &opts = {});

/**
 * Publish one sweep's results into @p reg as stable metrics: per
 * cell (named "sweep.<app>.d<depth>.f<filter>[.i<maxIter>]",
 * deduplicated with a job-order suffix on collision), prediction
 * hits/lookups overall and per side, cold misses, and the Table 7
 * MHR/PHT entry counts. Everything here reduces deterministically,
 * so the JSON export is byte-identical across thread counts.
 */
void publishSweepMetrics(const std::vector<replay::ReplayJob> &jobs,
                         const std::vector<replay::ReplayResult> &results,
                         obs::Registry &reg);

} // namespace cosmos::harness

#endif // COSMOS_HARNESS_SWEEP_HH
