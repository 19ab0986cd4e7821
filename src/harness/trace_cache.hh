/**
 * @file
 * Process-wide trace cache.
 *
 * The paper evaluates many predictor configurations over the *same*
 * traces (Tables 5-8 all reuse one set of runs), so benches fetch
 * traces through this cache: each distinct (app, iterations, policy,
 * seed) is simulated once per process.
 *
 * cachedTrace is thread-safe: a per-key once-flag guarantees one
 * simulation per key even under concurrent fetches, and distinct
 * keys simulate in parallel.
 */

#ifndef COSMOS_HARNESS_TRACE_CACHE_HH
#define COSMOS_HARNESS_TRACE_CACHE_HH

#include <string>

#include "harness/experiment.hh"
#include "trace/trace.hh"

namespace cosmos::harness
{

/**
 * Fetch (simulating on first use) the trace of a standard paper run.
 *
 * @param app         workload name ("appbt", ... )
 * @param iterations  traced iterations; -1 = workload default
 * @param policy      owner-read policy of the protocol
 * @param seed        simulation seed
 */
const trace::Trace &cachedTrace(
    const std::string &app, int iterations = -1,
    OwnerReadPolicy policy = OwnerReadPolicy::half_migratory,
    std::uint64_t seed = 0x5eedc05305ULL);

/**
 * Drop all in-memory cached traces (tests use this). Not safe
 * concurrently with in-flight cachedTrace calls, whose references
 * it would invalidate.
 */
void clearTraceCache();

} // namespace cosmos::harness

#endif // COSMOS_HARNESS_TRACE_CACHE_HH
