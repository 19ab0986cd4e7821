#include "harness/trace_cache.hh"

#include <cstdio>
#include <map>
#include <mutex>

namespace cosmos::harness
{

namespace
{

/**
 * One cache slot. The once-flag serializes *per key*: two workers
 * asking for the same trace never simulate it twice (the second
 * blocks until the first finishes), while requests for different
 * keys simulate fully in parallel -- the map mutex is never held
 * across a simulation.
 */
struct CacheEntry
{
    std::once_flag once;
    trace::Trace trace;
};

std::mutex cache_mutex;
// node-based map: CacheEntry references stay valid across inserts.
std::map<std::string, CacheEntry> cache;

std::string
cacheKey(const std::string &app, int iterations, OwnerReadPolicy policy,
         std::uint64_t seed)
{
    // One snprintf: this runs under the cache map mutex on every
    // fetch.
    char suffix[48];
    std::snprintf(suffix, sizeof(suffix), "_it%d_%s_s%llx", iterations,
                  policy == OwnerReadPolicy::half_migratory ? "hm"
                                                            : "dg",
                  static_cast<unsigned long long>(seed));
    return app + suffix;
}

} // namespace

const trace::Trace &
cachedTrace(const std::string &app, int iterations,
            OwnerReadPolicy policy, std::uint64_t seed)
{
    const std::string key = cacheKey(app, iterations, policy, seed);
    CacheEntry *entry;
    {
        std::lock_guard<std::mutex> guard(cache_mutex);
        entry = &cache[key];
    }

    std::call_once(entry->once, [&] {
        RunConfig cfg;
        cfg.app = app;
        cfg.iterations = iterations;
        cfg.seed = seed;
        cfg.machine.ownerReadPolicy = policy;
        // Invariants are covered by the test suite; skip them on the
        // (much longer) bench runs.
        cfg.checkInvariants = false;
        RunResult result = runWorkload(cfg);
        entry->trace = std::move(result.trace);
    });
    return entry->trace;
}

void
clearTraceCache()
{
    std::lock_guard<std::mutex> guard(cache_mutex);
    cache.clear();
}

} // namespace cosmos::harness
