/** @file Fork-join loops: the replay engine's one parallel primitive. */

#ifndef COSMOS_REPLAY_PARALLEL_FOR_HH
#define COSMOS_REPLAY_PARALLEL_FOR_HH

#include <cstddef>
#include <functional>

namespace cosmos::replay
{

/**
 * Run fn(0) .. fn(n-1) on @p threads threads counting the caller (so
 * 0 or 1 is serial): min(threads, n) - 1 new threads drain one atomic
 * index with the caller and are joined, then the first exception any
 * call threw is rethrown. A nested call starts its own threads.
 */
void parallelFor(unsigned threads, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** COSMOS_THREADS if a positive integer (max 256), else core count. */
unsigned defaultThreadCount();

} // namespace cosmos::replay

#endif // COSMOS_REPLAY_PARALLEL_FOR_HH
