#include "replay/parallel_for.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace cosmos::replay
{

void
parallelFor(unsigned threads, std::size_t n,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    std::atomic_flag failed = ATOMIC_FLAG_INIT;
    std::exception_ptr error; // set once, by the first failed index
    auto drain = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                if (!failed.test_and_set())
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::jthread> helpers; // joined even if a start throws
    while (helpers.size() + 1 < std::min<std::size_t>(threads, n))
        helpers.emplace_back(drain);
    drain();
    helpers.clear(); // joins
    if (error)
        std::rethrow_exception(error);
}

unsigned
defaultThreadCount()
{
    if (const char *env = std::getenv("COSMOS_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && v > 0)
            return static_cast<unsigned>(std::min(v, 256L));
        cosmos_warn("ignoring invalid COSMOS_THREADS value \"", env, "\"");
    }
    return std::max(std::thread::hardware_concurrency(), 1u);
}

} // namespace cosmos::replay
