/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * The benchmark wraps its calls into each cosmos layer (one call per
 * iteration, chunk, cell or pass -- never per message) in a Scope.
 * Spans stay in memory with their parent and are written once, at
 * exit, as Chrome trace-event JSON (chrome://tracing, Perfetto).
 * Span names are "<layer>.<function>"; a layer's self time is the
 * summed duration of its spans minus the time their child spans
 * cover.
 */

#ifndef COSMOS_PERFBENCH_TRACER_HH
#define COSMOS_PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    const char *name;       ///< "<layer>.<function>", a string literal
    std::uint64_t startNs;  ///< since the tracer's epoch
    std::uint64_t endNs;
    std::int32_t parent;    ///< index into spans(); -1 for a root
};

class Tracer
{
  public:
    Tracer();

    /** Spans are recorded only while enabled. */
    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span nested in the innermost open one; -1 when off. */
    std::int32_t begin(const char *name);
    /** Close the span @p id returned by begin() (no-op for -1). */
    void end(std::int32_t id);

    /** Self time in seconds, summed per span name. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Self time in seconds, summed per layer (name up to the dot). */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Durations in milliseconds of every span called @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    std::uint64_t nowNs() const;

    bool enabled_ = false;
    std::int32_t open_ = -1;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
};

/** RAII span over the enclosing scope. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : tracer_(t), id_(t.begin(name)) {}
    ~Scope() { tracer_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    std::int32_t id_;
};

} // namespace perfbench

#endif // COSMOS_PERFBENCH_TRACER_HH
