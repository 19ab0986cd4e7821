/**
 * @file
 * The repo benchmark: host throughput of the paths users wait on,
 * checked against pinned outputs, with per-layer timings from a
 * separate traced run. README.md explains the workloads and metrics;
 * run.py builds this program and is the command to run.
 *
 *   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out FILE] [--plant-mismatch]
 *
 * Untraced (--trace 0): set up, run one reference pass through the
 * layer-by-layer driver, then time passes through the harness entry
 * points the CLI uses for S seconds, sampling more set-ups between
 * them. Every pass's counters must equal the reference, and at the
 * pinned seed the reference must equal the goldens. Prints the
 * end-to-end metrics, with host times scaled by a host-speed probe
 * that runs after every pass (HostProbe).
 *
 * Traced (--trace 1): one harness pass is the reference; then
 * layer-by-layer passes alternate with spans on and off for S
 * seconds. Prints the per-layer metrics and writes the spans as
 * Chrome trace-event JSON to --trace-out.
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics. A mismatch or a trapped panic is a failed
 * operation and makes the exit status 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/log.hh"
#include "cosmos/cosmos_predictor.hh"
#include "cosmos/predictor_bank.hh"
#include "forge/score.hh"
#include "forge/synth.hh"
#include "golden_accuracy.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "harness/traffic.hh"
#include "model/explorer.hh"
#include "model/stepper.hh"
#include "obs/metrics.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"
#include "sim/event_queue.hh"
#include "trace/pattern_census.hh"
#include "tracer.hh"
#include "workloads/workload.hh"

namespace perfbench
{
namespace
{

using namespace cosmos;
using Clock = std::chrono::steady_clock;

/** The repo's pinned simulation seed (RunConfig and CLI default). */
constexpr std::uint64_t pinned_seed = 0x5eedc05305ULL;
/** `cosmos run` scores with depth 2, filter 0 by default. */
const pred::CosmosConfig cli_config{2, 0};
/** `cosmos run --forge blocks=16384,phase=8 --iterations 800`. */
const char *const forge_spec = "blocks=16384,phase=8";
constexpr int forge_iterations = 800;
constexpr std::size_t forge_chunk = 2048; // the CLI's --chunk default

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/**
 * Host-speed probe: two fixed kernels whose time follows how hard the
 * other tenants of a shared host are using its cores, caches and
 * memory. One walks a 32 MiB single-cycle permutation, so every hop
 * is a dependent cache or TLB miss. The other is a small event
 * simulation: a binary-heap queue feeding a hash map that is built
 * afresh on every call, so it allocates, branches and misses like
 * the simulator does. Both are the benchmark's own code, so a change
 * to src/ cannot move them. Host times are reported scaled to
 * reference_s, the probe's time on a quiet host.
 */
class HostProbe
{
  public:
    /** Probe time the host times are scaled to (about a quiet run of
     *  the 4-vCPU VM in README.md's baseline). */
    static constexpr double reference_s = 0.090;
    static constexpr std::size_t bytes = std::size_t{32} << 20;

    HostProbe() : next_(bytes / sizeof(std::uint32_t))
    {
        // Sattolo's shuffle: one cycle through every slot.
        for (std::size_t i = 0; i < next_.size(); ++i)
            next_[i] = static_cast<std::uint32_t>(i);
        std::uint64_t x = 0x9e3779b97f4a7c15ULL;
        for (std::size_t i = next_.size() - 1; i > 0; --i) {
            x = xorshift(x);
            std::swap(next_[i], next_[x % i]);
        }
        run(); // fault the pages in and warm the TLB
    }

    /** Run both kernels once; returns their seconds. */
    double run()
    {
        const auto t0 = Clock::now();
        std::uint32_t at = 0;
        for (int i = 0; i < 400000; ++i)
            at = next_[at];

        std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                            std::greater<>>
            queue;
        std::unordered_map<std::uint64_t, std::uint64_t> table;
        table.reserve(std::size_t{1} << 16);
        for (std::uint64_t t = 0; t < 64; ++t)
            queue.push(t);
        std::uint64_t x = 0x2545f4914f6cdd1dULL;
        for (int i = 0; i < 300000; ++i) {
            const std::uint64_t t = queue.top();
            queue.pop();
            x = xorshift(x);
            table[x & 0xffff] += t;
            queue.push(t + 1 + x % 97);
        }
        sink_ = at + table.size();
        return secondsSince(t0);
    }

  private:
    static std::uint64_t xorshift(std::uint64_t x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        return x ^ (x << 17);
    }

    std::vector<std::uint32_t> next_;
    volatile std::uint64_t sink_ = 0;
};

/** Named output counters of one pass, in a fixed order. */
using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

std::uint64_t
get(const Counters &c, const std::string &name)
{
    for (const auto &[n, v] : c)
        if (n == name)
            return v;
    return 0;
}

/** The first difference between two counter lists, or "". */
std::string
firstDifference(const Counters &got, const Counters &want)
{
    if (got.size() != want.size())
        return "counter lists differ in length (" +
               std::to_string(got.size()) + " vs " +
               std::to_string(want.size()) + ")";
    for (std::size_t i = 0; i < got.size(); ++i)
        if (got[i] != want[i])
            return got[i].first + " = " + std::to_string(got[i].second) +
                   ", expected " + want[i].first + " = " +
                   std::to_string(want[i].second);
    return "";
}

/** Every golden name must be present in @p got with its value. */
std::string
goldenDifference(const Counters &got, const Counters &golden)
{
    for (const auto &[name, want] : golden) {
        const auto it = std::find_if(
            got.begin(), got.end(),
            [&](const auto &p) { return p.first == name; });
        if (it == got.end())
            return "golden counter " + name + " missing";
        if (it->second != want)
            return name + " = " + std::to_string(it->second) +
                   ", golden " + std::to_string(want);
    }
    return "";
}

/** One pass of a workload: its timed seconds, the messages (or
 *  model transitions) it completed, and its output counters. */
struct PassResult
{
    double seconds = 0;
    std::uint64_t work = 0;
    Counters counters;
    /** Layer numbers the counters do not carry (traced run only). */
    std::map<std::string, double> layer;
};

/** One benchmark workload. */
struct Workload
{
    /** One full set-up; the untraced run repeats it and reports the
     *  median. */
    std::function<void()> setUp;
    /** One pass through the harness entry points the CLI uses. */
    std::function<PassResult()> harnessPass;
    /** The same work through the layers' public functions, with a
     *  span around each call (recorded while the tracer is on). */
    std::function<PassResult()> layeredPass;
    /** Expected counters at the pinned seed (a subset by name). */
    Counters golden;
    /** The golden holds at every seed (the model has no input). */
    bool goldenAtAnySeed = false;
};

// ---------------------------------------------------------------
// Counter extraction shared by the harness and layered drivers.

void
addSimCounters(Counters &c, const std::string &p,
               const harness::RunResult &r)
{
    c.emplace_back(p + "records", r.trace.records.size());
    c.emplace_back(p + "events", r.events);
    c.emplace_back(p + "sim_time_ns", r.finalTime);
    c.emplace_back(p + "net_messages",
                   r.network.remoteMessages + r.network.localMessages);
    c.emplace_back(p + "net_local_messages", r.network.localMessages);
    c.emplace_back(p + "misses",
                   r.totals.readMisses + r.totals.writeMisses +
                       r.totals.upgrades);
    c.emplace_back(p + "invals_sent", r.totals.invalsSent);
}

void
addAccuracyCounters(Counters &c, const std::string &p,
                    const pred::AccuracyTracker &a)
{
    c.emplace_back(p + "cache_hits", a.cacheSide().hits);
    c.emplace_back(p + "cache_lookups", a.cacheSide().total);
    c.emplace_back(p + "dir_hits", a.directorySide().hits);
    c.emplace_back(p + "dir_lookups", a.directorySide().total);
    c.emplace_back(p + "cold_misses", a.coldMisses());
}

/** The accuracy counters of one pinned Table 5/6 cell. */
void
addGoldenRow(Counters &c, const std::string &p,
             const fixtures::GoldenAccuracyRow &row)
{
    c.emplace_back(p + "cache_hits", row.cacheHits);
    c.emplace_back(p + "cache_lookups", row.cacheTotal);
    c.emplace_back(p + "dir_hits", row.dirHits);
    c.emplace_back(p + "dir_lookups", row.dirTotal);
    c.emplace_back(p + "cold_misses", row.coldMisses);
}

/** Sum every "<prefix>.<name>" counter into a "<name>" total. */
void
addTotals(Counters &c, const std::vector<std::string> &names)
{
    for (const std::string &n : names) {
        std::uint64_t sum = 0;
        for (const auto &[name, v] : c)
            if (name.size() > n.size() &&
                name.compare(name.size() - n.size() - 1, n.size() + 1,
                             "." + n) == 0)
                sum += v;
        c.emplace_back(n, sum);
    }
}

const std::vector<std::string> sim_totals = {
    "records",     "events",       "sim_time_ns",
    "net_messages", "net_local_messages", "misses",
    "invals_sent"};
const std::vector<std::string> accuracy_totals = {
    "cache_hits", "cache_lookups", "dir_hits", "dir_lookups",
    "cold_misses"};

void
addMemory(PassResult &r, const pred::PredictorBank &bank)
{
    const pred::MemoryStats m = bank.memoryStats();
    r.layer["cosmos.mhr_entries"] += static_cast<double>(m.mhrEntries);
    r.layer["cosmos.pht_entries"] += static_cast<double>(m.phtEntries);
    for (NodeId n = 0; n < bank.numNodes(); ++n)
        for (auto role : {proto::Role::cache, proto::Role::directory})
            r.layer["cosmos.table_bytes"] += static_cast<double>(
                static_cast<const pred::CosmosPredictor &>(
                    bank.predictor(n, role))
                    .tableStats()
                    .arenaBytesUsed);
}

// ---------------------------------------------------------------
// paper5: `cosmos run <app>` for the five paper applications.

/** Simulated outputs of the five default-size runs at the pinned
 *  seed. Like the Table 5 goldens they move only when the modelled
 *  machine or a kernel changes, never with a host-speed change. */
struct PinnedRun
{
    const char *app;
    std::uint64_t records;
    std::uint64_t simTimeNs;
    std::uint64_t netMessages;
};
constexpr PinnedRun pinned_paper_runs[] = {
    {"appbt", 147644, 2299699, 165644},
    {"barnes", 228170, 8332805, 262676},
    {"dsmc", 275062, 6875457, 308530},
    {"moldyn", 730160, 11668731, 821276},
    {"unstructured", 161912, 4040946, 184188},
};

harness::RunConfig
paperConfig(const std::string &app, std::uint64_t seed)
{
    harness::RunConfig cfg; // as the CLI's makeRunConfig builds it
    cfg.app = app;
    cfg.seed = seed;
    cfg.checkInvariants = false;
    return cfg;
}

Workload
paper5(std::uint64_t seed, Tracer &tr)
{
    Workload w;
    w.setUp = [seed] {
        for (const std::string &app : wl::paperWorkloads()) {
            const harness::RunConfig cfg = paperConfig(app, seed);
            proto::Machine machine(cfg.machine);
            auto workload = wl::makeWorkload(app);
            workload->setup(machine.addrMap(), machine.numNodes(), seed);
        }
    };
    w.harnessPass = [seed] {
        PassResult r;
        const auto t0 = Clock::now();
        for (const std::string &app : wl::paperWorkloads()) {
            const auto result = harness::runWorkload(paperConfig(app, seed));
            pred::PredictorBank bank(result.trace.numNodes, cli_config);
            bank.replay(result.trace);
            addSimCounters(r.counters, app + ".", result);
            addAccuracyCounters(r.counters, app + ".", bank.accuracy());
            r.work += result.trace.records.size();
        }
        r.seconds = secondsSince(t0);
        addTotals(r.counters, sim_totals);
        addTotals(r.counters, accuracy_totals);
        return r;
    };
    // harness::runWorkload and the CLI's replay, one layer per call.
    w.layeredPass = [seed, &tr] {
        PassResult r;
        const auto t0 = Clock::now();
        Scope pass(tr, "bench.pass");
        for (const std::string &app : wl::paperWorkloads()) {
            Scope app_span(tr, "bench.app");
            const harness::RunConfig cfg = paperConfig(app, seed);
            harness::RunResult result;
            proto::Machine machine(cfg.machine);
            runtime::Runtime rt(machine);
            auto workload = wl::makeWorkload(app);
            workload->setup(machine.addrMap(), machine.numNodes(), seed);
            const auto &info = workload->info();
            trace::TraceRecorder recorder(result.trace,
                                          info.warmupIterations);
            machine.addObserver(&recorder);
            for (int iter = 0; iter < info.iterations; ++iter) {
                machine.setIteration(iter);
                runtime::ProgramBuilder builder(machine.numNodes());
                {
                    Scope s(tr, "workloads.emitIteration");
                    workload->emitIteration(iter, builder);
                }
                Scope s(tr, "runtime.runPrograms");
                rt.runPrograms(builder.take());
            }
            result.network = machine.networkStats();
            result.totals = harness::collectTotals(machine);
            result.finalTime = machine.eventQueue().now();
            result.events = machine.eventQueue().executed();

            pred::PredictorBank bank(machine.numNodes(), cli_config);
            {
                Scope s(tr, "cosmos.replay");
                bank.replay(result.trace);
            }
            addMemory(r, bank);
            addSimCounters(r.counters, app + ".", result);
            addAccuracyCounters(r.counters, app + ".", bank.accuracy());
            r.work += result.trace.records.size();
        }
        r.seconds = secondsSince(t0);
        addTotals(r.counters, sim_totals);
        addTotals(r.counters, accuracy_totals);
        return r;
    };
    for (const PinnedRun &run : pinned_paper_runs) {
        const std::string p = std::string(run.app) + ".";
        w.golden.emplace_back(p + "records", run.records);
        w.golden.emplace_back(p + "sim_time_ns", run.simTimeNs);
        w.golden.emplace_back(p + "net_messages", run.netMessages);
    }
    for (const auto &row : fixtures::golden_accuracy_rows)
        if (row.depth == cli_config.depth &&
            row.filterMax == cli_config.filterMax)
            addGoldenRow(w.golden, std::string(row.app) + ".", row);
    return w;
}

// ---------------------------------------------------------------
// replay-grid: the Table 5/6 depth x filter grid over five traces.

std::vector<replay::ReplayJob>
gridJobs(std::uint64_t seed)
{
    std::vector<replay::ReplayJob> jobs;
    for (const auto &row : fixtures::golden_accuracy_rows)
        jobs.push_back({.app = row.app,
                        .seed = seed,
                        .config = pred::CosmosConfig{row.depth,
                                                     row.filterMax}});
    return jobs;
}

std::string
cellPrefix(const replay::ReplayJob &job)
{
    return job.app + ".d" + std::to_string(job.config.depth) + "f" +
           std::to_string(job.config.filterMax) + ".";
}

harness::SweepOptions
gridOptions()
{
    // No more workers than the host has, and at most four.
    return {.threads = std::clamp(std::thread::hardware_concurrency(),
                                  1u, 4u)};
}

Workload
replayGrid(std::uint64_t seed, Tracer &tr)
{
    Workload w;
    w.setUp = [seed, &tr] {
        harness::clearTraceCache();
        for (const std::string &app : wl::paperWorkloads()) {
            Scope s(tr, "harness.cachedTrace");
            harness::cachedTrace(app, -1, OwnerReadPolicy::half_migratory,
                                 seed);
        }
    };
    const auto jobs = std::make_shared<std::vector<replay::ReplayJob>>(
        gridJobs(seed));
    const auto messages = [jobs] {
        std::uint64_t n = 0;
        for (const auto &job : *jobs)
            n += harness::cachedTrace(job.app, -1, job.policy, job.seed)
                     .records.size();
        return n;
    };
    const auto counters = [jobs, seed](const auto &accuracyAt) {
        std::uint64_t records = 0; // the five traces' size
        for (const std::string &app : wl::paperWorkloads())
            records += harness::cachedTrace(app, -1,
                                            OwnerReadPolicy::half_migratory,
                                            seed)
                           .records.size();
        Counters c{{"records", records}};
        for (std::size_t i = 0; i < jobs->size(); ++i)
            addAccuracyCounters(c, cellPrefix((*jobs)[i]), accuracyAt(i));
        addTotals(c, accuracy_totals);
        return c;
    };
    w.harnessPass = [jobs, messages, counters] {
        PassResult r;
        const auto t0 = Clock::now();
        const auto results = harness::runSweep(*jobs, gridOptions());
        r.seconds = secondsSince(t0);
        r.work = messages();
        r.counters = counters([&](std::size_t i) -> const auto & {
            return results[i].accuracy;
        });
        return r;
    };
    // Serial single-thread batched replay of every cell (the replay
    // layer's base), then the sharded sweep with pool counters on.
    w.layeredPass = [jobs, messages, counters, &tr] {
        PassResult r;
        const auto t0 = Clock::now();
        Scope pass(tr, "bench.pass");
        std::vector<pred::AccuracyTracker> serial;
        {
            Scope grid(tr, "bench.serialGrid");
            for (const auto &job : *jobs) {
                const trace::Trace &t = harness::cachedTrace(
                    job.app, job.iterations, job.policy, job.seed);
                pred::PredictorBank bank(t.numNodes, job.config);
                {
                    Scope s(tr, "cosmos.replay");
                    bank.replayBatched(t);
                }
                addMemory(r, bank);
                serial.push_back(bank.accuracy());
            }
        }
        obs::Registry reg;
        harness::SweepOptions opts = gridOptions();
        opts.metrics = &reg;
        {
            Scope s(tr, "replay.runSweep");
            harness::runSweep(*jobs, opts);
        }
        r.seconds = secondsSince(t0);
        r.work = messages();
        r.counters = counters(
            [&](std::size_t i) -> const auto & { return serial[i]; });
        const auto vol = obs::Stability::volatile_;
        r.layer["replay.tasks"] = static_cast<double>(
            reg.counter("replay.pool.tasks_submitted", vol).value());
        r.layer["replay.steals"] = static_cast<double>(
            reg.counter("replay.pool.steals", vol).value());
        r.layer["replay.idle_waits"] = static_cast<double>(
            reg.counter("replay.pool.idle_waits", vol).value());
        return r;
    };
    std::uint64_t pinned_records = 0;
    for (const PinnedRun &run : pinned_paper_runs)
        pinned_records += run.records;
    w.golden.emplace_back("records", pinned_records);
    for (std::size_t i = 0; i < jobs->size(); ++i)
        addGoldenRow(w.golden, cellPrefix((*jobs)[i]),
                     fixtures::golden_accuracy_rows[i]);
    return w;
}

// ---------------------------------------------------------------
// forge-phase: `cosmos run --forge blocks=16384,phase=8
// --iterations 800`.

forge::ForgeParams
forgeParams(std::uint64_t seed)
{
    forge::ForgeParams params;
    std::string err;
    if (!forge::ForgeParams::parse(forge_spec, params, &err))
        cosmos_panic("bad forge spec: ", err);
    // The CLI seeds the machine with --seed and the forge from its
    // spec; at the pinned seed the XOR leaves the spec's default.
    params.seed ^= seed ^ pinned_seed;
    return params;
}

harness::TrafficConfig
forgeConfig(const forge::ForgeParams &params, std::uint64_t seed)
{
    harness::TrafficConfig cfg; // as the CLI's cmdRunTraffic builds it
    cfg.machine.seed = seed;
    cfg.machine.numNodes = params.numProcs;
    cfg.machine.blockBytes = params.blockBytes;
    cfg.machine.pageBytes = params.pageBytes;
    cfg.opsPerIteration = forge_chunk;
    cfg.maxIterations = forge_iterations;
    return cfg;
}

void
addClassCounters(Counters &c, const forge::ClassScore &s)
{
    const std::string p = std::string(forge::toString(s.cls)) + ".";
    c.emplace_back(p + "blocks", s.blocks);
    c.emplace_back(p + "records", s.records);
    addAccuracyCounters(c, p, s.accuracy);
    c.emplace_back(p + "census_seen", s.censusSeen);
    c.emplace_back(p + "census_agree", s.censusAgree);
}

Counters
forgeCounters(const harness::RunResult &result,
              const forge::ForgeScore &score)
{
    Counters c;
    for (const forge::ClassScore &s : score.classes)
        addClassCounters(c, s);
    addSimCounters(c, "", result);
    addAccuracyCounters(c, "", score.total);
    return c;
}

Workload
forgePhase(std::uint64_t seed, Tracer &tr)
{
    Workload w;
    w.setUp = [seed] {
        const forge::ForgeParams params = forgeParams(seed);
        forge::SynthSource source(params);
        proto::Machine machine(forgeConfig(params, seed).machine);
    };
    w.harnessPass = [seed] {
        const forge::ForgeParams params = forgeParams(seed);
        forge::SynthSource source(params);
        PassResult r;
        const auto t0 = Clock::now();
        const auto result =
            harness::runTraffic(forgeConfig(params, seed), source);
        const auto score = forge::scoreByClass(result.trace, source,
                                               cli_config);
        r.seconds = secondsSince(t0);
        r.work = result.trace.records.size();
        r.counters = forgeCounters(result, score);
        return r;
    };
    // harness::runTraffic and forge::scoreByClass, one layer per call.
    w.layeredPass = [seed, &tr] {
        const forge::ForgeParams params = forgeParams(seed);
        forge::SynthSource source(params);
        const harness::TrafficConfig cfg = forgeConfig(params, seed);
        PassResult r;
        const auto t0 = Clock::now();
        Scope pass(tr, "bench.pass");
        proto::Machine machine(cfg.machine);
        runtime::Runtime rt(machine);
        harness::RunResult result;
        result.trace.numNodes = machine.numNodes();
        trace::TraceRecorder recorder(result.trace, cfg.warmupIterations);
        machine.addObserver(&recorder);
        std::vector<forge::Access> chunk;
        for (int iter = 0; iter < cfg.maxIterations; ++iter) {
            {
                Scope s(tr, "forge.next");
                if (source.next(chunk, cfg.opsPerIteration) == 0)
                    break;
            }
            machine.setIteration(iter);
            runtime::ProgramBuilder builder(machine.numNodes());
            for (const forge::Access &a : chunk) {
                if (a.write)
                    builder.proc(a.proc).write(a.addr);
                else
                    builder.proc(a.proc).read(a.addr);
            }
            builder.barrier();
            Scope s(tr, "runtime.runPrograms");
            rt.runPrograms(builder.take());
        }
        result.network = machine.networkStats();
        result.totals = harness::collectTotals(machine);
        result.finalTime = machine.eventQueue().now();
        result.events = machine.eventQueue().executed();

        forge::ForgeScore score;
        score.classes.resize(forge::num_block_classes);
        for (unsigned i = 0; i < forge::num_block_classes; ++i)
            score.classes[i].cls = static_cast<forge::BlockClass>(i);
        for (forge::BlockClass c : source.labels())
            ++score.classes[static_cast<unsigned>(c)].blocks;
        std::vector<std::vector<const trace::TraceRecord *>> slices(
            forge::num_block_classes);
        for (const auto &rec : result.trace.records)
            slices[static_cast<unsigned>(source.labelOfAddr(rec.block))]
                .push_back(&rec);
        for (unsigned i = 0; i < forge::num_block_classes; ++i) {
            forge::ClassScore &c = score.classes[i];
            c.records = slices[i].size();
            if (slices[i].empty())
                continue;
            pred::PredictorBank bank(result.trace.numNodes, cli_config);
            {
                Scope s(tr, "cosmos.replay");
                bank.replay(slices[i]);
            }
            addMemory(r, bank);
            c.accuracy.merge(bank.accuracy());
            score.total.merge(bank.accuracy());
        }
        std::map<Addr, trace::SharingPattern> census;
        {
            Scope s(tr, "trace.classifyBlocks");
            census = trace::classifyBlocks(result.trace);
        }
        for (const auto &[block, pattern] : census) {
            forge::ClassScore &c = score.classes[static_cast<unsigned>(
                source.labelOfAddr(block))];
            ++c.censusSeen;
            c.censusAgree += pattern == forge::expectedPattern(c.cls);
        }
        r.seconds = secondsSince(t0);
        r.work = result.trace.records.size();
        r.counters = forgeCounters(result, score);
        return r;
    };
    // Simulated outputs at the pinned seed (48.2% overall accuracy).
    w.golden = {{"records", 1991040},      {"sim_time_ns", 30545576},
                {"net_messages", 2125000}, {"cache_hits", 554920},
                {"cache_lookups", 769758}, {"dir_hits", 280575},
                {"dir_lookups", 963180}};
    return w;
}

// ---------------------------------------------------------------
// model-3n2b-fwd: `cosmos model --nodes 3 --blocks 2 --forwarding`.

model::ExploreOptions
modelOptions()
{
    model::ExploreOptions opt;
    opt.mc.numNodes = 3;
    opt.mc.numBlocks = 2;
    opt.mc.forwarding = true;
    return opt;
}

PassResult
explorePass(Tracer &tr)
{
    const model::ExploreOptions opt = modelOptions();
    PassResult r;
    const auto t0 = Clock::now();
    model::ExploreResult res;
    {
        Scope s(tr, "model.explore");
        res = model::explore(opt);
    }
    r.seconds = secondsSince(t0);
    r.work = res.transitions;
    r.counters = {{"states", res.states},
                  {"transitions", res.transitions},
                  {"max_depth", res.maxDepth},
                  {"deadlocks", res.deadlocks},
                  {"failed_steps", res.failedSteps},
                  {"counterexamples", res.counterexamples.size()},
                  {"complete", res.complete},
                  {"consistent", res.consistent()}};
    return r;
}

Workload
model3n2bFwd(Tracer &tr)
{
    Workload w;
    w.setUp = [] { model::Stepper stepper(modelOptions().mc); };
    // The CLI calls model::explore directly: both drivers are that
    // one call (the traced one inside a span).
    w.harnessPass = [] {
        Tracer off;
        return explorePass(off);
    };
    w.layeredPass = [&tr] { return explorePass(tr); };
    w.golden = {{"states", 276396},     {"transitions", 971246},
                {"deadlocks", 0},        {"failed_steps", 0},
                {"counterexamples", 0},  {"complete", 1},
                {"consistent", 1}};
    w.goldenAtAnySeed = true;
    return w;
}

// ---------------------------------------------------------------
// Layer probes: fixed-size loops over one layer's public functions.

/** Run @p body until @p seconds elapse; returns (iterations, s). */
template <typename F>
std::pair<std::uint64_t, double>
probeLoop(double seconds, F &&body)
{
    std::uint64_t n = 0;
    const auto t0 = Clock::now();
    double elapsed = 0;
    do {
        body();
        ++n;
        elapsed = secondsSince(t0);
    } while (elapsed < seconds);
    return {n, elapsed};
}

/** EventQueue::scheduleAt/run throughput (bench_microperf's
 *  BM_EventQueue loop). */
double
probeEventQueue(double seconds)
{
    std::uint64_t fired = 0;
    const auto [n, s] = probeLoop(seconds, [&] {
        sim::EventQueue eq;
        for (int i = 0; i < 1024; ++i)
            eq.scheduleAt(static_cast<Tick>(i * 7 % 97),
                          [&fired] { ++fired; });
        eq.run();
    });
    return ratio(static_cast<double>(fired), s);
}

/** Two caches alternately writing one block, each access drained
 *  (bench_microperf's BM_ProtocolPingPong loop); 0 when an access
 *  failed to complete. */
double
probePingPong(double seconds)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    const Addr block = cfg.pageBytes; // homed at node 1
    NodeId writer = 2;
    std::uint64_t done = 0;
    const auto [n, s] = probeLoop(seconds, [&] {
        m.cache(writer).access(block, true, [&done] { ++done; });
        m.eventQueue().run();
        writer = writer == 2 ? 3 : 2;
    });
    return done == n ? ratio(static_cast<double>(n), s) : 0.0;
}

/** Machine::snapshot + restore on the model's 3-node, 2-block
 *  machine with both blocks shared. */
double
probeSnapshotRestore(double seconds)
{
    const model::ModelConfig mc = modelOptions().mc;
    proto::Machine m(mc.machineConfig());
    for (unsigned b = 0; b < mc.numBlocks; ++b)
        for (NodeId n = 0; n < mc.numNodes; ++n) {
            m.cache(n).access(mc.blockAddr(b), n == b, [] {});
            m.eventQueue().run();
        }
    proto::MachineSnapshot snap;
    const auto [n, s] = probeLoop(seconds, [&] {
        m.snapshot(snap);
        m.restore(snap);
    });
    return ratio(s * 1e9, static_cast<double>(n));
}

// ---------------------------------------------------------------
// The run: options, checks, metrics, output.

struct Options
{
    std::string workload;
    std::uint64_t seed = pinned_seed;
    double seconds = 10;
    bool traced = false;
    std::string traceOut;
    bool plantMismatch = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper5|replay-grid|forge-phase|model-3n2b-fwd "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--trace-out FILE] [--plant-mismatch]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + flag).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value();
        } else if (flag == "--seed") {
            const std::string v = value();
            o.seed = std::strtoull(v.c_str(), &end, 0);
            if (v.empty() || *end != '\0')
                usage("bad --seed");
        } else if (flag == "--seconds") {
            const std::string v = value();
            o.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(o.seconds > 0))
                usage("bad --seconds");
        } else if (flag == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.traced = v == "1";
        } else if (flag == "--trace-out") {
            o.traceOut = value();
        } else if (flag == "--plant-mismatch") {
            o.plantMismatch = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    return o;
}

class Run
{
  public:
    explicit Run(Options opt) : opt_(std::move(opt)) {}

    int main();

  private:
    /** Count one checked operation; @p diff is "" when it passed. */
    void verdict(const std::string &what, const std::string &diff);
    /** Run @p pass, counting a trapped panic as a failed operation. */
    bool guarded(const std::string &what,
                 const std::function<PassResult()> &pass,
                 PassResult &out);
    void checkPass(const std::string &what, PassResult p,
                   const PassResult &ref);
    void checkGolden(const Workload &w, const PassResult &ref);
    void metric(const std::string &name, double value,
                const std::string &unit);
    void describe(const PassResult &ref) const;

    void untraced(Workload &w);
    void traced(Workload &w);

    Options opt_;
    Tracer tracer_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool planted_ = false;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics_;
};

void
Run::verdict(const std::string &what, const std::string &diff)
{
    ++attempted_;
    if (diff.empty())
        return;
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", what.c_str(),
                 diff.c_str());
}

bool
Run::guarded(const std::string &what,
             const std::function<PassResult()> &pass, PassResult &out)
{
    try {
        FailureTrap trap;
        out = pass();
        return true;
    } catch (const RecoverableError &e) {
        verdict(what, std::string("trapped panic: ") + e.what() + " (" +
                          e.file() + ":" + std::to_string(e.line()) +
                          ")");
        return false;
    }
}

void
Run::checkPass(const std::string &what, PassResult p,
               const PassResult &ref)
{
    if (opt_.plantMismatch && !planted_ && !p.counters.empty()) {
        p.counters.front().second += 1;
        planted_ = true;
    }
    verdict(what, firstDifference(p.counters, ref.counters));
}

void
Run::checkGolden(const Workload &w, const PassResult &ref)
{
    if (w.golden.empty() ||
        (!w.goldenAtAnySeed && opt_.seed != pinned_seed))
        return;
    verdict("golden check of the reference pass",
            goldenDifference(ref.counters, w.golden));
}

void
Run::metric(const std::string &name, double value,
            const std::string &unit)
{
    metrics_.push_back({name, {value, unit}});
}

/** Overall, cache-side and directory-side accuracy in percent. */
struct Accuracy
{
    double overall;
    double cache;
    double dir;
};

Accuracy
accuracyOf(const Counters &c)
{
    const auto n = [&](const char *name) {
        return static_cast<double>(get(c, name));
    };
    return {100.0 * ratio(n("cache_hits") + n("dir_hits"),
                          n("cache_lookups") + n("dir_lookups")),
            100.0 * ratio(n("cache_hits"), n("cache_lookups")),
            100.0 * ratio(n("dir_hits"), n("dir_lookups"))};
}

/** Human-readable summary of the reference outputs. */
void
Run::describe(const PassResult &ref) const
{
    const auto n = [&](const char *name) {
        return static_cast<unsigned long long>(get(ref.counters, name));
    };
    if (n("cache_lookups") != 0) {
        const Accuracy a = accuracyOf(ref.counters);
        std::printf("accuracy: overall %.2f%%  cache %.2f%%  directory "
                    "%.2f%%\n",
                    a.overall, a.cache, a.dir);
    }
    if (n("records") != 0)
        std::printf("messages: %llu\n", n("records"));
    if (n("sim_time_ns") != 0)
        std::printf("simulated time: %llu ns\n", n("sim_time_ns"));
    if (n("states") != 0)
        std::printf("model: %llu states, %llu transitions\n", n("states"),
                    n("transitions"));
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
Run::untraced(Workload &w)
{
    HostProbe probe;
    std::vector<double> hosts; // probe time / reference, per pass
    std::vector<double> setups;
    double setup_total = 0;
    const auto timeSetUp = [&] {
        const auto t0 = Clock::now();
        w.setUp();
        setups.push_back(secondsSince(t0));
        setup_total += setups.back();
    };
    timeSetUp();

    PassResult ref;
    if (!guarded("reference pass", w.layeredPass, ref))
        return;
    ++attempted_;
    checkGolden(w, ref);
    describe(ref);

    // Set-up is sampled in short batches between the timed passes,
    // so its median covers the same stretch of host time as the
    // throughput does; set-ups take at most a tenth of the run. The
    // probe runs right after each pass and scales that pass's rate:
    // a pass on a contended host, which reads as a slower program,
    // is followed by a slow probe.
    std::vector<double> rates, raw;
    const auto t0 = Clock::now();
    do {
        PassResult p;
        const std::string what =
            "harness pass " + std::to_string(rates.size() + 1);
        const bool ok = guarded(what, w.harnessPass, p);
        hosts.push_back(probe.run() / HostProbe::reference_s);
        if (ok) {
            raw.push_back(ratio(static_cast<double>(p.work), p.seconds));
            rates.push_back(raw.back() * hosts.back());
            checkPass(what, std::move(p), ref);
        }
        const double batch_start = setup_total;
        while (setup_total - batch_start < 0.005 &&
               setup_total < 0.1 * secondsSince(t0))
            timeSetUp();
    } while (secondsSince(t0) < opt_.seconds);

    const double host = median(hosts);
    metric("msgs_per_s", median(rates), "msg/s");
    metric("setup_s", median(setups) / host, "s");
    // The probe's permutation stays resident all run; leave it out.
    metric("peak_rss_mb",
           peakRssMiB() - static_cast<double>(HostProbe::bytes >> 20),
           "MiB");
    std::printf("passes: %zu timed (unscaled msg/s p10 %.6g, median "
                "%.6g, p90 %.6g), %zu set-ups (unscaled median %.6g s)\n",
                raw.size(), percentile(raw, 0.1), median(raw),
                percentile(raw, 0.9), setups.size(), median(setups));
    std::printf("host probe: %.4g s against %.4g s (host factor p10 "
                "%.4f, median %.4f, p90 %.4f)\n",
                host * HostProbe::reference_s, HostProbe::reference_s,
                percentile(hosts, 0.1), host, percentile(hosts, 0.9));
}

void
Run::traced(Workload &w)
{
    tracer_.setEnabled(true);
    w.setUp();
    tracer_.setEnabled(false);

    PassResult ref;
    if (!guarded("reference pass", w.harnessPass, ref))
        return;
    ++attempted_;
    checkGolden(w, ref);
    describe(ref);

    // Alternate spans on and off so both see the same host state.
    std::vector<double> on, off;
    PassResult last;
    const auto t0 = Clock::now();
    do {
        const bool spans = on.size() <= off.size();
        tracer_.setEnabled(spans);
        PassResult p;
        const std::string what = std::string("layered pass ") +
                                 (spans ? "with" : "without") + " spans";
        const bool ok = guarded(what, w.layeredPass, p);
        tracer_.setEnabled(false);
        if (!ok)
            continue;
        (spans ? on : off).push_back(p.seconds);
        last = p;
        checkPass(what, std::move(p), ref);
    } while (secondsSince(t0) < opt_.seconds ||
             (off.empty() && failed_ == 0));

    const auto self = tracer_.selfSecondsByName();
    const double passes =
        static_cast<double>(std::max<std::size_t>(on.size(), 1));
    const auto perPass = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / passes;
    };
    const auto count = [&](const char *name) {
        return static_cast<double>(get(ref.counters, name));
    };
    const auto layer = [&](const char *name) {
        const auto it = last.layer.find(name);
        return it == last.layer.end() ? 0.0 : it->second;
    };
    double serial_grid_s = 0;
    for (double ms : tracer_.durationsMs("bench.serialGrid"))
        serial_grid_s += 1e-3 * ms / passes;

    const double records = count("records");
    const double events = count("events");
    const double run_programs_s = perPass("runtime.runPrograms");
    const double replay_s = perPass("cosmos.replay");
    const double grid_s = perPass("replay.runSweep");
    const double explore_s = perPass("model.explore");
    const auto chunks = tracer_.durationsMs("runtime.runPrograms");

    metric("workloads.emit_s", perPass("workloads.emitIteration"), "s");
    metric("forge.next_s", perPass("forge.next"), "s");
    metric("runtime.run_programs_s", run_programs_s, "s");
    metric("runtime.ns_per_msg", ratio(run_programs_s * 1e9, records),
           "ns");
    metric("runtime.chunk_ms_p50", percentile(chunks, 0.5), "ms");
    metric("runtime.chunk_ms_p90", percentile(chunks, 0.9), "ms");
    metric("sim.events", events, "count");
    metric("sim.events_per_msg", ratio(events, records), "events/msg");
    metric("sim.host_ns_per_event", ratio(run_programs_s * 1e9, events),
           "ns");
    metric("sim.queue_events_per_s", probeEventQueue(0.2), "events/s");
    metric("sim.time_ns", count("sim_time_ns"), "sim_ns");
    metric("net.messages", count("net_messages"), "count");
    metric("net.local_messages", count("net_local_messages"), "count");
    const double pingpong = probePingPong(0.2);
    verdict("ping-pong probe",
            pingpong > 0 ? "" : "an access never completed");
    metric("proto.pingpong_txn_per_s", pingpong, "txn/s");
    metric("proto.snapshot_restore_ns", probeSnapshotRestore(0.2), "ns");
    metric("proto.misses", count("misses"), "count");
    metric("proto.invals_sent", count("invals_sent"), "count");
    metric("trace.records", records, "count");
    metric("trace.census_s", perPass("trace.classifyBlocks"), "s");
    metric("cosmos.replay_s", replay_s, "s");
    metric("cosmos.replay_msgs_per_s",
           ratio(static_cast<double>(last.work), replay_s), "msg/s");
    metric("cosmos.pht_entries", layer("cosmos.pht_entries"), "count");
    metric("cosmos.mhr_entries", layer("cosmos.mhr_entries"), "count");
    metric("cosmos.table_bytes", layer("cosmos.table_bytes"), "B");
    const Accuracy acc = accuracyOf(ref.counters);
    metric("cosmos.accuracy_pct", acc.overall, "%");
    metric("cosmos.accuracy_cache_pct", acc.cache, "%");
    metric("cosmos.accuracy_dir_pct", acc.dir, "%");
    metric("replay.grid_s", grid_s, "s");
    metric("replay.serial_grid_s", serial_grid_s, "s");
    metric("replay.speedup", ratio(serial_grid_s, grid_s), "x");
    metric("replay.tasks", layer("replay.tasks"), "count");
    metric("replay.steals", layer("replay.steals"), "count");
    metric("replay.idle_waits", layer("replay.idle_waits"), "count");
    const auto fill = self.find("harness.cachedTrace");
    metric("harness.trace_fill_s", fill == self.end() ? 0.0 : fill->second,
           "s");
    metric("model.explore_s", explore_s, "s");
    metric("model.states", count("states"), "count");
    metric("model.transitions", count("transitions"), "count");
    metric("model.max_depth", count("max_depth"), "count");
    metric("model.states_per_s", ratio(count("states"), explore_s),
           "states/s");
    metric("trace_overhead_pct",
           100.0 * (ratio(median(on), median(off)) - 1.0), "%");

    std::printf("self time per layer, per traced pass:");
    for (const auto &[layer_name, s] : tracer_.selfSecondsByLayer())
        std::printf(" %s %.4f s", layer_name.c_str(), s / passes);
    std::printf("\npasses: %zu with spans, %zu without\n", on.size(),
                off.size());
    if (!opt_.traceOut.empty()) {
        if (tracer_.writeChromeJson(opt_.traceOut))
            std::printf("spans written to %s\n", opt_.traceOut.c_str());
        else
            verdict("writing " + opt_.traceOut, "I/O error");
    }
}

int
Run::main()
{
    Workload w;
    if (opt_.workload == "paper5")
        w = paper5(opt_.seed, tracer_);
    else if (opt_.workload == "replay-grid")
        w = replayGrid(opt_.seed, tracer_);
    else if (opt_.workload == "forge-phase")
        w = forgePhase(opt_.seed, tracer_);
    else if (opt_.workload == "model-3n2b-fwd")
        w = model3n2bFwd(tracer_);
    else
        usage(("unknown workload '" + opt_.workload + "'").c_str());

    std::printf("perfbench: workload %s, seed %llu, %.3g s, %s\n",
                opt_.workload.c_str(),
                static_cast<unsigned long long>(opt_.seed), opt_.seconds,
                opt_.traced ? "traced" : "untraced");
    if (opt_.traced)
        traced(w);
    else
        untraced(w);

    for (const auto &[name, vu] : metrics_)
        std::printf("%-28s %.6g %s\n", name.c_str(), vu.first,
                    vu.second.c_str());
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].first.c_str(),
                    metrics_[i].second.first,
                    metrics_[i].second.second.c_str());
    std::printf("}}\n");
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::Run(perfbench::parseOptions(argc, argv)).main();
}
