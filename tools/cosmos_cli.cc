/**
 * @file
 * cosmos -- command-line driver for the library.
 *
 * Run `cosmos` with no arguments for the command and flag reference.
 * Both are generated from the `commands` and `flags` tables below,
 * which also drive parsing: each flag row names the commands that
 * read it, so a flag the chosen command does not read, a value out
 * of its row's range, or an unknown enum value prints the usage and
 * exits 2 before any simulation starts.
 */

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "check/fuzzer.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "lint/analyzer.hh"
#include "lint/mutate.hh"
#include "lint/report.hh"
#include "forge/score.hh"
#include "forge/synth.hh"
#include "forge/text_trace.hh"
#include "harness/traffic.hh"
#include "model/explorer.hh"
#include "model/report.hh"
#include "cosmos/predictor_bank.hh"
#include "cosmos/tuple.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"
#include "harness/accel_runner.hh"
#include "harness/experiment.hh"
#include "harness/figures.hh"
#include "harness/sweep.hh"
#include "trace/pattern_census.hh"
#include "trace/trace_io.hh"
#include "workloads/workload.hh"

namespace
{

using namespace cosmos;

struct CliArgs;

/** A command as the usage lists it: its name is the argv[1] word,
 *  plus the flag that selects a `run` traffic source. */
struct Command
{
    const char *name;
    const char *target; ///< the positional argument; nullptr: none
    unsigned bit;
    int (*run)(const CliArgs &);
};

/**
 * The parsed command line: one field per flag. The flag table sets
 * each field from its command's default, then from the command line.
 */
struct CliArgs
{
    const Command *command = nullptr;
    std::string target;

    /** Absent: the kernel's own count, or the whole trace. */
    std::optional<std::uint64_t> iterations;
    /** Absent under `run --forge`: the spec's processor count. */
    std::optional<std::uint64_t> nodes;
    std::optional<std::uint64_t> replay;
    std::uint64_t seed = 0, depth = 0, filter = 0, threads = 0;
    std::uint64_t seeds = 0, blocks = 0, ops = 0, jitter = 0;
    std::uint64_t injectIgnoreInval = 0, chunk = 0, accesses = 0;
    std::uint64_t reorder = 0, maxStates = 0, capacity = 0;
    double forgeMix = 0.0;
    bool forwarding = false, legacyForwarding = false;
    std::string policy, mutate, out, metricsOut, traceOut, replayModel;
    std::string traceFile, forgeSpec, forgeOut, counterexampleOut;

    OwnerReadPolicy
    ownerReadPolicy() const
    {
        return policy == "downgrade" ? OwnerReadPolicy::downgrade
                                     : OwnerReadPolicy::half_migratory;
    }

    /** --iterations as the harness takes it: -1 when absent. */
    int
    iterationCount() const
    {
        return iterations ? static_cast<int>(*iterations) : -1;
    }
};

/** The commands, one bit each; `run` is three, one per traffic
 *  source, because each reads different flags. */
namespace cmd
{
enum : unsigned
{
    list = 1u << 0, run = 1u << 1, run_trace = 1u << 2, run_forge = 1u << 3,
    gen = 1u << 4, analyze = 1u << 5, sweep = 1u << 6, accel = 1u << 7,
    figures = 1u << 8, census = 1u << 9, fuzz = 1u << 10, model = 1u << 11,
    lint = 1u << 12, all = (1u << 13) - 1,

    /** The commands that simulate a built-in kernel. */
    kernel = run | sweep | accel | figures | census,
    traffic = run_trace | run_forge,
    /** The commands that score one Cosmos configuration. */
    predict = run | traffic | analyze | accel | figures,
};
} // namespace cmd

/**
 * One flag as one group of commands reads it. The field's type is the
 * flag's kind: an integer in `range` (std::uint64_t, or std::optional
 * where absence means something), a fraction in `range` (double), a
 * string, an enum (a string with `choices`), or a switch (bool, no
 * `meta`). A flag whose range or default differs between commands has
 * one row per group; no command is in two rows of one flag.
 */
struct Flag
{
    using Field =
        std::variant<std::uint64_t CliArgs::*,
                     std::optional<std::uint64_t> CliArgs::*,
                     double CliArgs::*, std::string CliArgs::*,
                     bool CliArgs::*>;
    struct Range
    {
        std::uint64_t lo = 0;
        std::uint64_t hi = UINT64_MAX; ///< UINT64_MAX: no bound to show
    };

    const char *name;
    const char *meta; ///< the value's placeholder; nullptr: a switch
    Field field;
    Range range;
    const char *def; ///< the default, parsed like a given value
    unsigned commands;
    const char *help;
    const char *choices = nullptr; ///< enum: the values, `, `-separated
};

const Flag flags[] = {
    {"--iterations", "N", &CliArgs::iterations, {1, INT_MAX}, nullptr,
     cmd::kernel | cmd::run_trace,
     "kernel iterations, at least its warm-up (absent: its default), "
     "or trace chunks to replay (absent: all)"},
    {"--iterations", "N", &CliArgs::iterations, {1, INT_MAX}, "64",
     cmd::run_forge, "chunks to generate"},
    {"--seed", "S", &CliArgs::seed, {}, "0x5eedc05305",
     cmd::kernel | cmd::traffic | cmd::fuzz,
     "simulation seed; for fuzz, the campaign's first seed"},
    {"--policy", "P", &CliArgs::policy, {}, "half-migratory",
     cmd::kernel | cmd::traffic | cmd::model | cmd::lint,
     "owner-read policy of the protocol", "half-migratory, downgrade"},
    {"--depth", "N", &CliArgs::depth, {1, pred::max_mhr_depth}, "2",
     cmd::predict, "Cosmos MHR depth"},
    // The filter counts in an 8-bit saturating counter.
    {"--filter", "N", &CliArgs::filter, {0, 255}, "0", cmd::predict,
     "Cosmos filter max count (accel uses at least 1)"},
    // At most 256, the COSMOS_THREADS cap.
    {"--threads", "N", &CliArgs::threads, {0, 256}, "0", cmd::sweep,
     "threads, the caller included; 1 is serial, 0 = COSMOS_THREADS"},
    {"--out", "FILE", &CliArgs::out, {}, nullptr, cmd::run | cmd::traffic,
     "save the binary trace here instead of the accuracy summary"},
    {"--out", "FILE", &CliArgs::out, {}, nullptr, cmd::gen,
     "the text trace to write (required)"},
    {"--out", "DIR", &CliArgs::out, {}, ".", cmd::figures,
     "directory for the Graphviz files"},
    {"--out", "FILE", &CliArgs::out, {}, nullptr,
     cmd::fuzz | cmd::model | cmd::lint, "write the JSON report"},
    {"--metrics-out", "FILE", &CliArgs::metricsOut, {}, nullptr,
     cmd::run | cmd::traffic | cmd::analyze | cmd::sweep,
     "write the stable metrics as cosmos-metrics-v1 JSON"},
    {"--trace-out", "FILE", &CliArgs::traceOut, {}, nullptr, cmd::all,
     "write the command's trace events as Chrome trace-event JSON"},

    {"--trace-file", "PATH", &CliArgs::traceFile, {}, nullptr,
     cmd::run_trace, "replay a text trace of `<proc> <r|w> <hexaddr>` "
     "lines: a file, or a directory of them (.gz with zlib)"},
    {"--forge", "SPEC", &CliArgs::forgeSpec, {}, nullptr,
     cmd::run_forge | cmd::gen, "synthetic traffic; SPEC is key=value "
     "pairs of migratory, false, private, readonly (class fractions), "
     "fanout, phase, blocks, procs, seed"},
    {"--forge-out", "FILE", &CliArgs::forgeOut, {}, nullptr,
     cmd::run_forge, "write the per-class accuracy as cosmos-forge-v1"},
    {"--nodes", "N", &CliArgs::nodes, {1, max_machine_nodes}, "16",
     cmd::run_trace, "nodes in the simulated machine"},
    {"--nodes", "N", &CliArgs::nodes, {1, max_machine_nodes}, nullptr,
     cmd::run_forge, "nodes in the simulated machine, at least the "
     "spec's procs; absent, procs"},
    {"--chunk", "N", &CliArgs::chunk, {1, 1u << 24}, "2048", cmd::traffic,
     "accesses per barrier-delimited chunk"},
    {"--accesses", "N", &CliArgs::accesses, {}, "100000", cmd::gen,
     "accesses to write"},

    {"--seeds", "N", &CliArgs::seeds, {0, 10'000'000}, "100", cmd::fuzz,
     "fuzz cases to run"},
    {"--replay", "S", &CliArgs::replay, {}, nullptr, cmd::fuzz,
     "re-run exactly one seed, and shrink it if it fails"},
    {"--nodes", "N", &CliArgs::nodes, {1, max_machine_nodes}, "4",
     cmd::fuzz, "nodes per fuzz machine"},
    {"--blocks", "N", &CliArgs::blocks, {1, 1u << 16}, "8", cmd::fuzz,
     "contended blocks per case"},
    {"--ops", "N", &CliArgs::ops, {0, 1'000'000}, "64", cmd::fuzz,
     "random ops per node"},
    {"--jitter", "T", &CliArgs::jitter, {0, 1'000'000'000}, "64",
     cmd::fuzz, "max extra delivery delay in ticks"},
    {"--forge-mix", "F", &CliArgs::forgeMix, {0, 1}, "0", cmd::fuzz,
     "probability that a case runs structured forge traffic"},
    {"--replay-model", "FILE", &CliArgs::replayModel, {}, nullptr,
     cmd::fuzz, "run a `cosmos model` counterexample in the simulator "
     "(jitter 0); exits 1 when it is confirmed"},
    // The model keeps the fault's residue in one byte.
    {"--inject-ignore-inval", "N", &CliArgs::injectIgnoreInval, {0, 255},
     "0", cmd::fuzz | cmd::model, "plant the lost-invalidation bug in "
     "every Nth inval_ro ack (0 = off); the run must fail"},

    {"--nodes", "N", &CliArgs::nodes, {2, model::max_nodes}, "2",
     cmd::model, "nodes in the modeled machine"},
    {"--blocks", "N", &CliArgs::blocks, {1, model::max_blocks}, "1",
     cmd::model, "modeled blocks"},
    {"--reorder", "K", &CliArgs::reorder, {0, model::max_queue - 1}, "0",
     cmd::model,
     "let a delivery overtake up to K earlier messages on its channel"},
    // State ids are 32-bit.
    {"--max-states", "N", &CliArgs::maxStates, {1, 1u << 31}, "1048576",
     cmd::model, "fail (as a liveness failure) past N states"},
    {"--counterexample-out", "FILE", &CliArgs::counterexampleOut, {},
     nullptr, cmd::model,
     "write the first counterexample for `cosmos fuzz --replay-model`"},
    {"--nodes", "N", &CliArgs::nodes, {1, max_machine_nodes}, "2",
     cmd::lint, "configured node count"},
    {"--forwarding", nullptr, &CliArgs::forwarding, {}, nullptr,
     cmd::model | cmd::lint, "three-hop request forwarding, closed by "
     "a requester->home fwd_ack"},
    {"--legacy-forwarding", nullptr, &CliArgs::legacyForwarding, {},
     nullptr, cmd::model | cmd::lint, "with --forwarding: no fwd_ack, "
     "the pre-fix protocol whose race the model must find"},
    {"--capacity", "N", &CliArgs::capacity, {0, 1u << 20}, "0", cmd::lint,
     "cache capacity in blocks (0 = unlimited; else the "
     "stale-invalidation rows are in)"},
    {"--mutate", "KIND", &CliArgs::mutate, {}, "none", cmd::lint,
     "plant one table bug before analyzing; the run must fail",
     "none, missing_row, overlapping_rows, dropped_response, "
     "out_of_order_consume, forwarding_asymmetry"},
};

/** The row of @p name that one of @p commands reads, or nullptr. */
const Flag *
findFlag(const std::string &name, unsigned commands)
{
    for (const Flag &f : flags)
        if (name == f.name && (f.commands & commands) != 0)
            return &f;
    return nullptr;
}

[[noreturn]] void usage(const std::string &message = "");

/** `lo..hi` of @p f's range. */
std::string
rangeText(const Flag &f)
{
    return std::to_string(f.range.lo) + ".." + std::to_string(f.range.hi);
}

/** Reject @p text as @p f's value: say what was expected, print the
 *  usage, exit 2. */
[[noreturn]] void
badValue(const Flag &f, const char *text, const std::string &expected)
{
    usage(std::string("bad ") + f.name + " value '" + text +
          "': expected " + expected);
}

/**
 * An integer in @p f's range: decimal or 0x hex digits only, no sign
 * or blanks.
 */
std::uint64_t
parseInteger(const Flag &f, const char *text)
{
    const bool hex = text[0] == '0' && (text[1] == 'x' || text[1] == 'X');
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, hex ? 16 : 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || v < f.range.lo ||
        v > f.range.hi)
        badValue(f, text, "an integer in " + rangeText(f));
    return v;
}

/** A number in @p f's range: plain decimal, no sign or blanks. */
double
parseFraction(const Flag &f, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    const bool plain = std::isdigit(static_cast<unsigned char>(text[0])) ||
                       text[0] == '.';
    if (!plain || *end != '\0' || !(v >= static_cast<double>(f.range.lo) &&
                                     v <= static_cast<double>(f.range.hi)))
        badValue(f, text, "a number in " + rangeText(f));
    return v;
}

/** Check @p text against @p f's value kind and store it in @p args. */
void
store(CliArgs &args, const Flag &f, const char *text)
{
    std::visit(
        [&](auto field) {
            auto &slot = args.*field;
            using T = std::remove_reference_t<decltype(slot)>;
            if constexpr (std::is_same_v<T, bool>) {
                slot = true;
            } else if constexpr (std::is_same_v<T, double>) {
                slot = parseFraction(f, text);
            } else if constexpr (std::is_same_v<T, std::string>) {
                const std::string sep = ", ";
                if (f.choices != nullptr &&
                    (std::strchr(text, ',') != nullptr ||
                     (sep + f.choices + sep).find(sep + text + sep) ==
                         std::string::npos))
                    badValue(f, text, std::string("one of ") + f.choices);
                slot = text;
            } else {
                slot = parseInteger(f, text);
            }
        },
        f.field);
}

/** The --forge spec @p spec, parsed and checked; a bad key, value or
 *  combination prints each problem and the usage (exit 2). */
forge::ForgeParams
parseForgeSpec(const std::string &spec)
{
    forge::ForgeParams params;
    std::string err;
    const std::vector<std::string> errors =
        forge::ForgeParams::parse(spec, params, &err)
            ? params.validate()
            : std::vector<std::string>{err};
    if (errors.empty())
        return params;
    for (const std::string &e : errors)
        std::fprintf(stderr, "bad --forge spec: %s\n", e.c_str());
    usage();
}

/**
 * A kernel discards its first warm-up iterations before recording,
 * so --iterations below that count is a usage error (runWorkload
 * asserts the relation as an internal invariant).
 */
void
requireWarmupFits(const CliArgs &args)
{
    if (!args.iterations)
        return;
    const int warmup =
        wl::makeWorkload(args.target)->info().warmupIterations;
    if (args.iterationCount() < warmup) {
        const std::string w = std::to_string(warmup);
        usage("bad --iterations value '" + std::to_string(*args.iterations) +
              "': " + args.target + " discards its first " + w +
              " iterations as warm-up, so it needs at least " + w);
    }
}

harness::RunConfig
makeRunConfig(const CliArgs &args)
{
    requireWarmupFits(args);
    harness::RunConfig cfg;
    cfg.app = args.target;
    cfg.iterations = args.iterationCount();
    cfg.seed = args.seed;
    cfg.machine.ownerReadPolicy = args.ownerReadPolicy();
    cfg.checkInvariants = false;
    return cfg;
}

pred::CosmosConfig
cosmosConfig(const CliArgs &args)
{
    return pred::CosmosConfig{static_cast<unsigned>(args.depth),
                              static_cast<unsigned>(args.filter)};
}

/** Write @p reg to @p path and confirm on stdout (no-op when the
 *  --metrics-out flag was absent). */
void
maybeWriteMetrics(const obs::Registry &reg, const std::string &path)
{
    if (path.empty())
        return;
    if (reg.writeJson(path))
        std::printf("metrics written to %s\n", path.c_str());
}

/** Confirm on stdout that @p what went to @p path, or say on stderr
 *  that it could not; returns @p ok. */
bool
written(bool ok, const char *what, const std::string &path)
{
    if (ok)
        std::printf("%s written to %s\n", what, path.c_str());
    else
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return ok;
}

void
printAnalysis(const trace::Trace &trace, const pred::CosmosConfig &config,
              obs::Registry *reg = nullptr)
{
    pred::PredictorBank bank(trace.numNodes, config);
    bank.replay(trace);
    if (reg != nullptr)
        bank.publishMetrics(*reg);
    const auto &acc = bank.accuracy();
    std::printf("Cosmos depth %u, filter %u over %zu messages:\n",
                config.depth, config.filterMax, trace.records.size());
    std::printf("  cache %.1f%%  directory %.1f%%  overall %.1f%%\n",
                acc.cacheSide().percent(),
                acc.directorySide().percent(),
                acc.overall().percent());
    const auto mem = bank.memoryStats();
    std::printf("  memory: PHT/MHR ratio %.2f, overhead %.1f%% of a "
                "128B block\n",
                mem.ratio(), mem.overheadPercent());
    for (auto role : {proto::Role::cache, proto::Role::directory}) {
        std::printf("  dominant arcs at the %s (hit%%/ref%%):\n",
                    proto::toString(role));
        for (const auto &arc : bank.arcs(role).dominantArcs(3.0)) {
            std::printf("    %-22s -> %-22s %3.0f/%-3.0f\n",
                        proto::toString(arc.from),
                        proto::toString(arc.to), arc.hitPercent,
                        arc.refPercent);
        }
    }
}

int
cmdList(const CliArgs &)
{
    std::printf("paper applications:\n");
    for (const auto &name : wl::paperWorkloads())
        std::printf("  %s\n", name.c_str());
    std::printf("microbenchmarks:\n");
    for (const char *name :
         {"micro_producer_consumer", "micro_migratory", "micro_rmw",
          "micro_false_sharing"})
        std::printf("  %s\n", name);
    return 0;
}

/** Save @p trace to --out, or else print its accuracy summary when
 *  @p analyze; then write --metrics-out. */
void
reportTrace(const CliArgs &args, const trace::Trace &trace,
            obs::Registry &reg, bool analyze)
{
    if (!args.out.empty()) {
        trace::saveTrace(args.out, trace);
        std::printf("trace written to %s\n", args.out.c_str());
    } else if (analyze) {
        printAnalysis(trace, cosmosConfig(args),
                      args.metricsOut.empty() ? nullptr : &reg);
    }
    maybeWriteMetrics(reg, args.metricsOut);
}

/** The shared first lines of every run summary. */
void
printRunSummary(const std::string &label,
                const harness::RunResult &result)
{
    std::printf("%s: %zu messages, %zu blocks, %llu events, "
                "%llu ns simulated\n",
                label.c_str(), result.trace.records.size(),
                result.trace.distinctBlocks(),
                static_cast<unsigned long long>(result.events),
                static_cast<unsigned long long>(result.finalTime));
    std::printf("network: %s\n", result.network.format().c_str());
}

/** The machine and chunking of `cosmos run --trace-file` and
 *  `cosmos run --forge`, which pull traffic from an external capture
 *  or the synthetic forge instead of a built-in kernel. */
harness::TrafficConfig
makeTrafficConfig(const CliArgs &args, obs::Registry &reg)
{
    harness::TrafficConfig cfg;
    cfg.machine.ownerReadPolicy = args.ownerReadPolicy();
    cfg.machine.seed = args.seed;
    cfg.opsPerIteration = args.chunk;
    cfg.maxIterations = args.iterationCount();
    if (!args.metricsOut.empty())
        cfg.metrics = &reg;
    return cfg;
}

int
cmdRunTrace(const CliArgs &args)
{
    obs::Registry reg;
    harness::TrafficConfig cfg = makeTrafficConfig(args, reg);
    cfg.machine.numNodes = static_cast<NodeId>(*args.nodes);
    forge::TextTraceReader reader(args.traceFile, cfg.machine.numNodes);
    const auto result = harness::runTraffic(cfg, reader);
    printRunSummary(reader.name(), result);
    std::printf("ingested: %llu accesses over %llu lines "
                "(%llu bytes%s)\n",
                static_cast<unsigned long long>(reader.accessesRead()),
                static_cast<unsigned long long>(reader.linesRead()),
                static_cast<unsigned long long>(reader.bytesRead()),
                forge::gzipSupported() ? ", gzip-capable" : "");
    reportTrace(args, result.trace, reg, true);
    return 0;
}

int
cmdRunForge(const CliArgs &args)
{
    const forge::ForgeParams params = parseForgeSpec(args.forgeSpec);
    if (args.nodes && *args.nodes < params.numProcs) {
        const std::string procs = std::to_string(params.numProcs);
        usage("bad --nodes value '" + std::to_string(*args.nodes) +
              "': the forge spec has " + procs +
              " processors, so it needs at least " + procs);
    }
    obs::Registry reg;
    harness::TrafficConfig cfg = makeTrafficConfig(args, reg);
    cfg.machine.numNodes =
        static_cast<NodeId>(args.nodes.value_or(params.numProcs));
    cfg.machine.blockBytes = params.blockBytes;
    cfg.machine.pageBytes = params.pageBytes;
    forge::SynthSource synth(params);
    std::printf("forge: %s\n", params.summary().c_str());
    const auto result = harness::runTraffic(cfg, synth);
    printRunSummary(synth.name(), result);
    const auto score =
        forge::scoreByClass(result.trace, synth, cosmosConfig(args));
    std::fputs(score.formatTable().c_str(), stdout);
    if (!args.forgeOut.empty() &&
        !written(forge::writeForgeReport(args.forgeOut, synth,
                                         result.trace, score),
                 "forge report", args.forgeOut))
        return 1;
    reportTrace(args, result.trace, reg, false);
    return 0;
}

/** `cosmos gen`: write a forge stream as a text trace file that
 *  `cosmos run --trace-file` (or any other simulator speaking the
 *  format) can ingest. */
int
cmdGen(const CliArgs &args)
{
    if (args.out.empty())
        usage("cosmos gen: --out is required");
    const forge::ForgeParams params = parseForgeSpec(args.forgeSpec);
    forge::SynthSource src(params);
    std::printf("forge: %s\n", params.summary().c_str());
    const std::uint64_t n =
        forge::writeTextTrace(args.out, src, args.accesses);
    std::vector<std::uint64_t> byClass(forge::num_block_classes, 0);
    for (forge::BlockClass c : src.labels())
        ++byClass[static_cast<unsigned>(c)];
    std::printf("wrote %llu accesses (%u full rounds) to %s\n",
                static_cast<unsigned long long>(n), src.round(),
                args.out.c_str());
    std::printf("ground truth:");
    for (unsigned i = 0; i < forge::num_block_classes; ++i) {
        std::printf(" %s=%llu",
                    forge::toString(
                        static_cast<forge::BlockClass>(i)),
                    static_cast<unsigned long long>(byClass[i]));
    }
    std::printf(" blocks\n");
    return 0;
}

int
cmdRun(const CliArgs &args)
{
    obs::Registry reg;
    harness::RunConfig cfg = makeRunConfig(args);
    if (!args.metricsOut.empty())
        cfg.metrics = &reg;
    auto result = harness::runWorkload(cfg);
    printRunSummary(args.target, result);
    if (!result.workloadStats.empty())
        std::printf("workload: %s\n", result.workloadStats.c_str());
    std::printf("protocol: %llu loads, %llu stores, %llu read "
                "misses, %llu write misses, %llu upgrades\n",
                static_cast<unsigned long long>(result.totals.loads),
                static_cast<unsigned long long>(result.totals.stores),
                static_cast<unsigned long long>(
                    result.totals.readMisses),
                static_cast<unsigned long long>(
                    result.totals.writeMisses),
                static_cast<unsigned long long>(
                    result.totals.upgrades));
    reportTrace(args, result.trace, reg, true);
    return 0;
}

int
cmdAnalyze(const CliArgs &args)
{
    std::ifstream is(args.target, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "cannot open trace file %s\n",
                     args.target.c_str());
        return 2;
    }
    trace::ReadDiagnostic diag;
    const auto loaded = trace::tryReadTrace(is, &diag);
    if (!loaded) {
        std::fprintf(stderr, "not a cosmos trace: %s\n",
                     diag.format(args.target).c_str());
        return 2;
    }
    const trace::Trace &trace = *loaded;
    std::printf("trace: app=%s nodes=%u iterations=%d\n",
                trace.app.c_str(), trace.numNodes, trace.iterations);
    obs::Registry reg;
    reportTrace(args, trace, reg, true);
    return 0;
}

int
cmdSweep(const CliArgs &args)
{
    requireWarmupFits(args);
    // All 12 depth x filter cells replay the one simulated trace
    // concurrently through the parallel sweep engine.
    std::vector<replay::ReplayJob> jobs;
    for (unsigned depth = 1; depth <= 4; ++depth)
        for (unsigned filter = 0; filter <= 2; ++filter)
            jobs.push_back(
                {.app = args.target,
                 .iterations = args.iterationCount(),
                 .policy = args.ownerReadPolicy(),
                 .seed = args.seed,
                 .config = pred::CosmosConfig{depth, filter}});
    obs::Registry reg;
    harness::SweepOptions opts{
        .threads = static_cast<unsigned>(args.threads)};
    if (!args.metricsOut.empty())
        opts.metrics = &reg;
    const auto results = harness::runSweep(jobs, opts);
    if (!args.metricsOut.empty())
        harness::publishSweepMetrics(jobs, results, reg);

    TextTable table("overall accuracy (%), " + args.target);
    table.setHeader({"Depth", "filter 0", "filter 1", "filter 2"});
    std::size_t i = 0;
    for (unsigned depth = 1; depth <= 4; ++depth) {
        std::vector<std::string> row = {std::to_string(depth)};
        for (unsigned filter = 0; filter <= 2; ++filter, ++i)
            row.push_back(TextTable::num(
                results[i].accuracy.overall().percent(), 1));
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);
    maybeWriteMetrics(reg, args.metricsOut);
    return 0;
}

int
cmdFigures(const CliArgs &args)
{
    auto result = harness::runWorkload(makeRunConfig(args));
    pred::PredictorBank bank(result.trace.numNodes, cosmosConfig(args));
    bank.replay(result.trace);
    for (const auto &path : harness::dumpSignatureDots(
             args.target, bank.arcs(proto::Role::cache),
             bank.arcs(proto::Role::directory), args.out)) {
        std::printf("wrote %s\n", path.c_str());
    }
    std::printf("render with: dot -Tsvg <file> -o <file>.svg\n");
    return 0;
}

int
cmdCensus(const CliArgs &args)
{
    auto result = harness::runWorkload(makeRunConfig(args));
    const auto census = trace::classifyTrace(result.trace);
    std::printf("sharing-pattern census of %s (%llu classified "
                "blocks, %llu directory messages):\n%s",
                args.target.c_str(),
                static_cast<unsigned long long>(census.totalBlocks),
                static_cast<unsigned long long>(census.totalMessages),
                census.format().c_str());
    return 0;
}

int
cmdAccel(const CliArgs &args)
{
    const auto cfg = makeRunConfig(args);
    const auto base = harness::runWorkload(cfg);
    accel::OnlineOptions opts;
    opts.predictor = cosmosConfig(args);
    opts.predictor.filterMax = std::max(opts.predictor.filterMax, 1u);
    const auto acc = harness::runAccelerated(cfg, opts);
    const double speedup =
        100.0 * (static_cast<double>(base.finalTime) /
                     static_cast<double>(acc.run.finalTime) -
                 1.0);
    std::printf("baseline:     %llu ns, %llu remote messages, "
                "%llu upgrades\n",
                static_cast<unsigned long long>(base.finalTime),
                static_cast<unsigned long long>(
                    base.network.remoteMessages),
                static_cast<unsigned long long>(
                    base.totals.upgrades));
    std::printf("accelerated:  %llu ns, %llu remote messages, "
                "%llu upgrades\n",
                static_cast<unsigned long long>(acc.run.finalTime),
                static_cast<unsigned long long>(
                    acc.run.network.remoteMessages),
                static_cast<unsigned long long>(
                    acc.run.totals.upgrades));
    std::printf("speedup %.1f%%; %llu exclusive grants, %llu "
                "recalls; live predictor accuracy %.1f%%\n",
                speedup,
                static_cast<unsigned long long>(
                    acc.run.totals.exclusiveGrants),
                static_cast<unsigned long long>(
                    acc.run.totals.recalls),
                acc.predictorAccuracyPercent);
    return 0;
}

check::FuzzOptions
makeFuzzOptions(const CliArgs &args)
{
    check::FuzzOptions opts;
    opts.numSeeds = static_cast<unsigned>(args.seeds);
    opts.baseSeed = args.seed;
    opts.numNodes = static_cast<NodeId>(*args.nodes);
    opts.numBlocks = static_cast<unsigned>(args.blocks);
    opts.opsPerNode = static_cast<unsigned>(args.ops);
    opts.maxJitter = args.jitter;
    opts.ignoreInvalEvery = static_cast<unsigned>(args.injectIgnoreInval);
    opts.forgeMix = args.forgeMix;
    return opts;
}

void
printReplayHint(const check::FuzzOptions &opts, std::uint64_t seed)
{
    std::printf("replay with: cosmos fuzz --replay %llu --nodes %u "
                "--blocks %u --ops %u --jitter %llu",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned>(opts.numNodes), opts.numBlocks,
                opts.opsPerNode,
                static_cast<unsigned long long>(opts.maxJitter));
    if (opts.ignoreInvalEvery != 0)
        std::printf(" --inject-ignore-inval %u", opts.ignoreInvalEvery);
    std::printf("\n");
}

/** Execute a model-checker counterexample through the real
 *  simulator: zero jitter, so the network replays the schedule's
 *  issue order deterministically. Exits nonzero when the invariant
 *  engine confirms the violation -- CI's replay leg asserts that. */
int
replayModelCounterexample(const CliArgs &args)
{
    const check::FuzzCase c =
        check::loadCounterexample(args.replayModel);
    check::FuzzOptions opts;
    opts.maxJitter = 0;
    const check::CaseResult r = check::runCase(c, opts);
    std::printf("model counterexample %s: %s (%llu messages "
                "delivered)\n",
                args.replayModel.c_str(),
                r.failed ? "CONFIRMED" : "did not reproduce",
                static_cast<unsigned long long>(r.delivered));
    for (const auto &v : r.violations)
        std::printf("%s\n", v.format().c_str());
    return r.failed ? 1 : 0;
}

int
cmdModel(const CliArgs &args)
{
    model::ExploreOptions opt;
    opt.mc.numNodes = static_cast<NodeId>(*args.nodes);
    opt.mc.numBlocks = static_cast<unsigned>(args.blocks);
    opt.mc.reorder = static_cast<unsigned>(args.reorder);
    opt.mc.policy = args.ownerReadPolicy();
    opt.mc.forwarding = args.forwarding;
    opt.mc.legacyForwarding = args.legacyForwarding;
    opt.mc.ignoreInvalEvery = static_cast<unsigned>(args.injectIgnoreInval);
    opt.maxStates = static_cast<std::size_t>(args.maxStates);

    const model::ExploreResult res = model::explore(opt);
    std::fputs(model::renderReport(opt.mc, res).c_str(), stdout);

    if (!args.out.empty() &&
        !written(model::writeReportJson(args.out, opt.mc, res),
                 "model report", args.out))
        return 1;
    if (!args.counterexampleOut.empty() &&
        !res.counterexamples.empty()) {
        if (model::writeCounterexample(args.counterexampleOut, opt.mc,
                                       res.counterexamples.front())) {
            std::printf("counterexample written to %s (replay with: "
                        "cosmos fuzz --replay-model %s)\n",
                        args.counterexampleOut.c_str(),
                        args.counterexampleOut.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n",
                         args.counterexampleOut.c_str());
            return 1;
        }
    }
    return res.clean() ? 0 : 1;
}

int
cmdLint(const CliArgs &args)
{
    lint::MutationKind kind = lint::MutationKind::none;
    const bool known = lint::parseMutation(args.mutate, kind);
    cosmos_assert(known, "--mutate choices out of step with lint");

    MachineConfig cfg;
    cfg.numNodes = static_cast<NodeId>(*args.nodes);
    cfg.forwarding = args.forwarding;
    cfg.legacyForwarding = args.legacyForwarding;
    cfg.ownerReadPolicy = args.ownerReadPolicy();
    cfg.cacheCapacityBlocks = static_cast<unsigned>(args.capacity);

    proto::ProtocolTable table = proto::ProtocolTable::build(cfg);
    if (kind != lint::MutationKind::none) {
        std::printf("mutation: %s\n",
                    lint::applyMutation(table, kind).c_str());
    }

    const std::vector<lint::Finding> findings = lint::analyze(table);
    std::fputs(lint::renderReport(table, findings, kind).c_str(),
               stdout);

    if (!args.out.empty()) {
        std::ofstream f(args.out);
        if (f)
            f << lint::renderJson(table, findings, kind);
        if (!written(static_cast<bool>(f), "lint report", args.out))
            return 2;
    }
    return findings.empty() ? 0 : 1;
}

int
cmdFuzz(const CliArgs &args)
{
    if (!args.replayModel.empty())
        return replayModelCounterexample(args);

    const check::FuzzOptions opts = makeFuzzOptions(args);

    check::FuzzReport report;
    if (args.replay) {
        check::Failure f = check::replaySeed(*args.replay, opts);
        report.casesRun = 1;
        std::printf("replay seed %llu: %s (%llu messages "
                    "delivered)\n",
                    static_cast<unsigned long long>(*args.replay),
                    f.result.failed ? "FAILED" : "clean",
                    static_cast<unsigned long long>(
                        f.result.delivered));
        for (const auto &v : f.result.violations)
            std::printf("%s\n", v.format().c_str());
        if (f.result.failed) {
            std::printf("shrunk reproducer (%zu of %zu ops):\n",
                        f.shrunkOps, f.originalOps);
            for (const auto &line : f.reproducer)
                std::printf("  %s\n", line.c_str());
            report.failures.push_back(std::move(f));
        }
    } else {
        report = check::fuzz(opts, &std::cout);
        for (const auto &f : report.failures)
            printReplayHint(opts, f.result.seed);
    }

    if (!args.out.empty() &&
        !written(check::writeReport(report, opts, args.out),
                 "fuzz report", args.out))
        return 1;
    return report.clean() ? 0 : 1;
}

const Command commands[] = {
    {"list", nullptr, cmd::list, cmdList},
    {"run", "<kernel>", cmd::run, cmdRun},
    {"run --trace-file", nullptr, cmd::run_trace, cmdRunTrace},
    {"run --forge", nullptr, cmd::run_forge, cmdRunForge},
    {"gen", nullptr, cmd::gen, cmdGen},
    {"analyze", "<trace>", cmd::analyze, cmdAnalyze},
    {"sweep", "<kernel>", cmd::sweep, cmdSweep},
    {"accel", "<kernel>", cmd::accel, cmdAccel},
    {"figures", "<kernel>", cmd::figures, cmdFigures},
    {"census", "<kernel>", cmd::census, cmdCensus},
    {"fuzz", nullptr, cmd::fuzz, cmdFuzz},
    {"model", nullptr, cmd::model, cmdModel},
    {"lint", nullptr, cmd::lint, cmdLint},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &c : commands)
        if (name == c.name)
            return &c;
    return nullptr;
}

/** `--name META`, or `--name` for a switch. */
std::string
flagText(const Flag &f)
{
    return f.meta != nullptr ? std::string(f.name) + " " + f.meta : f.name;
}

/** @p line followed by @p items, wrapped at 78 columns onto lines
 *  indented by @p indent. */
std::string
wrap(std::string line, const std::vector<std::string> &items,
     std::size_t indent)
{
    std::string out;
    for (const std::string &item : items) {
        if (line.size() + 1 + item.size() > 78 && line.size() >= indent) {
            out += line + "\n";
            line.assign(indent - 1, ' ');
        }
        line += " " + item;
    }
    return out + line + "\n";
}

std::vector<std::string>
words(const std::string &text)
{
    std::istringstream in(text);
    std::vector<std::string> out;
    for (std::string w; in >> w;)
        out.push_back(w);
    return out;
}

/** Print @p message, if any, and the command and flag reference from
 *  the tables; exit 2. */
[[noreturn]] void
usage(const std::string &message)
{
    std::string text = message.empty() ? "" : message + "\n";
    text += "usage: cosmos <command> [<target>] [flags]\n";
    for (const Command &c : commands) {
        // A `run` traffic source shows its flag's value in the name.
        const char *mode = std::strchr(c.name, '-');
        std::string line = std::string("  cosmos ") + c.name;
        if (mode != nullptr)
            line += std::string(" ") + findFlag(mode, c.bit)->meta;
        std::vector<std::string> items;
        if (c.target != nullptr)
            items.push_back(c.target);
        for (const Flag &f : flags) {
            if ((f.commands & c.bit) != 0 && f.commands != cmd::all &&
                (mode == nullptr || std::strcmp(f.name, mode) != 0))
                items.push_back("[" + flagText(f) + "]");
        }
        text += wrap(line, items, 8);
    }
    text += "flags (integers are decimal or 0x hex):\n";
    for (const Flag &f : flags) {
        std::string scope;
        for (const Command &c : commands)
            if ((f.commands & c.bit) != 0)
                scope += (scope.empty() ? "" : ", ") + std::string(c.name);
        if (f.commands == cmd::all)
            scope = "every command";
        std::string range;
        if (f.choices != nullptr) {
            range = std::string("one of ") + f.choices;
        } else if (f.range.hi != UINT64_MAX) {
            range = rangeText(f);
        }
        if (f.def != nullptr)
            range += (range.empty() ? "default " : "; default ") +
                     std::string(f.def);
        std::string help = scope + ": " + f.help;
        if (!range.empty())
            help += " (" + range + ")";
        std::string head = "  " + flagText(f);
        if (head.size() > 22) {
            text += head + "\n";
            head.clear();
        }
        head.resize(23, ' ');
        text += wrap(head, words(help), 24);
    }
    std::fputs(text.c_str(), stderr);
    std::exit(2);
}

CliArgs
parse(int argc, char **argv)
{
    if (argc < 2)
        usage();
    // Split the words into the target and (flag, value) pairs; every
    // row of one flag takes a value, or none does.
    CliArgs args;
    std::vector<std::pair<std::string, const char *>> given;
    for (int i = 2; i < argc; ++i) {
        const std::string word = argv[i];
        if (word[0] != '-') {
            if (!args.target.empty())
                usage("unexpected argument '" + word + "'");
            args.target = word;
            continue;
        }
        const Flag *f = findFlag(word, cmd::all);
        if (f == nullptr)
            usage("unknown flag " + word);
        const char *value = nullptr;
        if (f->meta != nullptr) {
            if (i + 1 >= argc)
                usage(word + " needs a value");
            value = argv[++i];
        }
        given.emplace_back(word, value);
    }

    // `run` without a kernel reads the traffic source that its first
    // --trace-file or --forge names.
    std::string name = argv[1];
    if (args.target.empty()) {
        for (const auto &[flag, value] : given) {
            if (findCommand(name + " " + flag) != nullptr) {
                name += " " + flag;
                break;
            }
        }
    }
    args.command = findCommand(name);
    if (args.command == nullptr)
        usage("unknown command '" + name + "'");
    const Command &c = *args.command;
    const std::string where = "cosmos " + name + ": ";
    if (c.target != nullptr && args.target.empty())
        usage(where + "missing " + c.target);
    if (c.target == nullptr && !args.target.empty())
        usage(where + "unexpected argument '" + args.target + "'");

    for (const Flag &f : flags)
        if ((f.commands & c.bit) != 0 && f.def != nullptr)
            store(args, f, f.def);
    for (const auto &[flag, value] : given) {
        const Flag *f = findFlag(flag, c.bit);
        if (f == nullptr)
            usage(where + flag + " is not used by this command");
        store(args, *f, value);
    }
    if (args.legacyForwarding && !args.forwarding)
        usage(where + "--legacy-forwarding needs --forwarding");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    const CliArgs args = parse(argc, argv);
    if (!args.traceOut.empty())
        obs::startTracing();
    const int rc = args.command->run(args);
    if (!args.traceOut.empty() && obs::writeTrace(args.traceOut))
        std::printf("trace events written to %s\n",
                    args.traceOut.c_str());
    return rc;
}
