/**
 * @file
 * Tracked predictor-throughput benchmark over the five paper traces.
 *
 * Before timing anything, the full Table 5 / Table 6 replay grid (40
 * cells) is replayed and every accuracy counter is checked against
 * the pinned goldens in tests/fixtures/golden_accuracy.hh -- twice:
 * once through the (batched) sweep engine and once with every job
 * forced onto 4 block shards, so a hot-path optimization that shifts
 * a single integer in either the batched or the sharded pipeline is
 * reported as FAILED golden drift and the process exits nonzero.
 *
 * It then reports messages/second for:
 *  - serial replay of the dsmc trace at MHR depths 1, 2, and 4, in
 *    two modes per depth: "scalar" (bank construction + a
 *    PredictorBank::observe() call per record, timed together -- the
 *    reference loop every replay must match) and "batched" (census +
 *    reservation + construction outside the timed region,
 *    PredictorBank::replay alone timed -- the tracked headline
 *    number);
 *  - a parallel sweep of the whole 40-cell grid via harness::runSweep
 *    on --threads N threads in total.
 *
 * Every message replayed here comes from the verified protocol: the
 * five traces are simulated on proto::Machine. End-to-end throughput
 * of the machine itself (including the forge workloads) is measured
 * by perfbench/run.py, not here.
 *
 * Results are written as JSON (default BENCH_predictor_throughput.json,
 * schema cosmos-bench-predictor-v3, validated by scripts/check_json.py
 * --schema bench) so successive CI runs can be compared.
 *
 * --dump-goldens feeds the grid record by record through observe()
 * -- independent of the batched pipeline the gate checks -- and prints
 * fixture rows instead; paste the output into golden_accuracy.hh when
 * the *model* changes intentionally.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cosmos/predictor_bank.hh"
#include "fixtures/golden_accuracy.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "replay/parallel_for.hh"

namespace
{

using namespace cosmos;
using bench::secondsSince;

/** The fixture's replay grid, in fixture row order. */
std::vector<replay::ReplayJob>
goldenJobs(unsigned shards = 0)
{
    std::vector<replay::ReplayJob> jobs;
    jobs.reserve(fixtures::num_golden_accuracy_rows);
    for (const auto &row : fixtures::golden_accuracy_rows)
        jobs.push_back(
            {.app = row.app,
             .config = pred::CosmosConfig{row.depth, row.filterMax},
             .shards = shards});
    return jobs;
}

/** Counters of one replayed cell, in fixture field order. */
struct CellCounters
{
    std::uint64_t cacheHits, cacheTotal, dirHits, dirTotal, coldMisses;
};

CellCounters
counters(const pred::AccuracyTracker &acc)
{
    return {acc.cacheSide().hits, acc.cacheSide().total,
            acc.directorySide().hits, acc.directorySide().total,
            acc.coldMisses()};
}

/** Check one cell against its golden row; prints on mismatch. */
bool
checkCell(const fixtures::GoldenAccuracyRow &g, const CellCounters &c)
{
    if (c.cacheHits == g.cacheHits && c.cacheTotal == g.cacheTotal &&
        c.dirHits == g.dirHits && c.dirTotal == g.dirTotal &&
        c.coldMisses == g.coldMisses) {
        return true;
    }
    std::fprintf(stderr,
                 "GOLDEN DRIFT %s depth=%u filter=%u: "
                 "got C %llu/%llu D %llu/%llu cold %llu, "
                 "want C %llu/%llu D %llu/%llu cold %llu\n",
                 g.app, g.depth, g.filterMax,
                 (unsigned long long)c.cacheHits,
                 (unsigned long long)c.cacheTotal,
                 (unsigned long long)c.dirHits,
                 (unsigned long long)c.dirTotal,
                 (unsigned long long)c.coldMisses,
                 (unsigned long long)g.cacheHits,
                 (unsigned long long)g.cacheTotal,
                 (unsigned long long)g.dirHits,
                 (unsigned long long)g.dirTotal,
                 (unsigned long long)g.coldMisses);
    return false;
}

bool
checkGrid(const std::vector<replay::ReplayResult> &results,
          const char *label)
{
    bool ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        ok &= checkCell(fixtures::golden_accuracy_rows[i],
                        counters(results[i].accuracy));
    }
    if (!ok)
        std::fprintf(stderr,
                     "FAILED (%s): accuracy drifted from "
                     "tests/fixtures/golden_accuracy.hh\n",
                     label);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 0; // 0 = replay::defaultThreadCount()
    double min_seconds = 1.0;
    std::string out_path = "BENCH_predictor_throughput.json";
    bool dump_goldens = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--min-seconds" && i + 1 < argc) {
            min_seconds = std::atof(argv[++i]);
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--dump-goldens") {
            dump_goldens = true;
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--threads N] [--min-seconds S] "
                "[--out PATH] [--dump-goldens]\n",
                argv[0]);
            return 2;
        }
    }

    const auto jobs = goldenJobs();

    if (dump_goldens) {
        // The per-record reference loop, printed in fixture syntax.
        for (const auto &job : jobs) {
            const auto &trace = harness::cachedTrace(job.app);
            pred::PredictorBank bank(trace.numNodes, job.config);
            for (const auto &r : trace.records)
                bank.observe(r);
            const CellCounters c = counters(bank.accuracy());
            std::printf("    {\"%s\", %u, %u, %lluu, %lluu, %lluu, "
                        "%lluu, %lluu},\n",
                        job.app.c_str(), job.config.depth,
                        job.config.filterMax,
                        (unsigned long long)c.cacheHits,
                        (unsigned long long)c.cacheTotal,
                        (unsigned long long)c.dirHits,
                        (unsigned long long)c.dirTotal,
                        (unsigned long long)c.coldMisses);
        }
        return 0;
    }

    bench::banner("Predictor throughput (golden-gated)");

    // Simulate the five traces once, outside every timed region.
    std::size_t grid_messages = 0;
    for (const auto &app : bench::apps)
        harness::cachedTrace(app);
    for (const auto &job : jobs)
        grid_messages += harness::cachedTrace(job.app).records.size();

    // Phase 1: golden gate, twice. The sweep engine replays batched,
    // so the first pass gates the batched pipeline; the second forces
    // every cell onto 4 block shards and gates the sharded merge.
    const auto start = std::chrono::steady_clock::now();
    const auto results = harness::runSweep(jobs, {.threads = threads});
    const double sweep_s = secondsSince(start);
    if (!checkGrid(results, "batched sweep"))
        return 1;
    const auto sharded_results =
        harness::runSweep(goldenJobs(4), {.threads = threads});
    if (!checkGrid(sharded_results, "4-shard sweep"))
        return 1;
    std::printf("goldens: all %zu cells bit-identical "
                "(batched and 4-shard)\n",
                jobs.size());

    // Phase 2: serial replay throughput on dsmc (tracked numbers).
    // "scalar" keeps the original methodology -- bank construction +
    // one observe() per record inside the timed region -- so the
    // series stays comparable across runs. "batched" times replay()
    // alone: the census, table reservation, and construction happen
    // outside the timed region, which is exactly how the sweep
    // engine runs it.
    const auto &dsmc = harness::cachedTrace("dsmc");
    const auto dsmc_census = trace::moduleBlockCensus(dsmc);
    struct SerialCell
    {
        const char *mode;
        unsigned depth;
        int reps;
        double seconds;
        double mps;
    };
    std::vector<SerialCell> serial_cells;
    for (unsigned depth : {1u, 2u, 4u}) {
        const auto scalar = bench::runTimed(
            [&] {
                const auto t0 = std::chrono::steady_clock::now();
                pred::PredictorBank bank(
                    dsmc.numNodes, pred::CosmosConfig{depth, 0});
                for (const auto &r : dsmc.records)
                    bank.observe(r);
                return secondsSince(t0);
            },
            min_seconds);
        const auto batched = bench::runTimed(
            [&] {
                pred::PredictorBank bank(
                    dsmc.numNodes, pred::CosmosConfig{depth, 0});
                bank.reserveFromCensus(dsmc_census);
                const auto t0 = std::chrono::steady_clock::now();
                bank.replay(dsmc);
                return secondsSince(t0);
            },
            min_seconds);
        for (const auto &[mode, r] :
             {std::pair{"scalar", scalar}, {"batched", batched}}) {
            const double mps = static_cast<double>(r.reps) *
                               static_cast<double>(
                                   dsmc.records.size()) /
                               r.seconds;
            serial_cells.push_back(
                {mode, depth, r.reps, r.seconds, mps});
            std::printf("serial dsmc depth %u %-7s: %d reps in "
                        "%.3f s -> %.2f M msg/s\n",
                        depth, mode, r.reps, r.seconds, mps / 1e6);
        }
    }

    const unsigned resolved_threads =
        threads != 0 ? threads : replay::defaultThreadCount();
    const double sweep_mps =
        sweep_s > 0.0 ? static_cast<double>(grid_messages) / sweep_s
                      : 0.0;
    std::printf("sweep: %zu cells (%zu messages) in %.3f s on %u "
                "thread%s -> %.2f M msg/s\n",
                jobs.size(), grid_messages, sweep_s, resolved_threads,
                resolved_threads == 1 ? "" : "s", sweep_mps / 1e6);

    // Phase 3: JSON for CI tracking.
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "FAILED: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"predictor_throughput\",\n");
    std::fprintf(f, "  \"schema\": \"cosmos-bench-predictor-v3\",\n");
    std::fprintf(f, "  \"goldens\": \"pass\",\n");
    std::fprintf(f, "  \"golden_cells\": %zu,\n", jobs.size());
    std::fprintf(f,
                 "  \"batch\": {\"depth\": %zu, "
                 "\"prefetch_distance\": %zu, \"window\": %zu, "
                 "\"group_bits\": %u},\n",
                 pred::batch_depth, pred::batch_prefetch_distance,
                 pred::batch_window, pred::batch_group_bits);
    std::fprintf(f, "  \"serial_dsmc\": {\n");
    std::fprintf(f, "    \"records\": %zu,\n", dsmc.records.size());
    std::fprintf(f, "    \"cells\": [\n");
    for (std::size_t i = 0; i < serial_cells.size(); ++i) {
        const auto &c = serial_cells[i];
        std::fprintf(f,
                     "      {\"mode\": \"%s\", \"depth\": %u, "
                     "\"reps\": %d, \"seconds\": %.6f, "
                     "\"messages_per_sec\": %.0f}%s\n",
                     c.mode, c.depth, c.reps, c.seconds, c.mps,
                     i + 1 < serial_cells.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n  },\n");
    std::fprintf(f, "  \"sweep\": {\n");
    std::fprintf(f, "    \"threads\": %u,\n", resolved_threads);
    std::fprintf(f, "    \"cells\": %zu,\n", jobs.size());
    std::fprintf(f, "    \"messages\": %zu,\n", grid_messages);
    std::fprintf(f, "    \"seconds\": %.6f,\n", sweep_s);
    std::fprintf(f, "    \"messages_per_sec\": %.0f\n", sweep_mps);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
