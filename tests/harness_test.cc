/**
 * @file
 * Unit tests of the experiment harness: run configuration handling,
 * trace metadata, invariant enforcement, and the trace cache
 * (including its disk persistence).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/log.hh"
#include "harness/experiment.hh"
#include "harness/trace_cache.hh"
#include "replay/parallel_for.hh"
#include "workloads/micro.hh"

namespace cosmos::harness
{
namespace
{

TEST(Experiment, FillsTraceMetadata)
{
    RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.iterations = 6;
    cfg.warmupIterations = 1;
    cfg.seed = 0xabc;
    auto result = runWorkload(cfg);
    EXPECT_EQ(result.trace.app, "micro_rmw");
    EXPECT_EQ(result.trace.numNodes, 16);
    EXPECT_EQ(result.trace.blockBytes, 64u);
    EXPECT_EQ(result.trace.iterations, 6);
    EXPECT_EQ(result.trace.seed, 0xabcu);
    EXPECT_GT(result.events, 0u);
    EXPECT_GT(result.finalTime, 0u);
}

TEST(Experiment, WarmupIterationsAreExcluded)
{
    RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.iterations = 8;
    cfg.warmupIterations = 4;
    auto result = runWorkload(cfg);
    for (const auto &r : result.trace.records)
        EXPECT_GE(r.iteration, 4);

    cfg.warmupIterations = 0;
    auto full = runWorkload(cfg);
    EXPECT_GT(full.trace.records.size(),
              result.trace.records.size());
}

TEST(Experiment, IterationOverrideWins)
{
    RunConfig cfg;
    cfg.app = "micro_producer_consumer";
    cfg.iterations = 3;
    cfg.warmupIterations = 0;
    auto result = runWorkload(cfg);
    std::int32_t max_iter = 0;
    for (const auto &r : result.trace.records)
        max_iter = std::max(max_iter, r.iteration);
    EXPECT_EQ(max_iter, 2);
}

TEST(ExperimentDeathTest, WarmupBeyondIterationsPanics)
{
    RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.iterations = 2;
    cfg.warmupIterations = 5;
    EXPECT_DEATH(runWorkload(cfg), "warm-up");
}

TEST(Experiment, InvariantCheckReportsTheViolationKind)
{
    // A lost invalidation leaves a stale read-only copy beside the
    // new writer; the between-iterations check must catch it through
    // check::checkCoherence and name the broken rule.
    RunConfig cfg;
    cfg.app = "micro_producer_consumer";
    cfg.iterations = 4;
    cfg.checkInvariants = true;
    cfg.machine.fault.ignoreInvalEvery = 1;
    std::string what;
    try {
        FailureTrap trap;
        runWorkload(cfg);
    } catch (const RecoverableError &e) {
        what = e.what();
    }
    ASSERT_FALSE(what.empty()) << "the planted bug went unreported";
    EXPECT_NE(what.find("coherence violation after iteration"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("writer_and_readers"), std::string::npos)
        << what;
}

TEST(Experiment, ForwardingCountersAreDeterministicAndClosed)
{
    // Same config twice -> bit-identical timing and protocol totals,
    // with forwarding's handshake closed (every forwarded recall
    // produced exactly one fwd_ack by quiescence). Forwarding off ->
    // all three counters stay zero. A diff between the two repeat
    // runs would mean iteration/chunk order leaks into the
    // directories' stats_ accounting.
    RunConfig cfg;
    cfg.app = "micro_migratory";
    cfg.iterations = 8;
    cfg.machine.forwarding = true;
    auto a = runWorkload(cfg);
    auto b = runWorkload(cfg);
    EXPECT_EQ(a.finalTime, b.finalTime);
    EXPECT_EQ(a.totals.forwardsSent, b.totals.forwardsSent);
    EXPECT_EQ(a.totals.fwdAcks, b.totals.fwdAcks);
    EXPECT_EQ(a.totals.invalsSent, b.totals.invalsSent);
    EXPECT_EQ(a.totals.readMisses, b.totals.readMisses);
    EXPECT_EQ(a.totals.writeMisses, b.totals.writeMisses);
    EXPECT_GT(a.totals.forwardsSent, 0u);
    EXPECT_EQ(a.totals.fwdAcks, a.totals.forwardsSent);
    EXPECT_EQ(a.totals.forwardsSuppressed, 0u);

    cfg.machine.forwarding = false;
    auto c = runWorkload(cfg);
    EXPECT_EQ(c.totals.forwardsSent, 0u);
    EXPECT_EQ(c.totals.forwardsSuppressed, 0u);
    EXPECT_EQ(c.totals.fwdAcks, 0u);
}

TEST(Experiment, CustomWorkloadInstance)
{
    RunConfig cfg;
    wl::FalseSharingParams params;
    params.blocks = 4;
    params.iterations = 10;
    wl::FalseSharingMicro workload(params);
    auto result = runWorkload(cfg, workload);
    EXPECT_GT(result.trace.records.size(), 50u);
    // False sharing means both halves' writers fight over the same
    // blocks: at most `blocks` + padding-page blocks are involved.
    EXPECT_LE(result.trace.distinctBlocks(), 4u);
}

TEST(TraceCache, ReturnsSameObjectForSameKey)
{
    clearTraceCache();
    const auto &a = cachedTrace("micro_rmw", 4);
    const auto &b = cachedTrace("micro_rmw", 4);
    EXPECT_EQ(&a, &b);
    const auto &c = cachedTrace("micro_rmw", 5);
    EXPECT_NE(&a, &c);
    clearTraceCache();
}

TEST(TraceCache, KeysOnPolicyAndSeed)
{
    clearTraceCache();
    const auto &hm =
        cachedTrace("micro_rmw", 4, OwnerReadPolicy::half_migratory);
    const auto &dg =
        cachedTrace("micro_rmw", 4, OwnerReadPolicy::downgrade);
    EXPECT_NE(&hm, &dg);
    const auto &seeded = cachedTrace(
        "micro_rmw", 4, OwnerReadPolicy::half_migratory, 99);
    EXPECT_NE(&hm, &seeded);
    clearTraceCache();
}

TEST(TraceCache, PersistsToDiskWhenConfigured)
{
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "/cosmos_trace_cache_test";
    fs::remove_all(dir);
    setenv("COSMOS_TRACE_CACHE", dir.c_str(), 1);

    clearTraceCache();
    const auto &first = cachedTrace("micro_rmw", 4);
    const auto first_size = first.records.size();
    // A file must now exist.
    bool found = false;
    for (const auto &entry : fs::directory_iterator(dir))
        found |= entry.path().extension() == ".trace";
    EXPECT_TRUE(found);

    // A fresh in-memory cache must load the same trace from disk.
    clearTraceCache();
    const auto &second = cachedTrace("micro_rmw", 4);
    EXPECT_EQ(second.records.size(), first_size);

    unsetenv("COSMOS_TRACE_CACHE");
    clearTraceCache();
    fs::remove_all(dir);
}

TEST(TraceCache, CorruptDiskCacheFallsBackToSimulation)
{
    namespace fs = std::filesystem;
    const std::string dir =
        ::testing::TempDir() + "/cosmos_trace_cache_corrupt";
    fs::remove_all(dir);
    setenv("COSMOS_TRACE_CACHE", dir.c_str(), 1);

    // Prime the disk cache, then corrupt the file in place.
    clearTraceCache();
    const auto good_size = cachedTrace("micro_rmw", 4).records.size();
    std::string path;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().extension() == ".trace")
            path = entry.path().string();
    ASSERT_FALSE(path.empty());
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << "half-written garbage";
    }

    // A fresh fetch must re-simulate (warning, not abort) and
    // produce the same trace.
    clearTraceCache();
    setWarningsEnabled(false);
    const auto &again = cachedTrace("micro_rmw", 4);
    setWarningsEnabled(true);
    EXPECT_EQ(again.records.size(), good_size);

    unsetenv("COSMOS_TRACE_CACHE");
    clearTraceCache();
    fs::remove_all(dir);
}

TEST(TraceCache, ConcurrentDistinctKeysSimulateInParallel)
{
    clearTraceCache();
    std::vector<const trace::Trace *> traces(4);
    replay::parallelFor(4, traces.size(), [&](std::size_t i) {
        traces[i] =
            &cachedTrace("micro_rmw", 3 + static_cast<int>(i));
    });
    for (std::size_t i = 0; i < traces.size(); ++i)
        for (std::size_t j = i + 1; j < traces.size(); ++j)
            EXPECT_NE(traces[i], traces[j]);
    clearTraceCache();
}

} // namespace
} // namespace cosmos::harness
