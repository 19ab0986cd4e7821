/**
 * @file
 * Whole-pipeline integration tests: machine + runtime + workload ->
 * trace -> predictor bank, checking the cross-module behaviours the
 * paper's evaluation relies on.
 */

#include <gtest/gtest.h>

#include "cosmos/predictor_bank.hh"
#include "harness/experiment.hh"
#include "workloads/micro.hh"
#include "workloads/workload.hh"

namespace cosmos
{
namespace
{

harness::RunConfig
smallConfig(const std::string &app)
{
    harness::RunConfig cfg;
    cfg.app = app;
    cfg.machine.numNodes = 16;
    cfg.checkInvariants = true;
    return cfg;
}

TEST(Integration, ProducerConsumerSignatureIsPerfectlyPredictable)
{
    // The §3.1 example: a stable producer-consumer block generates a
    // fixed message signature, and a depth-1 Cosmos predictor learns
    // it essentially perfectly.
    wl::ProducerConsumerParams params;
    params.blocks = 8;
    params.consumers = 1;
    params.iterations = 40;
    auto cfg = smallConfig("");
    wl::ProducerConsumerMicro workload(params);
    auto result = harness::runWorkload(cfg, workload);

    ASSERT_GT(result.trace.records.size(), 500u);
    pred::PredictorBank bank(16, pred::CosmosConfig{1, 0});
    bank.replay(result.trace);
    EXPECT_GT(bank.accuracy().overall().percent(), 95.0);
}

TEST(Integration, MigratorySignatureNeedsNoFilterAtDepthOne)
{
    // A deterministic 4-processor rotation is exactly learnable with
    // one tuple of history because senders disambiguate positions.
    wl::MigratoryParams params;
    params.blocks = 6;
    params.rotation = 4;
    params.iterations = 40;
    auto cfg = smallConfig("");
    wl::MigratoryMicro workload(params);
    auto result = harness::runWorkload(cfg, workload);

    pred::PredictorBank bank(16, pred::CosmosConfig{1, 0});
    bank.replay(result.trace);
    EXPECT_GT(bank.accuracy().overall().percent(), 90.0);
}

TEST(Integration, EveryPaperWorkloadRunsCoherently)
{
    // Short runs of all five applications with invariant checking on:
    // the protocol stays coherent and produces traced messages at
    // both roles.
    for (const auto &app : wl::paperWorkloads()) {
        auto cfg = smallConfig(app);
        cfg.iterations = 5;
        cfg.warmupIterations = 1;
        auto result = harness::runWorkload(cfg);
        EXPECT_GT(result.trace.records.size(), 100u) << app;
        EXPECT_GT(result.trace.cacheRecords(), 0u) << app;
        EXPECT_GT(result.trace.directoryRecords(), 0u) << app;
    }
}

TEST(Integration, TracesAreDeterministicGivenASeed)
{
    auto cfg = smallConfig("appbt");
    cfg.iterations = 4;
    cfg.warmupIterations = 1;
    auto a = harness::runWorkload(cfg);
    auto b = harness::runWorkload(cfg);
    ASSERT_EQ(a.trace.records.size(), b.trace.records.size());
    EXPECT_EQ(a.trace.records, b.trace.records);
    EXPECT_EQ(a.finalTime, b.finalTime);
}

TEST(Integration, DifferentSeedsPerturbTiming)
{
    auto cfg = smallConfig("appbt");
    cfg.iterations = 4;
    cfg.warmupIterations = 1;
    auto a = harness::runWorkload(cfg);
    cfg.seed ^= 0x1234;
    auto b = harness::runWorkload(cfg);
    EXPECT_NE(a.trace.records, b.trace.records);
}

TEST(Integration, DepthImprovesUnstructured)
{
    // §6.1: unstructured oscillates between migratory and
    // producer-consumer phases; more MHR depth must help noticeably.
    auto cfg = smallConfig("unstructured");
    cfg.iterations = 20;
    auto result = harness::runWorkload(cfg);

    pred::PredictorBank d1(16, pred::CosmosConfig{1, 0});
    pred::PredictorBank d3(16, pred::CosmosConfig{3, 0});
    d1.replay(result.trace);
    d3.replay(result.trace);
    EXPECT_GT(d3.accuracy().overall().percent(),
              d1.accuracy().overall().percent() + 3.0);
}

TEST(Integration, CacheSideBeatsDirectorySide)
{
    // §6.1: a Stache cache hears from a single fixed sender (the home
    // directory), so cache-side prediction is easier than
    // directory-side prediction.
    for (const auto &app : {"appbt", "moldyn"}) {
        auto cfg = smallConfig(app);
        cfg.iterations = 15;
        auto result = harness::runWorkload(cfg);
        pred::PredictorBank bank(16, pred::CosmosConfig{1, 0});
        bank.replay(result.trace);
        EXPECT_GT(bank.accuracy().cacheSide().percent(),
                  bank.accuracy().directorySide().percent())
            << app;
    }
}

} // namespace
} // namespace cosmos
