/**
 * @file
 * Golden regression suite: replays the Table 5 / Table 6 grid and
 * requires every accuracy counter to equal the pinned values in
 * fixtures/golden_accuracy.hh, cell by cell and bit for bit.
 *
 * The fixture was captured from the seed implementation before the
 * predictor's data layout was flattened (packed MHRs, open-addressing
 * tables, arena backing), so this suite is the proof that those are
 * pure performance changes. It intentionally checks raw integer
 * counters, not percentages: a drift of one reference is a bug even
 * when every rounded table entry still matches the paper.
 */

#include <gtest/gtest.h>

#include <string>

#include "cosmos/predictor_bank.hh"
#include "fixtures/golden_accuracy.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"

namespace cosmos
{
namespace
{

TEST(GoldenAccuracy, SerialReplayMatchesFixtureBitForBit)
{
    std::string prev_app;
    for (const auto &row : fixtures::golden_accuracy_rows) {
        const auto &trace = harness::cachedTrace(row.app);
        pred::PredictorBank bank(
            trace.numNodes,
            pred::CosmosConfig{row.depth, row.filterMax});
        bank.replay(trace);
        const auto &acc = bank.accuracy();
        const std::string cell = std::string(row.app) + " depth " +
                                 std::to_string(row.depth) +
                                 " filter " +
                                 std::to_string(row.filterMax);
        EXPECT_EQ(acc.cacheSide().hits, row.cacheHits) << cell;
        EXPECT_EQ(acc.cacheSide().total, row.cacheTotal) << cell;
        EXPECT_EQ(acc.directorySide().hits, row.dirHits) << cell;
        EXPECT_EQ(acc.directorySide().total, row.dirTotal) << cell;
        EXPECT_EQ(acc.coldMisses(), row.coldMisses) << cell;
    }
}

TEST(GoldenAccuracy, ParallelSweepMatchesFixtureBitForBit)
{
    // The same grid through the parallel sweep engine
    // (replay::runJobs): it must land on the very same counters.
    std::vector<replay::ReplayJob> jobs;
    for (const auto &row : fixtures::golden_accuracy_rows)
        jobs.push_back(
            {.app = row.app,
             .config = pred::CosmosConfig{row.depth, row.filterMax}});
    const auto results = harness::runSweep(jobs);
    ASSERT_EQ(results.size(), fixtures::num_golden_accuracy_rows);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &row = fixtures::golden_accuracy_rows[i];
        const auto &acc = results[i].accuracy;
        const std::string cell = std::string(row.app) + " depth " +
                                 std::to_string(row.depth) +
                                 " filter " +
                                 std::to_string(row.filterMax);
        EXPECT_EQ(acc.cacheSide().hits, row.cacheHits) << cell;
        EXPECT_EQ(acc.cacheSide().total, row.cacheTotal) << cell;
        EXPECT_EQ(acc.directorySide().hits, row.dirHits) << cell;
        EXPECT_EQ(acc.directorySide().total, row.dirTotal) << cell;
        EXPECT_EQ(acc.coldMisses(), row.coldMisses) << cell;
    }
}

TEST(GoldenAccuracy, FixtureCoversTheFullGrid)
{
    // 5 applications x (4 unfiltered depths + 2 depths x 2 filters).
    EXPECT_EQ(fixtures::num_golden_accuracy_rows, 40u);
}

} // namespace
} // namespace cosmos
