/**
 * @file
 * Tests of the parallel replay subsystem: the fork-join
 * parallelFor, the block-sharding invariant, the deterministic stats
 * merges, and -- the core guarantee -- that sharded parallel replay
 * is bit-identical to serial replay for every workload and depth.
 *
 * This suite is also the ThreadSanitizer target (scripts/ci.sh builds
 * it with -DCOSMOS_TSAN=ON), so the concurrency tests double as race
 * detectors.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cosmos/predictor_bank.hh"
#include "harness/sweep.hh"
#include "harness/trace_cache.hh"
#include "replay/parallel_for.hh"
#include "replay/sharding.hh"
#include "replay/sweep.hh"

namespace cosmos
{
namespace
{

using replay::ReplayJob;
using replay::ReplayResult;

// ------------------------------------------------------- parallel for

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    replay::parallelFor(4, hits.size(),
                        [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, PropagatesExceptions)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(replay::parallelFor(3, 50,
                                     [&](std::size_t i) {
                                         ran.fetch_add(1);
                                         if (i == 17)
                                             throw std::runtime_error(
                                                 "boom");
                                     }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 50); // every index still ran
}

TEST(ParallelFor, NestedDoesNotDeadlock)
{
    std::atomic<int> leaves{0};
    replay::parallelFor(2, 4, [&](std::size_t) {
        replay::parallelFor(2, 8,
                            [&](std::size_t) { leaves.fetch_add(1); });
    });
    EXPECT_EQ(leaves.load(), 32);
}

TEST(ParallelFor, OneThreadRunsOnTheCallingThread)
{
    // Each index sleeps, so any second thread would get to run some.
    std::vector<std::thread::id> ran_on(64);
    replay::parallelFor(1, ran_on.size(), [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran_on[i] = std::this_thread::get_id();
    });
    for (const auto &id : ran_on)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ParallelFor, DefaultThreadCountHonorsEnvironment)
{
    setenv("COSMOS_THREADS", "3", 1);
    EXPECT_EQ(replay::defaultThreadCount(), 3u);
    setenv("COSMOS_THREADS", "not-a-number", 1);
    setWarningsEnabled(false);
    EXPECT_GE(replay::defaultThreadCount(), 1u);
    setWarningsEnabled(true);
    unsetenv("COSMOS_THREADS");
    EXPECT_GE(replay::defaultThreadCount(), 1u);
}

// ------------------------------------------------------------ sharding

TEST(Sharding, BlocksNeverSplitAcrossShardsAndOrderIsKept)
{
    const auto &trace = harness::cachedTrace("micro_rmw", 8);
    const auto shards = replay::shardByBlock(trace, 4);
    ASSERT_EQ(shards.size(), 4u);

    std::size_t total = 0;
    std::set<Addr> seen_elsewhere;
    for (unsigned s = 0; s < shards.size(); ++s) {
        std::set<Addr> blocks_here;
        Tick last = 0;
        for (const auto *r : shards[s].records) {
            EXPECT_EQ(replay::shardOfBlock(r->block, 4), s);
            EXPECT_GE(r->when, last); // trace order preserved
            last = r->when;
            blocks_here.insert(r->block);
        }
        for (Addr b : blocks_here)
            EXPECT_FALSE(seen_elsewhere.count(b));
        seen_elsewhere.insert(blocks_here.begin(), blocks_here.end());
        total += shards[s].records.size();
    }
    EXPECT_EQ(total, trace.records.size());
}

TEST(Sharding, ShardOfBlockIsStable)
{
    for (Addr b = 0; b < 4096; b += 64)
        for (unsigned k : {1u, 2u, 7u})
            EXPECT_EQ(replay::shardOfBlock(b, k),
                      replay::shardOfBlock(b, k));
    EXPECT_EQ(replay::shardOfBlock(0x1234, 1), 0u);
}

// -------------------------------------------------------- stats merges

TEST(StatsMerge, AccuracyTrackerMergeEqualsInterleavedRecording)
{
    pred::AccuracyTracker whole, left, right;
    for (int i = 0; i < 40; ++i) {
        const auto role = i % 2 == 0 ? proto::Role::cache
                                     : proto::Role::directory;
        const bool hit = i % 3 == 0;
        const bool cold = i % 5 == 0;
        whole.record(role, i % 7, hit, !cold);
        (i % 2 == 0 ? left : right).record(role, i % 7, hit, !cold);
    }
    left.merge(right);
    EXPECT_EQ(left.overall().hits, whole.overall().hits);
    EXPECT_EQ(left.overall().total, whole.overall().total);
    EXPECT_EQ(left.cacheSide().hits, whole.cacheSide().hits);
    EXPECT_EQ(left.directorySide().total,
              whole.directorySide().total);
    EXPECT_EQ(left.coldMisses(), whole.coldMisses());
    ASSERT_EQ(left.byIteration().size(), whole.byIteration().size());
    for (std::size_t i = 0; i < whole.byIteration().size(); ++i) {
        EXPECT_EQ(left.byIteration()[i].hits,
                  whole.byIteration()[i].hits);
        EXPECT_EQ(left.byIteration()[i].total,
                  whole.byIteration()[i].total);
    }
}

TEST(StatsMerge, ArcStatsMergeSumsPerArcCounts)
{
    using proto::MsgType;
    pred::ArcStats whole, left, right;
    const MsgType a = MsgType::get_ro_request;
    const MsgType b = MsgType::get_rw_request;
    for (int i = 0; i < 30; ++i) {
        const MsgType from = i % 2 == 0 ? a : b;
        const bool hit = i % 4 == 0;
        whole.record(from, b, hit);
        (i % 3 == 0 ? left : right).record(from, b, hit);
    }
    left.merge(right);
    EXPECT_EQ(left.totalRefs(), whole.totalRefs());
    for (MsgType from : {a, b}) {
        EXPECT_EQ(left.arc(from, b).refs, whole.arc(from, b).refs);
        EXPECT_EQ(left.arc(from, b).hits, whole.arc(from, b).hits);
    }
}

TEST(StatsMerge, MemoryStatsMergeSumsEntries)
{
    pred::MemoryStats a, b;
    a.depth = b.depth = 3;
    a.mhrEntries = 10;
    a.phtEntries = 25;
    b.mhrEntries = 4;
    b.phtEntries = 6;
    a.merge(b);
    EXPECT_EQ(a.mhrEntries, 14u);
    EXPECT_EQ(a.phtEntries, 31u);
    EXPECT_EQ(a.depth, 3u);
}

TEST(StatsMergeDeathTest, MemoryStatsMergeRejectsDepthMismatch)
{
    pred::MemoryStats a, b;
    a.depth = 1;
    b.depth = 2;
    EXPECT_DEATH(a.merge(b), "different depths");
}

// --------------------------------------------------------- determinism

/** Serial reference replay through one bank. */
ReplayResult
serialReplay(const trace::Trace &t, const pred::CosmosConfig &cfg,
             std::int32_t max_iteration = INT32_MAX)
{
    pred::PredictorBank bank(t.numNodes, cfg);
    bank.replay(t, max_iteration);
    ReplayResult r;
    r.accuracy = bank.accuracy();
    r.cacheArcs = bank.arcs(proto::Role::cache);
    r.directoryArcs = bank.arcs(proto::Role::directory);
    r.memory = bank.memoryStats();
    return r;
}

void
expectBitIdentical(const ReplayResult &a, const ReplayResult &b)
{
    EXPECT_EQ(a.accuracy.overall().hits, b.accuracy.overall().hits);
    EXPECT_EQ(a.accuracy.overall().total, b.accuracy.overall().total);
    EXPECT_EQ(a.accuracy.cacheSide().hits,
              b.accuracy.cacheSide().hits);
    EXPECT_EQ(a.accuracy.cacheSide().total,
              b.accuracy.cacheSide().total);
    EXPECT_EQ(a.accuracy.directorySide().hits,
              b.accuracy.directorySide().hits);
    EXPECT_EQ(a.accuracy.directorySide().total,
              b.accuracy.directorySide().total);
    EXPECT_EQ(a.accuracy.coldMisses(), b.accuracy.coldMisses());
    ASSERT_EQ(a.accuracy.byIteration().size(),
              b.accuracy.byIteration().size());
    for (std::size_t i = 0; i < a.accuracy.byIteration().size(); ++i) {
        EXPECT_EQ(a.accuracy.byIteration()[i].hits,
                  b.accuracy.byIteration()[i].hits);
        EXPECT_EQ(a.accuracy.byIteration()[i].total,
                  b.accuracy.byIteration()[i].total);
    }
    for (const auto *side : {"cache", "dir"}) {
        const auto &aa = side[0] == 'c' ? a.cacheArcs : a.directoryArcs;
        const auto &bb = side[0] == 'c' ? b.cacheArcs : b.directoryArcs;
        EXPECT_EQ(aa.totalRefs(), bb.totalRefs());
        const auto arcs_a = aa.dominantArcs();
        const auto arcs_b = bb.dominantArcs();
        ASSERT_EQ(arcs_a.size(), arcs_b.size());
        for (std::size_t i = 0; i < arcs_a.size(); ++i) {
            EXPECT_EQ(arcs_a[i].from, arcs_b[i].from);
            EXPECT_EQ(arcs_a[i].to, arcs_b[i].to);
            EXPECT_EQ(arcs_a[i].refs, arcs_b[i].refs);
            EXPECT_EQ(arcs_a[i].hits, arcs_b[i].hits);
        }
    }
    EXPECT_EQ(a.memory.depth, b.memory.depth);
    EXPECT_EQ(a.memory.mhrEntries, b.memory.mhrEntries);
    EXPECT_EQ(a.memory.phtEntries, b.memory.phtEntries);
}

TEST(Determinism, ShardedReplayMatchesSerialForAllAppsAndDepths)
{
    // Short runs keep the suite fast; the invariant is iteration-
    // count independent (prediction state is purely per-block).
    for (const std::string app :
         {"appbt", "barnes", "dsmc", "moldyn", "unstructured"}) {
        const auto &trace = harness::cachedTrace(app, 6);
        for (unsigned depth = 1; depth <= 4; ++depth) {
            const pred::CosmosConfig cfg{depth, 0};
            const auto serial = serialReplay(trace, cfg);
            for (unsigned shards : {2u, 5u}) {
                const auto parts =
                    replay::shardByBlock(trace, shards);
                std::vector<ReplayResult> partial(parts.size());
                replay::parallelFor(4, parts.size(), [&](std::size_t s) {
                    pred::PredictorBank bank(trace.numNodes, cfg);
                    bank.replay(parts[s].records);
                    ReplayResult r;
                    r.accuracy = bank.accuracy();
                    r.cacheArcs = bank.arcs(proto::Role::cache);
                    r.directoryArcs =
                        bank.arcs(proto::Role::directory);
                    r.memory = bank.memoryStats();
                    partial[s] = r;
                });
                ReplayResult merged = partial.front();
                for (std::size_t s = 1; s < partial.size(); ++s)
                    merged.merge(partial[s]);
                expectBitIdentical(serial, merged);
            }
        }
    }
}

TEST(Determinism, SweepEngineMatchesSerialWithFiltersAndPrefixes)
{
    const auto &trace = harness::cachedTrace("dsmc", 8);

    for (const auto &cfg :
         {pred::CosmosConfig{1, 1}, pred::CosmosConfig{2, 2}}) {
        ReplayJob job;
        job.config = cfg;
        job.maxIteration = 4;
        job.shards = 4;
        // An explicit shard count is honoured however small the
        // trace: four banks, replayed on three threads, then merged.
        ASSERT_EQ(replay::shardCount(job, trace.records.size(), 3), 4u);
        expectBitIdentical(serialReplay(trace, cfg, 4),
                           replay::replayTrace(trace, job, 3));
    }
}

// ----------------------------------------------------- engine plumbing

TEST(SweepEngine, RunReturnsResultsInJobOrder)
{
    harness::clearTraceCache();
    std::vector<ReplayJob> jobs;
    for (unsigned depth = 1; depth <= 4; ++depth) {
        ReplayJob job;
        job.app = "micro_rmw";
        job.iterations = 8;
        job.config = pred::CosmosConfig{depth, 0};
        jobs.push_back(job);
    }
    const auto results = harness::runSweep(jobs, {.threads = 4});
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const auto &trace = harness::cachedTrace("micro_rmw", 8);
        pred::PredictorBank bank(trace.numNodes, jobs[i].config);
        bank.replay(trace);
        EXPECT_EQ(results[i].accuracy.overall().hits,
                  bank.accuracy().overall().hits);
        EXPECT_EQ(results[i].memory.depth, jobs[i].config.depth);
    }
    harness::clearTraceCache();
}

TEST(SweepEngine, ShardAndThreadPolicy)
{
    // Cells split the threads; an unsharded cell gets one shard per
    // thread it has, floored at one shard per ~64k records.
    EXPECT_EQ(replay::cellThreads(4, 40), 1u);
    EXPECT_EQ(replay::cellThreads(4, 2), 2u);
    EXPECT_EQ(replay::cellThreads(3, 2), 1u);
    ReplayJob job;
    EXPECT_EQ(replay::shardCount(job, 1000, 4), 1u);
    EXPECT_EQ(replay::shardCount(job, 200000, 4), 4u);
    EXPECT_EQ(replay::shardCount(job, 200000, 2), 2u);
    EXPECT_EQ(replay::shardCount(job, 200000, 8), 4u);
    job.shards = 6;
    EXPECT_EQ(replay::shardCount(job, 1000, 1), 6u);
}

TEST(SweepEngine, ConcurrentFetchesOfOneKeySimulateOnce)
{
    harness::clearTraceCache();
    std::vector<const trace::Trace *> seen(16);
    replay::parallelFor(8, seen.size(), [&](std::size_t i) {
        seen[i] = &harness::cachedTrace("micro_rmw", 6);
    });
    for (const auto *t : seen)
        EXPECT_EQ(t, seen[0]); // one entry, simulated once
    harness::clearTraceCache();
}

} // namespace
} // namespace cosmos
