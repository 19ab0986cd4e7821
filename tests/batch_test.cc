/**
 * @file
 * Tests of the batched and chunked replay pipeline.
 *
 * The whole pipeline behind PredictorBank::replay (cosmos/batch.hh
 * staging, the grouped counting sort, the probe/apply passes, and
 * chunked observeChunk replay) claims one property everywhere: every
 * Table 5/6/8 counter is *bit-identical* to feeding each record to
 * PredictorBank::observe in trace order. This suite checks that claim
 * against every axis the pipeline can vary -- predictor
 * configuration, iteration prefixes, pointer slices, chunk and window
 * seams -- plus the supporting guarantees: census reservation really
 * prevents rehashes, and the traffic record sink matches
 * materialization chunk for chunk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat_map.hh"
#include "cosmos/predictor_bank.hh"
#include "cosmos/variants.hh"
#include "forge/synth.hh"
#include "harness/trace_cache.hh"
#include "harness/traffic.hh"

namespace cosmos
{
namespace
{

using pred::CosmosConfig;
using pred::PredictorBank;

/** Every counter the paper's tables read, flattened for EXPECT_EQ. */
struct Counters
{
    std::uint64_t cacheHits, cacheTotal, dirHits, dirTotal;
    std::uint64_t coldMisses, cacheArcRefs, dirArcRefs;
    std::uint64_t arcHits; ///< summed over the full (from, to) grid
    std::uint64_t mhrEntries, phtEntries;

    bool operator==(const Counters &) const = default;
};

std::uint64_t
arcGridHits(const pred::ArcStats &a)
{
    std::uint64_t hits = 0;
    for (unsigned f = 0; f < proto::num_msg_types; ++f)
        for (unsigned t = 0; t < proto::num_msg_types; ++t)
            hits += a.arc(static_cast<proto::MsgType>(f),
                          static_cast<proto::MsgType>(t))
                        .hits;
    return hits;
}

Counters
snapshot(const PredictorBank &bank)
{
    const auto &acc = bank.accuracy();
    const auto &cache_arcs = bank.arcs(proto::Role::cache);
    const auto &dir_arcs = bank.arcs(proto::Role::directory);
    const auto m = bank.memoryStats();
    return {acc.cacheSide().hits,     acc.cacheSide().total,
            acc.directorySide().hits, acc.directorySide().total,
            acc.coldMisses(),         cache_arcs.totalRefs(),
            dir_arcs.totalRefs(),
            arcGridHits(cache_arcs) + arcGridHits(dir_arcs),
            m.mhrEntries,             m.phtEntries};
}

/** The reference: one observe() per record, in trace order. */
Counters
observeLoop(const trace::Trace &t, const CosmosConfig &cfg,
            std::int32_t max_iteration = INT32_MAX)
{
    PredictorBank bank(t.numNodes, cfg);
    for (const auto &r : t.records)
        if (r.iteration <= max_iteration)
            bank.observe(r);
    return snapshot(bank);
}

// ------------------------------------------------- batched replay

TEST(BatchedReplay, BitIdenticalAcrossConfigs)
{
    // Depth, filter, and the PHT budget all change what applyCore
    // does per record; none may change under batching.
    const CosmosConfig configs[] = {
        {.depth = 1}, {.depth = 2, .filterMax = 2},
        {.depth = 4}, {.depth = 2, .maxPhtPerBlock = 2}};
    for (const char *app : {"dsmc", "barnes"}) {
        const auto &t = harness::cachedTrace(app);
        for (const auto &cfg : configs) {
            PredictorBank bank(t.numNodes, cfg);
            bank.replay(t);
            EXPECT_EQ(snapshot(bank), observeLoop(t, cfg))
                << app << " depth=" << cfg.depth
                << " filter=" << cfg.filterMax
                << " pht=" << cfg.maxPhtPerBlock;
        }
    }
}

TEST(BatchedReplay, BitIdenticalAcrossChunkSeams)
{
    // Each chunk size cuts the trace into staging windows at other
    // places: one record per window, a small odd size, one short of
    // batch_window, exactly batch_window, and one past it (each call
    // splits into a full window plus a one-record window). The trace
    // must span several windows for this to mean anything.
    const auto &t = harness::cachedTrace("dsmc");
    ASSERT_GT(t.records.size(), 2 * pred::batch_window);
    const CosmosConfig cfg{.depth = 2};
    const Counters want = observeLoop(t, cfg);
    for (std::size_t chunk :
         {std::size_t{1}, std::size_t{7}, pred::batch_window - 1,
          pred::batch_window, pred::batch_window + 1}) {
        PredictorBank bank(t.numNodes, cfg);
        for (std::size_t i = 0; i < t.records.size(); i += chunk)
            bank.observeChunk(t.records.data() + i,
                              std::min(chunk, t.records.size() - i));
        EXPECT_EQ(snapshot(bank), want) << "chunk size " << chunk;
    }
}

TEST(BatchedReplay, BitIdenticalOnIterationPrefixes)
{
    const auto &t = harness::cachedTrace("dsmc");
    const CosmosConfig cfg{.depth = 2};
    for (std::int32_t max_iter : {0, 2, 5}) {
        PredictorBank bank(t.numNodes, cfg);
        bank.replay(t, max_iter);
        EXPECT_EQ(snapshot(bank), observeLoop(t, cfg, max_iter))
            << "maxIteration=" << max_iter;
    }
}

TEST(BatchedReplay, PointerSliceOverloadMatchesScalar)
{
    const auto &t = harness::cachedTrace("dsmc");
    std::vector<const trace::TraceRecord *> refs;
    refs.reserve(t.records.size());
    for (const auto &r : t.records)
        refs.push_back(&r);

    const CosmosConfig cfg{.depth = 2};
    PredictorBank batched(t.numNodes, cfg);
    batched.replay(refs);
    EXPECT_EQ(snapshot(batched), observeLoop(t, cfg));
}

TEST(BatchedReplay, NonCosmosBankFallsBackBitIdentically)
{
    // Directed-baseline banks observe record by record inside
    // replay; the counters still must match the observe() loop.
    const auto &t = harness::cachedTrace("dsmc");
    const auto factory = [](NodeId, proto::Role) {
        return std::make_unique<pred::LastValuePredictor>();
    };
    PredictorBank scalar(t.numNodes, factory);
    for (const auto &r : t.records)
        scalar.observe(r);
    PredictorBank batched(t.numNodes, factory);
    batched.replay(t);
    EXPECT_EQ(batched.accuracy().overall().hits,
              scalar.accuracy().overall().hits);
    EXPECT_EQ(batched.accuracy().overall().total,
              scalar.accuracy().overall().total);
    EXPECT_EQ(batched.accuracy().coldMisses(),
              scalar.accuracy().coldMisses());
}

// ------------------------------------------------ census reserve

TEST(CensusReserve, NoRehashDuringReplay)
{
    // After reserveFromCensus, a full replay must not grow any block
    // table: the capacity snapshot before equals the one after.
    const auto &t = harness::cachedTrace("dsmc");
    PredictorBank bank(t.numNodes, CosmosConfig{.depth = 2});
    bank.reserveFromCensus(trace::moduleBlockCensus(t));

    std::vector<std::size_t> cap_before;
    for (NodeId n = 0; n < t.numNodes; ++n)
        for (auto role : {proto::Role::cache, proto::Role::directory})
            cap_before.push_back(
                dynamic_cast<const pred::CosmosPredictor &>(
                    bank.predictor(n, role))
                    .tableStats()
                    .blockCapacity);

    bank.replay(t);

    std::size_t i = 0;
    for (NodeId n = 0; n < t.numNodes; ++n)
        for (auto role : {proto::Role::cache, proto::Role::directory})
            EXPECT_EQ(dynamic_cast<const pred::CosmosPredictor &>(
                          bank.predictor(n, role))
                          .tableStats()
                          .blockCapacity,
                      cap_before[i++])
                << "node " << n << " rehashed during replay";
}

TEST(FlatMapReserve, ProbeLengthsStayShortAtHighLoad)
{
    // Fill a reserved table to just under the 7/8 load limit; robin-
    // hood displacement must keep probe chains short (regression
    // guard for the probe/prefetch pipeline, whose prefetch only
    // covers the first slots of a chain).
    FlatMap<std::uint64_t, int> map;
    constexpr std::size_t n = 7000; // reserve -> 8192 slots, ~85% load
    map.reserve(n);
    const std::size_t cap = map.capacity();
    for (std::uint64_t i = 0; i < n; ++i)
        map.insert(i * 0x9E3779B97F4A7C15ull, static_cast<int>(i));
    EXPECT_EQ(map.capacity(), cap) << "reserve did not cover " << n;

    const auto ps = map.probeLengthStats();
    EXPECT_EQ(ps.samples, n);
    EXPECT_LE(ps.mean(), 8.0);
    EXPECT_LE(ps.longest, 64u);
}

// ------------------------------------------------- traffic sink

TEST(TrafficSink, ChunkedSinkMatchesMaterializedTrace)
{
    forge::ForgeParams params;
    params.numProcs = 4;
    params.blocks = 32;
    const int iterations = 6;

    harness::TrafficConfig cfg;
    cfg.machine.numNodes = params.numProcs;
    cfg.maxIterations = iterations;
    cfg.opsPerIteration = 256;

    forge::SynthSource materialized_src(params);
    const auto materialized = runTraffic(cfg, materialized_src);

    // The constant-memory path: every chunk the sink sees goes
    // straight into a predictor bank and is then dropped.
    const CosmosConfig pcfg{.depth = 2};
    PredictorBank chunked(params.numProcs, pcfg);
    std::vector<trace::TraceRecord> sunk;
    cfg.recordSink = [&](const std::vector<trace::TraceRecord> &recs) {
        sunk.insert(sunk.end(), recs.begin(), recs.end());
        chunked.observeChunk(recs.data(), recs.size());
    };
    forge::SynthSource streamed_src(params);
    const auto streamed = runTraffic(cfg, streamed_src);

    EXPECT_TRUE(streamed.trace.records.empty())
        << "sink must drain the trace";
    EXPECT_EQ(sunk, materialized.trace.records);
    EXPECT_EQ(streamed.trace.iterations,
              materialized.trace.iterations);
    ASSERT_FALSE(sunk.empty());
    EXPECT_EQ(snapshot(chunked), observeLoop(materialized.trace, pcfg))
        << "chunked observeChunk diverged from the observe() loop";
}

} // namespace
} // namespace cosmos
