/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: the
 * Cosmos predictor's observe/predict operations, the discrete-event
 * queue, and the protocol's end-to-end transaction throughput (trace
 * replay through a full bank is bench_predictor_throughput's serial
 * dsmc cells). These guard the tool's own
 * performance (a predictor model that cannot replay millions of
 * messages per second is painful to do research with).
 */

#include <benchmark/benchmark.h>

#include <sstream>

#include "cosmos/cosmos_predictor.hh"
#include "cosmos/directed.hh"
#include "harness/experiment.hh"
#include "proto/machine.hh"
#include "sim/event_queue.hh"
#include "trace/pattern_census.hh"
#include "trace/trace_io.hh"
#include "workloads/appbt.hh"
#include "workloads/micro.hh"

namespace
{

using namespace cosmos;

void
BM_CosmosObserve(benchmark::State &state)
{
    const auto depth = static_cast<unsigned>(state.range(0));
    pred::CosmosPredictor predictor(pred::CosmosConfig{depth, 0});
    // A small rotating message pattern over 64 blocks.
    std::uint64_t i = 0;
    for (auto _ : state) {
        const Addr block = (i % 64) * 64;
        pred::MsgTuple t{static_cast<NodeId>(i % 7),
                         static_cast<proto::MsgType>(i % 4)};
        benchmark::DoNotOptimize(predictor.observe(block, t));
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_CosmosObserve)->Arg(1)->Arg(2)->Arg(4);

void
BM_CosmosPredict(benchmark::State &state)
{
    pred::CosmosPredictor predictor(pred::CosmosConfig{2, 0});
    for (std::uint64_t i = 0; i < 4096; ++i) {
        predictor.observe((i % 64) * 64,
                          {static_cast<NodeId>(i % 7),
                           static_cast<proto::MsgType>(i % 4)});
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(predictor.predict((i % 64) * 64));
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_CosmosPredict);

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        std::uint64_t fired = 0;
        for (int i = 0; i < 1024; ++i)
            eq.scheduleAt(static_cast<Tick>(i * 7 % 97),
                          [&fired]() { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_EventQueue);

void
BM_ProtocolPingPong(benchmark::State &state)
{
    // Two caches alternately writing one block: the Figure 1 flow.
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    const Addr block = cfg.pageBytes; // homed at node 1
    NodeId writer = 2;
    std::uint64_t transactions = 0;
    for (auto _ : state) {
        bool done = false;
        m.cache(writer).access(block, true, [&]() { done = true; });
        m.eventQueue().run();
        benchmark::DoNotOptimize(done);
        writer = writer == 2 ? 3 : 2;
        ++transactions;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(transactions));
}
BENCHMARK(BM_ProtocolPingPong);

void
BM_WorkloadIteration(benchmark::State &state)
{
    // Full-machine cost of simulating one appbt iteration.
    harness::RunConfig cfg;
    cfg.checkInvariants = false;
    std::uint64_t iters = 0;
    for (auto _ : state) {
        state.PauseTiming();
        wl::AppBtParams params;
        params.iterations = 1;
        params.warmupIterations = 0;
        wl::AppBt workload(params);
        state.ResumeTiming();
        auto result = harness::runWorkload(cfg, workload);
        benchmark::DoNotOptimize(result.trace.records.size());
        ++iters;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(iters));
}
BENCHMARK(BM_WorkloadIteration);

void
BM_DirectedMigratoryObserve(benchmark::State &state)
{
    pred::MigratoryPredictor predictor;
    const pred::MsgTuple cycle[3] = {
        {1, proto::MsgType::get_ro_request},
        {2, proto::MsgType::inval_rw_response},
        {1, proto::MsgType::upgrade_request},
    };
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            predictor.observe((i % 32) * 64, cycle[i % 3]));
        ++i;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(i));
}
BENCHMARK(BM_DirectedMigratoryObserve);

void
BM_TraceRoundTrip(benchmark::State &state)
{
    // Serialize + parse a 10k-record trace.
    trace::Trace t;
    t.app = "bench";
    t.numNodes = 16;
    for (int i = 0; i < 10000; ++i) {
        trace::TraceRecord r;
        r.block = static_cast<Addr>(i % 512) * 64;
        r.sender = static_cast<NodeId>(i % 16);
        r.receiver = static_cast<NodeId>((i + 3) % 16);
        r.type = static_cast<proto::MsgType>(i % 12);
        r.role = proto::receiverRole(r.type);
        t.records.push_back(r);
    }
    for (auto _ : state) {
        std::stringstream ss;
        trace::writeTrace(ss, t);
        auto back = trace::readTrace(ss);
        benchmark::DoNotOptimize(back.records.size());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_TraceRoundTrip);

void
BM_PatternCensus(benchmark::State &state)
{
    harness::RunConfig cfg;
    cfg.checkInvariants = false;
    wl::MigratoryParams params;
    params.blocks = 16;
    params.iterations = 30;
    wl::MigratoryMicro workload(params);
    const auto result = harness::runWorkload(cfg, workload);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            trace::classifyTrace(result.trace).totalBlocks);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(result.trace.records.size()));
}
BENCHMARK(BM_PatternCensus);

} // namespace

BENCHMARK_MAIN();
