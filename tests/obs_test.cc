/**
 * @file
 * Tests of the observability subsystem: the metrics registry (typed
 * metrics, name-wise merge, the stable JSON export and its central
 * guarantee -- byte-identical output across runs, thread counts, and
 * serial-vs-sharded replay) and the Chrome trace-event tracing layer
 * (files always parse; events carry the required keys).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "fixtures/mini_json.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "obs/metrics.hh"
#include "obs/trace_event.hh"

namespace cosmos
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

// ------------------------------------------------------------ registry

TEST(Registry, LookupCreatesOnceAndReturnsSameObject)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("x.count");
    a.add(3);
    EXPECT_EQ(&reg.counter("x.count"), &a);
    EXPECT_EQ(reg.counter("x.count").value(), 3u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, GaugeTracksHighWater)
{
    obs::Registry reg;
    obs::Gauge &g = reg.gauge("q.depth");
    g.set(5);
    g.set(2);
    g.add(1);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(g.highWater(), 5);
}

TEST(Registry, MergeFoldsEveryKind)
{
    obs::Registry a;
    a.counter("c").add(10);
    a.gauge("g").set(7);
    a.histogram("h", Histogram::linear(0.0, 10.0, 10)).record(3.0);
    a.summary("s").sample(1.0);

    obs::Registry b;
    b.counter("c").add(5);
    b.gauge("g").set(3);
    b.histogram("h", Histogram::linear(0.0, 10.0, 10)).record(8.0);
    b.summary("s").sample(5.0);
    b.counter("only_in_b").add(1);

    a.merge(b);
    EXPECT_EQ(a.counter("c").value(), 15u);
    EXPECT_EQ(a.gauge("g").value(), 10);
    EXPECT_EQ(a.gauge("g").highWater(), 7);
    EXPECT_EQ(a.histogram("h", {}).count(), 2u);
    EXPECT_EQ(a.summary("s").count(), 2u);
    EXPECT_EQ(a.counter("only_in_b").value(), 1u);
}

TEST(Registry, JsonParsesAndHidesVolatileByDefault)
{
    obs::Registry reg;
    reg.counter("stable.count").add(42);
    reg.counter("volatile.count", obs::Stability::volatile_).add(9);
    reg.histogram("stable.hist", Histogram::exponential(1.0, 2.0, 4))
        .record(3.0);

    const std::string json = reg.toJson();
    auto doc = mini_json::parse(json);
    ASSERT_TRUE(doc->isObject());
    ASSERT_TRUE(doc->has("schema"));
    EXPECT_EQ(doc->get("schema")->string, "cosmos-metrics-v1");
    const auto *metrics = doc->get("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_TRUE(metrics->has("stable.count"));
    EXPECT_TRUE(metrics->has("stable.hist"));
    EXPECT_FALSE(metrics->has("volatile.count"));

    auto full = mini_json::parse(reg.toJson(true));
    EXPECT_TRUE(full->get("metrics")->has("volatile.count"));
}

TEST(Registry, JsonIsByteStableAcrossIdenticalRuns)
{
    auto build = [] {
        obs::Registry reg;
        reg.counter("a").add(7);
        reg.gauge("b").set(-3);
        reg.histogram("c", Histogram::linear(0.0, 1.0, 4)).record(0.5);
        reg.summary("d").sample(2.5);
        return reg.toJson();
    };
    EXPECT_EQ(build(), build());
}

// ----------------------------------------------- machine instrumentation

TEST(MachineMetrics, MatchTheRunResultCounters)
{
    obs::Registry reg;
    harness::RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.iterations = 4;
    cfg.checkInvariants = false;
    cfg.metrics = &reg;
    const auto result = harness::runWorkload(cfg);

    EXPECT_EQ(reg.counter("sim.events_executed").value(),
              result.events);
    EXPECT_EQ(reg.counter("net.remote_messages").value(),
              result.network.remoteMessages);
    EXPECT_EQ(reg.counter("proto.cache.loads").value(),
              result.totals.loads);
    EXPECT_EQ(reg.counter("proto.cache.stores").value(),
              result.totals.stores);
    // Every remote message shows up in the latency histogram.
    EXPECT_EQ(reg.histogram("net.latency_ticks", {}).count(),
              result.network.remoteMessages);
    // All in-flight messages were delivered by quiescence.
    EXPECT_EQ(reg.gauge("net.in_flight").value(), 0);
    EXPECT_GT(reg.gauge("net.in_flight").highWater(), 0);
    EXPECT_GT(reg.gauge("sim.queue_depth").highWater(), 0);
}

// -------------------------------------------------- export determinism

std::vector<replay::ReplayJob>
smallGrid(unsigned shards = 0)
{
    std::vector<replay::ReplayJob> jobs;
    for (unsigned depth = 1; depth <= 2; ++depth) {
        replay::ReplayJob j;
        j.app = "micro_migratory";
        j.iterations = 6;
        j.config = pred::CosmosConfig{depth, 0};
        j.shards = shards;
        jobs.push_back(j);
    }
    return jobs;
}

std::string
sweepJson(unsigned threads, unsigned shards)
{
    const auto jobs = smallGrid(shards);
    obs::Registry reg;
    harness::SweepOptions opts;
    opts.threads = threads;
    opts.metrics = &reg; // volatile task counts must not leak into JSON
    const auto results = harness::runSweep(jobs, opts);
    harness::publishSweepMetrics(jobs, results, reg);
    return reg.toJson();
}

TEST(MetricsExport, ByteIdenticalAcrossThreadCounts)
{
    const std::string serial = sweepJson(1, 1);
    const std::string threaded = sweepJson(4, 1);
    EXPECT_EQ(serial, threaded);
}

TEST(MetricsExport, ByteIdenticalSerialVsShardedReplay)
{
    // Four threads over two cells: each cell replays its shards on
    // two threads, a parallelFor nested in the sweep's own. Three
    // shards leave none of this trace's shards empty, so a lost
    // partial shows.
    const std::string serial = sweepJson(1, 1);
    const std::string sharded = sweepJson(4, 3);
    EXPECT_EQ(serial, sharded);
}

TEST(MetricsExport, TasksSubmittedCountsCellsAndShards)
{
    const auto jobs = smallGrid(4);
    obs::Registry reg;
    harness::runSweep(jobs, {.threads = 2, .metrics = &reg});
    EXPECT_EQ(reg.counter("replay.pool.tasks_submitted",
                          obs::Stability::volatile_)
                  .value(),
              jobs.size() * (1 + 4));
}

TEST(MetricsExport, WriteJsonRoundTrips)
{
    obs::Registry reg;
    reg.counter("k").add(1);
    const std::string path = tempPath("metrics_roundtrip.json");
    ASSERT_TRUE(reg.writeJson(path));
    EXPECT_EQ(slurp(path), reg.toJson());
    std::remove(path.c_str());
}

// -------------------------------------------------------------- tracing

TEST(Tracing, TraceFileIsValidChromeTraceJson)
{
    obs::startTracing();
    {
        COSMOS_SPAN("test", "outer");
        COSMOS_SPAN_ARGS("test", "inner", "index", 7u);
        COSMOS_INSTANT("test", "marker");
    }
    const std::string path = tempPath("trace_events.json");
    ASSERT_TRUE(obs::writeTrace(path));

    auto doc = mini_json::parse(slurp(path));
    std::remove(path.c_str());
    ASSERT_TRUE(doc->isObject());
    const auto *events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

#if COSMOS_OBS_TRACING_ENABLED
    ASSERT_GE(events->array.size(), 3u);
#endif
    for (const auto &ev : events->array) {
        ASSERT_TRUE(ev->isObject());
        EXPECT_TRUE(ev->has("name"));
        EXPECT_TRUE(ev->has("cat"));
        EXPECT_TRUE(ev->has("ph"));
        EXPECT_TRUE(ev->has("ts"));
        EXPECT_TRUE(ev->has("pid"));
        EXPECT_TRUE(ev->has("tid"));
        const std::string ph = ev->get("ph")->string;
        EXPECT_TRUE(ph == "X" || ph == "i");
        if (ph == "X") {
            EXPECT_TRUE(ev->has("dur"));
        }
    }
}

TEST(Tracing, DisabledRecordersProduceAnEmptyValidTrace)
{
    // Not started: macros are armed (in tracing builds) but inactive.
    const std::string path = tempPath("trace_empty.json");
    {
        COSMOS_SPAN("test", "ignored");
    }
    ASSERT_TRUE(obs::writeTrace(path));
    auto doc = mini_json::parse(slurp(path));
    std::remove(path.c_str());
    const auto *events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->array.empty());
}

} // namespace
} // namespace cosmos
