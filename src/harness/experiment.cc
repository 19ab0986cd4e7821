#include "harness/experiment.hh"

#include "check/coherence.hh"
#include "common/log.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"
#include "trace/trace.hh"

namespace cosmos::harness
{

RunResult
runWorkload(const RunConfig &cfg)
{
    auto workload = wl::makeWorkload(cfg.app);
    return runWorkload(cfg, *workload);
}

ProtocolTotals
collectTotals(const proto::Machine &machine)
{
    ProtocolTotals t;
    for (NodeId n = 0; n < machine.numNodes(); ++n) {
        const auto &c = machine.cache(n).stats();
        t.loads += c.loads;
        t.stores += c.stores;
        t.readMisses += c.readMisses;
        t.writeMisses += c.writeMisses;
        t.upgrades += c.upgrades;
        t.evictions += c.evictions;
        t.staleInvals += c.staleInvals;
        const auto &d = machine.directory(n).stats();
        t.invalsSent += d.invalsSent;
        t.exclusiveGrants += d.exclusiveGrants;
        t.recalls += d.recalls;
        t.forwardsSent += d.forwardsSent;
        t.forwardsSuppressed += d.forwardsSuppressed;
        t.fwdAcks += d.fwdAcks;
    }
    return t;
}

void
requireCoherent(const proto::Machine &machine, const std::string &where)
{
    const auto violations = check::checkCoherence(machine);
    if (!violations.empty()) {
        cosmos_panic("coherence violation after ", where, ": ",
                     violations.front().format(), " (",
                     violations.size(), " total)");
    }
}

RunResult
runWorkload(const RunConfig &cfg, wl::Workload &workload)
{
    proto::Machine machine(cfg.machine);
    runtime::Runtime rt(machine);

    workload.setup(machine.addrMap(), machine.numNodes(), cfg.seed);
    const auto &info = workload.info();
    const int iterations =
        cfg.iterations >= 0 ? cfg.iterations : info.iterations;
    const int warmup = cfg.warmupIterations >= 0
                           ? cfg.warmupIterations
                           : info.warmupIterations;
    cosmos_assert(warmup <= iterations,
                  "warm-up exceeds iteration count");

    RunResult result;
    result.trace.app = info.name;
    result.trace.numNodes = machine.numNodes();
    result.trace.blockBytes = cfg.machine.blockBytes;
    result.trace.iterations = iterations;
    result.trace.seed = cfg.seed;

    trace::TraceRecorder recorder(result.trace, warmup);
    machine.addObserver(&recorder);

    for (int iter = 0; iter < iterations; ++iter) {
        machine.setIteration(iter);
        runtime::ProgramBuilder builder(machine.numNodes());
        workload.emitIteration(iter, builder);
        rt.runPrograms(builder.take());
        if (cfg.checkInvariants)
            requireCoherent(machine, "iteration " +
                                         std::to_string(iter) +
                                         " of " + info.name);
    }

    result.workloadStats = workload.statsSummary();
    result.network = machine.networkStats();
    result.totals = collectTotals(machine);
    result.finalTime = machine.eventQueue().now();
    result.events = machine.eventQueue().executed();
    if (cfg.metrics != nullptr)
        machine.publishMetrics(*cfg.metrics);
    return result;
}

} // namespace cosmos::harness
