#include "harness/traffic.hh"

#include "common/log.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"
#include "trace/trace.hh"

namespace cosmos::harness
{

RunResult
runTraffic(const TrafficConfig &cfg, forge::TrafficSource &source)
{
    cosmos_assert(cfg.opsPerIteration > 0,
                  "opsPerIteration must be positive");
    cosmos_assert(source.bounded() || cfg.maxIterations >= 0,
                  "an unbounded source needs --iterations");
    cosmos_assert(cfg.machine.numNodes >= source.numProcs(),
                  "source references ", source.numProcs(),
                  " processors but the machine has ",
                  cfg.machine.numNodes, " nodes");

    proto::Machine machine(cfg.machine);
    runtime::Runtime rt(machine);

    RunResult result;
    result.trace.app = source.name();
    result.trace.numNodes = machine.numNodes();
    result.trace.blockBytes = cfg.machine.blockBytes;
    result.trace.seed = cfg.machine.seed;

    trace::TraceRecorder recorder(result.trace,
                                  cfg.warmupIterations);
    machine.addObserver(&recorder);

    std::vector<forge::Access> chunk;
    int iter = 0;
    while (cfg.maxIterations < 0 || iter < cfg.maxIterations) {
        if (source.next(chunk, cfg.opsPerIteration) == 0)
            break;
        machine.setIteration(iter);
        runtime::ProgramBuilder builder(machine.numNodes());
        for (const forge::Access &a : chunk) {
            if (a.write)
                builder.proc(a.proc).write(a.addr);
            else
                builder.proc(a.proc).read(a.addr);
        }
        builder.barrier();
        rt.runPrograms(builder.take());
        if (cfg.checkInvariants)
            requireCoherent(machine, "chunk " + std::to_string(iter) +
                                         " of " + source.name());
        if (cfg.recordSink) {
            cfg.recordSink(result.trace.records);
            result.trace.records.clear();
        }
        ++iter;
    }
    if (source.failed())
        cosmos_fatal("traffic source failed: ", source.error());

    result.trace.iterations = iter;
    result.network = machine.networkStats();
    result.totals = collectTotals(machine);
    result.finalTime = machine.eventQueue().now();
    result.events = machine.eventQueue().executed();
    if (cfg.metrics != nullptr)
        machine.publishMetrics(*cfg.metrics);
    return result;
}

} // namespace cosmos::harness
