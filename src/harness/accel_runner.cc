#include "harness/accel_runner.hh"

#include "common/log.hh"
#include "runtime/processor.hh"

namespace cosmos::harness
{

AcceleratedRunResult
runAccelerated(const RunConfig &cfg, const accel::OnlineOptions &opts)
{
    auto workload = wl::makeWorkload(cfg.app);
    return runAccelerated(cfg, *workload, opts);
}

AcceleratedRunResult
runAccelerated(const RunConfig &cfg, wl::Workload &workload,
               const accel::OnlineOptions &opts)
{
    proto::Machine machine(cfg.machine);
    runtime::Runtime rt(machine);
    accel::OnlineAccelerator accelerator(machine, opts);

    workload.setup(machine.addrMap(), machine.numNodes(), cfg.seed);
    const auto &info = workload.info();
    const int iterations =
        cfg.iterations >= 0 ? cfg.iterations : info.iterations;
    const int warmup = cfg.warmupIterations >= 0
                           ? cfg.warmupIterations
                           : info.warmupIterations;
    cosmos_assert(warmup <= iterations,
                  "warm-up exceeds iteration count");

    AcceleratedRunResult result;
    result.run.trace.app = info.name;
    result.run.trace.numNodes = machine.numNodes();
    result.run.trace.blockBytes = cfg.machine.blockBytes;
    result.run.trace.iterations = iterations;
    result.run.trace.seed = cfg.seed;

    trace::TraceRecorder recorder(result.run.trace, warmup);
    machine.addObserver(&recorder);

    for (int iter = 0; iter < iterations; ++iter) {
        machine.setIteration(iter);
        runtime::ProgramBuilder builder(machine.numNodes());
        workload.emitIteration(iter, builder);
        rt.runPrograms(builder.take());
        if (cfg.checkInvariants)
            requireCoherent(machine, "iteration " +
                                         std::to_string(iter) +
                                         " of accelerated " +
                                         info.name);
    }

    result.run.workloadStats = workload.statsSummary();
    result.run.network = machine.networkStats();
    result.run.totals = collectTotals(machine);
    result.run.finalTime = machine.eventQueue().now();
    result.run.events = machine.eventQueue().executed();
    result.accel = accelerator.stats();
    result.predictorAccuracyPercent =
        accelerator.bank().accuracy().overall().percent();
    return result;
}

} // namespace cosmos::harness
