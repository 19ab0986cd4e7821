/**
 * @file
 * Ablation: machine size. The paper evaluates a fixed 16-node target;
 * here each application runs on 4, 16, and 64 nodes (with its
 * decomposition scaled to match) and we measure depth-2 Cosmos
 * accuracy per side.
 *
 * Expected shape: cache-side accuracy is nearly flat -- a Stache
 * cache always hears from one home directory regardless of machine
 * size -- while directory-side accuracy erodes as the sharer/sender
 * population grows, and the 12-bit sender field of the paper's
 * two-byte tuple stays sufficient throughout.
 */

#include <cstdio>
#include <memory>

#include "bench_util.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "replay/parallel_for.hh"
#include "replay/sweep.hh"
#include "workloads/appbt.hh"
#include "workloads/barnes.hh"
#include "workloads/dsmc.hh"
#include "workloads/moldyn.hh"
#include "workloads/unstructured.hh"

namespace
{

using namespace cosmos;

std::unique_ptr<wl::Workload>
makeScaled(const std::string &app, NodeId nodes)
{
    const unsigned side = nodes == 4 ? 2 : nodes == 16 ? 4 : 8;
    if (app == "appbt") {
        wl::AppBtParams p;
        p.px = side;
        p.py = side;
        p.nx = side * 4;
        p.ny = side * 4;
        p.iterations = 20;
        return std::make_unique<wl::AppBt>(p);
    }
    if (app == "barnes") {
        wl::BarnesParams p;
        p.nbodies = 32u * nodes;
        p.iterations = 12;
        return std::make_unique<wl::Barnes>(p);
    }
    if (app == "dsmc") {
        wl::DsmcParams p;
        p.procsX = side;
        p.procsY = side;
        p.cellsX = side * 4;
        p.cellsY = side * 4;
        p.particles = 100u * nodes;
        p.iterations = 60;
        return std::make_unique<wl::Dsmc>(p);
    }
    if (app == "moldyn") {
        wl::MoldynParams p;
        p.tilesX = side;
        p.tilesY = side;
        p.molecules = 25u * nodes;
        p.iterations = 20;
        return std::make_unique<wl::Moldyn>(p);
    }
    wl::UnstructuredParams p;
    p.meshNodes = 32u * nodes;
    p.iterations = 20;
    return std::make_unique<wl::Unstructured>(p);
}

} // namespace

int
main()
{
    bench::banner(
        "Ablation: machine size; Cosmos depth-2 accuracy "
        "(cache / directory / overall)");

    // Each (app, machine size) cell simulates its own scaled
    // workload, so the cells -- not just the replays -- run as
    // parallelFor indices; results land by index, keeping the output
    // order fixed.
    const NodeId sizes[] = {NodeId{4}, NodeId{16}, NodeId{64}};
    const std::size_t cells = bench::apps.size() * std::size(sizes);
    std::vector<std::string> cellText(cells);

    const unsigned threads = replay::defaultThreadCount();
    replay::parallelFor(threads, cells, [&](std::size_t i) {
        const auto &app = bench::apps[i / std::size(sizes)];
        const NodeId nodes = sizes[i % std::size(sizes)];
        harness::RunConfig cfg;
        cfg.machine.numNodes = nodes;
        cfg.checkInvariants = false;
        auto workload = makeScaled(app, nodes);
        auto result = harness::runWorkload(cfg, *workload);

        replay::ReplayJob job;
        job.config = pred::CosmosConfig{2, 0};
        const auto res = replay::replayTrace(result.trace, job);
        const auto &acc = res.accuracy;
        cellText[i] = TextTable::num(acc.cacheSide().percent(), 0) +
                      "/" +
                      TextTable::num(acc.directorySide().percent(), 0) +
                      "/" + TextTable::num(acc.overall().percent(), 0);
    });

    TextTable table;
    table.setHeader({"App", "4 nodes", "16 nodes", "64 nodes"});
    for (std::size_t a = 0; a < bench::apps.size(); ++a) {
        std::vector<std::string> row = {bench::apps[a]};
        for (std::size_t s = 0; s < std::size(sizes); ++s)
            row.push_back(cellText[a * std::size(sizes) + s]);
        table.addRow(row);
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
