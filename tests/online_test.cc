/**
 * @file
 * Tests of live predictor-driven acceleration: the directory
 * speculation hook, voluntary recall semantics, and whole-machine
 * correctness and benefit of the online accelerator.
 */

#include <gtest/gtest.h>

#include "accel/online.hh"
#include "check/coherence.hh"
#include "harness/accel_runner.hh"
#include "proto/machine.hh"
#include "workloads/micro.hh"

namespace cosmos
{
namespace
{

using proto::DirState;
using proto::LineState;

/** Speculation stub granting exclusivity to one chosen node. */
class AlwaysGrant : public proto::DirectorySpeculation
{
  public:
    explicit AlwaysGrant(NodeId who) : who_(who) {}

    bool
    grantExclusiveOnRead(Addr, NodeId requester) override
    {
        return requester == who_;
    }

  private:
    NodeId who_;
};

void
access(proto::Machine &m, NodeId node, Addr a, bool write)
{
    bool done = false;
    m.cache(node).access(a, write, [&]() { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
}

TEST(Speculation, GrantedReadArrivesExclusive)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    AlwaysGrant spec(2);
    for (NodeId n = 0; n < 4; ++n)
        m.directory(n).setSpeculation(&spec);

    const Addr block = cfg.pageBytes; // homed at node 1
    access(m, 2, block, false);       // read... granted exclusive
    EXPECT_EQ(m.cache(2).state(block), LineState::read_write);
    EXPECT_EQ(m.directory(1).state(block), DirState::exclusive);
    EXPECT_EQ(m.directory(1).stats().exclusiveGrants, 1u);
    // The subsequent store hits silently: the upgrade is gone.
    access(m, 2, block, true);
    EXPECT_EQ(m.cache(2).stats().storeHits, 1u);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Speculation, UngrantedReadStaysShared)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    AlwaysGrant spec(2);
    for (NodeId n = 0; n < 4; ++n)
        m.directory(n).setSpeculation(&spec);

    const Addr block = cfg.pageBytes;
    access(m, 3, block, false); // node 3 is not the chosen one
    EXPECT_EQ(m.cache(3).state(block), LineState::read_only);
    EXPECT_EQ(m.directory(1).state(block), DirState::shared);
}

TEST(Speculation, GrantAfterOwnerHandOffWorks)
{
    // The migratory fast path: reader hits an exclusive block, the
    // owner is invalidated, and the reader receives an exclusive
    // copy directly.
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    AlwaysGrant spec(3);
    for (NodeId n = 0; n < 4; ++n)
        m.directory(n).setSpeculation(&spec);

    const Addr block = cfg.pageBytes;
    access(m, 2, block, true); // node 2 owns it
    access(m, 3, block, false);
    EXPECT_EQ(m.cache(3).state(block), LineState::read_write);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Speculation, MisSpeculationRecoversWithoutRollback)
{
    // Grant exclusivity to a reader that never writes; a second
    // reader simply triggers the normal owner hand-off: legal-state
    // recovery (§4.3).
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    AlwaysGrant spec(2);
    for (NodeId n = 0; n < 4; ++n)
        m.directory(n).setSpeculation(&spec);

    const Addr block = cfg.pageBytes;
    access(m, 2, block, false); // granted exclusive (wrongly)
    access(m, 3, block, false); // other reader: owner invalidated
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_EQ(m.cache(3).state(block), LineState::read_only);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Recall, PullsExclusiveCopyHome)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    const Addr block = cfg.pageBytes;
    access(m, 2, block, true);
    EXPECT_TRUE(m.directory(1).voluntaryRecall(block));
    m.eventQueue().run();
    EXPECT_EQ(m.directory(1).state(block), DirState::idle);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_EQ(m.directory(1).stats().recalls, 1u);
    EXPECT_TRUE(check::checkCoherence(m).empty());

    // The next read is a plain idle fetch: two remote messages.
    access(m, 3, block, false);
    EXPECT_EQ(m.cache(3).state(block), LineState::read_only);
}

TEST(Recall, RefusesNonExclusiveOrBusyBlocks)
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    proto::Machine m(cfg);
    const Addr block = cfg.pageBytes;
    EXPECT_FALSE(m.directory(1).voluntaryRecall(block)); // unknown
    access(m, 2, block, false);
    EXPECT_FALSE(m.directory(1).voluntaryRecall(block)); // shared
    access(m, 3, block, true);
    EXPECT_TRUE(m.directory(1).voluntaryRecall(block));
    // Busy during the recall itself.
    EXPECT_FALSE(m.directory(1).voluntaryRecall(block));
    m.eventQueue().run();
}

TEST(OnlineAccelerator, RmwMicroGetsFasterAndStaysCoherent)
{
    harness::RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.checkInvariants = true; // full invariant checking while
                                // speculating

    const auto base = harness::runWorkload(cfg);
    accel::OnlineOptions opts;
    const auto acc = harness::runAccelerated(cfg, opts);

    EXPECT_LT(acc.run.finalTime, base.finalTime);
    EXPECT_LT(acc.run.network.remoteMessages,
              base.network.remoteMessages);
    EXPECT_LT(acc.run.totals.upgrades, base.totals.upgrades);
    EXPECT_GT(acc.run.totals.exclusiveGrants, 10u);
}

TEST(OnlineAccelerator, DisabledActionsMatchBaseline)
{
    harness::RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.checkInvariants = false;
    const auto base = harness::runWorkload(cfg);

    accel::OnlineOptions opts;
    opts.enableReplyExclusive = false;
    opts.enableVoluntaryRecall = false;
    const auto acc = harness::runAccelerated(cfg, opts);
    EXPECT_EQ(acc.run.finalTime, base.finalTime);
    EXPECT_EQ(acc.run.network.remoteMessages,
              base.network.remoteMessages);
    EXPECT_EQ(acc.run.totals.exclusiveGrants, 0u);
    EXPECT_EQ(acc.run.totals.recalls, 0u);
}

TEST(OnlineAccelerator, AllApplicationsStayCoherentWhileSpeculating)
{
    for (const auto &app : wl::paperWorkloads()) {
        harness::RunConfig cfg;
        cfg.app = app;
        cfg.iterations = 4;
        cfg.warmupIterations = 1;
        cfg.checkInvariants = true; // panics on violation
        accel::OnlineOptions opts;
        const auto acc = harness::runAccelerated(cfg, opts);
        EXPECT_GT(acc.run.trace.records.size(), 100u) << app;
    }
}

TEST(OnlineAccelerator, ConfidenceGatingSuppressesActions)
{
    harness::RunConfig cfg;
    cfg.app = "micro_rmw";
    cfg.checkInvariants = false;

    accel::OnlineOptions loose;
    const auto open = harness::runAccelerated(cfg, loose);

    accel::OnlineOptions strict;
    strict.minConfidence = 3;
    const auto gated = harness::runAccelerated(cfg, strict);

    EXPECT_GT(gated.accel.gatedByConfidence, 0u);
    EXPECT_LE(gated.run.totals.exclusiveGrants,
              open.run.totals.exclusiveGrants);
    // Gated runs still speculate once the streak builds up.
    EXPECT_GT(gated.run.totals.exclusiveGrants, 0u);
}

TEST(ForwardGate, PredictionGatesThreeHopForwarding)
{
    // micro_migratory hands the block around a stable ring, so the
    // confidence streak builds quickly: a gated run must still
    // forward most transfers, suppress some early (cold predictor),
    // and keep the fwd_ack handshake closed either way.
    harness::RunConfig cfg;
    cfg.app = "micro_migratory";
    cfg.checkInvariants = true;
    cfg.machine.forwarding = true;
    cfg.machine.forwardingPredicted = true;

    accel::OnlineOptions opts;
    opts.enableReplyExclusive = false;
    opts.enableVoluntaryRecall = false;
    opts.enableForwardGate = true;
    opts.minConfidence = 2;
    const auto acc = harness::runAccelerated(cfg, opts);

    EXPECT_GT(acc.accel.fwdQueries, 0u);
    EXPECT_GT(acc.accel.fwdGranted, 0u);
    EXPECT_LT(acc.accel.fwdGranted, acc.accel.fwdQueries);
    EXPECT_EQ(acc.run.totals.forwardsSent, acc.accel.fwdGranted);
    EXPECT_EQ(acc.run.totals.forwardsSuppressed,
              acc.accel.fwdQueries - acc.accel.fwdGranted);
    EXPECT_EQ(acc.run.totals.fwdAcks, acc.run.totals.forwardsSent);
}

TEST(ForwardGate, DisabledGateForwardsEverything)
{
    // forwardingPredicted consults the hook, but with the gate
    // option off the accelerator always answers "forward": the run
    // must match plain --forwarding exactly.
    harness::RunConfig cfg;
    cfg.app = "micro_migratory";
    cfg.checkInvariants = false;
    cfg.machine.forwarding = true;
    const auto base = harness::runWorkload(cfg);

    cfg.machine.forwardingPredicted = true;
    accel::OnlineOptions opts;
    opts.enableReplyExclusive = false;
    opts.enableVoluntaryRecall = false;
    const auto acc = harness::runAccelerated(cfg, opts);
    EXPECT_EQ(acc.run.finalTime, base.finalTime);
    EXPECT_EQ(acc.run.totals.forwardsSent, base.totals.forwardsSent);
    EXPECT_EQ(acc.run.totals.forwardsSuppressed, 0u);
    EXPECT_EQ(acc.accel.fwdQueries, 0u);
}

TEST(OnlineAccelerator, ReportsLivePredictorAccuracy)
{
    harness::RunConfig cfg;
    cfg.app = "micro_producer_consumer";
    cfg.checkInvariants = false;
    accel::OnlineOptions opts;
    const auto acc = harness::runAccelerated(cfg, opts);
    EXPECT_GT(acc.predictorAccuracyPercent, 50.0);
}

} // namespace
} // namespace cosmos
