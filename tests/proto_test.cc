/**
 * @file
 * Unit tests of the Stache-like directory protocol: message
 * vocabulary, the Figure 1 flow, half-migratory vs downgrade owner
 * policies, upgrade races, and invariant checking.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "check/coherence.hh"
#include "proto/machine.hh"
#include "proto/messages.hh"

namespace cosmos::proto
{
namespace
{

MachineConfig
smallMachine(NodeId nodes = 4)
{
    MachineConfig cfg;
    cfg.numNodes = nodes;
    return cfg;
}

/** Collects every remote message, for signature assertions. */
class Collector : public MsgObserver
{
  public:
    struct Seen
    {
        Msg msg;
        Role role;
    };
    std::vector<Seen> seen;

    void
    onMessage(const Msg &m, Role role, int, Tick) override
    {
        seen.push_back({m, role});
    }

    std::vector<MsgType>
    typesAt(Role role, NodeId node) const
    {
        std::vector<MsgType> out;
        for (const auto &s : seen)
            if (s.role == role && s.msg.dst == node)
                out.push_back(s.msg.type);
        return out;
    }
};

/** Block homed at node @p home in a machine with @p nodes nodes. */
Addr
blockHomedAt(const Machine &m, NodeId home)
{
    const auto &amap = m.addrMap();
    return static_cast<Addr>(home) * amap.pageBytes();
}

/** Run a blocking access to completion. */
void
access(Machine &m, NodeId node, Addr a, bool write)
{
    bool done = false;
    m.cache(node).access(a, write, [&]() { done = true; });
    m.eventQueue().run();
    ASSERT_TRUE(done);
}

TEST(Messages, ReceiverRoleSplitsRequestsAndResponses)
{
    EXPECT_EQ(receiverRole(MsgType::get_ro_request), Role::directory);
    EXPECT_EQ(receiverRole(MsgType::get_rw_request), Role::directory);
    EXPECT_EQ(receiverRole(MsgType::upgrade_request), Role::directory);
    EXPECT_EQ(receiverRole(MsgType::inval_ro_response), Role::directory);
    EXPECT_EQ(receiverRole(MsgType::inval_rw_response), Role::directory);
    EXPECT_EQ(receiverRole(MsgType::downgrade_response),
              Role::directory);
    EXPECT_EQ(receiverRole(MsgType::fwd_ack), Role::directory);
    EXPECT_FALSE(isRequest(MsgType::fwd_ack));

    EXPECT_EQ(receiverRole(MsgType::get_ro_response), Role::cache);
    EXPECT_EQ(receiverRole(MsgType::get_rw_response), Role::cache);
    EXPECT_EQ(receiverRole(MsgType::upgrade_response), Role::cache);
    EXPECT_EQ(receiverRole(MsgType::inval_ro_request), Role::cache);
    EXPECT_EQ(receiverRole(MsgType::inval_rw_request), Role::cache);
    EXPECT_EQ(receiverRole(MsgType::downgrade_request), Role::cache);
}

TEST(Messages, NamesRoundTrip)
{
    for (unsigned i = 0; i < num_msg_types; ++i) {
        const auto t = static_cast<MsgType>(i);
        EXPECT_EQ(msgTypeFromString(toString(t)), t);
    }
}

TEST(Messages, RequestPredicate)
{
    EXPECT_TRUE(isRequest(MsgType::get_ro_request));
    EXPECT_TRUE(isRequest(MsgType::inval_rw_request));
    EXPECT_FALSE(isRequest(MsgType::get_ro_response));
    EXPECT_FALSE(isRequest(MsgType::downgrade_response));
}

TEST(Protocol, ColdReadMiss)
{
    Machine m(smallMachine());
    const Addr block = blockHomedAt(m, 0);
    access(m, 1, block, false);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_only);
    EXPECT_EQ(m.directory(0).state(block), DirState::shared);
    EXPECT_EQ(m.directory(0).sharers(block), 1u << 1);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Protocol, ColdWriteMiss)
{
    Machine m(smallMachine());
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    EXPECT_EQ(m.cache(2).state(block), LineState::read_write);
    EXPECT_EQ(m.directory(0).state(block), DirState::exclusive);
    EXPECT_EQ(m.directory(0).owner(block), 2);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Protocol, Figure1StoreToRemoteExclusive)
{
    // Figure 1: processor two holds the block exclusive; processor
    // one stores to it. Four remote messages flow:
    //   get_rw_request (P1 -> dir), inval_rw_request (dir -> P2),
    //   inval_rw_response (P2 -> dir), get_rw_response (dir -> P1).
    Machine m(smallMachine());
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 0);

    access(m, 2, block, true);
    col.seen.clear();

    access(m, 1, block, true);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_write);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);

    ASSERT_EQ(col.seen.size(), 4u);
    EXPECT_EQ(col.seen[0].msg.type, MsgType::get_rw_request);
    EXPECT_EQ(col.seen[1].msg.type, MsgType::inval_rw_request);
    EXPECT_EQ(col.seen[2].msg.type, MsgType::inval_rw_response);
    EXPECT_EQ(col.seen[3].msg.type, MsgType::get_rw_response);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Protocol, HalfMigratoryInvalidatesOwnerOnRemoteRead)
{
    // §5.1: with the half-migratory optimization a read miss to an
    // exclusive block *invalidates* the former owner.
    Machine m(smallMachine());
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    access(m, 1, block, false);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_only);
    EXPECT_EQ(m.directory(0).state(block), DirState::shared);
    EXPECT_EQ(m.directory(0).sharers(block), 1u << 1);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Protocol, DowngradePolicyKeepsOwnerShared)
{
    // DASH-style ablation: the former owner keeps a read-only copy.
    auto cfg = smallMachine();
    cfg.ownerReadPolicy = OwnerReadPolicy::downgrade;
    Machine m(cfg);
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    access(m, 1, block, false);
    EXPECT_EQ(m.cache(2).state(block), LineState::read_only);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_only);
    EXPECT_EQ(m.directory(0).sharers(block), (1u << 1) | (1u << 2));

    const auto at_p2 = col.typesAt(Role::cache, 2);
    ASSERT_FALSE(at_p2.empty());
    EXPECT_EQ(at_p2.back(), MsgType::downgrade_request);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Protocol, UpgradeWithNoOtherSharersIsImmediate)
{
    Machine m(smallMachine());
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 0);
    access(m, 1, block, false);
    col.seen.clear();
    access(m, 1, block, true);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_write);
    ASSERT_EQ(col.seen.size(), 2u);
    EXPECT_EQ(col.seen[0].msg.type, MsgType::upgrade_request);
    EXPECT_EQ(col.seen[1].msg.type, MsgType::upgrade_response);
}

TEST(Protocol, UpgradeInvalidatesOtherSharers)
{
    Machine m(smallMachine());
    const Addr block = blockHomedAt(m, 0);
    access(m, 1, block, false);
    access(m, 2, block, false);
    access(m, 3, block, false);
    access(m, 1, block, true);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_write);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_EQ(m.cache(3).state(block), LineState::invalid);
    EXPECT_EQ(m.directory(0).owner(block), 1);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Protocol, RacingUpgradesArePromoted)
{
    // Two sharers upgrade concurrently; the loser's shared copy is
    // invalidated before its upgrade is served, so the directory
    // promotes that upgrade to a full write fetch. Both must finish
    // and exactly one owner can remain.
    Machine m(smallMachine());
    const Addr block = blockHomedAt(m, 0);
    access(m, 1, block, false);
    access(m, 2, block, false);

    int done = 0;
    m.cache(1).access(block, true, [&]() { ++done; });
    m.cache(2).access(block, true, [&]() { ++done; });
    m.eventQueue().run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(m.directory(0).state(block), DirState::exclusive);
    const NodeId owner = m.directory(0).owner(block);
    EXPECT_TRUE(owner == 1 || owner == 2);
    EXPECT_EQ(m.cache(owner).state(block), LineState::read_write);
    EXPECT_EQ(m.cache(owner == 1 ? 2 : 1).state(block),
              LineState::invalid);
    EXPECT_GT(m.directory(0).stats().upgradePromotions, 0u);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Protocol, HomeNodeAccessesAreLocalAndUntraced)
{
    // Stache's local optimization: the home node's own misses produce
    // no remote (traced) messages.
    Machine m(smallMachine());
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 0);
    access(m, 0, block, false);
    access(m, 0, block, true);
    EXPECT_TRUE(col.seen.empty());
    EXPECT_EQ(m.cache(0).state(block), LineState::read_write);
}

TEST(Protocol, HomeNodeOwnerStillInvalidatedRemotely)
{
    // The home node holds the block exclusive; a remote reader causes
    // a *local* invalidation at the home but remote messages only for
    // the requester.
    Machine m(smallMachine());
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 0);
    access(m, 0, block, true);
    col.seen.clear();
    access(m, 3, block, false);
    EXPECT_EQ(m.cache(0).state(block), LineState::invalid);
    EXPECT_EQ(m.cache(3).state(block), LineState::read_only);
    // Remote messages: get_ro_request (3 -> dir0), get_ro_response.
    ASSERT_EQ(col.seen.size(), 2u);
    EXPECT_EQ(col.seen[0].msg.type, MsgType::get_ro_request);
    EXPECT_EQ(col.seen[1].msg.type, MsgType::get_ro_response);
}

TEST(Protocol, QueuedRequestsServeInArrivalOrder)
{
    // Many concurrent write misses to one block serialize; everyone
    // completes and the final state is coherent.
    Machine m(smallMachine(8));
    const Addr block = blockHomedAt(m, 0);
    int done = 0;
    for (NodeId n = 1; n < 8; ++n)
        m.cache(n).access(block, true, [&]() { ++done; });
    m.eventQueue().run();
    EXPECT_EQ(done, 7);
    EXPECT_EQ(m.directory(0).state(block), DirState::exclusive);
    EXPECT_TRUE(check::checkCoherence(m).empty());
    EXPECT_GT(m.directory(0).stats().queued, 0u);
}

TEST(Protocol, ProducerConsumerDirectorySignature)
{
    // §3.1 / Figure 2: consumer read, producer write steady state.
    // With half-migratory Stache the directory's incoming signature
    // for the block cycles through:
    //   get_rw_request(P), inval_ro_response(C),
    //   get_ro_request(C), inval_rw_response(P).
    Machine m(smallMachine());
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 3);
    const NodeId producer = 1, consumer = 2;

    for (int round = 0; round < 4; ++round) {
        access(m, producer, block, true);
        access(m, consumer, block, false);
    }
    auto dir_types = col.typesAt(Role::directory, 3);
    // Skip the cold first round (2 messages: get_rw_req; none else)
    // and check a steady-state cycle.
    ASSERT_GE(dir_types.size(), 10u);
    const std::vector<MsgType> cycle = {
        MsgType::get_rw_request, MsgType::inval_ro_response,
        MsgType::get_ro_request, MsgType::inval_rw_response};
    // Find the cycle start in the tail.
    const std::size_t base = dir_types.size() - 8;
    std::size_t offset = 0;
    while (offset < 4 && dir_types[base + offset] != cycle[0])
        ++offset;
    ASSERT_LT(offset, 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(dir_types[base + offset + i], cycle[i])
            << "position " << i;
    }
}

TEST(Invariants, DetectNothingOnFreshMachine)
{
    Machine m(smallMachine());
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Invariants, DetectsAnInjectedDesync)
{
    // Hand a cache an exclusive copy behind the directory's back: the
    // checker must notice a cached block its idle home never granted.
    Machine m(smallMachine());
    const Addr block = blockHomedAt(m, 0);
    m.cache(2).access(block, true, []() {});
    Msg forged;
    forged.type = MsgType::get_rw_response;
    forged.src = 0;
    forged.dst = 2;
    forged.block = block;
    m.cache(2).handleMessage(forged);
    // The directory never processed anything (the real request is
    // still in flight), so the machine is incoherent.
    const auto violations = check::checkCoherence(m);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations.front().kind,
              check::ViolationKind::directory_mismatch);
    EXPECT_EQ(violations.front().nodes, std::vector<NodeId>{2});
}

TEST(Replacement, CapacityEvictsReadOnlyVictims)
{
    auto cfg = smallMachine();
    cfg.cacheCapacityBlocks = 2;
    Machine m(cfg);
    // Three read-only fetches at node 3: the third evicts a victim.
    for (int i = 0; i < 3; ++i)
        access(m, 3, blockHomedAt(m, 0) + i * cfg.blockBytes, false);
    EXPECT_EQ(m.cache(3).stats().evictions, 1u);
    std::size_t valid = 0;
    m.cache(3).forEachLine([&](Addr, LineState st) {
        valid += st == LineState::read_only;
    });
    EXPECT_EQ(valid, 2u);
    // The dropped sharer is a superset case, not a violation.
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Replacement, StaleInvalIsAcknowledged)
{
    auto cfg = smallMachine();
    cfg.cacheCapacityBlocks = 1;
    Machine m(cfg);
    const Addr a = blockHomedAt(m, 0);
    const Addr b = a + cfg.blockBytes;
    access(m, 3, a, false); // cached
    access(m, 3, b, false); // evicts a; directory still lists node 3
    EXPECT_EQ(m.cache(3).state(a), LineState::invalid);
    EXPECT_EQ(m.directory(0).sharers(a), 1u << 3);

    // A writer invalidates sharers of a: node 3 must ack the stale
    // invalidation for the copy it no longer holds.
    access(m, 2, a, true);
    EXPECT_EQ(m.cache(3).stats().staleInvals, 1u);
    EXPECT_EQ(m.directory(0).owner(a), 2);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Replacement, WriteRefetchAfterDropIsPromoted)
{
    auto cfg = smallMachine();
    cfg.cacheCapacityBlocks = 1;
    Machine m(cfg);
    const Addr a = blockHomedAt(m, 0);
    const Addr b = a + cfg.blockBytes;
    access(m, 3, a, false);
    access(m, 3, b, false); // drops a silently
    // Node 3 now writes a: it sends get_rw_request although the
    // directory still lists it as a sharer.
    access(m, 3, a, true);
    EXPECT_EQ(m.cache(3).state(a), LineState::read_write);
    EXPECT_EQ(m.directory(0).owner(a), 3);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Forwarding, WriteMissTakesThreeHops)
{
    // Figure 1's flow in forwarding mode: the former owner sends the
    // data directly to the requester (3 messages on the critical
    // path) plus a revision message home.
    auto cfg = smallMachine();
    cfg.forwarding = true;
    Machine m(cfg);
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    col.seen.clear();

    access(m, 1, block, true);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_write);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_EQ(m.directory(0).owner(block), 1);

    // request, recall, direct data reply, revision home, fwd_ack.
    ASSERT_EQ(col.seen.size(), 5u);
    EXPECT_EQ(col.seen[0].msg.type, MsgType::get_rw_request);
    EXPECT_EQ(col.seen[1].msg.type, MsgType::inval_rw_request);
    // The data response comes from the *owner*, not the home, and is
    // marked forwarded so the requester closes the transfer with a
    // fwd_ack to home.
    bool saw_direct = false;
    bool saw_ack = false;
    for (const auto &s : col.seen) {
        if (s.msg.type == MsgType::get_rw_response) {
            EXPECT_EQ(s.msg.src, 2);
            EXPECT_EQ(s.msg.dst, 1);
            EXPECT_TRUE(s.msg.forwarded);
            saw_direct = true;
        }
        if (s.msg.type == MsgType::fwd_ack) {
            EXPECT_EQ(s.msg.src, 1);
            EXPECT_EQ(s.msg.dst, 0);
            saw_ack = true;
        }
    }
    EXPECT_TRUE(saw_direct);
    EXPECT_TRUE(saw_ack);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Forwarding, ReadMissUnderHalfMigratory)
{
    auto cfg = smallMachine();
    cfg.forwarding = true;
    Machine m(cfg);
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    access(m, 1, block, false);
    // Owner invalidated (half-migratory), reader got a shared copy
    // directly from the owner.
    EXPECT_EQ(m.cache(1).state(block), LineState::read_only);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_EQ(m.directory(0).state(block), DirState::shared);
    EXPECT_EQ(m.directory(0).sharers(block), 1u << 1);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Forwarding, ReadMissUnderDowngradePolicy)
{
    auto cfg = smallMachine();
    cfg.forwarding = true;
    cfg.ownerReadPolicy = OwnerReadPolicy::downgrade;
    Machine m(cfg);
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    access(m, 1, block, false);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_only);
    EXPECT_EQ(m.cache(2).state(block), LineState::read_only);
    EXPECT_EQ(m.directory(0).sharers(block), (1u << 1) | (1u << 2));
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Forwarding, VoluntaryRecallIsNotForwarded)
{
    auto cfg = smallMachine();
    cfg.forwarding = true;
    Machine m(cfg);
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    EXPECT_TRUE(m.directory(0).voluntaryRecall(block));
    m.eventQueue().run();
    EXPECT_EQ(m.directory(0).state(block), DirState::idle);
    EXPECT_EQ(m.cache(2).state(block), LineState::invalid);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

/** Observer that runs a callback at every delivery (probes fire
 *  before the handler, so the callback sees pre-handling state). */
class DeliveryHook : public MsgObserver
{
  public:
    std::function<void(const Msg &)> fn;

    void
    onMessage(const Msg &m, Role, int, Tick) override
    {
        if (fn)
            fn(m);
    }
};

TEST(Forwarding, VoluntaryRecallDeniedWhileAwaitingAck)
{
    // The fwd_ack keeps the directory entry busy after the owner's
    // revision message lands, so a voluntary recall racing the ack
    // must be refused -- the entry only reopens once the requester
    // confirmed receipt of the forwarded data.
    auto cfg = smallMachine();
    cfg.forwarding = true;
    Machine m(cfg);
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);

    DeliveryHook hook;
    bool sawAck = false;
    bool recallDenied = false;
    hook.fn = [&](const Msg &msg) {
        if (msg.type == MsgType::fwd_ack && !sawAck) {
            sawAck = true;
            // Observed at delivery, before the directory handles the
            // ack: the entry is still busy awaiting exactly this
            // receipt (the owner's revision already arrived -- it
            // left two hops earlier).
            recallDenied = !m.directory(0).voluntaryRecall(block);
        }
    };
    m.addObserver(&hook);
    access(m, 1, block, true);
    EXPECT_TRUE(sawAck);
    EXPECT_TRUE(recallDenied);
    EXPECT_EQ(m.cache(1).state(block), LineState::read_write);
    EXPECT_TRUE(check::checkCoherence(m).empty());

    // With the handshake closed the same recall goes through.
    EXPECT_TRUE(m.directory(0).voluntaryRecall(block));
    m.eventQueue().run();
    EXPECT_EQ(m.directory(0).state(block), DirState::idle);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Forwarding, QueuedRequestWaitsForDelayedAck)
{
    // A request queued behind a forwarded transfer must not be
    // served until the requester's fwd_ack closes the transfer: the
    // directory drains its waiting queue from the ack handler, never
    // from the revision handler.
    auto cfg = smallMachine();
    cfg.forwarding = true;
    Machine m(cfg);
    Collector col;
    m.addObserver(&col);
    const Addr block = blockHomedAt(m, 0);
    access(m, 2, block, true);
    col.seen.clear();

    int done = 0;
    m.cache(1).access(block, true, [&]() { ++done; });
    m.cache(3).access(block, true, [&]() { ++done; });
    m.eventQueue().run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(m.cache(3).state(block), LineState::read_write);
    EXPECT_EQ(m.directory(0).owner(block), 3);

    // Both hand-offs were forwarded (2 -> 1, then 1 -> 3), so two
    // acks; node 3's recall (the second inval_rw_request into node 1)
    // must only leave home after node 1's ack arrived there.
    std::size_t firstAck = col.seen.size();
    std::size_t secondRecall = col.seen.size();
    std::size_t acks = 0;
    for (std::size_t i = 0; i < col.seen.size(); ++i) {
        const auto &s = col.seen[i];
        if (s.msg.type == MsgType::fwd_ack) {
            if (++acks == 1)
                firstAck = i;
        }
        if (s.msg.type == MsgType::inval_rw_request &&
            s.msg.dst == 1) {
            secondRecall = i;
        }
    }
    EXPECT_EQ(acks, 2u);
    EXPECT_LT(firstAck, secondRecall);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Forwarding, QueuedWritersSerializeCorrectly)
{
    auto cfg = smallMachine(8);
    cfg.forwarding = true;
    Machine m(cfg);
    const Addr block = blockHomedAt(m, 0);
    int done = 0;
    for (NodeId n = 1; n < 8; ++n)
        m.cache(n).access(block, true, [&]() { ++done; });
    m.eventQueue().run();
    EXPECT_EQ(done, 7);
    EXPECT_EQ(m.directory(0).state(block), DirState::exclusive);
    EXPECT_TRUE(check::checkCoherence(m).empty());
}

TEST(Replacement, ExclusiveLinesAreNeverDropped)
{
    auto cfg = smallMachine();
    cfg.cacheCapacityBlocks = 1;
    Machine m(cfg);
    const Addr a = blockHomedAt(m, 0);
    const Addr b = a + cfg.blockBytes;
    access(m, 3, a, true);  // exclusive: not a drop candidate
    access(m, 3, b, false); // soft-exceeds the capacity instead
    EXPECT_EQ(m.cache(3).state(a), LineState::read_write);
    EXPECT_EQ(m.cache(3).state(b), LineState::read_only);
    EXPECT_EQ(m.cache(3).stats().evictions, 0u);
}

} // namespace
} // namespace cosmos::proto
