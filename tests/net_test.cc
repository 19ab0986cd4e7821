/**
 * @file
 * Unit tests of the interconnect model: latency, per-channel FIFO
 * ordering, local-delivery semantics, and statistics.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/network.hh"
#include "sim/event_queue.hh"

namespace cosmos::net
{
namespace
{

struct Delivery
{
    std::string payload;
    bool local;
    Tick when;
};

struct Fixture
{
    sim::EventQueue eq;
    Network<std::string> net{eq, 4, /*wire=*/40, /*ni=*/60};
    std::vector<std::vector<Delivery>> got{4};

    Fixture()
    {
        for (NodeId n = 0; n < 4; ++n) {
            net.attach(n, [this, n](const std::string &p, bool local) {
                got[n].push_back({p, local, eq.now()});
            });
        }
    }
};

TEST(Network, RemoteLatencyIsNiWireNi)
{
    Fixture f;
    f.net.send(0, 1, "hello");
    f.eq.run();
    ASSERT_EQ(f.got[1].size(), 1u);
    EXPECT_EQ(f.got[1][0].when, 2 * 60 + 40u);
    EXPECT_FALSE(f.got[1][0].local);
}

TEST(Network, LocalDeliveryNextTickAndFlagged)
{
    Fixture f;
    f.net.send(2, 2, "self");
    f.eq.run();
    ASSERT_EQ(f.got[2].size(), 1u);
    EXPECT_EQ(f.got[2][0].when, 1u);
    EXPECT_TRUE(f.got[2][0].local);
}

TEST(Network, PerChannelFifoOrdering)
{
    Fixture f;
    for (int i = 0; i < 20; ++i)
        f.net.send(0, 1, std::to_string(i));
    f.eq.run();
    ASSERT_EQ(f.got[1].size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(f.got[1][i].payload, std::to_string(i));
    // Same-cycle sends on one channel cannot arrive simultaneously.
    for (int i = 1; i < 20; ++i)
        EXPECT_GT(f.got[1][i].when, f.got[1][i - 1].when);
}

TEST(Network, DistinctChannelsDoNotSerialize)
{
    Fixture f;
    f.net.send(0, 1, "a");
    f.net.send(2, 1, "b");
    f.eq.run();
    ASSERT_EQ(f.got[1].size(), 2u);
    // Both arrive at the same nominal latency: different channels.
    EXPECT_EQ(f.got[1][0].when, f.got[1][1].when);
}

TEST(Network, StatsCountBothKinds)
{
    Fixture f;
    f.net.send(0, 1, "r");
    f.net.send(3, 3, "l");
    f.eq.run();
    EXPECT_EQ(f.net.stats().remoteMessages, 1u);
    EXPECT_EQ(f.net.stats().localMessages, 1u);
    EXPECT_DOUBLE_EQ(f.net.stats().meanLatency(), 160.0);
    EXPECT_NE(f.net.stats().format().find("remote=1"),
              std::string::npos);
}

TEST(Network, ZeroStatsFormat)
{
    NetworkStats s;
    EXPECT_DOUBLE_EQ(s.meanLatency(), 0.0);
}

TEST(NetworkDeathTest, BadNodePanics)
{
    Fixture f;
    EXPECT_DEATH(f.net.send(0, 9, "x"), "bad nodes");
}

TEST(Network, SixtyFourNodeChannelsStayFifoAndIndependent)
{
    // The highest-numbered channels of a full 64-node table, in both
    // directions: each stays FIFO, and neither serializes the other.
    sim::EventQueue eq;
    Network<std::string> net{eq, 64, /*wire=*/40, /*ni=*/60};
    std::vector<std::vector<Delivery>> got(64);
    for (NodeId n = 0; n < 64; ++n) {
        net.attach(n, [&got, &eq, n](const std::string &p, bool local) {
            got[n].push_back({p, local, eq.now()});
        });
    }
    for (int i = 0; i < 10; ++i) {
        net.send(63, 62, "down" + std::to_string(i));
        net.send(62, 63, "up" + std::to_string(i));
    }
    eq.run();
    ASSERT_EQ(got[62].size(), 10u);
    ASSERT_EQ(got[63].size(), 10u);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(got[62][i].payload, "down" + std::to_string(i));
        EXPECT_EQ(got[63][i].payload, "up" + std::to_string(i));
        // Independent channels: the two directions advance in step,
        // one tick apart per back-to-back send.
        EXPECT_EQ(got[62][i].when, 160u + static_cast<Tick>(i));
        EXPECT_EQ(got[63][i].when, got[62][i].when);
    }
}

TEST(Network, JitteredSendsClampToLastArrivalPlusOne)
{
    sim::EventQueue eq;
    Network<std::string> net{eq, 64, /*wire=*/40, /*ni=*/60};
    std::vector<Delivery> got;
    net.attach(62, [&](const std::string &p, bool local) {
        got.push_back({p, local, eq.now()});
    });
    // The first send is delayed 500 ticks; the second, undelayed,
    // must still queue behind it on the 63->62 channel.
    Tick extra = 500;
    net.setDeliveryJitter([&](NodeId, NodeId, const std::string &) {
        return std::exchange(extra, 0);
    });
    net.send(63, 62, "slow");
    net.send(63, 62, "fast");
    eq.run();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].payload, "slow");
    EXPECT_EQ(got[0].when, 660u);
    EXPECT_EQ(got[1].payload, "fast");
    EXPECT_EQ(got[1].when, 661u);
}

} // namespace
} // namespace cosmos::net
