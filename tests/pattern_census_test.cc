/**
 * @file
 * Tests of the sharing-pattern classifier: hand-built directory
 * message streams with exactly known classifications, plus
 * end-to-end checks against the micro-workloads.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "trace/pattern_census.hh"
#include "workloads/micro.hh"

namespace cosmos::trace
{
namespace
{

using proto::MsgType;

void
append(Trace &t, Addr block, NodeId sender, MsgType type)
{
    TraceRecord r;
    r.block = block;
    r.sender = sender;
    r.type = type;
    r.role = proto::receiverRole(type);
    t.records.push_back(r);
}

TEST(PatternCensus, ReadOnlyBlock)
{
    Trace t;
    for (int i = 0; i < 8; ++i)
        append(t, 0, static_cast<NodeId>(i % 4),
               MsgType::get_ro_request);
    const auto census = classifyTrace(t);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::read_only)],
              1u);
    EXPECT_DOUBLE_EQ(
        census.messagePercent(SharingPattern::read_only), 100.0);
}

TEST(PatternCensus, RarelyTouchedBlock)
{
    Trace t;
    append(t, 0, 1, MsgType::get_ro_request);
    append(t, 0, 1, MsgType::get_rw_request);
    const auto census = classifyTrace(t, 6);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::rarely_touched)],
              1u);
}

TEST(PatternCensus, ProducerConsumerBlock)
{
    // One writer (node 0), one reader (node 1), many rounds.
    Trace t;
    for (int round = 0; round < 6; ++round) {
        append(t, 0, 0, MsgType::get_rw_request);
        append(t, 0, 0, MsgType::inval_rw_response);
        append(t, 0, 1, MsgType::get_ro_request);
    }
    const auto census = classifyTrace(t);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::producer_consumer)],
              1u);
}

TEST(PatternCensus, ProducerWhoReadsFirstIsStillProducerConsumer)
{
    // appbt-style: the dominant writer reads before writing; that
    // must not classify as migratory (ownership never rotates).
    Trace t;
    for (int round = 0; round < 6; ++round) {
        append(t, 0, 0, MsgType::get_ro_request);
        append(t, 0, 0, MsgType::upgrade_request);
        append(t, 0, 1, MsgType::get_ro_request);
    }
    const auto census = classifyTrace(t);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::producer_consumer)],
              1u);
}

TEST(PatternCensus, MigratoryBlock)
{
    // Ownership rotates 0 -> 1 -> 2 -> 0 ..., each node reading then
    // upgrading: the Figure 8b discipline.
    Trace t;
    for (int round = 0; round < 6; ++round) {
        const NodeId node = static_cast<NodeId>(round % 3);
        append(t, 0, node, MsgType::get_ro_request);
        append(t, 0, node, MsgType::upgrade_request);
    }
    const auto census = classifyTrace(t);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::migratory)],
              1u);
}

TEST(PatternCensus, MultiWriterBlock)
{
    // Two writers alternating blind writes: false-sharing style.
    Trace t;
    for (int round = 0; round < 8; ++round)
        append(t, 0, static_cast<NodeId>(round % 2),
               MsgType::get_rw_request);
    const auto census = classifyTrace(t);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::multi_writer)],
              1u);
}

TEST(PatternCensus, NodeSixtyThreeAsWriterAndAsReader)
{
    // The top bit of the 64-node reader/writer masks.
    Trace t;
    for (int round = 0; round < 6; ++round) {
        // Block 0: node 63 produces, node 0 consumes.
        append(t, 0, 63, MsgType::get_rw_request);
        append(t, 0, 0, MsgType::get_ro_request);
        // Block 64: node 0 produces, node 63 consumes.
        append(t, 64, 0, MsgType::get_rw_request);
        append(t, 64, 63, MsgType::get_ro_request);
        // Block 128: node 63 is the only writer *and* the only
        // reader, so there is no external reader.
        append(t, 128, 63, MsgType::get_rw_request);
        append(t, 128, 63, MsgType::get_ro_request);
        // Block 192: ownership migrates between nodes 62 and 63.
        const NodeId node = static_cast<NodeId>(62 + round % 2);
        append(t, 192, node, MsgType::get_ro_request);
        append(t, 192, node, MsgType::upgrade_request);
    }
    const auto blocks = classifyBlocks(t);
    ASSERT_EQ(blocks.size(), 4u);
    EXPECT_EQ(blocks.at(0), SharingPattern::producer_consumer);
    EXPECT_EQ(blocks.at(64), SharingPattern::producer_consumer);
    EXPECT_EQ(blocks.at(128), SharingPattern::multi_writer);
    EXPECT_EQ(blocks.at(192), SharingPattern::migratory);
}

TEST(PatternCensus, ClassifyBlocksIsSortedAndAgreesWithClassifyTrace)
{
    // Blocks first seen in descending address order, one pattern
    // class per residue, so the per-block map has to be re-sorted.
    Trace t;
    for (int round = 0; round < 8; ++round) {
        for (int b = 199; b >= 0; --b) {
            const Addr block = static_cast<Addr>(b) * 64;
            const NodeId node = static_cast<NodeId>(b % 16);
            switch (b % 4) {
              case 0: // read-only
                append(t, block, node, MsgType::get_ro_request);
                break;
              case 1: // producer-consumer
                append(t, block, node, MsgType::get_rw_request);
                append(t, block, static_cast<NodeId>(node + 1),
                       MsgType::get_ro_request);
                break;
              case 2: // multi-writer
                append(t, block,
                       static_cast<NodeId>(node + round % 2),
                       MsgType::get_rw_request);
                break;
              default: // rarely touched
                if (round == 0)
                    append(t, block, node, MsgType::get_ro_request);
                break;
            }
        }
    }
    const auto blocks = classifyBlocks(t);
    const auto census = classifyTrace(t);
    ASSERT_EQ(blocks.size(), 200u);
    EXPECT_EQ(census.totalBlocks, 200u);
    std::uint64_t counts[num_sharing_patterns] = {};
    Addr prev = 0;
    bool first = true;
    for (const auto &[block, pattern] : blocks) {
        EXPECT_TRUE(first || block > prev);
        first = false;
        prev = block;
        ++counts[static_cast<unsigned>(pattern)];
    }
    for (unsigned p = 0; p < num_sharing_patterns; ++p)
        EXPECT_EQ(counts[p], census.blocks[p]) << toString(
            static_cast<SharingPattern>(p));
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::read_only)],
              50u);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::producer_consumer)],
              50u);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::multi_writer)],
              50u);
    EXPECT_EQ(census.blocks[static_cast<unsigned>(
                  SharingPattern::rarely_touched)],
              50u);
}

TEST(PatternCensus, CacheSideRecordsAreIgnored)
{
    Trace t;
    for (int i = 0; i < 10; ++i)
        append(t, 0, 1, MsgType::get_ro_response); // cache role
    const auto census = classifyTrace(t);
    EXPECT_EQ(census.totalBlocks, 0u);
}

TEST(PatternCensus, MicroWorkloadsClassifyAsDesigned)
{
    {
        harness::RunConfig cfg;
        wl::MigratoryParams params;
        params.iterations = 20;
        wl::MigratoryMicro workload(params);
        auto result = harness::runWorkload(cfg, workload);
        const auto census = classifyTrace(result.trace);
        EXPECT_GT(census.messagePercent(SharingPattern::migratory),
                  90.0);
    }
    {
        harness::RunConfig cfg;
        wl::ProducerConsumerParams params;
        params.iterations = 20;
        wl::ProducerConsumerMicro workload(params);
        auto result = harness::runWorkload(cfg, workload);
        const auto census = classifyTrace(result.trace);
        EXPECT_GT(census.messagePercent(
                      SharingPattern::producer_consumer),
                  90.0);
    }
}

TEST(PatternCensus, FormatListsAllClasses)
{
    PatternCensus census;
    census.totalBlocks = 1;
    census.totalMessages = 10;
    census.blocks[2] = 1;
    census.messages[2] = 10;
    const std::string text = census.format();
    for (unsigned i = 0; i < num_sharing_patterns; ++i)
        EXPECT_NE(text.find(toString(
                      static_cast<SharingPattern>(i))),
                  std::string::npos);
}

} // namespace
} // namespace cosmos::trace
