/**
 * @file
 * Property-based suites (parameterized gtest): invariants that must
 * hold across randomized inputs, seeds, workloads, and predictor
 * configurations.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <tuple>

#include "check/coherence.hh"
#include "cosmos/cosmos_predictor.hh"
#include "cosmos/predictor_bank.hh"
#include "harness/experiment.hh"
#include "proto/machine.hh"
#include "runtime/processor.hh"
#include "workloads/workload.hh"

namespace cosmos
{
namespace
{

// --- Property: the protocol keeps the machine coherent under random
// concurrent access streams, for any seed. -----------------------------

class ProtocolStress
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, OwnerReadPolicy>>
{
};

TEST_P(ProtocolStress, RandomAccessesStayCoherent)
{
    Rng rng(std::get<0>(GetParam()));
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.ownerReadPolicy = std::get<1>(GetParam());
    proto::Machine machine(cfg);
    runtime::Runtime rt(machine);

    // 16 hot blocks spread over all homes; every processor issues a
    // random read/write stream over them, with random think time.
    std::vector<Addr> blocks;
    for (int i = 0; i < 16; ++i)
        blocks.push_back(static_cast<Addr>(i) * cfg.pageBytes +
                         (i % 4) * cfg.blockBytes);

    for (int round = 0; round < 4; ++round) {
        runtime::ProgramBuilder b(cfg.numNodes);
        for (NodeId p = 0; p < cfg.numNodes; ++p) {
            auto prog = b.proc(p);
            for (int op = 0; op < 40; ++op) {
                const Addr a = blocks[rng.nextBelow(blocks.size())];
                if (rng.nextBool(0.1))
                    prog.think(rng.nextBelow(200));
                if (rng.nextBool(0.4))
                    prog.write(a);
                else
                    prog.read(a);
            }
        }
        b.barrier();
        rt.runPrograms(b.take());
        const auto violations = check::checkCoherence(machine);
        EXPECT_TRUE(violations.empty())
            << "seed " << std::get<0>(GetParam()) << ": "
            << violations.front().format();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProtocolStress,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89),
        ::testing::Values(OwnerReadPolicy::half_migratory,
                          OwnerReadPolicy::downgrade)));

// --- Property: Cosmos only ever predicts tuples it has observed for
// that block, and predict() agrees with the following observe(). -------

class CosmosConsistency
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CosmosConsistency, PredictionsComeFromObservedHistory)
{
    const auto [depth, filter] = GetParam();
    pred::CosmosPredictor predictor(
        pred::CosmosConfig{depth, filter});
    Rng rng(depth * 100 + filter);

    std::map<Addr, std::set<std::uint16_t>> seen;
    for (int i = 0; i < 5000; ++i) {
        const Addr block = rng.nextBelow(8) * 64;
        const pred::MsgTuple actual{
            static_cast<NodeId>(rng.nextBelow(4)),
            static_cast<proto::MsgType>(rng.nextBelow(6))};

        const auto before = predictor.predict(block);
        const auto res = predictor.observe(block, actual);

        // predict() and observe() must agree about the prediction in
        // effect at this arrival.
        EXPECT_EQ(before.has_value(), res.hadPrediction);
        if (before) {
            EXPECT_EQ(*before, res.predicted);
            EXPECT_EQ(res.hit, *before == actual);
            // Whatever was predicted was once observed here.
            EXPECT_TRUE(seen[block].count(before->encode()))
                << "prediction was never observed for this block";
        }
        seen[block].insert(actual.encode());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CosmosConsistency,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(0u, 1u, 2u)));

// --- Property: the unfiltered Cosmos predictor matches a brute-force
// reference model exactly -- for every depth, over long random
// streams. The reference stores, per block, a map from the literal
// last-d-tuple window to the tuple that followed it most recently. ----

class CosmosOracle : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CosmosOracle, MatchesBruteForceReference)
{
    const unsigned depth = GetParam();
    pred::CosmosPredictor predictor(pred::CosmosConfig{depth, 0});
    Rng rng(0xabc0de + depth);

    // Reference model state.
    struct RefBlock
    {
        std::vector<pred::MsgTuple> window;
        std::map<std::vector<std::uint16_t>, pred::MsgTuple> table;
    };
    std::map<Addr, RefBlock> ref;

    auto encoded = [](const std::vector<pred::MsgTuple> &w) {
        std::vector<std::uint16_t> key;
        for (const auto &t : w)
            key.push_back(t.encode());
        return key;
    };

    for (int i = 0; i < 20000; ++i) {
        const Addr block = rng.nextBelow(6) * 64;
        const pred::MsgTuple actual{
            static_cast<NodeId>(rng.nextBelow(5)),
            static_cast<proto::MsgType>(rng.nextBelow(5))};

        // Reference prediction.
        RefBlock &rb = ref[block];
        std::optional<pred::MsgTuple> expect;
        if (rb.window.size() == depth) {
            auto it = rb.table.find(encoded(rb.window));
            if (it != rb.table.end())
                expect = it->second;
        }

        const auto got = predictor.predict(block);
        ASSERT_EQ(got.has_value(), expect.has_value())
            << "step " << i << " depth " << depth;
        if (expect) {
            ASSERT_EQ(*got, *expect) << "step " << i;
        }

        // Reference update (unfiltered: always adopt the newest).
        if (rb.window.size() == depth)
            rb.table[encoded(rb.window)] = actual;
        rb.window.push_back(actual);
        if (rb.window.size() > depth)
            rb.window.erase(rb.window.begin());

        predictor.observe(block, actual);
    }
}

INSTANTIATE_TEST_SUITE_P(Depths, CosmosOracle,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Property: replaying any trace is deterministic, and accuracy is
// bounded by coverage. --------------------------------------------------

class ReplayProperties : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReplayProperties, ReplayIsDeterministicAndBounded)
{
    harness::RunConfig cfg;
    cfg.app = GetParam();
    cfg.iterations = 5;
    cfg.warmupIterations = 1;
    cfg.checkInvariants = false;
    const auto result = harness::runWorkload(cfg);

    pred::PredictorBank a(result.trace.numNodes,
                          pred::CosmosConfig{2, 0});
    pred::PredictorBank b(result.trace.numNodes,
                          pred::CosmosConfig{2, 0});
    a.replay(result.trace);
    b.replay(result.trace);

    EXPECT_EQ(a.accuracy().overall().hits,
              b.accuracy().overall().hits);
    EXPECT_EQ(a.accuracy().overall().total,
              b.accuracy().overall().total);

    // Counted references can never exceed messages; hits can never
    // exceed non-cold references.
    const auto &acc = a.accuracy();
    EXPECT_LE(acc.overall().total, result.trace.records.size());
    EXPECT_LE(acc.overall().hits,
              acc.overall().total - acc.coldMisses());

    // Role split adds up.
    EXPECT_EQ(acc.cacheSide().total + acc.directorySide().total,
              acc.overall().total);
}

TEST_P(ReplayProperties, ArcRefsMatchAccuracyCounts)
{
    harness::RunConfig cfg;
    cfg.app = GetParam();
    cfg.iterations = 5;
    cfg.warmupIterations = 1;
    cfg.checkInvariants = false;
    const auto result = harness::runWorkload(cfg);

    pred::PredictorBank bank(result.trace.numNodes,
                             pred::CosmosConfig{1, 0});
    bank.replay(result.trace);

    // Arc references cannot exceed counted references per role (an
    // arc needs one extra preceding message).
    for (auto role : {proto::Role::cache, proto::Role::directory}) {
        const auto &side = role == proto::Role::cache
                               ? bank.accuracy().cacheSide()
                               : bank.accuracy().directorySide();
        EXPECT_LE(bank.arcs(role).totalRefs(), side.total);
        double ref_sum = 0.0;
        for (const auto &arc : bank.arcs(role).dominantArcs())
            ref_sum += arc.refPercent;
        EXPECT_NEAR(ref_sum,
                    bank.arcs(role).totalRefs() > 0 ? 100.0 : 0.0,
                    0.01);
    }
}

INSTANTIATE_TEST_SUITE_P(Apps, ReplayProperties,
                         ::testing::Values("appbt", "barnes", "dsmc",
                                           "moldyn", "unstructured",
                                           "micro_producer_consumer",
                                           "micro_migratory",
                                           "micro_false_sharing"));

// --- Property: deeper history can only reduce *wrong* predictions on
// a fixed deterministic cycle. ------------------------------------------

class DepthSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DepthSweep, DeterministicCycleIsLearnedAtEveryDepth)
{
    const unsigned depth = GetParam();
    pred::CosmosPredictor p(pred::CosmosConfig{depth, 0});
    const pred::MsgTuple cycle[4] = {
        {1, proto::MsgType::get_ro_request},
        {1, proto::MsgType::upgrade_request},
        {2, proto::MsgType::get_ro_request},
        {1, proto::MsgType::inval_rw_response},
    };
    int hits = 0, counted = 0;
    for (int i = 0; i < 400; ++i) {
        auto res = p.observe(0x40, cycle[i % 4]);
        counted += res.counted;
        hits += res.hit;
    }
    // After warm-up, everything is predicted.
    EXPECT_GE(hits, counted - 8);
    EXPECT_GT(counted, 380 - static_cast<int>(depth));
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthSweep,
                         ::testing::Values(1u, 2u, 3u, 4u));

// --- Property: the protocol stays coherent under *random*
// speculation decisions -- the speculation hook may fire arbitrarily
// and the machine must remain correct (§4.3 legal-state actions). ----

class SpeculationStress
    : public ::testing::TestWithParam<std::uint64_t>,
      public proto::DirectorySpeculation
{
  public:
    bool
    grantExclusiveOnRead(Addr, NodeId) override
    {
        return rng_->nextBool(0.5);
    }

  protected:
    std::unique_ptr<Rng> rng_;
};

TEST_P(SpeculationStress, RandomGrantsAndRecallsStayCoherent)
{
    rng_ = std::make_unique<Rng>(GetParam());
    MachineConfig cfg;
    cfg.numNodes = 8;
    proto::Machine machine(cfg);
    runtime::Runtime rt(machine);
    for (NodeId n = 0; n < cfg.numNodes; ++n)
        machine.directory(n).setSpeculation(this);

    std::vector<Addr> blocks;
    for (int i = 0; i < 12; ++i)
        blocks.push_back(static_cast<Addr>(i) * cfg.pageBytes +
                         (i % 3) * cfg.blockBytes);

    for (int round = 0; round < 4; ++round) {
        runtime::ProgramBuilder b(cfg.numNodes);
        for (NodeId p = 0; p < cfg.numNodes; ++p) {
            auto prog = b.proc(p);
            for (int op = 0; op < 30; ++op) {
                const Addr a = blocks[rng_->nextBelow(blocks.size())];
                if (rng_->nextBool(0.35))
                    prog.write(a);
                else
                    prog.read(a);
            }
        }
        b.barrier();
        rt.runPrograms(b.take());

        // Random voluntary recalls at quiescent points.
        for (Addr a : blocks)
            if (rng_->nextBool(0.5))
                machine.directory(machine.addrMap().home(a))
                    .voluntaryRecall(a);
        machine.eventQueue().run();

        const auto violations = check::checkCoherence(machine);
        ASSERT_TRUE(violations.empty())
            << "seed " << GetParam() << ": "
            << violations.front().format();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpeculationStress,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88));

// --- Property: every combination of protocol options keeps the
// machine coherent under concurrent stress: owner-read policy x
// forwarding x cache capacity x issue width. ---------------------------

// gtest names each case by the raw bytes of its parameter. The bytes
// after `forwarding` used to be implicit padding, so a name picked up
// whatever was on the stack (the top byte of an ASLR'd address) and
// changed from run to run. They are spelled out as `nameTag` instead:
// it feeds no option, and its values keep each case's historical name.
struct MatrixConfig
{
    OwnerReadPolicy policy;
    bool forwarding;
    unsigned char nameTag[3];
    unsigned capacity;
    unsigned mlp;
};
static_assert(sizeof(MatrixConfig) == 16,
              "MatrixConfig must have no implicit padding");

class ConfigMatrix : public ::testing::TestWithParam<MatrixConfig>
{
};

TEST_P(ConfigMatrix, StressStaysCoherent)
{
    const auto param = GetParam();
    MachineConfig cfg;
    cfg.numNodes = 8;
    cfg.ownerReadPolicy = param.policy;
    cfg.forwarding = param.forwarding;
    cfg.cacheCapacityBlocks = param.capacity;
    cfg.memoryLevelParallelism = param.mlp;
    proto::Machine machine(cfg);
    runtime::Runtime rt(machine);
    Rng rng(0xc0ffee);

    std::vector<Addr> blocks;
    for (int i = 0; i < 12; ++i)
        blocks.push_back(static_cast<Addr>(i) * cfg.pageBytes +
                         (i % 3) * cfg.blockBytes);

    for (int round = 0; round < 3; ++round) {
        runtime::ProgramBuilder b(cfg.numNodes);
        for (NodeId p = 0; p < cfg.numNodes; ++p) {
            auto prog = b.proc(p);
            for (int op = 0; op < 30; ++op) {
                const Addr a = blocks[rng.nextBelow(blocks.size())];
                if (rng.nextBool(0.4))
                    prog.write(a);
                else
                    prog.read(a);
            }
        }
        b.barrier();
        rt.runPrograms(b.take());
        const auto violations = check::checkCoherence(machine);
        ASSERT_TRUE(violations.empty()) << violations.front().format();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOptions, ConfigMatrix,
    ::testing::Values(
        MatrixConfig{OwnerReadPolicy::half_migratory, false, {}, 0, 1},
        MatrixConfig{OwnerReadPolicy::half_migratory, false, {0x7f}, 0, 4},
        MatrixConfig{OwnerReadPolicy::half_migratory, false, {0x56}, 4, 1},
        MatrixConfig{OwnerReadPolicy::half_migratory, false, {}, 4, 4},
        MatrixConfig{OwnerReadPolicy::half_migratory, true, {0x7f}, 0, 1},
        MatrixConfig{OwnerReadPolicy::half_migratory, true, {0x7f}, 0, 4},
        MatrixConfig{OwnerReadPolicy::half_migratory, true, {}, 4, 1},
        MatrixConfig{OwnerReadPolicy::half_migratory, true, {}, 4, 4},
        MatrixConfig{OwnerReadPolicy::downgrade, false, {}, 0, 1},
        MatrixConfig{OwnerReadPolicy::downgrade, false, {}, 0, 4},
        MatrixConfig{OwnerReadPolicy::downgrade, false, {}, 4, 1},
        MatrixConfig{OwnerReadPolicy::downgrade, false, {}, 4, 4},
        MatrixConfig{OwnerReadPolicy::downgrade, true, {}, 0, 1},
        MatrixConfig{OwnerReadPolicy::downgrade, true, {}, 0, 4},
        MatrixConfig{OwnerReadPolicy::downgrade, true, {}, 4, 1},
        MatrixConfig{OwnerReadPolicy::downgrade, true, {}, 4, 4}));

// --- Property: workload emission is a pure function of the seed. ------

class WorkloadDeterminism
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadDeterminism, SameSeedSameTrace)
{
    harness::RunConfig cfg;
    cfg.app = GetParam();
    cfg.iterations = 3;
    cfg.warmupIterations = 0;
    cfg.checkInvariants = false;
    cfg.seed = 0x1234;
    const auto a = harness::runWorkload(cfg);
    const auto b = harness::runWorkload(cfg);
    EXPECT_EQ(a.trace.records, b.trace.records);
}

INSTANTIATE_TEST_SUITE_P(Apps, WorkloadDeterminism,
                         ::testing::Values("appbt", "barnes", "dsmc",
                                           "moldyn",
                                           "unstructured"));

} // namespace
} // namespace cosmos
