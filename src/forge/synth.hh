/**
 * @file
 * The workload forge: seeded synthetic traffic with known ground
 * truth.
 *
 * §6.1 of the paper explains each application's predictor accuracy
 * by its mix of classical sharing patterns -- migratory blocks,
 * producer-consumer fan-out, read-only data, false sharing -- but
 * can only observe that mix indirectly through benchmarks. The forge
 * inverts the experiment: every cache block is *assigned* a sharing
 * class up front, traffic is generated to exercise exactly that
 * class, and the assignment is exported as a ground-truth label per
 * block. Prediction accuracy can then be scored against known
 * sharing structure (forge/score.hh), and trace::classifyTrace can
 * be validated against a census with a known answer.
 *
 * Streams are unbounded, deterministic functions of (seed, params):
 * the same parameters produce byte-identical access sequences
 * regardless of chunk sizes or consumer threading. Phase oscillation
 * (PAPERS.md's phase-priority direction) rotates the role assignment
 * every `phase` rounds so predictors must re-learn mid-stream.
 */

#ifndef COSMOS_FORGE_SYNTH_HH
#define COSMOS_FORGE_SYNTH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "forge/traffic_source.hh"
#include "trace/pattern_census.hh"

namespace cosmos::forge
{

/** Ground-truth sharing class assigned to a block. */
enum class BlockClass : std::uint8_t
{
    private_block,     ///< one processor, reads and writes
    read_only,         ///< fetched by every processor, never written
    migratory,         ///< read-modify-write ownership rotation
    producer_consumer, ///< one writer, `fanout` readers
    false_sharing,     ///< disjoint offsets of one block written by
                       ///< different processors
};

constexpr unsigned num_block_classes = 5;

const char *toString(BlockClass c);

/** The census pattern a block of class @p c should classify as. */
trace::SharingPattern expectedPattern(BlockClass c);

/**
 * Forge parameters: the §6.1 sharing axes.
 *
 * The class fractions partition the block population; whatever the
 * four explicit fractions leave over becomes producer-consumer.
 */
struct ForgeParams
{
    NodeId numProcs = 16;
    unsigned blocks = 256;
    unsigned blockBytes = 64;
    unsigned pageBytes = 4096;

    double migratory = 0.25;    ///< fraction of migratory blocks
    double falseSharing = 0.10; ///< fraction of false-sharing blocks
    double privateFrac = 0.20;  ///< fraction of private blocks
    double readOnly = 0.15;     ///< fraction of read-only blocks

    /** Consumers reading each producer-consumer block per round. */
    unsigned fanout = 3;

    /** Rounds per sharing phase; after each phase the producer,
     *  migratory rotation, and false-sharing writer roles shift to
     *  different processors. 0 = static roles. */
    unsigned phase = 0;

    std::uint64_t seed = 0xf0e6e5eedULL;

    /** Fraction left to producer-consumer blocks. */
    double producerConsumer() const;

    /** Fatal on inconsistent values. */
    void validate() const;

    /** One-line key=value summary (CLI echo, JSON artifacts). */
    std::string summary() const;

    /**
     * Parse a `key=value,key=value` spec: migratory, false, private,
     * readonly, fanout, phase, blocks, procs, seed (decimal or 0x).
     * @return false with @p err set on an unknown key or bad value.
     */
    static bool parse(const std::string &spec, ForgeParams &out,
                      std::string *err);
};

/**
 * The generator. Traffic is produced in rounds: each round touches
 * every block once according to its class, in a per-round shuffled
 * block order. One round is a natural "iteration" of the stream.
 */
class SynthSource : public TrafficSource
{
  public:
    explicit SynthSource(const ForgeParams &params);

    const std::string &name() const override { return name_; }
    NodeId numProcs() const override { return params_.numProcs; }
    bool bounded() const override { return false; }
    std::size_t next(std::vector<Access> &out,
                     std::size_t max) override;

    const ForgeParams &params() const { return params_; }

    /** Ground-truth label of block @p index (in [0, blocks)). */
    BlockClass label(unsigned index) const;

    /** All labels, indexed by block. */
    const std::vector<BlockClass> &labels() const { return labels_; }

    /** Base address of block @p index (one block per page, so homes
     *  spread round-robin like the kernels' allocator). */
    Addr blockAddr(unsigned index) const;

    /**
     * Ground-truth label for an address the stream emitted;
     * -1 cast to BlockClass never happens -- panics on a foreign
     * address (every stream address maps back to its block).
     */
    BlockClass labelOfAddr(Addr a) const;

    /** Completed rounds so far. */
    unsigned round() const { return round_; }

  private:
    void emitRound();
    void emitBlock(unsigned index, unsigned phase_shift);

    ForgeParams params_;
    std::string name_ = "forge";
    Rng rng_;
    std::vector<BlockClass> labels_;
    std::vector<unsigned> order_; ///< per-round shuffled block order
    std::vector<Access> pending_;
    std::size_t cursor_ = 0;
    unsigned round_ = 0;
};

} // namespace cosmos::forge

#endif // COSMOS_FORGE_SYNTH_HH
