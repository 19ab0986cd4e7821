/**
 * @file
 * Block-sharded views of a message trace.
 *
 * Cosmos prediction is per cache block (§3.1): every structure a
 * predictor keeps -- MHR, PHT, the arc-statistics "last message"
 * state -- is keyed by block address, so a trace can be partitioned
 * by block and each partition replayed independently.
 *
 * Sharding invariant: all records of one block land in exactly one
 * shard, and within a shard records keep their trace order. Under
 * that invariant, replaying the shards through separate predictor
 * banks and summing the (integer) statistics is *bit-identical* to a
 * serial replay of the whole trace.
 */

#ifndef COSMOS_REPLAY_SHARDING_HH
#define COSMOS_REPLAY_SHARDING_HH

#include <vector>

#include "trace/trace.hh"

namespace cosmos::replay
{

/** One block-disjoint slice of a trace (views, not copies). */
struct TraceShard
{
    /** Records in trace order; all blocks are exclusive to this shard. */
    std::vector<const trace::TraceRecord *> records;
};

/**
 * Shard index of @p block among @p shards shards. Deterministic
 * (a fixed bit mix, no process-dependent hashing) so shard layouts
 * are reproducible across runs and builds. shardByBlock is the one
 * block-sharding mechanism in the tree; everything that shards by
 * block goes through it.
 */
unsigned shardOfBlock(Addr block, unsigned shards);

/**
 * Partition @p t by block into @p shards shards (some may be empty).
 * The returned shards point into @p t, which must outlive them.
 */
std::vector<TraceShard> shardByBlock(const trace::Trace &t,
                                     unsigned shards);

} // namespace cosmos::replay

#endif // COSMOS_REPLAY_SHARDING_HH
