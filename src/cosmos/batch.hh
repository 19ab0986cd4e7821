/**
 * @file
 * Constants and SoA staging of the batched replay pipeline.
 *
 * PredictorBank::replay and observeChunk are the one way a trace
 * reaches a Cosmos bank. Observing record by record walks an array of
 * TraceRecords and, per record, probes two hash tables whose slots it
 * has never seen -- the block-table probe is a dependent cache miss
 * sitting squarely on the critical path. The pipeline
 * restructures that loop around fixed-size windows:
 *
 *  - pass 1 (stage) decodes a window of records into a structure-of-
 *    arrays buffer: block addresses, encoded <sender,type> tuples,
 *    module indices, and iterations in four dense arrays (16 hot
 *    bytes per record), then stably counting-sorts the window by
 *    (module, block-hash) so each predictor's records -- and within
 *    them each block's records -- replay back-to-back;
 *  - pass 2 (apply) walks each module slice and performs the
 *    ordinary observe per element, probing the block table once per
 *    same-block run with a software prefetch issued a fixed distance
 *    ahead, so probe latency overlaps preceding updates.
 *
 * Because pass 2 performs exactly the per-record observe calls in an
 * order that preserves every (module, block) subsequence -- the only
 * order any Table 5/6/8 counter depends on -- all counters are
 * bit-identical to feeding each record to PredictorBank::observe in
 * trace order; the tests compare against that loop.
 */

#ifndef COSMOS_COSMOS_BATCH_HH
#define COSMOS_COSMOS_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "cosmos/tuple.hh"
#include "trace/trace.hh"

namespace cosmos::pred
{

/**
 * Records staged per probe/apply sub-batch. Bounds the span between an
 * element's probe and its apply, so the lines the probe pass warmed
 * are still resident when the apply pass needs them.
 */
inline constexpr std::size_t batch_depth = 512;

/**
 * How many elements ahead of the probe cursor the block-table slot
 * prefetch is issued. Far enough to cover a memory access, near
 * enough that the line survives until use.
 */
inline constexpr std::size_t batch_prefetch_distance = 8;

/**
 * Records per module-major window. Within a window, staged records are
 * stably partitioned by destination module and each module's slice
 * replays consecutively, so one predictor's tables stay cache-hot for
 * the whole slice. Staging scratch is ~36 bytes per record plus
 * ~1 MB of sort buckets, so a bank holds ~3.4 MB at this size; 2^18
 * added ~9 MB per bank and raised the forge-phase benchmark's peak
 * RSS by 16% (EXPERIMENTS.md, "Replay window").
 */
inline constexpr std::size_t batch_window = std::size_t{1} << 16;

/**
 * Block-grouping hash bits inside each module's partition: the
 * counting-sort key is (module << batch_group_bits) | hash(block). All
 * of one block's records in a window land in one bucket, so they replay
 * back-to-back and the apply pass resolves the block's state node once
 * per run instead of once per record (dsmc averages ~12 records per
 * (module, block)). The sort is stable, so per-(module, block) order
 * is preserved; hash collisions only interleave groups, they never
 * reorder one block's records. Clamped per window so the bucket array
 * stays small next to the records it sorts and cheap to reset.
 */
inline constexpr unsigned batch_group_bits = 11;

/**
 * Structure-of-arrays staging buffer: element i of every array
 * describes staged record i. The arrays are parallel, sized once by
 * ensure(), and filled through a running count so the staging pass
 * pays one bounds check per record rather than one vector capacity
 * check per array per record.
 */
struct SoaBatch
{
    /** Block addresses (the block-table probe keys). */
    std::vector<Addr> blocks;
    /** MsgTuple::encode() of each <sender, type>. */
    std::vector<std::uint16_t> tuples;
    /** 2 * receiver + (role == directory): the bank's module index. */
    std::vector<std::uint16_t> modules;
    /** Iteration tags (accuracy-by-iteration bookkeeping). */
    std::vector<std::int32_t> iterations;
    /** Elements staged since the last clear(). */
    std::size_t count = 0;

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return blocks.size(); }

    void clear() { count = 0; }

    /** Size every array for at least @p n staged records. */
    void
    ensure(std::size_t n)
    {
        if (blocks.size() < n) {
            blocks.resize(n);
            tuples.resize(n);
            modules.resize(n);
            iterations.resize(n);
        }
    }

    /** Stage one record; ensure() must already cover it. Records
     *  above the caller's iteration cap are the caller's business to
     *  filter. */
    void
    push(const trace::TraceRecord &r)
    {
        cosmos_assert(count < blocks.size(), "SoaBatch overflow");
        blocks[count] = r.block;
        tuples[count] = MsgTuple{r.sender, r.type}.encode();
        modules[count] = static_cast<std::uint16_t>(
            2u * r.receiver +
            (r.role == proto::Role::directory ? 1 : 0));
        iterations[count] = r.iteration;
        ++count;
    }
};

} // namespace cosmos::pred

#endif // COSMOS_COSMOS_BATCH_HH
