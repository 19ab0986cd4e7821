/**
 * @file
 * Dense block ids for the simulated machine.
 *
 * Every protocol access and message names a block by its 64-bit
 * address. Hashing that address in each controller on each message
 * was the machine's dominant cost, so a machine interns each block
 * once: the first access to a block gives it the next dense BlockId,
 * messages carry the id next to the address, and the controllers
 * keep their per-block state in plain vectors indexed by it -- the
 * caches by id, each directory by the block's slot among the blocks
 * homed at it.
 *
 * Ids follow first-touch order, which depends on the schedule, so
 * nothing observable may depend on them: every enumeration that
 * reaches an output goes through byAddress().
 */

#ifndef COSMOS_PROTO_BLOCK_INDEX_HH
#define COSMOS_PROTO_BLOCK_INDEX_HH

#include <cstdint>
#include <vector>

#include "common/addr.hh"
#include "common/flat_map.hh"
#include "common/types.hh"

namespace cosmos::proto
{

/** Dense per-machine index of a block (see BlockIndex). */
using BlockId = std::uint32_t;

/** "Not interned" / "not known to the sender". */
constexpr BlockId no_block = ~BlockId{0};

/**
 * Address -> BlockId map of one machine, plus each block's home and
 * its slot at that home. Grows lazily: a fresh index holds nothing.
 */
class BlockIndex
{
  public:
    explicit BlockIndex(const AddrMap &amap) : amap_(amap) {}

    BlockIndex(const BlockIndex &) = delete;
    BlockIndex &operator=(const BlockIndex &) = delete;

    /** The id of the block at base address @p block, assigning the
     *  next id on first sight. */
    BlockId intern(Addr block);

    /** The id of @p block, or no_block if it was never interned. */
    BlockId
    find(Addr block) const
    {
        const BlockId *id = ids_.find(block);
        return id == nullptr ? no_block : *id;
    }

    /** Number of interned blocks (ids are 0 .. size() - 1). */
    std::size_t size() const { return addrs_.size(); }

    Addr addr(BlockId id) const { return addrs_[id]; }
    NodeId home(BlockId id) const { return homes_[id]; }

    /** Position of @p id among the blocks homed at home(id), in
     *  interning order: the index of its directory entry. */
    std::uint32_t homeSlot(BlockId id) const { return slots_[id]; }

    /** Every interned id, in ascending address order. */
    const std::vector<BlockId> &byAddress() const;

  private:
    const AddrMap &amap_;
    FlatMap<Addr, BlockId> ids_;
    std::vector<Addr> addrs_;
    std::vector<NodeId> homes_;
    std::vector<std::uint32_t> slots_;
    /** Blocks interned so far per home node (grown on demand). */
    std::vector<std::uint32_t> homeCounts_;
    /** byAddress() order of the first sorted_.size() ids; extended
     *  by merging when more ids exist. */
    mutable std::vector<BlockId> sorted_;
};

} // namespace cosmos::proto

#endif // COSMOS_PROTO_BLOCK_INDEX_HH
