/**
 * @file
 * Address arithmetic: cache-block and page decomposition of the
 * simulated shared-memory address space, plus the round-robin page-home
 * mapping that Stache uses (paper §5.1).
 */

#ifndef COSMOS_COMMON_ADDR_HH
#define COSMOS_COMMON_ADDR_HH

#include <cstdint>

#include "common/log.hh"
#include "common/types.hh"

namespace cosmos
{

/**
 * Immutable description of the address-space geometry.
 *
 * Block size and page size must be powers of two; the defaults match
 * the paper's Table 3 (64-byte cache blocks) and Stache's 4 KB pages.
 */
class AddrMap
{
  public:
    AddrMap(unsigned block_bytes, unsigned page_bytes, NodeId num_nodes);

    /** Geometry accessors. */
    unsigned blockBytes() const { return blockBytes_; }
    unsigned pageBytes() const { return pageBytes_; }
    NodeId numNodes() const { return numNodes_; }

    /** Align @p a down to its containing cache block. */
    Addr blockBase(Addr a) const { return a & ~Addr{blockBytes_ - 1}; }

    /** Index of the cache block containing @p a. */
    std::uint64_t blockIndex(Addr a) const { return a >> blockShift_; }

    /** Align @p a down to its containing page. */
    Addr pageBase(Addr a) const { return a & ~Addr{pageBytes_ - 1}; }

    /** Index of the page containing @p a. */
    std::uint64_t pageIndex(Addr a) const { return a >> pageShift_; }

    /**
     * Home node of the page containing @p a.
     *
     * Stache allocates pages round-robin across nodes: page X on node
     * X mod N, page X+1 on node (X+1) mod N (paper §5.1).
     */
    NodeId home(Addr a) const
    {
        return static_cast<NodeId>(pageIndex(a) % numNodes_);
    }

    /** Number of whole blocks per page. */
    unsigned blocksPerPage() const { return pageBytes_ / blockBytes_; }

  private:
    unsigned blockBytes_;
    unsigned pageBytes_;
    NodeId numNodes_;
    unsigned blockShift_;
    unsigned pageShift_;
};

} // namespace cosmos

#endif // COSMOS_COMMON_ADDR_HH
