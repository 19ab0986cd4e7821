#include "proto/block_index.hh"

#include <algorithm>

namespace cosmos::proto
{

BlockId
BlockIndex::intern(Addr block)
{
    const BlockId next = static_cast<BlockId>(addrs_.size());
    BlockId &id = ids_.obtain(block, next);
    if (id != next)
        return id;
    cosmos_assert(next != no_block, "block index is full");
    const NodeId home = amap_.home(block);
    if (home >= homeCounts_.size())
        homeCounts_.resize(home + std::size_t{1}, 0);
    addrs_.push_back(block);
    homes_.push_back(home);
    slots_.push_back(homeCounts_[home]++);
    return next;
}

const std::vector<BlockId> &
BlockIndex::byAddress() const
{
    const std::size_t done = sorted_.size();
    if (done == addrs_.size())
        return sorted_;
    for (std::size_t id = done; id < addrs_.size(); ++id)
        sorted_.push_back(static_cast<BlockId>(id));
    const auto lower = [this](BlockId a, BlockId b) {
        return addrs_[a] < addrs_[b];
    };
    const auto mid = sorted_.begin() + static_cast<std::ptrdiff_t>(done);
    std::sort(mid, sorted_.end(), lower);
    std::inplace_merge(sorted_.begin(), mid, sorted_.end(), lower);
    return sorted_;
}

} // namespace cosmos::proto
