#include "replay/sharding.hh"

#include <cstdint>

#include "common/log.hh"

namespace cosmos::replay
{

unsigned
shardOfBlock(Addr block, unsigned shards)
{
    cosmos_assert(shards > 0, "shard count must be positive");
    // Block addresses are block-aligned, so the low bits carry no
    // entropy; mix (a splitmix64 finalizer) before reducing.
    std::uint64_t x = block;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<unsigned>(x % shards);
}

std::vector<TraceShard>
shardByBlock(const trace::Trace &t, unsigned shards)
{
    cosmos_assert(shards > 0, "shard count must be positive");
    std::vector<TraceShard> out(shards);
    for (auto &shard : out)
        shard.records.reserve(t.records.size() / shards + 1);
    for (const auto &r : t.records)
        out[shardOfBlock(r.block, shards)].records.push_back(&r);
    return out;
}

} // namespace cosmos::replay
