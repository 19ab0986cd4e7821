#include "trace/pattern_census.hh"

#include <algorithm>
#include <bit>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "common/flat_map.hh"
#include "common/log.hh"

namespace cosmos::trace
{

const char *
toString(SharingPattern p)
{
    switch (p) {
      case SharingPattern::rarely_touched:    return "rarely-touched";
      case SharingPattern::read_only:         return "read-only";
      case SharingPattern::producer_consumer: return "producer-consumer";
      case SharingPattern::migratory:         return "migratory";
      case SharingPattern::multi_writer:      return "multi-writer";
    }
    return "?";
}

double
PatternCensus::blockPercent(SharingPattern p) const
{
    return totalBlocks == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(
                         blocks[static_cast<unsigned>(p)]) /
                     static_cast<double>(totalBlocks);
}

double
PatternCensus::messagePercent(SharingPattern p) const
{
    return totalMessages == 0
               ? 0.0
               : 100.0 *
                     static_cast<double>(
                         messages[static_cast<unsigned>(p)]) /
                     static_cast<double>(totalMessages);
}

std::string
PatternCensus::format() const
{
    std::ostringstream os;
    for (unsigned i = 0; i < num_sharing_patterns; ++i) {
        const auto p = static_cast<SharingPattern>(i);
        os << toString(p) << ": " << blockPercent(p) << "% blocks / "
           << messagePercent(p) << "% messages\n";
    }
    return os.str();
}

namespace
{

struct BlockHistory
{
    std::uint64_t messages = 0;
    std::uint64_t writes = 0; // rw fetches + upgrades
    std::uint64_t reads = 0;  // ro fetches
    std::uint64_t readers = 0; ///< node bitmask
    std::uint64_t writers = 0; ///< node bitmask
    /** Write count per writer, in ascending node order (one entry
     *  per set bit of `writers`). */
    std::vector<std::uint64_t> writeCounts;
    /** Reads later upgraded by the same node (migratory hand-offs). */
    std::uint64_t readThenUpgrade = 0;
    NodeId lastReader = invalid_node;

    void
    countWrite(NodeId n)
    {
        const std::uint64_t b = nodeBit(n);
        const auto rank = static_cast<std::ptrdiff_t>(
            std::popcount(writers & (b - 1)));
        if (!(writers & b)) {
            writers |= b;
            writeCounts.insert(writeCounts.begin() + rank, 0);
        }
        ++writeCounts[static_cast<std::size_t>(rank)];
    }

    static std::uint64_t
    nodeBit(NodeId n)
    {
        cosmos_assert(n < max_machine_nodes, "census record from node ",
                      n, " beyond the ", max_machine_nodes,
                      "-node limit");
        return std::uint64_t{1} << n;
    }
};

SharingPattern
classify(const BlockHistory &h, unsigned min_messages)
{
    if (h.messages < min_messages)
        return SharingPattern::rarely_touched;
    if (h.writes == 0)
        return SharingPattern::read_only;

    // Producer-consumer first: one writer dominates and someone else
    // reads. A producer that reads before writing (appbt's stencil)
    // must land here, not in migratory -- ownership never rotates.
    // Ties go to the lowest-numbered writer.
    std::uint64_t top_writes = 0;
    NodeId top_writer = invalid_node;
    std::uint64_t rest = h.writers;
    for (const std::uint64_t count : h.writeCounts) {
        const auto node = static_cast<NodeId>(std::countr_zero(rest));
        rest &= rest - 1;
        if (count > top_writes) {
            top_writes = count;
            top_writer = node;
        }
    }
    const bool dominant_writer =
        static_cast<double>(top_writes) /
            static_cast<double>(h.writes) >=
        0.8;
    const bool external_reader =
        (h.readers & ~BlockHistory::nodeBit(top_writer)) != 0;
    if (dominant_writer && external_reader)
        return SharingPattern::producer_consumer;

    // Migratory: ownership rotates -- no dominant writer, and a
    // significant share of reads turns into an upgrade by the same
    // node (the read-modify-write hand-off).
    if (std::popcount(h.writers) >= 2 && h.reads > 0 &&
        static_cast<double>(h.readThenUpgrade) /
                static_cast<double>(h.reads) >=
            0.3) {
        return SharingPattern::migratory;
    }

    return SharingPattern::multi_writer;
}

FlatMap<Addr, BlockHistory>
buildHistories(const Trace &t)
{
    FlatMap<Addr, BlockHistory> histories;
    for (const auto &r : t.records) {
        if (r.role != proto::Role::directory)
            continue;
        BlockHistory &h = histories.obtain(r.block);
        ++h.messages;
        switch (r.type) {
          case proto::MsgType::get_ro_request:
            ++h.reads;
            h.readers |= BlockHistory::nodeBit(r.sender);
            h.lastReader = r.sender;
            break;
          case proto::MsgType::upgrade_request:
            ++h.writes;
            h.countWrite(r.sender);
            if (r.sender == h.lastReader)
                ++h.readThenUpgrade;
            break;
          case proto::MsgType::get_rw_request:
            ++h.writes;
            h.countWrite(r.sender);
            break;
          default:
            break;
        }
    }
    return histories;
}

} // namespace

PatternCensus
classifyTrace(const Trace &t, unsigned min_messages)
{
    PatternCensus census;
    buildHistories(t).forEach([&](Addr, const BlockHistory &h) {
        const auto p = classify(h, min_messages);
        ++census.blocks[static_cast<unsigned>(p)];
        census.messages[static_cast<unsigned>(p)] += h.messages;
        ++census.totalBlocks;
        census.totalMessages += h.messages;
    });
    return census;
}

std::map<Addr, SharingPattern>
classifyBlocks(const Trace &t, unsigned min_messages)
{
    std::vector<std::pair<Addr, SharingPattern>> sorted;
    const auto histories = buildHistories(t);
    sorted.reserve(histories.size());
    histories.forEach([&](Addr block, const BlockHistory &h) {
        sorted.emplace_back(block, classify(h, min_messages));
    });
    std::sort(sorted.begin(), sorted.end());
    std::map<Addr, SharingPattern> out;
    for (const auto &entry : sorted)
        out.emplace_hint(out.end(), entry);
    return out;
}

} // namespace cosmos::trace
