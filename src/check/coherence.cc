#include "check/coherence.hh"

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

namespace cosmos::check
{

namespace
{

std::vector<NodeId>
nodesOf(std::uint64_t mask)
{
    std::vector<NodeId> nodes;
    for (NodeId n = 0; mask != 0; ++n, mask >>= 1)
        if (mask & 1)
            nodes.push_back(n);
    return nodes;
}

} // namespace

void
checkBlockCoherence(const proto::Machine &machine, Addr block,
                    Tick when, std::vector<Violation> &out)
{
    using proto::DirState;
    using proto::LineState;

    std::uint64_t ro = 0;
    std::uint64_t rw = 0;
    bool transient = false;
    const NodeId n = machine.numNodes();
    for (NodeId c = 0; c < n; ++c) {
        switch (machine.cache(c).state(block)) {
          case LineState::invalid:
            break;
          case LineState::read_only:
            ro |= std::uint64_t{1} << c;
            break;
          case LineState::read_write:
            rw |= std::uint64_t{1} << c;
            break;
          default:
            transient = true;
            break;
        }
    }

    // SWMR holds at *every* delivery point: exclusivity is only
    // granted after all invalidation acks, so two quiescent writable
    // copies -- or a writable copy next to readable ones -- are a
    // protocol bug no matter what is in flight.
    if (std::popcount(rw) > 1) {
        Violation v;
        v.kind = ViolationKind::multiple_writers;
        v.block = block;
        v.nodes = nodesOf(rw);
        v.when = when;
        v.detail = "more than one cache holds the block read_write";
        out.push_back(std::move(v));
    }
    if (rw != 0 && ro != 0) {
        Violation v;
        v.kind = ViolationKind::writer_and_readers;
        v.block = block;
        v.nodes = nodesOf(rw | ro);
        v.when = when;
        std::ostringstream os;
        os << "writer node " << nodesOf(rw).front()
           << " coexists with " << std::popcount(ro)
           << " read_only cop" << (std::popcount(ro) == 1 ? "y" : "ies");
        v.detail = os.str();
        out.push_back(std::move(v));
    }

    // Directory agreement only makes sense once the block is outside
    // any transaction.
    if (transient)
        return;
    const NodeId home = machine.addrMap().home(block);
    const auto &dir = machine.directory(home);
    if (dir.busy(block))
        return;

    const DirState ds = dir.state(block);
    const std::uint64_t sharers = dir.sharers(block);
    const NodeId owner = dir.owner(block);
    const bool replacement = machine.config().cacheCapacityBlocks != 0;

    Violation v;
    v.kind = ViolationKind::directory_mismatch;
    v.block = block;
    v.when = when;
    switch (ds) {
      case DirState::idle:
        if (ro == 0 && rw == 0)
            return;
        v.nodes = nodesOf(ro | rw);
        v.detail = "directory says idle but the block is cached";
        break;
      case DirState::shared:
        if (rw != 0) {
            v.nodes = nodesOf(rw);
            v.detail = "directory says shared but a cache holds the "
                       "block read_write";
        } else if (replacement ? (ro & ~sharers) != 0
                               : ro != sharers) {
            // Silent drops make the sharer list a superset of the
            // real holders; without replacement it must be exact.
            v.nodes = nodesOf(ro ^ sharers);
            std::ostringstream os;
            os << "sharer bits 0x" << std::hex << sharers
               << " disagree with read_only holders 0x" << ro;
            v.detail = os.str();
        } else {
            return;
        }
        break;
      case DirState::exclusive:
        if (rw != (std::uint64_t{1} << owner)) {
            v.nodes = nodesOf(rw | (std::uint64_t{1} << owner));
            std::ostringstream os;
            os << "directory owner is node " << owner
               << " but read_write holders are 0x" << std::hex << rw;
            v.detail = os.str();
        } else if (ro != 0) {
            v.nodes = nodesOf(ro);
            v.detail = "directory says exclusive but read_only "
                       "copies exist";
        } else {
            return;
        }
        break;
    }
    out.push_back(std::move(v));
}

std::vector<Violation>
checkCoherence(const proto::Machine &machine)
{
    std::vector<Violation> out;
    const Tick when = machine.eventQueue().now();
    const NodeId n = machine.numNodes();

    // Union of every block anyone still knows about.
    std::set<Addr> blocks;
    for (NodeId c = 0; c < n; ++c) {
        machine.cache(c).forEachLine(
            [&](Addr b, proto::LineState) { blocks.insert(b); });
        if (machine.cache(c).busy()) {
            Violation v;
            v.kind = ViolationKind::liveness;
            v.nodes = {c};
            v.when = when;
            std::ostringstream os;
            os << machine.cache(c).outstanding()
               << " cache miss(es) still outstanding at quiescence";
            v.detail = os.str();
            out.push_back(std::move(v));
        }
    }
    // Busy directory entries, reported in ascending block order
    // (each block has one home, so the order is total) rather than
    // in the directory tables' unspecified iteration order.
    std::vector<std::pair<Addr, NodeId>> busy;
    for (NodeId d = 0; d < n; ++d) {
        machine.directory(d).forEachEntry(
            [&](Addr b, proto::DirState, std::uint64_t, NodeId) {
                blocks.insert(b);
                if (machine.directory(d).busy(b))
                    busy.emplace_back(b, d);
            });
    }
    std::sort(busy.begin(), busy.end());
    for (const auto &[b, d] : busy) {
        Violation v;
        v.kind = ViolationKind::liveness;
        v.block = b;
        v.nodes = {d};
        v.when = when;
        v.detail = "directory entry still busy at quiescence";
        out.push_back(std::move(v));
    }

    for (Addr b : blocks)
        checkBlockCoherence(machine, b, when, out);
    return out;
}

} // namespace cosmos::check
