#include "model/explorer.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <deque>
#include <fstream>
#include <optional>
#include <span>

#include "common/arena.hh"
#include "common/flat_map.hh"
#include "common/log.hh"
#include "model/stepper.hh"

namespace cosmos::model
{

namespace
{

constexpr std::uint32_t no_state = 0xFFFFFFFFu;

/** Hash of an encoding, taken a 64-bit word at a time (the tail word
 *  zero-padded) and finished with the splitmix64 mix. */
std::uint64_t
hashEncoding(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
    const auto mix = [&h](std::uint64_t w) {
        h = (h ^ w) * 0xbf58476d1ce4e5b9ull;
        h ^= h >> 31;
    };
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w;
        std::memcpy(&w, p + i, 8);
        mix(w);
    }
    if (i < n) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, n - i);
        mix(w);
    }
    return FlatHash{}(h);
}

/**
 * Exact-dedup visited set: one open-addressed array of {hash tag,
 * state id} slots, probed linearly and kept at most half full.
 * Membership is decided by byte comparison against the stored
 * encoding, so dedup is exact; the 32-bit tag only skips most
 * comparisons, and since the slot index is taken from the tag, the
 * array regrows without rehashing any encoding. Encodings live in an
 * arena (a two-byte length, then the bytes), so storing one never
 * moves the others.
 */
class VisitedSet
{
  public:
    VisitedSet() : slots_(std::size_t{1} << 12) {}

    /** The hash tag of @p enc, for prefetch() and insert(). */
    static std::uint32_t
    tagOf(const Encoding &enc)
    {
        return static_cast<std::uint32_t>(
            hashEncoding(enc.data(), enc.size));
    }

    /** Start loading the slot insert(enc, tag) probes first. */
    void
    prefetch(std::uint32_t tag) const
    {
        __builtin_prefetch(&slots_[tag & (slots_.size() - 1)]);
    }

    /** @return (state id, true) on first insertion, (existing id,
     *  false) on a revisit. Ids count up from 0 in insertion order.
     *  @p tag must be tagOf(enc). */
    std::pair<std::uint32_t, bool>
    insert(const Encoding &enc, std::uint32_t tag)
    {
        if ((stored_.size() + 1) * 2 > slots_.size())
            grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = tag & mask;
        for (; slots_[i].id != no_state; i = (i + 1) & mask) {
            if (slots_[i].tag != tag)
                continue;
            const auto known = encoding(slots_[i].id);
            if (known.size() == enc.size &&
                std::memcmp(known.data(), enc.data(), enc.size) == 0)
                return {slots_[i].id, false};
        }

        const auto len = static_cast<std::uint16_t>(enc.size);
        auto *mem = static_cast<std::uint8_t *>(
            arena_.allocate(sizeof len + enc.size, 1));
        std::memcpy(mem, &len, sizeof len);
        std::memcpy(mem + sizeof len, enc.data(), enc.size);
        const auto id = static_cast<std::uint32_t>(stored_.size());
        stored_.push_back(mem);
        slots_[i] = {tag, id};
        return {id, true};
    }

    /** The encoding of state @p id. */
    std::span<const std::uint8_t>
    encoding(std::uint32_t id) const
    {
        const std::uint8_t *mem = stored_[id];
        std::uint16_t len;
        std::memcpy(&len, mem, sizeof len);
        return {mem + sizeof len, len};
    }

    std::size_t size() const { return stored_.size(); }

  private:
    struct Slot
    {
        std::uint32_t tag = 0;
        std::uint32_t id = no_state; ///< no_state: empty
    };

    void
    grow()
    {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const Slot &sl : old) {
            if (sl.id == no_state)
                continue;
            std::size_t i = sl.tag & mask;
            while (slots_[i].id != no_state)
                i = (i + 1) & mask;
            slots_[i] = sl;
        }
    }

    static_assert(max_encoding <= 0xFFFF,
                  "encoding lengths are stored in two bytes");

    Arena arena_;
    std::vector<Slot> slots_;
    /** Per state id, where its encoding starts in arena_. */
    std::vector<const std::uint8_t *> stored_;
};

/** How a state was first reached. Read for its BFS depth and to
 *  rebuild counterexample schedules, never on the dedup path. */
struct Trail
{
    std::uint32_t parent = no_state;
    std::uint32_t depth = 0;
    Action via{};
};

/** Node ids of the set bits of @p mask, ascending. */
std::vector<NodeId>
nodesOf(unsigned mask)
{
    std::vector<NodeId> nodes;
    for (unsigned n = 0; mask >> n; ++n)
        if (mask & (1u << n))
            nodes.push_back(static_cast<NodeId>(n));
    return nodes;
}

/** First safety violation of @p s, if any (fixed check order keeps
 *  reports deterministic). Mirrors check::InvariantEngine's rules on
 *  the model's explicit state. */
std::optional<check::Violation>
checkState(const GlobalState &s, const ModelConfig &mc)
{
    for (unsigned b = 0; b < mc.numBlocks; ++b) {
        unsigned writers = 0; // node bitmasks
        unsigned readers = 0;
        bool transient = false;
        for (unsigned n = 0; n < mc.numNodes; ++n) {
            switch (static_cast<proto::LineState>(s.line[n][b])) {
              case proto::LineState::read_write:
                writers |= 1u << n;
                break;
              case proto::LineState::read_only:
                readers |= 1u << n;
                break;
              case proto::LineState::invalid:
                break;
              default:
                transient = true;
                break;
            }
        }
        const auto copies = [&] {
            std::vector<NodeId> nodes = nodesOf(writers);
            const std::vector<NodeId> ro = nodesOf(readers);
            nodes.insert(nodes.end(), ro.begin(), ro.end());
            return nodes;
        };

        if (std::popcount(writers) > 1) {
            check::Violation v;
            v.kind = check::ViolationKind::multiple_writers;
            v.block = mc.blockAddr(b);
            v.nodes = nodesOf(writers);
            v.detail = detail::concat(
                "block ", b, " is cached read_write at ",
                std::popcount(writers), " nodes simultaneously");
            return v;
        }
        if (writers != 0 && readers != 0) {
            const int numReaders = std::popcount(readers);
            check::Violation v;
            v.kind = check::ViolationKind::writer_and_readers;
            v.block = mc.blockAddr(b);
            v.nodes = copies();
            v.detail = detail::concat(
                "block ", b, " has a read_write copy at node ",
                std::countr_zero(writers), " coexisting with ",
                numReaders, " read_only cop",
                numReaders == 1 ? "y" : "ies");
            return v;
        }

        // Directory agreement applies only at rest: entry not
        // mid-transaction, no miss outstanding on the block, nothing
        // for the block in flight.
        const DirEntryState &e = s.dir[b];
        if (e.busy || transient)
            continue;
        bool inFlight = false;
        for (unsigned src = 0; src < mc.numNodes && !inFlight; ++src) {
            for (unsigned dst = 0; dst < mc.numNodes; ++dst) {
                const MsgQueue &q = s.channel(src, dst);
                for (unsigned i = 0; i < q.count; ++i) {
                    if (q.items[i].blockIdx == b) {
                        inFlight = true;
                        break;
                    }
                }
            }
        }
        if (inFlight)
            continue;

        std::string mismatch;
        switch (e.state) {
          case proto::DirState::idle:
            if (writers != 0 || readers != 0)
                mismatch = "entry is idle but cached copies exist";
            break;
          case proto::DirState::shared:
            if (writers != 0)
                mismatch = "entry is shared but a read_write copy "
                           "exists";
            else if (e.sharers != readers)
                mismatch = detail::concat(
                    "sharer bits ", unsigned{e.sharers},
                    " disagree with the read_only copies ", readers);
            break;
          case proto::DirState::exclusive:
            if (std::popcount(writers) != 1 ||
                e.owner != std::countr_zero(writers) || readers != 0) {
                mismatch = detail::concat(
                    "entry is exclusive at node ", unsigned{e.owner},
                    " but the caches disagree");
            }
            break;
        }
        if (!mismatch.empty()) {
            check::Violation v;
            v.kind = check::ViolationKind::directory_mismatch;
            v.block = mc.blockAddr(b);
            v.nodes = copies();
            v.detail = detail::concat("block ", b, ": ", mismatch);
            return v;
        }
    }

    // Deadlock: an in-progress transaction with an empty network can
    // never complete -- the ack or response it waits for does not
    // exist.
    bool networkEmpty = true;
    for (unsigned src = 0; src < mc.numNodes && networkEmpty; ++src)
        for (unsigned dst = 0; dst < mc.numNodes; ++dst)
            if (s.channel(src, dst).count != 0) {
                networkEmpty = false;
                break;
            }
    if (networkEmpty) {
        for (unsigned b = 0; b < mc.numBlocks; ++b) {
            bool stuck = s.dir[b].busy;
            unsigned waiting = 0;
            for (unsigned n = 0; n < mc.numNodes; ++n) {
                const auto st =
                    static_cast<proto::LineState>(s.line[n][b]);
                if (st == proto::LineState::wait_ro ||
                    st == proto::LineState::wait_rw ||
                    st == proto::LineState::wait_upg) {
                    stuck = true;
                    waiting |= 1u << n;
                }
            }
            if (stuck) {
                check::Violation v;
                v.kind = check::ViolationKind::liveness;
                v.block = mc.blockAddr(b);
                v.nodes = nodesOf(waiting);
                v.detail = detail::concat(
                    "deadlock: block ", b,
                    " has a transaction in progress but the network "
                    "is empty");
                return v;
            }
        }
    }

    return std::nullopt;
}

/** Translate node ids of a canonical-space action through @p inv. */
Action
translateAction(const Action &a,
                const std::array<std::uint8_t, max_nodes> &inv)
{
    Action c = a;
    if (a.kind == Action::Kind::deliver) {
        c.src = inv[a.src];
        c.dst = inv[a.dst];
        c.msg.src = inv[a.msg.src];
        c.msg.dst = inv[a.msg.dst];
        if (a.msg.requester != no_node)
            c.msg.requester = inv[a.msg.requester];
    } else {
        c.node = inv[a.node];
    }
    return c;
}

/**
 * Rebuild the concrete schedule reaching state @p id (plus the
 * optional @p extra violating action) and re-execute it from the
 * initial state so the reported counterexample is executable as-is.
 */
Counterexample
buildCounterexample(const ModelConfig &mc, Stepper &stepper,
                    const std::vector<Trail> &trails, std::uint32_t id,
                    const Action *extra, check::Violation v)
{
    std::vector<Action> raw;
    for (std::uint32_t cur = id; trails[cur].parent != no_state;
         cur = trails[cur].parent) {
        raw.push_back(trails[cur].via);
    }
    std::reverse(raw.begin(), raw.end());
    if (extra)
        raw.push_back(*extra);

    Counterexample ce;
    GlobalState s = Stepper::initialState();
    Encoding enc;
    std::array<std::uint8_t, max_nodes> perm{};
    std::array<std::uint8_t, max_nodes> inv{};
    Stepper::Result r;
    for (const Action &a : raw) {
        canonicalEncoding(s, mc, enc, &perm);
        for (unsigned n = 0; n < mc.numNodes; ++n)
            inv[perm[n]] = static_cast<std::uint8_t>(n);
        const Action c = translateAction(a, inv);
        ce.schedule.push_back(c);
        stepper.step(s, c, r);
        // Record which declared rows this step dispatched through:
        // the replayable counterexample names each transition by its
        // declaration site instead of an opaque handler.
        ce.rowTrace.emplace_back();
        for (const Sample &smp : r.samples) {
            ce.rowTrace.back().push_back(
                smp.row ? detail::concat(smp.row->where(), "  ",
                                         smp.row->format())
                        : detail::concat("(undeclared) ",
                                         toString(smp.module), " ",
                                         inputName(smp.input)));
        }
        if (r.failed)
            break; // assertion counterexamples end at the failure
        s = r.next;
    }

    const std::size_t first =
        ce.schedule.size() > 8 ? ce.schedule.size() - 8 : 0;
    for (std::size_t i = first; i < ce.schedule.size(); ++i)
        v.history.push_back(detail::concat("step ", i, ": ",
                                           ce.schedule[i].format()));
    ce.violation = std::move(v);
    return ce;
}

} // namespace

ExploreResult
explore(const ExploreOptions &opt)
{
    const ModelConfig &mc = opt.mc;
    mc.validate();

    ExploreResult res;
    Stepper stepper(mc);
    VisitedSet visited;
    std::vector<Trail> trails; // indexed by state id
    std::deque<std::uint32_t> frontier;

    Encoding enc;
    canonicalEncoding(Stepper::initialState(), mc, enc);
    frontier.push_back(visited.insert(enc, VisitedSet::tagOf(enc)).first);
    trails.emplace_back();

    std::vector<Action> actions;
    GlobalState s;
    Stepper::Result stepRes;

    const auto record = [&](std::uint32_t parentId, const Action *extra,
                            check::Violation v) {
        if (res.counterexamples.size() >= opt.maxViolations)
            return;
        v.when = trails[parentId].depth + (extra ? 1 : 0);
        res.counterexamples.push_back(buildCounterexample(
            mc, stepper, trails, parentId, extra, std::move(v)));
    };

    while (!frontier.empty()) {
        const std::uint32_t id = frontier.front();
        frontier.pop_front();
        const std::uint32_t depth = trails[id].depth;
        const auto curEnc = visited.encoding(id);
        decodeState(curEnc.data(), curEnc.size(), mc, s);
        res.maxDepth = std::max(res.maxDepth, unsigned{depth});

        enumerateActions(s, mc, actions);
        for (const Action &a : actions) {
            stepper.step(s, a, stepRes);
            ++res.transitions;
            // Encode and hash first, so the visited slot loads while
            // the samples are folded into the table.
            std::uint32_t tag = 0;
            if (!stepRes.failed) {
                canonicalEncoding(stepRes.next, mc, enc);
                tag = VisitedSet::tagOf(enc);
                visited.prefetch(tag);
            }
            for (const Sample &smp : stepRes.samples)
                res.table.record(smp);

            if (stepRes.failed) {
                ++res.failedSteps;
                check::Violation v;
                v.kind = check::ViolationKind::assertion;
                v.detail = stepRes.failureMsg;
                record(id, &a, std::move(v));
                continue;
            }

            const auto [nid, fresh] = visited.insert(enc, tag);
            if (!fresh)
                continue;
            trails.push_back({id, depth + 1, a});

            if (auto v = checkState(stepRes.next, mc)) {
                // Violating states are terminal: record, don't
                // expand, so a clean space's size is a golden number
                // and a buggy one stops at the bug's frontier.
                if (v->kind == check::ViolationKind::liveness)
                    ++res.deadlocks;
                record(nid, nullptr, std::move(*v));
                continue;
            }
            if (visited.size() > opt.maxStates) {
                res.complete = false;
                check::Violation v;
                v.kind = check::ViolationKind::liveness;
                v.detail = detail::concat(
                    "exploration exceeded the ", opt.maxStates,
                    "-state bound without closing; livelock or an "
                    "unbounded transient");
                record(nid, nullptr, std::move(v));
                res.states = visited.size();
                res.consistency =
                    res.table.diffAgainstDeclared(stepper.table());
                return res;
            }
            frontier.push_back(nid);
        }
    }

    res.states = visited.size();
    res.consistency = res.table.diffAgainstDeclared(stepper.table());
    return res;
}

std::string
formatCounterexample(const ModelConfig &mc, const Counterexample &ce)
{
    std::string out = "# cosmos-model-counterexample-v1\n";
    out += detail::concat(
        "# config nodes=", mc.numNodes, " blocks=", mc.numBlocks,
        " reorder=", mc.reorder, " policy=", toString(mc.policy),
        " forwarding=", mc.forwarding ? 1 : 0,
        " legacy_forwarding=", mc.legacyForwarding ? 1 : 0,
        " inject_ignore_inval=", mc.ignoreInvalEvery, "\n");
    out += detail::concat("# violation ",
                          check::toString(ce.violation.kind), "\n");
    out += detail::concat("# detail ", ce.violation.detail, "\n");
    std::size_t i = 0;
    for (const Action &a : ce.schedule) {
        if (a.kind == Action::Kind::deliver) {
            out += detail::concat(
                "step ", i, " deliver src=", unsigned{a.src},
                " dst=", unsigned{a.dst}, " type=",
                proto::toString(a.msg.type), " block=",
                unsigned{a.msg.blockIdx}, " depth=", unsigned{a.depth},
                "\n");
        } else {
            out += detail::concat(
                "step ", i, " issue node=", unsigned{a.node}, " op=",
                a.kind == Action::Kind::issue_write ? "write" : "read",
                " block=", unsigned{a.blockIdx}, "\n");
        }
        // Row provenance as replay-transparent comments: each handler
        // invocation of the step, named by its declaring table row.
        if (i < ce.rowTrace.size())
            for (const std::string &row : ce.rowTrace[i])
                out += detail::concat("#   row ", row, "\n");
        ++i;
    }
    return out;
}

bool
writeCounterexample(const std::string &path, const ModelConfig &mc,
                    const Counterexample &ce)
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << formatCounterexample(mc, ce);
    return static_cast<bool>(f);
}

} // namespace cosmos::model
