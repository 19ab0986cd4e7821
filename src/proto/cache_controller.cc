#include "proto/cache_controller.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"

namespace cosmos::proto
{

const char *
toString(LineState s)
{
    switch (s) {
      case LineState::invalid:    return "invalid";
      case LineState::read_only:  return "read_only";
      case LineState::read_write: return "read_write";
      case LineState::wait_ro:    return "wait_ro";
      case LineState::wait_rw:    return "wait_rw";
      case LineState::wait_upg:   return "wait_upg";
    }
    return "?";
}

CacheController::CacheController(NodeId node, const AddrMap &amap,
                                 const MachineConfig &cfg,
                                 const ProtocolTable &table,
                                 BlockIndex &blocks, sim::EventQueue &eq,
                                 SendFn send)
    : node_(node), amap_(amap), cfg_(cfg), table_(table),
      blocks_(blocks), eq_(eq), sendFn_(std::move(send))
{
}

namespace
{

bool
isValid(LineState s)
{
    return s == LineState::read_only || s == LineState::read_write;
}

} // namespace

BlockId
CacheController::find(Addr block) const
{
    if (block != memoBlock_) {
        const BlockId id = blocks_.find(block);
        if (id == no_block)
            return no_block;
        memoBlock_ = block;
        memoId_ = id;
    }
    return memoId_;
}

BlockId
CacheController::intern(Addr block)
{
    if (block != memoBlock_) {
        memoId_ = blocks_.intern(block);
        memoBlock_ = block;
    }
    return memoId_;
}

LineState &
CacheController::line(BlockId id)
{
    if (id >= lines_.size())
        lines_.resize(blocks_.size(), LineState::invalid);
    return lines_[id];
}

LineState
CacheController::state(Addr a) const
{
    const BlockId id = find(amap_.blockBase(a));
    return id < lines_.size() ? lines_[id] : LineState::invalid;
}

void
CacheController::setState(BlockId id, LineState st)
{
    LineState &cur = line(id);
    const LineState old = cur;
    if (old == st)
        return;
    if (isValid(old) && !isValid(st))
        --validLines_;
    else if (!isValid(old) && isValid(st))
        ++validLines_;
    ++stats_.stateEntries[static_cast<std::size_t>(st)];
    cur = st;
    if (cfg_.cacheCapacityBlocks == 0 ||
        (old != LineState::read_only && st != LineState::read_only)) {
        return;
    }
    const std::pair<Addr, BlockId> key{blocks_.addr(id), id};
    const auto at =
        std::lower_bound(readOnly_.begin(), readOnly_.end(), key);
    if (st == LineState::read_only)
        readOnly_.insert(at, key);
    else
        readOnly_.erase(at);
}

void
CacheController::evictForCapacity()
{
    if (cfg_.cacheCapacityBlocks == 0 ||
        validLines_ < cfg_.cacheCapacityBlocks || readOnly_.empty()) {
        return;
    }
    // Drop the lowest-addressed quiescent read-only line, so the
    // victim depends on the line set alone and never on the order
    // blocks were interned. (Misses start from invalid lines, so the
    // block being fetched is never a candidate.) Read-write lines are
    // never dropped (a clean victim needs no writeback message). If
    // everything is read-write the capacity is soft-exceeded.
    setState(readOnly_.front().second, LineState::invalid);
    ++stats_.evictions;
}

void
CacheController::forEachLine(
    const std::function<void(Addr, LineState)> &fn) const
{
    for (const BlockId id : blocks_.byAddress()) {
        if (id < lines_.size() && lines_[id] != LineState::invalid)
            fn(blocks_.addr(id), lines_[id]);
    }
}

void
CacheController::snapshot(CacheSnapshot &out) const
{
    out.lines.clear();
    forEachLine([&](Addr block, LineState st) {
        out.lines.emplace_back(block, st);
    });
    out.invalResidue = cfg_.fault.ignoreInvalEvery == 0
                           ? 0
                           : ignoredInvalTick_ %
                                 cfg_.fault.ignoreInvalEvery;
}

void
CacheController::restore(const CacheSnapshot &s)
{
    std::fill(lines_.begin(), lines_.end(), LineState::invalid);
    readOnly_.clear();
    pending_.clear();
    validLines_ = 0;
    ignoredInvalTick_ = s.invalResidue;
    for (const auto &[block, st] : s.lines) {
        cosmos_assert(st != LineState::invalid,
                      "snapshot carries an invalid line");
        const BlockId id = blocks_.intern(block);
        line(id) = st;
        if (isValid(st))
            ++validLines_;
        else
            pending_.emplace_back(id, DoneFn{});
        if (st == LineState::read_only && cfg_.cacheCapacityBlocks != 0)
            readOnly_.emplace_back(block, id);
    }
    std::sort(readOnly_.begin(), readOnly_.end());
}

void
CacheController::send(MsgType t, NodeId dst, Addr block, BlockId id,
                      bool forwarded)
{
    Msg m;
    m.type = t;
    m.src = node_;
    m.dst = dst;
    m.block = block;
    m.requester = node_;
    m.forwarded = forwarded;
    m.id = id;
    sendFn_(m);
}

bool
CacheController::pendingOn(Addr a) const
{
    const LineState st = state(a);
    return st != LineState::invalid && !isValid(st);
}

void
CacheController::access(Addr a, bool write, DoneFn done)
{
    const Addr block = amap_.blockBase(a);
    const BlockId id = intern(block);
    const LineState st = line(id);
    // Accesses to transient blocks (processors stall on those; an
    // access here is the caller's error) hit the wait-state rows'
    // declared-unreachable proc entries and panic in dispatch().
    const TransitionRow &row = table_.dispatch(
        Role::cache, static_cast<std::uint8_t>(st),
        write ? input_proc_write : input_proc_read, guard_none, node_);

    if (write)
        ++stats_.stores;
    else
        ++stats_.loads;

    const NodeId home = blocks_.home(id);
    switch (row.action) {
      case ActionId::cache_load_hit:
      case ActionId::cache_store_hit:
        if (write)
            ++stats_.storeHits;
        else
            ++stats_.loadHits;
        eq_.scheduleAfter(cfg_.cacheHitLatency, std::move(done));
        break;

      case ActionId::cache_begin_read_miss:
        pending_.emplace_back(id, std::move(done));
        ++stats_.readMisses;
        evictForCapacity();
        setState(id, LineState::wait_ro);
        send(MsgType::get_ro_request, home, block, id);
        break;

      case ActionId::cache_begin_write_miss:
        pending_.emplace_back(id, std::move(done));
        ++stats_.writeMisses;
        evictForCapacity();
        setState(id, LineState::wait_rw);
        send(MsgType::get_rw_request, home, block, id);
        break;

      case ActionId::cache_begin_upgrade:
        pending_.emplace_back(id, std::move(done));
        ++stats_.upgrades;
        setState(id, LineState::wait_upg);
        send(MsgType::upgrade_request, home, block, id);
        break;

      default:
        cosmos_panic("cache ", node_, " cannot run action ",
                     toString(row.action), " for a processor access");
    }
}

void
CacheController::complete(BlockId id, LineState final_state)
{
    setState(id, final_state);
    const auto slot = std::find_if(
        pending_.begin(), pending_.end(),
        [id](const auto &p) { return p.first == id; });
    cosmos_assert(slot != pending_.end(),
                  "response with no pending access");
    DoneFn done = std::move(slot->second);
    *slot = std::move(pending_.back());
    pending_.pop_back();
    if (done)
        done();
}

void
CacheController::handleMessage(const Msg &m)
{
    if (m.id == no_block) {
        Msg known = m;
        known.id = blocks_.intern(m.block);
        handleMessage(known);
        return;
    }
    // Dispatch picks the declared row for the current line state,
    // the message type, and the guard bits derived from the message;
    // a stray response or a message no row covers panics inside
    // dispatch() with the offending (state, input, guard) triple.
    const TransitionRow &row = table_.dispatch(
        Role::cache, static_cast<std::uint8_t>(line(m.id)),
        static_cast<std::uint8_t>(m.type), cacheMsgGuard(m), node_);

    switch (row.action) {
      case ActionId::cache_accept_ro:
        acceptData(m, LineState::read_only);
        break;
      case ActionId::cache_accept_rw:
        acceptData(m, LineState::read_write);
        break;
      case ActionId::cache_accept_upgrade:
        complete(m.id, LineState::read_write);
        break;
      case ActionId::cache_invalidate_shared:
        invalidateShared(m);
        break;
      case ActionId::cache_demote_upgrade:
        demoteUpgrade(m);
        break;
      case ActionId::cache_ack_stale_inval:
        ackStaleInval(m);
        break;
      case ActionId::cache_surrender_exclusive:
        surrenderExclusive(m);
        break;
      case ActionId::cache_downgrade_line:
        downgradeLine(m);
        break;
      default:
        cosmos_panic("cache ", node_, " cannot run action ",
                     toString(row.action), " for ", m.format());
    }
}

void
CacheController::acceptData(const Msg &m, LineState final_state)
{
    // Forwarded three-hop data came straight from the former owner;
    // tell home it arrived so the directory entry can be released
    // (it queues later requests until then).
    if (m.forwarded)
        send(MsgType::fwd_ack, blocks_.home(m.id), m.block, m.id);
    complete(m.id, final_state);
}

void
CacheController::invalidateShared(const Msg &m)
{
    ++stats_.invalsReceived;
    // Fault injection (checker exercise): pretend to lose every Nth
    // invalidation -- ack home but keep the copy.
    if (cfg_.fault.ignoreInvalEvery != 0 &&
        ++ignoredInvalTick_ % cfg_.fault.ignoreInvalEvery == 0) {
        send(MsgType::inval_ro_response, m.src, m.block, m.id);
        return;
    }
    setState(m.id, LineState::invalid);
    send(MsgType::inval_ro_response, m.src, m.block, m.id);
}

void
CacheController::demoteUpgrade(const Msg &m)
{
    // Our shared copy is invalidated while our upgrade is queued at
    // the directory; the directory will answer the upgrade with
    // get_rw_response. Drop to wait_rw so that response is accepted.
    ++stats_.invalsReceived;
    setState(m.id, LineState::wait_rw);
    send(MsgType::inval_ro_response, m.src, m.block, m.id);
}

void
CacheController::ackStaleInval(const Msg &m)
{
    // With replacement, the directory's sharer list can be stale: we
    // silently dropped this copy (possibly re-fetching it already --
    // the directory serialized another writer first, so a queued
    // request of ours is answered afterwards). Just acknowledge.
    ++stats_.invalsReceived;
    ++stats_.staleInvals;
    send(MsgType::inval_ro_response, m.src, m.block, m.id);
}

void
CacheController::surrenderExclusive(const Msg &m)
{
    ++stats_.invalsReceived;
    setState(m.id, LineState::invalid);
    if (m.forwarded) {
        // Three-hop transfer: hand the data straight to the
        // requester, plus a revision message home. The response is
        // marked forwarded so the requester acknowledges home (the
        // legacy oracle omits the mark, and with it the fwd_ack --
        // reproducing the original race).
        send(m.wantWritable ? MsgType::get_rw_response
                            : MsgType::get_ro_response,
             m.requester, m.block, m.id, !cfg_.legacyForwarding);
    }
    send(MsgType::inval_rw_response, m.src, m.block, m.id);
}

void
CacheController::downgradeLine(const Msg &m)
{
    ++stats_.downgradesReceived;
    setState(m.id, LineState::read_only);
    if (m.forwarded)
        send(MsgType::get_ro_response, m.requester, m.block, m.id,
             !cfg_.legacyForwarding);
    send(MsgType::downgrade_response, m.src, m.block, m.id);
}

} // namespace cosmos::proto
