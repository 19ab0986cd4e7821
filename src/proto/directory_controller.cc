#include "proto/directory_controller.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.hh"

namespace cosmos::proto
{

namespace
{

std::uint64_t
bit(NodeId n)
{
    return std::uint64_t{1} << n;
}

} // namespace

const char *
toString(DirState s)
{
    switch (s) {
      case DirState::idle:      return "idle";
      case DirState::shared:    return "shared";
      case DirState::exclusive: return "exclusive";
    }
    return "?";
}

DirectoryController::DirectoryController(NodeId node, const AddrMap &amap,
                                         const MachineConfig &cfg,
                                         const ProtocolTable &table,
                                         sim::EventQueue &eq, SendFn send)
    : node_(node), amap_(amap), cfg_(cfg), table_(table), eq_(eq),
      sendFn_(std::move(send))
{
    cosmos_assert(cfg.numNodes <= max_machine_nodes,
                  "full-map sharer bitmask supports at most 64 nodes");
}

DirGuardView
DirectoryController::guardView(const Entry &e)
{
    DirGuardView v;
    v.busy = e.busy;
    v.state = static_cast<std::uint8_t>(e.state);
    v.sharers = e.sharers;
    v.pendingAcks = e.pendingAcks;
    v.genuineUpgrade = e.genuineUpgrade;
    v.recall = e.recall;
    v.fwdData = e.fwdData;
    v.fwdAckPending = e.fwdAckPending;
    v.waitingEmpty = e.waiting.empty();
    v.currentType = e.current.type;
    return v;
}

DirectoryController::Entry &
DirectoryController::entry(Addr block)
{
    cosmos_assert(amap_.home(block) == node_, "block 0x", std::hex, block,
                  " is not homed at this directory");
    return entries_.obtain(block);
}

void
DirectoryController::enter(Entry &e, DirState st)
{
    if (e.state != st)
        ++stats_.stateEntries[static_cast<std::size_t>(st)];
    e.state = st;
}

DirState
DirectoryController::state(Addr block) const
{
    const Entry *e = entries_.find(block);
    return e == nullptr ? DirState::idle : e->state;
}

std::uint64_t
DirectoryController::sharers(Addr block) const
{
    const Entry *e = entries_.find(block);
    return e == nullptr ? 0 : e->sharers;
}

NodeId
DirectoryController::owner(Addr block) const
{
    const Entry *e = entries_.find(block);
    return e == nullptr ? invalid_node : e->owner;
}

bool
DirectoryController::busy(Addr block) const
{
    const Entry *e = entries_.find(block);
    return e != nullptr && e->busy;
}

void
DirectoryController::forEachEntry(
    const std::function<void(Addr, DirState, std::uint64_t, NodeId)> &fn)
    const
{
    entries_.forEach([&](Addr block, const Entry &e) {
        fn(block, e.state, e.sharers, e.owner);
    });
}

void
DirectoryController::snapshot(DirectorySnapshot &out) const
{
    // Overwrite out's entries in place, so their waiting vectors keep
    // their capacity across repeated snapshots.
    std::size_t used = 0;
    entries_.forEach([&](Addr block, const Entry &e) {
        // Idle quiescent entries are indistinguishable from absent
        // ones (state() and busy() default them); dropping them keeps
        // snapshots of equal states byte-equal.
        if (e.state == DirState::idle && !e.busy)
            return;
        if (used == out.entries.size())
            out.entries.emplace_back();
        DirEntrySnapshot &s = out.entries[used++];
        s.block = block;
        s.state = e.state;
        s.sharers = e.sharers;
        s.owner = e.owner;
        s.busy = e.busy;
        s.pendingAcks = e.pendingAcks;
        s.genuineUpgrade = e.genuineUpgrade;
        s.recall = e.recall;
        s.fwdData = e.fwdData;
        s.fwdAckPending = e.fwdAckPending;
        s.current = e.current;
        s.waiting = e.waiting;
    });
    out.entries.resize(used);
    std::sort(out.entries.begin(), out.entries.end(),
              [](const DirEntrySnapshot &a, const DirEntrySnapshot &b) {
                  return a.block < b.block;
              });
}

DirGuardView
DirectoryController::entryView(Addr block) const
{
    const Entry *e = entries_.find(block);
    if (e == nullptr || (e->state == DirState::idle && !e->busy))
        return DirGuardView{};
    return guardView(*e);
}

void
DirectoryController::restore(const DirectorySnapshot &s)
{
    // Reset every entry in place instead of clearing the table: an
    // idle quiescent entry reads as absent (see snapshot()), and the
    // entries and their waiting vectors keep their storage, so a
    // restore allocates nothing once the table has seen its blocks.
    entries_.forEach([](Addr, Entry &e) {
        std::vector<Msg> waiting = std::move(e.waiting);
        waiting.clear();
        e = Entry{};
        e.waiting = std::move(waiting);
    });
    for (const DirEntrySnapshot &es : s.entries) {
        Entry &e = entry(es.block);
        e.state = es.state;
        e.sharers = es.sharers;
        e.owner = es.owner;
        e.busy = es.busy;
        e.pendingAcks = es.pendingAcks;
        e.genuineUpgrade = es.genuineUpgrade;
        e.recall = es.recall;
        e.fwdData = es.fwdData;
        e.fwdAckPending = es.fwdAckPending;
        e.current = es.current;
        e.waiting = es.waiting;
    }
}

void
DirectoryController::respondAndFinish(MsgType t, NodeId dst, Addr block,
                                      bool from_memory)
{
    Msg m;
    m.type = t;
    m.src = node_;
    m.dst = dst;
    m.block = block;
    m.requester = dst;
    const Tick delay = cfg_.protocolOccupancy +
                       (from_memory ? cfg_.memoryLatency : 0);
    eq_.scheduleAfter(delay, [this, m]() {
        sendFn_(m);
        finish(m.block);
    });
}

void
DirectoryController::forward(MsgType t, NodeId dst, Addr block,
                             NodeId requester, bool want_writable)
{
    Msg m;
    m.type = t;
    m.src = node_;
    m.dst = dst;
    m.block = block;
    m.requester = requester;
    // Voluntary recalls (requester == owner) are never forwarded:
    // there is no third party to answer. inval_ro_request sweeps are
    // never forwarded either -- the home itself holds the data while
    // the block is shared, so the requester is answered from home
    // (the transition-table lint asserts this asymmetry).
    bool fwd = cfg_.forwarding && requester != dst &&
               (t == MsgType::inval_rw_request ||
                t == MsgType::downgrade_request);
    if (fwd && cfg_.forwardingPredicted && speculation_ &&
        !speculation_->forwardOwnerTransfer(block, dst, requester,
                                            want_writable)) {
        // Predictor expects someone other than the requester to need
        // the block next: keep the data flowing through home.
        ++stats_.forwardsSuppressed;
        fwd = false;
    }
    Entry &e = entry(block);
    e.fwdData = fwd;
    // The fwd_ack handshake closes the forwarded transfer; the legacy
    // (pre-fix) protocol skips it and releases the entry on the
    // owner's revision message alone -- the original race.
    e.fwdAckPending = fwd && !cfg_.legacyForwarding;
    if (fwd)
        ++stats_.forwardsSent;
    m.forwarded = fwd;
    m.wantWritable = want_writable;
    eq_.scheduleAfter(cfg_.protocolOccupancy,
                      [this, m]() { sendFn_(m); });
}

void
DirectoryController::handleMessage(const Msg &m)
{
    // Dispatch picks the declared row for the entry's abstract phase,
    // the message type, and the guard bits derived from the entry; a
    // stray response or a message no row covers panics inside
    // dispatch() with the offending (phase, input, guard) triple.
    Entry &e = entry(m.block);
    const DirGuardView view = guardView(e);
    const TransitionRow &row = table_.dispatch(
        Role::directory, static_cast<std::uint8_t>(dirPhaseOf(view)),
        static_cast<std::uint8_t>(m.type),
        dirMsgGuard(view, m.type, m.src), node_);

    switch (row.action) {
      case ActionId::dir_queue_request:
        ++stats_.requests;
        ++stats_.queued;
        e.waiting.push_back(m);
        break;

      case ActionId::dir_serve_read:
      case ActionId::dir_serve_write:
      case ActionId::dir_serve_upgrade:
      case ActionId::dir_promote_upgrade:
        ++stats_.requests;
        e.busy = true;
        serve(m);
        break;

      case ActionId::dir_inval_ack:
        onInvalAck(e, m);
        break;
      case ActionId::dir_revision:
        onRevision(e, m);
        break;
      case ActionId::dir_downgrade_ack:
        onDowngradeAck(e, m);
        break;
      case ActionId::dir_fwd_ack:
        onFwdAck(e, m);
        break;

      default:
        cosmos_panic("directory ", node_, " cannot run action ",
                     toString(row.action), " for ", m.format());
    }
}

void
DirectoryController::onInvalAck(Entry &e, const Msg &m)
{
    cosmos_assert(e.busy && e.pendingAcks > 0,
                  "stray inval_ro_response at directory ", node_);
    e.sharers &= ~bit(m.src);
    if (--e.pendingAcks == 0) {
        // All shared copies gone; grant exclusivity.
        const Msg &req = e.current;
        enter(e, DirState::exclusive);
        e.sharers = 0;
        e.owner = req.src;
        respondAndFinish(e.genuineUpgrade ? MsgType::upgrade_response
                                          : MsgType::get_rw_response,
                         req.src, m.block, !e.genuineUpgrade);
    }
}

void
DirectoryController::onRevision(Entry &e, const Msg &m)
{
    cosmos_assert(e.busy && e.pendingAcks == 1,
                  "stray inval_rw_response at directory ", node_);
    e.pendingAcks = 0;
    if (e.recall) {
        // Voluntary recall completed: the data is home, nobody
        // holds a copy, and there is no requester to answer.
        e.recall = false;
        enter(e, DirState::idle);
        e.sharers = 0;
        e.owner = invalid_node;
        finish(m.block);
        return;
    }
    const Msg &req = e.current;
    if (e.fwdData) {
        // The former owner already answered the requester
        // directly (three-hop transfer); just settle the state.
        if (req.type == MsgType::get_ro_request) {
            enter(e, DirState::shared);
            e.sharers = bit(req.src);
            e.owner = invalid_node;
        } else {
            enter(e, DirState::exclusive);
            e.sharers = 0;
            e.owner = req.src;
        }
        if (e.fwdAckPending) {
            // Stay busy until the requester's fwd_ack confirms
            // the forwarded data arrived; releasing now would let
            // a queued request's invalidation race the owner's
            // direct reply to the requester.
            return;
        }
        e.fwdData = false;
        finish(m.block);
        return;
    }
    if (req.type == MsgType::get_ro_request) {
        if (speculation_ &&
            speculation_->grantExclusiveOnRead(m.block, req.src)) {
            // Predicted read-modify-write: hand the reader an
            // exclusive copy (§4.1).
            ++stats_.exclusiveGrants;
            enter(e, DirState::exclusive);
            e.sharers = 0;
            e.owner = req.src;
            respondAndFinish(MsgType::get_rw_response, req.src,
                             m.block, false);
            return;
        }
        // Half-migratory: former owner invalidated; only the
        // reader holds a copy now.
        enter(e, DirState::shared);
        e.sharers = bit(req.src);
        e.owner = invalid_node;
        respondAndFinish(MsgType::get_ro_response, req.src, m.block,
                         false);
    } else {
        enter(e, DirState::exclusive);
        e.sharers = 0;
        e.owner = req.src;
        respondAndFinish(MsgType::get_rw_response, req.src, m.block,
                         false);
    }
}

void
DirectoryController::onDowngradeAck(Entry &e, const Msg &m)
{
    cosmos_assert(e.busy && e.pendingAcks == 1,
                  "stray downgrade_response at directory ", node_);
    cosmos_assert(e.current.type == MsgType::get_ro_request,
                  "downgrade_response outside a read transaction");
    e.pendingAcks = 0;
    const Msg &req = e.current;
    enter(e, DirState::shared);
    e.sharers = bit(m.src) | bit(req.src);
    e.owner = invalid_node;
    if (e.fwdData) {
        // Former owner already sent the data to the reader.
        if (e.fwdAckPending)
            return; // wait for the reader's fwd_ack
        e.fwdData = false;
        finish(m.block);
        return;
    }
    respondAndFinish(MsgType::get_ro_response, req.src, m.block,
                     false);
}

void
DirectoryController::onFwdAck(Entry &e, const Msg &m)
{
    cosmos_assert(e.busy && e.fwdAckPending,
                  "stray fwd_ack at directory ", node_);
    cosmos_assert(m.src == e.current.src, "fwd_ack from node ", m.src,
                  " but the transaction's requester is ",
                  e.current.src);
    ++stats_.fwdAcks;
    e.fwdAckPending = false;
    if (e.pendingAcks == 0) {
        // The owner's revision message already settled the entry;
        // the ack was the last outstanding leg.
        e.fwdData = false;
        finish(m.block);
    }
    // Otherwise the ack overtook the owner's revision message
    // (independent channels); the inval_rw_response /
    // downgrade_response handler will settle state and finish.
}

void
DirectoryController::serve(const Msg &m)
{
    Entry &e = entry(m.block);
    cosmos_assert(e.busy, "serve() without busy entry");
    e.current = m;
    e.genuineUpgrade = false;
    e.pendingAcks = 0;
    e.fwdData = false;
    e.fwdAckPending = false;

    // Backlogged requests were dispatched as dir_queue_request on
    // arrival; re-dispatch against the quiescent entry state to pick
    // the serving row (the entry is busy on this request's own
    // behalf, so the queued guard no longer applies). Arrival-time
    // serves re-dispatch to the same row they arrived on.
    DirGuardView view = guardView(e);
    view.busy = false;
    const TransitionRow &row = table_.dispatch(
        Role::directory, static_cast<std::uint8_t>(dirPhaseOf(view)),
        static_cast<std::uint8_t>(m.type),
        dirMsgGuard(view, m.type, m.src), node_);

    switch (row.action) {
      case ActionId::dir_serve_read:
        serveRead(e, m);
        break;
      case ActionId::dir_serve_write:
        serveWrite(e, m, false);
        break;
      case ActionId::dir_serve_upgrade:
        serveWrite(e, m, true);
        break;
      case ActionId::dir_promote_upgrade:
        // The requester's shared copy was invalidated while this
        // upgrade was in flight; promote to a full write fetch.
        ++stats_.upgradePromotions;
        serveWrite(e, m, false);
        break;
      default:
        cosmos_panic("serve() on non-request ", m.format());
    }
}

void
DirectoryController::serveRead(Entry &e, const Msg &m)
{
    switch (e.state) {
      case DirState::idle:
        if (speculation_ &&
            speculation_->grantExclusiveOnRead(m.block, m.src)) {
            // Predicted read-modify-write on an idle block (§4.1).
            ++stats_.exclusiveGrants;
            enter(e, DirState::exclusive);
            e.owner = m.src;
            respondAndFinish(MsgType::get_rw_response, m.src, m.block,
                             true);
            break;
        }
        enter(e, DirState::shared);
        e.sharers = bit(m.src);
        respondAndFinish(MsgType::get_ro_response, m.src, m.block,
                         true);
        break;

      case DirState::shared:
        e.sharers |= bit(m.src);
        respondAndFinish(MsgType::get_ro_response, m.src, m.block,
                         true);
        break;

      case DirState::exclusive:
        cosmos_assert(e.owner != m.src,
                      "owner read-missed its own exclusive block");
        if (cfg_.ownerReadPolicy == OwnerReadPolicy::half_migratory) {
            ++stats_.invalsSent;
            e.pendingAcks = 1;
            forward(MsgType::inval_rw_request, e.owner, m.block,
                    m.src, false);
        } else {
            ++stats_.downgradesSent;
            e.pendingAcks = 1;
            forward(MsgType::downgrade_request, e.owner, m.block,
                    m.src, false);
        }
        break;
    }
}

void
DirectoryController::serveWrite(Entry &e, const Msg &m,
                                bool genuine_upgrade)
{
    e.genuineUpgrade = genuine_upgrade;
    switch (e.state) {
      case DirState::idle:
        enter(e, DirState::exclusive);
        e.owner = m.src;
        respondAndFinish(MsgType::get_rw_response, m.src, m.block,
                         true);
        break;

      case DirState::shared: {
        // A get_rw_request from a node still in the sharer list
        // means the cache silently dropped its copy (replacement
        // mode): the stale sharer bit is simply cleared.
        cosmos_assert(genuine_upgrade || !(e.sharers & bit(m.src)) ||
                          cfg_.cacheCapacityBlocks != 0,
                      "get_rw_request from a live sharer");
        e.sharers &= genuine_upgrade ? ~std::uint64_t{0}
                                     : ~bit(m.src);
        const std::uint64_t others = e.sharers & ~bit(m.src);
        if (others == 0) {
            // Upgrade with no other sharers: grant immediately.
            enter(e, DirState::exclusive);
            e.sharers = 0;
            e.owner = m.src;
            respondAndFinish(genuine_upgrade
                                 ? MsgType::upgrade_response
                                 : MsgType::get_rw_response,
                             m.src, m.block, !genuine_upgrade);
            break;
        }
        for (NodeId n = 0; n < cfg_.numNodes; ++n) {
            if (others & bit(n)) {
                ++stats_.invalsSent;
                ++e.pendingAcks;
                forward(MsgType::inval_ro_request, n, m.block, m.src,
                        false);
            }
        }
        break;
      }

      case DirState::exclusive:
        cosmos_assert(e.owner != m.src,
                      "owner write-missed its own exclusive block");
        ++stats_.invalsSent;
        e.pendingAcks = 1;
        forward(MsgType::inval_rw_request, e.owner, m.block, m.src,
                true);
        break;
    }
}

bool
DirectoryController::voluntaryRecall(Addr block)
{
    Entry *found = entries_.find(block);
    if (found == nullptr)
        return false;
    Entry &e = *found;
    if (e.busy || e.state != DirState::exclusive)
        return false;
    e.busy = true;
    e.recall = true;
    e.pendingAcks = 1;
    ++stats_.recalls;
    ++stats_.invalsSent;
    forward(MsgType::inval_rw_request, e.owner, block, e.owner,
            false);
    return true;
}

void
DirectoryController::finish(Addr block)
{
    Entry &e = entry(block);
    cosmos_assert(e.busy, "finish() on idle entry");
    cosmos_assert(!e.fwdAckPending,
                  "finish() while a fwd_ack is outstanding");
    if (e.waiting.empty()) {
        e.busy = false;
        return;
    }
    Msg next = e.waiting.front();
    e.waiting.erase(e.waiting.begin());
    // Stay busy; serve the queued request after the handler occupancy.
    eq_.scheduleAfter(cfg_.protocolOccupancy,
                      [this, next]() { serve(next); });
}

} // namespace cosmos::proto
