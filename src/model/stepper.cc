#include "model/stepper.hh"

#include "common/log.hh"

namespace cosmos::model
{

Stepper::Stepper(const ModelConfig &mc)
    : mc_(mc), cfg_(mc.machineConfig()),
      amap_(cfg_.blockBytes, cfg_.pageBytes, cfg_.numNodes),
      blocks_(amap_), table_(proto::ProtocolTable::build(cfg_))
{
    mc_.validate();
    auto capture = [this](const proto::Msg &m) {
        captured_.push_back(m);
    };
    caches_.reserve(cfg_.numNodes);
    dirs_.reserve(cfg_.numNodes);
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        caches_.push_back(std::make_unique<proto::CacheController>(
            n, amap_, cfg_, table_, blocks_, eq_, capture));
        dirs_.push_back(std::make_unique<proto::DirectoryController>(
            n, cfg_, table_, blocks_, eq_, capture));
    }
    stale_ = (1u << 2 * cfg_.numNodes) - 1; // nothing loaded yet
}

unsigned
Stepper::blockIdx(Addr block) const
{
    const unsigned b = static_cast<unsigned>(block / cfg_.pageBytes);
    cosmos_assert(b < mc_.numBlocks && mc_.blockAddr(b) == block,
                  "address 0x", std::hex, block,
                  " is not a modeled block");
    return b;
}

proto::Msg
Stepper::toMsg(const CompactMsg &m) const
{
    proto::Msg r;
    r.type = m.type;
    r.src = m.src;
    r.dst = m.dst;
    r.block = mc_.blockAddr(m.blockIdx);
    r.id = blocks_.find(r.block);
    r.requester = m.requester == no_node ? invalid_node
                                         : NodeId{m.requester};
    r.forwarded = m.forwarded;
    r.wantWritable = m.wantWritable;
    return r;
}

CompactMsg
Stepper::fromMsg(const proto::Msg &m) const
{
    CompactMsg r;
    r.type = m.type;
    r.src = static_cast<std::uint8_t>(m.src);
    r.dst = static_cast<std::uint8_t>(m.dst);
    r.requester = m.requester == invalid_node
                      ? no_node
                      : static_cast<std::uint8_t>(m.requester);
    r.blockIdx = static_cast<std::uint8_t>(blockIdx(m.block));
    r.forwarded = m.forwarded;
    r.wantWritable = m.wantWritable;
    return r;
}

std::uint32_t
Stepper::bit(NodeId n, Module m)
{
    return 1u << (2 * n + (m == Module::directory ? 1 : 0));
}

void
Stepper::load(const GlobalState &s)
{
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        if ((stale_ & bit(n, Module::cache)) || !holdsCache(s, n))
            restoreCache(s, n);
        if ((stale_ & bit(n, Module::directory)) || !holdsDirectory(s, n))
            restoreDirectory(s, n);
    }
}

bool
Stepper::holdsCache(const GlobalState &s, NodeId n) const
{
    return s.line[n] == loaded_.line[n] &&
           s.invalResidue[n] == loaded_.invalResidue[n];
}

bool
Stepper::holdsDirectory(const GlobalState &s, NodeId n) const
{
    for (unsigned b = n; b < mc_.numBlocks; b += cfg_.numNodes)
        if (!(s.dir[b] == loaded_.dir[b]))
            return false;
    return true;
}

void
Stepper::restoreCache(const GlobalState &s, NodeId n)
{
    cacheScratch_.lines.clear();
    for (unsigned b = 0; b < mc_.numBlocks; ++b) {
        const auto st = static_cast<proto::LineState>(s.line[n][b]);
        if (st != proto::LineState::invalid)
            cacheScratch_.lines.emplace_back(mc_.blockAddr(b), st);
    }
    cacheScratch_.invalResidue = s.invalResidue[n];
    caches_[n]->restore(cacheScratch_);

    loaded_.line[n] = s.line[n];
    loaded_.invalResidue[n] = s.invalResidue[n];
    stale_ &= ~bit(n, Module::cache);
}

void
Stepper::restoreDirectory(const GlobalState &s, NodeId n)
{
    // Fill the scratch entries in place so their waiting vectors
    // keep their capacity from step to step.
    std::size_t used = 0;
    for (unsigned b = n; b < mc_.numBlocks; b += cfg_.numNodes) {
        const DirEntryState &e = s.dir[b];
        loaded_.dir[b] = e;
        if (e.state == proto::DirState::idle && !e.busy)
            continue;
        if (used == dirScratch_.entries.size())
            dirScratch_.entries.emplace_back();
        proto::DirEntrySnapshot &es = dirScratch_.entries[used++];
        es.block = mc_.blockAddr(b);
        es.state = e.state;
        es.sharers = e.sharers;
        es.owner = e.owner == no_node ? invalid_node : NodeId{e.owner};
        es.busy = e.busy;
        es.pendingAcks = e.pendingAcks;
        es.genuineUpgrade = e.genuineUpgrade;
        es.recall = e.recall;
        es.fwdData = e.fwdData;
        es.fwdAckPending = e.fwdAckPending;
        es.current = toMsg(e.current);
        es.waiting.clear();
        for (unsigned i = 0; i < e.waiting.count; ++i)
            es.waiting.push_back(toMsg(e.waiting.items[i]));
    }
    dirScratch_.entries.resize(used);
    dirs_[n]->restore(dirScratch_);
    stale_ &= ~bit(n, Module::directory);
}

void
Stepper::readBackCache(NodeId n, GlobalState &out)
{
    for (unsigned b = 0; b < mc_.numBlocks; ++b)
        out.line[n][b] = static_cast<std::uint8_t>(proto::LineState::invalid);
    caches_[n]->snapshot(cacheScratch_);
    for (const auto &[block, st] : cacheScratch_.lines)
        out.line[n][blockIdx(block)] = static_cast<std::uint8_t>(st);
    out.invalResidue[n] =
        static_cast<std::uint8_t>(cacheScratch_.invalResidue);
}

void
Stepper::readBackDirectory(NodeId n, GlobalState &out)
{
    dirs_[n]->snapshot(dirScratch_);
    for (unsigned b = n; b < mc_.numBlocks; b += cfg_.numNodes)
        out.dir[b] = DirEntryState{};
    for (const proto::DirEntrySnapshot &es : dirScratch_.entries) {
        DirEntryState &e = out.dir[blockIdx(es.block)];
        e.state = es.state;
        e.sharers = static_cast<std::uint8_t>(es.sharers);
        e.owner = es.owner == invalid_node
                      ? no_node
                      : static_cast<std::uint8_t>(es.owner);
        e.busy = es.busy;
        // Normalize fields that are only meaningful while the entry
        // is mid-transaction: the live controller leaves the last
        // transaction's request behind, and carrying it into the
        // encoding would split identical protocol states.
        if (es.busy) {
            e.pendingAcks = static_cast<std::uint8_t>(es.pendingAcks);
            e.genuineUpgrade = es.genuineUpgrade;
            e.recall = es.recall;
            e.fwdData = es.fwdData;
            e.fwdAckPending = es.fwdAckPending;
            if (!es.recall)
                e.current = fromMsg(es.current);
        }
        for (const proto::Msg &w : es.waiting)
            e.waiting.push(fromMsg(w));
    }
}

void
Stepper::touch(NodeId n, Module m)
{
    touched_ |= bit(n, m);
    stale_ |= bit(n, m);
}

void
Stepper::drainInto(Sample &sample, GlobalState &work, NodeId handled)
{
    while (eq_.pending())
        eq_.runOne();
    for (const proto::Msg &m : captured_) {
        cosmos_assert(m.src == handled,
                      "message emitted by a module other than the "
                      "handled one: ",
                      m.format());
        sample.emit(m.type);
        if (m.src == m.dst)
            worklist_.push_back(m);
        else
            work.channel(m.src, m.dst).push(fromMsg(m));
    }
    captured_.clear();
}

void
Stepper::runCascade(Result &out)
{
    GlobalState &work = out.next;
    for (std::size_t at = 0; at < worklist_.size();) {
        const proto::Msg m = worklist_[at++];
        Sample sample;
        sample.input = static_cast<std::uint8_t>(m.type);
        if (receiverRole(m.type) == proto::Role::cache) {
            sample.module = Module::cache;
            touch(m.dst, Module::cache);
            sample.pre = static_cast<std::uint8_t>(
                caches_[m.dst]->state(m.block));
            // The guard bits are exactly what the controller's own
            // dispatch derives (the forwarded mark and, for recalls,
            // the wanted copy kind -- message state, not cache state);
            // their canonical rendering is the sample context, so the
            // extracted rows stay deterministic and the consistency
            // diff can match samples back to declared rows.
            sample.guard = proto::cacheMsgGuard(m);
            sample.row = table_.find(proto::Role::cache, sample.pre,
                                     sample.input, sample.guard);
            caches_[m.dst]->handleMessage(m);
            drainInto(sample, work, m.dst);
            sample.post = static_cast<std::uint8_t>(
                caches_[m.dst]->state(m.block));
        } else {
            sample.module = Module::directory;
            touch(m.dst, Module::directory);
            const proto::DirGuardView pre = dirs_[m.dst]->entryView(m.block);
            sample.pre = static_cast<std::uint8_t>(proto::dirPhaseOf(pre));
            // Same single source of truth as the cache branch: the
            // guard predicates over the directory's hidden state (ack
            // counts, the genuineUpgrade latch, forward-in-flight
            // flags, the FIFO backlog) live in dirMsgGuard.
            sample.guard = proto::dirMsgGuard(pre, m.type, m.src);
            sample.row = table_.find(proto::Role::directory,
                                     sample.pre, sample.input,
                                     sample.guard);
            dirs_[m.dst]->handleMessage(m);
            drainInto(sample, work, m.dst);
            sample.post = static_cast<std::uint8_t>(
                proto::dirPhaseOf(dirs_[m.dst]->entryView(m.block)));
        }
        out.samples.push_back(sample);
    }
}

void
Stepper::step(const GlobalState &s, const Action &a, Result &out)
{
    out.failed = false;
    out.failureMsg.clear();
    out.samples.clear();

    load(s);
    captured_.clear();
    worklist_.clear();
    touched_ = 0;

    GlobalState &work = out.next;
    work = s;

    FailureTrap trap;
    try {
        if (a.kind == Action::Kind::deliver) {
            const CompactMsg taken =
                work.channel(a.src, a.dst).takeAt(a.depth);
            cosmos_assert(taken == a.msg,
                          "deliver action does not match the channel "
                          "contents");
            worklist_.push_back(toMsg(taken));
        } else {
            const bool write = a.kind == Action::Kind::issue_write;
            const Addr addr = mc_.blockAddr(a.blockIdx);
            Sample sample;
            sample.module = Module::cache;
            sample.input = write ? input_proc_write : input_proc_read;
            touch(a.node, Module::cache);
            sample.pre = static_cast<std::uint8_t>(
                caches_[a.node]->state(addr));
            sample.row =
                table_.find(proto::Role::cache, sample.pre,
                            sample.input, proto::guard_none);
            caches_[a.node]->access(addr, write, []() {});
            drainInto(sample, work, a.node);
            sample.post = static_cast<std::uint8_t>(
                caches_[a.node]->state(addr));
            out.samples.push_back(sample);
        }
        runCascade(out);
        for (NodeId n = 0; n < cfg_.numNodes; ++n) {
            if (touched_ & bit(n, Module::cache))
                readBackCache(n, work);
            if (touched_ & bit(n, Module::directory))
                readBackDirectory(n, work);
        }
    } catch (const RecoverableError &e) {
        out.failed = true;
        out.failureMsg = detail::concat(e.what(), " (", e.file(), ":",
                                        e.line(), ")");
        // Discard leftover scheduled events so the next step starts
        // from a clean queue; running them against half-mutated
        // controllers may fail again, which is fine -- they are being
        // thrown away.
        while (eq_.pending()) {
            try {
                eq_.runOne();
            } catch (const RecoverableError &) {
            }
        }
        captured_.clear();
    }
}

} // namespace cosmos::model
