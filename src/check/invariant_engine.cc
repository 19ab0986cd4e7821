#include "check/invariant_engine.hh"

#include <sstream>

#include "check/coherence.hh"
#include "obs/trace_event.hh"

namespace cosmos::check
{

InvariantEngine::InvariantEngine(proto::Machine &machine,
                                 CheckOptions opts)
    : machine_(machine), opts_(opts)
{
    machine_.setDeliveryProbe(
        [this](const proto::Msg &m, bool, Tick when) {
            onDelivered(m, when);
        });
}

InvariantEngine::~InvariantEngine()
{
    machine_.setDeliveryProbe(nullptr);
}

std::vector<std::string>
InvariantEngine::historySnapshot() const
{
    return {history_.begin(), history_.end()};
}

void
InvariantEngine::report(Violation v)
{
    if (violations_.size() >= opts_.maxViolations) {
        ++suppressed_;
        return;
    }
    v.history = historySnapshot();
    COSMOS_INSTANT("check", "violation", "block",
                   static_cast<std::uint64_t>(v.block));
    violations_.push_back(std::move(v));
}

void
InvariantEngine::noteFailure(const RecoverableError &e)
{
    Violation v;
    v.kind = ViolationKind::assertion;
    v.when = machine_.eventQueue().now();
    std::ostringstream os;
    os << e.what() << " (" << e.file() << ":" << e.line() << ")";
    v.detail = os.str();
    report(std::move(v));
}

void
InvariantEngine::onDelivered(const proto::Msg &m, Tick when)
{
    ++delivered_;

    std::ostringstream os;
    os << "t=" << when << " " << m.format();
    history_.push_back(os.str());
    while (history_.size() > opts_.historyDepth)
        history_.pop_front();

    // Message conservation: per block, every delivered response must
    // answer a previously delivered request. fwd_ack is exempt: it
    // answers no request -- it is the requester's receipt for the
    // forwarded data response, closing a handshake the request
    // counter does not model.
    if (m.type == proto::MsgType::fwd_ack) {
        if (opts_.perMessage)
            checkBlock(m.block, when);
        if ((delivered_ & 1023) == 0)
            scanPendingWindows(when);
        return;
    }
    auto it = flights_.try_emplace(m.block).first;
    Flight &f = it->second;
    if (proto::isRequest(m.type)) {
        if (f.outstanding == 0) {
            f.since = when;
            f.reportedStuck = false;
        }
        ++f.outstanding;
    } else {
        --f.outstanding;
        if (f.outstanding < 0) {
            Violation v;
            v.kind = ViolationKind::conservation;
            v.block = m.block;
            v.nodes = {m.src, m.dst};
            v.when = when;
            v.detail = std::string("response ") +
                       proto::toString(m.type) +
                       " delivered with no outstanding request for "
                       "the block";
            report(std::move(v));
            f.outstanding = 0;
        }
        if (f.outstanding == 0)
            flights_.erase(it);
    }

    if (opts_.perMessage)
        checkBlock(m.block, when);

    // Amortized liveness scan: stuck transactions produce no further
    // deliveries of their own, so piggyback on overall progress.
    if ((delivered_ & 1023) == 0)
        scanPendingWindows(when);
}

void
InvariantEngine::scanPendingWindows(Tick when)
{
    for (auto &[block, f] : flights_) {
        if (f.outstanding > 0 && !f.reportedStuck &&
            when > f.since && when - f.since > opts_.maxPendingWindow) {
            f.reportedStuck = true;
            Violation v;
            v.kind = ViolationKind::liveness;
            v.block = block;
            v.when = when;
            std::ostringstream os;
            os << f.outstanding << " request(s) outstanding since t="
               << f.since << " (window " << opts_.maxPendingWindow
               << " ticks exceeded)";
            v.detail = os.str();
            report(std::move(v));
        }
    }
}

void
InvariantEngine::checkBlock(Addr block, Tick when)
{
    scratch_.clear();
    checkBlockCoherence(machine_, block, when, scratch_);
    for (auto &v : scratch_)
        report(std::move(v));
}

void
InvariantEngine::checkQuiescent()
{
    for (auto &v : checkCoherence(machine_))
        report(std::move(v));

    const Tick when = machine_.eventQueue().now();
    for (const auto &[block, f] : flights_) {
        if (f.outstanding == 0)
            continue;
        Violation v;
        v.kind = ViolationKind::conservation;
        v.block = block;
        v.when = when;
        std::ostringstream os;
        os << f.outstanding
           << " request(s) never answered (outstanding since t="
           << f.since << ")";
        v.detail = os.str();
        report(std::move(v));
    }
}

} // namespace cosmos::check
