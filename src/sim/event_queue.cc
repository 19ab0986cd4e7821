#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "common/log.hh"
#include "obs/trace_event.hh"

namespace cosmos::sim
{

void
EventQueue::scheduleAt(Tick when, EventFn fn)
{
    cosmos_assert(when >= now_, "scheduling into the past: when=", when,
                  " now=", now_);
    cosmos_assert(static_cast<bool>(fn), "scheduling an empty event");
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = std::move(fn);
    }
    heap_.push_back(Key{when, nextSeq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), later);
    if (heap_.size() > maxPending_)
        maxPending_ = heap_.size();
}

void
EventQueue::scheduleAfter(Tick delay, EventFn fn)
{
    scheduleAt(now_ + delay, std::move(fn));
}

void
EventQueue::reserve(std::size_t n)
{
    heap_.reserve(n);
    slots_.reserve(n);
    freeSlots_.reserve(n);
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const Key top = heap_.back();
    heap_.pop_back();
    now_ = top.when;
    // Move the callback out and free its slot first: the handler may
    // schedule more events, which can reuse the slot or grow the slab.
    EventFn fn = std::move(slots_[top.slot]);
    freeSlots_.push_back(top.slot);
    ++executed_;
    fn();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    COSMOS_SPAN("sim", "EventQueue::run");
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

void
EventQueue::publishMetrics(obs::Registry &reg,
                           const std::string &prefix) const
{
    reg.counter(prefix + ".events_executed").add(executed_);
    auto &depth = reg.gauge(prefix + ".queue_depth");
    depth.set(static_cast<std::int64_t>(maxPending_));
    depth.set(static_cast<std::int64_t>(pending()));
}

} // namespace cosmos::sim
