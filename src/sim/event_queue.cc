#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/log.hh"
#include "obs/trace_event.hh"

namespace cosmos::sim
{

std::uint32_t
EventQueue::allocate(EventFn fn)
{
    std::uint32_t slot;
    if (freeHead_ == no_slot) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(Slot{std::move(fn)});
    } else {
        slot = freeHead_;
        freeHead_ = slots_[slot].next;
        slots_[slot].fn = std::move(fn);
        slots_[slot].next = no_slot;
    }
    return slot;
}

void
EventQueue::scheduleAt(Tick when, EventFn fn)
{
    cosmos_assert(when >= now_, "scheduling into the past: when=", when,
                  " now=", now_);
    cosmos_assert(static_cast<bool>(fn), "scheduling an empty event");
    const std::uint32_t slot = allocate(std::move(fn));
    if (when - now_ < wheel_size) {
        const std::size_t b = when & wheel_mask;
        std::uint64_t &word = occupied_[b / 64];
        const std::uint64_t bit = std::uint64_t{1} << (b % 64);
        if (word & bit) {
            slots_[wheel_[b].tail].next = slot;
            wheel_[b].tail = slot;
        } else {
            word |= bit;
            wheel_[b] = Bucket{slot, slot};
        }
        ++wheelPending_;
    } else {
        overflow_.push_back(Key{when, overflowSeq_++, slot});
        std::push_heap(overflow_.begin(), overflow_.end(), later);
    }
    maxPending_ = std::max(maxPending_, pending());
}

void
EventQueue::scheduleAfter(Tick delay, EventFn fn)
{
    scheduleAt(now_ + delay, std::move(fn));
}

void
EventQueue::reserve(std::size_t n)
{
    slots_.reserve(n);
}

std::size_t
EventQueue::nextBucket() const
{
    const std::size_t start = now_ & wheel_mask;
    std::size_t w = start / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
    // At most one full turn: the last word visited is the first one
    // again, whose bits below start are ticks a whole turn ahead.
    for (std::size_t i = 0; bits == 0 && i < bitmap_words; ++i) {
        w = (w + 1) % bitmap_words;
        bits = occupied_[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

bool
EventQueue::runOne()
{
    if (pending() == 0)
        return false;
    std::uint32_t slot;
    Tick when = 0;
    std::size_t b = 0;
    if (wheelPending_ != 0) {
        b = nextBucket();
        when = now_ + ((b - now_) & wheel_mask);
    }
    // At equal ticks the overflow events go first (see the header).
    if (!overflow_.empty() &&
        (wheelPending_ == 0 || overflow_.front().when <= when)) {
        std::pop_heap(overflow_.begin(), overflow_.end(), later);
        when = overflow_.back().when;
        slot = overflow_.back().slot;
        overflow_.pop_back();
    } else {
        slot = wheel_[b].head;
        const std::uint32_t next = slots_[slot].next;
        if (next == no_slot)
            occupied_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
        else
            wheel_[b].head = next;
        --wheelPending_;
    }
    now_ = when;
    // Move the callback out and free its slot first: the handler may
    // schedule more events, which can reuse the slot or grow the slab.
    EventFn fn = std::move(slots_[slot].fn);
    slots_[slot].next = freeHead_;
    freeHead_ = slot;
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
