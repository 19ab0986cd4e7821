/**
 * @file
 * Deterministic discrete-event simulation core.
 *
 * This is the substrate standing in for the Wisconsin Wind Tunnel II:
 * every timed behaviour in the simulated machine (network delivery,
 * protocol occupancy, memory latency, processor progress) is an event
 * on this queue. Events at equal ticks fire in schedule order, which
 * makes whole-machine runs bit-reproducible.
 *
 * Scheduling never touches the heap allocator once the queue has
 * grown to its working size: callbacks hold their captures inline
 * (EventFn), live in a slab whose freed slots are reused, and the
 * priority heap orders small {when, seq, slot} keys only.
 */

#ifndef COSMOS_SIM_EVENT_QUEUE_HH
#define COSMOS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "obs/metrics.hh"

namespace cosmos::sim
{

/**
 * Move-only `void()` callable that stores its capture inline.
 *
 * A capture larger than `capacity` bytes or aligned beyond 8 is a
 * compile error, never a heap fallback: every event callback in the
 * simulator fits, and one that stops fitting should be noticed.
 * Call, move and destroy go through one per-type ops table, so an
 * EventFn is the buffer plus one pointer. Moves are noexcept: a
 * capture that can only be copied (say, a const member) is copied,
 * and a copy that throws terminates.
 */
class EventFn
{
  public:
    static constexpr std::size_t capacity = 48;

    EventFn() noexcept = default;

    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                       std::is_invocable_r_v<void, D &>>>
    EventFn(F &&f) // NOLINT(google-explicit-constructor)
    {
        static_assert(sizeof(D) <= capacity,
                      "event capture exceeds EventFn's inline buffer");
        static_assert(alignof(D) <= 8,
                      "event capture is over-aligned for EventFn");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        ops_ = &opsFor<D>;
    }

    EventFn(EventFn &&other) noexcept : ops_(other.ops_)
    {
        if (ops_ != nullptr) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.ops_ != nullptr) {
                other.ops_->relocate(buf_, other.buf_);
                ops_ = std::exchange(other.ops_, nullptr);
            }
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() { ops_->call(buf_); }

  private:
    struct Ops
    {
        void (*call)(void *self);
        /** Move-construct into @p dst from @p src, destroying @p src. */
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *self);
    };

    template <class D>
    static constexpr Ops opsFor{
        [](void *self) { (*static_cast<D *>(self))(); },
        [](void *dst, void *src) {
            D *from = static_cast<D *>(src);
            ::new (dst) D(std::move(*from));
            from->~D();
        },
        [](void *self) { static_cast<D *>(self)->~D(); },
    };

    void
    reset()
    {
        if (ops_ != nullptr)
            std::exchange(ops_, nullptr)->destroy(buf_);
    }

    alignas(8) unsigned char buf_[capacity];
    const Ops *ops_ = nullptr;
};

static_assert(sizeof(EventFn) == EventFn::capacity + sizeof(void *));

/**
 * A time-ordered queue of callback events.
 *
 * Ties at the same tick break by schedule order (FIFO), so a run is a
 * pure function of the schedule calls made into it.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void scheduleAt(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void scheduleAfter(Tick delay, EventFn fn);

    /** Pre-size the heap and the callback slab for @p n pending
     *  events. */
    void reserve(std::size_t n);

    /** Fire the earliest event. @return false if the queue was empty. */
    bool runOne();

    /**
     * Run until the queue drains or @p max_events fire.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /** Number of events currently pending. */
    std::size_t pending() const { return heap_.size(); }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /** High-water mark of pending events (queue depth). */
    std::size_t maxPending() const { return maxPending_; }

    /** Publish execution counters under "<prefix>." (e.g.
     *  "sim.events_executed"). All values are deterministic. */
    void publishMetrics(obs::Registry &reg,
                        const std::string &prefix = "sim") const;

  private:
    /** Heap key; the callback lives in slots_[slot]. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Heap order: the earliest (when, seq) is on top. */
    static bool
    later(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    std::vector<Key> heap_;
    /** Callback slab; a slot is empty while on the free list. */
    std::vector<EventFn> slots_;
    std::vector<std::uint32_t> freeSlots_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t maxPending_ = 0;
};

} // namespace cosmos::sim

#endif // COSMOS_SIM_EVENT_QUEUE_HH
