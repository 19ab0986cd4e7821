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
 * (EventFn) and live in a slab whose freed slots are reused, and the
 * queue orders them through intrusive links over that slab.
 */

#ifndef COSMOS_SIM_EVENT_QUEUE_HH
#define COSMOS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
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
 * EventFn is the buffer plus one pointer. A trivially copyable
 * capture (most are: a `this` pointer and a message) has no relocate
 * or destroy entry; it moves as a plain copy of the buffer and is
 * dropped without a call. Moves are noexcept: a capture that can only
 * be copied (say, a const member) is copied, and a copy that throws
 * terminates.
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
            relocateFrom(other);
            other.ops_ = nullptr;
        }
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            if (other.ops_ != nullptr) {
                ops_ = other.ops_;
                relocateFrom(other);
                other.ops_ = nullptr;
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
        /** Move-construct into @p dst from @p src, destroying @p src;
         *  null for a trivially copyable capture. */
        void (*relocate)(void *dst, void *src);
        /** Null for a trivially destructible capture. */
        void (*destroy)(void *self);
    };

    template <class D>
    static void
    relocateAs(void *dst, void *src)
    {
        D *from = static_cast<D *>(src);
        ::new (dst) D(std::move(*from));
        from->~D();
    }

    template <class D>
    static void
    destroyAs(void *self)
    {
        static_cast<D *>(self)->~D();
    }

    template <class D>
    static constexpr Ops opsFor{
        [](void *self) { (*static_cast<D *>(self))(); },
        std::is_trivially_copyable_v<D> ? nullptr : &relocateAs<D>,
        std::is_trivially_destructible_v<D> ? nullptr : &destroyAs<D>,
    };

    /** Take @p other's capture; ops_ is already other's. */
    void
    relocateFrom(EventFn &other)
    {
        if (ops_->relocate != nullptr)
            ops_->relocate(buf_, other.buf_);
        else
            std::memcpy(buf_, other.buf_, capacity);
    }

    void
    reset()
    {
        if (ops_ != nullptr) {
            const Ops *ops = std::exchange(ops_, nullptr);
            if (ops->destroy != nullptr)
                ops->destroy(buf_);
        }
    }

    alignas(8) unsigned char buf_[capacity];
    const Ops *ops_ = nullptr;
};

static_assert(sizeof(EventFn) == EventFn::capacity + sizeof(void *));

/**
 * A time-ordered queue of callback events.
 *
 * Ties at the same tick break by schedule order (FIFO), so a run is a
 * pure function of the schedule calls made into it: events fire in
 * ascending (when, seq) order, seq being the order of the schedule
 * calls.
 *
 * Structure: a timing wheel. Almost every delay in the simulated
 * machine (network hops, occupancy, memory, think time) is far below
 * wheel_size ticks, so an event due in [now, now + wheel_size) goes
 * into the FIFO bucket of its tick, `when mod wheel_size`, linked
 * through its slab slot. An occupancy bitmap over the buckets, scanned
 * with count-trailing-zeros, finds the next non-empty one. Every
 * wheel event is due before now + wheel_size and no earlier than now,
 * so a bucket never mixes two ticks. An event due wheel_size or more
 * ticks ahead goes to a small overflow heap ordered by (when, seq),
 * and stays there until it fires.
 *
 * Why this is the heap's order. Within the wheel a bucket is FIFO, so
 * its events fire in seq order. Across the two structures, take an
 * overflow event and a wheel event both due at tick t. The overflow
 * event was scheduled at some now1 with t >= now1 + wheel_size; the
 * wheel event at some now2 with t < now2 + wheel_size. So now1 < now2,
 * and as time never runs backwards the overflow event was scheduled
 * first: it has the smaller seq. Events scheduled while tick t runs
 * (0-delay ones included) can only join t's bucket, at its tail,
 * with a seq above every pending one. Running, at each tick, that
 * tick's overflow events in heap order and then its bucket in FIFO
 * order is therefore exactly ascending (when, seq).
 */
class EventQueue
{
  public:
    /** Ticks the wheel spans; events due further ahead overflow. */
    static constexpr std::size_t wheel_size = 1024;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule @p fn to run at absolute time @p when (>= now). */
    void scheduleAt(Tick when, EventFn fn);

    /** Schedule @p fn to run @p delay ticks from now. */
    void scheduleAfter(Tick delay, EventFn fn);

    /** Pre-size the callback slab for @p n pending events. */
    void reserve(std::size_t n);

    /** Fire the earliest event. @return false if the queue was empty. */
    bool runOne();

    /**
     * Run until the queue drains or @p max_events fire.
     * @return number of events executed.
     */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /** Number of events currently pending. */
    std::size_t pending() const
    {
        return wheelPending_ + overflow_.size();
    }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return executed_; }

    /** High-water mark of pending events (queue depth). */
    std::size_t maxPending() const { return maxPending_; }

    /** Publish execution counters under "<prefix>." (e.g.
     *  "sim.events_executed"). All values are deterministic. */
    void publishMetrics(obs::Registry &reg,
                        const std::string &prefix = "sim") const;

  private:
    static constexpr std::uint32_t no_slot = ~std::uint32_t{0};
    static constexpr std::size_t wheel_mask = wheel_size - 1;
    static constexpr std::size_t bitmap_words = wheel_size / 64;
    static_assert((wheel_size & wheel_mask) == 0 && bitmap_words > 0,
                  "wheel_size must be a power of two >= 64");

    /** A slab slot: the callback and the next slot of its bucket (or
     *  of the free list). */
    struct Slot
    {
        EventFn fn;
        std::uint32_t next = no_slot;
    };

    /** A tick's FIFO; meaningful only while its occupancy bit is set,
     *  so the wheel needs no initialization. */
    struct Bucket
    {
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** Overflow heap key; the callback lives in slots_[slot]. */
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

    /** Store @p fn in a free slot and return its index. */
    std::uint32_t allocate(EventFn fn);
    /** Index of the first occupied bucket at or after now's, going
     *  round the wheel; the wheel must not be empty. */
    std::size_t nextBucket() const;

    std::vector<Slot> slots_;
    /** Head of the free-slot list, linked through Slot::next. */
    std::uint32_t freeHead_ = no_slot;
    Bucket wheel_[wheel_size];
    std::uint64_t occupied_[bitmap_words] = {};
    /** Events in the wheel (the rest are in overflow_). */
    std::size_t wheelPending_ = 0;
    std::vector<Key> overflow_;
    /** Schedule order among overflow events; wheel events need none
     *  (their bucket is FIFO, and see the class comment). */
    std::uint64_t overflowSeq_ = 0;
    Tick now_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t maxPending_ = 0;
};

} // namespace cosmos::sim

#endif // COSMOS_SIM_EVENT_QUEUE_HH
