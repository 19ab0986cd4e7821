/**
 * @file
 * Open-addressing hash map for per-block tables on hot paths: the
 * predictor's tables, the machine's address -> block-id index, and
 * the sharing-pattern census.
 *
 * std::unordered_map allocates one heap node per element and chases a
 * pointer per probe; on the observe/predict path (two lookups per
 * replayed message) that is the dominant cost. FlatMap stores entries in one contiguous slot array
 * with robin-hood probing:
 *
 *  - power-of-two capacity, index = mixed hash & (capacity - 1);
 *  - each slot carries its probe distance (0 = empty); lookups stop
 *    as soon as they reach a slot "richer" than the probe, so misses
 *    are cheap even near the load limit;
 *  - erase() backward-shifts the following cluster instead of leaving
 *    tombstones, so tables never degrade with churn;
 *  - the slot array can be placed in an Arena, making a table's
 *    lifetime allocation a single bump (old arrays are abandoned to
 *    the arena on growth -- bounded by a geometric series).
 *
 * Integer keys are mixed with the splitmix64 finalizer: block
 * addresses and packed MHR patterns are low-entropy (aligned, small
 * ranges), and the multiply-xorshift mix spreads them over the table.
 *
 * The map is move-only and invalidates entry pointers on any insert
 * or erase, like the standard open-addressing containers it mimics.
 */

#ifndef COSMOS_COMMON_FLAT_MAP_HH
#define COSMOS_COMMON_FLAT_MAP_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/arena.hh"
#include "common/log.hh"

namespace cosmos
{

/** splitmix64 finalizer: a fast, well-mixing hash for integer keys. */
struct FlatHash
{
    std::size_t
    operator()(std::uint64_t x) const
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }
};

template <class K, class V, class Hash = FlatHash>
class FlatMap
{
  public:
    /** With @p arena set, slot arrays bump-allocate and are never
     *  individually freed; otherwise they live on the heap. */
    explicit FlatMap(Arena *arena = nullptr) : arena_(arena) {}

    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;

    FlatMap(FlatMap &&other) noexcept { moveFrom(other); }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        if (this != &other) {
            release();
            moveFrom(other);
        }
        return *this;
    }

    ~FlatMap() { release(); }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    V *
    find(const K &key)
    {
        return const_cast<V *>(
            static_cast<const FlatMap *>(this)->find(key));
    }

    const V *
    find(const K &key) const
    {
        if (cap_ == 0)
            return nullptr;
        std::size_t i = home(key);
        std::uint16_t d = 1;
        for (;;) {
            const std::uint16_t sd = dist_[i];
            if (sd < d)
                return nullptr; // empty, or a richer resident
            if (sd == d && slots_[i].key == key)
                return &slots_[i].val;
            i = (i + 1) & mask_;
            ++d;
        }
    }

    /**
     * Insert a new entry; @p key must not be present. Returns the
     * stored value (pointer valid until the next insert/erase).
     */
    V &
    insert(K key, V val)
    {
        reserveOne();
        return place(std::move(key), std::move(val));
    }

    /**
     * Find @p key, or insert V(args...) if absent -- the flat
     * equivalent of unordered_map::operator[] with constructor
     * arguments.
     */
    template <class... Args>
    V &
    obtain(const K &key, Args &&...args)
    {
        if (V *v = find(key))
            return *v;
        reserveOne();
        return place(K(key), V(std::forward<Args>(args)...));
    }

    /**
     * Pre-size the slot array so @p expected entries fit under the
     * 7/8 load limit without any further rehash. Sized from a trace
     * census and called before a replay, this moves every rehash out
     * of the timed region (and out of the hot path's cache working
     * set). Never shrinks; safe to call on a populated table.
     */
    void
    reserve(std::size_t expected)
    {
        std::size_t need = 8;
        while (expected * 8 > need * 7)
            need *= 2;
        if (need > cap_)
            rehash(need);
    }

    /**
     * Prefetch the slots a find(@p key) would inspect first. Pure
     * hint: no state changes, no fault on a missing key. The batched
     * observe path issues these a fixed distance ahead of the apply
     * pass so the probe's cache misses overlap with useful work.
     */
    void
    prefetchFind(const K &key) const
    {
        if (cap_ == 0)
            return;
        const std::size_t i = home(key);
        __builtin_prefetch(dist_ + i, 0, 3);
        __builtin_prefetch(slots_ + i, 0, 3);
    }

    /** Remove @p key. @return true iff it was present. */
    bool
    erase(const K &key)
    {
        if (cap_ == 0)
            return false;
        std::size_t i = home(key);
        std::uint16_t d = 1;
        for (;;) {
            const std::uint16_t sd = dist_[i];
            if (sd < d)
                return false;
            if (sd == d && slots_[i].key == key)
                break;
            i = (i + 1) & mask_;
            ++d;
        }
        // Backward-shift the cluster that follows: no tombstones.
        std::size_t j = (i + 1) & mask_;
        while (dist_[j] > 1) {
            slots_[i] = std::move(slots_[j]);
            dist_[i] = static_cast<std::uint16_t>(dist_[j] - 1);
            i = j;
            j = (j + 1) & mask_;
        }
        slots_[i].~Slot();
        dist_[i] = 0;
        --size_;
        return true;
    }

    /** Visit every (key, value); iteration order is unspecified. */
    template <class F>
    void
    forEach(F &&f)
    {
        for (std::size_t i = 0; i < cap_; ++i)
            if (dist_[i])
                f(const_cast<const K &>(slots_[i].key), slots_[i].val);
    }

    template <class F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < cap_; ++i)
            if (dist_[i])
                f(slots_[i].key, slots_[i].val);
    }

    void
    clear()
    {
        for (std::size_t i = 0; i < cap_; ++i) {
            if (dist_[i]) {
                slots_[i].~Slot();
                dist_[i] = 0;
            }
        }
        size_ = 0;
    }

    /** Slots currently reserved (power of two, or 0 before first
     *  insert). */
    std::size_t capacity() const { return cap_; }

    /** Occupied fraction of the slot array, in [0, 7/8]. */
    double
    loadFactor() const
    {
        return cap_ == 0 ? 0.0
                         : static_cast<double>(size_) /
                               static_cast<double>(cap_);
    }

    /** Probe-length summary over all live entries. A lookup for a
     *  stored key inspects exactly its probe length slots, so these
     *  numbers are the table's expected-hit cost. */
    struct ProbeStats
    {
        std::uint64_t samples = 0; ///< live entries (== size())
        std::uint64_t total = 0;   ///< sum of probe lengths
        std::uint16_t longest = 0; ///< worst-case probe length

        double
        mean() const
        {
            return samples == 0 ? 0.0
                                : static_cast<double>(total) /
                                      static_cast<double>(samples);
        }
    };

    ProbeStats
    probeLengthStats() const
    {
        ProbeStats ps;
        for (std::size_t i = 0; i < cap_; ++i) {
            if (dist_[i]) {
                ++ps.samples;
                ps.total += dist_[i];
                ps.longest = std::max(ps.longest, dist_[i]);
            }
        }
        return ps;
    }

    /** Call f(probe_length) for every live entry (introspection for
     *  probe-length histograms; order unspecified). */
    template <class F>
    void
    forEachProbeLength(F &&f) const
    {
        for (std::size_t i = 0; i < cap_; ++i)
            if (dist_[i])
                f(static_cast<unsigned>(dist_[i]));
    }

  private:
    struct Slot
    {
        K key;
        V val;
    };

    std::size_t home(const K &key) const { return hash_(key) & mask_; }

    /** Grow (if needed) so one more entry fits under 7/8 load. */
    void
    reserveOne()
    {
        if ((size_ + 1) * 8 > cap_ * 7)
            rehash(cap_ == 0 ? 8 : cap_ * 2);
    }

    /** Robin-hood insertion; the key must be absent. */
    V &
    place(K key, V val)
    {
        std::size_t i = home(key);
        std::uint16_t d = 1;
        V *mine = nullptr;
        for (;;) {
            if (dist_[i] == 0) {
                new (&slots_[i]) Slot{std::move(key), std::move(val)};
                dist_[i] = d;
                ++size_;
                return mine ? *mine : slots_[i].val;
            }
            if (dist_[i] < d) {
                // Displace the richer resident and carry it onward.
                std::swap(key, slots_[i].key);
                std::swap(val, slots_[i].val);
                std::swap(d, dist_[i]);
                if (mine == nullptr)
                    mine = &slots_[i].val;
            }
            i = (i + 1) & mask_;
            ++d;
            cosmos_assert(d < UINT16_MAX, "FlatMap probe overflow");
        }
    }

    void
    rehash(std::size_t new_cap)
    {
        std::uint16_t *old_dist = dist_;
        Slot *old_slots = slots_;
        const std::size_t old_cap = cap_;
        void *old_mem = mem_;

        allocateTable(new_cap);
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old_dist[i]) {
                place(std::move(old_slots[i].key),
                      std::move(old_slots[i].val));
                old_slots[i].~Slot();
            }
        }
        if (arena_ == nullptr)
            ::operator delete(old_mem);
    }

    void
    allocateTable(std::size_t new_cap)
    {
        const std::size_t dist_bytes = new_cap * sizeof(std::uint16_t);
        const std::size_t align = alignof(Slot) > alignof(std::uint16_t)
                                      ? alignof(Slot)
                                      : alignof(std::uint16_t);
        const std::size_t slot_off =
            (dist_bytes + alignof(Slot) - 1) & ~(alignof(Slot) - 1);
        const std::size_t total = slot_off + new_cap * sizeof(Slot);

        mem_ = arena_ ? arena_->allocate(total, align)
                      : ::operator new(total);
        dist_ = static_cast<std::uint16_t *>(mem_);
        std::memset(dist_, 0, dist_bytes);
        slots_ = reinterpret_cast<Slot *>(static_cast<std::byte *>(mem_) +
                                          slot_off);
        cap_ = new_cap;
        mask_ = new_cap - 1;
    }

    void
    release()
    {
        clear();
        if (arena_ == nullptr && mem_ != nullptr)
            ::operator delete(mem_);
        mem_ = nullptr;
        dist_ = nullptr;
        slots_ = nullptr;
        cap_ = 0;
        mask_ = 0;
    }

    void
    moveFrom(FlatMap &other) noexcept
    {
        arena_ = other.arena_;
        mem_ = std::exchange(other.mem_, nullptr);
        dist_ = std::exchange(other.dist_, nullptr);
        slots_ = std::exchange(other.slots_, nullptr);
        cap_ = std::exchange(other.cap_, 0);
        mask_ = std::exchange(other.mask_, 0);
        size_ = std::exchange(other.size_, 0);
    }

    Arena *arena_ = nullptr;
    void *mem_ = nullptr;
    std::uint16_t *dist_ = nullptr; ///< probe distance + 1; 0 = empty
    Slot *slots_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    [[no_unique_address]] Hash hash_{};
};

} // namespace cosmos

#endif // COSMOS_COMMON_FLAT_MAP_HH
