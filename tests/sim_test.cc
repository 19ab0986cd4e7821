/**
 * @file
 * Unit tests of the discrete-event engine: ordering, tie-breaking,
 * time monotonicity, nested scheduling, bounded runs, and the
 * lifetime of the inline EventFn captures.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace cosmos::sim
{
namespace
{

TEST(EventQueue, StartsAtTimeZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&]() { order.push_back(3); });
    eq.scheduleAt(10, [&]() { order.push_back(1); });
    eq.scheduleAt(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(5, [&, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NowAdvancesDuringExecution)
{
    EventQueue eq;
    Tick seen = 0;
    eq.scheduleAt(17, [&]() { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 17u);
}

TEST(EventQueue, ScheduleAfterIsRelative)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.scheduleAt(100, [&]() {
        eq.scheduleAfter(5, [&]() { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 105u);
}

TEST(EventQueue, NestedSchedulingChains)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&]() {
        if (++depth < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.scheduleAt(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, RunHonoursEventLimit)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        eq.scheduleAt(i, [&]() { ++fired; });
    EXPECT_EQ(eq.run(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(eq.pending(), 6u);
    eq.run();
    EXPECT_EQ(fired, 10);
}

TEST(EventQueue, ExecutedCountsAllEvents)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.scheduleAt(i, []() {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.scheduleAt(50, []() {});
    eq.run();
    EXPECT_DEATH(eq.scheduleAt(10, []() {}), "past");
}

TEST(EventQueue, SameTickEventScheduledDuringExecutionRuns)
{
    // An event scheduled for "now" from inside a handler must still
    // fire (after the current event).
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5, [&]() {
        order.push_back(1);
        eq.scheduleAt(5, [&]() { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ReserveDoesNotAffectSemantics)
{
    EventQueue eq;
    eq.reserve(1000);
    EXPECT_EQ(eq.pending(), 0u);
    std::vector<int> order;
    for (int i = 99; i >= 0; --i)
        eq.scheduleAt(static_cast<Tick>(i),
                      [&order, i]() { order.push_back(i); });
    EXPECT_EQ(eq.pending(), 100u);
    EXPECT_EQ(eq.run(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, HandlerMaySchedulePastItsOwnPop)
{
    // runOne() moves the callback out before popping, so a handler
    // that schedules (possibly reallocating the heap) and then keeps
    // using its own captures must be safe.
    EventQueue eq;
    std::vector<int> order;
    const std::vector<int> payload = {1, 2, 3};
    eq.scheduleAt(1, [&eq, &order, payload]() {
        for (int i = 0; i < 64; ++i)
            eq.scheduleAfter(static_cast<Tick>(i + 1), []() {});
        // Captured state must still be intact after the growth above.
        for (int v : payload)
            order.push_back(v);
    });
    EXPECT_TRUE(eq.runOne());
    EXPECT_EQ(order, payload);
    EXPECT_EQ(eq.pending(), 64u);
    eq.run();
    EXPECT_EQ(eq.executed(), 65u);
}

TEST(EventFn, MoveOnlyCaptureFires)
{
    EventQueue eq;
    int seen = 0;
    auto box = std::make_unique<int>(42);
    eq.scheduleAt(3, [&seen, box = std::move(box)]() { seen = *box; });
    eq.run();
    EXPECT_EQ(seen, 42);
}

TEST(EventFn, SharedCaptureReleasedOnceAfterFiring)
{
    auto token = std::make_shared<int>(7);
    {
        EventQueue eq;
        int fired = 0;
        eq.scheduleAt(1, [&fired, token]() { fired += *token; });
        eq.scheduleAt(2, [&fired, token]() { fired += *token; });
        EXPECT_EQ(token.use_count(), 3);
        EXPECT_TRUE(eq.runOne());
        // The fired callback's copy is gone; the pending one is not.
        EXPECT_EQ(fired, 7);
        EXPECT_EQ(token.use_count(), 2);
        // Reusing the freed slot must not disturb the pending copy.
        eq.scheduleAt(5, [token]() {});
        EXPECT_EQ(token.use_count(), 3);
    }
    // Destroying the queue releases every still-pending capture.
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventFn, MoveTransfersOwnership)
{
    auto token = std::make_shared<int>(1);
    EventFn a([token]() {});
    EXPECT_EQ(token.use_count(), 2);
    EventFn b(std::move(a));
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(b);
    EXPECT_EQ(token.use_count(), 2);
    EventFn c;
    c = std::move(b);
    EXPECT_EQ(token.use_count(), 2);
    c = EventFn([]() {});
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, RandomScheduleMatchesStableSortReference)
{
    // 100k events at random ticks, scheduled in waves from inside
    // handlers so freed slots are reused, must fire exactly in
    // (when, seq) order -- the order a stable sort by tick gives.
    EventQueue eq;
    std::mt19937_64 rng(0xC05305);
    struct Planned
    {
        Tick when;
        std::uint64_t seq;
    };
    std::vector<Planned> planned;
    std::vector<std::uint64_t> fired;
    constexpr std::uint64_t total = 100000;
    std::uint64_t seq = 0;

    auto scheduleWave = [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n && seq < total; ++i, ++seq) {
            const Tick when = eq.now() + rng() % 64;
            planned.push_back({when, seq});
            eq.scheduleAt(when, [&fired, s = seq]() {
                fired.push_back(s);
            });
        }
    };
    scheduleWave(1000);
    std::uint64_t steps = 0;
    while (eq.runOne()) {
        if (++steps % 100 == 0)
            scheduleWave(100);
    }
    ASSERT_EQ(planned.size(), total);
    ASSERT_EQ(fired.size(), total);

    // Events scheduled later never fire before `now`, so sorting by
    // tick alone (stable: ties keep schedule order) is the reference.
    std::stable_sort(planned.begin(), planned.end(),
                     [](const Planned &a, const Planned &b) {
                         return a.when < b.when;
                     });
    for (std::uint64_t i = 0; i < total; ++i)
        ASSERT_EQ(fired[i], planned[i].seq) << "position " << i;
}

/**
 * Differential driver for the timing wheel: every schedule call is
 * mirrored into a reference ordered set of (when, seq), and every
 * event that fires must be the set's earliest entry at that moment.
 */
struct WheelDifferential
{
    static constexpr Tick wheel = EventQueue::wheel_size;

    explicit WheelDifferential(std::uint64_t seed) : rng(seed) {}

    /** A delay mix: 0 (same tick, also from inside handlers), short
     *  hops that tie on a tick, anything inside the wheel, the
     *  wheel's edge, several turns out (the overflow heap), and
     *  exact multiples of the wheel size (same bucket, later turn). */
    Tick
    delay()
    {
        switch (rng() % 6) {
          case 0: return 0;
          case 1: return rng() % 4;
          case 2: return rng() % wheel;
          case 3: return wheel - 2 + rng() % 5;
          case 4: return rng() % (4 * wheel);
          default: return wheel * (1 + rng() % 3);
        }
    }

    void
    schedule()
    {
        const Tick when = eq.now() + delay();
        const std::uint64_t seq = nextSeq++;
        reference.emplace(when, seq);
        eq.scheduleAt(when, [this, when, seq]() { fire(when, seq); });
    }

    void
    fire(Tick when, std::uint64_t seq)
    {
        ++fired;
        const std::pair<Tick, std::uint64_t> expected = *reference.begin();
        if (expected != std::make_pair(when, seq) || eq.now() != when)
            ++mismatches;
        reference.erase(std::make_pair(when, seq));
        // Zero to two children (one on average) while the budget
        // lasts, then drain.
        for (std::uint64_t n = rng() % 3; n > 0 && nextSeq < budget; --n)
            schedule();
    }

    EventQueue eq;
    std::mt19937_64 rng;
    std::set<std::pair<Tick, std::uint64_t>> reference;
    std::uint64_t nextSeq = 0;
    std::uint64_t budget = 0;
    std::uint64_t fired = 0;
    std::uint64_t mismatches = 0;
};

TEST(EventQueue, WheelMatchesReferenceOrderOnRandomSchedules)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 0xC05305ull}) {
        WheelDifferential d(seed);
        d.budget = 60000;
        for (int i = 0; i < 2000; ++i)
            d.schedule();
        while (d.eq.runOne())
            ASSERT_EQ(d.eq.pending(), d.reference.size());
        EXPECT_EQ(d.fired, d.budget) << "seed " << seed;
        EXPECT_EQ(d.mismatches, 0u) << "seed " << seed;
        EXPECT_TRUE(d.reference.empty());
        EXPECT_EQ(d.eq.executed(), d.budget);
    }
}

TEST(EventQueue, OverflowEventsPrecedeWheelEventsOfTheSameTick)
{
    // Tick W is first scheduled from time 0 (a wheel-size delay: the
    // overflow heap), then from time 1 (inside the wheel), then again
    // from inside the first one's handler (a 0-delay event). Heap
    // order is schedule order.
    constexpr Tick w = EventQueue::wheel_size;
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(w, [&]() {
        order.push_back(0);
        eq.scheduleAfter(0, [&]() { order.push_back(3); });
    });
    eq.scheduleAt(w + 1, [&]() { order.push_back(4); });
    eq.scheduleAt(1, [&]() {
        order.push_back(-1);
        eq.scheduleAt(w, [&]() { order.push_back(1); });
        eq.scheduleAt(w, [&]() { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), w + 1);
}

} // namespace
} // namespace cosmos::sim
