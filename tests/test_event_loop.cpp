// EventLoop: dispatch ordering, monotonic tie-breaking, timer
// cancellation, and the determinism rules of DESIGN §6 (same-seed runs
// replay byte-identically, no wall-clock anywhere).

#include "common/event_loop.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace kosha {
namespace {

TEST(EventLoop, DispatchesInTimeOrderAndAdvancesClock) {
  SimClock clock;
  EventLoop loop(&clock);
  std::vector<int> order;
  loop.schedule_at(SimDuration::micros(30), [&] { order.push_back(3); });
  loop.schedule_at(SimDuration::micros(10), [&] {
    order.push_back(1);
    EXPECT_EQ(clock.now(), SimDuration::micros(10));
  });
  loop.schedule_at(SimDuration::micros(20), [&] { order.push_back(2); });
  EXPECT_EQ(loop.pending(), 3u);
  EXPECT_EQ(loop.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), SimDuration::micros(30));
  EXPECT_EQ(loop.pending(), 0u);
}

TEST(EventLoop, SameTimeTiesDispatchInScheduleOrder) {
  SimClock clock;
  EventLoop loop(&clock);
  std::string order;
  const SimDuration t = SimDuration::millis(1);
  for (char c : std::string("abcdef")) {
    loop.schedule_at(t, [&order, c] { order.push_back(c); });
  }
  loop.run_until_idle();
  EXPECT_EQ(order, "abcdef");
}

TEST(EventLoop, PastEventsRunAtNowWithoutRewinding) {
  SimClock clock;
  clock.advance(SimDuration::millis(5));
  EventLoop loop(&clock);
  bool ran = false;
  loop.schedule_at(SimDuration::millis(1), [&] {
    ran = true;
    EXPECT_EQ(clock.now(), SimDuration::millis(5));
  });
  loop.run_until_idle();
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
}

TEST(EventLoop, ScheduleAfterIsRelativeToNow) {
  SimClock clock;
  clock.advance(SimDuration::millis(2));
  EventLoop loop(&clock);
  loop.schedule_after(SimDuration::millis(3), [] {});
  loop.run_until_idle();
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
}

TEST(EventLoop, CancelPreventsDispatchExactlyOnce) {
  SimClock clock;
  EventLoop loop(&clock);
  bool fired = false;
  const EventLoop::EventId timer =
      loop.schedule_after(SimDuration::millis(1), [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(timer));
  EXPECT_FALSE(loop.cancel(timer));  // already cancelled
  EXPECT_EQ(loop.pending(), 0u);
  loop.run_until_idle();
  EXPECT_FALSE(fired);
  // The cancelled event's timestamp never touched the clock.
  EXPECT_EQ(clock.now(), SimDuration{});
  EXPECT_EQ(loop.stats().cancelled, 1u);
  EXPECT_EQ(loop.stats().executed, 0u);
}

TEST(EventLoop, CancelOfAnExecutedEventFails) {
  SimClock clock;
  EventLoop loop(&clock);
  const EventLoop::EventId id = loop.schedule_after(SimDuration::millis(1), [] {});
  loop.run_until_idle();
  EXPECT_FALSE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(EventLoop::kInvalidEvent));
}

TEST(EventLoop, EventsMayScheduleFurtherEvents) {
  SimClock clock;
  EventLoop loop(&clock);
  std::vector<int> order;
  loop.schedule_at(SimDuration::micros(10), [&] {
    order.push_back(1);
    loop.schedule_after(SimDuration::micros(5), [&] { order.push_back(2); });
  });
  loop.schedule_at(SimDuration::micros(20), [&] { order.push_back(3); });
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(clock.now(), SimDuration::micros(20));
}

TEST(EventLoop, RunUntilStopsAtPredicateLeavingTheRestPending) {
  SimClock clock;
  EventLoop loop(&clock);
  bool done = false;
  int ran = 0;
  loop.schedule_at(SimDuration::micros(1), [&] { ++ran; });
  loop.schedule_at(SimDuration::micros(2), [&] {
    ++ran;
    done = true;
  });
  loop.schedule_at(SimDuration::micros(3), [&] { ++ran; });
  loop.run_until([&] { return done; });
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until_idle();
  EXPECT_EQ(ran, 3);
}

TEST(EventLoop, RunUntilRefusesToNestInsideACallback) {
  SimClock clock;
  EventLoop loop(&clock);
  int ran = 0;
  bool refused = false;
  loop.schedule_at(SimDuration::micros(1), [&] {
    try {
      loop.run_until([] { return false; });
    } catch (const std::logic_error&) {
      refused = true;
    }
  });
  loop.schedule_at(SimDuration::micros(2), [&] { ++ran; });
  EXPECT_EQ(loop.run_until([&] { return ran == 1; }), 2u);
  EXPECT_TRUE(refused);
  EXPECT_EQ(clock.now(), SimDuration::micros(2));
  // The refusal left the loop usable: a callback that throws out of step()
  // does not leave it marked as dispatching.
  loop.schedule_at(SimDuration::micros(3), [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(loop.run_until_idle(), std::runtime_error);
  loop.schedule_at(SimDuration::micros(4), [&] { ++ran; });
  EXPECT_EQ(loop.run_until([&] { return ran == 2; }), 1u);
}

/// The determinism guard: two same-seed loops given the same schedule
/// produce identical dispatch transcripts (including jittered timers);
/// a different seed shifts the jitter stream.
TEST(EventLoop, SameSeedRunsReplayIdentically) {
  const auto transcript = [](std::uint64_t seed) {
    SimClock clock;
    EventLoop loop(&clock, seed);
    std::string out;
    for (int i = 0; i < 16; ++i) {
      const SimDuration base = SimDuration::micros(10 * (i % 4));
      loop.schedule_at(base + loop.jitter(SimDuration::micros(7)), [&out, i] {
        out += std::to_string(i) + ",";
      });
    }
    loop.run_until_idle();
    out += "@" + std::to_string(clock.now().ns);
    return out;
  };
  EXPECT_EQ(transcript(42), transcript(42));
  EXPECT_NE(transcript(42), transcript(43));
}

TEST(EventLoop, RunUntilTimeDispatchesDueEventsAndAdvancesTheClock) {
  SimClock clock;
  EventLoop loop(&clock);
  int ran = 0;
  loop.schedule_at(SimDuration::millis(1), [&] { ++ran; });
  loop.schedule_at(SimDuration::millis(2), [&] { ++ran; });
  loop.schedule_at(SimDuration::millis(9), [&] { ++ran; });

  // Everything <= the horizon runs; the clock lands exactly on the horizon
  // even though a later event is still pending (grid sampling contract).
  EXPECT_EQ(loop.run_until_time(SimDuration::millis(5)), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
  EXPECT_EQ(loop.pending(), 1u);

  // A horizon in the past dispatches nothing and never rewinds the clock.
  EXPECT_EQ(loop.run_until_time(SimDuration::millis(3)), 0u);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));

  EXPECT_EQ(loop.run_until_time(SimDuration::millis(20)), 1u);
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(clock.now(), SimDuration::millis(20));
}

TEST(EventLoop, RunUntilTimeRunsEventsScheduledByEventsWithinTheHorizon) {
  SimClock clock;
  EventLoop loop(&clock);
  std::vector<std::int64_t> fired;
  // A self-rescheduling timer (the detector/repair-daemon shape): each
  // firing schedules the next; the horizon bounds the cascade.
  std::function<void()> tick = [&] {
    fired.push_back(clock.now().ns);
    loop.schedule_after(SimDuration::millis(2), tick);
  };
  loop.schedule_at(SimDuration::millis(1), tick);
  loop.run_until_time(SimDuration::millis(8));
  EXPECT_EQ(fired.size(), 4u);  // at 1, 3, 5, 7 ms
  EXPECT_EQ(clock.now(), SimDuration::millis(8));
  EXPECT_EQ(loop.pending(), 1u);  // the 9 ms tick waits for the next call
}

TEST(EventLoop, RunUntilTimeSkipsCancelledHeads) {
  SimClock clock;
  EventLoop loop(&clock);
  int ran = 0;
  const auto a = loop.schedule_at(SimDuration::millis(1), [&] { ++ran; });
  loop.schedule_at(SimDuration::millis(2), [&] { ++ran; });
  ASSERT_TRUE(loop.cancel(a));
  EXPECT_EQ(loop.run_until_time(SimDuration::millis(5)), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(clock.now(), SimDuration::millis(5));
}

TEST(SimClockExtensions, AdvanceToNeverRewindsButSetNowDoes) {
  SimClock clock;
  clock.advance_to(SimDuration::millis(3));
  EXPECT_EQ(clock.now(), SimDuration::millis(3));
  clock.advance_to(SimDuration::millis(1));  // never backwards
  EXPECT_EQ(clock.now(), SimDuration::millis(3));
  clock.set_now(SimDuration::millis(1));  // explicit rewind is allowed
  EXPECT_EQ(clock.now(), SimDuration::millis(1));
}

}  // namespace
}  // namespace kosha
