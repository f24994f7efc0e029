#pragma once

// Deterministic discrete-event scheduler over virtual time.
//
// The execution core of the event-driven simulation model (DESIGN §6):
// callbacks are scheduled at absolute virtual times and dispatched in
// (time, sequence) order, advancing the shared SimClock to each event's
// timestamp. Determinism rules:
//   * no wall-clock input anywhere — time exists only as SimDuration;
//   * ties at the same timestamp dispatch in scheduling order (a monotonic
//     sequence number assigned at schedule time), so the dispatch order is
//     a pure function of the schedule calls;
//   * randomness (e.g. jittered timers) comes exclusively from the loop's
//     seeded Rng stream, so same-seed runs replay byte-identically.
//
// Cancellation is lazy: cancel() marks the entry and the heap skips it on
// pop, keeping schedule/cancel O(log n) without heap surgery.

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_clock.hpp"

namespace kosha {

class SimProfiler;

class EventLoop {
 public:
  using EventId = std::uint64_t;
  /// Never returned by schedule_*; safe "no event" sentinel for callers
  /// that keep a pending-timer handle.
  static constexpr EventId kInvalidEvent = 0;

  explicit EventLoop(SimClock* clock, std::uint64_t seed = 0);

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Schedule `fn` at absolute virtual time `when`. Times in the past are
  /// clamped to now: the event runs next, it cannot rewind the clock.
  /// `category` labels the event for the profiler's per-category cost
  /// accounting; it must point at storage outliving the event (string
  /// literals). Untagged call sites fall into "event".
  EventId schedule_at(SimDuration when, std::function<void()> fn);
  EventId schedule_at(SimDuration when, const char* category, std::function<void()> fn);
  /// Schedule `fn` at now + `delay` (timers, retry backoff).
  EventId schedule_after(SimDuration delay, std::function<void()> fn);
  EventId schedule_after(SimDuration delay, const char* category, std::function<void()> fn);

  /// Cancel a pending event. Returns false when the event already ran,
  /// was cancelled before, or never existed.
  bool cancel(EventId id);

  /// Dispatch the earliest pending event, advancing the clock to its
  /// timestamp. Returns false when the queue is empty.
  bool step();

  /// Dispatch until the queue drains. Returns the number of events run.
  std::size_t run_until_idle();

  /// Dispatch until `done()` holds (checked before every event) or the
  /// queue drains. Returns the number of events run. This is how the
  /// synchronous RPC wrappers block on their own completion. Throws
  /// std::logic_error when called from inside an event callback: dispatch
  /// never nests, so a callback can never block on the loop that runs it.
  std::size_t run_until(const std::function<bool()>& done);

  /// Dispatch every event with timestamp <= `when`, then advance the
  /// clock to `when` even if the queue still holds later events. The
  /// churn simulator uses this to sample cluster state on a fixed grid
  /// while timers keep firing between samples. Returns events run.
  std::size_t run_until_time(SimDuration when);

  [[nodiscard]] SimDuration now() const { return clock_->now(); }
  [[nodiscard]] SimClock& clock() { return *clock_; }
  /// Pending (scheduled, not yet run or cancelled) events.
  [[nodiscard]] std::size_t pending() const { return heap_.size() - cancelled_.size(); }

  /// The loop's deterministic randomness stream; the only sanctioned
  /// source of scheduling jitter.
  [[nodiscard]] Rng& rng() { return rng_; }
  /// A uniform draw in [0, max] from the loop's stream, for jittered
  /// timers. Deterministic under the loop's seed.
  [[nodiscard]] SimDuration jitter(SimDuration max);

  struct Stats {
    std::uint64_t scheduled = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Attach the simulator profiler (nullptr = off, the default). When set,
  /// step() brackets each callback with wall-clock reads through the
  /// profiler's sanctioned seam and records per-category self time. The
  /// profiler is a pure observer: dispatch order, clock movement and the
  /// Rng stream are identical with it on or off.
  void set_profiler(SimProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] SimProfiler* profiler() const { return profiler_; }

 private:
  struct Entry {
    SimDuration when;
    EventId id = kInvalidEvent;  // monotonic: doubles as the tie-break
    const char* category = "event";
    std::function<void()> fn;
  };
  /// Min-heap order: earliest time first, then lowest (earliest-assigned)
  /// id — the monotonic tie-break that keeps same-time dispatch FIFO.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when.ns != b.when.ns) return a.when.ns > b.when.ns;
      return a.id > b.id;
    }
  };

  SimClock* clock_;
  Rng rng_;
  std::vector<Entry> heap_;
  std::unordered_set<EventId> cancelled_;
  EventId next_id_ = 1;
  Stats stats_;
  SimProfiler* profiler_ = nullptr;
  /// True while step() runs a callback; run_until refuses to nest.
  bool dispatching_ = false;
};

}  // namespace kosha
