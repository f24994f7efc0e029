#include "common/event_loop.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "common/profile.hpp"

namespace kosha {

EventLoop::EventLoop(SimClock* clock, std::uint64_t seed)
    : clock_(clock), rng_(seed ^ 0xC0FFEE123456789Bull) {
  assert(clock_ != nullptr);
}

EventLoop::EventId EventLoop::schedule_at(SimDuration when, std::function<void()> fn) {
  return schedule_at(when, "event", std::move(fn));
}

EventLoop::EventId EventLoop::schedule_at(SimDuration when, const char* category,
                                          std::function<void()> fn) {
  const EventId id = next_id_++;
  heap_.push_back(Entry{std::max(when, clock_->now()), id,
                        category != nullptr ? category : "event", std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++stats_.scheduled;
  return id;
}

EventLoop::EventId EventLoop::schedule_after(SimDuration delay, std::function<void()> fn) {
  return schedule_at(clock_->now() + delay, std::move(fn));
}

EventLoop::EventId EventLoop::schedule_after(SimDuration delay, const char* category,
                                             std::function<void()> fn) {
  return schedule_at(clock_->now() + delay, category, std::move(fn));
}

bool EventLoop::cancel(EventId id) {
  if (id == kInvalidEvent || id >= next_id_) return false;
  // Only mark ids still somewhere in the heap; anything else already ran.
  const bool pending = std::any_of(heap_.begin(), heap_.end(),
                                   [id](const Entry& e) { return e.id == id; });
  if (!pending || !cancelled_.insert(id).second) return false;
  ++stats_.cancelled;
  return true;
}

bool EventLoop::step() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    if (cancelled_.erase(entry.id) > 0) continue;  // lazily dropped
    clock_->advance_to(entry.when);
    ++stats_.executed;
    dispatching_ = true;
    struct ClearOnExit {  // also when the callback throws
      bool& flag;
      ~ClearOnExit() { flag = false; }
    } clear{dispatching_};
    if (profiler_ != nullptr) {
      // Wall-clock time of the callback body, read through the profiler's
      // sanctioned seam (the loop itself never names a clock). Dispatch
      // never nests, so this is the event's self time.
      const std::uint64_t wall_begin = SimProfiler::wall_now_ns();
      entry.fn();
      profiler_->record_event(entry.category, SimProfiler::wall_now_ns() - wall_begin);
    } else {
      entry.fn();
    }
    return true;
  }
  return false;
}

std::size_t EventLoop::run_until_idle() {
  std::size_t ran = 0;
  while (step()) ++ran;
  return ran;
}

std::size_t EventLoop::run_until(const std::function<bool()>& done) {
  if (dispatching_) throw std::logic_error("EventLoop::run_until inside an event callback");
  std::size_t ran = 0;
  while (!done() && step()) ++ran;
  return ran;
}

std::size_t EventLoop::run_until_time(SimDuration when) {
  std::size_t ran = 0;
  for (;;) {
    // Drop cancelled entries sitting at the head so the peek below sees
    // the true earliest live event.
    while (!heap_.empty() && cancelled_.count(heap_.front().id) > 0) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      cancelled_.erase(heap_.back().id);
      heap_.pop_back();
    }
    if (heap_.empty() || heap_.front().when.ns > when.ns) break;
    if (step()) ++ran;
  }
  clock_->advance_to(when);
  return ran;
}

SimDuration EventLoop::jitter(SimDuration max) {
  if (max.ns <= 0) return {};
  return SimDuration::nanos(
      static_cast<std::int64_t>(rng_.next_below(static_cast<std::uint64_t>(max.ns) + 1)));
}

}  // namespace kosha
