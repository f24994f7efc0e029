// Tests for the Result<T,E> vocabulary type, the logger plumbing, and
// overlay message-cost accounting.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/event_loop.hpp"
#include "common/log.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "net/sim_network.hpp"
#include "pastry/overlay.hpp"

namespace kosha {
namespace {

enum class Err { kBad, kWorse };

TEST(Result, ValueSide) {
  const Result<int, Err> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(static_cast<bool>(r));
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, ErrorSide) {
  const Result<int, Err> r = Err::kWorse;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), Err::kWorse);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, MoveOnlyPayload) {
  Result<std::string, Err> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  const std::string taken = std::move(r.value());
  EXPECT_EQ(taken, "payload");
}

TEST(Result, ArrowOperator) {
  Result<std::string, Err> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

TEST(Result, UnitEquality) {
  EXPECT_EQ(Unit{}, Unit{});
  const Result<Unit, Err> ok = Unit{};
  EXPECT_TRUE(ok.ok());
}

TEST(Log, LevelGating) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold messages are dropped without side effects.
  KOSHA_LOG_DEBUG("dropped %d", 1);
  KOSHA_LOG_INFO("dropped %s", "too");
  set_log_level(LogLevel::kOff);
  KOSHA_LOG_ERROR("also dropped");
  set_log_level(saved);
}

TEST(Log, SinkCapturesFormattedMessages) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  std::vector<std::pair<LogLevel, std::string>> captured;
  set_log_sink([&](LogLevel level, std::string_view message) {
    captured.emplace_back(level, std::string(message));
  });
  KOSHA_LOG_DEBUG("below threshold %d", 0);
  KOSHA_LOG_INFO("op %s took %dus", "create", 42);
  KOSHA_LOG_WARN("retry %d", 3);
  set_log_sink({});  // restore default before asserting
  set_log_level(saved);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kInfo);
  EXPECT_EQ(captured[0].second, "op create took 42us");
  EXPECT_EQ(captured[1].first, LogLevel::kWarn);
  EXPECT_EQ(captured[1].second, "retry 3");
}

TEST(Log, ConcurrentMessagesDoNotInterleave) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kInfo);
  std::vector<std::string> captured;
  // The sink runs under the logger's mutex, so no locking needed here.
  set_log_sink([&](LogLevel, std::string_view message) {
    captured.emplace_back(message);
  });
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        KOSHA_LOG_INFO("thread=%d seq=%d", t, i);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  set_log_sink({});
  set_log_level(saved);
  ASSERT_EQ(captured.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  // Every message must be intact (never spliced with another thread's).
  int per_thread_seen[kThreads] = {};
  for (const std::string& m : captured) {
    int t = -1;
    int seq = -1;
    ASSERT_EQ(std::sscanf(m.c_str(), "thread=%d seq=%d", &t, &seq), 2) << m;
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    ++per_thread_seen[t];
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_thread_seen[t], kPerThread);
}

TEST(OverlayCosts, JoinTrafficStaysBounded) {
  // The join protocol contacts the bootstrap, the route path, and the
  // nodes in the new node's state — O(leaf set + log N), never O(N).
  SimClock clock;
  EventLoop loop(&clock);
  net::SimNetwork network({}, loop);
  pastry::PastryOverlay overlay({}, &network);
  Rng rng(2024);
  std::uint64_t before = 0;
  std::uint64_t cost_at_64 = 0;
  std::uint64_t cost_at_256 = 0;
  for (int i = 0; i < 256; ++i) {
    before = network.stats().messages;
    overlay.join(rng.next_id(), network.add_host());
    const std::uint64_t cost = network.stats().messages - before;
    if (i == 63) cost_at_64 = cost;
    if (i == 255) cost_at_256 = cost;
  }
  EXPECT_GT(cost_at_64, 0u);
  // 4x more nodes must not cost anywhere near 4x the join messages.
  EXPECT_LT(cost_at_256, cost_at_64 * 3);
  EXPECT_LT(cost_at_256, 200u);  // absolute sanity: not O(N)
}

TEST(OverlayCosts, FailureRepairTrafficBounded) {
  SimClock clock;
  EventLoop loop(&clock);
  net::SimNetwork network({}, loop);
  pastry::PastryOverlay overlay({}, &network);
  Rng rng(2025);
  std::vector<pastry::NodeId> ids;
  for (int i = 0; i < 128; ++i) {
    const auto id = rng.next_id();
    ids.push_back(id);
    overlay.join(id, network.add_host());
  }
  const std::uint64_t before = network.stats().messages;
  overlay.fail(ids[100]);
  const std::uint64_t repair = network.stats().messages - before;
  // Repair touches the failed node's leaf-set members and their members:
  // O(l^2), independent of N.
  EXPECT_GT(repair, 0u);
  EXPECT_LT(repair, 1200u);
}

}  // namespace
}  // namespace kosha
