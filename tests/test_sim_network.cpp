// Simulated network tests: the wire-time model, message accounting,
// liveness, timeouts, and message planning under a fault plan.

#include <gtest/gtest.h>

#include "common/event_loop.hpp"
#include "net/sim_network.hpp"

namespace kosha::net {
namespace {

TEST(SimNetwork, AddHostsStartUp) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(network.host_count(), 2u);
  EXPECT_TRUE(network.is_up(a));
  network.set_up(a, false);
  EXPECT_FALSE(network.is_up(a));
}

TEST(SimNetwork, RemoteWireTimeIsHopLatency) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(100);
  config.per_byte = SimDuration::nanos(0);
  EventLoop loop(&clock);
  SimNetwork network(config, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  EXPECT_EQ(network.wire_time(a, b, 0).ns, SimDuration::micros(100).ns);
}

TEST(SimNetwork, LocalWireTimeIsLoopbackLatency) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(100);
  config.local_latency = SimDuration::micros(10);
  config.per_byte = SimDuration::nanos(0);
  EventLoop loop(&clock);
  SimNetwork network(config, loop);
  const HostId a = network.add_host();
  EXPECT_EQ(network.wire_time(a, a, 0).ns, SimDuration::micros(10).ns);
}

TEST(SimNetwork, WireTimeChargesPayloadBytes) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(0);
  config.local_latency = SimDuration::micros(0);
  config.per_byte = SimDuration::nanos(80);
  EventLoop loop(&clock);
  SimNetwork network(config, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  EXPECT_EQ(network.wire_time(a, b, 1000).ns, 80'000);
  // A planned message arrives exactly one wire time after it is sent.
  EXPECT_EQ(network.plan_message(a, b, 1000, SimDuration::millis(1)).arrival.ns,
            SimDuration::millis(1).ns + 80'000);
}

TEST(SimNetwork, CountingNeverMovesTheClock) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  network.count_message(1000);
  EXPECT_EQ(network.stats().messages, 1u);
  EXPECT_EQ(network.stats().bytes, 1000u);
  network.note_timeout();
  EXPECT_EQ(network.stats().timeouts, 1u);
  EXPECT_EQ(clock.now().ns, 0);
}

TEST(SimNetwork, RttIsTwoMessages) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  network.count_rtt(64);
  EXPECT_EQ(network.stats().messages, 2u);
  EXPECT_EQ(network.stats().bytes, 64u);  // reply payload not counted
}

TEST(SimNetwork, OverlayHopCountsOnlyRemote) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  network.count_overlay_hop(a, a);
  EXPECT_EQ(network.stats().overlay_hops, 0u);
  network.count_overlay_hop(a, b);
  EXPECT_EQ(network.stats().overlay_hops, 1u);
  EXPECT_EQ(network.stats().messages, 2u);
}

TEST(FaultPlan, NoPlanDeliversEverything) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  EXPECT_TRUE(network.plan_message(a, b, 0, clock.now()).delivered);
  EXPECT_EQ(network.stats().messages, 1u);
  EXPECT_EQ(network.stats().drops, 0u);
}

TEST(FaultPlan, DropProbabilityOneLosesEveryRemoteMessage) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  FaultPlanConfig fault;
  fault.drop_probability = 1.0;
  network.set_fault_plan(std::make_unique<FaultPlan>(fault));
  EXPECT_FALSE(network.plan_message(a, b, 0, clock.now()).delivered);
  EXPECT_EQ(network.stats().drops, 1u);
  EXPECT_EQ(network.stats().messages, 0u);
  EXPECT_EQ(clock.now().ns, 0);  // planning never moves the clock
  // Loopback traffic never traverses the wire and is never judged.
  EXPECT_TRUE(network.plan_message(a, a, 0, clock.now()).delivered);
}

TEST(FaultPlan, BrownoutWindowIsBounded) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  auto plan = std::make_unique<FaultPlan>(FaultPlanConfig{});
  plan->add_brownout(b, SimDuration::millis(10), SimDuration::millis(20));
  network.set_fault_plan(std::move(plan));

  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration{}).delivered);  // before the window
  const SimDuration during = SimDuration::millis(15);
  EXPECT_FALSE(network.plan_message(a, b, 0, during).delivered);  // to the host
  EXPECT_FALSE(network.plan_message(b, a, 0, during).delivered);  // and from it
  EXPECT_EQ(network.stats().drops, 2u);
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration::millis(25)).delivered);  // after
}

TEST(FaultPlan, PartitionBlocksCrossGroupTrafficOnly) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  const HostId c = network.add_host();
  auto plan = std::make_unique<FaultPlan>(FaultPlanConfig{});
  plan->add_partition({a}, {b}, SimDuration::nanos(0), SimDuration::seconds(1));
  network.set_fault_plan(std::move(plan));

  const SimDuration during{};
  EXPECT_FALSE(network.plan_message(a, b, 0, during).delivered);
  EXPECT_FALSE(network.plan_message(b, a, 0, during).delivered);
  EXPECT_EQ(network.stats().partitioned, 2u);
  EXPECT_TRUE(network.plan_message(a, c, 0, during).delivered);  // same side / unlisted host
  EXPECT_TRUE(network.plan_message(a, b, 0, SimDuration::seconds(2)).delivered);  // expired
}

TEST(FaultPlan, ForcedDropHitsTheScheduledMessage) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  network.set_fault_plan(std::make_unique<FaultPlan>(FaultPlanConfig{}));
  network.fault_plan()->force_drop_message(2);
  EXPECT_TRUE(network.plan_message(a, b, 0, clock.now()).delivered);
  EXPECT_FALSE(network.plan_message(a, b, 0, clock.now()).delivered);
  EXPECT_TRUE(network.plan_message(a, b, 0, clock.now()).delivered);
}

TEST(FaultPlan, LatencySpikeCharged) {
  SimClock clock;
  NetworkConfig config;
  config.hop_latency = SimDuration::micros(100);
  config.per_byte = SimDuration::nanos(0);
  EventLoop loop(&clock);
  SimNetwork network(config, loop);
  const HostId a = network.add_host();
  const HostId b = network.add_host();
  FaultPlanConfig fault;
  fault.latency_spike_probability = 1.0;
  fault.latency_spike = SimDuration::millis(3);
  network.set_fault_plan(std::make_unique<FaultPlan>(fault));
  const auto plan = network.plan_message(a, b, 0, SimDuration::millis(1));
  EXPECT_TRUE(plan.delivered);
  EXPECT_EQ(plan.arrival.ns,
            (SimDuration::millis(1) + SimDuration::micros(100) + SimDuration::millis(3)).ns);
}

TEST(FaultPlan, SameSeedSameVerdicts) {
  FaultPlanConfig fault;
  fault.seed = 7;
  fault.drop_probability = 0.3;
  FaultPlan p1(fault);
  FaultPlan p2(fault);
  for (int i = 0; i < 200; ++i) {
    const auto now = SimDuration::millis(i);
    EXPECT_EQ(static_cast<int>(p1.judge(0, 1, now)), static_cast<int>(p2.judge(0, 1, now)));
  }
}

TEST(SimNetwork, StatsReset) {
  SimClock clock;
  EventLoop loop(&clock);
  SimNetwork network({}, loop);
  network.count_message(10);
  network.stats().reset();
  EXPECT_EQ(network.stats().messages, 0u);
  EXPECT_EQ(network.stats().bytes, 0u);
}

}  // namespace
}  // namespace kosha::net
