// Larger-scale behaviour: overlay routing at hundreds of nodes, hop-count
// growth, and a mid-sized cluster exercising the full stack. Kept under a
// few seconds of wall time.

#include <gtest/gtest.h>

#include "common/event_loop.hpp"
#include "common/rng.hpp"
#include "kosha/audit.hpp"
#include "kosha/mount.hpp"
#include "net/sim_network.hpp"
#include "pastry/overlay.hpp"

namespace kosha {
namespace {

TEST(Scale, OverlayRoutingAt512Nodes) {
  SimClock clock;
  EventLoop loop(&clock);
  net::SimNetwork network({}, loop);
  pastry::PastryOverlay overlay({}, &network);
  Rng rng(1001);
  std::vector<pastry::NodeId> ids;
  for (int i = 0; i < 512; ++i) {
    const auto id = rng.next_id();
    ids.push_back(id);
    overlay.join(id, network.add_host());
  }
  // Routing agrees with ground truth from random sources.
  for (int trial = 0; trial < 300; ++trial) {
    const auto key = rng.next_id();
    const auto from = static_cast<net::HostId>(rng.next_below(512));
    EXPECT_EQ(overlay.route(from, key).owner, overlay.ring().owner(key));
  }
}

TEST(Scale, HopCountGrowsLogarithmically) {
  Rng rng(1002);
  double mean_hops_small = 0;
  double mean_hops_large = 0;
  for (const std::size_t n : {std::size_t{32}, std::size_t{512}}) {
    SimClock clock;
    EventLoop loop(&clock);
    net::SimNetwork network({}, loop);
    pastry::PastryOverlay overlay({}, &network);
    for (std::size_t i = 0; i < n; ++i) overlay.join(rng.next_id(), network.add_host());
    std::uint64_t hops = 0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) hops += overlay.route(0, rng.next_id()).hops;
    const double mean = static_cast<double>(hops) / trials;
    if (n == 32) {
      mean_hops_small = mean;
    } else {
      mean_hops_large = mean;
    }
  }
  EXPECT_GT(mean_hops_large, mean_hops_small);
  // 16x more nodes must cost far less than 16x the hops (log growth).
  EXPECT_LT(mean_hops_large, mean_hops_small * 3.0);
  EXPECT_LT(mean_hops_large, 4.0);  // log16(512) ~ 2.25 plus slack
}

TEST(Scale, OverlaySurvivesHeavyChurnAt128Nodes) {
  SimClock clock;
  EventLoop loop(&clock);
  net::SimNetwork network({}, loop);
  pastry::PastryOverlay overlay({}, &network);
  Rng rng(1003);
  std::vector<pastry::NodeId> live;
  for (int i = 0; i < 128; ++i) {
    const auto id = rng.next_id();
    live.push_back(id);
    overlay.join(id, network.add_host());
  }
  for (int round = 0; round < 60; ++round) {
    if (rng.next_bool(0.5) && live.size() > 8) {
      const std::size_t victim = 1 + rng.next_below(live.size() - 1);
      overlay.fail(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const auto id = rng.next_id();
      overlay.join(id, network.add_host());
      live.push_back(id);
    }
  }
  for (int trial = 0; trial < 200; ++trial) {
    const auto key = rng.next_id();
    EXPECT_EQ(overlay.route(overlay.host_of(live[0]), key).owner,
              overlay.ring().owner(key));
  }
}

TEST(Scale, FullStackThirtyTwoNodes) {
  ClusterConfig config;
  config.nodes = 32;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  config.seed = 1004;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  Rng rng(1005);

  for (int i = 0; i < 40; ++i) {
    const std::string dir = "/u" + std::to_string(i % 8) + "/p" + std::to_string(i % 5);
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    ASSERT_TRUE(mount.write_file(dir + "/f" + std::to_string(i), rng.next_name(64)).ok());
  }
  // Kill four nodes (one at a time) and add two.
  for (int k = 0; k < 4; ++k) {
    const auto hosts = cluster.live_hosts();
    cluster.fail_node(hosts[1 + rng.next_below(hosts.size() - 1)]);
  }
  (void)cluster.add_node();
  (void)cluster.add_node();

  const auto report = audit_cluster(cluster);
  EXPECT_TRUE(report.clean()) << report.to_string();
  // Data spread across many nodes.
  int holding = 0;
  for (const auto host : cluster.live_hosts()) {
    if (cluster.server(host).store().used_bytes() > 0) ++holding;
  }
  EXPECT_GT(holding, 8);
}

}  // namespace
}  // namespace kosha
