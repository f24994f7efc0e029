// Randomised churn property tests: interleave file-system operations with
// node joins, crashes and revivals, and check that (a) data written is
// readable as long as failures never outpace the replication factor
// between repair rounds, and (b) the namespace stays consistent across
// clients.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/event_loop.hpp"
#include "common/rng.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "kosha/repair.hpp"

namespace kosha {
namespace {

class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, DataSurvivesBoundedChurn) {
  ClusterConfig config;
  config.nodes = 10;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  config.node_capacity_bytes = 1ull << 30;
  config.seed = GetParam();
  KoshaCluster cluster(config);
  Rng rng(GetParam() * 31 + 5);
  KoshaMount mount(&cluster.daemon(0));  // host 0 is never killed

  std::map<std::string, std::string> expected;  // path -> content

  auto random_dir = [&] {
    return "/u" + std::to_string(rng.next_below(4)) + "/d" + std::to_string(rng.next_below(3));
  };

  for (int round = 0; round < 60; ++round) {
    const unsigned action = static_cast<unsigned>(rng.next_below(10));
    if (action < 5) {
      // Write or overwrite a file.
      const std::string dir = random_dir();
      ASSERT_TRUE(mount.mkdir_p(dir).ok());
      const std::string path = dir + "/f" + std::to_string(rng.next_below(6));
      const std::string content = "r" + std::to_string(round) + "-" + rng.next_name(12);
      ASSERT_TRUE(mount.write_file(path, content).ok()) << path;
      expected[path] = content;
    } else if (action < 7) {
      // Delete a known file.
      if (!expected.empty()) {
        auto it = expected.begin();
        std::advance(it, static_cast<long>(rng.next_below(expected.size())));
        ASSERT_TRUE(mount.remove(it->first).ok()) << it->first;
        expected.erase(it);
      }
    } else if (action < 8) {
      // Crash one random non-client node (single failure, then repair
      // completes synchronously — within the replication factor).
      const auto hosts = cluster.live_hosts();
      if (hosts.size() > 4) {
        const net::HostId victim = hosts[1 + rng.next_below(hosts.size() - 1)];
        cluster.fail_node(victim);
      }
    } else if (action < 9) {
      // Revive a crashed node, if any.
      for (net::HostId host = 0; host < 16; ++host) {
        if (host < cluster.network().host_count() && !cluster.is_up(host)) {
          cluster.revive_node(host);
          break;
        }
      }
    } else {
      (void)cluster.add_node();
    }

    // Invariant: everything written is readable with the right content.
    for (const auto& [path, content] : expected) {
      const auto read = mount.read_file(path);
      ASSERT_TRUE(read.ok()) << "round " << round << " lost " << path;
      ASSERT_EQ(read.value(), content) << "round " << round << " corrupted " << path;
    }
  }

  // Final cross-client consistency check from a surviving host.
  const auto hosts = cluster.live_hosts();
  KoshaMount other(&cluster.daemon(hosts.back()));
  for (const auto& [path, content] : expected) {
    const auto read = other.read_file(path);
    ASSERT_TRUE(read.ok()) << path;
    EXPECT_EQ(read.value(), content);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

TEST(ClusterChurn, MassJoinThenMassFailure) {
  ClusterConfig config;
  config.nodes = 4;
  config.kosha.distribution_level = 1;
  config.kosha.replicas = 3;
  config.seed = 61;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/grow").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(mount.write_file("/grow/f" + std::to_string(i), std::to_string(i)).ok());
  }
  // Triple the cluster.
  for (int i = 0; i < 8; ++i) (void)cluster.add_node();
  // Then kill three non-client nodes, one at a time (repair in between).
  Rng rng(62);
  for (int k = 0; k < 3; ++k) {
    const auto hosts = cluster.live_hosts();
    cluster.fail_node(hosts[1 + rng.next_below(hosts.size() - 1)]);
  }
  for (int i = 0; i < 10; ++i) {
    const auto content = mount.read_file("/grow/f" + std::to_string(i));
    ASSERT_TRUE(content.ok()) << i;
    EXPECT_EQ(content.value(), std::to_string(i));
  }
}

// --- self-healing mode (DESIGN §8): no oracle, detectors + daemons -------

TEST(ClusterChurn, SelfHealingChurnConvergesWithoutOracle) {
  ClusterConfig config;
  config.nodes = 10;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  config.seed = 911;
  config.self_heal.enabled = true;
  KoshaCluster cluster(config);
  Rng rng(912);
  KoshaMount mount(&cluster.daemon(0));

  std::map<std::string, std::string> expected;
  const auto settle = [&](double seconds) {
    cluster.loop().run_until_time(cluster.clock().now() + SimDuration::seconds(seconds));
  };

  for (int round = 0; round < 8; ++round) {
    // Write a couple of files.
    const std::string dir = "/sh/d" + std::to_string(rng.next_below(3));
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    for (int i = 0; i < 2; ++i) {
      const std::string path = dir + "/f" + std::to_string(rng.next_below(5));
      const std::string content = "r" + std::to_string(round) + "-" + rng.next_name(10);
      ASSERT_TRUE(mount.write_file(path, content).ok()) << path;
      expected[path] = content;
    }

    // One failure per round — discovered and repaired autonomously while
    // virtual time runs (fail_node only stops the host here).
    const auto hosts = cluster.live_hosts();
    if (hosts.size() > 6 && round % 2 == 0) {
      cluster.fail_node(hosts[1 + rng.next_below(hosts.size() - 1)]);
    } else if (round % 3 == 1) {
      (void)cluster.add_node();
    }
    settle(6.0);

    // Everything written is still readable with the right bytes.
    for (const auto& [path, content] : expected) {
      const auto read = mount.read_file(path);
      ASSERT_TRUE(read.ok()) << "round " << round << " lost " << path;
      ASSERT_EQ(read.value(), content) << "round " << round << " corrupted " << path;
    }
  }

  // Every real failure was detected; nothing is pending.
  EXPECT_EQ(cluster.undetected_failures(), 0u);
  EXPECT_FALSE(cluster.detections().empty());
}

TEST(ClusterChurn, ReviveRejoinsThroughJoinProtocolWithCleanDetectorState) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.seed = 913;
  config.self_heal.enabled = true;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  ASSERT_TRUE(mount.mkdir_p("/rv").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(mount.write_file("/rv/f" + std::to_string(i), std::to_string(i)).ok());
  }

  const net::HostId victim = cluster.live_hosts().back();
  const pastry::NodeId old_id = cluster.node_id(victim);
  cluster.fail_node(victim);
  EXPECT_EQ(cluster.detector(victim), nullptr);
  EXPECT_EQ(cluster.repair_daemon(victim), nullptr);
  // Let the survivors actually detect and repair before the revival.
  cluster.loop().run_until_time(cluster.clock().now() + SimDuration::seconds(5));
  ASSERT_EQ(cluster.detections().size(), 1u);

  cluster.revive_node(victim);
  // The revival routes through the normal join protocol: fresh node id,
  // fresh detector and repair daemon, running from the start.
  const pastry::NodeId new_id = cluster.node_id(victim);
  EXPECT_NE(new_id, old_id);
  ASSERT_NE(cluster.detector(victim), nullptr);
  EXPECT_TRUE(cluster.detector(victim)->running());
  ASSERT_NE(cluster.repair_daemon(victim), nullptr);
  EXPECT_TRUE(cluster.repair_daemon(victim)->running());

  cluster.loop().run_until_time(cluster.clock().now() + SimDuration::seconds(8));
  // No survivor may hold a lingering verdict against the reborn node: the
  // new incarnation must be a first-class member again.
  for (const net::HostId host : cluster.live_hosts()) {
    if (const pastry::FailureDetector* d = cluster.detector(host)) {
      EXPECT_FALSE(d->is_suspected(new_id)) << host;
      EXPECT_FALSE(d->has_declared_dead(new_id)) << host;
    }
  }
  for (int i = 0; i < 6; ++i) {
    const auto read = mount.read_file("/rv/f" + std::to_string(i));
    ASSERT_TRUE(read.ok()) << i;
    EXPECT_EQ(read.value(), std::to_string(i));
  }
}

TEST(ClusterChurn, ClientHandlesStayValidAcrossFailover) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.replicas = 2;
  config.seed = 63;
  KoshaCluster cluster(config);
  auto& daemon = cluster.daemon(0);
  KoshaMount mount(&daemon);
  ASSERT_TRUE(mount.mkdir_p("/h").ok());
  ASSERT_TRUE(mount.write_file("/h/f", "before").ok());
  const auto vh = mount.resolve("/h/f");
  ASSERT_TRUE(vh.ok());

  const net::HostId primary = daemon.handle_table().find(*vh)->real.server;
  if (primary != 0) {
    cluster.fail_node(primary);
    // The *same* virtual handle keeps working (paper §4.4).
    const auto read = daemon.read(*vh, 0, 100);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->data, "before");
    const auto written = daemon.write(*vh, 0, "after!");
    ASSERT_TRUE(written.ok());
    EXPECT_EQ(mount.read_file("/h/f").value(), "after!");
    EXPECT_GE(daemon.stats().failovers, 1u);
  }
}

// Membership is background work (DESIGN §8): joins, departures, oracle
// repair and the self-healing detect-and-repair cycle count their traffic
// in NetStats but never move the clock. Only the event loop and
// foreground operations do.

ClusterConfig membership_config(bool self_heal) {
  ClusterConfig config;
  config.nodes = 8;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 2;
  config.seed = 17;
  config.self_heal.enabled = self_heal;
  return config;
}

void write_some_files(KoshaCluster& cluster) {
  KoshaMount mount(&cluster.daemon(0));
  for (int d = 0; d < 6; ++d) {
    const std::string dir = "/u" + std::to_string(d) + "/d";
    ASSERT_TRUE(mount.mkdir_p(dir).ok());
    ASSERT_TRUE(mount.write_file(dir + "/f", std::string(512, 'a' + d)).ok());
  }
}

/// Run `change` and expect it to leave the clock where it was while its
/// messages and bytes are still counted.
template <typename Change>
void expect_counted_not_timed(KoshaCluster& cluster, const char* what, Change&& change) {
  const SimDuration before = cluster.clock().now();
  const net::NetStats counted = cluster.network().stats();
  change();
  EXPECT_EQ(cluster.clock().now().ns, before.ns) << what;
  EXPECT_GT(cluster.network().stats().messages, counted.messages) << what;
  EXPECT_GT(cluster.network().stats().bytes, counted.bytes) << what;
}

TEST(MembershipClock, OracleMembershipChangesNeverMoveTheClock) {
  KoshaCluster cluster(membership_config(false));
  EXPECT_EQ(cluster.clock().now().ns, 0);  // eight joins
  EXPECT_GT(cluster.network().stats().messages, 0u);
  write_some_files(cluster);
  net::HostId added = 0;
  expect_counted_not_timed(cluster, "add_node", [&] { added = cluster.add_node(); });
  expect_counted_not_timed(cluster, "retire_node", [&] { cluster.retire_node(added); });
  expect_counted_not_timed(cluster, "fail_node", [&] { cluster.fail_node(3); });
  expect_counted_not_timed(cluster, "revive_node", [&] { cluster.revive_node(3); });
}

TEST(MembershipClock, SelfHealingCycleMovesTheClockOnlyThroughTheLoop) {
  KoshaCluster cluster(membership_config(true));
  EXPECT_EQ(cluster.clock().now().ns, 0);
  write_some_files(cluster);
  expect_counted_not_timed(cluster, "add_node", [&] { (void)cluster.add_node(); });

  const SimDuration failed_at = cluster.clock().now();
  cluster.fail_node(3);  // oracle-free: only the detectors can notice
  EXPECT_EQ(cluster.clock().now().ns, failed_at.ns);
  const net::NetStats counted = cluster.network().stats();
  // Drive detection and repair in 10 us slices. Each slice must end with
  // the clock exactly where run_until_time put it: a callback that moved
  // the clock by more than a slice would leave it past the target.
  const SimDuration slice = SimDuration::micros(10);
  for (SimDuration t = failed_at + slice; t <= failed_at + SimDuration::seconds(3); t += slice) {
    cluster.loop().run_until_time(t);
    ASSERT_EQ(cluster.clock().now().ns, t.ns);
  }
  ASSERT_EQ(cluster.detections().size(), 1u);
  std::uint64_t repaired = 0;
  for (const net::HostId host : cluster.live_hosts()) {
    const RepairDaemonStats& s = cluster.repair_daemon(host)->stats();
    repaired += s.promoted + s.handed_off + s.pushed;
  }
  EXPECT_GT(repaired, 0u);
  EXPECT_GT(cluster.network().stats().messages, counted.messages);
  EXPECT_GT(cluster.network().stats().bytes, counted.bytes);
}

}  // namespace
}  // namespace kosha
