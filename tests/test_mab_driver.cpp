// Integration tests for the Modified Andrew Benchmark driver against both
// mounts, plus cross-system sanity of the phase accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/nfs_mount.hpp"
#include "common/event_loop.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"
#include "trace/mab.hpp"

namespace kosha {
namespace {

trace::MabConfig tiny_mab(std::uint64_t seed) {
  trace::MabConfig config;
  config.seed = seed;
  config.files = 40;
  config.total_dirs = 16;
  config.total_bytes = 2 << 20;
  return config;
}

TEST(MabDriver, RunsOnKoshaAndCleansUp) {
  ClusterConfig config;
  config.nodes = 4;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = 1;
  config.seed = 71;
  KoshaCluster cluster(config);
  KoshaMount mount(&cluster.daemon(0));
  const auto workload = trace::generate_mab(tiny_mab(1));

  const auto times = trace::run_mab(mount, workload, cluster.clock());
  EXPECT_GT(times.mkdir_s, 0.0);
  EXPECT_GT(times.copy_s, 0.0);
  EXPECT_GT(times.stat_s, 0.0);
  EXPECT_GT(times.grep_s, 0.0);
  EXPECT_GT(times.compile_s, 0.0);
  EXPECT_GT(times.total(), times.compile_s);

  // The copy tree exists and matches the workload.
  for (const auto& file : workload.files) {
    const auto content = mount.read_file(trace::mab_copy_path(file.path));
    ASSERT_TRUE(content.ok()) << file.path;
    EXPECT_EQ(content->size(), file.size);
  }

  trace::cleanup_mab(mount, workload);
  // Cleanup reclaims every byte (replicas included).
  std::uint64_t total = 0;
  for (const auto host : cluster.live_hosts()) {
    total += cluster.server(host).store().used_bytes();
  }
  EXPECT_EQ(total, 0u);
}

TEST(MabDriver, RunsOnPlainNfs) {
  SimClock clock;
  EventLoop loop(&clock);
  net::SimNetwork network({}, loop);
  const net::HostId client = network.add_host();
  const net::HostId server_host = network.add_host();
  nfs::NfsServer server(server_host, {}, {}, &clock);
  nfs::ServerDirectory directory;
  directory.add(&server);
  baseline::NfsMount mount(&network, &directory, client, server_host);

  const auto workload = trace::generate_mab(tiny_mab(2));
  const auto times = trace::run_mab(mount, workload, clock);
  EXPECT_GT(times.total(), 0.0);
  trace::cleanup_mab(mount, workload);
  EXPECT_EQ(server.store().used_bytes(), 0u);
}

TEST(MabDriver, PlainNfsPhaseTimesArePinned) {
  // One client, one server, one RPC in flight: every phase costs the sum
  // of its wire trips and service times. Recorded from the serial
  // call-and-advance model that preceded the event loop; any drift is a
  // behaviour change in the RPC path.
  SimClock clock;
  EventLoop loop(&clock);
  net::SimNetwork network({}, loop);
  const net::HostId client = network.add_host();
  const net::HostId server_host = network.add_host();
  nfs::NfsServer server(server_host, {}, {}, &clock);
  nfs::ServerDirectory directory;
  directory.add(&server);
  baseline::NfsMount mount(&network, &directory, client, server_host);

  const auto times = trace::run_mab(mount, trace::generate_mab(tiny_mab(2)), clock);
  const auto ns = [](double seconds) { return std::llround(seconds * 1e9); };
  EXPECT_EQ(ns(times.mkdir_s), 21'914'560);
  EXPECT_EQ(ns(times.copy_s), 300'724'659);
  EXPECT_EQ(ns(times.stat_s), 21'996'800);
  EXPECT_EQ(ns(times.grep_s), 261'106'865);
  EXPECT_EQ(ns(times.compile_s), 1'772'261'533);
  EXPECT_EQ(network.stats().messages, 982u);
  EXPECT_EQ(network.stats().bytes, 7'634'676u);
}

TEST(MabDriver, KoshaOverheadIsBoundedAndPositive) {
  // A coarse guard on the paper's headline: Kosha costs more than plain
  // NFS, but not an order of magnitude more.
  const auto workload = trace::generate_mab(tiny_mab(3));

  double nfs_total = 0;
  {
    SimClock clock;
    EventLoop loop(&clock);
    net::SimNetwork network({}, loop);
    const net::HostId client = network.add_host();
    const net::HostId server_host = network.add_host();
    nfs::NfsServer server(server_host, {}, {}, &clock);
    nfs::ServerDirectory directory;
    directory.add(&server);
    baseline::NfsMount mount(&network, &directory, client, server_host);
    nfs_total = trace::run_mab(mount, workload, clock).total();
  }
  double kosha_total = 0;
  {
    ClusterConfig config;
    config.nodes = 8;
    config.kosha.replicas = 1;
    config.seed = 73;
    KoshaCluster cluster(config);
    KoshaMount mount(&cluster.daemon(0));
    kosha_total = trace::run_mab(mount, workload, cluster.clock()).total();
  }
  EXPECT_GT(kosha_total, nfs_total);
  EXPECT_LT(kosha_total, nfs_total * 1.6);
}

TEST(MabDriver, PhaseTimesAccumulateAndAverage) {
  trace::MabPhaseTimes sum;
  trace::MabPhaseTimes one;
  one.mkdir_s = 1;
  one.copy_s = 2;
  one.stat_s = 3;
  one.grep_s = 4;
  one.compile_s = 5;
  sum += one;
  sum += one;
  sum /= 2.0;
  EXPECT_DOUBLE_EQ(sum.total(), 15.0);
  EXPECT_DOUBLE_EQ(sum.copy_s, 2.0);
}

}  // namespace
}  // namespace kosha
