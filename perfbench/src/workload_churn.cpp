// churn: one closed-loop client on a self-healing 64-node cluster
// (distribution level 2, K = 2) working over ~2,000 pre-written files of
// 1–17 KiB: 60% verified reads, 25% rewrites, 15% stats, with 2 ms of think
// time on the event loop between ops. Every 500 ops one node retires and,
// offset by 250 ops, one node joins; the schedule is by op count, so the
// churn per op does not depend on speed. The failure detector, the repair
// daemon, the failover ladder and join migration do the work here.
//
// The run ends with a bounded wait for repair to converge, a re-read of
// every file, and a direct walk of every live store counting copies.
//
// --seed drives the client: file sizes, the op mix and which file each op
// touches. The testbed — node ids and which node leaves when — is the same
// in every run. A departed node's share of the client's files sets how
// many ops pay a response timeout afterwards, and Pastry shares vary about
// as much as their mean, so a seeded victim list moved every figure of this
// workload by up to 10x between seeds.

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "kosha/mount.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using kosha::KoshaCluster;
using kosha::SimDuration;

constexpr std::size_t kNodes = 64;
/// Seed of the fixed testbed: node ids and the membership schedule.
constexpr std::uint64_t kTestbedSeed = 42;
constexpr unsigned kReplicas = 2;
constexpr std::size_t kTopDirs = 8;
constexpr std::size_t kSubDirs = 8;
constexpr std::size_t kFiles = 2048;
constexpr std::size_t kOps = 8000;
constexpr std::size_t kChurnEvery = 500;
constexpr SimDuration kThink = SimDuration::millis(2);
/// Convergence wait after the last op: poll every step, give up at the cap.
constexpr SimDuration kSettleStep = SimDuration::millis(500);
constexpr SimDuration kSettleCap = SimDuration::seconds(60);

struct File {
  std::string path;
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  std::uint64_t hash = 0;
};

std::uint64_t draw_size(kosha::Rng& rng) { return 1024 + rng.next_below(16 * 1024 + 1); }

/// Σ of a per-node daemon counter over the live nodes.
template <typename Get>
std::uint64_t sum_live(KoshaCluster& cluster, Get&& get) {
  std::uint64_t total = 0;
  for (const kosha::net::HostId host : cluster.live_hosts()) total += get(host);
  return total;
}

std::uint64_t probes_on(KoshaCluster& cluster, kosha::net::HostId host) {
  const auto* d = cluster.detector(host);
  return d == nullptr ? 0 : d->stats().probes_sent;
}

std::uint64_t pushes_on(KoshaCluster& cluster, kosha::net::HostId host) {
  const auto* r = cluster.repair_daemon(host);
  return r == nullptr ? 0 : r->stats().pushed;
}

/// Count every file's content, by hash, over a direct walk of each live
/// node's store.
void count_stored_copies(KoshaCluster& cluster,
                         std::unordered_map<std::uint64_t, std::size_t>& copies) {
  for (const kosha::net::HostId host : cluster.live_hosts()) {
    const kosha::fs::StorageBackend& store = cluster.server(host).store();
    std::vector<kosha::fs::InodeId> pending{store.root()};
    while (!pending.empty()) {
      const kosha::fs::InodeId dir = pending.back();
      pending.pop_back();
      const auto entries = store.readdir(dir);
      if (!entries.ok()) continue;
      for (const auto& entry : entries.value()) {
        if (entry.type == kosha::fs::FileType::kDirectory) {
          pending.push_back(entry.inode);
        } else if (entry.type == kosha::fs::FileType::kFile) {
          const auto attr = store.getattr(entry.inode);
          if (!attr.ok()) continue;
          const auto bytes = store.read(entry.inode, 0, static_cast<std::uint32_t>(attr->size));
          if (bytes.ok()) ++copies[content_hash(bytes.value())];
        }
      }
    }
  }
}

}  // namespace

RepResult run_churn(const Options& options) {
  RepResult rep;
  const std::uint64_t setup0 = wall_ns();
  kosha::ClusterConfig config;
  config.nodes = kNodes;
  config.seed = kTestbedSeed;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = kReplicas;
  config.self_heal.enabled = true;
  config.observability.tracing = options.traced;
  config.observability.profiling = options.traced;
  const auto cluster = build_cluster(config, rep);

  // Set-up: write every file once (part of setup_s).
  const kosha::net::HostId client = 0;  // never retired
  kosha::KoshaMount mount(&cluster->daemon(client));
  kosha::Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 0x636875726eull);
  kosha::Rng membership(kTestbedSeed);
  std::vector<File> files(kFiles);
  for (std::size_t i = 0; i < kFiles; ++i) {
    File& f = files[i];
    const std::string dir = "/t" + std::to_string(i % kTopDirs) + "/d" +
                            std::to_string((i / kTopDirs) % kSubDirs);
    if (i < kTopDirs * kSubDirs && !mount.mkdir_p(dir).ok()) {
      fail_check(rep, "set-up mkdir failed: " + dir);
    }
    f.path = dir + "/f" + std::to_string(i);
    f.size = draw_size(rng);
    const std::string content = make_content(f.size, i, f.version);
    f.hash = content_hash(content);
    if (!mount.write_file(f.path, content).ok()) fail_check(rep, "set-up write failed: " + f.path);
  }
  cluster->loop().run_until_time(cluster->clock().now() + SimDuration::seconds(1));
  rep.setup_s = static_cast<double>(wall_ns() - setup0) * 1e-9;

  // Timed phase.
  Meter meter(options.traced, &cluster->clock());
  Latencies lat;
  lat.reserve(kOps);
  const std::vector<kosha::net::HostId> client_hosts{client};
  const Counters start = read_counters(*cluster, client_hosts);
  const std::size_t detections0 = cluster->detections().size();
  // Detector and repair counters live on the nodes: count from the live
  // totals now to the live totals at the end plus each retiree's last.
  const std::uint64_t probes0 = sum_live(*cluster, [&](auto h) { return probes_on(*cluster, h); });
  const std::uint64_t pushes0 = sum_live(*cluster, [&](auto h) { return pushes_on(*cluster, h); });
  std::uint64_t probes_retired = 0;
  std::uint64_t pushes_retired = 0;
  double live_node_seconds = 0;

  const std::uint64_t phase0 = wall_ns();
  for (std::size_t i = 0; i < kOps; ++i) {
    const SimDuration iter0 = cluster->clock().now();
    if (i % kChurnEvery == 0 && i > 0) {
      std::vector<kosha::net::HostId> hosts = cluster->live_hosts();
      std::erase(hosts, client);
      const kosha::net::HostId victim = hosts[membership.next_below(hosts.size())];
      probes_retired += probes_on(*cluster, victim);
      pushes_retired += pushes_on(*cluster, victim);
      meter.call("cluster.retire_node", [&] { cluster->retire_node(victim); });
    } else if (i % kChurnEvery == kChurnEvery / 2) {
      meter.call("cluster.add_node", [&] { return cluster->add_node(); });
    }

    File& f = files[rng.next_below(kFiles)];
    const std::uint64_t kind = rng.next_below(100);
    const SimDuration t0 = cluster->clock().now();
    bool ok = false;
    std::vector<double>* samples = nullptr;
    if (kind < 60) {
      const auto read = meter.call("mount.read_file", [&] { return mount.read_file(f.path); });
      samples = &lat.reads;
      ok = read.ok();
      if (ok && content_hash(read.value()) != f.hash) {
        fail_check(rep, "read returned other than the last acknowledged write: " + f.path);
      }
    } else if (kind < 85) {
      const std::uint64_t size = draw_size(rng);
      const std::string content =
          make_content(size, static_cast<std::uint64_t>(&f - files.data()), f.version + 1);
      const auto wrote =
          meter.call("mount.write_file", [&] { return mount.write_file(f.path, content); });
      samples = &lat.writes;
      ok = wrote.ok();
      if (ok) {
        ++f.version;
        f.size = size;
        f.hash = content_hash(content);
      }
    } else {
      const auto attr = meter.call("mount.stat", [&] { return mount.stat(f.path); });
      ok = attr.ok();
      if (ok && attr->size != f.size) fail_check(rep, "stat size differs: " + f.path);
    }
    const double ms = (cluster->clock().now() - t0).to_millis();
    lat.all.push_back(ms);
    if (samples != nullptr) samples->push_back(ms);
    ++rep.ops;
    if (!ok) {
      ++rep.failed;
      fail_check(rep, "op failed on " + f.path);
    }

    const SimDuration think0 = cluster->clock().now();
    meter.call("loop.run_until_time",
               [&] { return cluster->loop().run_until_time(think0 + kThink); });
    live_node_seconds += static_cast<double>(cluster->live_hosts().size()) *
                         (cluster->clock().now() - iter0).to_seconds();
  }
  rep.phase_s = static_cast<double>(wall_ns() - phase0) * 1e-9;
  const Counters delta = read_counters(*cluster, client_hosts).minus(start);
  const std::uint64_t probes =
      sum_live(*cluster, [&](auto h) { return probes_on(*cluster, h); }) + probes_retired - probes0;
  const std::uint64_t pushes =
      sum_live(*cluster, [&](auto h) { return pushes_on(*cluster, h); }) + pushes_retired - pushes0;

  rep.program_s = static_cast<double>(meter.program_ns()) * 1e-9;
  const double n = static_cast<double>(rep.ops);
  rep.exact["allocs_per_op"] = static_cast<double>(meter.allocs()) / n;
  add_latency_metrics(rep, lat, static_cast<double>(delta[Counters::kVirtNs]) * 1e-9);
  add_counter_metrics(rep, delta, rep.ops);
  rep.exact["koshad.vht_entries"] =
      static_cast<double>(cluster->daemon(client).handle_table().size());
  rep.exact["detector.probes_per_node_s"] = static_cast<double>(probes) / live_node_seconds;
  rep.exact["repair.pushes_per_kop"] = 1000.0 * static_cast<double>(pushes) / n;
  {
    const auto& detections = cluster->detections();
    double sum_ms = 0;
    for (std::size_t d = detections0; d < detections.size(); ++d) {
      sum_ms += (detections[d].detected_at - detections[d].failed_at).to_millis();
    }
    const std::size_t count = detections.size() - detections0;
    rep.exact["detector.detect_ms"] = count == 0 ? 0.0 : sum_ms / static_cast<double>(count);
  }
  rep.wall["mount.write_us"] = meter.ns_per_call({"mount.write_file"}) * 1e-3;
  rep.wall["mount.read_us"] = meter.ns_per_call({"mount.read_file"}) * 1e-3;
  rep.wall["mount.meta_us"] = meter.ns_per_call({"mount.stat"}) * 1e-3;
  rep.wall["membership.retire_ms"] = meter.ns_per_call({"cluster.retire_node"}) * 1e-6;
  rep.wall["membership.join_ms"] = meter.ns_per_call({"cluster.add_node"}) * 1e-6;
  rep.wall["loop.think_ms_per_op"] =
      static_cast<double>(meter.total("loop.run_until_time").ns) * 1e-6 / n;
  rep.wall["loop.events_per_s"] = static_cast<double>(delta[Counters::kEvents]) / rep.program_s;
  rep.traced["trace.coverage"] = static_cast<double>(meter.covered_ns()) * 1e-9 / rep.phase_s;
  if (options.traced) add_trace_metrics(rep, *cluster);

  // Checks: bounded wait for repair to converge, then every file re-reads
  // as last written, and the stores hold min(K + 1, live) copies of each.
  const SimDuration settle_end = cluster->clock().now() + kSettleCap;
  bool converged = false;
  while (!converged && cluster->clock().now() < settle_end) {
    cluster->loop().run_until_time(cluster->clock().now() + kSettleStep);
    converged = cluster->undetected_failures() == 0 &&
                sum_live(*cluster, [&](auto h) {
                  const auto* r = cluster->repair_daemon(h);
                  return r == nullptr ? 0 : r->stats().last_missing;
                }) == 0;
  }
  if (!converged) fail_check(rep, "repair did not converge within the settle bound");
  for (const File& f : files) {
    const auto read = mount.read_file(f.path);
    if (!read.ok() || content_hash(read.value()) != f.hash) {
      fail_check(rep, "after convergence, " + f.path + " does not re-read as last written");
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> copies;
  count_stored_copies(*cluster, copies);
  const std::size_t want = std::min<std::size_t>(kReplicas + 1, cluster->live_hosts().size());
  for (const File& f : files) {
    const auto it = copies.find(f.hash);
    const std::size_t have = it == copies.end() ? 0 : it->second;
    if (have < want) {
      fail_check(rep, f.path + " has " + std::to_string(have) + " stored copies, want " +
                          std::to_string(want));
    }
  }

  if (options.probes) {
    probe_routes(rep, *cluster, options.seed);
    std::vector<std::uint32_t> sizes;
    for (const File& f : files) sizes.push_back(static_cast<std::uint32_t>(f.size));
    probe_storage(rep, sizes, options.seed);
  }
  rep.spans = meter.spans();
  return rep;
}

}  // namespace perfbench
