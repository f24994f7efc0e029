// clients: 2048 closed-loop clients, one per node of a 2048-node cluster,
// through sim::run_multi_client_workload. Each client makes its /u<c>
// directory, creates and writes 8 files of 4 KiB, then reads each file 4
// times (Zipf(1.0) popularity, content verified by the runner): 83,968 ops.
// Metadata and service-queue contention dominate — every client's mkdir
// and first lookups queue at the root's node — and per-byte work is small.
//
// With 512 clients of 32 files each the latency distribution is a
// staircase of service-queue positions (5.4, 8.1, 10.8 ms) and p99 sat on
// a step edge, reading 8.1 ms at some seeds and 10.8 ms at others. With
// 2048 clients the tail lies inside the root's queue, a smooth ramp, and
// p99 moves by under 3% between seeds.
//
// The runner makes the calls, so virtual latencies come from the metrics
// registry's histograms; the registry is on in this workload only. The
// harness registers those histograms first, with 1% geometric buckets:
// the registry's default 1/2/5 ladder interpolates a percentile linearly
// across a bucket as wide as its lower bound.

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "kosha/mount.hpp"
#include "sim/concurrency_driver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 2048;
constexpr std::size_t kClients = 2048;
constexpr std::size_t kFiles = 8;
constexpr std::size_t kFileBytes = 4096;
constexpr std::size_t kReadsPerFile = 4;
constexpr unsigned kReplicas = 1;

/// Latency histograms the runner and the mount feed, registered up front.
constexpr const char* kLatencyHistograms[] = {"sim.op.latency_us", "mount.read_file.latency_us",
                                              "mount.write_file.latency_us",
                                              "mount.mkdir_p.latency_us"};

/// Bucket bounds 1 us .. 1e8 us, each 1% above the last.
std::vector<double> fine_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b < 1e8; b *= 1.01) bounds.push_back(b);
  return bounds;
}

double histogram_ms(const kosha::MetricsRegistry& metrics, const char* name, double p) {
  const kosha::Histogram* h = metrics.find_histogram(name);
  return h == nullptr ? 0.0 : h->percentile(p) / 1000.0;
}

double histogram_count(const kosha::MetricsRegistry& metrics, const char* name) {
  const kosha::Histogram* h = metrics.find_histogram(name);
  return h == nullptr ? 0.0 : static_cast<double>(h->count());
}

}  // namespace

RepResult run_clients(const Options& options) {
  RepResult rep;
  kosha::ClusterConfig config;
  config.nodes = kNodes;
  config.seed = options.seed;
  config.kosha.replicas = kReplicas;
  config.observability.metrics = true;
  config.observability.tracing = options.traced;
  config.observability.profiling = options.traced;
  const auto cluster = build_cluster(config, rep);
  for (const char* name : kLatencyHistograms) {
    (void)cluster->metrics().histogram(name, fine_bounds());
  }

  kosha::sim::WorkloadConfig workload;
  workload.clients = kClients;
  workload.files_per_client = kFiles;
  workload.file_bytes = kFileBytes;
  workload.reads_per_file = kReadsPerFile;
  workload.zipf_s = 1.0;

  // The runner puts client c on the c-th live host.
  const std::vector<kosha::net::HostId> hosts = cluster->live_hosts();
  std::vector<kosha::net::HostId> client_hosts;
  for (std::size_t c = 0; c < kClients; ++c) client_hosts.push_back(hosts[c % hosts.size()]);

  Meter meter(options.traced, &cluster->clock());
  const Counters start = read_counters(*cluster, client_hosts);
  const std::uint64_t phase0 = wall_ns();
  const kosha::sim::WorkloadResult result = meter.call(
      "sim.run_multi_client_workload",
      [&] { return kosha::sim::run_multi_client_workload(*cluster, workload); });
  rep.phase_s = static_cast<double>(wall_ns() - phase0) * 1e-9;
  const Counters delta = read_counters(*cluster, client_hosts).minus(start);

  rep.ops = result.ops;
  rep.failed = result.failures;
  rep.program_s = static_cast<double>(meter.program_ns()) * 1e-9;
  const std::size_t expected_ops = kClients * (1 + kFiles + kFiles * kReadsPerFile);
  if (result.ops != expected_ops) {
    fail_check(rep, "runner made " + std::to_string(result.ops) + " of " +
                        std::to_string(expected_ops) + " ops");
  }
  if (result.failures != 0) {
    fail_check(rep, std::to_string(result.failures) + " client ops failed");
  }

  const kosha::MetricsRegistry& metrics = cluster->metrics();
  rep.exact["allocs_per_op"] = static_cast<double>(meter.allocs()) / static_cast<double>(rep.ops);
  rep.exact["virt_ops_per_s"] = static_cast<double>(result.ops) / result.makespan.to_seconds();
  rep.exact["op_p50_ms"] = histogram_ms(metrics, "sim.op.latency_us", 50);
  rep.exact["op_p99_ms"] = histogram_ms(metrics, "sim.op.latency_us", 99);
  rep.exact["read_p99_ms"] = histogram_ms(metrics, "mount.read_file.latency_us", 99);
  rep.exact["write_p99_ms"] = histogram_ms(metrics, "mount.write_file.latency_us", 99);
  rep.exact["mount.mkdir_p_p50_ms"] = histogram_ms(metrics, "mount.mkdir_p.latency_us", 50);
  rep.exact["samples.reads"] = histogram_count(metrics, "mount.read_file.latency_us");
  rep.exact["samples.writes"] = histogram_count(metrics, "mount.write_file.latency_us");
  add_counter_metrics(rep, delta, rep.ops);
  double vht = 0;
  for (const kosha::net::HostId host : client_hosts) {
    vht += static_cast<double>(cluster->daemon(host).handle_table().size());
  }
  rep.exact["koshad.vht_entries"] = vht;
  rep.wall["loop.events_per_s"] = static_cast<double>(delta[Counters::kEvents]) / rep.program_s;
  rep.traced["trace.coverage"] = static_cast<double>(meter.covered_ns()) * 1e-9 / rep.phase_s;
  if (options.traced) add_trace_metrics(rep, *cluster);

  // Checks: every /u<c> lists exactly f0..f7, each of 4 KiB, and the
  // stores hold K + 1 copies of every byte written.
  kosha::KoshaMount checker(&cluster->daemon(hosts.front()));
  for (std::size_t c = 0; c < kClients; ++c) {
    const std::string dir = "/u" + std::to_string(c);
    const auto listing = checker.list(dir);
    if (!listing.ok()) {
      fail_check(rep, "cannot list " + dir);
      continue;
    }
    std::vector<bool> seen(kFiles, false);
    std::size_t entries = 0;
    for (const auto& entry : listing.value()) {
      ++entries;
      const std::string& name = entry.name;
      std::size_t index = kFiles;
      if (name.size() > 1 && name[0] == 'f' &&
          name.find_first_not_of("0123456789", 1) == std::string::npos) {
        index = std::stoul(name.substr(1));
      }
      if (index >= kFiles || seen[index] || std::to_string(index) != name.substr(1)) {
        fail_check(rep, "unexpected entry " + dir + "/" + name);
        continue;
      }
      seen[index] = true;
      const auto attr = checker.stat(dir + "/" + name);
      if (!attr.ok() || attr->size != kFileBytes) fail_check(rep, "wrong size: " + dir + "/" + name);
    }
    if (entries != kFiles) fail_check(rep, dir + " lists " + std::to_string(entries) + " entries");
  }
  const std::uint64_t want = (kReplicas + 1) * kClients * kFiles * kFileBytes;
  if (const std::uint64_t used = live_used_bytes(*cluster); used != want) {
    fail_check(rep, "stores hold " + std::to_string(used) + " bytes, expected " +
                        std::to_string(want));
  }

  if (options.probes) {
    probe_routes(rep, *cluster, options.seed);
    probe_storage(rep, std::vector<std::uint32_t>(kClients * kFiles, kFileBytes), options.seed);
  }
  rep.spans = meter.spans();
  return rep;
}

}  // namespace perfbench
