#include "sim/concurrency_driver.hpp"

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "kosha/cluster.hpp"
#include "kosha/mount.hpp"

namespace kosha::sim {

namespace {

/// Deterministic per-file content: depends only on (client, file, size).
std::string file_content(std::size_t client, std::size_t file, std::size_t bytes) {
  const std::string stamp =
      "c" + std::to_string(client) + "f" + std::to_string(file) + ":";
  std::string out;
  out.reserve(bytes);
  while (out.size() < bytes) {
    out.append(stamp, 0, std::min(stamp.size(), bytes - out.size()));
  }
  return out;
}

struct Client {
  std::unique_ptr<KoshaMount> mount;
  std::string root;       // "/u<c>"
  std::size_t next_op = 0;
  Rng zipf_rng{0};        // per-client popularity stream (zipf_s > 0 only)
};

}  // namespace

void interleave_timelines(
    SimClock& clock, const std::vector<std::optional<SimDuration>>& starts,
    const std::function<std::optional<SimDuration>(std::size_t)>& step) {
  // Min-heap of (local time, index): pairs order by time, then by index.
  using Slot = std::pair<SimDuration, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> ready;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    if (starts[i].has_value()) ready.emplace(*starts[i], i);
  }
  while (!ready.empty()) {
    const auto [local, index] = ready.top();
    ready.pop();
    clock.set_now(local);
    if (const auto next = step(index)) ready.emplace(*next, index);
  }
}

WorkloadResult run_multi_client_workload(KoshaCluster& cluster,
                                         const WorkloadConfig& config) {
  WorkloadResult result;
  const std::vector<net::HostId> hosts = cluster.live_hosts();
  if (config.clients == 0 || hosts.empty()) return result;

  SimClock& clock = cluster.clock();
  const SimDuration t0 = clock.now();
  const std::size_t ops_per_client =
      1 + config.files_per_client + config.files_per_client * config.reads_per_file;

  // Optional Zipf read popularity: one sampler, one forked stream per
  // client, both derived from the cluster seed. With zipf_s == 0 neither
  // exists and the read pass is the legacy round-robin — numerically
  // identical to runs predating the knob.
  const bool zipf = config.zipf_s > 0.0 && config.files_per_client > 0;
  const ZipfSampler popularity(zipf ? config.files_per_client : 1, config.zipf_s);
  const Rng zipf_root(cluster.config().seed ^ 0x5a1full);

  std::vector<Client> clients(config.clients);
  for (std::size_t c = 0; c < clients.size(); ++c) {
    clients[c].mount =
        std::make_unique<KoshaMount>(&cluster.daemon(hosts[c % hosts.size()]));
    clients[c].root = "/u" + std::to_string(c);
    if (zipf) clients[c].zipf_rng = zipf_root.fork(c);
  }

  // Per-op virtual latency distribution (p50/p95/p99 for the scalability
  // sweep). Resolved once; null when metrics are off, so the loop below
  // pays one pointer test per op and nothing else.
  Histogram* op_latency = nullptr;
  if (MetricsRegistry* metrics = cluster.network().metrics(); metrics != nullptr) {
    op_latency = metrics->histogram("sim.op.latency_us");
  }

  SimDuration finish = t0;
  const std::vector<std::optional<SimDuration>> starts(clients.size(), t0);
  interleave_timelines(clock, starts, [&](std::size_t c) -> std::optional<SimDuration> {
    Client& cl = clients[c];
    const SimDuration before = clock.now();

    const std::size_t op = cl.next_op++;
    bool ok = false;
    if (op == 0) {
      ok = cl.mount->mkdir_p(cl.root).ok();
    } else if (op <= config.files_per_client) {
      const std::size_t file = op - 1;
      const std::string path = cl.root + "/f" + std::to_string(file);
      ok = cl.mount->write_file(path, file_content(c, file, config.file_bytes)).ok();
    } else {
      const std::size_t file =
          zipf ? popularity.sample(cl.zipf_rng)
               : (op - 1 - config.files_per_client) % config.files_per_client;
      const std::string path = cl.root + "/f" + std::to_string(file);
      const auto read = cl.mount->read_file(path);
      ok = read.ok() && read.value() == file_content(c, file, config.file_bytes);
    }

    const SimDuration took = clock.now() - before;
    if (clock.now() > finish) finish = clock.now();
    ++result.ops;
    if (!ok) ++result.failures;
    result.busy += took;
    if (took > result.max_op) result.max_op = took;
    if (op_latency != nullptr) op_latency->record(took.to_micros());
    if (cl.next_op >= ops_per_client) return std::nullopt;
    return clock.now();
  });

  // Leave the cluster clock at the workload's end: the latest client
  // finish.
  clock.advance_to(finish);
  result.makespan = finish - t0;
  return result;
}

}  // namespace kosha::sim
