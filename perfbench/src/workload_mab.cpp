// mab: the paper's Modified Andrew Benchmark (§6.1, Table 1). One client
// runs trace::run_mab through a timing, checking mount adapter on 2048
// nodes (distribution level 2, K = 1), six rounds, each on its own
// seed-derived tree (51 MB, 160 directories, 420 files); after each round
// both trees are removed with remove_all. One op is in flight at a time
// and payloads are large, so per-byte work, placement and recursive delete
// dominate.
//
// A single tree's largest few files set every p99, and they differ a lot
// from seed to seed; pooling six trees per run keeps the tail percentiles
// within a few percent across seeds.

#include <algorithm>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "kosha/mount.hpp"
#include "trace/mab.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using kosha::KoshaCluster;
using kosha::KoshaMount;
using kosha::SimDuration;
namespace nfs = kosha::nfs;

constexpr std::size_t kNodes = 2048;
constexpr unsigned kReplicas = 1;
constexpr int kRounds = 6;

/// The path-level interface run_mab and cleanup_mab drive, forwarding to
/// a KoshaMount. Every call is timed by the Meter; the virtual latency
/// sample, the content hash and the check run under a Pause.
class CheckingMount {
 public:
  CheckingMount(KoshaCluster& cluster, KoshaMount& mount, Meter& meter, RepResult& rep,
                Latencies& lat)
      : cluster_(cluster), mount_(mount), meter_(meter), rep_(rep), lat_(lat) {}

  nfs::NfsResult<kosha::VirtualHandle> mkdir_p(std::string_view path) {
    return op("mount.mkdir_p", &lat_.mkdirs, [&] { return mount_.mkdir_p(path); },
              [](const auto&) {});
  }

  nfs::NfsResult<kosha::Unit> write_file(std::string_view path, std::string_view content) {
    return op("mount.write_file", &lat_.writes, [&] { return mount_.write_file(path, content); },
              [&](const auto&) {
                Expected& e = files_[std::string(path)];
                live_bytes_ += content.size();
                live_bytes_ -= e.size;
                e = {content_hash(content), content.size()};
              });
  }

  nfs::NfsResult<std::string> read_file(std::string_view path) {
    return op("mount.read_file", &lat_.reads, [&] { return mount_.read_file(path); },
              [&](const nfs::NfsResult<std::string>& r) {
                const auto it = files_.find(std::string(path));
                if (it == files_.end() || content_hash(r.value()) != it->second.hash) {
                  fail_check(rep_, "read-your-writes: " + std::string(path));
                }
              });
  }

  nfs::NfsResult<kosha::fs::Attr> stat(std::string_view path) {
    return op("mount.stat", nullptr, [&] { return mount_.stat(path); },
              [&](const nfs::NfsResult<kosha::fs::Attr>& r) {
                const auto it = files_.find(std::string(path));
                const bool dir = r->type == kosha::fs::FileType::kDirectory;
                if (it == files_.end() ? !dir : r->size != it->second.size) {
                  fail_check(rep_, "stat size/type: " + std::string(path));
                }
              });
  }

  nfs::NfsResult<kosha::Unit> remove_all(std::string_view path) {
    {
      const Meter::Pause pause(meter_);
      const std::uint64_t used = live_used_bytes(cluster_);
      if (used != (kReplicas + 1) * live_bytes_) {
        fail_check(rep_, "storage accounting before delete of " + std::string(path) + ": " +
                             std::to_string(used) + " stored for " +
                             std::to_string(live_bytes_) + " live bytes");
      }
    }
    auto result = op("mount.remove_all", nullptr, [&] { return mount_.remove_all(path); },
                     [&](const auto&) { forget_subtree(path); });
    const Meter::Pause pause(meter_);
    // The post-delete stat is a check, not a workload op: its network
    // traffic and virtual time are subtracted from the phase's counters.
    const Counters before = read_counters(cluster_, {mount_.daemon().host()});
    const auto gone = mount_.stat(path);
    excluded_ = excluded_.plus(read_counters(cluster_, {mount_.daemon().host()}).minus(before));
    if (gone.ok() || gone.error() != nfs::NfsStat::kNoEnt) {
      fail_check(rep_, "deleted path still resolves: " + std::string(path));
    }
    return result;
  }

  [[nodiscard]] std::uint64_t live_bytes() const { return live_bytes_; }
  [[nodiscard]] const Counters& excluded() const { return excluded_; }

 private:
  struct Expected {
    std::uint64_t hash = 0;
    std::uint64_t size = 0;
  };

  /// One client op: the timed call, then (paused) its virtual latency
  /// sample, its outcome and the check on a successful result.
  template <typename Call, typename Check>
  std::invoke_result_t<Call&> op(const char* name, std::vector<double>* kind, Call&& call,
                                 Check&& check) {
    const SimDuration start = cluster_.clock().now();
    auto result = meter_.call(name, call);
    const Meter::Pause pause(meter_);
    const double ms = (cluster_.clock().now() - start).to_millis();
    lat_.all.push_back(ms);
    if (kind != nullptr) kind->push_back(ms);
    ++rep_.ops;
    if (result.ok()) {
      check(result);
    } else {
      ++rep_.failed;
      fail_check(rep_, std::string(name) + " failed: " + nfs::to_string(result.error()));
    }
    return result;
  }

  void forget_subtree(std::string_view root) {
    const std::string prefix = std::string(root) + "/";
    for (auto it = files_.begin(); it != files_.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        live_bytes_ -= it->second.size;
        it = files_.erase(it);
      } else {
        ++it;
      }
    }
  }

  KoshaCluster& cluster_;
  KoshaMount& mount_;
  Meter& meter_;
  RepResult& rep_;
  Latencies& lat_;
  std::unordered_map<std::string, Expected> files_;
  std::uint64_t live_bytes_ = 0;
  Counters excluded_;
};

}  // namespace

RepResult run_mab(const Options& options) {
  RepResult rep;
  kosha::ClusterConfig config;
  config.nodes = kNodes;
  config.seed = options.seed;
  config.kosha.distribution_level = 2;
  config.kosha.replicas = kReplicas;
  config.observability.tracing = options.traced;
  config.observability.profiling = options.traced;
  const auto cluster = build_cluster(config, rep);

  std::vector<kosha::trace::MabWorkload> trees;
  std::size_t ops_expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    kosha::trace::MabConfig mab_config;
    mab_config.seed = options.seed * kRounds + static_cast<std::uint64_t>(round);
    trees.push_back(kosha::trace::generate_mab(mab_config));
    // Ops per round: mkdir, copy (mkdir + write), stat (dirs + files), grep
    // (read), compile (read + write), then two remove_all per top directory.
    const std::size_t dirs = trees.back().directories.size();
    const std::size_t files = trees.back().files.size();
    ops_expected += dirs + (dirs + files) + (dirs + files) + files + 2 * files +
                    2 * mab_config.top_dirs;
  }

  const kosha::net::HostId client = 0;
  KoshaMount mount(&cluster->daemon(client));
  Meter meter(options.traced, &cluster->clock());
  Latencies lat;
  lat.reserve(ops_expected);
  CheckingMount checked(*cluster, mount, meter, rep, lat);
  double vht_entries = 0;

  const Counters start = read_counters(*cluster, {client});
  const std::uint64_t phase0 = wall_ns();
  for (int round = 0; round < kRounds; ++round) {
    const kosha::trace::MabWorkload& workload = trees[static_cast<std::size_t>(round)];
    meter.call("trace.run_mab", [&] {
      return kosha::trace::run_mab(checked, workload, cluster->clock());
    });
    vht_entries = std::max(vht_entries,
                           static_cast<double>(mount.daemon().handle_table().size()));
    meter.call("trace.cleanup_mab", [&] { kosha::trace::cleanup_mab(checked, workload); });
    if (const std::uint64_t used = live_used_bytes(*cluster); used != 0 || checked.live_bytes() != 0) {
      fail_check(rep, "round " + std::to_string(round) + " left " + std::to_string(used) +
                          " stored bytes after deleting every tree");
    }
  }
  rep.phase_s = static_cast<double>(wall_ns() - phase0) * 1e-9;
  const Counters delta = read_counters(*cluster, {client}).minus(start).minus(checked.excluded());

  if (rep.ops != ops_expected) {
    fail_check(rep, "MAB stopped early: " + std::to_string(rep.ops) + " of " +
                        std::to_string(ops_expected) + " ops");
  }
  rep.program_s = static_cast<double>(meter.program_ns()) * 1e-9;
  rep.exact["allocs_per_op"] = static_cast<double>(meter.allocs()) / static_cast<double>(rep.ops);
  add_latency_metrics(rep, lat, static_cast<double>(delta[Counters::kVirtNs]) * 1e-9);
  add_counter_metrics(rep, delta, rep.ops);
  rep.exact["koshad.vht_entries"] = vht_entries;

  rep.wall["mount.write_us"] = meter.ns_per_call({"mount.write_file"}) * 1e-3;
  rep.wall["mount.read_us"] = meter.ns_per_call({"mount.read_file"}) * 1e-3;
  rep.wall["mount.meta_us"] = meter.ns_per_call({"mount.mkdir_p", "mount.stat"}) * 1e-3;
  rep.wall["mount.delete_ms"] = meter.ns_per_call({"mount.remove_all"}) * 1e-6;
  const Meter::NameTotal deletes = meter.total("mount.remove_all");
  rep.exact["mount.delete_allocs"] =
      static_cast<double>(deletes.allocs) / static_cast<double>(deletes.calls);
  rep.wall["loop.events_per_s"] =
      static_cast<double>(delta[Counters::kEvents]) / rep.program_s;
  rep.traced["trace.coverage"] =
      static_cast<double>(meter.covered_ns()) * 1e-9 / rep.phase_s;

  if (options.traced) add_trace_metrics(rep, *cluster);
  if (options.probes) {
    probe_routes(rep, *cluster, options.seed);
    std::vector<std::uint32_t> sizes;  // the first tree's files (51 MB)
    for (const auto& f : trees.front().files) sizes.push_back(f.size);
    probe_storage(rep, sizes, options.seed);
  }
  rep.spans = meter.spans();
  return rep;
}

}  // namespace perfbench
