#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "common/profile.hpp"
#include "common/rng.hpp"
#include "fs/storage_backend.hpp"

namespace perfbench {

using kosha::KoshaCluster;

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- Meter ----------------------------------------------------------------

std::size_t Meter::open(const char* name) {
  const bool was_counting = alloc_counting();
  set_alloc_counting(false);
  std::size_t span = kNoSpan;
  if (record_spans_) {
    span = spans_.size();
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = stack_.empty() || stack_.back().span == kNoSpan ? 0 : spans_[stack_.back().span].id;
    s.virt_start_ns = clock_->now().ns;
    spans_.push_back(s);
  }
  if (depth_ == 0) top_start_allocs_ = alloc_count();
  stack_.push_back({name, 0, alloc_count(), excluded_ns_, span});
  stack_.back().start_ns = wall_ns();
  if (span != kNoSpan) spans_[span].wall_start_ns = stack_.back().start_ns;
  set_alloc_counting(was_counting);
  return span;
}

void Meter::leave(std::size_t span) {
  const std::uint64_t end = wall_ns();
  set_alloc_counting(false);
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::uint64_t frame_allocs = alloc_count() - frame.start_allocs;
  NameTotal& total = totals_[frame.name];
  total.ns += (end - frame.start_ns) - (excluded_ns_ - frame.excluded_at_open);
  total.calls += 1;
  total.allocs += frame_allocs;
  if (span != kNoSpan) {
    spans_[span].wall_end_ns = end;
    spans_[span].virt_end_ns = clock_->now().ns;
  }
  if (--depth_ == 0) {
    covered_ns_ += end - top_start_ns_;
    allocs_ += alloc_count() - top_start_allocs_;
  } else {
    set_alloc_counting(true);
  }
}

Meter::NameTotal Meter::total(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? NameTotal{} : it->second;
}

double Meter::ns_per_call(std::initializer_list<std::string_view> names) const {
  NameTotal sum;
  for (const std::string_view name : names) {
    const NameTotal t = total(name);
    sum.ns += t.ns;
    sum.calls += t.calls;
  }
  return sum.calls == 0 ? 0.0 : static_cast<double>(sum.ns) / static_cast<double>(sum.calls);
}

// --- counters -------------------------------------------------------------

Counters Counters::minus(const Counters& earlier) const {
  Counters d = *this;
  for (std::size_t i = 0; i < v.size(); ++i) d.v[i] -= earlier.v[i];
  return d;
}

Counters Counters::plus(const Counters& other) const {
  Counters d = *this;
  for (std::size_t i = 0; i < v.size(); ++i) d.v[i] += other.v[i];
  return d;
}

Counters read_counters(KoshaCluster& cluster, const std::vector<kosha::net::HostId>& client_hosts) {
  Counters c;
  const kosha::net::NetStats& net = cluster.network().stats();
  c.v[Counters::kMessages] = net.messages;
  c.v[Counters::kBytes] = net.bytes;
  c.v[Counters::kTimeouts] = net.timeouts;
  c.v[Counters::kQueueNs] = net.queue_delay_ns;
  for (std::size_t i = 0; i < net.per_proc.size(); ++i) {
    c.v[Counters::kProcMessages + i] = net.per_proc[i].messages;
  }
  c.inflight_peak = net.inflight_peak;
  for (const kosha::net::HostId host : client_hosts) {
    const kosha::KoshadStats& s = cluster.daemon(host).stats();
    c.v[Counters::kRpcs] += s.rpcs_forwarded;
    c.v[Counters::kRoutes] += s.dht_lookups;
    c.v[Counters::kHops] += s.dht_hops;
    c.v[Counters::kRemote] += s.remote_rpcs;
    c.v[Counters::kFailovers] += s.failovers;
    c.v[Counters::kMirrorRpcs] += s.mirror_rpcs;
  }
  c.v[Counters::kEvents] = cluster.loop().stats().executed;
  c.v[Counters::kVirtNs] = static_cast<std::uint64_t>(cluster.clock().now().ns);
  return c;
}

std::uint64_t live_used_bytes(KoshaCluster& cluster) {
  std::uint64_t total = 0;
  for (const kosha::net::HostId host : cluster.live_hosts()) {
    total += cluster.server(host).store().used_bytes();
  }
  return total;
}

// --- shared per-layer metrics ---------------------------------------------

void add_counter_metrics(RepResult& rep, const Counters& d, std::uint64_t ops) {
  using C = Counters;
  using kosha::nfs::NfsProc;
  const double n = static_cast<double>(ops);
  const auto per_op = [n](std::uint64_t value) { return static_cast<double>(value) / n; };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  rep.exact["koshad.rpcs_per_op"] = per_op(d[C::kRpcs]);
  rep.exact["koshad.routes_per_op"] = per_op(d[C::kRoutes]);
  rep.exact["koshad.remote_rpc_ratio"] = ratio(d[C::kRemote], d[C::kRpcs]);
  rep.exact["koshad.failovers_per_kop"] = 1000.0 * per_op(d[C::kFailovers]);
  rep.exact["koshad.mirror_rpcs_per_op"] = per_op(d[C::kMirrorRpcs]);
  rep.exact["pastry.hops_per_route"] = ratio(d[C::kHops], d[C::kRoutes]);
  rep.exact["nfs.lookup_per_op"] = per_op(d.proc(NfsProc::kLookup));
  rep.exact["nfs.getattr_per_op"] = per_op(d.proc(NfsProc::kGetattr));
  rep.exact["nfs.mount_per_op"] = per_op(d.proc(NfsProc::kMount));
  rep.exact["nfs.create_per_op"] = per_op(d.proc(NfsProc::kCreate));
  rep.exact["nfs.timeouts_per_kop"] = 1000.0 * per_op(d[C::kTimeouts]);
  rep.exact["net.messages_per_op"] = per_op(d[C::kMessages]);
  rep.exact["net.queue_ms_per_op"] = per_op(d[C::kQueueNs]) / 1e6;
  rep.exact["net.inflight_peak"] = static_cast<double>(d.inflight_peak);
  rep.exact["loop.events_per_op"] = per_op(d[C::kEvents]);
  rep.exact["net_bytes_per_op"] = per_op(d[C::kBytes]);
}

void add_latency_metrics(RepResult& rep, const Latencies& lat, double virt_s) {
  rep.exact["virt_ops_per_s"] = static_cast<double>(lat.all.size()) / virt_s;
  rep.exact["op_p50_ms"] = percentile(lat.all, 50);
  rep.exact["op_p99_ms"] = percentile(lat.all, 99);
  rep.exact["read_p99_ms"] = percentile(lat.reads, 99);
  rep.exact["write_p99_ms"] = percentile(lat.writes, 99);
  rep.exact["mount.mkdir_p_p50_ms"] = percentile(lat.mkdirs, 50);
  rep.exact["samples.reads"] = static_cast<double>(lat.reads.size());
  rep.exact["samples.writes"] = static_cast<double>(lat.writes.size());
}

std::unique_ptr<KoshaCluster> build_cluster(const kosha::ClusterConfig& config, RepResult& rep) {
  const std::uint64_t allocs0 = alloc_count();
  const std::uint64_t t0 = wall_ns();
  set_alloc_counting(true);
  auto cluster = std::make_unique<KoshaCluster>(config);
  set_alloc_counting(false);
  const std::uint64_t t1 = wall_ns();
  const auto nodes = static_cast<double>(config.nodes);
  rep.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.wall["pastry.join_us"] = static_cast<double>(t1 - t0) * 1e-3 / nodes;
  rep.exact["pastry.join_allocs"] = static_cast<double>(alloc_count() - allocs0) / nodes;
  return cluster;
}

namespace {

/// Event categories the simulator tags (EventLoop::schedule_* call sites);
/// anything else is reported under "other".
constexpr const char* kCategories[] = {
    "event",      "fd.ack",      "fd.confirm",  "fd.probe",  "fd.quarantine",
    "fd.tick",    "fd.timeout",  "repair.tick", "rpc.arrive", "rpc.backoff",
    "rpc.depart", "rpc.done",    "rpc.execute", "rpc.reject", "rpc.timeout"};

constexpr const char* kStages[] = {"client",      "koshad",      "failover", "rpc_wire",
                                   "rpc_timeout", "rpc_backoff", "queue",    "service",
                                   "replica",     "selfheal"};

std::string metric_suffix(std::string_view category) {
  std::string out(category);
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

double gini(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double weighted = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    weighted += static_cast<double>(i + 1) * values[i];
    total += values[i];
  }
  if (total <= 0.0) return 0.0;
  const double n = static_cast<double>(values.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

}  // namespace

void add_trace_metrics(RepResult& rep, KoshaCluster& cluster) {
  const auto report = kosha::prof::analyze_critical_path(cluster.tracer().spans());
  for (const char* stage : kStages) {
    double share = 0.0;
    if (const auto it = report.stages.find(stage);
        it != report.stages.end() && report.critical_total_ns > 0) {
      share = static_cast<double>(it->second.ns) / static_cast<double>(report.critical_total_ns);
    }
    rep.traced[std::string("trace.stage.") + stage + "_share"] = share;
  }
  const kosha::SimProfiler& prof = cluster.profiler();
  std::map<std::string, double> category_ms;
  for (const char* cat : kCategories) category_ms["trace.prof." + metric_suffix(cat) + "_ms"] = 0.0;
  category_ms["trace.prof.other_ms"] = 0.0;
  for (const auto& [name, stats] : prof.categories()) {
    std::string key = "trace.prof." + metric_suffix(name) + "_ms";
    if (category_ms.find(key) == category_ms.end()) key = "trace.prof.other_ms";
    category_ms[key] += static_cast<double>(stats.wall_ns) / 1e6;
  }
  for (const auto& [key, ms] : category_ms) rep.traced[key] = ms;

  std::vector<double> busy(cluster.network().host_count(), 0.0);
  for (const auto& [host, stats] : prof.hosts()) {
    if (host < busy.size()) busy[host] = static_cast<double>(stats.busy_ns);
  }
  rep.traced["net.host_busy_gini"] = gini(std::move(busy));
}

void probe_routes(RepResult& rep, KoshaCluster& cluster, std::uint64_t seed) {
  constexpr std::size_t kRoutes = 20000;
  kosha::Rng rng(seed ^ 0x70757465ull);
  const std::vector<kosha::net::HostId> hosts = cluster.live_hosts();
  std::vector<std::pair<kosha::net::HostId, kosha::pastry::Key>> keys;
  keys.reserve(kRoutes);
  for (std::size_t i = 0; i < kRoutes; ++i) {
    keys.emplace_back(hosts[rng.next_below(hosts.size())], rng.next_id());
  }
  unsigned hops = 0;
  const std::uint64_t start = wall_ns();
  for (const auto& [host, key] : keys) hops += cluster.overlay().route(host, key).hops;
  const std::uint64_t end = wall_ns();
  rep.wall["pastry.route_ns"] = static_cast<double>(end - start) / static_cast<double>(kRoutes);
  if (hops == 0 && hosts.size() > 1) fail_check(rep, "route probe took no overlay hops");
}

void probe_storage(RepResult& rep, const std::vector<std::uint32_t>& file_sizes,
                   std::uint64_t seed) {
  kosha::fs::StorageConfig config;
  config.fs.capacity_bytes = 1ull << 40;
  const auto store = kosha::fs::make_backend(config);
  std::vector<std::string> contents;
  contents.reserve(file_sizes.size());
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < file_sizes.size(); ++i) {
    contents.push_back(make_content(file_sizes[i], seed, i));
    bytes += file_sizes[i];
  }
  std::vector<kosha::fs::InodeId> inodes(file_sizes.size(), kosha::fs::kInvalidInode);
  const kosha::fs::InodeId root = store->root();

  const std::uint64_t w0 = wall_ns();
  for (std::size_t i = 0; i < contents.size(); ++i) {
    std::string name = "f";  // not "f" + to_string(i): GCC 12 warns falsely (-Wrestrict)
    name += std::to_string(i);
    const auto made = store->create(root, name, 0644, 0, 0);
    if (!made.ok()) {
      fail_check(rep, "storage probe: create failed");
      return;
    }
    inodes[i] = made.value();
    if (!store->write(inodes[i], 0, contents[i]).ok()) {
      fail_check(rep, "storage probe: write failed");
      return;
    }
  }
  const std::uint64_t w1 = wall_ns();
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < contents.size(); ++i) {
    const auto read = store->read(inodes[i], 0, file_sizes[i]);
    if (!read.ok() || read.value() != contents[i]) ++mismatches;
  }
  const std::uint64_t w2 = wall_ns();
  if (mismatches != 0) fail_check(rep, "storage probe: read-back mismatch");
  const double mib = static_cast<double>(bytes) / (1024.0 * 1024.0);
  rep.wall["fs.write_mib_s"] = mib / (static_cast<double>(w1 - w0) * 1e-9);
  rep.wall["fs.read_mib_s"] = mib / (static_cast<double>(w2 - w1) * 1e-9);
}

// --- helpers ----------------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t content_hash(std::string_view bytes) {
  return std::hash<std::string_view>{}(bytes);
}

std::string make_content(std::size_t size, std::uint64_t tag, std::uint64_t salt) {
  std::string out;
  out.resize(size);
  std::uint64_t state = tag * 0x9E3779B97F4A7C15ull ^ (salt + 0x632BE59BD9B4E019ull);
  std::size_t i = 0;
  while (i < size) {
    const std::uint64_t x = kosha::splitmix64(state);
    for (int b = 0; b < 8 && i < size; ++b, ++i) {
      out[i] = static_cast<char>('a' + ((x >> (b * 8)) & 0xff) % 26);
    }
  }
  return out;
}

void fail_check(RepResult& rep, std::string message) {
  if (rep.errors.size() < 20) rep.errors.push_back(std::move(message));
}

}  // namespace perfbench
