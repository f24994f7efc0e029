#pragma once

// Measurement harness shared by the three workloads.
//
// The harness times every call it makes into the simulator from outside
// (steady_clock around the call), counts the heap allocations made inside
// those calls (operator new hook, alloc_hook.cpp), and — in a traced run —
// records one span per call. Work the harness does for itself inside a
// call (hashing, checking) runs under a Pause and is charged to neither.
//
// Counters are read from the program's public stats structs before and
// after the timed phase; the difference is the phase's work.

#include <array>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "kosha/cluster.hpp"
#include "nfs/wire.hpp"

namespace perfbench {

// --- allocation counting (alloc_hook.cpp) ---------------------------------

/// Switch counting of operator new calls on or off (single-threaded).
void set_alloc_counting(bool on);
[[nodiscard]] bool alloc_counting();
[[nodiscard]] std::uint64_t alloc_count();

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] std::uint64_t wall_ns();

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mib();

// --- spans ----------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = top level
  std::uint64_t wall_start_ns = 0;
  std::uint64_t wall_end_ns = 0;
  std::int64_t virt_start_ns = 0;
  std::int64_t virt_end_ns = 0;
};

/// Times calls into the program. One Meter per repetition.
class Meter {
 public:
  Meter(bool record_spans, const kosha::SimClock* clock)
      : record_spans_(record_spans), clock_(clock) {}

  /// Run `fn` as a call into the program named `name` (a string literal).
  /// Nested calls record child spans but are timed once, at the top.
  template <typename Fn>
  decltype(auto) call(const char* name, Fn&& fn) {
    const std::size_t span = open(name);
    if (depth_++ == 0) {
      top_start_ns_ = wall_ns();
      set_alloc_counting(true);
    }
    if constexpr (std::is_void_v<std::invoke_result_t<Fn>>) {
      fn();
      leave(span);
    } else {
      decltype(auto) result = fn();
      leave(span);
      return result;
    }
  }

  /// Harness work inside a call: its wall time and allocations are not
  /// the program's.
  class Pause {
   public:
    explicit Pause(Meter& meter) : meter_(meter), active_(meter.depth_ > 0) {
      if (active_) {
        set_alloc_counting(false);
        start_ns_ = wall_ns();
      }
    }
    ~Pause() {
      if (active_) {
        meter_.excluded_ns_ += wall_ns() - start_ns_;
        set_alloc_counting(true);
      }
    }
    Pause(const Pause&) = delete;
    Pause& operator=(const Pause&) = delete;

   private:
    Meter& meter_;
    bool active_;
    std::uint64_t start_ns_ = 0;
  };

  /// Wall time spent inside the program's calls, harness pauses excluded.
  [[nodiscard]] std::uint64_t program_ns() const { return covered_ns_ - excluded_ns_; }
  /// Wall time of the top-level calls, pauses included (trace coverage).
  [[nodiscard]] std::uint64_t covered_ns() const { return covered_ns_; }
  [[nodiscard]] std::uint64_t allocs() const { return allocs_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Totals over every call named `name`, nested calls included: wall
  /// ns (pauses excluded), call count, allocations. Zero when none ran.
  struct NameTotal {
    std::uint64_t ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t allocs = 0;
  };
  [[nodiscard]] NameTotal total(std::string_view name) const;
  /// Mean wall ns per call over the calls named in `names` (0 if none).
  [[nodiscard]] double ns_per_call(std::initializer_list<std::string_view> names) const;

 private:
  struct Frame {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t start_allocs;
    std::uint64_t excluded_at_open;
    std::size_t span;  // index into spans_, or kNoSpan
  };
  static constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

  std::size_t open(const char* name);
  void leave(std::size_t span);

  bool record_spans_;
  const kosha::SimClock* clock_;
  int depth_ = 0;
  std::uint64_t top_start_ns_ = 0;
  std::uint64_t top_start_allocs_ = 0;
  std::uint64_t covered_ns_ = 0;
  std::uint64_t excluded_ns_ = 0;
  std::uint64_t allocs_ = 0;
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
  std::map<std::string, NameTotal, std::less<>> totals_;
};

// --- program counters -----------------------------------------------------

/// Cumulative counters read from the program's public stats structs.
struct Counters {
  enum Field : std::size_t {
    kMessages,      // NetStats::messages
    kBytes,         // NetStats::bytes
    kTimeouts,      // NetStats::timeouts
    kQueueNs,       // NetStats::queue_delay_ns
    kRpcs,          // KoshadStats, summed over the workload's client daemons
    kRoutes,
    kHops,
    kRemote,
    kFailovers,
    kMirrorRpcs,
    kEvents,        // EventLoop::stats().executed
    kVirtNs,        // cluster clock
    kProcMessages,  // NetStats::per_proc[slot].messages, kNetProcSlots slots
    kFieldCount = kProcMessages + kosha::net::kNetProcSlots,
  };
  std::array<std::uint64_t, kFieldCount> v{};
  /// High-water mark of in-flight RPCs at one host (not differenced).
  std::uint64_t inflight_peak = 0;

  [[nodiscard]] std::uint64_t operator[](Field f) const { return v[f]; }
  [[nodiscard]] std::uint64_t proc(kosha::nfs::NfsProc p) const {
    return v[kProcMessages + kosha::nfs::proc_slot(p)];
  }
  /// Field-wise this − earlier (inflight_peak kept).
  [[nodiscard]] Counters minus(const Counters& earlier) const;
  /// Field-wise this + other (inflight_peak kept).
  [[nodiscard]] Counters plus(const Counters& other) const;
};

[[nodiscard]] Counters read_counters(kosha::KoshaCluster& cluster,
                                     const std::vector<kosha::net::HostId>& client_hosts);

/// Σ used_bytes() over the stores of every live host.
[[nodiscard]] std::uint64_t live_used_bytes(kosha::KoshaCluster& cluster);

// --- results --------------------------------------------------------------

/// One repetition of a workload: a fresh cluster, its set-up, the timed
/// phase and the checks.
struct RepResult {
  double setup_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double program_s = 0;  // wall inside the program's calls, timed phase
  double phase_s = 0;    // wall of the whole timed phase
  /// Metrics that are a pure function of the seed: virtual-time figures
  /// and counts. They must repeat exactly between repetitions.
  std::map<std::string, double> exact;
  /// Wall-clock per-layer figures (vary run to run).
  std::map<std::string, double> wall;
  /// Figures only a traced repetition produces.
  std::map<std::string, double> traced;
  /// Check failures (empty = every output matched).
  std::vector<std::string> errors;
  std::vector<Span> spans;
};

struct Options {
  std::uint64_t seed = 1;
  /// Traced repetition: the program's tracing and profiling are on and
  /// the harness records spans.
  bool traced = false;
  /// Measure the standalone layer probes (route, storage backend).
  bool probes = false;
};

/// Exact per-op virtual latencies (ms) the harness sampled itself.
struct Latencies {
  std::vector<double> all;
  std::vector<double> reads;   // whole-file reads
  std::vector<double> writes;  // whole-file writes
  std::vector<double> mkdirs;  // mkdir_p calls

  /// Size every buffer up front so the timed phase never grows them.
  void reserve(std::size_t ops) {
    all.reserve(ops);
    reads.reserve(ops);
    writes.reserve(ops);
    mkdirs.reserve(ops);
  }
};

/// op_p50_ms, op_p99_ms, read_p99_ms, write_p99_ms, mount.mkdir_p_p50_ms
/// and virt_ops_per_s from exact samples over `virt_s` virtual seconds.
void add_latency_metrics(RepResult& rep, const Latencies& lat, double virt_s);

/// Construct the cluster and time it as set-up: rep.setup_s (callers add
/// any pre-population), pastry.join_us and pastry.join_allocs.
[[nodiscard]] std::unique_ptr<kosha::KoshaCluster> build_cluster(
    const kosha::ClusterConfig& config, RepResult& rep);

/// Add the counter-derived per-layer metrics shared by every workload.
void add_counter_metrics(RepResult& rep, const Counters& delta, std::uint64_t ops);

/// Add trace.stage.* shares, trace.prof.* category times and the host
/// busy Gini from the cluster's tracer and profiler (traced runs only).
void add_trace_metrics(RepResult& rep, kosha::KoshaCluster& cluster);

/// Time 20,000 overlay routes over a seeded key set (pastry.route_ns).
void probe_routes(RepResult& rep, kosha::KoshaCluster& cluster, std::uint64_t seed);

/// Replay `file_sizes` through a standalone storage backend
/// (fs.write_mib_s, fs.read_mib_s).
void probe_storage(RepResult& rep, const std::vector<std::uint32_t>& file_sizes,
                   std::uint64_t seed);

/// Linearly interpolated percentile (0..100) of `values` (copied, sorted).
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// 64-bit content hash, independent of anything the program computes.
[[nodiscard]] std::uint64_t content_hash(std::string_view bytes);

/// Deterministic content of `size` bytes unique to (`tag`, `salt`).
[[nodiscard]] std::string make_content(std::size_t size, std::uint64_t tag, std::uint64_t salt);

/// Record a check failure (bounded, so a systematic fault stays readable).
void fail_check(RepResult& rep, std::string message);

}  // namespace perfbench
