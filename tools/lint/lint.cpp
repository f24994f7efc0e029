#include "lint/lint.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "lint/graph.hpp"
#include "lint/index.hpp"
#include "lint/rules.hpp"

namespace kosha::lint {

// ---------------------------------------------------------------------------
// Linter — orchestration: tokenize on add, index + graph + rules on run.
// ---------------------------------------------------------------------------

struct Linter::Impl {
  Config config;
  Index index;
  CallGraph graph;
  RuleResult last;
  bool ran = false;
};

Linter::Linter(Config config) : impl_(new Impl) { impl_->config = std::move(config); }
Linter::~Linter() { delete impl_; }

void Linter::add_source(std::string path, std::string content) {
  SourceFile f;
  f.path = std::move(path);
  tokenize(content, f);
  impl_->index.add_file(std::move(f));
}

std::size_t Linter::file_count() const { return impl_->index.files().size(); }

std::vector<Diagnostic> Linter::run() {
  impl_->index.build();
  impl_->graph.build(impl_->index);
  impl_->last = run_rules(impl_->config, impl_->index, impl_->graph);
  impl_->ran = true;
  return impl_->last.diags;
}

std::string Linter::graph_dot() const {
  if (!impl_->ran) return std::string();
  return impl_->graph.to_dot(impl_->last.hot_nodes, impl_->last.sink_nodes);
}

std::vector<std::string> Linter::edge_list() const {
  std::vector<std::string> out;
  if (!impl_->ran) return out;
  const auto& nodes = impl_->graph.nodes();
  for (const CallGraph::Edge& e : impl_->graph.edges()) {
    const char* kind = "direct";
    switch (e.kind) {
      case EdgeKind::kDirect: kind = "direct"; break;
      case EdgeKind::kResolved: kind = "resolved"; break;
      case EdgeKind::kOverApprox: kind = "overapprox"; break;
      case EdgeKind::kAnnotated: kind = "annotated"; break;
    }
    out.push_back(nodes[e.from].display + " -> " + nodes[e.to].display + " [" + kind +
                  "]");
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Linter::is_header(const std::string& path) {
  return path.size() >= 4 &&
         (path.compare(path.size() - 4, 4, ".hpp") == 0 ||
          path.compare(path.size() - 2, 2, ".h") == 0);
}

bool Linter::is_cpp_source(const std::string& path) {
  for (const char* ext : {".cpp", ".cc", ".hpp", ".h"}) {
    const std::size_t len = std::char_traits<char>::length(ext);
    if (path.size() >= len && path.compare(path.size() - len, len, ext) == 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Serializers
// ---------------------------------------------------------------------------

std::string to_text(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  for (const Diagnostic& d : diags) {
    out << d.file << ':' << d.line << ": error: " << d.message << " [" << d.rule << ']'
        << '\n';
  }
  return out.str();
}

namespace {
void json_escape(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}
}  // namespace

std::string to_json(const std::vector<Diagnostic>& diags, std::size_t files_scanned) {
  std::ostringstream out;
  out << "{\n  \"violations\": " << diags.size()
      << ",\n  \"files_scanned\": " << files_scanned << ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"file\": ";
    json_escape(out, d.file);
    out << ", \"line\": " << d.line << ", \"rule\": ";
    json_escape(out, d.rule);
    out << ", \"slug\": ";
    json_escape(out, d.slug);
    out << ", \"message\": ";
    json_escape(out, d.message);
    out << '}';
  }
  out << (diags.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
         "master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"kosha_lint\",\n"
      << "          \"informationUri\": \"DESIGN.md\",\n"
      << "          \"rules\": [";
  const auto& docs = rule_docs();
  for (std::size_t i = 0; i < docs.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "            {\"id\": ";
    json_escape(out, docs[i].rule);
    out << ", \"shortDescription\": {\"text\": ";
    json_escape(out, docs[i].summary);
    out << "}}";
  }
  out << "\n          ]\n        }\n      },\n      \"results\": [";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out << (i == 0 ? "\n" : ",\n") << "        {\"ruleId\": ";
    json_escape(out, d.rule);
    out << ", \"level\": \"error\", \"message\": {\"text\": ";
    json_escape(out, d.message);
    out << "}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
           "{\"uri\": ";
    json_escape(out, d.file);
    out << "}, \"region\": {\"startLine\": " << (d.line > 0 ? d.line : 1) << "}}}]}";
  }
  out << (diags.empty() ? "]" : "\n      ]") << "\n    }\n  ]\n}\n";
  return out.str();
}

const std::vector<RuleDoc>& rule_docs() {
  static const std::vector<RuleDoc> kDocs = {
      {"D1", "wall-clock",
       "no wall-clock/entropy primitives outside the sanctioned seams",
       "system_clock, steady_clock, time(), rand(), std::random_device, getenv "
       "and friends are banned outside common/rng, common/cli and "
       "common/profile.cpp: same-seed runs must be byte-identical, so every "
       "time or random value must come from SimClock or the seeded Rng."},
      {"D2", "unordered-iter",
       "no iteration over unordered containers",
       "range-for or .begin() loops over std::unordered_map/set visit elements "
       "in implementation-defined order, which leaks into traces, metrics and "
       "migration order. Iterate a sorted copy, use std::map, or annotate "
       "allow(unordered-iter) with why the loop is order-free."},
      {"D3", "event-callback",
       "no blocking sleeps; callbacks must not mutate the clock",
       "virtual time only moves when the EventLoop dispatches; sleep_for/usleep "
       "stall the simulation without advancing it, and set_now inside a "
       "scheduled callback races the loop's own clock advance. Its remaining "
       "callers (sim::interleave_timelines, which the multi-client and "
       "flash-crowd drivers share, and koshad's degraded-read probe race) "
       "run between dispatches, never inside one."},
      {"D4", "event-reachable",
       "nothing reachable from the event loop may reach wall clock or entropy",
       "the transitive closure of D1+D3 over the call graph: starting from the "
       "event roots (callbacks passed to schedule_at/schedule_after, "
       "EventLoop::step, the SimNetwork service surface), no reachable function "
       "may contain a wall-clock/entropy/sleep token. The one sanctioned seam "
       "is src/common/profile.cpp (profiler measurement of the simulator, "
       "never input to it). Annotate the sink function's definition line with "
       "allow(event-reachable) and a reason only when the value provably "
       "cannot flow into simulated state."},
      {"R1", "must-check",
       "status returns must be consumed",
       "a call whose every candidate returns FsStatus/NfsStat/NfsStatus/"
       "RpcStatus or a Result<...> must be assigned, compared, returned, or "
       "(void)-cast. A (void) cast additionally needs an adjacent "
       "allow(ignore-status) annotation saying why dropping the status is "
       "safe — at-most-once semantics die quietly when error paths are "
       "ignored."},
      {"A1", "hot-alloc",
       "no allocation on the event hot path",
       "functions reachable from the event roots may not construct "
       "std::string, call new/std::to_string, or insert into node-based "
       "associative containers: dispatch-path allocations dominate the "
       "simulator profile (see docs/PERF.md). allow(hot-alloc) on a "
       "function's definition line excuses its body and stops hotness from "
       "propagating through it, marking a sanctioned allocation subtree "
       "(e.g. setup or report formatting)."},
      {"P1", "drc",
       "non-idempotent handlers are at-most-once through the DRC",
       "every NfsServer handler for CREATE/MKDIR/SYMLINK/LINK/REMOVE/RMDIR/"
       "RENAME/SETATTR must consult drc_find before touching store_ and record "
       "its reply with drc_store, or a retransmission re-executes the op."},
      {"P2", "rpc-ctx",
       "RpcContext carries the full {client, xid, boot} triple",
       "partial contexts defeat the duplicate-request cache's incarnation "
       "check; the empty {} default argument is the documented absent-context "
       "sentinel for direct server calls."},
      {"P3", "early-reject",
       "overload rejects fire before the DRC store",
       "a kOverloaded reply recorded in the DRC would be replayed to the "
       "retransmission of a request that never executed, shadowing the real "
       "execution forever."},
      {"P4", "deadline-prop",
       "child RpcContexts propagate the parent's deadline",
       "a child context built on the koshad failover or NFS client paths "
       "without the parent's deadline gives downstream admission control an "
       "infinite time budget, defeating deadline-based shedding."},
      {"S1", "storage-seam",
       "concrete storage backends stay behind fs::make_backend",
       "LocalFs/CasFs may be named only in src/fs/ and tests/; everything "
       "else programs against fs::StorageBackend so new backends slot in "
       "without touching consumers."},
      {"H1", "header",
       "header hygiene",
       "#pragma once present; no `using namespace` at header scope."},
      {"E1", "edge",
       "edge() annotations must resolve and carry a reason",
       "a `kosha-lint: edge(Target::fn): reason` comment asserts a call edge "
       "at a type-erased seam the resolver cannot see; one that names no "
       "indexed function or omits the reason is dropped, so it errors instead "
       "of silently losing graph coverage."},
  };
  return kDocs;
}

int exit_code(const std::vector<Diagnostic>& diags) { return diags.empty() ? 0 : 1; }

}  // namespace kosha::lint
