#pragma once

// The Pastry overlay: a set of message-passing nodes with prefix routing.
//
// This is the substrate Kosha runs on (paper §2.2, §4.3). Nodes join by
// routing a join message to the numerically closest existing node and
// copying state from the nodes along the path; failures trigger leaf-set
// repair at affected nodes and are detected lazily in routing tables.
// All inter-node traffic is counted on the simulated network; none of it
// moves the clock. Membership maintenance is background work, and a route
// reports its latency (RouteResult::cost) for the foreground caller to
// spend.
//
// The overlay keeps a ground-truth Ring of live nodes for verification and
// for picking deterministic bootstrap nodes; the routing protocol itself
// never consults it.

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/sim_network.hpp"
#include "pastry/leaf_set.hpp"
#include "pastry/ring.hpp"
#include "pastry/routing_table.hpp"
#include "pastry/types.hpp"

namespace kosha::pastry {

class FailureDetector;

/// Result of routing a key: the owning node, the overlay hops taken, and
/// the virtual time the route took (hop wire times plus one RPC timeout
/// per dead routing-table entry met on the way).
struct RouteResult {
  NodeId owner;
  unsigned hops = 0;
  SimDuration cost{};
};

/// Fired on a node when its leaf set membership changes (join or repair).
/// Kosha's replication manager reacts by re-establishing replicas.
using NeighborCallback = std::function<void()>;

/// Fired when `observer` confirms `dead` as failed and repairs its own
/// state (the decentralized path; the cluster uses it to time detection).
using FailureListener = std::function<void(NodeId observer, NodeId dead)>;

class PastryOverlay {
 public:
  PastryOverlay(PastryConfig config, net::SimNetwork* network);

  /// Join a new node with identifier `id` living on `host` (one overlay
  /// node per host). Performs the Pastry join protocol against a live
  /// bootstrap node, counting overlay traffic.
  void join(NodeId id, net::HostId host);

  /// Crash-fail a node with oracle-driven repair: live nodes holding it in
  /// their leaf sets repair immediately (counted); routing-table entries
  /// decay lazily. Equivalent to mark_dead() plus telling every affected
  /// survivor at once — the legacy path used when self-healing is off.
  void fail(NodeId id);

  /// Crash-fail a node *without* telling anyone: the node stops being
  /// live, but survivors keep it in their leaf sets until their failure
  /// detectors notice and call report_failure(). The oracle-free path.
  void mark_dead(NodeId id);

  /// `observer` confirmed `dead` as failed (via its failure detector):
  /// drop it from the observer's leaf set and routing table, repair the
  /// leaf set, and fire the observer's neighbor callback so replication
  /// reacts. Safe to call with stale verdicts (no-op when already gone).
  void report_failure(NodeId observer, NodeId dead);

  /// `observer` learned that `peer` — which it had declared dead — is in
  /// fact alive (false suspicion healed): fold it back into the observer's
  /// leaf set and routing table and fire the neighbor callback.
  void reintroduce(NodeId observer, NodeId peer);

  [[nodiscard]] bool is_live(NodeId id) const;
  [[nodiscard]] std::size_t live_count() const { return ring_.size(); }

  [[nodiscard]] net::HostId host_of(NodeId id) const;
  /// The live node on `host`, or kInvalid if none.
  [[nodiscard]] NodeId node_on_host(net::HostId host) const;
  [[nodiscard]] bool host_has_node(net::HostId host) const;

  /// Route `key` from the node on `from_host`; counts one message per hop
  /// and prunes dead routing-table entries it meets. The clock is not
  /// touched: the caller decides whether to spend the returned cost.
  [[nodiscard]] RouteResult route(net::HostId from_host, Key key);

  /// Route without counting traffic (diagnostics / analytics).
  [[nodiscard]] RouteResult trace_route(NodeId from, Key key) const;

  /// The K leaf-set neighbors of `node`, closest first — Kosha's replica
  /// targets.
  [[nodiscard]] std::vector<NodeId> replica_targets(NodeId node, std::size_t k) const;

  void set_neighbor_callback(NodeId id, NeighborCallback callback);

  /// Failure-detector registry: scheduled probe events resolve detectors
  /// through here at fire time, so events aimed at a dead or stopped node
  /// become no-ops instead of dangling. mark_dead()/fail() clear the slot.
  void set_detector(NodeId id, FailureDetector* detector);
  [[nodiscard]] FailureDetector* detector(NodeId id) const;

  /// Observe confirmed failure reports (detection-latency metrics).
  void set_failure_listener(FailureListener listener) { failure_listener_ = std::move(listener); }

  /// Ground truth over live nodes (tests, simulators, bootstrap choice).
  [[nodiscard]] const Ring& ring() const { return ring_; }

  [[nodiscard]] const LeafSet& leaf_set(NodeId id) const;
  [[nodiscard]] const RoutingTable& routing_table(NodeId id) const;
  [[nodiscard]] const PastryConfig& config() const { return config_; }

 private:
  struct Node {
    NodeId id;
    net::HostId host;
    bool alive = true;
    RoutingTable table;
    LeafSet leaves;
    NeighborCallback on_leaf_change;
    /// The node's heartbeat failure detector, when the cluster runs one
    /// (self-healing mode). Not owned; cleared on death.
    FailureDetector* detector = nullptr;

    Node(NodeId node_id, net::HostId h, const PastryConfig& cfg)
        : id(node_id), host(h), table(node_id, cfg), leaves(node_id, cfg.leaf_half()) {}
  };

  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] const Node& node(NodeId id) const;
  /// One routing step from `cur` toward `key`; nullopt when `cur` is the
  /// destination. Dead routing-table entries encountered are appended to
  /// `dead_rt` (if non-null) for the caller to prune.
  [[nodiscard]] std::optional<NodeId> compute_next_hop(const Node& cur, Key key,
                                                       std::vector<NodeId>* dead_rt) const;
  void repair_leaf_set(Node& n);
  void notify_leaf_change(Node& n);

  PastryConfig config_;
  net::SimNetwork* network_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<Uint128, std::size_t> index_by_id_;
  std::unordered_map<net::HostId, std::size_t> index_by_host_;
  Ring ring_;
  FailureListener failure_listener_;
};

}  // namespace kosha::pastry
