#include "pastry/overlay.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <stdexcept>

#include "pastry/failure_detector.hpp"

namespace kosha::pastry {

namespace {

/// Total order "a is closer to target than b" with deterministic tie-break.
bool closer(Key target, NodeId a, NodeId b) {
  const Uint128 da = ring_distance(a, target);
  const Uint128 db = ring_distance(b, target);
  if (da != db) return da < db;
  return a < b;
}

/// Rough wire size of a node-state transfer, for byte accounting only.
constexpr std::size_t kStateBytes = 2048;

}  // namespace

PastryOverlay::PastryOverlay(PastryConfig config, net::SimNetwork* network)
    : config_(config), network_(network) {
  assert(network_ != nullptr);
}

PastryOverlay::Node& PastryOverlay::node(NodeId id) {
  const auto it = index_by_id_.find(id);
  if (it == index_by_id_.end()) throw std::invalid_argument("unknown node id");
  return *nodes_[it->second];
}

const PastryOverlay::Node& PastryOverlay::node(NodeId id) const {
  const auto it = index_by_id_.find(id);
  if (it == index_by_id_.end()) throw std::invalid_argument("unknown node id");
  return *nodes_[it->second];
}

bool PastryOverlay::is_live(NodeId id) const {
  const auto it = index_by_id_.find(id);
  return it != index_by_id_.end() && nodes_[it->second]->alive;
}

net::HostId PastryOverlay::host_of(NodeId id) const { return node(id).host; }

NodeId PastryOverlay::node_on_host(net::HostId host) const {
  const auto it = index_by_host_.find(host);
  if (it == index_by_host_.end() || !nodes_[it->second]->alive) {
    throw std::invalid_argument("no live overlay node on host");
  }
  return nodes_[it->second]->id;
}

bool PastryOverlay::host_has_node(net::HostId host) const {
  const auto it = index_by_host_.find(host);
  return it != index_by_host_.end() && nodes_[it->second]->alive;
}

const LeafSet& PastryOverlay::leaf_set(NodeId id) const { return node(id).leaves; }

const RoutingTable& PastryOverlay::routing_table(NodeId id) const { return node(id).table; }

void PastryOverlay::set_neighbor_callback(NodeId id, NeighborCallback callback) {
  node(id).on_leaf_change = std::move(callback);
}

void PastryOverlay::set_detector(NodeId id, FailureDetector* detector) {
  node(id).detector = detector;
}

FailureDetector* PastryOverlay::detector(NodeId id) const {
  const auto it = index_by_id_.find(id);
  if (it == index_by_id_.end() || !nodes_[it->second]->alive) return nullptr;
  return nodes_[it->second]->detector;
}

void PastryOverlay::notify_leaf_change(Node& n) {
  if (n.alive && n.on_leaf_change) n.on_leaf_change();
}

// One conceptual routing step of the Pastry algorithm (R&D'01 fig. 3):
// finish via the leaf set when it covers the key, otherwise fix the next
// digit via the routing table, otherwise (rare case) forward to any known
// strictly-closer node. Dead routing-table entries encountered are reported
// through `dead_rt` for the caller to prune.
std::optional<NodeId> PastryOverlay::compute_next_hop(const Node& cur, Key key,
                                                      std::vector<NodeId>* dead_rt) const {
  if (cur.leaves.covers(key)) {
    NodeId best = cur.id;
    for (const NodeId m : cur.leaves.members()) {
      if (is_live(m) && closer(key, m, best)) best = m;
    }
    if (best == cur.id) return std::nullopt;
    return best;
  }

  if (const auto nh = cur.table.next_hop(key); nh.has_value()) {
    if (is_live(*nh)) return *nh;
    if (dead_rt != nullptr) dead_rt->push_back(*nh);
  }

  // Rare case: no routing-table entry. Use any known node strictly closer
  // to the key than the current node.
  std::optional<NodeId> best;
  auto consider = [&](NodeId cand) {
    if (!is_live(cand) || !closer(key, cand, cur.id)) return;
    if (!best || closer(key, cand, *best)) best = cand;
  };
  for (const NodeId m : cur.leaves.members()) consider(m);
  for (const NodeId m : cur.table.entries()) consider(m);
  return best;  // nullopt => deliver locally
}

RouteResult PastryOverlay::route(net::HostId from_host, Key key) {
  Node* cur = &node(node_on_host(from_host));
  unsigned hops = 0;
  SimDuration cost{};
  for (;;) {
    std::vector<NodeId> dead;
    const auto next = compute_next_hop(*cur, key, &dead);
    for (const NodeId d : dead) {
      cur->table.remove(d);
      network_->note_timeout();
      cost += network_->config().rpc_timeout;
    }
    if (!next.has_value()) return {cur->id, hops, cost};
    Node& nx = node(*next);
    network_->count_overlay_hop(cur->host, nx.host);
    cost += network_->wire_time(cur->host, nx.host, 0);
    cur = &nx;
    if (++hops > 128) throw std::runtime_error("pastry routing did not converge");
  }
}

RouteResult PastryOverlay::trace_route(NodeId from, Key key) const {
  const Node* cur = &node(from);
  unsigned hops = 0;
  for (;;) {
    const auto next = compute_next_hop(*cur, key, nullptr);
    if (!next.has_value()) return {cur->id, hops};
    cur = &node(*next);
    if (++hops > 128) throw std::runtime_error("pastry routing did not converge");
  }
}

std::vector<NodeId> PastryOverlay::replica_targets(NodeId id, std::size_t k) const {
  std::vector<NodeId> out;
  if (k == 0) return out;
  for (const NodeId m : node(id).leaves.alternating_members(2 * k + 2)) {
    if (is_live(m)) out.push_back(m);
    if (out.size() == k) break;
  }
  return out;
}

void PastryOverlay::join(NodeId id, net::HostId host) {
  if (index_by_id_.count(id) != 0) throw std::invalid_argument("duplicate node id");
  if (host_has_node(host)) throw std::invalid_argument("host already runs a live node");

  nodes_.push_back(std::make_unique<Node>(id, host, config_));
  const std::size_t index = nodes_.size() - 1;
  index_by_id_[id] = index;
  index_by_host_[host] = index;
  Node& x = *nodes_[index];

  if (ring_.empty()) {
    ring_.insert(id, host);
    return;
  }

  // Route the join message from a bootstrap node to the node numerically
  // closest to the new id, remembering the path.
  Node* boot = &node(ring_.sorted().front().first);
  std::vector<Node*> path{boot};
  Node* cur = boot;
  network_->count_message();  // contact the bootstrap
  for (;;) {
    std::vector<NodeId> dead;
    const auto next = compute_next_hop(*cur, id, &dead);
    for (const NodeId d : dead) cur->table.remove(d);
    if (!next.has_value()) break;
    Node& nx = node(*next);
    network_->count_overlay_hop(cur->host, nx.host);
    cur = &nx;
    path.push_back(cur);
  }

  // Build the new node's state from every node on the path (a superset of
  // the classic per-row copy; converges to the same tables).
  for (Node* p : path) {
    network_->count_message(kStateBytes);
    auto offer = [&](NodeId cand) {
      if (!is_live(cand)) return;
      x.table.insert(cand);
      x.leaves.insert(cand);
    };
    offer(p->id);
    for (const NodeId cand : p->table.entries()) offer(cand);
    for (const NodeId cand : p->leaves.members()) offer(cand);
  }

  ring_.insert(id, host);

  // Announce the new node to everyone it learned about; they fold it into
  // their own state.
  std::set<NodeId> targets;
  for (const NodeId t : x.table.entries()) targets.insert(t);
  for (const NodeId t : x.leaves.members()) targets.insert(t);
  for (const NodeId t : targets) {
    if (!is_live(t)) continue;
    Node& peer = node(t);
    network_->count_message(kStateBytes / 4);
    peer.table.insert(id);
    if (peer.leaves.insert(id)) notify_leaf_change(peer);
  }
  notify_leaf_change(x);
}

void PastryOverlay::repair_leaf_set(Node& n) {
  // Pull leaf-set candidates from every remaining live member; the true
  // replacement neighbor is within l/2 positions of one of them. A
  // candidate the node's own failure detector has declared dead is not
  // accepted even when ground truth says it is live — the verdict may be
  // wrong (brownout), but the node cannot know that until the peer's
  // probes prove it (reintroduce()), and flip-flopping the leaf set in
  // between would churn replicas for nothing.
  auto declared = [&](NodeId cand) {
    return n.detector != nullptr && n.detector->has_declared_dead(cand);
  };
  auto acceptable = [&](NodeId cand) { return is_live(cand) && !declared(cand); };
  const std::vector<NodeId> snapshot = n.leaves.members();
  for (const NodeId m : snapshot) {
    // Eviction is verdict-driven, never ground-truth-driven: a member this
    // node has not declared dead stays in the leaf set even when it is in
    // fact down, so the failure detector keeps probing it. Evicting by
    // ground truth here would silently drop a second not-yet-detected
    // casualty while repairing around the first, and a node absent from
    // every leaf set is never probed — its death would go undeclared
    // forever. Without a detector (oracle mode) ground truth is the only
    // signal there is.
    if (declared(m) || (n.detector == nullptr && !is_live(m))) {
      n.leaves.remove(m);
      continue;
    }
    if (!is_live(m)) continue;  // a silent peer answers no state pull
    const Node& peer = node(m);
    network_->count_rtt(kStateBytes / 4);
    n.leaves.insert(peer.id);
    for (const NodeId cand : peer.leaves.members()) {
      if (acceptable(cand)) n.leaves.insert(cand);
    }
  }
}

void PastryOverlay::mark_dead(NodeId id) {
  Node& f = node(id);
  if (!f.alive) return;
  f.alive = false;
  f.on_leaf_change = nullptr;
  f.detector = nullptr;  // pending probe events resolve to null and no-op
  ring_.remove(id);
  if (const auto it = index_by_host_.find(f.host);
      it != index_by_host_.end() && nodes_[it->second]->id == id) {
    index_by_host_.erase(it);
  }
}

void PastryOverlay::fail(NodeId id) {
  if (!is_live(id)) return;
  mark_dead(id);

  for (const auto& up : nodes_) {
    Node& n = *up;
    if (!n.alive) continue;
    if (n.leaves.remove(id)) {
      network_->note_timeout();  // the failure is detected by a peer
      repair_leaf_set(n);
      notify_leaf_change(n);
    }
    // Routing-table entries decay lazily during routing.
  }
}

void PastryOverlay::report_failure(NodeId observer, NodeId dead) {
  Node& n = node(observer);
  if (!n.alive) return;
  const bool was_member = n.leaves.remove(dead);
  n.table.remove(dead);
  if (!was_member) return;
  repair_leaf_set(n);
  notify_leaf_change(n);
  if (failure_listener_) failure_listener_(observer, dead);
}

void PastryOverlay::reintroduce(NodeId observer, NodeId peer) {
  Node& n = node(observer);
  if (!n.alive || !is_live(peer)) return;
  // Exchange state with the returning peer (it may have drifted while we
  // shunned it), then fold it back in.
  network_->count_rtt(kStateBytes / 4);
  n.table.insert(peer);
  if (n.leaves.insert(peer)) notify_leaf_change(n);
}

}  // namespace kosha::pastry
