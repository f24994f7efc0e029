// Structural invariants of the overlay state, checked after random churn:
// routing-table entries sit in the slot their prefix dictates, leaf sets
// are symmetric between ring neighbors, and every table references only
// known nodes.

#include <gtest/gtest.h>

#include "common/event_loop.hpp"
#include "common/rng.hpp"
#include "net/sim_network.hpp"
#include "pastry/overlay.hpp"

namespace kosha::pastry {
namespace {

class OverlayInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OverlayInvariants, HoldAfterChurn) {
  SimClock clock;
  EventLoop loop(&clock);
  net::SimNetwork network({}, loop);
  PastryOverlay overlay({}, &network);
  Rng rng(GetParam());
  std::vector<NodeId> live;
  for (int i = 0; i < 48; ++i) {
    const NodeId id = rng.next_id();
    live.push_back(id);
    overlay.join(id, network.add_host());
  }
  for (int round = 0; round < 25; ++round) {
    if (rng.next_bool(0.45) && live.size() > 6) {
      const std::size_t victim = rng.next_below(live.size());
      overlay.fail(live[victim]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      const NodeId id = rng.next_id();
      live.push_back(id);
      overlay.join(id, network.add_host());
    }
  }

  const PastryConfig& config = overlay.config();
  for (const NodeId id : live) {
    // Routing-table entries are placed by shared prefix + next digit.
    const RoutingTable& table = overlay.routing_table(id);
    for (const NodeId entry : table.entries()) {
      const unsigned row = id.shared_prefix_length(entry, config.bits_per_digit);
      const unsigned column = entry.digit(row, config.bits_per_digit);
      EXPECT_EQ(table.entry(row, column), entry);
      EXPECT_NE(entry, id);
    }
    // Leaf sets never contain the owner and have bounded sides.
    const LeafSet& leaves = overlay.leaf_set(id);
    EXPECT_FALSE(leaves.contains(id));
    EXPECT_LE(leaves.side(false).size(), config.leaf_half());
    EXPECT_LE(leaves.side(true).size(), config.leaf_half());
  }

  // Immediate ring neighbors know each other (symmetry of adjacency).
  const auto& sorted = overlay.ring().sorted();
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const NodeId a = sorted[i].first;
    const NodeId b = sorted[(i + 1) % sorted.size()].first;
    if (a == b) continue;
    EXPECT_TRUE(overlay.leaf_set(a).contains(b))
        << a.to_hex() << " missing successor " << b.to_hex();
    EXPECT_TRUE(overlay.leaf_set(b).contains(a))
        << b.to_hex() << " missing predecessor " << a.to_hex();
  }

  // Every key routes to the ground-truth owner from every node.
  for (int trial = 0; trial < 60; ++trial) {
    const Key key = rng.next_id();
    const NodeId from = live[rng.next_below(live.size())];
    EXPECT_EQ(overlay.route(overlay.host_of(from), key).owner, overlay.ring().owner(key));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayInvariants,
                         ::testing::Values(7001, 7002, 7003, 7004, 7005, 7006));

}  // namespace
}  // namespace kosha::pastry
