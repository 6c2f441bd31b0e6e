// Unit tests for the hierarchy topology descriptor: group-id allocation,
// region mapping, and shape validation.
#include "hierarchy/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

namespace omega::hierarchy {
namespace {

TEST(Topology, TwoTierShape) {
  const topology t = topology::two_tier(12, 3);
  EXPECT_EQ(t.nodes(), 12u);
  EXPECT_EQ(t.tiers(), 2u);
  EXPECT_EQ(t.top_tier(), 1u);
  EXPECT_EQ(t.groups_in_tier(0), 3u);
  EXPECT_EQ(t.groups_in_tier(1), 1u);
}

TEST(Topology, ContiguousBalancedRegions) {
  const topology t = topology::two_tier(12, 3);
  for (std::uint32_t i = 0; i < 12; ++i) {
    EXPECT_EQ(t.region_of(node_id{i}), i / 4u);
  }
  EXPECT_EQ(t.region_size(0), 4u);
  EXPECT_TRUE(t.same_region(node_id{0}, node_id{3}));
  EXPECT_FALSE(t.same_region(node_id{3}, node_id{4}));
}

TEST(Topology, NonDividingRosterStaysBalanced) {
  // 11 nodes over 3 regions: sizes may differ by at most one, every node
  // lands in exactly one region, and region_size must agree exactly with
  // counting region_of assignments (the two formulas must be inverses).
  const topology t = topology::two_tier(11, 3);
  std::size_t counted[3] = {0, 0, 0};
  for (std::uint32_t i = 0; i < 11; ++i) {
    const std::size_t r = t.region_of(node_id{i});
    ASSERT_LT(r, 3u);
    ++counted[r];
  }
  std::size_t total = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    const std::size_t size = t.region_size(r);
    EXPECT_EQ(size, counted[r]) << "region " << r;
    EXPECT_GE(size, 3u);
    EXPECT_LE(size, 4u);
    total += size;
  }
  EXPECT_EQ(total, 11u);
}

TEST(Topology, GroupIdsAreUniqueAcrossTiers) {
  const topology t(24, {6, 2, 1});
  std::unordered_set<group_id> ids;
  for (std::size_t tier = 0; tier < t.tiers(); ++tier) {
    for (std::size_t g = 0; g < t.groups_in_tier(tier); ++g) {
      EXPECT_TRUE(ids.insert(t.tier_group(tier, g)).second);
    }
  }
  EXPECT_EQ(ids.size(), 9u);
  EXPECT_EQ(t.top_group(), t.tier_group(2, 0));
}

TEST(Topology, GroupChainCoarsensMonotonically) {
  const topology t(24, {6, 2, 1});
  for (std::uint32_t i = 0; i < 24; ++i) {
    const node_id n{i};
    EXPECT_EQ(t.group_at(n, 0), t.tier_group(0, t.region_of(n)));
    // Nodes in the same tier-0 region share every upper-tier group.
    EXPECT_EQ(t.group_index(n, 1), t.region_of(n) * 2 / 6);
    EXPECT_EQ(t.group_at(n, 2), t.top_group());
  }
}

TEST(Topology, RejectsMalformedShapes) {
  EXPECT_THROW(topology(0, {1}), std::invalid_argument);
  EXPECT_THROW(topology(4, {}), std::invalid_argument);
  EXPECT_THROW(topology(4, {2, 2}), std::invalid_argument);   // top != 1
  EXPECT_THROW(topology(4, {2, 3, 1}), std::invalid_argument);  // growing
  EXPECT_THROW(topology(4, {8, 1}), std::invalid_argument);   // > nodes
  EXPECT_THROW((void)topology::two_tier(12, 3).tier_group(0, 3),
               std::out_of_range);
  EXPECT_THROW((void)topology::two_tier(12, 3).region_of(node_id{12}),
               std::out_of_range);
}

}  // namespace
}  // namespace omega::hierarchy
