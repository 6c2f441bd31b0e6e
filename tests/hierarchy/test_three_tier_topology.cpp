// Three-tier topology shapes: coarsening consistency, group-id allocation
// across tiers, balanced region/zone blocks, and shape validation — the
// descriptor-level guarantees the 3-tier failover battery builds on.
#include "hierarchy/topology.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace omega::hierarchy {
namespace {

TEST(ThreeTierTopology, ChainIsConsistentAcrossTiers) {
  const topology topo(18, {6, 3, 1});
  ASSERT_EQ(topo.tiers(), 3u);
  EXPECT_EQ(topo.top_tier(), 2u);
  for (std::uint32_t i = 0; i < 18; ++i) {
    const node_id n{i};
    // Tier-0 group index is the region; tier 1 coarsens pairs of regions
    // (6 regions -> 3 zones); tier 2 is the single global group.
    EXPECT_EQ(topo.group_index(n, 0), topo.region_of(n));
    EXPECT_EQ(topo.group_index(n, 1), topo.region_of(n) * 3 / 6);
    EXPECT_EQ(topo.group_index(n, 2), 0u);
    EXPECT_EQ(topo.group_at(n, 2), topo.top_group());
  }
}

TEST(ThreeTierTopology, SameZoneIffSameCoarsenedRegion) {
  const topology topo(18, {6, 3, 1});
  for (std::uint32_t a = 0; a < 18; ++a) {
    for (std::uint32_t b = 0; b < 18; ++b) {
      const bool same_zone =
          topo.group_at(node_id{a}, 1) == topo.group_at(node_id{b}, 1);
      EXPECT_EQ(same_zone, topo.group_index(node_id{a}, 1) ==
                               topo.group_index(node_id{b}, 1));
      // Nodes of one region never straddle a zone boundary.
      if (topo.same_region(node_id{a}, node_id{b})) {
        EXPECT_TRUE(same_zone);
      }
    }
  }
}

TEST(ThreeTierTopology, GroupIdsAreDistinctAcrossAllTiers) {
  const topology topo(40, {8, 4, 1});
  std::set<std::uint32_t> ids;
  for (std::size_t tier = 0; tier < topo.tiers(); ++tier) {
    for (std::size_t g = 0; g < topo.groups_in_tier(tier); ++g) {
      EXPECT_TRUE(ids.insert(topo.tier_group(tier, g).value()).second)
          << "duplicate group id at tier " << tier << " index " << g;
    }
  }
  EXPECT_EQ(ids.size(), 8u + 4u + 1u);
  // All allocated from the private base, clear of application group ids.
  for (const auto id : ids) {
    EXPECT_GE(id, topology::default_group_base);
  }
}

TEST(ThreeTierTopology, RegionSizesArePartitionOfRoster) {
  // Uneven split: 17 nodes over 5 regions — sizes differ by at most one
  // and region_size stays the exact inverse of region_of.
  const topology topo(17, {5, 2, 1});
  std::size_t total = 0;
  for (std::size_t r = 0; r < 5; ++r) {
    const std::size_t size = topo.region_size(r);
    EXPECT_GE(size, 17u / 5u);
    EXPECT_LE(size, 17u / 5u + 1u);
    total += size;
  }
  EXPECT_EQ(total, 17u);
  std::size_t counted = 0;
  for (std::uint32_t i = 0; i < 17; ++i) {
    counted += topo.region_of(node_id{i}) < 5 ? 1 : 0;
  }
  EXPECT_EQ(counted, 17u);
}

TEST(ThreeTierTopology, MalformedShapesThrow) {
  EXPECT_THROW(topology(18, {4, 5, 1}), std::invalid_argument);  // widening
  EXPECT_THROW(topology(18, {6, 3, 2}), std::invalid_argument);  // top != 1
  EXPECT_THROW(topology(18, {6, 0, 1}), std::invalid_argument);  // empty tier
  EXPECT_THROW(topology(4, {6, 3, 1}), std::invalid_argument);   // regions > nodes
  EXPECT_NO_THROW(topology(18, {6, 3, 1}));
  EXPECT_NO_THROW(topology(18, {6, 6, 1}));  // equal-width middle tier is legal
}

}  // namespace
}  // namespace omega::hierarchy
