// Multi-group integration tests: one cluster, several groups with
// different QoS and candidate sets, exercising the shared-FD architecture
// end to end.
#include <gtest/gtest.h>

#include <memory>

#include "net/sim_network.hpp"
#include "service/service.hpp"
#include "sim/simulator.hpp"

namespace omega::service {
namespace {

node_id nid(std::size_t i) { return node_id{static_cast<std::uint32_t>(i)}; }
process_id pid(std::size_t i) {
  return process_id{static_cast<std::uint32_t>(i)};
}

const group_id fast_group{1};   // tight FD QoS
const group_id slow_group{2};   // loose FD QoS

struct multi_cluster {
  explicit multi_cluster(std::size_t n) : net(sim, n, net::link_profile::lan(), rng{31}) {
    for (std::size_t i = 0; i < n; ++i) roster.push_back(nid(i));
    for (std::size_t i = 0; i < n; ++i) {
      service_config cfg;
      cfg.self = nid(i);
      cfg.roster = roster;
      cfg.alg = election::algorithm::omega_lc;
      services.push_back(std::make_unique<leader_election_service>(
          sim, sim, net.endpoint(nid(i)), cfg));
      auto& svc = *services.back();
      svc.register_process(pid(i));

      join_options fast;
      fast.qos.detection_time = msec(300);
      svc.join_group(pid(i), fast_group, fast);

      join_options slow;
      slow.qos.detection_time = sec(2);
      svc.join_group(pid(i), slow_group, slow);
    }
    sim.run_until(sim.now() + sec(10));
  }

  void crash(std::size_t i) {
    net.set_node_alive(nid(i), false);
    services[i].reset();
  }

  std::optional<process_id> leader(std::size_t node, group_id g) {
    return services[node] ? services[node]->leader(g) : std::nullopt;
  }

  sim::simulator sim;
  net::sim_network net;
  std::vector<node_id> roster;
  std::vector<std::unique_ptr<leader_election_service>> services;
};

TEST(MultiGroup, BothGroupsElectTheSameClusterIndependently) {
  multi_cluster c(4);
  const auto lf = c.leader(0, fast_group);
  const auto ls = c.leader(0, slow_group);
  ASSERT_TRUE(lf.has_value());
  ASSERT_TRUE(ls.has_value());
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(c.leader(i, fast_group), lf);
    EXPECT_EQ(c.leader(i, slow_group), ls);
  }
}

TEST(MultiGroup, TightQoSGroupRecoversFasterAfterLeaderCrash) {
  multi_cluster c(4);
  const auto lf = c.leader(0, fast_group);
  const auto ls = c.leader(0, slow_group);
  ASSERT_TRUE(lf.has_value());
  ASSERT_EQ(lf, ls) << "same ranking on both groups in this deployment";

  c.crash(lf->value());

  // After the fast group's detection bound (300 ms) plus margin but well
  // before the slow group's (2 s), only the fast group has moved on.
  const std::size_t probe = (lf->value() + 1) % 4;
  c.sim.run_until(c.sim.now() + msec(800));
  const auto fast_leader = c.leader(probe, fast_group);
  const auto slow_leader = c.leader(probe, slow_group);
  ASSERT_TRUE(fast_leader.has_value());
  EXPECT_NE(*fast_leader, *lf) << "fast group should have re-elected by now";
  ASSERT_TRUE(slow_leader.has_value());
  EXPECT_EQ(*slow_leader, *lf) << "slow group should still be in detection";

  // Eventually the slow group follows.
  c.sim.run_until(c.sim.now() + sec(5));
  const auto slow_after = c.leader(probe, slow_group);
  ASSERT_TRUE(slow_after.has_value());
  EXPECT_NE(*slow_after, *lf);
}

TEST(MultiGroup, HeartbeatRateFollowsTightestGroup) {
  multi_cluster c(2);
  // The node-level stream must satisfy the 300 ms group: eta <= 150 ms.
  EXPECT_LE(c.services[0]->current_eta(), msec(150));

  // Leaving the fast group everywhere relaxes the shared rate.
  for (std::size_t i = 0; i < 2; ++i) {
    c.services[i]->leave_group(pid(i), fast_group);
  }
  c.sim.run_until(c.sim.now() + sec(60));
  EXPECT_GT(c.services[0]->current_eta(), msec(150))
      << "without the tight group the stream should slow down";
}

TEST(MultiGroup, DisjointCandidateSetsYieldDifferentLeaders) {
  sim::simulator sim;
  net::sim_network net(sim, 4, net::link_profile::lan(), rng{32});
  std::vector<node_id> roster;
  for (std::size_t i = 0; i < 4; ++i) roster.push_back(nid(i));
  std::vector<std::unique_ptr<leader_election_service>> services;
  for (std::size_t i = 0; i < 4; ++i) {
    service_config cfg;
    cfg.self = nid(i);
    cfg.roster = roster;
    cfg.alg = election::algorithm::omega_l;
    services.push_back(std::make_unique<leader_election_service>(
        sim, sim, net.endpoint(nid(i)), cfg));
    services.back()->register_process(pid(i));
    join_options a;
    a.candidate = i < 2;  // group 1: candidates {0, 1}
    services.back()->join_group(pid(i), group_id{1}, a);
    join_options b;
    b.candidate = i >= 2;  // group 2: candidates {2, 3}
    services.back()->join_group(pid(i), group_id{2}, b);
  }
  sim.run_until(sim.now() + sec(10));

  const auto l1 = services[0]->leader(group_id{1});
  const auto l2 = services[0]->leader(group_id{2});
  ASSERT_TRUE(l1.has_value());
  ASSERT_TRUE(l2.has_value());
  EXPECT_LT(l1->value(), 2u);
  EXPECT_GE(l2->value(), 2u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(services[i]->leader(group_id{1}), l1);
    EXPECT_EQ(services[i]->leader(group_id{2}), l2);
  }
}

}  // namespace
}  // namespace omega::service
