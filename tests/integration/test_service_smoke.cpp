// End-to-end smoke tests: a full simulated cluster running the real service
// stack (transport, FD, membership, election) for each of the three
// algorithms. These are the first line of defence for the whole system.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"

namespace omega::harness {
namespace {

scenario quiet_scenario(election::algorithm alg, std::size_t nodes = 4) {
  scenario sc;
  sc.name = "smoke";
  sc.nodes = nodes;
  sc.alg = alg;
  sc.links = net::link_profile::lan();
  sc.churn = churn_profile::none();
  sc.measured = sec(60);
  sc.warmup = sec(30);
  sc.seed = 7;
  return sc;
}

class ServiceSmoke : public ::testing::TestWithParam<election::algorithm> {};

TEST_P(ServiceSmoke, StableClusterAgreesOnOneLeaderForever) {
  experiment exp(quiet_scenario(GetParam()));
  const auto res = exp.run();
  EXPECT_DOUBLE_EQ(res.p_leader, 1.0) << "quiet cluster must stay agreed";
  EXPECT_EQ(res.unjustified, 0u);
  EXPECT_EQ(res.leader_crashes, 0u);
}

TEST_P(ServiceSmoke, AllNodesSeeTheSameLeader) {
  experiment exp(quiet_scenario(GetParam()));
  exp.run();
  const group_id g{1};
  std::optional<process_id> leader;
  for (std::uint32_t i = 0; i < 4; ++i) {
    auto* svc = exp.node_service(node_id{i});
    ASSERT_NE(svc, nullptr);
    const auto view = svc->leader(g);
    ASSERT_TRUE(view.has_value());
    if (!leader) leader = view;
    EXPECT_EQ(view, leader);
  }
}

TEST_P(ServiceSmoke, LeaderCrashTriggersRecoveryWithinQoSBound) {
  experiment exp(quiet_scenario(GetParam()));
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(30));
  exp.group().begin(sim.now());

  const auto leader = exp.group().agreed_leader();
  ASSERT_TRUE(leader.has_value());
  exp.crash_node(node_id{leader->value()});
  // Default QoS: detect within 1s; election adds a little on a LAN.
  sim.run_until(sim.now() + sec(5));
  const auto new_leader = exp.group().agreed_leader();
  ASSERT_TRUE(new_leader.has_value());
  EXPECT_NE(*new_leader, *leader);
  exp.group().finish(sim.now());
  ASSERT_EQ(exp.group().recovery_times().count(), 1u);
  EXPECT_LT(exp.group().recovery_times().mean(), 2.0);
}

TEST_P(ServiceSmoke, CrashedLeaderRejoinsWithoutDisruption) {
  // Stability: the recovered ex-leader must NOT demote the new leader
  // (except under omega_id, where it does by design if it has a lower id).
  const auto alg = GetParam();
  experiment exp(quiet_scenario(alg));
  auto& sim = exp.simulator();
  sim.run_until(time_origin + sec(30));
  exp.group().begin(sim.now());

  const auto old_leader = exp.group().agreed_leader();
  ASSERT_TRUE(old_leader.has_value());
  exp.crash_node(node_id{old_leader->value()});
  sim.run_until(sim.now() + sec(5));
  exp.recover_node(node_id{old_leader->value()});
  sim.run_until(sim.now() + sec(30));
  exp.group().finish(sim.now());

  const auto final_leader = exp.group().agreed_leader();
  ASSERT_TRUE(final_leader.has_value());
  if (alg == election::algorithm::omega_id) {
    // Smallest id wins again after rejoining: one unjustified demotion.
    EXPECT_EQ(*final_leader, *old_leader);
    EXPECT_GE(exp.group().unjustified_demotions(), 1u);
  } else {
    EXPECT_NE(*final_leader, *old_leader);
    EXPECT_EQ(exp.group().unjustified_demotions(), 0u);
  }
}

std::string algorithm_name(const ::testing::TestParamInfo<election::algorithm>& info) {
  switch (info.param) {
    case election::algorithm::omega_id:
      return "S1_omega_id";
    case election::algorithm::omega_lc:
      return "S2_omega_lc";
    case election::algorithm::omega_l:
      return "S3_omega_l";
    case election::algorithm::omega_lc_noforward:
      return "S2_omega_lc_noforward";
    case election::algorithm::omega_l_nophase:
      return "S3_omega_l_nophase";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ServiceSmoke,
                         ::testing::Values(election::algorithm::omega_id,
                                           election::algorithm::omega_lc,
                                           election::algorithm::omega_l),
                         algorithm_name);

}  // namespace
}  // namespace omega::harness
