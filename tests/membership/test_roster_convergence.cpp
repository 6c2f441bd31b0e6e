// Property-style convergence tests of roster-scoped dissemination: a small
// cluster of group_maintenance instances wired through an in-memory bus
// must converge to identical group rosters after join/leave churn, and the
// round-robin discovery probes must heal a lost join HELLO.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "membership/group_maintenance.hpp"
#include "proto/wire.hpp"
#include "sim/simulator.hpp"

namespace omega::membership {
namespace {

const group_id g1{1};
const group_id g2{2};

/// N maintenance modules delivering to each other synchronously (the
/// membership protocol itself is delay-tolerant; the property under test is
/// state convergence, not timing).
struct bus {
  sim::simulator sim;
  std::vector<std::unique_ptr<group_maintenance>> gms;
  /// When true, every delivery is suppressed (a total blackout used to
  /// simulate a lost join HELLO).
  bool drop_all = false;

  explicit bus(std::size_t n) {
    group_maintenance::options opts;
    opts.fanout = hello_fanout::roster;
    std::vector<node_id> roster;
    for (std::size_t i = 0; i < n; ++i) {
      roster.push_back(node_id{static_cast<std::uint32_t>(i)});
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto gm = std::make_unique<group_maintenance>(
          sim, sim, node_id{static_cast<std::uint32_t>(i)}, /*inc=*/1, opts);
      gm->set_cluster_roster(roster);
      gms.push_back(std::move(gm));
    }
    for (std::size_t i = 0; i < n; ++i) {
      auto* gm = gms[i].get();
      gm->set_broadcast([this, i](const proto::wire_message& m) {
        for (std::size_t j = 0; j < gms.size(); ++j) {
          if (j != i) deliver(i, j, m);
        }
      });
      gm->set_multicast([this, i](const std::vector<node_id>& dsts,
                                  const proto::wire_message& m) {
        for (const node_id dst : dsts) deliver(i, dst.value(), m);
      });
      gm->set_unicast([this, i](node_id dst, const proto::wire_message& m) {
        deliver(i, dst.value(), m);
      });
      gm->start();
    }
  }

  void deliver(std::size_t from, std::size_t to, const proto::wire_message& m) {
    (void)from;
    if (drop_all || to >= gms.size()) return;
    auto& target = *gms[to];
    if (const auto* hello = std::get_if<proto::hello_msg>(&m)) {
      target.on_hello(*hello, sim.now());
    } else if (const auto* ack = std::get_if<proto::hello_ack_msg>(&m)) {
      target.on_hello_ack(*ack, sim.now());
    } else if (const auto* leave = std::get_if<proto::leave_msg>(&m)) {
      target.on_leave(*leave);
    }
  }

  [[nodiscard]] std::set<std::uint32_t> roster_of(std::size_t i,
                                                  group_id g) const {
    std::set<std::uint32_t> pids;
    for (const auto& m : gms[i]->table(g).members_view()) pids.insert(m.pid.value());
    return pids;
  }
};

TEST(RosterConvergence, AllMembersConvergeAfterJoinChurn) {
  bus b(5);
  // Staggered joins with overlapping groups: evens join g1, odds g2, node 0
  // joins both.
  for (std::size_t i = 0; i < 5; ++i) {
    const process_id pid{static_cast<std::uint32_t>(i)};
    if (i % 2 == 0) b.gms[i]->local_join(g1, pid, true);
    if (i % 2 == 1 || i == 0) {
      b.gms[i]->local_join(g2, process_id{static_cast<std::uint32_t>(100 + i)},
                           true);
    }
    b.sim.run_until(b.sim.now() + msec(500));
  }
  b.sim.run_until(b.sim.now() + sec(10));

  const std::set<std::uint32_t> g1_expected{0, 2, 4};
  const std::set<std::uint32_t> g2_expected{100, 101, 103};
  for (const std::size_t i : {0u, 2u, 4u}) {
    EXPECT_EQ(b.roster_of(i, g1), g1_expected) << "node " << i;
  }
  for (const std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(b.roster_of(i, g2), g2_expected) << "node " << i;
  }
}

TEST(RosterConvergence, LeaveChurnConvergesEverywhere) {
  bus b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    b.gms[i]->local_join(g1, process_id{static_cast<std::uint32_t>(i)}, true);
  }
  b.sim.run_until(b.sim.now() + sec(5));
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(b.roster_of(i, g1), (std::set<std::uint32_t>{0, 1, 2, 3}));
  }

  b.gms[2]->local_leave(g1, process_id{2});
  b.sim.run_until(b.sim.now() + sec(5));
  for (const std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(b.roster_of(i, g1), (std::set<std::uint32_t>{0, 1, 3}))
        << "node " << i << " still lists the departed member";
  }
}

TEST(RosterConvergence, ProbesHealALostJoinHello) {
  bus b(4);
  for (std::size_t i = 0; i < 3; ++i) {
    b.gms[i]->local_join(g1, process_id{static_cast<std::uint32_t>(i)}, true);
  }
  b.sim.run_until(b.sim.now() + sec(5));

  // Node 3 joins during a blackout: its join HELLO (and first sweeps) are
  // lost, so nobody knows it and — because its own table only holds itself —
  // its scoped sweeps alone would never reach the others.
  b.drop_all = true;
  b.gms[3]->local_join(g1, process_id{3}, true);
  b.sim.run_until(b.sim.now() + sec(5));
  b.drop_all = false;
  EXPECT_EQ(b.roster_of(0, g1), (std::set<std::uint32_t>{0, 1, 2}));

  // The round-robin discovery probes (reply-requested HELLOs to roster
  // nodes outside the scoped set) must reconnect it within a few sweeps.
  b.sim.run_until(b.sim.now() + sec(15));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b.roster_of(i, g1), (std::set<std::uint32_t>{0, 1, 2, 3}))
        << "node " << i << " did not heal after the blackout";
  }
}

}  // namespace
}  // namespace omega::membership
