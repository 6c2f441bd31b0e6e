// Unit tests for the Group Maintenance module: HELLO/HELLO_ACK/LEAVE
// handling, implicit membership via ALIVE, anti-entropy, eviction, and
// reincarnation — driven with a hand-cranked simulator clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <tuple>
#include <unordered_set>

#include "membership/group_maintenance.hpp"
#include "sim/simulator.hpp"

namespace omega::membership {
namespace {

const group_id g1{1};
const group_id g2{2};
constexpr node_id n0{0};
constexpr node_id n1{1};
constexpr node_id n2{2};

struct gm_fixture {
  sim::simulator sim;
  std::vector<proto::wire_message> broadcasts;
  std::vector<std::pair<node_id, proto::wire_message>> unicasts;
  std::vector<std::pair<group_id, member_info>> joined;
  std::vector<std::pair<group_id, member_info>> removed;
  std::unordered_set<std::uint32_t> vouched_nodes;  // FD trust by node value
  group_maintenance gm;

  explicit gm_fixture(group_maintenance::options opts = {})
      : gm(sim, sim, n0, /*inc=*/1, opts) {
    gm.set_broadcast([this](const proto::wire_message& m) {
      broadcasts.push_back(m);
    });
    gm.set_unicast([this](node_id dst, const proto::wire_message& m) {
      unicasts.emplace_back(dst, m);
    });
    gm.set_vouch([this](group_id, const member_info& m) {
      return vouched_nodes.count(m.node.value()) > 0;
    });
    gm.set_events(group_maintenance::events{
        .on_member_joined =
            [this](group_id g, const member_info& m) {
              joined.emplace_back(g, m);
            },
        .on_member_removed =
            [this](group_id g, const member_info& m) {
              removed.emplace_back(g, m);
            },
        .on_member_reincarnated = nullptr,
    });
    gm.start();
  }

  proto::hello_msg hello_from(node_id node, incarnation inc, group_id g,
                              process_id pid, bool reply = false) {
    proto::hello_msg msg;
    msg.from = node;
    msg.inc = inc;
    msg.reply_requested = reply;
    msg.entries.push_back({g, pid, true});
    return msg;
  }
};

TEST(GroupMaintenance, LocalJoinBroadcastsHello) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  ASSERT_FALSE(f.broadcasts.empty());
  const auto* hello = std::get_if<proto::hello_msg>(&f.broadcasts.back());
  ASSERT_NE(hello, nullptr);
  EXPECT_TRUE(hello->reply_requested);
  ASSERT_EQ(hello->entries.size(), 1u);
  EXPECT_EQ(hello->entries[0].group, g1);
}

TEST(GroupMaintenance, LocalJoinAppearsInTable) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  EXPECT_TRUE(f.gm.table(g1).find(process_id{0}) != nullptr);
  EXPECT_EQ(f.gm.local_member(g1)->pid, process_id{0});
  EXPECT_EQ(f.gm.groups().size(), 1u);
}

TEST(GroupMaintenance, HelloAddsRemoteMember) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  const auto* m = f.gm.table(g1).find(process_id{1});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->node, n1);
  EXPECT_EQ(f.joined.size(), 2u);  // self + remote
}

TEST(GroupMaintenance, HelloForUnknownGroupIgnored) {
  // A node that never joined g2 must not start tracking it just because a
  // peer mentioned it (the peer's snapshot means nothing to us here).
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g2, process_id{1}), f.sim.now());
  EXPECT_EQ(f.gm.table(g2).members_view().size(), 0u);
}

TEST(GroupMaintenance, ReplyRequestedHelloGetsSnapshotAck) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}, /*reply=*/true),
                f.sim.now());
  ASSERT_FALSE(f.unicasts.empty());
  EXPECT_EQ(f.unicasts.back().first, n1);
  const auto* ack =
      std::get_if<proto::hello_ack_msg>(&f.unicasts.back().second);
  ASSERT_NE(ack, nullptr);
  // The snapshot must mention both us and the newly learned member.
  EXPECT_EQ(ack->entries.size(), 2u);
}

TEST(GroupMaintenance, PeriodicHelloIsAntiEntropy) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  const auto before = f.broadcasts.size();
  f.sim.run_until(f.sim.now() + sec(10));
  EXPECT_GE(f.broadcasts.size(), before + 4)
      << "periodic HELLO must keep broadcasting";
}

TEST(GroupMaintenance, HelloAckPopulatesMembership) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  proto::hello_ack_msg ack;
  ack.from = n1;
  ack.inc = 1;
  ack.entries.push_back({g1, process_id{1}, n1, 1, true});
  ack.entries.push_back({g1, process_id{2}, n2, 3, false});
  f.gm.on_hello_ack(ack, f.sim.now());
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
  const auto* p2 = f.gm.table(g1).find(process_id{2});
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(p2->inc, 3u);
  EXPECT_FALSE(p2->candidate);
}

TEST(GroupMaintenance, AliveIsImplicitMembership) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  proto::alive_msg alive;
  alive.from = n2;
  alive.inc = 2;
  proto::group_payload p;
  p.group = g1;
  p.pid = process_id{2};
  p.candidate = true;
  p.competing = true;
  alive.groups.push_back(p);
  f.gm.on_alive(alive, f.sim.now());
  const auto* m = f.gm.table(g1).find(process_id{2});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->inc, 2u);
}

TEST(GroupMaintenance, LeaveRemovesMember) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  ASSERT_NE(f.gm.table(g1).find(process_id{1}), nullptr);

  proto::leave_msg leave;
  leave.from = n1;
  leave.inc = 1;
  leave.group = g1;
  leave.pid = process_id{1};
  f.gm.on_leave(leave);
  EXPECT_EQ(f.gm.table(g1).find(process_id{1}), nullptr);
  ASSERT_FALSE(f.removed.empty());
  EXPECT_EQ(f.removed.back().second.pid, process_id{1});
}

TEST(GroupMaintenance, StaleLeaveIgnored) {
  // A LEAVE from an older incarnation must not remove the live member.
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 3, g1, process_id{1}), f.sim.now());

  proto::leave_msg leave;
  leave.from = n1;
  leave.inc = 2;  // previous life
  leave.group = g1;
  leave.pid = process_id{1};
  f.gm.on_leave(leave);
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, LocalLeaveBroadcastsAndForgets) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.broadcasts.clear();
  f.gm.local_leave(g1, process_id{0});
  ASSERT_FALSE(f.broadcasts.empty());
  EXPECT_NE(std::get_if<proto::leave_msg>(&f.broadcasts.front()), nullptr);
  EXPECT_EQ(f.gm.local_member(g1), std::nullopt);
}

TEST(GroupMaintenance, SilentMemberEvictedAfterTimeout) {
  group_maintenance::options opts;
  opts.eviction_after = sec(10);
  gm_fixture f(opts);
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  // The FD does not vouch for n1 (vouched_nodes empty) and it sends
  // nothing: it must be gone after the eviction window (+ sweep period).
  f.sim.run_until(f.sim.now() + sec(15));
  EXPECT_EQ(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, VouchedMemberSurvivesSilence) {
  // Omega_l followers are silent by design; the FD's node-level trust must
  // keep them from being evicted.
  group_maintenance::options opts;
  opts.eviction_after = sec(10);
  gm_fixture f(opts);
  f.vouched_nodes.insert(n1.value());
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  f.sim.run_until(f.sim.now() + sec(30));
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, RefreshPreventsEviction) {
  group_maintenance::options opts;
  opts.eviction_after = sec(10);
  gm_fixture f(opts);
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  for (int i = 0; i < 6; ++i) {
    f.sim.run_until(f.sim.now() + sec(5));
    f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  }
  EXPECT_NE(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(GroupMaintenance, ReincarnationReplacesOldEntry) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  f.removed.clear();
  // Same process re-joins with a higher incarnation (after a crash).
  f.gm.on_hello(f.hello_from(n1, 2, g1, process_id{1}), f.sim.now());
  const auto* m = f.gm.table(g1).find(process_id{1});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->inc, 2u);
  // The old incarnation was removed on the way.
  ASSERT_EQ(f.removed.size(), 1u);
  EXPECT_EQ(f.removed[0].second.inc, 1u);
}

TEST(GroupMaintenance, StaleIncarnationHelloIgnored) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.on_hello(f.hello_from(n1, 5, g1, process_id{1}), f.sim.now());
  f.gm.on_hello(f.hello_from(n1, 4, g1, process_id{1}), f.sim.now());
  EXPECT_EQ(f.gm.table(g1).find(process_id{1})->inc, 5u);
}

TEST(GroupMaintenance, MultipleGroupsTrackedIndependently) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.local_join(g2, process_id{0}, false);
  f.gm.on_hello(f.hello_from(n1, 1, g1, process_id{1}), f.sim.now());
  EXPECT_EQ(f.gm.table(g1).members_view().size(), 2u);
  EXPECT_EQ(f.gm.table(g2).members_view().size(), 1u);
  EXPECT_FALSE(f.gm.local_member(g2)->candidate);
}

TEST(GroupMaintenance, StopSilencesPeriodicHello) {
  gm_fixture f;
  f.gm.local_join(g1, process_id{0}, true);
  f.gm.stop();
  const auto before = f.broadcasts.size();
  f.sim.run_until(f.sim.now() + sec(30));
  EXPECT_EQ(f.broadcasts.size(), before);
}

// ---- HELLO_ACK run application ------------------------------------------

/// Records every membership event in order; `on_join_hook` runs inside the
/// joined callback *before* the event is logged, so a hook that re-enters
/// the module exercises the callback's member_info across table changes.
struct recording_fixture : gm_fixture {
  using event = std::tuple<char, group_id, member_info>;
  std::vector<event> log;
  std::function<void(group_id, const member_info&)> on_join_hook;

  recording_fixture() {
    gm.set_events(group_maintenance::events{
        .on_member_joined =
            [this](group_id g, const member_info& m) {
              if (on_join_hook) on_join_hook(g, m);
              log.emplace_back('j', g, m);
            },
        .on_member_removed =
            [this](group_id g, const member_info& m) {
              log.emplace_back('r', g, m);
            },
        .on_member_reincarnated =
            [this](group_id g, const member_info& m) {
              log.emplace_back('i', g, m);
            },
    });
  }

  /// Applies `ack` whole, or as one single-entry ACK per entry (the
  /// reference: every entry resolved and upserted on its own).
  void apply(const proto::hello_ack_msg& ack, bool one_by_one) {
    if (!one_by_one) {
      gm.on_hello_ack(ack, sim.now());
      return;
    }
    for (const auto& e : ack.entries) {
      gm.on_hello_ack(proto::hello_ack_msg{ack.from, ack.inc, {e}}, sim.now());
    }
  }
};

node_id host(std::uint32_t pid) { return node_id{1000 + pid}; }

proto::hello_ack_msg::entry ack_entry(group_id g, std::uint32_t pid,
                                      incarnation inc = 1, bool candidate = true) {
  return {g, process_id{pid}, host(pid), inc, candidate};
}

TEST(GroupMaintenance, HelloAckRunsMatchOneByOneApplication) {
  const group_id foreign{3};
  proto::hello_ack_msg seed;
  seed.from = n1;
  seed.inc = 1;
  seed.entries = {ack_entry(g1, 3), ack_entry(g1, 6, 2), ack_entry(g1, 9),
                  ack_entry(g2, 4)};
  proto::hello_ack_msg ack;
  ack.from = n2;
  ack.inc = 1;
  ack.entries = {
      ack_entry(foreign, 1), ack_entry(foreign, 2),  // group we are not in
      ack_entry(g1, 1),                              // join
      ack_entry(g1, 3, 2),                           // reincarnation
      ack_entry(g1, 5),                              // join
      ack_entry(g1, 6, 1),                           // stale incarnation
      ack_entry(g1, 8),                              // join
      ack_entry(g1, 9, 1, false),                    // candidate flip
      ack_entry(foreign, 7),
      ack_entry(g2, 7), ack_entry(g2, 2),            // unsorted run
      ack_entry(g2, 4, 2), ack_entry(g2, 1),
      ack_entry(g1, 2), ack_entry(g1, 10),           // second run of g1
  };

  recording_fixture whole;
  recording_fixture single;
  for (recording_fixture* f : {&whole, &single}) {
    f->gm.local_join(g1, process_id{0}, true);
    f->gm.local_join(g2, process_id{0}, false);
    f->gm.on_hello_ack(seed, f->sim.now());
    f->log.clear();
    f->apply(ack, /*one_by_one=*/f == &single);
  }

  EXPECT_EQ(whole.log, single.log);
  for (const group_id g : {g1, g2, foreign}) {
    EXPECT_EQ(whole.gm.table(g).members_view(), single.gm.table(g).members_view());
  }
  // The ACK exercised joins and reincarnations in both groups, and nothing
  // of the foreign group was learned.
  EXPECT_EQ(std::count_if(whole.log.begin(), whole.log.end(),
                          [](const auto& e) { return std::get<0>(e) == 'i'; }),
            2);
  EXPECT_EQ(whole.gm.table(g1).size(), 9u);  // 0,1,2,3,5,6,8,9,10
  EXPECT_EQ(whole.gm.table(g2).size(), 5u);  // 0,1,2,4,7
  EXPECT_TRUE(whole.gm.table(foreign).empty());
}

TEST(GroupMaintenance, ReentrantJoinCallbackDuringHelloAck) {
  // The joined callback re-enters the same group mid-run: once it inserts
  // local rows in front of the run's cursor, once it leaves and re-joins
  // the group outright. The ACK must still match one-by-one application,
  // and every callback must see the row it was called for (under ASan,
  // never a reference into the moved table).
  proto::hello_ack_msg ack;
  ack.from = n1;
  ack.inc = 1;
  for (std::uint32_t pid = 2; pid <= 40; pid += 2) ack.entries.push_back(ack_entry(g1, pid));

  recording_fixture whole;
  recording_fixture single;
  for (recording_fixture* f : {&whole, &single}) {
    f->on_join_hook = [f](group_id g, const member_info& m) {
      if (m.node == n0) return;  // local rows: no re-entry
      if (m.pid == process_id{8}) {
        f->gm.local_join(g, process_id{3}, true);
        f->gm.local_join(g, process_id{5}, true);
      } else if (m.pid == process_id{16}) {
        f->gm.local_leave(g, f->gm.local_member(g)->pid);
        f->gm.local_join(g, process_id{1}, true);
      }
    };
    f->gm.local_join(g1, process_id{0}, true);
    f->log.clear();
    f->apply(ack, /*one_by_one=*/f == &single);
  }

  EXPECT_EQ(whole.log, single.log);
  EXPECT_EQ(whole.gm.table(g1).members_view(), single.gm.table(g1).members_view());
  // Each remote join was reported with its own row, in ACK order.
  std::vector<member_info> remote_joins;
  for (const auto& [kind, g, m] : whole.log) {
    if (kind == 'j' && m.node != n0) remote_joins.push_back(m);
  }
  ASSERT_EQ(remote_joins.size(), ack.entries.size());
  for (std::size_t i = 0; i < remote_joins.size(); ++i) {
    EXPECT_EQ(remote_joins[i].pid, ack.entries[i].pid);
    EXPECT_EQ(remote_joins[i].node, ack.entries[i].node);
  }
  // After the re-join at pid 16 the fresh table holds the local pid 1 and
  // the rest of the run (18..40).
  EXPECT_EQ(whole.gm.table(g1).size(), 13u);
  EXPECT_EQ(whole.gm.table(g1).members_view().front().pid, process_id{1});
}

}  // namespace
}  // namespace omega::membership
