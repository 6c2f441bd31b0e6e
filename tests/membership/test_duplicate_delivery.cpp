// Duplicate-delivery idempotency (ISSUE 10 satellite): the adversary plane
// can deliver any datagram k times, so every membership handler must be
// idempotent — re-applying HELLO / HELLO_ACK / LEAVE must not double-fire
// membership events, and a stale duplicate arriving after a reincarnation
// must not kill the new incarnation.
#include <gtest/gtest.h>

#include <unordered_set>

#include "membership/group_maintenance.hpp"
#include "sim/simulator.hpp"

namespace omega::membership {
namespace {

const group_id g1{1};
constexpr node_id n0{0};
constexpr node_id n1{1};

struct dup_fixture {
  sim::simulator sim;
  std::vector<std::pair<group_id, member_info>> joined;
  std::vector<std::pair<group_id, member_info>> removed;
  group_maintenance gm;

  dup_fixture() : gm(sim, sim, n0, /*inc=*/1, {}) {
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
    gm.local_join(g1, process_id{0}, true);
    joined.clear();
  }

  proto::hello_msg hello(incarnation inc) {
    proto::hello_msg msg;
    msg.from = n1;
    msg.inc = inc;
    msg.entries.push_back({g1, process_id{1}, true});
    return msg;
  }

  proto::leave_msg leave(incarnation inc) {
    proto::leave_msg msg;
    msg.from = n1;
    msg.inc = inc;
    msg.group = g1;
    msg.pid = process_id{1};
    return msg;
  }
};

TEST(DuplicateDelivery, RepeatedHelloJoinsOnce) {
  dup_fixture f;
  for (int i = 0; i < 4; ++i) f.gm.on_hello(f.hello(1), f.sim.now());
  EXPECT_EQ(f.joined.size(), 1u);
  EXPECT_EQ(f.gm.table(g1).members_view().size(), 2u);
}

TEST(DuplicateDelivery, RepeatedHelloAckJoinsOnce) {
  dup_fixture f;
  proto::hello_ack_msg ack;
  ack.from = n1;
  ack.inc = 1;
  ack.entries.push_back({g1, process_id{1}, n1, 1, true});
  for (int i = 0; i < 4; ++i) f.gm.on_hello_ack(ack, f.sim.now());
  EXPECT_EQ(f.joined.size(), 1u);
}

TEST(DuplicateDelivery, RepeatedLeaveRemovesOnce) {
  dup_fixture f;
  f.gm.on_hello(f.hello(1), f.sim.now());
  for (int i = 0; i < 4; ++i) f.gm.on_leave(f.leave(1));
  EXPECT_EQ(f.removed.size(), 1u);
  EXPECT_EQ(f.gm.table(g1).find(process_id{1}), nullptr);
}

TEST(DuplicateDelivery, StaleDuplicateLeaveSparesReincarnation) {
  // The classic resurrection-killer: p leaves (inc 1), rejoins as inc 2,
  // then the adversary replays the old LEAVE. The new incarnation must
  // survive, and no removal event may fire for it.
  dup_fixture f;
  f.gm.on_hello(f.hello(1), f.sim.now());
  f.gm.on_leave(f.leave(1));
  f.gm.on_hello(f.hello(2), f.sim.now());
  f.removed.clear();

  f.gm.on_leave(f.leave(1));  // delayed duplicate from the previous life
  const auto* m = f.gm.table(g1).find(process_id{1});
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->inc, 2u);
  EXPECT_TRUE(f.removed.empty());
}

TEST(DuplicateDelivery, StaleDuplicateHelloCannotDowngrade) {
  // A replayed HELLO from a dead incarnation must neither resurrect the
  // old entry nor fire a join event once inc 2 is installed.
  dup_fixture f;
  f.gm.on_hello(f.hello(2), f.sim.now());
  f.joined.clear();
  f.gm.on_hello(f.hello(1), f.sim.now());
  EXPECT_EQ(f.gm.table(g1).find(process_id{1})->inc, 2u);
  EXPECT_TRUE(f.joined.empty());
}

TEST(DuplicateDelivery, InterleavedDuplicatesConvergeToNewestIncarnation) {
  // An adversarial interleaving of duplicates from two incarnations: the
  // table must end on the newest incarnation with exactly one join event
  // per incarnation, however the copies are ordered.
  dup_fixture f;
  f.gm.on_hello(f.hello(1), f.sim.now());
  f.gm.on_hello(f.hello(2), f.sim.now());
  f.gm.on_hello(f.hello(1), f.sim.now());
  f.gm.on_hello(f.hello(2), f.sim.now());
  f.gm.on_hello(f.hello(1), f.sim.now());
  EXPECT_EQ(f.gm.table(g1).find(process_id{1})->inc, 2u);
  EXPECT_EQ(f.joined.size(), 2u);  // inc 1 once + inc 2 once
}

}  // namespace
}  // namespace omega::membership
