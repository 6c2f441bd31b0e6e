// Unit tests for Omega_l (S3): communication-efficient election via
// competition withdrawal, with phase-guarded accusations protecting
// voluntary silence (the algorithm's stability mechanism).
#include <gtest/gtest.h>

#include "election/omega_l.hpp"
#include "elector_fixture.hpp"

namespace omega::election {
namespace {

using testing::elector_world;
using testing::payload_from;

constexpr process_id p1{1};
constexpr process_id p2{2};
constexpr process_id p3{3};

TEST(OmegaL, CandidateStartsCompeting) {
  elector_world w;
  omega_l e(w.context(p1, true));
  w.add_member(p1);
  EXPECT_TRUE(e.should_send_alive());
  EXPECT_EQ(e.evaluate(), p1);
  EXPECT_TRUE(e.should_send_alive());
}

TEST(OmegaL, NonCandidateNeverCompetes) {
  elector_world w;
  omega_l e(w.context(p1, false));
  w.add_member(p1, false);
  EXPECT_FALSE(e.should_send_alive());
  EXPECT_EQ(e.evaluate(), std::nullopt);
}

TEST(OmegaL, WithdrawsWhenBetterContenderAppears) {
  // Communication efficiency: hearing a better contender makes us stop
  // sending ALIVEs.
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));  // self acc = t100
  w.add_member(p1);
  w.add_member(p2);
  ASSERT_TRUE(e.should_send_alive());

  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  EXPECT_EQ(e.evaluate(), p1);
  EXPECT_FALSE(e.should_send_alive()) << "losing contender must fall silent";
}

TEST(OmegaL, ReentersCompetitionWhenLeaderSuspected) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  ASSERT_EQ(e.evaluate(), p1);
  ASSERT_FALSE(e.should_send_alive());

  // FD times out on p1's node: accuse and re-enter the competition.
  w.distrust(p1);
  e.on_fd_transition(node_id{1}, false);
  EXPECT_EQ(e.evaluate(), p2);
  EXPECT_TRUE(e.should_send_alive());
  ASSERT_EQ(w.accusations.size(), 1u);
  EXPECT_EQ(w.accusations[0].msg.target, p1);
}

TEST(OmegaL, AccusePhaseMatchesLastSeenPayload) {
  elector_world w;
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 1,
                     payload_from(p1, time_origin, true, true, /*phase=*/7));
  e.on_fd_transition(node_id{1}, false);
  ASSERT_EQ(w.accusations.size(), 1u);
  EXPECT_EQ(w.accusations[0].msg.phase, 7u);
}

TEST(OmegaL, CurrentPhaseAccusationDemotes) {
  elector_world w;
  w.clock.set(time_origin + sec(10));
  omega_l e(w.context(p1, true));
  w.add_member(p1);
  ASSERT_EQ(e.evaluate(), p1);

  proto::group_payload mine;
  e.fill_payload(mine);
  ASSERT_TRUE(mine.competing);

  w.clock.advance(sec(20));
  proto::accuse_msg accuse;
  accuse.target = p1;
  accuse.target_inc = 1;
  accuse.phase = mine.phase;  // matches our live competition phase
  e.on_accuse(accuse);
  EXPECT_EQ(e.self_accusation_time(), w.clock.now());
}

TEST(OmegaL, StalePhaseAccusationIgnored) {
  // THE stability mechanism: an accusation earned during voluntary silence
  // (or any earlier phase) must not advance the accusation time.
  elector_world w;
  w.clock.set(time_origin + sec(10));
  omega_l e(w.context(p1, true));
  w.add_member(p1);
  ASSERT_EQ(e.evaluate(), p1);
  proto::group_payload mine;
  e.fill_payload(mine);

  const time_point before = e.self_accusation_time();
  w.clock.advance(sec(20));
  proto::accuse_msg accuse;
  accuse.target = p1;
  accuse.target_inc = 1;
  accuse.phase = mine.phase - 1;  // from before our current epoch
  e.on_accuse(accuse);
  EXPECT_EQ(e.self_accusation_time(), before);
}

TEST(OmegaL, AccusationWhileSilentIgnored) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  ASSERT_EQ(e.evaluate(), p1);  // now silent

  const time_point before = e.self_accusation_time();
  w.clock.advance(sec(5));
  proto::accuse_msg accuse;
  accuse.target = p2;
  accuse.target_inc = 1;
  accuse.phase = 1;
  e.on_accuse(accuse);
  EXPECT_EQ(e.self_accusation_time(), before)
      << "a withdrawn process cannot be demoted by accusations";
}

TEST(OmegaL, ReentryIncrementsPhase) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);

  proto::group_payload first;
  e.fill_payload(first);

  // Withdraw (p1 is better), then p1 crashes and we re-enter.
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  ASSERT_EQ(e.evaluate(), p1);
  w.distrust(p1);
  e.on_fd_transition(node_id{1}, false);
  ASSERT_EQ(e.evaluate(), p2);

  proto::group_payload second;
  e.fill_payload(second);
  EXPECT_GT(second.phase, first.phase)
      << "re-entering the competition must open a new phase";
}

TEST(OmegaL, GracefulWithdrawalDropsContenderImmediately) {
  // A payload with competing=false removes the contender without waiting
  // for an FD timeout.
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  ASSERT_EQ(e.evaluate(), p1);

  e.on_alive_payload(node_id{1}, 1,
                     payload_from(p1, time_origin + sec(10), true,
                                  /*competing=*/false));
  EXPECT_EQ(e.evaluate(), p2);
  EXPECT_TRUE(e.should_send_alive());
}

TEST(OmegaL, SuspectedContenderNotElected) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  ASSERT_EQ(e.evaluate(), p1);
  w.distrust(p1);  // FD verdict flips without the transition callback yet
  EXPECT_EQ(e.evaluate(), p2);
}

TEST(OmegaL, StaleIncarnationPayloadIgnored) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1, true, 2);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 2, payload_from(p1, time_origin + sec(90)));
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(1)));
  // The live incarnation's (later) acc time must rank, so we (t100) lose to
  // p1@t90, not to the ghost p1@t1. Verify indirectly: accuse p1@inc2 via a
  // fresh payload with even later time — then we must win.
  ASSERT_EQ(e.evaluate(), p1);
  e.on_alive_payload(node_id{1}, 2, payload_from(p1, time_origin + sec(150)));
  EXPECT_EQ(e.evaluate(), p2);
}

TEST(OmegaL, ContenderMustBeCurrentMember) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p2);
  // p1 sends ALIVEs but never joined the group (no HELLO processed).
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  EXPECT_EQ(e.evaluate(), p2);
}

TEST(OmegaL, ContenderMustMatchRosterIncarnation) {
  // The roster already knows p1's next incarnation; evidence from the old
  // one must not make it eligible.
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1, true, /*inc=*/2);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  EXPECT_EQ(e.evaluate(), p2);
  e.on_alive_payload(node_id{1}, 2, payload_from(p1, time_origin + sec(10)));
  EXPECT_EQ(e.evaluate(), p1);
}

TEST(OmegaL, MemberRemovalForgetsContender) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  ASSERT_EQ(e.evaluate(), p1);
  e.on_member_removed({p1, node_id{1}, 1, true, {}});
  w.remove_member(p1);
  EXPECT_EQ(e.evaluate(), p2);
}

TEST(OmegaL, ContendersAddedInDescendingPidOrderAreFound) {
  // Eligibility is a binary search of the pid-sorted roster: members that
  // joined in descending pid order must all still be found.
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.memoized_context(process_id{9}, true));
  for (std::uint32_t pid = 9; pid >= 2; --pid) w.add_member(process_id{pid});
  for (std::uint32_t pid = 8; pid >= 2; --pid) {
    // p5 holds the earliest accusation time; the rest trail it.
    const time_point acc = time_origin + sec(pid == 5 ? 1 : 10 + pid);
    e.on_alive_payload(node_id{pid}, 1, payload_from(process_id{pid}, acc));
  }
  EXPECT_EQ(e.evaluate(), process_id{5});
  w.set_candidate(process_id{5}, false);
  EXPECT_EQ(e.evaluate(), process_id{2}) << "next-earliest accusation time";
  w.distrust(process_id{2});
  e.on_fd_transition(node_id{2}, false);
  EXPECT_EQ(e.evaluate(), process_id{3});
}

TEST(OmegaL, LateJoinerDoesNotDemoteEstablishedLeader) {
  // Stability parity with S2 for the rejoin scenario that breaks S1.
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p2);
  ASSERT_EQ(e.evaluate(), p2);

  w.clock.advance(sec(10));
  w.add_member(p1);
  e.on_alive_payload(node_id{1}, 1, payload_from(p1, w.clock.now()));
  EXPECT_EQ(e.evaluate(), p2);
  EXPECT_TRUE(e.should_send_alive());
}

TEST(OmegaL, PayloadReflectsCompetitionState) {
  elector_world w;
  w.clock.set(time_origin + sec(100));
  omega_l e(w.context(p2, true));
  w.add_member(p1);
  w.add_member(p2);

  proto::group_payload competing;
  e.fill_payload(competing);
  EXPECT_TRUE(competing.competing);
  EXPECT_EQ(competing.accusation_time, time_origin + sec(100));

  e.on_alive_payload(node_id{1}, 1, payload_from(p1, time_origin + sec(10)));
  ASSERT_EQ(e.evaluate(), p1);
  proto::group_payload silent;
  e.fill_payload(silent);
  EXPECT_FALSE(silent.competing);
}

TEST(OmegaL, FactoryProducesOmegaL) {
  elector_world w;
  auto e = make_elector(algorithm::omega_l, w.context(p1, true));
  EXPECT_EQ(e->name(), "omega_l");
}

}  // namespace
}  // namespace omega::election
