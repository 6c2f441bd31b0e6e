// Exactness of the electors' evaluation memo. Two instances of the same
// algorithm observe one world (roster, trust, clock): one with
// `members_version` wired, so it memoizes evaluate() as it does inside a
// service, and a twin with it left null, so every evaluate() recomputes
// from scratch. Both are driven through the same seeded random events —
// payloads, trust edges on contender and non-contender nodes, accusations,
// roster joins/leaves/reincarnations/candidate-flag flips, own candidacy
// flips — and after every step must agree on evaluate(),
// should_send_alive(), fill_payload() and every ACCUSE sent.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "election/omega_l.hpp"
#include "election/omega_lc.hpp"
#include "elector_fixture.hpp"

namespace omega::election {
namespace {

using testing::elector_world;
using testing::sent_accusation;

using param = std::tuple<algorithm, std::uint64_t>;  // (algorithm, seed)

constexpr process_id self{1};
constexpr std::uint32_t kPool = 8;         // peers 2..kPool+1
constexpr node_id kOutsider{kPool + 10};  // monitored, never a member

struct twin {
  std::unique_ptr<elector> e;
  std::vector<sent_accusation> accusations;

  twin(algorithm alg, elector_context ctx) {
    ctx.send_accuse = [this](const proto::accuse_msg& m, node_id dst) {
      accusations.push_back({m, dst});
    };
    e = make_elector(alg, std::move(ctx));
  }
};

class MemoExactness : public ::testing::TestWithParam<param> {};

TEST_P(MemoExactness, MemoizedTwinMatchesRecomputingTwin) {
  const auto [alg, seed] = GetParam();
  rng r{seed};
  elector_world w;
  w.clock.set(time_origin + sec(1));
  evaluation_counts counts;
  elector_context memo_ctx = w.memoized_context(self, /*candidate=*/true);
  memo_ctx.evaluations = &counts;
  twin memo(alg, std::move(memo_ctx));
  twin fresh(alg, w.context(self, /*candidate=*/true));
  w.add_member(self);

  std::vector<incarnation> incs(kPool + 2, 0);
  std::vector<bool> present(kPool + 2, false);
  bool self_candidate = true;
  const auto each = [&](auto&& fn) {
    fn(*memo.e);
    fn(*fresh.e);
  };
  const auto flip_trust = [&](node_id node) {
    const bool trusted = w.trusted.count(node) == 0;
    if (trusted) {
      w.trusted.insert(node);
    } else {
      w.trusted.erase(node);
    }
    each([&](elector& e) { e.on_fd_transition(node, trusted); });
  };

  for (int step = 0; step < 600; ++step) {
    w.clock.advance(msec(1 + static_cast<std::int64_t>(r.uniform_below(300))));
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(r.uniform_below(kPool));
    const process_id pid{n};
    const node_id node{n};

    switch (r.uniform_below(10)) {
      case 0:
      case 1:
      case 2: {  // ALIVE payload, now and then from a stale incarnation
        const incarnation inc =
            r.bernoulli(0.1) && incs[n] > 1 ? incs[n] - 1
                                            : std::max<incarnation>(1, incs[n]);
        proto::group_payload p = testing::payload_from(
            pid, w.clock.now() - msec(static_cast<std::int64_t>(r.uniform_below(4000))),
            /*candidate=*/r.bernoulli(0.9), /*competing=*/r.bernoulli(0.7),
            /*phase=*/static_cast<std::uint32_t>(r.uniform_below(3)));
        if (r.bernoulli(0.7)) {
          p.local_leader = process_id{1 + static_cast<std::uint32_t>(
                                              r.uniform_below(kPool + 1))};
          p.local_leader_acc =
              w.clock.now() - msec(static_cast<std::int64_t>(r.uniform_below(4000)));
        }
        each([&](elector& e) { e.on_alive_payload(node, inc, p); });
        break;
      }
      case 3:  // trust edge on a pool node (contender or not)
        flip_trust(node);
        break;
      case 4:  // trust edge on a node that hosts no member at all
        flip_trust(kOutsider);
        break;
      case 5: {  // accusation aimed at us: random phase, incarnation, age
        proto::accuse_msg accuse;
        accuse.from = node;
        accuse.group = group_id{1};
        accuse.target = self;
        accuse.target_inc = r.bernoulli(0.9) ? 1 : 2;
        accuse.phase = static_cast<std::uint32_t>(r.uniform_below(4));
        accuse.when = w.clock.now() - msec(static_cast<std::int64_t>(r.uniform_below(2000)));
        each([&](elector& e) { e.on_accuse(accuse); });
        break;
      }
      case 6: {  // join, or reincarnation of a present member
        if (present[n]) {
          const membership::member_info prior{pid, node, incs[n], true, {}};
          each([&](elector& e) { e.on_member_removed(prior); });
          w.remove_member(pid);
        }
        present[n] = true;
        ++incs[n];
        w.add_member(pid, /*candidate=*/r.bernoulli(0.8), incs[n]);
        break;
      }
      case 7:  // leave
        if (present[n]) {
          present[n] = false;
          const membership::member_info gone{pid, node, incs[n], true, {}};
          each([&](elector& e) { e.on_member_removed(gone); });
          w.remove_member(pid);
        }
        break;
      case 8: {  // roster candidate-flag flip: visible only via the version
        const auto* m = find_member(w.members, pid);
        if (m != nullptr) w.set_candidate(pid, !m->candidate);
        break;
      }
      case 9:  // own candidacy flip (rarely)
        if (r.bernoulli(0.2)) {
          self_candidate = !self_candidate;
          w.set_candidate(self, self_candidate);
          each([&](elector& e) { e.set_candidate(self_candidate); });
        }
        break;
    }

    const auto leader = memo.e->evaluate();
    ASSERT_EQ(leader, fresh.e->evaluate()) << "evaluate() diverged at step " << step;
    ASSERT_EQ(memo.e->should_send_alive(), fresh.e->should_send_alive())
        << "should_send_alive() diverged at step " << step;
    proto::group_payload a;
    proto::group_payload b;
    memo.e->fill_payload(a);
    fresh.e->fill_payload(b);
    ASSERT_EQ(a, b) << "fill_payload() diverged at step " << step;
    ASSERT_EQ(memo.accusations.size(), fresh.accusations.size())
        << "accusations diverged at step " << step;
    for (std::size_t i = 0; i < memo.accusations.size(); ++i) {
      ASSERT_EQ(memo.accusations[i].msg, fresh.accusations[i].msg);
      ASSERT_EQ(memo.accusations[i].dst, fresh.accusations[i].dst);
    }
    // A repeated evaluation without events is always a memo hit.
    const std::uint64_t hits = counts.memo;
    ASSERT_EQ(memo.e->evaluate(), leader);
    if (alg == algorithm::omega_l || alg == algorithm::omega_l_nophase) {
      ASSERT_EQ(counts.memo, hits + 1) << "step " << step;
    }
  }
  // The run exercised both sides of the memo.
  EXPECT_GT(counts.memo, 0u);
  EXPECT_GT(counts.evaluated, 0u);
}

std::string param_name(const ::testing::TestParamInfo<param>& info) {
  const auto [alg, seed] = info.param;
  std::string name;
  switch (alg) {
    case algorithm::omega_lc: name = "S2"; break;
    case algorithm::omega_l: name = "S3"; break;
    case algorithm::omega_lc_noforward: name = "S2_noforward"; break;
    case algorithm::omega_l_nophase: name = "S3_nophase"; break;
    case algorithm::omega_id: name = "S1"; break;
  }
  return name + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MemoExactness,
    ::testing::Combine(::testing::Values(algorithm::omega_lc, algorithm::omega_l,
                                         algorithm::omega_lc_noforward,
                                         algorithm::omega_l_nophase),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u)),
    param_name);

// omega_l::evaluate() ranks each contender before it probes the roster and
// the FD. Check the result against a brute-force minimum over every
// eligible, trusted contender, with the contender state tracked by a
// reference model of on_alive_payload. Trust and roster changes are applied
// to the world silently (no on_fd_transition), and the elector has no
// members_version, so every evaluate() recomputes and must read them.
class OmegaLBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OmegaLBruteForce, EvaluateIsTheMinimumOverEligibleTrustedContenders) {
  rng r{GetParam()};
  elector_world w;
  // Late enough that no accusation time below predates time_origin.
  w.clock.set(time_origin + sec(10));
  omega_l e(w.context(self, /*candidate=*/true));
  w.add_member(self);

  struct contender {
    node_id node;
    incarnation inc;
    time_point acc;
  };
  std::map<process_id, contender> model;
  bool self_candidate = true;
  int peer_wins = 0;
  int self_wins = 0;
  constexpr std::uint32_t kPeers = 24;  // peers 2..kPeers+1

  for (int step = 0; step < 3000; ++step) {
    w.clock.advance(msec(1 + static_cast<std::int64_t>(r.uniform_below(50))));
    const std::uint32_t n = 2 + static_cast<std::uint32_t>(r.uniform_below(kPeers));
    const process_id pid{n};
    const node_id node{n};
    switch (r.uniform_below(8)) {
      case 0:
      case 1:
      case 2: {  // ALIVE payload, sometimes a withdrawal or a stale one
        const incarnation inc = 1 + r.uniform_below(2);
        const bool competing = r.bernoulli(0.85);
        // Anywhere since the origin, so peers often outrank our own time.
        const time_point acc =
            time_origin + usec(static_cast<std::int64_t>(r.uniform_below(
                              static_cast<std::uint64_t>(
                                  (w.clock.now() - time_origin).count()))));
        auto it = model.find(pid);
        if (it == model.end() || inc >= it->second.inc) {
          if (!competing) {
            if (it != model.end()) model.erase(it);
          } else if (it == model.end()) {
            model.emplace(pid, contender{node, inc, acc});
          } else {
            it->second = {node, inc, std::max(it->second.acc, acc)};
          }
        }
        e.on_alive_payload(node, inc,
                           testing::payload_from(pid, acc, /*candidate=*/true,
                                                 competing));
        break;
      }
      case 3:  // silent trust flip
        if (w.trusted.count(node) > 0) {
          w.trusted.erase(node);
        } else {
          w.trusted.insert(node);
        }
        break;
      case 4: {  // roster: join or re-incarnate with a random candidacy
        w.remove_member(pid);
        w.add_member(pid, /*candidate=*/r.bernoulli(0.7), 1 + r.uniform_below(2));
        if (r.bernoulli(0.5)) w.distrust(pid);
        break;
      }
      case 5:  // roster: leave
        w.remove_member(pid);
        break;
      case 6:  // roster: candidate-flag flip
        if (const auto* m = find_member(w.members, pid)) {
          w.set_candidate(pid, !m->candidate);
        }
        break;
      case 7:  // own candidacy flip (rarely)
        if (r.bernoulli(0.1)) {
          self_candidate = !self_candidate;
          w.set_candidate(self, self_candidate);
          e.set_candidate(self_candidate);
        }
        break;
    }

    std::optional<std::pair<time_point, process_id>> best;
    if (self_candidate) best.emplace(e.self_accusation_time(), self);
    for (const auto& [p, c] : model) {
      const auto* m = find_member(w.members, p);
      if (m == nullptr || !m->candidate || m->inc != c.inc) continue;
      if (w.trusted.count(c.node) == 0) continue;
      const std::pair<time_point, process_id> rank{c.acc, p};
      if (!best || rank < *best) best = rank;
    }
    const std::optional<process_id> want =
        best ? std::optional<process_id>(best->second) : std::nullopt;
    ASSERT_EQ(e.evaluate(), want) << "step " << step;
    if (want) ++(*want == self ? self_wins : peer_wins);
  }
  // Not a vacuous check: both we and the peers led a good share of steps.
  EXPECT_GT(peer_wins, 1000);
  EXPECT_GT(self_wins, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OmegaLBruteForce,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

}  // namespace
}  // namespace omega::election
