// Property-style tests: randomized event sequences against invariants that
// must hold for every elector implementation, swept across algorithms and
// seeds with parameterized gtest.
//
// Invariants checked after every step:
//   I1. evaluate() only ever returns a *candidate member* (or nothing).
//   I2. self_accusation_time() is monotonically non-decreasing.
//   I3. fill_payload() emits our own identity and current candidacy.
//   I4. evaluate() is deterministic: calling it twice in a row without new
//       events yields the same leader.
//   I5. If the local process is the only candidate member and no event ever
//       mentioned another candidate, it elects itself (liveness baseline).
#include <gtest/gtest.h>

#include <tuple>

#include "common/random.hpp"
#include "election/elector.hpp"
#include "elector_fixture.hpp"

namespace omega::election {
namespace {

using testing::elector_world;
using testing::payload_from;

using param = std::tuple<algorithm, std::uint64_t>;  // (algorithm, seed)

class ElectorProperties : public ::testing::TestWithParam<param> {};

TEST_P(ElectorProperties, RandomEventSoup) {
  const auto [alg, seed] = GetParam();
  rng r{seed};
  elector_world w;
  w.clock.set(time_origin + sec(1));

  constexpr process_id self{1};
  auto e = make_elector(alg, w.context(self, /*candidate=*/true));
  w.add_member(self);

  // A pool of four other processes that randomly join/leave/speak.
  constexpr std::uint32_t kPool = 4;
  std::vector<bool> present(kPool + 2, false);
  std::vector<incarnation> incs(kPool + 2, 0);
  present[self.value()] = true;

  time_point last_self_acc = e->self_accusation_time();

  for (int step = 0; step < 400; ++step) {
    w.clock.advance(msec(1 + static_cast<std::int64_t>(r.uniform_below(500))));
    const std::uint32_t pid_num =
        2 + static_cast<std::uint32_t>(r.uniform_below(kPool));
    const process_id pid{pid_num};
    const node_id node{pid_num};

    switch (r.uniform_below(6)) {
      case 0: {  // join (new incarnation)
        if (!present[pid_num]) {
          present[pid_num] = true;
          ++incs[pid_num];
          w.add_member(pid, /*candidate=*/r.bernoulli(0.8), incs[pid_num]);
        }
        break;
      }
      case 1: {  // leave / removal
        if (present[pid_num]) {
          present[pid_num] = false;
          e->on_member_removed({pid, node, incs[pid_num],
                                /*candidate=*/true, {}});
          w.remove_member(pid);
        }
        break;
      }
      case 2: {  // ALIVE payload (sometimes from a stale incarnation)
        const bool stale = r.bernoulli(0.2) && incs[pid_num] > 1;
        const incarnation inc =
            stale ? incs[pid_num] - 1 : std::max<incarnation>(1, incs[pid_num]);
        auto p = payload_from(
            pid, w.clock.now() - msec(static_cast<std::int64_t>(
                     r.uniform_below(5000))),
            /*candidate=*/r.bernoulli(0.9),
            /*competing=*/r.bernoulli(0.8),
            /*phase=*/static_cast<std::uint32_t>(r.uniform_below(4)));
        e->on_alive_payload(node, inc, p);
        break;
      }
      case 3: {  // FD verdict flip
        const bool trusted = r.bernoulli(0.5);
        if (trusted) {
          w.trusted.insert(node);
        } else {
          w.trusted.erase(node);
        }
        e->on_fd_transition(node, trusted);
        break;
      }
      case 4: {  // accusation aimed at us (random phase / incarnation)
        proto::accuse_msg accuse;
        accuse.from = node;
        accuse.group = group_id{1};
        accuse.target = self;
        accuse.target_inc = r.bernoulli(0.8) ? 1 : 2;
        accuse.phase = static_cast<std::uint32_t>(r.uniform_below(4));
        accuse.when = w.clock.now();
        e->on_accuse(accuse);
        break;
      }
      case 5: {  // accusation aimed at someone else entirely
        proto::accuse_msg accuse;
        accuse.target = pid;
        accuse.target_inc = incs[pid_num];
        accuse.phase = 1;
        e->on_accuse(accuse);
        break;
      }
    }

    // ---- invariants --------------------------------------------------------
    const auto leader = e->evaluate();
    if (leader) {
      const bool is_candidate_member = std::any_of(
          w.members.begin(), w.members.end(),
          [&](const membership::member_info& m) {
            return m.pid == *leader && m.candidate;
          });
      ASSERT_TRUE(is_candidate_member)
          << "I1 violated at step " << step << ": elected "
          << leader->value() << " which is not a candidate member";
    }

    ASSERT_GE(e->self_accusation_time(), last_self_acc)
        << "I2 violated at step " << step;
    last_self_acc = e->self_accusation_time();

    proto::group_payload payload;
    e->fill_payload(payload);
    ASSERT_EQ(payload.pid, self) << "I3 violated at step " << step;
    ASSERT_TRUE(payload.candidate) << "I3 violated at step " << step;

    ASSERT_EQ(e->evaluate(), leader) << "I4 violated at step " << step;
  }
}

TEST_P(ElectorProperties, SoleCandidateElectsSelf) {
  const auto [alg, seed] = GetParam();
  rng r{seed ^ 0xabcdef};
  elector_world w;
  w.clock.set(time_origin + sec(1));

  constexpr process_id self{1};
  auto e = make_elector(alg, w.context(self, true));
  w.add_member(self);
  // Add non-candidate members only; they chat but never compete.
  for (std::uint32_t i = 2; i <= 4; ++i) {
    w.add_member(process_id{i}, /*candidate=*/false);
  }
  for (int step = 0; step < 100; ++step) {
    w.clock.advance(msec(100));
    const std::uint32_t pid_num = 2 + static_cast<std::uint32_t>(r.uniform_below(3));
    e->on_alive_payload(node_id{pid_num}, 1,
                        payload_from(process_id{pid_num}, w.clock.now(),
                                     /*candidate=*/false,
                                     /*competing=*/false));
    ASSERT_EQ(e->evaluate(), self) << "I5 violated at step " << step;
  }
}

std::string param_name(const ::testing::TestParamInfo<param>& info) {
  const auto [alg, seed] = info.param;
  std::string name;
  switch (alg) {
    case algorithm::omega_id: name = "S1"; break;
    case algorithm::omega_lc: name = "S2"; break;
    case algorithm::omega_l: name = "S3"; break;
    case algorithm::omega_lc_noforward: name = "S2_noforward"; break;
    case algorithm::omega_l_nophase: name = "S3_nophase"; break;
  }
  return name + "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ElectorProperties,
    ::testing::Combine(::testing::Values(algorithm::omega_id,
                                         algorithm::omega_lc,
                                         algorithm::omega_l),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)),
    param_name);

}  // namespace
}  // namespace omega::election
